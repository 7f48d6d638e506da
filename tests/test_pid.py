import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fusionpid.dataset import TripleDataset
from fusionpid.info import Joint3, conditional_entropy_output
from fusionpid.pid import (
    OBJECTIVE_TOL,
    InfeasibleError,
    check_consistency,
    convert,
    feasible_initial,
    feasible_residual,
    pid_from_joint,
    pid_from_solution,
    solve_qstar,
)
from fusionpid.synth import GATES, GateSpec, canonical_joint, gate_space, sample
from oracle import OracleError, brute_force_qstar


def gate(name):
    return canonical_joint(GateSpec(name))


def random_joint(rng, n):
    m = rng.exponential(size=(n, n, n))
    return Joint3(m / m.sum())


def components(res):
    return np.array([res.r, res.u1, res.u2, res.s])


def test_feasible_initial_copy_is_copy():
    p = gate("COPY")
    q0 = feasible_initial(p)
    assert np.allclose(q0.mass, gate("COPY").mass)


def test_feasible_initial_independent_product():
    uniform = Joint3(np.full((2, 2, 2), 0.125))
    q0 = feasible_initial(uniform)
    assert np.allclose(q0.mass, 0.125)


def test_feasible_initial_residual_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = random_joint(rng, int(rng.choice([2, 3, 4])))
        assert feasible_residual(feasible_initial(p).mass, p) <= 1e-12


def test_joint_whose_admitted_negative_cells_sum_below_tolerance_in_a_marginal_is_solved():
    # each cell is within Joint3's -1e-9 tolerance; their (y1, y) sums of -2.4e-9 are zero support
    mass = np.full((3, 3, 3), 1 / 21)
    mass[0, :, 1] = 0.0
    mass[0, :, 0] = -0.8e-9
    mass[1, 1, 1] += 2.4e-9
    p = Joint3(mass)
    assert p.mass.sum(axis=1)[0, 0] < -1e-9
    res = pid_from_joint(p)
    assert res.converged and res.consistency["passed"], res.to_json()


def test_solve_xor_objective_one_bit():
    q, diag = solve_qstar(gate("XOR"))
    assert conditional_entropy_output(q) == pytest.approx(1.0, abs=1e-6)
    assert diag["converged"]


def test_solve_copy_objective_zero():
    q, diag = solve_qstar(gate("COPY"))
    assert conditional_entropy_output(q) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(q.mass, gate("COPY").mass, atol=1e-9)


def test_solve_and_objective_half_bit():
    q, diag = solve_qstar(gate("AND"))
    assert conditional_entropy_output(q) == pytest.approx(0.5, abs=1e-6)


def test_solver_feasibility_invariants():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_joint(rng, int(rng.choice([2, 3])))
        q, diag = solve_qstar(p)
        assert diag["feasibility_residual"] <= 1e-9
        assert np.all(q.mass >= 0)
        assert q.mass.sum() == pytest.approx(1.0, abs=1e-12)
        # ascent from the feasible initial point
        assert diag["objective"] >= conditional_entropy_output(feasible_initial(p)) - 1e-12


def test_brute_force_copy_singleton():
    p = gate("COPY")
    q = brute_force_qstar(p, 100)
    assert np.allclose(q.mass, gate("COPY").mass, atol=1e-12)


def test_brute_force_matches_solver_on_xor_and_and():
    for name, target in (("XOR", 1.0), ("AND", 0.5)):
        p = gate(name)
        q_grid = brute_force_qstar(p, 1000)
        q_fw, _ = solve_qstar(p)
        assert conditional_entropy_output(q_grid) == pytest.approx(target, abs=1e-4)
        assert conditional_entropy_output(q_grid) == pytest.approx(
            conditional_entropy_output(q_fw), abs=1e-4
        )


def test_brute_force_rejects_too_many_parameters():
    rng = np.random.default_rng(23)
    for n in (4, 3):
        with pytest.raises(OracleError):
            brute_force_qstar(random_joint(rng, n), 100)


@pytest.mark.parametrize("resolution, message", [(1, "at least 2"), (20000, "exceeds cap")])
def test_brute_force_rejects_a_resolution_below_2_or_over_the_cap(resolution, message):
    with pytest.raises(OracleError, match=message):
        brute_force_qstar(gate("XOR"), resolution)


def test_brute_force_empty_y_slice_is_feasible():
    mass = np.random.default_rng(27).exponential(size=(2, 2, 2))
    mass[:, :, 1] = 0.0
    p = Joint3(mass / mass.sum())
    q = brute_force_qstar(p, 200)
    assert feasible_residual(q.mass, p) <= 1e-12
    assert np.all(q.mass[:, :, 1] == 0.0)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("XOR", (0.0, 0.0, 0.0, 1.0)),
        ("COPY", (1.0, 0.0, 0.0, 0.0)),
        ("UNIQUE1", (0.0, 1.0, 0.0, 0.0)),
        ("AND", (0.3112781244591328, 0.0, 0.0, 0.5)),
        # OR's y = 0 slice is a single cell; each of UNIQUE2's slices has a zero column
        ("OR", (0.3112781244591328, 0.0, 0.0, 0.5)),
        ("UNIQUE2", (0.0, 0.0, 1.0, 0.0)),
    ],
)
def test_gate_pid_components(name, expected):
    res = pid_from_joint(gate(name))
    assert components(res) == pytest.approx(np.array(expected), abs=1e-6)
    # cross-check against the independent grid oracle
    oracle = pid_from_solution(gate(name), brute_force_qstar(gate(name), 2000))
    assert components(res) == pytest.approx(components(oracle), abs=1e-3)


def test_pid_rejects_infeasible_qstar():
    with pytest.raises(InfeasibleError):
        pid_from_solution(gate("XOR"), gate("COPY"))


def test_negative_redundancy_beyond_the_clamp_tolerance_is_reported_unconverged():
    # XOR as its own q*: I(Y1;Y2;Y) = -1 bit, far below the clamp tolerance
    res = pid_from_solution(gate("XOR"), gate("XOR"))
    assert res.r == pytest.approx(-1.0, abs=1e-12)
    assert res.converged is False
    assert res.consistency["failures"] == ["R = -1.000e+00 below clamp tolerance"]


def test_check_consistency_gates():
    for name in ("XOR", "COPY", "UNIQUE1", "AND"):
        p = gate(name)
        res = pid_from_joint(p)
        report = check_consistency(res, p)
        assert report["passed"], report
    # degenerate point mass: everything zero
    point = np.zeros((2, 2, 2))
    point[1, 0, 1] = 1.0
    res = pid_from_joint(Joint3(point))
    report = check_consistency(res, Joint3(point))
    assert all(v <= 1e-9 for v in report["residuals"].values())


def test_sum_identity_random():
    rng = np.random.default_rng(24)
    for _ in range(20):
        p = random_joint(rng, int(rng.choice([2, 3])))
        res = pid_from_joint(p)
        assert res.r + res.u1 + res.u2 + res.s == pytest.approx(res.total, abs=1e-4)
        assert min(res.r, res.u1, res.u2, res.s) >= -1e-6


def test_oracle_equivalence_random_binary():
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = random_joint(rng, 2)
        solved = pid_from_joint(p)
        oracle = pid_from_solution(p, brute_force_qstar(p, 2000))
        assert np.max(np.abs(components(solved) - components(oracle))) <= 2e-3


def test_swap_symmetry():
    rng = np.random.default_rng(26)
    for _ in range(10):
        p = random_joint(rng, int(rng.choice([2, 3])))
        a = pid_from_joint(p)
        b = pid_from_joint(Joint3(np.transpose(p.mass, (1, 0, 2))))
        assert a.r == pytest.approx(b.r, abs=1e-6)
        assert a.s == pytest.approx(b.s, abs=1e-6)
        assert a.u1 == pytest.approx(b.u2, abs=1e-6)
        assert a.u2 == pytest.approx(b.u1, abs=1e-6)


def test_relabeling_invariance():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.choice([2, 3]))
        p = random_joint(rng, n)
        perm = rng.permutation(n)
        q = Joint3(p.mass[np.ix_(perm, perm, perm)])
        a, b = pid_from_joint(p), pid_from_joint(q)
        assert components(a) == pytest.approx(components(b), abs=1e-6)


def test_convert_xor_samples():
    data = sample(gate("XOR"), 10000, seed=3)
    res = convert(data)
    assert abs(res.s - 1.0) <= 0.05
    assert max(res.r, res.u1, res.u2) <= 0.05
    assert res.consistency["passed"]


def test_convert_copy_samples():
    data = sample(gate("COPY"), 10000, seed=3)
    res = convert(data)
    assert abs(res.r - 1.0) <= 0.05


def test_convert_constant_dataset_all_zero():
    data = TripleDataset(space=gate_space(2), samples=[(1, 1, 1)] * 7, weights=[1.0] * 7)
    res = convert(data)
    assert components(res) == pytest.approx(np.zeros(4), abs=1e-12)


def test_convert_with_smoothing_still_consistent():
    data = sample(gate("AND"), 500, seed=9)
    res = convert(data, smoothing=0.5)
    assert res.consistency["passed"]


def test_result_json_fields():
    res = pid_from_joint(gate("AND"))
    obj = res.to_json()
    for key in ("r", "u1", "u2", "s", "total", "iterations", "objective_gap", "feasibility_residual", "consistency"):
        assert key in obj


def sparse_joint(rng, n, support=0.4):
    """Exponential masses on a random ~`support` share of the cells."""
    while True:
        m = rng.exponential(size=(n, n, n)) * (rng.random((n, n, n)) < support)
        if m.sum() > 0:
            return Joint3(m / m.sum())


def near_deterministic_joint(rng, n):
    """Masses spread over ~20 orders of magnitude: marginals as small as 1e-20."""
    m = rng.exponential(size=(n, n, n)) ** 8
    return Joint3(m / m.sum())


def assert_certified(p):
    q, diag = solve_qstar(p)
    assert diag["converged"], diag
    assert diag["objective_gap"] <= OBJECTIVE_TOL, diag
    assert diag["feasibility_residual"] <= 1e-9, diag
    assert feasible_residual(q.mass, p) <= 1e-9
    res = pid_from_joint(p)
    assert res.converged and res.consistency["passed"], res.consistency


# Sparse, degenerate and near-deterministic joints, and n >= 5, are where
# max-entropy PID solvers break down (Makkeh, Theis & Vicente, Entropy 2018).
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_sparse_joints_certified(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(8):
        assert_certified(sparse_joint(rng, n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [6, 7])
def test_sparse_relabeling_invariance(n):
    # y1, y2 and y relabelled independently: every component keeps its value
    rng = np.random.default_rng(70 + n)
    for _ in range(4):
        p = sparse_joint(rng, n)
        q = Joint3(p.mass[np.ix_(*(rng.permutation(n) for _ in range(3)))])
        assert components(pid_from_joint(p)) == pytest.approx(components(pid_from_joint(q)), abs=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [5, 7])
def test_dense_joints_certified(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(4):
        assert_certified(random_joint(rng, n))


@pytest.mark.filterwarnings("error")
def test_label_value_never_seen_for_y1_certified():
    rng = np.random.default_rng(60)
    for n in (3, 4, 5):
        m = rng.exponential(size=(n, n, n))
        m[n - 1] = 0.0  # y1 never takes its last value
        assert_certified(Joint3(m / m.sum()))


@pytest.mark.filterwarnings("error")
def test_near_deterministic_n5_certified():
    rng = np.random.default_rng(61)
    for _ in range(8):
        assert_certified(near_deterministic_joint(rng, 5))


@pytest.mark.filterwarnings("error")
def test_near_deterministic_n7_certified_or_infeasible():
    rng = np.random.default_rng(62)
    for _ in range(8):
        p = near_deterministic_joint(rng, 7)
        try:
            q, diag = solve_qstar(p)
        except InfeasibleError:
            continue
        assert np.all(np.isfinite(q.mass))
        assert diag["converged"] and diag["objective_gap"] <= OBJECTIVE_TOL, diag
        assert diag["feasibility_residual"] <= 1e-9, diag


@st.composite
def joints_with_zero_cells(draw):
    n = draw(st.integers(2, 5))
    mass = draw(arrays(np.float64, (n, n, n), elements=st.floats(0.0, 1.0)))
    mass = mass * ~draw(arrays(np.bool_, (n, n, n)))
    assume(mass.sum() > 0)
    return Joint3(mass / mass.sum())


@settings(max_examples=60, deadline=None)
@given(joints_with_zero_cells())
def test_property_certified_or_infeasible_and_swap_symmetric(p):
    try:
        q, diag = solve_qstar(p)
        swapped = Joint3(np.transpose(p.mass, (1, 0, 2)))
        a, b = pid_from_joint(p), pid_from_joint(swapped)
    except InfeasibleError:
        return
    assert diag["converged"] and diag["objective_gap"] <= OBJECTIVE_TOL, diag
    assert diag["feasibility_residual"] <= 1e-9, diag
    assert a.consistency["passed"], a.consistency
    assert components(a) == pytest.approx(components(b)[[0, 2, 1, 3]], abs=1e-6)


@st.composite
def sparse_joints_n6_n7(draw):
    n = draw(st.sampled_from([6, 7]))
    cells = draw(st.lists(st.integers(0, n**3 - 1), min_size=n**3 // 10, max_size=n**3 // 2, unique=True))
    mass = np.zeros(n**3)
    mass[cells] = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(cells), max_size=len(cells)))
    return Joint3(mass.reshape(n, n, n) / mass.sum())


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(sparse_joints_n6_n7())
def test_property_sparse_n6_n7_certified_and_swap_symmetric(p):
    a = pid_from_joint(p)
    assert a.converged and a.objective_gap <= OBJECTIVE_TOL, a.to_json()
    assert a.feasibility_residual <= 1e-9 and a.consistency["passed"], a.to_json()
    assert feasible_residual(a.q_star.mass, p) <= 1e-9
    b = pid_from_joint(Joint3(np.transpose(p.mass, (1, 0, 2))))
    assert components(a) == pytest.approx(components(b)[[0, 2, 1, 3]], abs=1e-6)


def denormal_joint(n):
    """Two heavy cells, one zero cell and 5e-324 in every other cell: the
    denormal marginals must count as zero support, or exp(log q) overflows."""
    m = np.full((n, n, n), 5e-324)
    m[0, 0, 1], m[0, 2, 2], m[0, 0, 0] = 0.8, 0.2, 0.0
    return Joint3(m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 5, 7])
def test_denormal_joint_certified(n):
    assert_certified(denormal_joint(n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [8, 10, 16])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_large_joints_certified_and_swap_symmetric(kind, n):
    rng = np.random.default_rng(80 + n)
    for _ in range(2):
        p = random_joint(rng, n) if kind == "dense" else sparse_joint(rng, n)
        a = pid_from_joint(p)
        assert a.converged and a.objective_gap <= OBJECTIVE_TOL, a.to_json()
        assert a.feasibility_residual <= 1e-9 and a.consistency["passed"], a.to_json()
        b = pid_from_joint(Joint3(np.transpose(p.mass, (1, 0, 2))))
        assert b.converged and b.consistency["passed"], b.to_json()
        assert components(a) == pytest.approx(components(b)[[0, 2, 1, 3]], abs=1e-6)


# Total Newton steps over `budget_corpus`, measured when intermediate barrier
# stages were first centered loosely; centering every stage tightly took 857.
# A change that needs more steps must say why here.
NEWTON_STEP_BUDGET = 638


def budget_corpus():
    """The six gates, 4 dense joints at each n = 2-5 and 4 ~40%-support joints at n = 3 and 4."""
    rng = np.random.default_rng(2026)
    dense = [random_joint(rng, n) for n in (2, 3, 4, 5) for _ in range(4)]
    return [gate(name) for name in GATES] + dense + [sparse_joint(rng, n) for n in (3, 4) for _ in range(4)]


def test_newton_steps_within_budget():
    results = [pid_from_joint(p) for p in budget_corpus()]
    for res in results:
        assert res.converged and res.objective_gap <= OBJECTIVE_TOL and res.consistency["passed"], res.to_json()
    assert sum(res.iterations for res in results) <= NEWTON_STEP_BUDGET
