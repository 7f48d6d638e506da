import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fusionpid.info import Joint3, TripleDataset, information
from fusionpid.pid import (
    FEAS_TOL,
    OBJECTIVE_TOL,
    InfeasibleError,
    _DualBarrier,
    _clamp,
    check_consistency,
    convert,
    feasible_initial,
    feasible_residual,
    pid_from_joint,
    pid_from_solution,
    solve_qstar,
)
from fusionpid.synth import GATES, GateSpec, canonical_joint, sample
from oracle import OracleError, brute_force_qstar, oracle_components


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


def admitted_negative_mass():
    """A mass whose cells are each within Joint3's -1e-9 tolerance, their (y1, y) sums of -2.4e-9 not."""
    mass = np.full((3, 3, 3), 1 / 21)
    mass[0, :, 1] = 0.0
    mass[0, :, 0] = -0.8e-9
    mass[1, 1, 1] += 2.4e-9
    return mass


def test_joint_whose_admitted_negative_cells_sum_below_tolerance_in_a_marginal_is_solved():
    mass = admitted_negative_mass()
    assert mass.sum(axis=1)[0, 0] < -1e-9
    # Joint3 zeroes the cells, so that marginal is zero support
    p = Joint3(mass)
    assert p.mass.min() == 0.0 and p.mass.sum(axis=1)[0, 0] == 0.0
    res = pid_from_joint(p)
    assert res.converged and res.consistency["passed"], res.to_json()


@pytest.mark.filterwarnings("error")
def test_admitted_negative_cells_leave_the_decomposition_exact():
    # the solve and `information` read the one zeroed joint: R + U1 + U2 + S is
    # its total to rounding, where reading the raw cells missed it by 1e-8
    res = pid_from_joint(Joint3(admitted_negative_mass()))
    assert max(res.consistency["residuals"].values()) <= 1e-12, res.to_json()
    assert abs(res.r + res.u1 + res.u2 + res.s - res.total) <= 1e-12, res.to_json()


def test_solve_xor_objective_one_bit():
    q, diag = solve_qstar(gate("XOR"))
    assert information(q)["h_cond"] == pytest.approx(1.0, abs=1e-6)
    assert diag["converged"]


def test_solve_copy_objective_zero():
    q, diag = solve_qstar(gate("COPY"))
    assert information(q)["h_cond"] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(q.mass, gate("COPY").mass, atol=1e-9)


def test_solve_and_objective_half_bit():
    q, diag = solve_qstar(gate("AND"))
    assert information(q)["h_cond"] == pytest.approx(0.5, abs=1e-6)


def test_solver_feasibility_invariants():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_joint(rng, int(rng.choice([2, 3])))
        q, diag = solve_qstar(p)
        assert diag["feasibility_residual"] <= 1e-9
        assert np.all(q.mass >= 0)
        assert q.mass.sum() == pytest.approx(1.0, abs=1e-12)
        # ascent from the feasible initial point
        assert information(q)["h_cond"] >= information(feasible_initial(p))["h_cond"] - 1e-12


def test_brute_force_copy_singleton():
    p = gate("COPY")
    q = brute_force_qstar(p, 100)
    assert np.allclose(q.mass, gate("COPY").mass, atol=1e-12)


def test_brute_force_matches_solver_on_xor_and_and():
    for name, target in (("XOR", 1.0), ("AND", 0.5)):
        p = gate(name)
        q_grid = brute_force_qstar(p, 1000)
        q_fw, _ = solve_qstar(p)
        assert information(q_grid)["h_cond"] == pytest.approx(target, abs=1e-4)
        assert information(q_grid)["h_cond"] == pytest.approx(information(q_fw)["h_cond"], abs=1e-4)


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
    assert components(res) == pytest.approx(oracle_components(gate(name), 2000), abs=1e-3)


def test_negative_redundancy_beyond_the_clamp_tolerance_is_reported_unconverged():
    # XOR as its own q*: I(Y1;Y2;Y) = -1 bit, far below the clamp tolerance
    xor = information(gate("XOR"))
    diagnostics = {"iterations": 0, "objective_gap": 0.0, "feasibility_residual": 0.0, "converged": True}
    res = pid_from_solution(gate("XOR"), {**diagnostics, "information": xor}, xor)
    assert res.r == pytest.approx(-1.0, abs=1e-12)
    assert res.converged is False
    assert res.consistency["failures"] == ["R = -1.000e+00 below clamp tolerance"]


def test_solve_passes_on_the_information_table_of_the_qstar_it_returns():
    # the certificate and R/U1/U2/S read this one table; it is q*'s own, bit for bit
    rng = np.random.default_rng(41)
    for p in [gate(name) for name in GATES] + [random_joint(rng, n) for n in (2, 3, 4, 5)]:
        q_star, diagnostics = solve_qstar(p)
        assert diagnostics["information"] == information(q_star)
        assert diagnostics["converged"] and diagnostics["objective_gap"] <= OBJECTIVE_TOL


def test_clamp_tolerance_is_the_certified_objective_tolerance():
    # R and S of a certified q* fall short of R*, S* >= 0 by at most the gap, <= OBJECTIVE_TOL
    failures = []
    assert _clamp(-0.5 * OBJECTIVE_TOL, failures, "S") == 0.0
    assert failures == []
    assert _clamp(-2 * OBJECTIVE_TOL, failures, "S") == -2 * OBJECTIVE_TOL
    assert failures == ["S = -2.000e-06 below clamp tolerance"]


def test_check_consistency_gates():
    for name in ("XOR", "COPY", "UNIQUE1", "AND"):
        p = gate(name)
        res = pid_from_joint(p)
        report = check_consistency(res, information(p))
        assert report["passed"], report
    # degenerate point mass: everything zero
    point = np.zeros((2, 2, 2))
    point[1, 0, 1] = 1.0
    res = pid_from_joint(Joint3(point))
    report = check_consistency(res, information(Joint3(point)))
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
        assert np.max(np.abs(components(solved) - oracle_components(p, 2000))) <= 2e-3


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
    data = TripleDataset(size=2, samples=[(1, 1, 1)] * 7, weights=[1.0] * 7)
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


# Total Newton steps over `budget_corpus`, measured when the barrier first
# started at q0's tightest shift with GAP_SHARE 0.3. Centering every stage
# tightly took 857; centering the intermediate stages loosely, 638.
# A change that needs more steps must say why here.
NEWTON_STEP_BUDGET = 543


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


# Total Newton steps of the six gates at noise 0.05, each drawn 500000 times: 121
# from a start moved one nat inside q0's dual point, 93 from q0's tightest shift.
SAMPLED_GATE_STEP_BUDGET = 100
# Steps of any one solve of `step_corpus`, which take at most 30. A centering
# stalled on a plateau of the Newton decrement takes more: with
# LOOSE_CENTERING_TOL at 1.0, three of its solves take 71 to 105 steps.
SOLVE_STEP_CAP = 60


def step_corpus():
    """7 joints of each of five kinds at each n = 2-7: exponential masses, their cubes and
    eighth powers, exponential masses on ~40% of the cells, and Dirichlet(0.1) masses."""
    rng = np.random.default_rng(2)

    def cubed(n):
        m = rng.exponential(size=(n, n, n)) ** 3
        return Joint3(m / m.sum())

    kinds = [
        lambda n: random_joint(rng, n),
        cubed,
        lambda n: near_deterministic_joint(rng, n),
        lambda n: sparse_joint(rng, n),
        lambda n: Joint3(rng.dirichlet(np.full(n**3, 0.1)).reshape(n, n, n)),
    ]
    return [draw(n) for n in range(2, 8) for draw in kinds for _ in range(7)]


@pytest.mark.filterwarnings("error")
def test_sampled_gates_and_every_corpus_solve_within_their_step_budgets():
    gates = [
        convert(sample(canonical_joint(GateSpec(name, noise=0.05)), 500000, seed))
        for seed, name in enumerate(GATES, start=6)
    ]
    for res in gates:
        assert res.converged and res.consistency["passed"], res.to_json()
    assert sum(res.iterations for res in gates) <= SAMPLED_GATE_STEP_BUDGET
    for p in step_corpus():
        res = pid_from_joint(p)
        assert res.converged and res.consistency["passed"], res.to_json()
        assert res.iterations <= SOLVE_STEP_CAP, res.to_json()


def no_information_joint(rng, n, kind):
    """A joint with I(Y1, Y2; Y) = 0 of one of five kinds."""
    mass = np.zeros((n, n, n))
    if kind == "product":  # p(y1) p(y2) p(y), each factor with a zero entry when n > 1
        factors = [rng.exponential(size=n) for _ in range(3)]
        if n > 1:
            for f in factors:
                f[rng.integers(n)] = 0.0
        mass = np.einsum("i,j,k->ijk", *factors)
    elif kind == "sparse-pair":  # y independent of a (y1, y2) pair on ~40% of its cells
        pair = np.zeros((n, n))
        while not pair.any():
            pair = rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.4)
        mass = pair[:, :, None] * rng.exponential(size=n)
    elif kind == "y-constant":
        mass[:, :, rng.integers(n)] = rng.exponential(size=(n, n))
    elif kind == "inputs-constant":
        mass[rng.integers(n), rng.integers(n)] = rng.exponential(size=n)
    else:  # a point mass
        mass[tuple(rng.integers(n, size=3))] = 1.0
    return Joint3(mass / mass.sum())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["product", "sparse-pair", "y-constant", "inputs-constant", "point"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_joint_with_no_task_information_is_certified_by_the_solver(n, kind):
    rng = np.random.default_rng(90 + n)
    p = no_information_joint(rng, n, kind)
    res = pid_from_joint(p)
    assert res.converged and res.objective_gap <= OBJECTIVE_TOL, res.to_json()
    assert res.iterations > 0 and res.consistency["passed"], res.to_json()
    assert np.all((components(res) >= 0) & (components(res) <= 1e-9)), res.to_json()
    assert abs(res.total) <= 1e-12


AND_NOISY = canonical_joint(GateSpec("AND", noise=0.1))


def spoiled_recover(monkeypatch, spoil):
    """Make `_DualBarrier.recover` return spoil(q) for the q it recovers."""
    recover = _DualBarrier.recover
    monkeypatch.setattr(_DualBarrier, "recover", lambda self, *args: spoil(recover(self, *args)))


def scale_first_cell(factor):
    def spoil(q):
        q[0] *= factor
        return q

    return spoil


@pytest.mark.filterwarnings("error")
def test_nan_in_recovered_q_is_a_numerical_breakdown(monkeypatch):
    spoiled_recover(monkeypatch, scale_first_cell(np.nan))
    with pytest.raises(InfeasibleError, match="^solver broke down numerically$"):
        solve_qstar(AND_NOISY)


@pytest.mark.filterwarnings("error")
def test_recovered_q_off_its_marginals_left_the_feasible_set(monkeypatch):
    spoiled_recover(monkeypatch, scale_first_cell(1 + 1e-5))
    with pytest.raises(InfeasibleError, match=r"^solver left the feasible set \(residual 2\.47\d*e-06\)$"):
        solve_qstar(AND_NOISY)


@pytest.mark.filterwarnings("error")
def test_residual_just_above_the_feasibility_tolerance_is_refused(monkeypatch):
    # one cell off by 1e-8 of its mass leaves q* 2.5e-9 off its marginals:
    # above FEAS_TOL, the bound the report prints, so no PID is computed
    spoiled_recover(monkeypatch, scale_first_cell(1 + 1e-8))
    with pytest.raises(InfeasibleError, match=r"^solver left the feasible set \(residual 2\.47\d*e-09\)$"):
        pid_from_joint(AND_NOISY)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 5, 7])
def test_q_off_its_marginals_once_is_not_certified_and_the_solve_goes_on(monkeypatch, n):
    # the first q read off is spoiled, with a gap that can still read 0: it is
    # not certified, and the q of the next stage is
    recover, calls = _DualBarrier.recover, []

    def spoil_first(self, *args):
        calls.append(None)
        q = recover(self, *args)
        return scale_first_cell(1 + 1e-5)(q) if len(calls) == 1 else q

    monkeypatch.setattr(_DualBarrier, "recover", spoil_first)
    _, diagnostics = solve_qstar(random_joint(np.random.default_rng(3), n))
    assert len(calls) >= 2
    assert diagnostics["converged"] and diagnostics["feasibility_residual"] <= FEAS_TOL, diagnostics


@pytest.mark.filterwarnings("error")
def test_uniformly_scaled_recovered_q_is_normalised_and_certified(monkeypatch):
    # normalising q before the gap and the residual are taken undoes a uniform scale
    expected = components(pid_from_joint(AND_NOISY))
    spoiled_recover(monkeypatch, lambda q: q * (1 + 1e-5))
    res = pid_from_joint(AND_NOISY)
    assert res.converged and res.feasibility_residual <= FEAS_TOL, res.to_json()
    assert components(res) == pytest.approx(expected, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_result_reports_the_residual_of_its_certified_qstar(monkeypatch):
    # the gates, and the joints the benchmark's `solve-joints` workload solves
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    solve_joints = importlib.import_module("perfbench.gen").solve_joints
    gates = [canonical_joint(GateSpec(name, noise=noise)) for name in GATES for noise in (0.0, 0.1)]
    for p in gates + [Joint3(mass) for _, mass, _ in solve_joints(1, 1.0)]:
        res = pid_from_joint(p)
        assert res.feasibility_residual == solve_qstar(p)[1]["feasibility_residual"] <= FEAS_TOL


@pytest.mark.filterwarnings("error")
def test_solve_whose_line_searches_all_fail_breaks_down_without_a_warning(monkeypatch):
    # every stage ends at its starting point, and fitting q* there diverges:
    # the first q that overflows ends the solve, before any numpy warning
    monkeypatch.setattr(_DualBarrier, "line_search", lambda self, *args: None)
    with pytest.raises(InfeasibleError, match="^solver broke down numerically$"):
        pid_from_joint(AND_NOISY)


# the most line searches an unforced solve of the failed-line-search test's joints makes
LINE_SEARCHES = 23


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(1, LINE_SEARCHES + 1))
def test_one_failed_line_search_still_certifies(monkeypatch, k):
    # a failed search ends its barrier stage at the point it started from; the
    # solve reads q* there or goes on to the next stage. Every search of every
    # unforced solve fails in one case, the final stage's searches included
    line_search, calls, fail = _DualBarrier.line_search, [], 0

    def fails_on_kth(self, *args):
        calls.append(None)
        return None if len(calls) == fail else line_search(self, *args)

    monkeypatch.setattr(_DualBarrier, "line_search", fails_on_kth)
    rng = np.random.default_rng(95)
    forced = 0
    for p in [AND_NOISY] + [random_joint(rng, n) for n in (3, 5, 7)]:
        calls.clear()
        fail = 0
        pid_from_joint(p)
        assert len(calls) <= LINE_SEARCHES
        if len(calls) < k:
            continue
        calls.clear()
        fail = k
        res = pid_from_joint(p)
        forced += 1
        assert res.converged and res.objective_gap <= OBJECTIVE_TOL, res.to_json()
        assert res.feasibility_residual <= 1e-9 and res.consistency["passed"], res.to_json()
    assert forced
