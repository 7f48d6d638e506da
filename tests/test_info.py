import tracemalloc

import numpy as np
import pytest

from fusionpid.dataset import TripleDataset
from fusionpid.info import DistributionError, Joint3, conditional_entropy_output, empirical_joint, information
from fusionpid.label_space import MAX_LABELS, build_label_space
from fusionpid.synth import GATES, GateSpec, canonical_joint, gate_space, sample


def xor_joint():
    return canonical_joint(GateSpec("XOR"))


def copy_joint():
    return canonical_joint(GateSpec("COPY"))


def random_joint(rng, n):
    m = rng.exponential(size=(n, n, n))
    return Joint3(m / m.sum())


def y2_constant(m2):
    """The Joint3 whose (y1, y) marginal is the square mass `m2` and whose y2 is always 0.

    Its I(Y1; Y) is the mutual information of `m2`, and that of a diagonal
    `m2` is the entropy of the diagonal.
    """
    m2 = np.asarray(m2, dtype=float)
    mass = np.zeros((len(m2),) * 3)
    mass[:, 0, :] = m2
    return Joint3(mass)


def test_mass_validation():
    with pytest.raises(DistributionError):
        Joint3(np.full((2, 2, 2), -0.125))
    with pytest.raises(DistributionError):
        Joint3(np.zeros((2, 3, 2)))


def test_joint3_json_roundtrip():
    p = xor_joint()
    again = Joint3.from_json(p.to_json())
    assert np.array_equal(again.mass, p.mass)


@pytest.mark.parametrize("size", [MAX_LABELS + 1, 2.5, 2.0, True, "2", 0])
def test_joint3_from_json_refuses_a_size_no_label_space_has(size):
    cells = MAX_LABELS + 1 if size == MAX_LABELS + 1 else 2
    obj = {"size": size, "mass": [1.0 / cells**3] * cells**3}
    with pytest.raises(DistributionError, match=rf"^size must be an integer in \[1, {MAX_LABELS}\], got {size!r}$"):
        Joint3.from_json(obj)


@pytest.mark.parametrize("entry", [True, False, "0.125", "1", None, [0.125], {"p": 0.125}])
def test_joint3_from_json_refuses_a_mass_entry_that_is_not_a_json_number(entry):
    with pytest.raises(DistributionError, match="mass entries must be numbers"):
        Joint3.from_json({"size": 2, "mass": [0.125] * 7 + [entry]})


def test_joint3_from_json_reads_json_ints_and_floats_as_mass():
    mass = [1, 0, 0, 0, 0, 0, 0, 0.0]
    assert Joint3.from_json({"size": 2, "mass": mass}).mass.ravel().tolist() == mass


def test_joint3_from_json_takes_the_largest_size():
    obj = {"size": MAX_LABELS, "mass": [1.0 / MAX_LABELS**3] * MAX_LABELS**3}
    assert Joint3.from_json(obj).size == MAX_LABELS


def test_empirical_joint_two_equal_cells():
    data = TripleDataset(space=gate_space(2), samples=[(0, 0, 0), (1, 1, 1)], weights=[1.0, 1.0])
    p = empirical_joint(data)
    assert p.mass[0, 0, 0] == 0.5 and p.mass[1, 1, 1] == 0.5


def test_empirical_joint_point_mass_and_weights():
    single = TripleDataset(space=gate_space(2), samples=[(0, 1, 0)], weights=[2.0])
    assert empirical_joint(single).mass[0, 1, 0] == 1.0
    weighted = TripleDataset(space=gate_space(2), samples=[(0, 0, 0), (1, 1, 1)], weights=[1.0, 3.0])
    p = empirical_joint(weighted)
    assert p.mass[0, 0, 0] == 0.25 and p.mass[1, 1, 1] == 0.75


def test_joint_rejects_nonfinite_mass():
    mass = np.full((2, 2, 2), 0.125)
    mass[0, 0, 0] = np.nan
    with pytest.raises(DistributionError):
        Joint3(mass)
    with pytest.raises(DistributionError):
        Joint3(np.full((2, 2, 2), np.nan))


def test_empirical_joint_rejects_negative_or_nan_smoothing():
    data = TripleDataset(space=gate_space(2), samples=[(0, 0, 0)], weights=[1.0])
    for smoothing in (-1.0, np.nan):
        with pytest.raises(ValueError):
            empirical_joint(data, smoothing=smoothing)


@pytest.mark.filterwarnings("error")
def test_empirical_joint_rejects_infinite_smoothing_or_total():
    data = TripleDataset(space=gate_space(2), samples=[(0, 0, 0)], weights=[1.0])
    with pytest.raises(ValueError, match="finite"):
        empirical_joint(data, smoothing=np.inf)
    with pytest.raises(DistributionError, match="not finite"):
        empirical_joint(data, smoothing=1e308)  # 8 cells of 1e308 overflow the total


def test_empirical_joint_matches_loop_reference():
    rng = np.random.default_rng(5)
    samples = rng.integers(0, 4, (500, 3))
    weights = rng.random(500) + 0.01
    space = build_label_space({"kind": "nominal", "values": list("abcd")})
    counts = np.zeros((4, 4, 4))
    for (y1, y2, y), w in zip(samples, weights):
        counts[y1, y2, y] += w
    p = empirical_joint(TripleDataset(space, samples, weights), smoothing=0.5)
    assert np.array_equal(p.mass, (counts + 0.5) / (counts + 0.5).sum())


def test_label_index_fits_a_byte_and_cell_code_fits_uint16():
    assert MAX_LABELS <= 255 and MAX_LABELS**3 <= 2**16


def test_empirical_joint_counts_top_label_into_last_cell():
    space = build_label_space({"kind": "nominal", "values": [str(i) for i in range(32)]})
    data = TripleDataset(space, [(31, 31, 31), (31, 0, 0), (0, 31, 0)], [1.0, 2.0, 5.0])
    flat = empirical_joint(data).mass.ravel()
    assert flat[32767] == 0.125 and flat[31 * 32 * 32] == 0.25 and flat[31 * 32] == 0.625
    assert np.count_nonzero(flat) == 3


@pytest.mark.parametrize("smoothing", [0.0, 0.5])
@pytest.mark.parametrize("n", [2, 7, 32])
@pytest.mark.parametrize("rows", [1, 1000, 10**5 + 7])
def test_empirical_joint_is_bit_identical_to_one_bincount(rows, n, smoothing):
    rng = np.random.default_rng(rows * 100 + n)
    samples = rng.integers(0, n, (rows, 3))
    weights = rng.random(rows) + 0.01
    space = build_label_space({"kind": "nominal", "values": [str(i) for i in range(n)]})
    counts = np.bincount(np.ravel_multi_index(samples.T, (n,) * 3), weights, n**3).reshape(n, n, n) + smoothing
    p = empirical_joint(TripleDataset(space, samples, weights), smoothing=smoothing)
    assert np.array_equal(p.mass, counts / counts.sum())


def test_empirical_joint_memory_is_at_most_four_bytes_a_row():
    rows = 10**6
    samples = np.random.default_rng(3).integers(0, 2, (rows, 3), dtype=np.uint8)
    data = TripleDataset(gate_space(2), samples, np.ones(rows))
    tracemalloc.start()
    try:
        empirical_joint(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * rows


def _dirichlet_joint(n):
    return Joint3(np.random.default_rng(n).dirichlet(np.ones(n**3)).reshape(n, n, n))


@pytest.mark.parametrize(
    "p",
    [canonical_joint(GateSpec(gate, noise=noise)) for gate in GATES for noise in (0.0, 0.1)]
    + [_dirichlet_joint(7), _dirichlet_joint(32)],
)
def test_empirical_joint_of_a_sample_is_bit_identical_to_its_expanded_rows(p):
    for seed in range(3):
        data = sample(p, 10**5, seed)
        rows = np.repeat(data.samples, data.weights.astype(int), axis=0)
        expanded = TripleDataset(data.space, rows, np.ones(len(rows)))
        assert np.array_equal(empirical_joint(data).mass, empirical_joint(expanded).mass)


def test_empirical_joint_empty_is_error():
    with pytest.raises(DistributionError):
        empirical_joint(TripleDataset(space=gate_space(2), samples=np.zeros((0, 3), int), weights=[]))


def test_information_of_a_copy_is_its_entropy():
    assert information(y2_constant(np.diag([0.5, 0.5])))["i1"] == pytest.approx(1.0)
    assert information(y2_constant(np.diag([1.0, 0.0])))["i1"] == 0.0
    # direct evaluation of -sum p log2 p
    assert information(y2_constant(np.diag([0.25, 0.75])))["i1"] == pytest.approx(0.8112781244591328, abs=1e-12)


def test_information_mutual_information_values():
    assert information(y2_constant([[0.25, 0.25], [0.25, 0.25]]))["i1"] == pytest.approx(0.0, abs=1e-12)
    assert information(y2_constant([[0.5, 0.0], [0.0, 0.5]]))["i1"] == pytest.approx(1.0)
    # direct evaluation on the 2x2 table
    assert information(y2_constant([[0.4, 0.1], [0.1, 0.4]]))["i1"] == pytest.approx(0.27807190511263774, abs=1e-12)


def test_information_conditional_mi_cases():
    # Y independent of the input pair: I(Y1; Y | Y2) = 0
    indep = Joint3(np.full((2, 2, 2), 0.125))
    assert information(indep)["c1"] == pytest.approx(0.0, abs=1e-12)
    # XOR: knowing y pins down the parity, coupling the inputs fully; with
    # y2 and y swapped, c1 is I(Y1; Y2 | Y)
    assert information(Joint3(np.transpose(xor_joint().mass, (0, 2, 1))))["c1"] == pytest.approx(1.0)
    # copy chain: y2 already determines y
    assert information(copy_joint())["c1"] == pytest.approx(0.0, abs=1e-12)


def test_information_interaction_signs():
    assert information(xor_joint())["ii"] == pytest.approx(-1.0)
    assert information(copy_joint())["ii"] == pytest.approx(1.0)
    indep = Joint3(np.full((2, 2, 2), 0.125))
    assert information(indep)["ii"] == pytest.approx(0.0, abs=1e-12)


def test_information_total_cases():
    assert information(xor_joint())["total"] == pytest.approx(1.0)
    assert information(copy_joint())["total"] == pytest.approx(1.0)
    indep = Joint3(np.full((2, 2, 2), 0.125))
    assert information(indep)["total"] == pytest.approx(0.0, abs=1e-12)


def test_mi_bounds_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.choice([2, 3, 4]))
        m = rng.exponential(size=(n, n))
        m /= m.sum()
        mi = information(y2_constant(m))["i1"]
        h1 = information(y2_constant(np.diag(m.sum(axis=1))))["i1"]
        h2 = information(y2_constant(np.diag(m.sum(axis=0))))["i1"]
        assert -1e-9 <= mi <= min(h1, h2) + 1e-9


def test_chain_identity_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        info = information(random_joint(rng, int(rng.choice([2, 3, 4]))))
        # I(Y1, Y2; Y) = I(Y1; Y) + I(Y2; Y | Y1)
        assert abs(info["total"] - (info["i1"] + info["c2"])) <= 1e-9


def test_interaction_information_permutation_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_joint(rng, 3)
        base = information(p)["ii"]
        for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
            assert information(Joint3(np.transpose(p.mass, perm)))["ii"] == pytest.approx(base, abs=1e-9)


def test_relabeling_invariance():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_joint(rng, 4)
        perm = rng.permutation(4)
        q = Joint3(p.mass[:, :, perm])
        assert information(q) == pytest.approx(information(p), abs=1e-9)


def test_total_information_bookkeeping():
    rng = np.random.default_rng(15)
    for _ in range(20):
        info = information(random_joint(rng, 3))
        # the other chain, I(Y2; Y) + I(Y1; Y | Y2), and I(Y1; Y2; Y) from either side
        assert info["i2"] + info["c1"] == pytest.approx(info["total"], abs=1e-9)
        assert info["i1"] - info["c1"] == pytest.approx(info["ii"], abs=1e-9)
        assert info["i2"] - info["c2"] == pytest.approx(info["ii"], abs=1e-9)


def test_conditional_entropy_output_is_output_entropy_minus_total():
    rng = np.random.default_rng(16)
    for n in (2, 3, 5):
        m = random_joint(rng, n).mass.ravel().copy()
        m[n + 1] += m[:n].sum() + m[n] + 5e-10
        m[:n], m[n] = 0.0, -5e-10  # zero cells, and one below 0 as a Joint3 admits
        p = Joint3(m.reshape(n, n, n))
        py = p.mass.sum(axis=(0, 1))
        hy = -float(py @ np.log2(py))
        # H(Y | Y1, Y2) = H(Y) - I(Y1, Y2; Y), the second from the entropy table
        assert conditional_entropy_output(p) == pytest.approx(hy - information(p)["total"], abs=1e-12)
        assert conditional_entropy_output(p.mass) == conditional_entropy_output(p)
