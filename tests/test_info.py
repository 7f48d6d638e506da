import numpy as np
import pytest

from fusionpid.dataset import TripleDataset
from fusionpid.info import (
    DistributionError,
    Joint2,
    Joint3,
    conditional_mi,
    empirical_joint,
    entropy,
    interaction_information,
    joint_mi,
    marginal_pair,
    mutual_information,
)
from fusionpid.label_space import build_label_space
from fusionpid.synth import GateSpec, canonical_joint, gate_space


def xor_joint():
    return canonical_joint(GateSpec("XOR"))


def copy_joint():
    return canonical_joint(GateSpec("COPY"))


def random_joint(rng, n):
    m = rng.exponential(size=(n, n, n))
    return Joint3(m / m.sum())


def test_mass_validation():
    with pytest.raises(DistributionError):
        Joint2([[0.5, 0.4], [0.0, 0.0]])
    with pytest.raises(DistributionError):
        Joint3(np.full((2, 2, 2), -0.125))
    with pytest.raises(DistributionError):
        Joint3(np.zeros((2, 3, 2)))


def test_joint3_json_roundtrip():
    p = xor_joint()
    again = Joint3.from_json(p.to_json())
    assert np.array_equal(again.mass, p.mass)


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


def test_empirical_joint_empty_is_error():
    with pytest.raises(DistributionError):
        empirical_joint(TripleDataset(space=gate_space(2), samples=np.zeros((0, 3), int), weights=[]))


def test_entropy_values():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([1.0, 0.0]) == 0.0
    # direct evaluation of -sum p log2 p
    assert entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_mutual_information_values():
    assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0)
    # direct evaluation on the 2x2 table
    assert mutual_information([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(
        0.27807190511263774, abs=1e-12
    )


def test_conditional_mi_cases():
    # Y independent of the input pair
    indep = Joint3(np.full((2, 2, 2), 0.125))
    assert conditional_mi(indep, given="y2") == pytest.approx(0.0, abs=1e-12)
    # XOR: knowing y pins down the parity, coupling the inputs fully
    assert conditional_mi(xor_joint(), given="y") == pytest.approx(1.0)
    # copy chain: y2 already determines y
    assert conditional_mi(copy_joint(), given="y2") == pytest.approx(0.0, abs=1e-12)


def test_interaction_information_signs():
    assert interaction_information(xor_joint()) == pytest.approx(-1.0)
    assert interaction_information(copy_joint()) == pytest.approx(1.0)
    indep = Joint3(np.full((2, 2, 2), 0.125))
    assert interaction_information(indep) == pytest.approx(0.0, abs=1e-12)


def test_joint_mi_cases():
    assert joint_mi(xor_joint()) == pytest.approx(1.0)
    assert joint_mi(copy_joint()) == pytest.approx(1.0)
    indep = Joint3(np.full((2, 2, 2), 0.125))
    assert joint_mi(indep) == pytest.approx(0.0, abs=1e-12)


def test_marginal_pair_cases():
    point = np.zeros((3, 3, 3))
    point[0, 1, 2] = 1.0
    m = marginal_pair(Joint3(point), "Y1Y")
    assert m.mass[0, 2] == 1.0
    uniform = Joint3(np.full((2, 2, 2), 0.125))
    assert np.allclose(marginal_pair(uniform, "Y2Y").mass, 0.25)
    assert np.allclose(marginal_pair(xor_joint(), "Y1Y2").mass, 0.25)


def test_mi_bounds_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.choice([2, 3, 4]))
        m = rng.exponential(size=(n, n))
        joint = Joint2(m / m.sum())
        mi = mutual_information(joint)
        h1 = entropy(joint.mass.sum(axis=1))
        h2 = entropy(joint.mass.sum(axis=0))
        assert -1e-9 <= mi <= min(h1, h2) + 1e-9


def test_chain_identity_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_joint(rng, int(rng.choice([2, 3, 4])))
        i1 = mutual_information(marginal_pair(p, "Y1Y"))
        lhs = joint_mi(p)
        rhs = i1 + conditional_mi(p, given="y1")
        assert abs(lhs - rhs) <= 1e-9


def test_interaction_information_permutation_symmetric():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_joint(rng, 3)
        base = interaction_information(p)
        for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
            assert interaction_information(
                Joint3(np.transpose(p.mass, perm))
            ) == pytest.approx(base, abs=1e-9)


def test_relabeling_invariance():
    rng = np.random.default_rng(14)
    for _ in range(20):
        p = random_joint(rng, 4)
        perm = rng.permutation(4)
        q = Joint3(p.mass[:, :, perm])
        assert entropy(q) == pytest.approx(entropy(p), abs=1e-9)
        assert joint_mi(q) == pytest.approx(joint_mi(p), abs=1e-9)


def test_total_information_bookkeeping():
    rng = np.random.default_rng(15)
    for _ in range(20):
        p = random_joint(rng, 3)
        i1 = mutual_information(marginal_pair(p, "Y1Y"))
        assert i1 + conditional_mi(p, given="y1") == pytest.approx(joint_mi(p), abs=1e-9)
