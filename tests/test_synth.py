import numpy as np
import pytest

from fusionpid.info import Joint3, empirical_joint, information
from fusionpid.synth import DOMINANT, GATES, GateSpec, canonical_joint, sample


def test_xor_table():
    p = canonical_joint(GateSpec("XOR"))
    for a in range(2):
        for b in range(2):
            assert p.mass[a, b, a ^ b] == 0.25


def test_copy_diagonal():
    p = canonical_joint(GateSpec("COPY"))
    assert p.mass[0, 0, 0] == 0.5 and p.mass[1, 1, 1] == 0.5
    assert p.mass.sum() == 1.0


def test_all_gates_valid_distributions():
    for name in GATES:
        p = canonical_joint(GateSpec(name))
        assert np.all(p.mass >= 0)
        assert p.mass.sum() == pytest.approx(1.0)


def test_noisy_xor_joint_mi():
    # 1 - H(0.1) with binary entropy H(0.1) ~ 0.469 bits
    p = canonical_joint(GateSpec("XOR", noise=0.1))
    expected = 1.0 + 0.1 * np.log2(0.1) + 0.9 * np.log2(0.9)
    assert information(p)["total"] == pytest.approx(expected, abs=1e-12)
    assert information(p)["total"] == pytest.approx(0.531, abs=1e-3)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("NAND")
    with pytest.raises(ValueError):
        GateSpec("XOR", noise=0.5)


def test_sample_point_mass():
    mass = np.zeros((2, 2, 2))
    mass[1, 0, 1] = 1.0
    data = sample(Joint3(mass), 50, seed=1)
    assert data.samples.tolist() == [[1, 0, 1]] and data.weights.tolist() == [50.0]


def test_sample_deterministic_per_seed():
    p = canonical_joint(GateSpec("AND"))
    a = sample(p, 1000, seed=42)
    b = sample(p, 1000, seed=42)
    assert np.array_equal(a.samples, b.samples) and np.array_equal(a.weights, b.weights)
    c = sample(p, 1000, seed=43)
    assert not np.array_equal(a.weights, c.weights)


def test_sample_xor_frequencies_concentrate():
    p = canonical_joint(GateSpec("XOR"))
    data = sample(p, 10000, seed=5)
    emp = empirical_joint(data)
    on = [emp.mass[a, b, a ^ b] for a in range(2) for b in range(2)]
    assert np.max(np.abs(np.array(on) - 0.25)) <= 0.02
    assert emp.mass.sum() == pytest.approx(1.0)


def test_empirical_recovers_gates_in_total_variation():
    for name in GATES:
        p = canonical_joint(GateSpec(name))
        tvs = []
        for seed in range(5):
            emp = empirical_joint(sample(p, 100000, seed=seed))
            tvs.append(0.5 * np.abs(emp.mass - p.mass).sum())
        assert np.mean(tvs) <= 0.03


def test_dominant_map_covers_gates():
    assert set(DOMINANT) == set(GATES)


def test_sample_within_mass_tolerance_never_draws_nonpositive_cells():
    # a Joint3 admits cells down to -MASS_TOL; numpy's multinomial refuses them as pvals
    mass = np.zeros((2, 2, 2))
    mass[0, 0, 0] = 0.5 + 5e-10
    mass[1, 1, 1] = 0.5
    mass[0, 1, 0] = -5e-10
    p = Joint3(mass)
    with pytest.raises(ValueError):
        np.random.default_rng(0).multinomial(10, p.mass.ravel())
    for seed in range(5):
        data = sample(p, 10000, seed=seed)
        assert data.weights.sum() == 10000
        assert data.samples.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_sample_total_above_one_within_tolerance():
    mass = canonical_joint(GateSpec("XOR", noise=0.1)).mass.copy()
    mass[0, 0, 0] += 8e-10
    p = Joint3(mass)
    assert p.mass.sum() > 1.0
    data = sample(p, 10000, seed=1)
    assert data.weights.sum() == 10000


@pytest.mark.parametrize("gate", GATES)
def test_sample_weights_are_draw_counts_over_positive_cells(gate):
    p = canonical_joint(GateSpec(gate, noise=0.05))
    data = sample(p, 12345, seed=2)
    assert data.weights.sum() == 12345 and np.all(data.weights == np.round(data.weights))
    assert np.all(data.weights >= 1) and np.all(p.mass[tuple(data.samples.T)] > 0)


def test_sample_is_one_multinomial_of_the_positive_cells():
    p = canonical_joint(GateSpec("AND", noise=0.2))
    data = sample(p, 5000, seed=4)
    support = np.flatnonzero(p.mass.ravel() > 0)
    pvals = p.mass.ravel()[support]
    counts = np.random.default_rng(4).multinomial(5000, pvals / pvals.sum())
    assert np.array_equal(np.ravel_multi_index(data.samples.T, (2, 2, 2)), support[counts > 0])
    assert np.array_equal(data.weights, counts[counts > 0])


@pytest.mark.parametrize("n", [2, 7, 32])
def test_sample_cells_are_distinct_uint8_rows_in_c_order(n):
    p = Joint3(np.random.default_rng(n).dirichlet(np.ones(n**3)).reshape(n, n, n))
    data = sample(p, 20000, seed=5)
    assert data.samples.dtype == np.uint8 and data.samples.flags.c_contiguous
    flat = np.ravel_multi_index(data.samples.T, (n,) * 3)
    assert np.all(np.diff(flat) > 0)
    assert data.weights.sum() == 20000 and data.weights.min() >= 1


@pytest.mark.parametrize("count", [0, -3, 2**63, 10**20])
def test_sample_refuses_a_count_a_multinomial_cannot_take(count):
    with pytest.raises(ValueError, match="count must lie in"):
        sample(canonical_joint(GateSpec("XOR")), count, seed=0)


def test_sample_takes_the_largest_int64_count():
    data = sample(canonical_joint(GateSpec("COPY")), 2**63 - 1, seed=0)
    assert data.samples.tolist() == [[0, 0, 0], [1, 1, 1]]
    assert data.weights.sum() == pytest.approx(2.0**63)
