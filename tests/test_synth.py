import numpy as np
import pytest

from fusionpid.info import empirical_joint, joint_mi
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
    assert joint_mi(p) == pytest.approx(expected, abs=1e-12)
    assert joint_mi(p) == pytest.approx(0.531, abs=1e-3)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec("NAND")
    with pytest.raises(ValueError):
        GateSpec("XOR", noise=0.5)


def test_sample_point_mass():
    p = canonical_joint(GateSpec("COPY"))
    mass = np.zeros((2, 2, 2))
    mass[1, 0, 1] = 1.0
    from fusionpid.info import Joint3

    data = sample(Joint3(mass), 50, seed=1)
    assert (data.samples == (1, 0, 1)).all() and (data.weights == 1.0).all()


def test_sample_deterministic_per_seed():
    p = canonical_joint(GateSpec("AND"))
    a = sample(p, 1000, seed=42)
    b = sample(p, 1000, seed=42)
    assert np.array_equal(a.samples, b.samples)
    c = sample(p, 1000, seed=43)
    assert not np.array_equal(a.samples, c.samples)


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
