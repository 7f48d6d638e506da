"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and prints a
single PASS line on success (run with `pytest -s` or read the captured output).
"""

import io
import time

import numpy as np
import pytest

from fusionpid.agreement import Ratings, krippendorff_alpha
from fusionpid.dataset import parse_counterfactual, parse_partial, triples_from_counterfactual, triples_from_partial
from fusionpid.info import Joint3, empirical_joint, information
from fusionpid.label_space import build_label_space
from fusionpid.pid import check_consistency, convert, pid_from_joint
from fusionpid.synth import DOMINANT, GATES, GateSpec, canonical_joint, sample
from oracle import oracle_components

GATE_EXPECTED = {
    "XOR": (0.0, 0.0, 0.0, 1.0),
    "COPY": (1.0, 0.0, 0.0, 0.0),
    "UNIQUE1": (0.0, 1.0, 0.0, 0.0),
    "AND": (0.3112781244591328, 0.0, 0.0, 0.5),
}
# OR is AND with every label flipped, which leaves the decomposition as it is
ALL_GATES_EXPECTED = {**GATE_EXPECTED, "OR": GATE_EXPECTED["AND"], "UNIQUE2": (0.0, 0.0, 1.0, 0.0)}


def components(res):
    return np.array([res.r, res.u1, res.u2, res.s])


def random_joint(rng, n):
    m = rng.exponential(size=(n, n, n))
    return Joint3(m / m.sum())


def test_gate_suite_vs_oracle():
    worst = 0.0
    for name, expected in GATE_EXPECTED.items():
        p = canonical_joint(GateSpec(name))
        start = time.perf_counter()
        res = pid_from_joint(p)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{name} solve took {elapsed:.3f}s"
        gap = np.max(np.abs(components(res) - oracle_components(p, 2000)))
        worst = max(worst, gap)
        assert gap <= 1e-3, f"{name}: component gap {gap:.2e} vs oracle"
        assert components(res) == pytest.approx(np.array(expected), abs=1e-3)
    print(f"PASS gate suite: all 4 gates within 1e-3 of grid oracle "
          f"(worst gap {worst:.2e}), each solve < 1 s")


def test_consistency_identities_random():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        p = random_joint(rng, n)
        res = pid_from_joint(p)
        report = check_consistency(res, information(p))
        worst = max(worst, max(report["residuals"].values()))
        assert report["passed"], report
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"consistency sweep took {elapsed:.1f}s"
    print(f"PASS consistency: 100 random joints n in {{2,3,4}}, all five "
          f"residuals <= 1e-4 (worst {worst:.2e}) in {elapsed:.1f}s")


def test_oracle_equivalence_binary():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = random_joint(rng, 2)
        solved = pid_from_joint(p)
        gap = np.max(np.abs(components(solved) - oracle_components(p, 2000)))
        worst = max(worst, gap)
        assert gap <= 2e-3, f"solver/oracle discrepancy {gap:.2e}"
    print(f"PASS oracle equivalence: 100 random n=2 joints, max component "
          f"discrepancy {worst:.2e} <= 2e-3")


def test_sampling_recovery():
    for name, component, target in (("XOR", "s", 1.0), ("COPY", "r", 1.0)):
        data = sample(canonical_joint(GateSpec(name)), 10000, seed=500)
        res = convert(data)
        got = getattr(res, component)
        assert abs(got - target) <= 0.05, f"{name}: {component}={got:.4f}"
    print("PASS sampling recovery: 10^4 seeded samples from XOR and COPY "
          "recover the dominant component within 0.05 bits")


def test_counterfactual_conversion_recovers_gates():
    # noiseless annotators: each order's first label is its own modality's
    # input, and both revised labels are the gate's output
    spaces = {
        "nominal": build_label_space({"kind": "nominal", "values": ["0", "1"]}),
        "ordinal": build_label_space({"kind": "ordinal", "range": [0, 1]}),
    }
    worst = 0.0
    for name in GATES:
        data = sample(canonical_joint(GateSpec(name)), 2000, seed=501)
        own = components(pid_from_joint(empirical_joint(data)))
        lines = ["item_id,annotator_id,order,label_first,label_both,confidence_first,confidence_both"]
        draws = np.repeat(data.samples, data.weights.astype(int), axis=0)  # one item per draw
        for i, (y1, y2, y) in enumerate(draws.tolist()):
            lines.append(f"i{i:04d},a1,first-m1,{y1},{y},4,4")
            lines.append(f"i{i:04d},a2,first-m2,{y2},{y},4,4")
        table = parse_counterfactual(io.StringIO("\n".join(lines) + "\n"))
        for kind, space in spaces.items():
            got = components(convert(triples_from_counterfactual(table, space)))
            assert got == pytest.approx(own, abs=1e-9), (name, kind)
            assert got == pytest.approx(np.array(ALL_GATES_EXPECTED[name]), abs=0.05), (name, kind, got)
            worst = max(worst, float(np.max(np.abs(got - ALL_GATES_EXPECTED[name]))))
    print(f"PASS counterfactual recovery: 2000 noiseless counterfactual items per gate, "
          f"nominal and 2-point ordinal, match the sample's own PID within 1e-9 and the "
          f"gate's within 0.05 bits (worst {worst:.2e})")


def test_swap_symmetry_50():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        p = random_joint(rng, int(rng.choice([2, 3])))
        a = pid_from_joint(p)
        b = pid_from_joint(Joint3(np.transpose(p.mass, (1, 0, 2))))
        gap = max(
            abs(a.r - b.r), abs(a.s - b.s), abs(a.u1 - b.u2), abs(a.u2 - b.u1)
        )
        worst = max(worst, gap)
        assert gap <= 1e-6, f"swap asymmetry {gap:.2e}"
    print(f"PASS swap symmetry: 50 random joints, worst deviation {worst:.2e} <= 1e-6")


def test_relabeling_invariance_50():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        n = int(rng.choice([2, 3]))
        p = random_joint(rng, n)
        perm = rng.permutation(n)
        q = Joint3(p.mass[np.ix_(perm, perm, perm)])
        gap = np.max(np.abs(components(pid_from_joint(p)) - components(pid_from_joint(q))))
        worst = max(worst, gap)
        assert gap <= 1e-6, f"relabeling deviation {gap:.2e}"
    print(f"PASS relabeling invariance: 50 random joints, worst deviation "
          f"{worst:.2e} <= 1e-6")


def grid_ratings(rows):
    """Nominal ratings of an item x annotator grid: units are its rows, one category per rating."""
    unit = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    return Ratings(len(rows), unit, np.arange(len(unit)), [v for r in rows for v in r])


def test_alpha_criteria():
    unanimous = grid_ratings([["x", "x"], ["y", "y"], ["x", "x"], ["y", "y"]])
    assert krippendorff_alpha(unanimous).alpha == 1.0

    hand = grid_ratings([["a", "a"], ["a", "a"], ["b", "b"], ["b", "a"]])
    assert krippendorff_alpha(hand).alpha == pytest.approx(0.5333, abs=1e-4)

    constant = grid_ratings([["x", "x"], ["x", "x"]])
    res = krippendorff_alpha(constant)
    assert res.alpha is None and res.to_json()["alpha"] == "undefined"
    print("PASS alpha: unanimous = 1.0 exactly, hand-worked nominal example "
          "= 0.5333 +/- 1e-4, all-constant data reported as undefined")


def test_dominant_interaction_preserved(tmp_path):
    space = build_label_space({"kind": "nominal", "values": ["0", "1"]})
    names = ("XOR", "COPY", "UNIQUE1", "AND")
    for name in names:
        data = sample(canonical_joint(GateSpec(name)), 6000, seed=7)
        lines = ["item_id,annotator_id,condition,label,confidence"]
        draws = np.repeat(data.samples, data.weights.astype(int), axis=0)  # one row per draw
        for i, (y1, y2, y) in enumerate(draws):
            lines.append(f"i{i:05d},a1,m1,{y1},4")
            lines.append(f"i{i:05d},a2,m2,{y2},4")
            lines.append(f"i{i:05d},a3,both,{y},5")
        path = tmp_path / f"{name.lower()}.csv"
        path.write_text("\n".join(lines) + "\n")
        with open(path) as fh:
            records = parse_partial(fh, fmt="csv")
        triples = triples_from_partial(records, space, pairing="rotation")
        res = convert(triples)
        argmax = ("r", "u1", "u2", "s")[int(np.argmax(components(res)))]
        assert argmax == DOMINANT[name], (
            f"{name}: argmax {argmax}, expected {DOMINANT[name]}"
        )
    print("PASS dominant interaction: synthetic annotation files for "
          f"{', '.join(names)} all yield the gate's known argmax component")
