"""Tests of the benchmark itself: smoke runs, metric names, failure counting.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, gen, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, scale=0.01):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", str(scale)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_the_declared_metrics(workload, trace):
    out = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_declared_metrics_match_the_code():
    def table(metrics):
        return {m["name"]: (m["unit"], m["better"]) for m in metrics}

    assert table(SPEC["end_to_end"]) == run.END_TO_END
    assert table(SPEC["per_layer"]) == tracing.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_no_source_tree_is_an_error(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-joints", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    assert gen.partial_csv(5, 200)[0] == gen.partial_csv(5, 200)[0]
    assert gen.partial_csv(5, 200)[0] != gen.partial_csv(6, 200)[0]
    one, two = gen.solve_joints(5), gen.solve_joints(6)
    assert gen.digest(*(m for _, m, _ in one)) == gen.digest(*(m for _, m, _ in gen.solve_joints(5)))
    assert gen.digest(*(m for _, m, _ in one)) != gen.digest(*(m for _, m, _ in two))


@pytest.fixture
def ctx(tmp_path):
    return run.Context(tmp_path)


def _reference_matches_program(ctx, workload, parse, triples, measures):
    """The benchmark's own joint and alphas equal the program's."""
    from fusionpid.agreement import krippendorff_alpha, matrix_from_records
    from fusionpid.info import empirical_joint
    from fusionpid.label_space import encode

    w = workload(ctx, seed=4, scale=0.003)
    space = ctx.cli._load_label_space(w.ARGS[w.ARGS.index("--label-space") + 1])
    fmt = "json" if w.SUFFIX == ".json" else "csv"
    with open(w.input, encoding="utf-8") as fh:
        records = parse(fh, fmt)
    p = empirical_joint(triples(records, space)).mass
    np.testing.assert_allclose(p, w.expected["joint"], atol=1e-12)
    metric = w.ARGS[w.ARGS.index("--metric") + 1]
    for name, (select, field) in measures.items():
        chosen = [r for r in records if select(r)]
        got = krippendorff_alpha(matrix_from_records(chosen, lambda r: encode(space, getattr(r, field)), metric))
        assert got.alpha == pytest.approx(w.expected["alpha"][name], abs=1e-12)


def test_partial_reference_matches_program(ctx):
    from fusionpid.dataset import parse_partial, triples_from_partial

    measures = {c: (lambda r, c=c: r.condition == c, "label") for c in ("m1", "m2", "both")}
    _reference_matches_program(ctx, workloads.ConvertPartial, parse_partial, triples_from_partial, measures)


def test_counterfactual_reference_matches_program(ctx):
    from fusionpid.dataset import parse_counterfactual, triples_from_counterfactual

    measures = {
        "y1": (lambda r: r.order == "first-m1", "label_first"),
        "y1+2": (lambda r: r.order == "first-m1", "label_both"),
        "y2": (lambda r: r.order == "first-m2", "label_first"),
        "y2+1": (lambda r: r.order == "first-m2", "label_both"),
    }
    _reference_matches_program(ctx, workloads.ConvertCF7, parse_counterfactual, triples_from_counterfactual, measures)


def test_perturbed_report_fails(ctx):
    w = workloads.ConvertPartial(ctx, seed=2, scale=0.005)
    (op,) = w.run(in_process=True)
    assert op["certified"], op["problems"]
    with open(w.report, encoding="utf-8") as fh:
        report = json.load(fh)
    report["pid"]["r"] += 1e-3
    problems = checks.report_problems(0, "", report, ctx.report_schema, w.expected)
    assert any(p.startswith("r+u1") for p in problems)
    report["agreement"]["m1"]["alpha"] += 1e-6
    assert any(p.startswith("alpha m1") for p in checks.report_problems(0, "", report, ctx.report_schema, w.expected))
    del report["pid"]["total"]
    assert any("schema" in p for p in checks.report_problems(0, "", report, ctx.report_schema, w.expected))
    assert checks.report_problems(1, checks.TRACEBACK, None, ctx.report_schema, w.expected)[:2] == [
        "exit code 1",
        "raw traceback on stderr",
    ]


def test_raising_solve_is_counted_failed(ctx, monkeypatch):
    def boom(p, **kwargs):
        raise ctx.pid.InfeasibleError("test")

    monkeypatch.setattr(ctx.pid, "pid_from_joint", boom)
    ops = workloads.SolveJoints(ctx, seed=1, scale=0.01).run()
    assert ops and all(op["problems"] == ["raised InfeasibleError"] for op in ops)
    assert not any(op["wrong"] or op["certified"] for op in ops)


def test_wrong_but_confident_solve_is_incorrect(ctx, monkeypatch):
    real = ctx.pid.pid_from_joint

    def skewed(p, **kwargs):
        res = real(p, **kwargs)
        res.r += 0.01
        return res

    monkeypatch.setattr(ctx.pid, "pid_from_joint", skewed)
    ops = workloads.SolveJoints(ctx, seed=1, scale=0.01).run()
    gates = [op for op in ops if op["class"] == "gate.n2"]
    assert gates and all(op["wrong"] and not op["certified"] for op in gates)


def test_gate_components_are_the_known_values():
    and_gate = checks.gate_components("AND", gen.gate_joint("AND"))
    assert and_gate["r"] == pytest.approx(0.311278, abs=1e-6)
    assert and_gate["s"] == pytest.approx(0.5, abs=1e-12)
    assert checks.gate_components("XOR", gen.gate_joint("XOR"))["s"] == pytest.approx(1.0)
    assert checks.gate_components("UNIQUE2", gen.gate_joint("UNIQUE2"))["u2"] == pytest.approx(1.0)


def test_traced_times_add_up(ctx):
    w = workloads.ConvertPartial(ctx, seed=1, scale=0.005)
    tracer = tracing.Tracer()
    modules = {"cli": ctx.cli, "pid": ctx.pid, "synth": ctx.synth, "dataset": ctx.dataset}
    with tracer.installed(modules):
        (op,) = w.run(tracer)
    assert ctx.cli.parse_partial.__module__ == "fusionpid.dataset"  # wrappers removed
    metrics = tracing.layer_metrics(tracer, [op])
    layer_s = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.overhead_s")
    (root,) = [s for s in tracer.spans if s["name"] == "op"]
    assert layer_s == pytest.approx(root["end"] - root["start"], rel=1e-9)
    assert metrics["label_space.encode_calls"] > 0
    assert metrics["dataset.records"] == w.units
