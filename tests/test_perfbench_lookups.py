"""The benchmark's tracer (`perfbench/tracing.py`) wraps fusionpid functions
at the module attributes named in its WRAPPED and COUNTED tables; each of
them must still exist, and its counters must read what they return, or
traced benchmark runs break."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("table", ["WRAPPED", "COUNTED"])
def test_every_traced_attribute_resolves(table, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    entries = getattr(importlib.import_module("perfbench.tracing"), table)
    assert entries
    missing = [
        (module, attribute)
        for module, attribute, _ in entries
        if not hasattr(importlib.import_module(f"fusionpid.{module}"), attribute)
    ]
    assert not missing


def test_traced_gates_sampled_pass_is_certified_and_gives_layer_metrics(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    workloads = importlib.import_module("perfbench.workloads")
    modules = {name: importlib.import_module(f"fusionpid.{name}") for name in ("cli", "pid", "synth", "dataset")}
    workload = workloads.GatesSampled(SimpleNamespace(pid=modules["pid"], synth=modules["synth"]), seed=1, scale=0.002)
    plain = workload.run()
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        traced = workload.run(tracer)
    ops = plain + traced
    assert len(ops) == 2 * 6 and all(op["certified"] for op in ops), [op["problems"] for op in ops]
    metrics = tracing.layer_metrics(tracer, plain)
    assert set(metrics) == set(tracing.PER_LAYER)
    # a sample is its table of drawn cells: at most 8 rows for a binary gate
    assert 6 <= metrics["synth.samples"] == metrics["info.joint_samples"] <= 6 * 8
    assert metrics["pid.solve_calls"] == 6 and metrics["pid.converged_share"] == 1.0
