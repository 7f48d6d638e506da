"""The benchmark's tracer (`perfbench/tracing.py`) wraps fusionpid functions
at the module attributes named in its WRAPPED and COUNTED tables; each of
them must still exist, or traced benchmark runs break."""

import importlib
from pathlib import Path

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
