"""Every demo script runs to completion, with a RuntimeWarning an error.

pyproject.toml's `filterwarnings` reaches only this process, so each demo's
interpreter gets the same rule through `-W`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionpid

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(fusionpid.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-W", "error::RuntimeWarning", str(demo)]
    result = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
