"""fusionpid benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload convert-partial --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from src/ next to this directory.
--trace 0 prints the end-to-end metrics of a timed run, --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import os

# One BLAS thread for every measured process (set before numpy loads): a
# fixed thread count fixes the reduction order, so failures repeat, and a
# measured process does not compete with itself for a two-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# name -> (unit, better); what every --trace 0 run prints
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "certified_solves_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_REPEATS = 5
LIMIT = "timing is wall-clock of this process and its children only; no machine-wide tracing"


class Context:
    """What every workload shares: the program's modules, paths and env."""

    def __init__(self, workdir):
        self.workdir = str(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cli = importlib.import_module("fusionpid.cli")
        self.pid = importlib.import_module("fusionpid.pid")
        self.synth = importlib.import_module("fusionpid.synth")
        self.dataset = importlib.import_module("fusionpid.dataset")
        self.Joint3 = importlib.import_module("fusionpid.info").Joint3
        with open(SRC / "fusionpid" / "schemas" / "run_report.json", encoding="utf-8") as fh:
            self.report_schema = json.load(fh)
        self.peak_rss_mb = 0.0
        # first solve loads scipy's lazily imported solver code; keep it untimed
        self.pid.pid_from_joint(self.Joint3([[[0.25, 0], [0, 0.25]], [[0, 0.25], [0.25, 0]]]))


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "limit": LIMIT,
    }


def measure_setup(ctx, modules):
    """Median wall time of a fresh interpreter importing `modules`.

    One untimed import first, so a cold bytecode cache is not counted.
    """
    cmd = [sys.executable, "-c", f"import {modules}"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=ctx.env, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return median(times)


def timed_run(workload, seconds):
    """Passes with tracing off while one more fits in `seconds` (at least one)."""
    walls, ops = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + median(walls) <= seconds:
        t0 = time.perf_counter()
        ops += workload.run()
        walls.append(time.perf_counter() - t0)
    wall = median(walls)
    certified_per_pass = sum(op["certified"] for op in ops) / len(walls)
    return ops, {
        "wall_s": wall,
        "certified_solves_per_s": certified_per_pass / wall,
        "passes": len(walls),
    }


def traced_run(workload, ctx, out_dir, tag):
    """An untraced in-process pass, then the same pass with spans on."""
    plain = workload.run(in_process=True)
    tracer = tracing.Tracer()
    modules = {"cli": ctx.cli, "pid": ctx.pid, "synth": ctx.synth, "dataset": ctx.dataset}
    with tracer.installed(modules):
        traced = workload.run(tracer)
    tracer.write(out_dir / f"spans-{tag}.json")
    return plain + traced, tracing.layer_metrics(tracer, plain)


class Terminated(BaseException):
    """SIGTERM as an exception, so cleanup runs; unlike SystemExit, the
    in-process CLI call cannot mistake it for the program's own exit."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None):
    # a terminated run still removes its inputs and stops its child process
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor, for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "fusionpid" / "__init__.py").is_file():
        print(f"perfbench: no fusionpid sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fusionpid = importlib.import_module("fusionpid")
    if Path(fusionpid.__file__).resolve().parent != SRC / "fusionpid":
        print(f"perfbench: imported fusionpid from {fusionpid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        ctx = Context(workdir)
        workload = WORKLOADS[args.workload](ctx, args.seed, args.scale)
        if args.trace:
            ops, metrics = traced_run(workload, ctx, out_dir, tag)
            declared = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
            extra = {}
        else:
            setup_s = measure_setup(ctx, workload.imports)
            ops, extra = timed_run(workload, args.seconds)
            rss = ctx.peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": setup_s, **extra, "peak_rss_mb": rss}
            declared = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op["problems"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {"sha256_16": workload.digest, "size": workload.size},
        "environment": environment(),
        "passes": extra.get("passes"),
        "ops": [{"class": op["class"], "latency_s": op["latency_s"], "problems": op["problems"]} for op in ops],
        "metrics": metrics,
    }
    with open(out_dir / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"{args.workload} seed {args.seed}: {workload.size}, inputs sha256 {workload.digest}")
    print(
        f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
        + ", ".join(f"{var}={env[var]}" for var in THREAD_VARS)
        + f"; {LIMIT}"
    )
    print(f"{len(ops)} operations, failed_share = {len(failed) / len(ops):.4f} fraction")
    if not args.trace:
        rate = workload.units / metrics["wall_s"]
        print(f"  {workload.unit}_per_s = {rate:.6g} 1/s ({workload.units} {workload.unit} per pass, {extra['passes']} passes)")
        latencies = [op["latency_s"] * 1000 for op in ops]
        print(f"  op_p50_ms = {median(latencies):.6g} ms (n = {len(ops)})")
        if len(ops) >= 100:
            print(f"  op_p90_ms = {quantiles(latencies, n=10)[-1]:.6g} ms (n = {len(ops)})")
    for op in failed:
        print(f"  failed {op['class']}: {'; '.join(op['problems'])}")
    for name, unit in declared.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)
