"""The workloads: seeded inputs, one pass of operations, and per-op checks.

Each workload is a closed loop: one caller in one process issues one
operation at a time and waits for it. A pass returns one record per
operation: {"class", "latency_s", "problems", "wrong", "certified"}.
`problems` lists every failed check; `wrong` marks a result that claimed
success (converged, consistent, exit 0) but failed an independent check.
"""

import json
import os
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

from . import checks, gen


def _record(cls, latency, problems, claimed):
    return {
        "class": cls,
        "latency_s": latency,
        "problems": problems,
        "wrong": claimed and bool(problems),
        "certified": not problems,
    }


def _pid_values(res):
    return {"r": res.r, "u1": res.u1, "u2": res.u2, "s": res.s, "total": res.total}


def _solve_problems(res):
    """Failures the solver reports about itself."""
    problems = []
    if not res.converged:
        problems.append("not converged")
    if not res.consistency.get("passed", False):
        problems.append("consistency check failed")
    return problems


class SolveJoints:
    """`pid_from_joint` on gates, dense joints and sparse joints."""

    name = "solve-joints"
    imports = "fusionpid.pid"
    unit = "joints"

    def __init__(self, ctx, seed, scale):
        self.ctx = ctx
        self.joints = gen.solve_joints(seed, scale)
        self.digest = gen.digest(*(mass for _, mass, _ in self.joints))
        self.size = f"{len(self.joints)} joints"
        self.units = len(self.joints)

    def run(self, tracer=None, in_process=False):
        pid, Joint3 = self.ctx.pid, self.ctx.Joint3
        ops = []
        for cls, mass, gate in self.joints:
            p = Joint3(mass)
            start = time.perf_counter()
            try:
                with tracer.operation() if tracer else nullcontext():
                    res = pid.pid_from_joint(p)
            except Exception as exc:  # a solve that raises is a measured failure
                ops.append(_record(cls, time.perf_counter() - start, [f"raised {type(exc).__name__}"], False))
                continue
            latency = time.perf_counter() - start
            reported = _solve_problems(res)
            wrong = checks.component_problems(_pid_values(res), p=mass, gate=gate, gate_joint=mass)
            ops.append(_record(cls, latency, reported + wrong, not reported))
        return ops


class GatesSampled:
    """`synth.sample` then `pid.convert` for each noisy gate."""

    name = "gates-sampled"
    imports = "fusionpid.pid, fusionpid.synth"
    unit = "samples"
    COUNT = 500_000

    def __init__(self, ctx, seed, scale):
        self.ctx = ctx
        self.count = max(1000, round(self.COUNT * scale))
        self.seeds = [seed * len(gen.GATES) + i for i in range(len(gen.GATES))]
        params = json.dumps([gen.GATES, gen.GATE_NOISE, self.count, self.seeds])
        self.digest = gen.digest(params.encode())
        self.size = f"{len(gen.GATES)} gates x {self.count} samples"
        self.units = len(gen.GATES) * self.count

    def run(self, tracer=None, in_process=False):
        pid, synth = self.ctx.pid, self.ctx.synth
        ops = []
        for gate, seed in zip(gen.GATES, self.seeds):
            start = time.perf_counter()
            try:
                with tracer.operation() if tracer else nullcontext():
                    spec = synth.GateSpec(gate, noise=gen.GATE_NOISE)
                    res = pid.convert(synth.sample(synth.canonical_joint(spec), self.count, seed))
            except Exception as exc:  # a failed operation is measured, not fatal
                ops.append(_record(gate, time.perf_counter() - start, [f"raised {type(exc).__name__}"], False))
                continue
            latency = time.perf_counter() - start
            reported = _solve_problems(res)
            wrong = checks.component_problems(
                _pid_values(res),
                gate=gate,
                gate_joint=gen.gate_joint(gate, gen.GATE_NOISE),
                gate_tol=checks.sampled_gate_tol(self.count),
            )
            ops.append(_record(gate, latency, reported + wrong, not reported))
        return ops


class Convert:
    """One `fusionpid convert` run per operation on a generated file.

    Timed passes run it as a subprocess, interpreter start included; the
    traced run calls the same click command in-process so spans can be kept.
    """

    imports = "fusionpid.cli"
    unit = "rows"

    def __init__(self, ctx, seed, scale):
        self.ctx = ctx
        items = max(50, round(self.ITEMS * scale))
        text, labels = self.generate(seed, items)
        self.digest = gen.digest(text.encode())
        self.input = os.path.join(ctx.workdir, "input" + self.SUFFIX)
        self.report = os.path.join(ctx.workdir, "report.json")
        with open(self.input, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.expected = self.reference(labels)
        self.units = sum(v.size for v in labels.values()) // self.FIELDS_PER_ROW
        self.size = f"{items} items, {self.units} rows"
        self.args = ["convert", "--input", self.input, *self.ARGS, "--out", self.report]

    def run(self, tracer=None, in_process=False):
        if os.path.exists(self.report):
            os.remove(self.report)
        if in_process or tracer:
            latency, code, stderr = self._in_process(tracer)
        else:
            latency, code, stderr, rss = self._subprocess()
            self.ctx.peak_rss_mb = max(self.ctx.peak_rss_mb, rss)
        report = None
        if os.path.exists(self.report):
            with open(self.report, encoding="utf-8") as fh:
                report = json.load(fh)
        problems = checks.report_problems(code, stderr, report, self.ctx.report_schema, self.expected)
        return [_record(self.name, latency, problems, code == 0)]

    def _subprocess(self):
        cmd = [sys.executable, "-m", "fusionpid.cli", *self.args]
        err_path = os.path.join(self.ctx.workdir, "stderr.txt")
        with open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.ctx.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return latency, proc.returncode, stderr, usage.ru_maxrss / 1024.0

    def _in_process(self, tracer):
        stderr, code = "", 0
        start = time.perf_counter()
        try:
            with tracer.operation() if tracer else nullcontext():
                self.ctx.cli.main.main(args=self.args, prog_name="fusionpid", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # stands in for the traceback the subprocess would print
            code, stderr = 1, traceback.format_exc()
        return time.perf_counter() - start, code, stderr


class ConvertPartial(Convert):
    """Partial labels, 3 nominal classes, rotation pairing, nominal alpha."""

    name = "convert-partial"
    ITEMS = 40_000
    SUFFIX = ".csv"
    FIELDS_PER_ROW = 1
    ARGS = [
        "--schema", "partial",
        "--label-space", json.dumps({"kind": "nominal", "values": list(gen.PARTIAL_LABELS)}),
        "--pairing", "rotation",
        "--metric", "nominal",
    ]

    def generate(self, seed, items):
        return gen.partial_csv(seed, items)

    def reference(self, labels):
        return checks.partial_expected(labels, len(gen.PARTIAL_LABELS))


class ConvertCF7(Convert):
    """Counterfactual JSON on the 7-point scale -3..3, ordinal alpha."""

    name = "convert-cf7"
    ITEMS = 20_000
    SUFFIX = ".json"
    FIELDS_PER_ROW = 2  # label_first and label_both
    ARGS = [
        "--format", "json",
        "--schema", "counterfactual",
        "--label-space", json.dumps({"kind": "ordinal", "range": list(gen.CF_RANGE)}),
        "--metric", "ordinal",
    ]

    def generate(self, seed, items):
        return gen.counterfactual_json(seed, items)

    def reference(self, labels):
        return checks.counterfactual_expected(labels, gen.CF_RANGE[1] - gen.CF_RANGE[0] + 1)


WORKLOADS = {w.name: w for w in (SolveJoints, ConvertPartial, ConvertCF7, GatesSampled)}
