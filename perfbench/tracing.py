"""In-memory spans around fusionpid's public functions, and the per-layer
metrics computed from them.

Each function is wrapped at the module attribute its callers look it up by:
`cli` imports names into its own namespace, `dataset` calls its own `encode`,
and `pid.convert` / `pid_from_joint` call `pid`'s globals. Nothing under
src/ changes. Spans inside the solver (Frank-Wolfe, transport LPs, SLSQP
correction, dual certificate) are private functions and are not wrapped.
"""

import json
import time
from contextlib import contextmanager
from statistics import median

from . import gen

# (module, attribute, span name)
WRAPPED = (
    ("cli", "parse_partial", "dataset.parse"),
    ("cli", "parse_counterfactual", "dataset.parse"),
    ("cli", "triples_from_partial", "dataset.triples"),
    ("cli", "triples_from_counterfactual", "dataset.triples"),
    ("cli", "matrix_from_records", "agreement.matrix"),
    ("cli", "krippendorff_alpha", "agreement.alpha"),
    ("cli", "mean_confidence", "agreement.confidence"),
    ("pid", "empirical_joint", "info.joint"),
    ("pid", "solve_qstar", "pid.solve"),
    ("pid", "feasible_initial", "pid.initial"),
    ("pid", "pid_from_solution", "pid.extract"),
    ("pid", "check_consistency", "pid.consistency"),
    ("synth", "sample", "synth.sample"),
)
# `encode` runs about ten times per annotation row, so its calls are counted
# and timed in aggregate instead of each keeping a span.
COUNTED = (
    ("dataset", "encode", "label_space.encode"),
    ("cli", "encode", "label_space.encode"),
)

# span attributes taken from a wrapped call's arguments and result
_COUNTERS = {
    "dataset.parse": lambda args, out: {"records": len(out)},
    "dataset.triples": lambda args, out: {"triples": len(out.samples)},
    "info.joint": lambda args, out: {"samples": len(args[0].samples)},
    "synth.sample": lambda args, out: {"samples": len(out.samples)},
    "agreement.alpha": lambda args, out: {"pairable": out.n_pairable},
    "pid.consistency": lambda args, out: {"passed": out["passed"]},
    "pid.solve": lambda args, out: {
        key: out[1][key] for key in ("iterations", "converged", "objective_gap", "feasibility_residual")
    },
}

SOLVE_CLASSES = ("gate.n2",) + tuple(cls for cls, *_ in gen.SOLVE_CLASSES)

# name -> (unit, better); the order is the order of the printed metrics
PER_LAYER = {
    "dataset.parse_s": ("s", "lower"),
    "dataset.records": ("count", "higher"),
    "dataset.triples_s": ("s", "lower"),
    "dataset.triples": ("count", "higher"),
    "label_space.encode_calls": ("count", "lower"),
    "label_space.encode_s": ("s", "lower"),
    "agreement.matrix_s": ("s", "lower"),
    "agreement.alpha_s": ("s", "lower"),
    "agreement.confidence_s": ("s", "lower"),
    "agreement.pairable_units": ("count", "higher"),
    "info.joint_s": ("s", "lower"),
    "info.joint_samples": ("count", "higher"),
    "synth.sample_s": ("s", "lower"),
    "synth.samples": ("count", "higher"),
    "pid.solve_calls": ("count", "higher"),
    "pid.solve_s": ("s", "lower"),
    "pid.initial_s": ("s", "lower"),
    "pid.extract_s": ("s", "lower"),
    "pid.consistency_s": ("s", "lower"),
    "pid.iterations_total": ("count", "lower"),
    "pid.iterations_p50": ("count", "lower"),
    "pid.converged_share": ("fraction", "higher"),
    "pid.infeasible_errors": ("count", "lower"),
    "pid.consistency_failures": ("count", "lower"),
    "pid.gap_max": ("bits", "lower"),
    "pid.feas_resid_max": ("prob", "lower"),
    **{f"pid.solve_ms.{cls}.p50": ("ms", "lower") for cls in SOLVE_CLASSES},
    **{f"pid.failures.{cls}": ("count", "lower") for cls in SOLVE_CLASSES},
    "cli.other_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans with name, start, end, parent and operation id, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counted = {}  # name -> [calls, seconds]
        self._open = []  # [span, seconds covered by children]
        self._op = 0

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "op": self._op}
        rec["parent"] = self._open[-1][0]["id"] if self._open else None
        self.spans.append(rec)
        frame = [rec, 0.0]
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            rec["start"], rec["end"] = start, end
            rec["self_s"] = end - start - frame[1]
            if self._open:
                self._open[-1][1] += end - start

    def operation(self):
        """Root span of one timed operation; its self time is uncovered time."""
        self._op += 1
        return self.span("op")

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counter:
                    rec.update(counter(args, out))
                return out

        return wrapper

    def _count(self, fn, name):
        totals = self.counted.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if self._open:
                    self._open[-1][1] += elapsed

        return wrapper

    @contextmanager
    def installed(self, modules):
        """Wrap every listed function of `modules` (name -> module), then restore."""
        saved = []
        try:
            for table, wrap in ((WRAPPED, self._wrap), (COUNTED, self._count)):
                for mod, attr, name in table:
                    fn = getattr(modules[mod], attr)
                    saved.append((modules[mod], attr, fn))
                    setattr(modules[mod], attr, wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counted": self.counted}, fh)


def layer_metrics(tracer, plain_ops):
    """Per-layer metrics from a traced pass and the untraced pass before it.

    Times are self times, so together with cli.other_s (time no wrapped
    function covers) they add up to the traced wall of the operations.
    """
    by_name = {}
    for rec in tracer.spans:
        by_name.setdefault(rec["name"], []).append(rec)

    def total(name, key="self_s"):
        return sum(rec.get(key, 0) for rec in by_name.get(name, ()))

    solves = by_name.get("pid.solve", [])
    done = [rec for rec in solves if "error" not in rec]
    infeasible = [
        rec for name in ("pid.solve", "pid.extract") for rec in by_name.get(name, ()) if rec.get("error") == "InfeasibleError"
    ]
    calls, encode_s = tracer.counted.get("label_space.encode", [0, 0.0])
    traced_wall = sum(rec["end"] - rec["start"] for rec in by_name.get("op", ()))
    plain_wall = sum(op["latency_s"] for op in plain_ops)
    out = {
        "dataset.parse_s": total("dataset.parse"),
        "dataset.records": total("dataset.parse", "records"),
        "dataset.triples_s": total("dataset.triples"),
        "dataset.triples": total("dataset.triples", "triples"),
        "label_space.encode_calls": calls,
        "label_space.encode_s": encode_s,
        "agreement.matrix_s": total("agreement.matrix"),
        "agreement.alpha_s": total("agreement.alpha"),
        "agreement.confidence_s": total("agreement.confidence"),
        "agreement.pairable_units": total("agreement.alpha", "pairable"),
        "info.joint_s": total("info.joint"),
        "info.joint_samples": total("info.joint", "samples"),
        "synth.sample_s": total("synth.sample"),
        "synth.samples": total("synth.sample", "samples"),
        "pid.solve_calls": len(solves),
        "pid.solve_s": total("pid.solve"),
        "pid.initial_s": total("pid.initial"),
        "pid.extract_s": total("pid.extract"),
        "pid.consistency_s": total("pid.consistency"),
        "pid.iterations_total": sum(rec["iterations"] for rec in done),
        "pid.iterations_p50": median(rec["iterations"] for rec in done) if done else 0,
        "pid.converged_share": sum(rec["converged"] for rec in done) / len(solves) if solves else 0.0,
        "pid.infeasible_errors": len(infeasible),
        "pid.consistency_failures": sum(not rec.get("passed", True) for rec in by_name.get("pid.consistency", ())),
        "pid.gap_max": max((rec["objective_gap"] for rec in done), default=0.0),
        "pid.feas_resid_max": max((rec["feasibility_residual"] for rec in done), default=0.0),
        "cli.other_s": total("op"),
        "trace.overhead_s": traced_wall - plain_wall,
    }
    for cls in SOLVE_CLASSES:
        ops = [op for op in plain_ops if op["class"] == cls]
        out[f"pid.solve_ms.{cls}.p50"] = median(op["latency_s"] for op in ops) * 1000 if ops else 0.0
        out[f"pid.failures.{cls}"] = sum(bool(op["problems"]) for op in ops)
    return out
