"""Command-line pipeline: ingestion, PID conversion, agreement, synthesis."""

import itertools
import json
import math
import sys
from contextlib import contextmanager
from importlib import resources

import click
import jsonschema
import numpy as np

from . import __version__
from .agreement import AgreementError, CategoryError, krippendorff_alpha, matrix_from_records, mean_confidence
from .dataset import (
    CHOICES,
    CONDITIONS,
    RATINGS,
    Codes,
    SchemaError,
    label_indices,
    parse_counterfactual,
    parse_partial,
    parse_decomposition,
    triples_from_counterfactual,
    triples_from_partial,
)
from .info import DistributionError, Joint3
# `encode` stays a name of this module: perfbench counts the calls made through it
from .label_space import LabelSpaceError, build_label_space, encode  # noqa: F401
from .pid import (
    FEAS_TOL,
    MAX_ITERATIONS,
    OBJECTIVE_TOL,
    InfeasibleError,
    OracleError,
    brute_force_qstar,
    pid_from_joint,
    pid_from_solution,
)
from .synth import GATES, GateSpec, canonical_joint, sample


EXIT_NONCONVERGED = 1
EXIT_INPUT_ERROR = 2
SYNTH_CHUNK_LINES = 1 << 16


def _fail(code, message, exit_code=EXIT_INPUT_ERROR):
    click.echo(json.dumps({"error": code, "message": message}), err=True)
    sys.exit(exit_code)


def _read(path, parse, error):
    """`parse` of the text file at `path`, opened for it.

    A file that is missing, or cannot be read or decoded as UTF-8, is one
    `input-not-found` or `input-unreadable` line; content that `parse`
    rejects (`SchemaError`, `JSONDecodeError`) is one `error` line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except FileNotFoundError:
        _fail("input-not-found", f"input file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        _fail("input-unreadable", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(error, f"malformed JSON in {path}: {exc}")
    except SchemaError as exc:
        _fail(error, str(exc))


def _write(text, out):
    """Write `text` to the file `out`, or to stdout ending in a newline."""
    _write_parts([text] if out is not None or text.endswith("\n") else [text, "\n"], out)


def _write_parts(parts, out):
    """Write the strings of the iterable `parts` in turn to the file `out`, or to stdout."""
    if out is None:
        for part in parts:
            click.echo(part, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        _fail("output-unwritable", f"cannot write {out}: {exc}")


def _load_label_space(text):
    if text is None:
        _fail("missing-label-space", "--label-space is required for this command")
    try:
        cfg = json.loads(text) if text.lstrip().startswith("{") else _read(text, json.load, "invalid-label-space")
        return build_label_space(cfg)
    except json.JSONDecodeError as exc:
        _fail("invalid-label-space", f"label-space JSON is malformed: {exc}")
    except LabelSpaceError as exc:
        _fail("invalid-label-space", str(exc))


def _parse_table(path, fmt, schema):
    """The annotation table in the file at `path`; an empty one is an input error."""
    parse = {
        "partial": parse_partial,
        "counterfactual": parse_counterfactual,
        "decomposition": parse_decomposition,
    }[schema]
    table = _read(path, lambda fh: parse(fh, fmt), "invalid-records")
    if not len(table):
        _fail("invalid-records", "no records in input")
    return table


def _write_report(report, out, schema=None):
    """Validate `report` against the named shipped schema, if any, then write it."""
    if schema is not None:
        text = resources.files("fusionpid").joinpath(f"schemas/{schema}.json").read_text()
        spec = json.loads(text)
        # the shipped schemas are checked once, by the tests, not on every run
        jsonschema.validators.validator_for(spec)(spec).validate(report)
    # build and validate fully before touching the output path
    _write(json.dumps(report, indent=2, sort_keys=True), out)


def _alpha_json(item, value, metric):
    try:
        return krippendorff_alpha(matrix_from_records(item, value, metric)).to_json()
    except AgreementError as exc:
        return {"alpha": "undefined", "message": str(exc)}


def _agreement_summary(table, schema, metric, space=None):
    """Alpha and mean confidence per measure; each measure rates one label
    field over the rows whose condition or order has the given value."""
    if schema == "partial":
        measures = {c: ("condition", c, "label", "confidence") for c in CONDITIONS}
    elif schema == "counterfactual":
        measures = {
            "y1": ("order", "first-m1", "label_first", "confidence_first"),
            "y1+2": ("order", "first-m1", "label_both", "confidence_both"),
            "y2": ("order", "first-m2", "label_first", "confidence_first"),
            "y2+1": ("order", "first-m2", "label_both", "confidence_both"),
        }
    else:
        measures = {name: (None, None, name, f"conf_{name}") for name in ("r", "u1", "u2", "s")}
    categories = {}
    for field in dict.fromkeys(field for _, _, field, _ in measures.values()):
        col = table[field]
        if schema == "decomposition":  # 0-5 ratings (interval-style by default), never encoded
            categories[field] = col, RATINGS
        else:
            categories[field] = col.codes, col.levels if space is None else label_indices(col, space).tolist()
    item = table["item_id"].codes
    alphas, confidences = {}, {}
    for name, (key, value, field, conf_field) in measures.items():
        rows = slice(None) if key is None else table[key].codes == CHOICES[key].index(value)
        codes, cats = categories[field]
        alphas[name] = _alpha_json(item[rows], Codes(cats, codes[rows]), metric)
        conf = table[conf_field][rows]
        if len(conf):
            confidences[name] = mean_confidence(conf)
    return alphas, confidences


@contextmanager
def _usage_error_is_config_error():
    try:
        yield
    except click.exceptions.NoArgsIsHelpError:  # no command at all: the help text
        raise
    except click.UsageError as exc:
        _fail("invalid-config", exc.format_message())


class _Commands(click.Group):
    """The command group: a malformed command line is one `invalid-config` line, not click's usage text."""

    def make_context(self, *args, **kwargs):  # the group's own options
        with _usage_error_is_config_error():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):  # the command name and the command's options
        with _usage_error_is_config_error():
            return super().invoke(ctx)


@click.group(cls=_Commands)
@click.version_option(__version__)
def main():
    """Convert multimodal annotations into interaction values and score agreement."""


@main.command()
@click.option("--input", "path", required=True, type=str)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--schema", type=click.Choice(["partial", "counterfactual"]), required=True)
@click.option("--label-space", "label_space", type=str, required=True, help="inline JSON or a path to a JSON file")
@click.option("--pairing", type=click.Choice(["rotation", "all-pairs"]), default="rotation", show_default=True)
@click.option("--smoothing", type=float, default=0.0, show_default=True)
@click.option("--metric", type=click.Choice(["nominal", "ordinal", "interval"]), default="nominal", show_default=True)
@click.option("--out", type=str, default=None, help="report path (stdout if omitted)")
def convert(path, fmt, schema, label_space, pairing, smoothing, metric, out):
    """Convert partial or counterfactual annotations into R/U1/U2/S."""
    space = _load_label_space(label_space)
    if not (math.isfinite(smoothing) and smoothing >= 0):
        _fail("invalid-config", f"--smoothing must be finite and nonnegative, got {smoothing}")
    table = _parse_table(path, fmt, schema)
    try:
        if schema == "partial":
            data = triples_from_partial(table, space, pairing=pairing)
        else:
            data = triples_from_counterfactual(table, space)
        from .pid import convert as run_convert

        result = run_convert(data, smoothing=smoothing)
    except (SchemaError, LabelSpaceError, DistributionError) as exc:
        _fail("conversion-failed", str(exc))
    except InfeasibleError as exc:
        _fail("solver-failed", str(exc), EXIT_NONCONVERGED)
    alphas, confidences = _agreement_summary(table, schema, metric, space=space)
    report = {
        "tool": {"name": "fusionpid", "version": __version__},
        "input": {
            "path": path,
            "format": fmt,
            "schema": schema,
            "label_space": space.to_config(),
            "pairing": pairing,
            "smoothing": smoothing,
        },
        "config": {
            "solver": {"tol_objective": OBJECTIVE_TOL, "tol_feasibility": FEAS_TOL, "max_iterations": MAX_ITERATIONS}
        },
        "pid": result.to_json(),
        "agreement": alphas,
        "confidence": confidences,
    }
    _write_report(report, out, "run_report")
    if not result.converged:
        sys.exit(EXIT_NONCONVERGED)


@main.command()
@click.option("--input", "path", required=True, type=str)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--schema", type=click.Choice(["partial", "counterfactual", "decomposition"]), required=True)
@click.option("--metric", type=click.Choice(["nominal", "ordinal", "interval"]), default=None)
@click.option("--label-space", "label_space", type=str, default=None)
@click.option("--out", type=str, default=None)
def agreement(path, fmt, schema, metric, label_space, out):
    """Inter-annotator agreement (Krippendorff's alpha) and mean confidences."""
    if metric is None:
        metric = "interval" if schema == "decomposition" else "nominal"
    space = _load_label_space(label_space) if label_space else None
    table = _parse_table(path, fmt, schema)
    try:
        alphas, confidences = _agreement_summary(table, schema, metric, space=space)
    except (AgreementError, CategoryError, LabelSpaceError) as exc:
        _fail("agreement-failed", str(exc))
    report = {
        "tool": {"name": "fusionpid", "version": __version__},
        "input": {"path": path, "format": fmt, "schema": schema, "metric": metric},
        "agreement": alphas,
        "confidence": confidences,
    }
    _write_report(report, out, "agreement_report")


@main.command()
@click.option("--input", "path", required=True, type=str, help="Joint3 JSON file")
@click.option("--out", type=str, default=None)
def pid(path, out):
    """Decompose a stored joint distribution into R/U1/U2/S."""
    obj = _read(path, json.load, "invalid-distribution")
    try:
        p = Joint3.from_json(obj)
    except (DistributionError, KeyError, OverflowError, TypeError, ValueError) as exc:
        _fail("invalid-distribution", str(exc))
    try:
        result = pid_from_joint(p)
    except InfeasibleError as exc:
        _fail("solver-failed", str(exc), EXIT_NONCONVERGED)
    _write_report(result.to_json(), out)
    if not result.converged:
        sys.exit(EXIT_NONCONVERGED)


@main.command("oracle-check")
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--resolution", type=int, default=2000, show_default=True)
@click.option("--tolerance", type=float, default=2e-3, show_default=True)
def oracle_check(trials, seed, resolution, tolerance):
    """Compare the solver against the grid-search oracle on random n = 2 joints."""
    if trials < 1:
        _fail("invalid-config", "--trials must be positive")
    if resolution < 2:
        _fail("invalid-config", f"--resolution must be at least 2, got {resolution}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        _fail("invalid-config", f"--tolerance must be positive and finite, got {tolerance}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(trials):
        mass = rng.exponential(size=(2, 2, 2))
        p = Joint3(mass / mass.sum())
        try:
            solved = pid_from_joint(p)
        except InfeasibleError as exc:
            _fail("solver-failed", str(exc), EXIT_NONCONVERGED)
        try:
            q_oracle = brute_force_qstar(p, resolution)
        except OracleError as exc:
            _fail("oracle-intractable", str(exc))
        oracle = pid_from_solution(p, q_oracle)
        gap = max(
            abs(solved.r - oracle.r),
            abs(solved.u1 - oracle.u1),
            abs(solved.u2 - oracle.u2),
            abs(solved.s - oracle.s),
        )
        worst = max(worst, gap)
        if gap > tolerance:
            failures += 1
    summary = {
        "trials": trials,
        "seed": seed,
        "resolution": resolution,
        "tolerance": tolerance,
        "max_component_discrepancy": worst,
        "failures": failures,
        "passed": failures == 0,
    }
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if failures:
        sys.exit(EXIT_NONCONVERGED)


@main.command()
@click.option("--gate", type=click.Choice(GATES), required=True)
@click.option("--noise", type=float, default=0.0, show_default=True, help="output flip probability")
@click.option("--count", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None)
def synth(gate, noise, count, seed, out):
    """Sample a gate distribution and emit a y1,y2,y,weight CSV, rows grouped by cell."""
    try:
        spec = GateSpec(gate=gate, noise=noise)
        data = sample(canonical_joint(spec), count, seed)
    except ValueError as exc:
        _fail("invalid-config", str(exc))
    # one weight-1 line per draw: each drawn cell's line repeated by its count
    lines = [(f"{a},{b},{c},1\n", int(k)) for (a, b, c), k in zip(data.samples.tolist(), data.weights.tolist())]
    # the largest file offset is sys.maxsize = 2^63 - 1 bytes; checked before any line is written
    if sum(len(line) * k for line, k in lines) >= sys.maxsize:
        _fail("invalid-config", f"count {count} gives a CSV past the largest file offset, 2^63 - 1 bytes")
    # a cell's run of lines goes out in pieces of at most SYNTH_CHUNK_LINES
    # lines, so memory does not grow with the count
    pieces = (line * min(SYNTH_CHUNK_LINES, k - i) for line, k in lines for i in range(0, k, SYNTH_CHUNK_LINES))
    _write_parts(itertools.chain(["y1,y2,y,weight\n"], pieces), out)


if __name__ == "__main__":
    main()
