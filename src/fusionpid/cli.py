"""Command-line pipeline: ingestion, PID conversion, agreement, synthesis."""

import json
import math
import sys
from contextlib import contextmanager

import click
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
    pid_from_joint,
)
from .synth import GATES, GateSpec, canonical_joint, sample


EXIT_NONCONVERGED = 1
EXIT_INPUT_ERROR = 2


def _fail(code, message, exit_code=EXIT_INPUT_ERROR):
    click.echo(json.dumps({"error": code, "message": message}), err=True)
    sys.exit(exit_code)


def _read(path, parse, error):
    """`parse` of the text file at `path`, opened for it.

    A leading UTF-8 byte-order mark is skipped, and line ends are read as
    they are (`newline=""`, as csv asks: a quoted "\\r\\n" stays in its
    field). A file that is missing, or cannot be read or decoded as UTF-8,
    is one `input-not-found` or `input-unreadable` line; content that
    `parse` rejects (`SchemaError`, or JSON that `json` refuses: malformed,
    nested deeper than the decoder's recursion limit, or an integer literal
    over Python's 4300-digit limit, a plain `ValueError`) is one `error` line.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh)
    except FileNotFoundError:
        _fail("input-not-found", f"input file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        _fail("input-unreadable", f"cannot read {path}: {exc}")
    except SchemaError as exc:  # a ValueError: ahead of the JSON clause
        _fail(error, str(exc))
    except (ValueError, RecursionError) as exc:
        _fail(error, f"malformed JSON in {path}: {exc}")


def _write(text, out):
    """Write `text` to the file `out`, or to stdout ending in a newline."""
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail("output-unwritable", f"cannot write {out}: {exc}")


def _load_label_space(text):
    try:
        cfg = json.loads(text) if text.lstrip().startswith("{") else _read(text, json.load, "invalid-label-space")
        return build_label_space(cfg)
    except LabelSpaceError as exc:  # a ValueError: ahead of the JSON clause
        _fail("invalid-label-space", str(exc))
    except (ValueError, RecursionError) as exc:
        _fail("invalid-label-space", f"label-space JSON is malformed: {exc}")


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
        rows = slice(None) if key is None else np.flatnonzero(table[key].codes == CHOICES[key].index(value))
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
@click.option(
    "--pairing",
    type=click.Choice(["rotation", "all-pairs"]),
    default=None,
    help="partial: rotation (the default) or all-pairs; counterfactual: all-pairs, the only rule it has",
)
@click.option("--smoothing", type=float, default=0.0, show_default=True)
@click.option("--metric", type=click.Choice(["nominal", "ordinal", "interval"]), default="nominal", show_default=True)
@click.option("--out", type=str, default=None, help="report path (stdout if omitted)")
def convert(path, fmt, schema, label_space, pairing, smoothing, metric, out):
    """Convert partial or counterfactual annotations into R/U1/U2/S."""
    space = _load_label_space(label_space)
    if not (math.isfinite(smoothing) and smoothing >= 0):
        _fail("invalid-config", f"--smoothing must be finite and nonnegative, got {smoothing}")
    if schema == "counterfactual" and pairing == "rotation":
        _fail("invalid-config", "counterfactual labels pair every first-m1 with every first-m2 annotator: no rotation")
    pairing = pairing or ("rotation" if schema == "partial" else "all-pairs")
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
    _write(json.dumps(report, indent=2, sort_keys=True), out)
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
    if label_space is not None and schema == "decomposition":
        _fail("invalid-config", "decomposition ratings are 0-5 scores, never encoded: --label-space does not apply")
    space = _load_label_space(label_space) if label_space is not None else None
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
    if space is not None:
        report["input"]["label_space"] = space.to_config()
    _write(json.dumps(report, indent=2, sort_keys=True), out)


@main.command()
@click.option("--input", "path", required=True, type=str, help="Joint3 JSON file")
@click.option("--out", type=str, default=None)
def pid(path, out):
    """Decompose a stored joint distribution into R/U1/U2/S."""
    obj = _read(path, json.load, "invalid-distribution")
    try:
        p = Joint3.from_json(obj)
    except (DistributionError, OverflowError) as exc:  # OverflowError: an integer mass beyond float range
        _fail("invalid-distribution", str(exc))
    try:
        result = pid_from_joint(p)
    except InfeasibleError as exc:
        _fail("solver-failed", str(exc), EXIT_NONCONVERGED)
    _write(json.dumps(result.to_json(), indent=2, sort_keys=True), out)
    if not result.converged:
        sys.exit(EXIT_NONCONVERGED)


@main.command()
@click.option("--gate", type=click.Choice(GATES), required=True)
@click.option("--noise", type=float, default=0.0, show_default=True, help="output flip probability")
@click.option("--count", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None)
def synth(gate, noise, count, seed, out):
    """Sample a gate distribution and emit a y1,y2,y,weight CSV: one row per drawn cell, weighted by its count."""
    try:
        spec = GateSpec(gate=gate, noise=noise)
        data = sample(canonical_joint(spec), count, seed)
    except ValueError as exc:
        _fail("invalid-config", str(exc))
    cells = zip(data.samples.tolist(), data.weights.tolist())
    _write("y1,y2,y,weight\n" + "".join(f"{a},{b},{c},{w}\n" for (a, b, c), w in cells), out)


if __name__ == "__main__":
    main()
