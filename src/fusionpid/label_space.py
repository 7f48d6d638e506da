"""Finite label supports and encoding of raw annotation values to indices."""

import bisect
import math
import numbers
from dataclasses import dataclass


KINDS = ("nominal", "ordinal", "binned-continuous")

# The largest label count a PID solve can take: a dense n = 32 joint took
# 12-15 s in 33-37 Newton steps and 253-268 MB peak RSS, n = 20 1.1-1.3 s
# and 66 MB (fresh process, one OpenBLAS thread of a shared 2-core Intel
# Xeon VM); time grows about as n^4.5 and the Newton matrix as n^4.
MAX_LABELS = 32


class LabelSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class LabelSpace:
    """Ordered finite support of task labels.

    kind: one of "nominal", "ordinal", "binned-continuous".
    values: ordered label names (bin names for binned-continuous).
    bin_edges: ascending boundaries, binned-continuous only.
    """

    kind: str
    values: tuple = ()
    bin_edges: tuple = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise LabelSpaceError(f"unknown label-space kind: {self.kind!r}")
        if len(self.values) > MAX_LABELS:
            raise LabelSpaceError(f"label space has {len(self.values)} labels, more than the {MAX_LABELS} supported")
        if len(self.values) < 2:
            raise LabelSpaceError("label space needs at least 2 labels")
        if not len(self.values) == len(set(self.values)) == len(set(map(str, self.values))):  # CSV text is str(value)
            raise LabelSpaceError("duplicate label values")
        if any(isinstance(v, float) and not math.isfinite(v) for v in self.values):  # NaN and infinities are not JSON
            raise LabelSpaceError(f"label values must be finite, got {list(self.values)}")
        if self.kind == "binned-continuous":
            if self.bin_edges is None or len(self.bin_edges) < 3:
                raise LabelSpaceError("binned-continuous needs at least 3 bin edges")
            edges = list(self.bin_edges)
            if not all(number(e) == e for e in edges):  # text, bools, NaN and infinities are not their own number
                raise LabelSpaceError(f"bin edges must be finite numbers, got {edges}")
            if not all(b > a for a, b in zip(edges, edges[1:])):
                raise LabelSpaceError("bin edges must be strictly ascending")
            if len(self.values) != len(edges) - 1:
                raise LabelSpaceError("bin count must be edge count minus one")
        elif self.bin_edges is not None:
            raise LabelSpaceError("bin_edges only valid for binned-continuous")

    @property
    def size(self):
        return len(self.values)

    def to_config(self):
        cfg = {"kind": self.kind, "values": list(self.values)}
        if self.bin_edges is not None:
            cfg["bin_edges"] = list(self.bin_edges)
        return cfg


# Conservative 3-bin preset for continuous sentiment-style scores in [-3, 3].
DEFAULT_CONTINUOUS_EDGES = (-3.0, -1.0, 1.0, 3.0)


def build_label_space(config):
    """Build a validated LabelSpace from a config mapping.

    Accepted shapes:
      {"kind": "nominal", "values": [...]}
      {"kind": "ordinal", "values": [...]} or {"kind": "ordinal", "range": [lo, hi]}
      {"kind": "binned-continuous", "bin_edges": [...]}
    """
    if not isinstance(config, dict) or "kind" not in config:
        raise LabelSpaceError("label-space config must be a mapping with a 'kind'")
    kind = config["kind"]
    try:
        if kind == "binned-continuous":
            edges = tuple(map(number, config.get("bin_edges", DEFAULT_CONTINUOUS_EDGES)))
            if None in edges:  # the defaults are numbers
                raise LabelSpaceError(f"bin edges must be finite numbers, got {config['bin_edges']!r}")
            names = tuple(f"[{a:g},{b:g}]" for a, b in zip(edges, edges[1:]))
            return LabelSpace(kind=kind, values=names, bin_edges=edges)
        if kind == "ordinal" and "range" in config:
            lo, hi = config["range"]
            if type(lo) is not int or type(hi) is not int:  # JSON integers: no bools, no floats
                raise LabelSpaceError(f"ordinal range ends must be integers, got {config['range']!r}")
            if hi <= lo:
                raise LabelSpaceError("ordinal range must be increasing")
            if hi - lo >= MAX_LABELS:  # checked before the labels are built
                raise LabelSpaceError(
                    f"ordinal range {config['range']!r} has {hi - lo + 1} labels, more than the {MAX_LABELS} supported"
                )
            return LabelSpace(kind=kind, values=tuple(range(lo, hi + 1)))
        if kind in ("nominal", "ordinal"):
            return LabelSpace(kind=kind, values=tuple(config.get("values", ())))
    except LabelSpaceError:
        raise
    except (TypeError, ValueError) as exc:
        # wrong shapes and types in the JSON: a range that is not a pair,
        # bin edges that are no list, unhashable label values
        raise LabelSpaceError(f"malformed {kind} label space: {exc}") from None
    raise LabelSpaceError(f"unknown label-space kind: {kind!r}")


def number(raw):
    """The finite float that a label, rating or bin edge spells, or None.

    A bool is none, and an int or float (numpy's too) is its own. Text is one when float() reads it, it is ASCII
    and it has no "_": float() reads "\u0661" as 1 and "1_0" as 10. ASCII whitespace around it is allowed.
    """
    text = isinstance(raw, str) and raw.isascii() and "_" not in raw
    try:
        x = float(raw) if text or isinstance(raw, numbers.Real) and not isinstance(raw, bool) else math.nan
    except (ValueError, OverflowError):  # text that float() does not read; an int beyond the float range
        return None
    return x if math.isfinite(x) else None


def encode(space, raw):
    """Map a raw label value to its index in [0, space.size); a binned space bins the value's `number`."""
    if isinstance(raw, bool):
        # True == 1 == 1.0: without this a JSON true would be read as label 1, or land in a bin
        for i, v in enumerate(space.values):
            if v is raw:
                return i
        raise LabelSpaceError(f"unknown label {raw!r} for {space.kind} space")
    if space.kind == "binned-continuous":
        x = number(raw)
        if x is None:  # NaN compares false with every edge and would land in bin 0
            raise LabelSpaceError(f"not a finite real value: {raw!r}")
        edges = space.bin_edges
        if x < edges[0] or x > edges[-1]:
            raise LabelSpaceError(f"value {x} outside [{edges[0]}, {edges[-1]}]")
        # boundary values go to the lower bin; the bottom edge to bin 0
        idx = bisect.bisect_left(edges, x) - 1
        return max(idx, 0)
    # a number is no bool label either: (False, True).index(1) would be 1
    for i, v in enumerate(space.values):
        if v == raw and not isinstance(v, bool):
            return i
    # CSV input arrives as strings; tolerate string forms of numeric labels
    text = {str(v): i for i, v in enumerate(space.values)}
    if str(raw) in text:
        return text[str(raw)]
    raise LabelSpaceError(f"unknown label {raw!r} for {space.kind} space")

