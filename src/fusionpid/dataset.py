"""Parsing of annotation files and aggregation into weighted (y1, y2, y) triples."""

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .label_space import encode

CONDITIONS = ("m1", "m2", "both")
ORDERS = ("first-m1", "first-m2")
# fields restricted to a fixed set of values; together with item and
# annotator each one forms the key that must be unique among the records
CHOICES = {"condition": CONDITIONS, "order": ORDERS}

# a raw label as read from CSV (always text) or JSON (text or a number)
Label = str | int | float


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class PartialRecord:
    item_id: str
    annotator_id: str
    condition: str
    label: Label
    confidence: int


@dataclass(frozen=True)
class CounterfactualRecord:
    item_id: str
    annotator_id: str
    order: str
    label_first: Label
    label_both: Label
    confidence_first: int
    confidence_both: int


@dataclass(frozen=True)
class DecompositionRecord:
    item_id: str
    annotator_id: str
    r: int
    u1: int
    u2: int
    s: int
    conf_r: int
    conf_u1: int
    conf_u2: int
    conf_s: int


@dataclass
class TripleDataset:
    """Weighted samples (y1, y2, y) over a shared label space.

    samples: (N, 3) integer array of label indices; weights: (N,) positive floats.
    """

    space: object
    samples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        self.weights = np.asarray(self.weights, dtype=float)
        shape_ok = self.samples.shape[1:] == (3,) and self.weights.shape == self.samples.shape[:1]
        if not shape_ok or self.samples.dtype.kind not in "iu":
            raise SchemaError("samples must be an (N, 3) integer array and weights an (N,) array")
        bad = ~(self.weights > 0)
        if bad.any():
            raise SchemaError(f"nonpositive weight {self.weights[bad][0]}")
        n = self.space.size
        if np.any((self.samples < 0) | (self.samples >= n)):
            raise SchemaError(f"index out of range for space of size {n}")

    @property
    def total_weight(self):
        return float(self.weights.sum())


def _rows(stream, fmt, names):
    if fmt == "csv":
        reader = csv.DictReader(stream)
        if reader.fieldnames is None:
            return []
        missing = set(names) - set(reader.fieldnames)
        if missing:
            raise SchemaError(f"missing columns: {sorted(missing)}")
        return reader
    if fmt == "json":
        rows = json.load(stream)
        if not isinstance(rows, list):
            raise SchemaError("JSON input must be an array of objects")
        return rows
    raise SchemaError(f"unknown format {fmt!r}")


def _converter(f):
    """Validating converter of one record field's raw value."""
    name = f.name
    if f.type is int:

        def rating(raw):
            try:
                v = int(raw)
            except (TypeError, ValueError):
                raise SchemaError(f"{name} must be an integer: {raw!r}")
            if not 0 <= v <= 5:
                raise SchemaError(f"{name}={v} outside [0, 5]")
            return v

        return rating
    if f.type is str and name not in CHOICES:
        return str
    if name in CHOICES:
        ok, want = CHOICES[name].__contains__, f"one of {CHOICES[name]}"
    else:
        ok, want = (lambda raw: isinstance(raw, Label)), "a string or a number"

    def checked(raw):
        if not ok(raw):
            raise SchemaError(f"{name} must be {want}, got {raw!r}")
        return raw

    return checked


def _parse(stream, fmt, record, what):
    """Records of type `record`, one per row, with its fields as the columns."""
    columns = [(f.name, _converter(f)) for f in fields(record)]
    records = []
    for row in _rows(stream, fmt, [name for name, _ in columns]):
        if not isinstance(row, dict):
            raise SchemaError(f"row is not an object: {row!r}")
        values = []
        for name, convert in columns:
            raw = row.get(name)
            if raw is None:
                raise SchemaError(f"missing field {name!r} in row {row!r}")
            values.append(convert(raw))
        records.append(record(*values))
    # checked once the raw rows are freed
    key = attrgetter("item_id", "annotator_id", *(name for name, _ in columns if name in CHOICES))
    seen = set()
    for rec in records:
        k = key(rec)
        if k in seen:
            raise SchemaError(f"duplicate record key {k}")
        seen.add(k)
    if not records:
        warnings.warn(f"no {what} records parsed")
    return records


def parse_partial(stream, fmt="csv"):
    return _parse(stream, fmt, PartialRecord, "partial-label")


def parse_counterfactual(stream, fmt="csv"):
    return _parse(stream, fmt, CounterfactualRecord, "counterfactual")


def parse_decomposition(stream, fmt="csv"):
    return _parse(stream, fmt, DecompositionRecord, "decomposition")


def serialize_records(records, fmt="csv"):
    """Inverse of the parsers; round-trips losslessly."""
    rows = [asdict(r) for r in records]
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def label_encoder(space):
    """`encode` for one space, run once per distinct raw label.

    Keys include the label's type: `encode` may map 1 and 1.0 differently.
    """
    return lru_cache(maxsize=None, typed=True)(lambda raw: encode(space, raw))


def _ranks(values):
    """The sorted distinct values, and the index of every value among them."""
    distinct = sorted(set(values))
    pos = {v: i for i, v in enumerate(distinct)}
    return distinct, np.fromiter((pos[v] for v in values), np.intp, len(values))


def _grouped(records, field, groups):
    """Sort records by item, then by `field` in the order of `groups`, then by annotator.

    Returns (order, start, count): the record positions in that order, and
    the offset in `order` and the length of every (item, group) run as
    (items, groups) arrays, items in sorted order. Every item needs every group.
    """
    if not records:
        raise SchemaError("no triples produced")
    items, item = _ranks([r.item_id for r in records])
    _, annotator = _ranks([r.annotator_id for r in records])
    group = np.fromiter((groups.index(getattr(r, field)) for r in records), np.intp, len(records))
    order = np.lexsort((annotator, group, item))
    count = np.bincount(item * len(groups) + group, minlength=len(items) * len(groups))
    count = count.reshape(len(items), len(groups))
    lacking = np.flatnonzero((count == 0).any(axis=1))
    if len(lacking):
        i = lacking[0]
        missing = [g for g, c in zip(groups, count[i]) if c == 0]
        raise SchemaError(f"item {items[i]!r} missing {field}(s) {missing}")
    start = np.cumsum(count).reshape(count.shape) - count
    return order, start, count


def _runs(sizes):
    """For runs of these sizes laid end to end: each element's run and its position in it."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) - (np.cumsum(sizes) - sizes)[run]


def _all_combinations(order, start, count):
    """One record per group, every combination within each item (last group
    varying fastest), and the weight 1 / combinations of the item."""
    item, r = _runs(count.prod(axis=1))
    picks = []
    for g in reversed(range(count.shape[1])):
        size = count[item, g]
        picks.insert(0, order[start[item, g] + r % size])
        r = r // size
    return picks, 1.0 / count.prod(axis=1)[item]


def triples_from_partial(records, space, pairing="rotation"):
    """Aggregate partial labels into (y1, y2, y) triples.

    rotation: per item, annotators sorted by id; set r pairs annotator r's m1
    label with annotator r+1's m2 label and annotator r+2's both label
    (cyclically), each triple weight 1.
    all-pairs: every cross-annotator combination, weights summing to 1 per item.
    """
    if pairing not in ("rotation", "all-pairs"):
        raise SchemaError(f"unknown pairing {pairing!r}")
    order, start, count = _grouped(records, "condition", CONDITIONS)
    if pairing == "rotation":
        item, r = _runs(count.max(axis=1))
        picks = [order[start[item, g] + (r + g) % count[item, g]] for g in range(3)]
        weights = np.ones(len(item))
    else:
        picks, weights = _all_combinations(order, start, count)
    encoder = label_encoder(space)
    labels = np.array([encoder(r.label) for r in records])
    return TripleDataset(space, np.stack([labels[p] for p in picks], axis=1), weights)


def triples_from_counterfactual(records, space):
    """Aggregate counterfactual labels into (y1, y2, y) triples.

    y1 and y2 come from the unimodal-first labels of the two orders; y is the
    average of the two revised labels. Ordinal/binned spaces average the
    encoded indices, an exact half moving away from the midpoint (size-1)/2
    to avoid a neutral bias (up when on it); nominal spaces emit the two
    revised labels as half-weight triples instead, keeping per-item weight 1.
    """
    (a, b), w = _all_combinations(*_grouped(records, "order", ORDERS))
    encoder = label_encoder(space)
    first = np.array([encoder(r.label_first) for r in records])
    both = np.array([encoder(r.label_both) for r in records])
    y1, y2, i12, i21 = first[a], first[b], both[a], both[b]
    if space.kind in ("ordinal", "binned-continuous"):
        twice = i12 + i21
        y = (twice + (twice >= space.size - 1)) // 2
        return TripleDataset(space, np.stack([y1, y2, y], axis=1), w)
    samples = np.stack([y1, y2, i12, y1, y2, i21], axis=1).reshape(-1, 3)
    return TripleDataset(space, samples, np.repeat(w / 2.0, 2))


def summarize_decomposition(records):
    """Mean rating and mean confidence per interaction, over all records."""
    if not records:
        raise SchemaError("empty decomposition record list")

    def means(prefix):
        return {k: sum(getattr(rec, prefix + k) for rec in records) / len(records) for k in ("r", "u1", "u2", "s")}

    return {"ratings": means(""), "confidences": means("conf_")}
