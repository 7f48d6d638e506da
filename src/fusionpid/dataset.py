"""Parsing of annotation files into column tables, and aggregation into weighted (y1, y2, y) triples."""

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass, fields
from itertools import islice
from operator import itemgetter

import numpy as np

from .label_space import encode

CONDITIONS = ("m1", "m2", "both")
ORDERS = ("first-m1", "first-m2")
# fields restricted to a fixed set of values; together with item and
# annotator each one forms the key that must be unique among the records
CHOICES = {"condition": CONDITIONS, "order": ORDERS}
# the values of a rating field; a rating is its own index among them
RATINGS = range(6)

# a raw label as read from CSV (always text) or JSON (text or a number)
Label = str | int | float

# CSV rows read per block: bounds the raw text held at once
_CSV_BLOCK = 1 << 16


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


@dataclass(frozen=True, eq=False)
class Codes:
    """A column as its distinct values and, per row, the index of its value among them."""

    levels: list
    codes: np.ndarray

    def values(self):
        return list(map(self.levels.__getitem__, self.codes.tolist()))


@dataclass(eq=False)
class AnnotationTable:
    """Annotation rows of one record type, held by column.

    `item_id` and `annotator_id` are `Codes` over the sorted distinct ids;
    `condition` / `order` are `Codes` over CHOICES; labels are `Codes` over
    the distinct raw labels, told apart by type as well as value (JSON 1 and
    1.0 are two labels); 0..5 ratings are int64 arrays.
    """

    record: type
    columns: dict

    def __len__(self):
        return len(self.columns["item_id"].codes)

    def __getitem__(self, name):
        return self.columns[name]

    def records(self):
        """The rows as records, in input order."""
        cols = [c.values() if isinstance(c, Codes) else c.tolist() for c in self.columns.values()]
        return list(map(self.record, *cols))

    def __iter__(self):
        return iter(self.records())

    @classmethod
    def from_records(cls, record, records):
        """The table of `records` (of type `record`), validated as parsed rows are."""
        raw = [_levels([getattr(r, f.name) for r in records]) for f in fields(record)]
        return _table(record, raw, records.__getitem__)


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


class _Index(dict):
    """Position of every key in order of first appearance; an unseen key gets the next one."""

    def __missing__(self, key):
        position = self[key] = len(self)
        return position


def _codes(index, keys):
    """The position of every key in `index`, one dict lookup each."""
    return np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))


def _levels(values):
    """(levels, codes) of raw values, 1, 1.0 and True being three levels.

    A list or an object (from JSON) cannot be a key; such a column keeps
    every row as its own level, for the field's converter to reject or, for
    ids, turn into text.
    """
    keys = list(zip(map(type, values), values))
    index = _Index()
    try:
        codes = _codes(index, keys)
    except TypeError:
        return list(values), np.arange(len(values))
    return [value for _, value in index], codes


def _csv_columns(stream, names):
    """(levels, codes) per field from CSV text, and the row for a row number.

    Reads like csv.DictReader: blank lines are skipped, extra trailing
    columns ignored, a repeated column name reads its last column, and a
    field beyond a short row's end is missing (None).
    """
    reader = csv.reader(stream)
    header = next(reader, names)  # an empty file reads as a header-only one
    missing = set(names) - set(header)
    if missing:
        raise SchemaError(f"missing columns: {sorted(missing)}")
    last = {name: i for i, name in enumerate(header)}
    positions = [last[name] for name in names]
    width = max(positions) + 1
    short = {}

    def padded(rows):
        for number, row in enumerate(rows):
            if len(row) < width:
                short[number] = row
                row = row + [None] * (width - len(row))
            yield row

    rows = map(itemgetter(*positions), padded(filter(None, reader)))
    index = [_Index() for _ in names]
    parts = [[np.empty(0, np.intp)] for _ in names]
    while block := list(islice(rows, _CSV_BLOCK)):
        for values, seen, part in zip(zip(*block), index, parts):
            part.append(_codes(seen, values))
    columns = [(list(seen), np.concatenate(part)) for seen, part in zip(index, parts)]

    def row_at(number):
        row = short[number]
        return {**dict(zip(header, row)), **dict.fromkeys(header[len(row) :])}

    return columns, row_at


def _json_columns(stream, names):
    """(levels, codes) per field from a JSON array of objects, and the row for a row number."""
    try:
        rows = json.load(stream)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
    if not isinstance(rows, list):
        raise SchemaError("JSON input must be an array of objects")
    for row in rows:
        if not isinstance(row, dict):
            raise SchemaError(f"row is not an object: {row!r}")
    return [_levels([row.get(name) for row in rows]) for name in names], rows.__getitem__


def _converter(f):
    """Validating converter of one record field's raw value."""
    name = f.name
    if f.type is int:

        def rating(raw):
            try:
                v = int(raw)
            except (TypeError, ValueError, OverflowError):
                raise SchemaError(f"{name} must be an integer: {raw!r}")
            if v not in RATINGS:
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


def _column(f, levels, codes, row_at):
    """One validated table column from a field's raw levels and codes.

    The converter runs once per level, in order of first appearance, so the
    first bad level is the column's first bad row.
    """
    convert = _converter(f)
    values = []
    for j, raw in enumerate(levels):
        if raw is None:
            row = row_at(int(np.argmax(codes == j)))
            raise SchemaError(f"missing field {f.name!r} in row {row!r}")
        values.append(convert(raw))
    if f.type is int:
        return np.array(values, np.int64)[codes]
    if f.name in CHOICES:
        return Codes(CHOICES[f.name], np.array([CHOICES[f.name].index(v) for v in values], np.intp)[codes])
    if f.type is str:  # ids: sorted, with levels that read the same merged
        ids = sorted(set(values))
        rank = {v: i for i, v in enumerate(ids)}
        return Codes(ids, np.array([rank[v] for v in values], np.intp)[codes])
    return Codes(values, codes)


def _table(record, raw, row_at):
    """The validated table of `record` rows from (levels, codes) per field."""
    table = AnnotationTable(record, {f.name: _column(f, *col, row_at) for f, col in zip(fields(record), raw)})
    key = [table[name] for name in ("item_id", "annotator_id", *CHOICES) if name in table.columns]
    combined = np.zeros(len(table), np.int64)
    for col in key:
        combined = combined * len(col.levels) + col.codes
    _, first = np.unique(combined, return_index=True)
    if len(first) < len(table):
        repeat = np.ones(len(table), bool)
        repeat[first] = False
        i = int(np.argmax(repeat))
        raise SchemaError(f"duplicate record key {tuple(col.levels[col.codes[i]] for col in key)}")
    return table


def _parse(stream, fmt, record, what):
    """The table of `record` rows in a CSV or JSON stream, with its fields as the columns."""
    names = [f.name for f in fields(record)]
    if fmt == "csv":
        raw, row_at = _csv_columns(stream, names)
    elif fmt == "json":
        raw, row_at = _json_columns(stream, names)
    else:
        raise SchemaError(f"unknown format {fmt!r}")
    table = _table(record, raw, row_at)
    if not len(table):
        warnings.warn(f"no {what} records parsed")
    return table


def parse_partial(stream, fmt="csv"):
    return _parse(stream, fmt, PartialRecord, "partial-label")


def parse_counterfactual(stream, fmt="csv"):
    return _parse(stream, fmt, CounterfactualRecord, "counterfactual")


def parse_decomposition(stream, fmt="csv"):
    return _parse(stream, fmt, DecompositionRecord, "decomposition")


def serialize_records(records, fmt="csv"):
    """Inverse of the parsers (with `AnnotationTable.records`); round-trips losslessly."""
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


def label_indices(labels, space):
    """The index in `space` of each distinct label of a `Codes` label column."""
    return np.array([encode(space, raw) for raw in labels.levels], np.intp)


def _grouped(table, field):
    """Sort rows by item, then by `field` in the order of its choices, then by annotator.

    Returns (order, start, count): the row positions in that order, and
    the offset in `order` and the length of every (item, group) run as
    (items, groups) arrays, items in sorted order. Every item needs every group.
    """
    if not len(table):
        raise SchemaError("no triples produced")
    item, annotator, group = table["item_id"], table["annotator_id"], table[field]
    groups = group.levels
    order = np.lexsort((annotator.codes, group.codes, item.codes))
    count = np.bincount(item.codes * len(groups) + group.codes, minlength=len(item.levels) * len(groups))
    count = count.reshape(len(item.levels), len(groups))
    lacking = np.flatnonzero((count == 0).any(axis=1))
    if len(lacking):
        i = lacking[0]
        missing = [g for g, c in zip(groups, count[i]) if c == 0]
        raise SchemaError(f"item {item.levels[i]!r} missing {field}(s) {missing}")
    start = np.cumsum(count).reshape(count.shape) - count
    return order, start, count


def _runs(sizes):
    """For runs of these sizes laid end to end: each element's run and its position in it."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) - (np.cumsum(sizes) - sizes)[run]


def _all_combinations(order, start, count):
    """One row per group, every combination within each item (last group
    varying fastest), and the weight 1 / combinations of the item."""
    item, r = _runs(count.prod(axis=1))
    picks = []
    for g in reversed(range(count.shape[1])):
        size = count[item, g]
        picks.insert(0, order[start[item, g] + r % size])
        r = r // size
    return picks, 1.0 / count.prod(axis=1)[item]


def triples_from_partial(table, space, pairing="rotation"):
    """Aggregate a partial-label table into (y1, y2, y) triples.

    rotation: per item, annotators sorted by id; set r pairs annotator r's m1
    label with annotator r+1's m2 label and annotator r+2's both label
    (cyclically), each triple weight 1.
    all-pairs: every cross-annotator combination, weights summing to 1 per item.
    """
    if pairing not in ("rotation", "all-pairs"):
        raise SchemaError(f"unknown pairing {pairing!r}")
    order, start, count = _grouped(table, "condition")
    if pairing == "rotation":
        item, r = _runs(count.max(axis=1))
        picks = [order[start[item, g] + (r + g) % count[item, g]] for g in range(3)]
        weights = np.ones(len(item))
    else:
        picks, weights = _all_combinations(order, start, count)
    label = table["label"]
    labels = label_indices(label, space)[label.codes]
    return TripleDataset(space, np.stack([labels[p] for p in picks], axis=1), weights)


def triples_from_counterfactual(table, space):
    """Aggregate a counterfactual table into (y1, y2, y) triples.

    y1 and y2 come from the unimodal-first labels of the two orders; y is the
    average of the two revised labels. Ordinal/binned spaces average the
    encoded indices, an exact half moving away from the midpoint (size-1)/2
    to avoid a neutral bias (up when on it); nominal spaces emit the two
    revised labels as half-weight triples instead, keeping per-item weight 1.
    """
    (a, b), w = _all_combinations(*_grouped(table, "order"))
    first, both = (label_indices(table[name], space)[table[name].codes] for name in ("label_first", "label_both"))
    y1, y2, i12, i21 = first[a], first[b], both[a], both[b]
    if space.kind in ("ordinal", "binned-continuous"):
        twice = i12 + i21
        y = (twice + (twice >= space.size - 1)) // 2
        return TripleDataset(space, np.stack([y1, y2, y], axis=1), w)
    samples = np.stack([y1, y2, i12, y1, y2, i21], axis=1).reshape(-1, 3)
    return TripleDataset(space, samples, np.repeat(w / 2.0, 2))


def summarize_decomposition(table):
    """Mean rating and mean confidence per interaction, over all rows of a decomposition table."""
    if not len(table):
        raise SchemaError("empty decomposition record list")

    def means(prefix):
        return {k: int(table[prefix + k].sum()) / len(table) for k in ("r", "u1", "u2", "s")}

    return {"ratings": means(""), "confidences": means("conf_")}
