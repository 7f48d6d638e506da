"""Parsing of annotation files into column tables, and aggregation into weighted (y1, y2, y) triples."""

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from itertools import chain, cycle, repeat
from operator import add, itemgetter

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
    1.0 are two labels); 0..5 ratings are int64 arrays. `key_order` holds
    the row positions sorted by the record key: item, then condition / order
    (if the record has one) in the order of its choices, then annotator.
    """

    record: type
    columns: dict
    key_order: np.ndarray

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


def _levels(values):
    """(levels, codes) of raw values, 1, 1.0 and True being three levels.

    A list or an object (from JSON) cannot be a key; such a column keeps
    every row as its own level, for `_column` to reject or, for ids, to
    turn into text.
    """
    keys = list(zip(map(type, values), values))
    index = _Index()
    try:
        codes = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
    except TypeError:
        return list(values), np.arange(len(values))
    return [value for _, value in index], codes


def _csv_columns(stream, names):
    """(levels, codes) per field from CSV text, and the row for a row number.

    Reads like csv.DictReader: blank lines are skipped, extra trailing
    columns ignored, a repeated column name reads its last column, and a
    field beyond a short row's end is missing (None). Rows stream through
    C-level iterators, padded with None and cut to the last column read,
    into one (rows, width) array of codes, one `_Index` per column.
    """
    reader = csv.reader(stream)
    header = next(reader, names)  # an empty file reads as a header-only one
    missing = set(names) - set(header)
    if missing:
        raise SchemaError(f"missing columns: {sorted(missing)}")
    last = {name: i for i, name in enumerate(header)}
    positions = [last[name] for name in names]
    width = max(positions) + 1
    rows = map(itemgetter(slice(width)), map(add, filter(None, reader), repeat([None] * width)))
    index = [_Index() for _ in range(width)]
    lookups = map(dict.__getitem__, cycle(index), chain.from_iterable(rows))
    codes = np.fromiter(lookups, np.intp).reshape(-1, width)
    levels = [list(seen) for seen in index]

    def row_at(number):  # a short row: its fields end at the first None
        row = list(map(list.__getitem__, levels, codes[number].tolist()))
        row = row[: row.index(None)]
        return {**dict(zip(header, row)), **dict.fromkeys(header[len(row) :])}

    return [(levels[p], codes[:, p]) for p in positions], row_at


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


def _column(f, levels, codes, row_at):
    """One validated table column from a field's raw levels and codes.

    Levels are checked in order of first appearance, so the first bad level
    is the column's first bad row. A rating becomes an int64 array, a choice
    `Codes` over its CHOICES, an id `Codes` over its sorted text (levels
    that read the same merged) and a label `Codes` over its raw values.
    """
    name = f.name

    def present():
        for j, raw in enumerate(levels):
            if raw is None:
                raise SchemaError(f"missing field {name!r} in row {row_at(int(np.argmax(codes == j)))!r}")
            yield raw

    if f.type is int:
        ratings = []
        for raw in present():
            try:
                value = int(raw)
            except (TypeError, ValueError, OverflowError):
                raise SchemaError(f"{name} must be an integer: {raw!r}") from None
            if value not in RATINGS:
                raise SchemaError(f"{name}={value} outside [0, 5]")
            ratings.append(value)
        return np.array(ratings, np.int64)[codes]
    if name in CHOICES:
        choices = CHOICES[name]
        index = []
        for raw in present():
            if raw not in choices:
                raise SchemaError(f"{name} must be one of {choices}, got {raw!r}")
            index.append(choices.index(raw))
        return Codes(choices, np.array(index, np.intp)[codes])
    if f.type is str:
        ids = list(map(str, present()))
        rank = {v: i for i, v in enumerate(sorted(set(ids)))}
        return Codes(list(rank), np.array([rank[v] for v in ids], np.intp)[codes])
    for raw in present():
        if not isinstance(raw, Label):
            raise SchemaError(f"{name} must be a string or a number, got {raw!r}")
    return Codes(levels, codes)


def _table(record, raw, row_at):
    """The validated table of `record` rows from (levels, codes) per field.

    One stable sort of the record key gives the table's key order, and
    equal neighbours in it are duplicates: the first repeat in input order
    is reported.
    """
    columns = {f.name: _column(f, *col, row_at) for f, col in zip(fields(record), raw)}
    item, annotator = columns["item_id"], columns["annotator_id"]
    choice = [columns[name] for name in CHOICES if name in columns]
    combined = item.codes.astype(np.int64)
    for col in (*choice, annotator):
        combined = combined * len(col.levels) + col.codes
    order = np.argsort(combined, kind="stable")
    key = combined[order]
    repeats = order[1:][key[1:] == key[:-1]]
    if len(repeats):
        i = int(repeats.min())
        shown = tuple(col.levels[col.codes[i]] for col in (item, annotator, *choice))
        raise SchemaError(f"duplicate record key {shown}")
    return AnnotationTable(record, columns, order)


def _parse(stream, fmt, record):
    """The table of `record` rows in a CSV or JSON stream, with its fields as the columns."""
    names = [f.name for f in fields(record)]
    if fmt == "csv":
        raw, row_at = _csv_columns(stream, names)
    elif fmt == "json":
        raw, row_at = _json_columns(stream, names)
    else:
        raise SchemaError(f"unknown format {fmt!r}")
    return _table(record, raw, row_at)


def parse_partial(stream, fmt="csv"):
    return _parse(stream, fmt, PartialRecord)


def parse_counterfactual(stream, fmt="csv"):
    return _parse(stream, fmt, CounterfactualRecord)


def parse_decomposition(stream, fmt="csv"):
    return _parse(stream, fmt, DecompositionRecord)


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
    """The (item, `field`) runs of a table's key order.

    Returns (order, start, count): the row positions in key order (by item,
    then by `field` in the order of its choices, then by annotator), and
    the offset in `order` and the length of every (item, group) run as
    (items, groups) arrays, items in sorted order. Every item needs every group.
    """
    if not len(table):
        raise SchemaError("no triples produced")
    item, group = table["item_id"], table[field]
    groups = group.levels
    count = np.bincount(item.codes * len(groups) + group.codes, minlength=len(item.levels) * len(groups))
    count = count.reshape(len(item.levels), len(groups))
    lacking = np.flatnonzero((count == 0).any(axis=1))
    if len(lacking):
        i = lacking[0]
        missing = [g for g, c in zip(groups, count[i]) if c == 0]
        raise SchemaError(f"item {item.levels[i]!r} missing {field}(s) {missing}")
    start = np.cumsum(count).reshape(count.shape) - count
    return table.key_order, start, count


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
