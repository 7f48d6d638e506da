"""Parsing of annotation files into column tables, and aggregation into weighted (y1, y2, y) triples."""

import csv
import io
import json
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from operator import add, itemgetter

import numpy as np

from .info import TripleDataset
from .label_space import encode, number

CONDITIONS = ("m1", "m2", "both")
ORDERS = ("first-m1", "first-m2")
# a record field's kind comes from its name (`_column`). Fields restricted to
# a fixed set of values; together with item and annotator each one forms the
# key that must be unique among the records
CHOICES = {"condition": CONDITIONS, "order": ORDERS}
# the id fields and the raw-label fields; any other field is a rating
IDS = ("item_id", "annotator_id")
LABELS = ("label", "label_first", "label_both")
# the values of a rating field; a rating is its own index among them
RATINGS = range(6)

# a raw label as read from CSV (always text) or JSON (text or a number)
Label = str | int | float


class SchemaError(ValueError):
    pass


PartialRecord = namedtuple("PartialRecord", "item_id annotator_id condition label confidence")
CounterfactualRecord = namedtuple(
    "CounterfactualRecord", "item_id annotator_id order label_first label_both confidence_first confidence_both"
)
DecompositionRecord = namedtuple("DecompositionRecord", "item_id annotator_id r u1 u2 s conf_r conf_u1 conf_u2 conf_s")


@dataclass(frozen=True, eq=False)
class Codes:
    """A column as its distinct values and, per row, the index of its value among them."""

    levels: list
    codes: np.ndarray


@dataclass(eq=False)
class AnnotationTable:
    """Annotation rows of one record type, held by column; iterated, the rows as records.

    Every column is `Codes`, its levels set by the field's name
    (`_column`): IDS over the sorted distinct ids, a CHOICES field over its
    choices, LABELS over the distinct raw labels, told apart by type as
    well as value (JSON 1 and 1.0 are two labels), and every other field
    over RATINGS, so that its codes are its ratings. `key_order` holds the
    row positions sorted by the record key: item, then condition / order
    (if the record has one) in the order of its choices, then annotator.
    """

    record: type
    columns: dict
    key_order: np.ndarray

    def __len__(self):
        return len(self.columns["item_id"].codes)

    def __getitem__(self, name):
        return self.columns[name]

    def __iter__(self):  # the rows as records, in input order; read by perfbench/test_perfbench.py
        return map(self.record, *(map(c.levels.__getitem__, c.codes.tolist()) for c in self.columns.values()))


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


def _positions(header, names):
    """The column each of `names` is read from; a repeated column name reads its last column."""
    missing = set(names) - set(header)
    if missing:
        raise SchemaError(f"missing columns: {sorted(missing)}")
    last = {name: i for i, name in enumerate(header)}
    return [last[name] for name in names]


def _csv_columns(stream, names):
    """(levels, codes) per field from CSV text, and the row for a row number.

    Reads like csv.DictReader: blank lines are skipped, extra trailing
    columns ignored, a repeated column name reads its last column, and a
    field beyond a short row's end is missing (None). Text that needs no
    CSV quoting rules is coded from its bytes (`_byte_columns`); the text
    `_NeedsReader` names is read again from its start by csv.reader
    (`_reader_columns`).
    """
    if not stream.seekable():
        stream = io.StringIO(stream.read())
    start = stream.tell()
    try:
        return _byte_columns(stream, names), None  # no field is missing: a short row needs csv.reader
    except _NeedsReader:
        stream.seek(start)
    try:
        return _reader_columns(stream, names)
    except csv.Error as exc:
        raise SchemaError(f"malformed CSV: {exc}") from None


# characters of CSV text read at a time, then extended to the end of their line
_BLOCK = 1 << 20
# the bytes at or below "," in UTF-8 text that a field of unquoted CSV
# cannot hold; any other byte there (a space, say) is field text
_NUL, _NEWLINE, _RETURN, _QUOTE, _COMMA = b'\0\n\r",'
# per byte count 0..8, the mask of that many leading bytes of a big-endian word
_MASKS = np.array([(1 << 64) - (1 << 64 - 8 * n) for n in range(9)], np.uint64)
# the most 8-byte words in a field's key: every key of a column is as wide
# as its widest field, so one long field would cost every row its width
_KEY_WORDS = 8


class _NeedsReader(Exception):
    """CSV text that csv.reader reads right or in less memory: a quote, a NUL,
    a "\\r" that does not end a line, a line over the field size limit, a
    short row, or a field read that is longer than `_KEY_WORDS` words."""


def _factorised(blocks):
    """(levels, codes) of a column from its blocks' keys, levels decoded in key order."""
    width = max((keys.shape[1] for keys in blocks), default=1)
    keys = np.zeros((sum(map(len, blocks)), width), np.uint64)
    row = 0
    while blocks:  # each block is freed once copied
        block = blocks.pop(0)
        keys[row : row + len(block), : block.shape[1]] = block
        row += len(block)
    # a word at a time (sorting uint64 beats sorting wide void keys, in time and memory),
    # a key's code is the code of (its code so far, its next word)
    distinct, inverse = np.unique(keys[:, 0], return_inverse=True)
    for j in range(1, width):
        words, word = np.unique(keys[:, j], return_inverse=True)
        distinct, inverse = np.unique(inverse * len(words) + word, return_inverse=True)
    level_row = np.empty(len(distinct), np.intp)
    level_row[inverse] = np.arange(len(keys))  # a row of each level, to decode
    text = keys[level_row].astype(">u8").view(f"S{8 * width}").ravel().tolist()  # "S" drops the zero padding
    return [b.decode("utf-8", "surrogatepass") for b in text], inverse


def _byte_columns(stream, names):
    """(levels, codes) per field from CSV text that needs no quoting rules.

    The text is read in blocks of whole lines. Each block is encoded once
    and scanned once for its delimiters, commas and line ends ("\\n" or
    "\\r\\n"); field p of a line lies between its delimiters p - 1 and p,
    counted from the line end before it. Each field read becomes a key of
    its bytes, and each column's keys are factorised with np.unique after
    the last block, only the distinct values decoded. Raises `_NeedsReader`
    on text that csv.reader is to read.
    """
    positions, blocks = None, [[] for _ in names]
    while text := stream.read(_BLOCK):
        # eight NULs after the block, so that a word can start at any of its bytes
        data = np.frombuffer((text + stream.readline() + "\0" * 8).encode("utf-8", "surrogatepass"), np.uint8)
        del text
        size = len(data) - 8
        words = np.ndarray((size + 1,), ">u8", data, strides=(1,))
        at = np.flatnonzero(data[:size] <= _COMMA)
        byte = data[at]
        returns = at[byte == _RETURN]
        if (byte == _QUOTE).any() or (byte == _NUL).any() or (data[returns + 1] != _NEWLINE).any():
            raise _NeedsReader
        delimiter = (byte == _COMMA) | (byte == _NEWLINE) | (byte == _RETURN)  # any other byte is field text
        at, newline = at[delimiter], byte[delimiter] == _NEWLINE
        if data[size - 1] != _NEWLINE:  # the block's last line ends at its size
            at, newline = np.append(at, size), np.append(newline, True)
        # with a line end at -1 ahead of the block, a line's commas are the entries of `at` between two `ends`
        at, ends = np.append(-1, at), np.flatnonzero(np.append(True, newline))
        first, last = ends[:-1] + 1, ends[1:] - (data[at[ends[1:]] - 1] == _RETURN)  # a "\r\n" line ends at "\r"
        start, end = at[first - 1] + 1, at[last]
        if (end - start).max() > csv.field_size_limit():
            raise _NeedsReader
        rows = end > start  # csv.reader skips blank lines
        if positions is None:
            line = data[start[0] : end[0]].tobytes().decode("utf-8", "surrogatepass")
            positions = _positions(line.split(",") if line else [], names)
            rows[0] = False
        first, last = first[rows], last[rows]
        if (last - first < max(positions)).any():
            raise _NeedsReader
        for p, column in zip(positions, blocks):
            # a field's key: its bytes, zero-padded, as big-endian 8-byte words. A field holds no NUL, so
            # padding never makes two keys equal, and keys order as their bytes do (UTF-8 text: as `str`)
            field_start = at[first + p - 1] + 1
            length = at[first + p] - field_start
            width = -(-int(length.max(initial=1)) // 8)
            if width > _KEY_WORDS:
                raise _NeedsReader
            keys = np.empty((len(field_start), width), np.uint64)
            for j in range(width):
                word = np.minimum(field_start + 8 * j, size)  # past a field's end its mask is 0
                keys[:, j] = words[word] & _MASKS[np.clip(length - 8 * j, 0, 8)]
            column.append(keys)
    return [_factorised(column) for column in blocks]


def _reader_columns(stream, names):
    """(levels, codes) per field through csv.reader, and the row for a row number.

    Rows stream through C-level iterators, padded with None and cut to the
    last column read, into one (rows, width) array of codes, one `_Index`
    per column.
    """
    reader = csv.reader(stream)
    header = next(reader, names)  # an empty file reads as a header-only one
    positions = _positions(header, names)
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
    text = stream.read()  # outside the try: text that is not UTF-8 is the caller's to report
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, nested too deep, or an integer over 4300 digits
        raise SchemaError(f"malformed JSON: {exc}") from None
    if not isinstance(rows, list):
        raise SchemaError("JSON input must be an array of objects")
    for row in rows:
        if not isinstance(row, dict):
            raise SchemaError(f"row is not an object: {row!r}")
    return [_levels([row.get(name) for row in rows]) for name in names], rows.__getitem__


def _column(name, levels, codes, row_at):
    """One validated `Codes` table column from a field's raw levels and codes.

    The field's name gives the column's levels: a CHOICES field's choices,
    an IDS field's sorted text (levels that read the same merged), a LABELS
    field's raw values, and for any other field RATINGS, a rating being its
    own code: a `number` in [0, 5] that is an integer, from text that int()
    reads too. Raw levels come in any order: a raw level that is None (a
    missing field) or that the field's kind refuses refuses the column with
    the error of the first row, in input order, that has it.
    """

    def parsed(parse):  # `parse` of each level, raising SchemaError on one it refuses
        values = []
        for raw in levels:
            try:
                values.append(None if raw is None else parse(raw))
            except SchemaError:
                values.append(None)
        bad = np.array([value is None for value in values], bool)
        if bad.any():
            row = int(np.argmax(bad[codes]))
            if levels[codes[row]] is None:
                raise SchemaError(f"missing field {name!r} in row {row_at(row)!r}")
            parse(levels[codes[row]])  # raises its error again
        return values

    def choice(raw):
        if raw not in CHOICES[name]:
            raise SchemaError(f"{name} must be one of {CHOICES[name]}, got {raw!r}")
        return CHOICES[name].index(raw)

    def label(raw):
        if not isinstance(raw, Label):
            raise SchemaError(f"{name} must be a string or a number, got {raw!r}")
        return raw

    def rating(raw):
        x = number(raw)  # None for JSON true and for the text 0_5 or ٤
        if x is None or not x.is_integer() or isinstance(raw, str) and not raw.strip().lstrip("+-").isdigit():
            raise SchemaError(f"{name} must be an integer: {raw!r}")  # 4.5, and text such as 2.0 that int() refuses
        if x not in RATINGS:
            raise SchemaError(f"{name}={int(x)} outside [0, 5]")
        return int(x)

    if name in CHOICES:
        return Codes(CHOICES[name], np.array(parsed(choice), np.intp)[codes])
    if name in IDS:
        ids = parsed(str)
        rank = {v: i for i, v in enumerate(sorted(set(ids)))}
        return Codes(list(rank), np.array([rank[v] for v in ids], np.intp)[codes])
    if name in LABELS:
        parsed(label)
        return Codes(levels, codes)
    return Codes(RATINGS, np.array(parsed(rating), np.intp)[codes])


def _table(record, raw, row_at):
    """The validated table of `record` rows from (levels, codes) per field.

    One sort of the record key gives the table's key order; the keys of a
    valid table are distinct, so any sort gives the same order. Equal
    neighbours in it are duplicates: the key is then sorted again, stably,
    so that the first repeat in input order is reported.
    """
    columns = {name: _column(name, *col, row_at) for name, col in zip(record._fields, raw)}
    item, annotator = columns["item_id"], columns["annotator_id"]
    choice = [columns[name] for name in CHOICES if name in columns]
    combined = item.codes.astype(np.int64)
    for col in (*choice, annotator):
        combined = combined * len(col.levels) + col.codes
    order = np.argsort(combined)
    key = combined[order]
    if (key[1:] == key[:-1]).any():
        order = np.argsort(combined, kind="stable")
        key = combined[order]
        i = int(order[1:][key[1:] == key[:-1]].min())
        shown = tuple(col.levels[col.codes[i]] for col in (item, annotator, *choice))
        raise SchemaError(f"duplicate record key {shown}")
    return AnnotationTable(record, columns, order)


def _parse(stream, fmt, record):
    """The table of `record` rows in a CSV or JSON stream, with its fields as the columns."""
    if fmt == "csv":
        raw, row_at = _csv_columns(stream, record._fields)
    elif fmt == "json":
        raw, row_at = _json_columns(stream, record._fields)
    else:
        raise SchemaError(f"unknown format {fmt!r}")
    return _table(record, raw, row_at)


def parse_partial(stream, fmt="csv"):
    return _parse(stream, fmt, PartialRecord)


def parse_counterfactual(stream, fmt="csv"):
    return _parse(stream, fmt, CounterfactualRecord)


def parse_decomposition(stream, fmt="csv"):
    return _parse(stream, fmt, DecompositionRecord)


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
    return TripleDataset(space.size, np.stack([labels[p] for p in picks], axis=1), weights)


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
        return TripleDataset(space.size, np.stack([y1, y2, y], axis=1), w)
    samples = np.stack([y1, y2, i12, y1, y2, i21], axis=1).reshape(-1, 3)
    return TripleDataset(space.size, samples, np.repeat(w / 2.0, 2))
