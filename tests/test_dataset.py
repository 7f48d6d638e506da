import csv
import io
import json
import re
from itertools import product

import numpy as np
import pytest

from fusionpid import dataset
from fusionpid.dataset import (
    CHOICES,
    Codes,
    CounterfactualRecord,
    DecompositionRecord,
    PartialRecord,
    SchemaError,
    parse_counterfactual,
    parse_decomposition,
    parse_partial,
    triples_from_counterfactual,
    triples_from_partial,
)
from fusionpid.info import DistributionError, TripleDataset, empirical_joint
from fusionpid.label_space import MAX_LABELS, build_label_space

NOMINAL = build_label_space({"kind": "nominal", "values": ["no", "yes"]})
ORDINAL = build_label_space({"kind": "ordinal", "range": [-3, 3]})

PARTIAL_HEADER = "item_id,annotator_id,condition,label,confidence\n"
CF_HEADER = (
    "item_id,annotator_id,order,label_first,label_both,"
    "confidence_first,confidence_both\n"
)
DECOMP_HEADER = "item_id,annotator_id,r,u1,u2,s,conf_r,conf_u1,conf_u2,conf_s\n"


def partial_csv(rows):
    return io.StringIO(PARTIAL_HEADER + "\n".join(rows))


def test_parse_partial_single_row():
    recs = list(parse_partial(partial_csv(["i1,a1,m1,yes,4"])))
    assert len(recs) == 1
    assert recs[0].condition == "m1"
    assert recs[0].confidence == 4


def test_parse_partial_confidence_out_of_range():
    with pytest.raises(SchemaError):
        parse_partial(partial_csv(["i1,a1,m1,yes,7"]))


def test_parse_partial_missing_column():
    bad = io.StringIO("item_id,annotator_id,label,confidence\ni1,a1,yes,3")
    with pytest.raises(SchemaError):
        parse_partial(bad)


def test_parse_partial_duplicate_key():
    with pytest.raises(SchemaError):
        parse_partial(partial_csv(["i1,a1,m1,yes,4", "i1,a1,m1,no,2"]))


def test_parse_partial_json():
    rows = [{"item_id": "i1", "annotator_id": "a1", "condition": "both", "label": "no", "confidence": 0}]
    recs = list(parse_partial(io.StringIO(json.dumps(rows)), "json"))
    assert recs[0].label == "no"


def test_parse_unknown_format_and_unknown_pairing_are_schema_errors():
    with pytest.raises(SchemaError, match="unknown format 'xml'"):
        parse_partial(partial_csv(["i1,a1,m1,yes,4"]), "xml")
    table = parse_partial(partial_csv(["i1,a1,m1,yes,4", "i1,a2,m2,no,3", "i1,a3,both,yes,5"]))
    with pytest.raises(SchemaError, match="unknown pairing 'x'"):
        triples_from_partial(table, NOMINAL, pairing="x")


def test_parse_json_non_object_row():
    row = {"item_id": "i1", "annotator_id": "a1", "condition": "both", "label": "no", "confidence": 0}
    with pytest.raises(SchemaError):
        parse_partial(io.StringIO(json.dumps([row, 5])), "json")


def test_parse_json_label_must_be_text_or_number():
    row = {"item_id": "i1", "annotator_id": "a1", "condition": "both", "label": ["no"], "confidence": 0}
    with pytest.raises(SchemaError):
        parse_partial(io.StringIO(json.dumps([row])), "json")


def test_parse_json_keeps_numeric_labels_and_stringifies_ids():
    row = {"item_id": 7, "annotator_id": 3, "order": "first-m1", "label_first": -2,
           "label_both": 1.5, "confidence_first": 4, "confidence_both": 5}
    rec = list(parse_counterfactual(io.StringIO(json.dumps([row])), "json"))[0]
    assert (rec.item_id, rec.annotator_id, rec.label_first, rec.label_both) == ("7", "3", -2, 1.5)


# int() reads "\u0664" (Arabic-Indic four) and a no-break space around 4 as 4
@pytest.mark.parametrize("confidence", [4.5, True, float("inf"), "0_5", "\u0664", "\u00a04"])
def test_parse_json_partial_confidence_must_be_an_integer(confidence):
    row = {"item_id": "i1", "annotator_id": "a1", "condition": "both", "label": "no", "confidence": confidence}
    with pytest.raises(SchemaError, match=rf"^confidence must be an integer: {re.escape(repr(confidence))}$"):
        parse_partial(io.StringIO(json.dumps([row])), "json")


def test_parse_json_decomposition_rating_must_not_be_a_bool():
    row = {"item_id": "i1", "annotator_id": "a1", "r": 2, "u1": True, "u2": 0, "s": 5,
           "conf_r": 4, "conf_u1": 4, "conf_u2": 4, "conf_s": 4}
    with pytest.raises(SchemaError, match="^u1 must be an integer: True$"):
        parse_decomposition(io.StringIO(json.dumps([row])), "json")
    row["u1"], row["r"] = 1, 2.5
    with pytest.raises(SchemaError, match="^r must be an integer: 2.5$"):
        parse_decomposition(io.StringIO(json.dumps([row])), "json")


def test_parse_json_rating_reads_whole_numbers_and_their_text():
    rows = [{"item_id": f"i{k}", "annotator_id": "a1", "condition": "both", "label": "no", "confidence": c}
            for k, c in enumerate([4, 4.0, "4", 0])]
    assert parse_partial(io.StringIO(json.dumps(rows)), "json")["confidence"].codes.tolist() == [4, 4, 4, 0]


def test_parse_counterfactual_bad_order():
    with pytest.raises(SchemaError):
        parse_counterfactual(io.StringIO(CF_HEADER + "i1,a1,first-m3,yes,yes,4,4"))


@pytest.mark.filterwarnings("error")
def test_parse_counterfactual_empty_is_empty_table():
    for text in (CF_HEADER, ""):
        recs = parse_counterfactual(io.StringIO(text))
        assert len(recs) == 0 and list(recs) == []


def test_parse_decomposition_values():
    recs = list(parse_decomposition(io.StringIO(DECOMP_HEADER + "i1,a1,0,0,0,5,4,4,4,4")))
    assert recs[0].s == 5


def test_parse_decomposition_negative_rating():
    with pytest.raises(SchemaError):
        parse_decomposition(io.StringIO(DECOMP_HEADER + "i1,a1,-1,0,0,5,4,4,4,4"))


def test_parse_decomposition_duplicate():
    rows = "i1,a1,0,0,0,5,4,4,4,4\ni1,a1,1,0,0,4,4,4,4,4"
    with pytest.raises(SchemaError):
        parse_decomposition(io.StringIO(DECOMP_HEADER + rows))


def test_csv_reads_like_dictreader():
    # blank lines skipped, quoted commas kept, extra trailing columns ignored,
    # a repeated column name read from its last column
    text = (
        "item_id,annotator_id,condition,label,confidence,label\n"
        "\n"
        'i1,a1,m1,no,4,"yes, sure",extra,more\n'
        "\n"
        "i1,a2,m2,no,3,no\n"
    )
    recs = list(parse_partial(io.StringIO(text)))
    assert recs == [PartialRecord("i1", "a1", "m1", "yes, sure", 4), PartialRecord("i1", "a2", "m2", "no", 3)]


# each file has one bad row; the messages are the ones the row-by-row parser gave
@pytest.mark.parametrize(
    "rows, message",
    [
        (["i1,a1,m1,yes,4", "i1,a2,m2"],
         "missing field 'label' in row {'item_id': 'i1', 'annotator_id': 'a2', 'condition': 'm2', "
         "'label': None, 'confidence': None}"),
        (["i1,a1,m1,yes,4", "i1,a2,m9"], "condition must be one of ('m1', 'm2', 'both'), got 'm9'"),
        (["i1,a1,m1,yes,4", "i1,a2,m2,no,x"], "confidence must be an integer: 'x'"),
        (["i1,a1,m1,yes,4", "i1,a2,m2,no,0_5"], "confidence must be an integer: '0_5'"),
        (["i1,a1,m1,yes,4", "i1,a2,m2,no,6"], "confidence=6 outside [0, 5]"),
        (["i1,a1,m1,yes,4", "i2,a1,m1,no,2", "i1,a1,m1,no,2"], "duplicate record key ('i1', 'a1', 'm1')"),
        (["i1,a1,m1,yes,4", "i1,a2,m2,no,\u0664"], "confidence must be an integer: '\u0664'"),
        (["i1,a1,m1,yes,4", "i1,a2,m2,no,\u00a04"], "confidence must be an integer: '\\xa04'"),
    ],
)
def test_one_bad_row_message(rows, message):
    with pytest.raises(SchemaError) as err:
        parse_partial(partial_csv(rows))
    assert str(err.value) == message


@pytest.mark.parametrize("rows", [["i1,a1,m1,yes,x", "i1,a2,m2,no"], ["i1,a1,m1,yes", "i1,a2,m2,no,x"]])
def test_bad_value_and_missing_field_first_row_wins(rows):
    text = partial_csv(rows).getvalue()
    with pytest.raises(SchemaError) as want:
        dictreader_reference(text, PartialRecord)
    with pytest.raises(SchemaError) as err:
        parse_partial(io.StringIO(text))
    assert str(err.value) == str(want.value)


def test_short_row_names_every_header_column():
    text = "item_id,x,annotator_id,condition,label,confidence\ni1,q,a1,m1,yes\n"
    with pytest.raises(SchemaError) as err:
        parse_partial(io.StringIO(text))
    assert str(err.value) == (
        "missing field 'confidence' in row {'item_id': 'i1', 'x': 'q', 'annotator_id': 'a1', "
        "'condition': 'm1', 'label': 'yes', 'confidence': None}"
    )


# raw CSV text per column (by name prefix), and, for files meant to fail, the bad values
RATING_TEXT = ("0", "1", "2", "3", "4", "5", " 4")
RATING_BAD = ("7", "x", "2.0", "0_5")
DECOMPOSITION_PREFIXES = ("r", "u", "s", "conf_")
CSV_TEXT = {
    "item_id": ("i1", "i2", "i10", "i9"),
    "annotator_id": ("a", "b", "B", "a10"),
    "condition": CHOICES["condition"],
    "order": CHOICES["order"],
    "label": ("no", "yes", "yes, sure", "two\nlines", 'say "hi"', "", "-3"),
    "confidence": RATING_TEXT,
    **dict.fromkeys(DECOMPOSITION_PREFIXES, RATING_TEXT),
    "note": ("", "n, b", "x\ny"),
}
CSV_BAD = {
    "condition": ("m9",),
    "order": ("first-m3",),
    "confidence": RATING_BAD,
    **dict.fromkeys(DECOMPOSITION_PREFIXES, RATING_BAD),
}


# quote-free text per column: wide, non-ASCII and empty fields, two ids that differ past their 8th byte,
# and fields of the bytes below "," that are field text (a space, a tab, "\x0b" to "\x1f", "!" to "+")
PLAIN_TEXT = {
    **CSV_TEXT,
    "item_id": ("i1", "i10", "ítem-ü", "exactly8", "item-identifier-01", "item-identifier-02", "i\t1", "#!+"),
    "annotator_id": ("a", "B", "ä10", "", "annotator-sixteen", "a\x0bb", "\x1f", "(a)*"),
    "label": (
        *("no", "yes", "", "-3", "über", "yes sure", "a label wider than 8 bytes", "w" * 64),
        *("\t", " ", "\x01\x1f", "\x0c", "yes!", "#1", "a+b", "$%&'()*", "\tlabel wider than 8 bytes\x1d"),
    ),
    "note": ("", "n b", "x y"),
}


def csv_text(rng, name, fault, text=CSV_TEXT):
    prefix = next(p for p in text if name.startswith(p))
    pool = CSV_BAD.get(prefix, ()) if fault == "value" and rng.random() < 0.05 else ()
    return str(rng.choice(pool or text[prefix]))


def random_rows(rng, record, text=CSV_TEXT):
    """The header and rows of a random file of `record` rows: schema
    columns shuffled, an unrelated column among them, one column name
    repeated, blank lines ([]) and extra trailing fields; a file meant to
    fail also gets short rows, bad values or repeated keys."""
    names = record._fields
    header = [str(n) for n in rng.permutation(names)]
    header.insert(int(rng.integers(1, len(header))), "note")
    header.insert(int(rng.integers(0, len(header) + 1)), str(rng.choice(names)))
    last = {name: i for i, name in enumerate(header)}
    fault = rng.choice(["none", "short", "value", "repeat"])
    key_names = ["item_id", "annotator_id", *(n for n in names if n in CHOICES)]
    keys = list(product(*(text[n] for n in key_names)))
    rows = [header]
    for k in rng.choice(len(keys), min(20, len(keys)), replace=fault == "repeat"):
        key = dict(zip(key_names, keys[k]))
        row = [key[n] if last[n] == i and n in key else csv_text(rng, n, fault, text) for i, n in enumerate(header)]
        if rng.random() < 0.2:
            row += ["extra"] * int(rng.integers(1, 3))
        if fault == "short" and rng.random() < 0.1:
            row = row[: rng.integers(1, len(header))]
        if rng.random() < 0.1:
            rows.append([])
        rows.append(row)
    return rows


def random_csv(rng, record):
    """CSV text of `random_rows` as csv.writer quotes it."""
    out = io.StringIO()
    csv.writer(out).writerows(random_rows(rng, record))
    return out.getvalue()


def plain_csv(rng, record):
    """Quote-free CSV text of `random_rows`, with LF or CRLF line ends, the last one sometimes left off."""
    end = str(rng.choice(["\n", "\r\n"]))
    text = "".join(",".join(row) + end for row in random_rows(rng, record, PLAIN_TEXT))
    return text[: -len(end)] if rng.random() < 0.3 else text


# the fields the reference reads as 0..5 ratings
RATED = {
    *("confidence", "confidence_first", "confidence_both"),
    *("r", "u1", "u2", "s", "conf_r", "conf_u1", "conf_u2", "conf_s"),
}


def dictreader_reference(text, record):
    """Row loop over csv.DictReader: each field checked down the rows in
    record order, its first bad row reported, then the first repeated key."""
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    missing = set(record._fields) - set(reader.fieldnames)
    if missing:
        raise SchemaError(f"missing columns: {sorted(missing)}")
    columns = []
    for name in record._fields:
        column = []
        for row in rows:
            raw = row[name]
            if raw is None:
                raise SchemaError(f"missing field {name!r} in row {row!r}")
            if name in RATED:
                try:
                    if "_" in raw:  # int() would read it as digit grouping
                        raise ValueError
                    raw = int(raw)
                except ValueError:
                    raise SchemaError(f"{name} must be an integer: {raw!r}")
                if not 0 <= raw <= 5:
                    raise SchemaError(f"{name}={raw} outside [0, 5]")
            elif name in CHOICES and raw not in CHOICES[name]:
                raise SchemaError(f"{name} must be one of {CHOICES[name]}, got {raw!r}")
            column.append(raw)
        columns.append(column)
    records = [record(*values) for values in zip(*columns)]
    seen = set()
    for rec in records:
        key = tuple(getattr(rec, n) for n in ("item_id", "annotator_id", *CHOICES) if hasattr(rec, n))
        if key in seen:
            raise SchemaError(f"duplicate record key {key}")
        seen.add(key)
    return records


def assert_columns_are_codes(table, records):
    """Every column of `table` is `Codes` whose levels, indexed by its codes, give that field of `records`."""
    for i, name in enumerate(table.record._fields):
        col = table[name]
        assert isinstance(col, Codes) and col.codes.dtype == np.intp and col.codes.min(initial=0) >= 0
        assert [col.levels[c] for c in col.codes.tolist()] == [r[i] for r in records]


# each record type with its parser, for the random-file comparisons
RECORDS = [
    (PartialRecord, parse_partial),
    (CounterfactualRecord, parse_counterfactual),
    (DecompositionRecord, parse_decomposition),
]


@pytest.mark.parametrize("record, parse", RECORDS)
def test_csv_parser_matches_dictreader_reference(record, parse):
    rng = np.random.default_rng(21)
    outcomes = set()
    for _ in range(80):
        text = random_csv(rng, record)
        try:
            want = dictreader_reference(text, record)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as err:
                parse(io.StringIO(text))
            assert str(err.value) == str(exc)
            outcomes.add(next(k for k in ("missing field", "must be", "outside", "duplicate") if k in str(exc)))
            continue
        table = parse(io.StringIO(text))
        assert list(table) == want
        assert_columns_are_codes(table, want)
        # the same records as JSON (ids and labels text, ratings integers) read as the same columns
        assert_columns_are_codes(parse(io.StringIO(json.dumps([r._asdict() for r in want])), "json"), want)
        # the one key sort is lexsort's order of (item, choice if any, annotator)
        keys = [table[n].codes for n in ("annotator_id", *CHOICES, "item_id") if n in table.columns]
        assert table.key_order.tolist() == np.lexsort(keys).tolist()
        outcomes.add("parsed")
    assert outcomes == {"parsed", "missing field", "must be", "outside", "duplicate"}


def test_key_order_and_first_repeat_on_a_large_table():
    # 30k rows: enough that the default argsort's handling of ties would show
    rng = np.random.default_rng(5)
    rows = [f"i{i},a{a},{c},yes,3" for i in range(2500) for c in CHOICES["condition"] for a in range(4)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    table = parse_partial(partial_csv(rows))
    keys = (table["annotator_id"].codes, table["condition"].codes, table["item_id"].codes)
    assert table.key_order.tolist() == np.lexsort(keys).tolist()
    # six keys repeated at random positions, before or after the row they
    # repeat, and one more copy of a middle row (which may be a repeat itself)
    for _ in range(5):
        bad = list(rows)
        for src in rng.choice(len(rows), size=6, replace=False):
            dst = int(rng.integers(len(bad) + 1))
            bad.insert(dst, rows[src].replace(",yes,3", ",no,1"))
        bad.insert(int(rng.integers(len(bad) + 1)), bad[len(bad) // 2])
        seen = set()
        for row in bad:
            key = tuple(row.split(",")[:3])
            if key in seen:
                break
            seen.add(key)
        with pytest.raises(SchemaError) as err:
            parse_partial(partial_csv(bad))
        assert str(err.value) == f"duplicate record key {key}"


def short_row(text, record):
    """Whether a data row of the CSV text ends before the last column a `record` field is read from."""
    header, *rows = csv.reader(io.StringIO(text)) if text else [[]]
    names = set(record._fields)
    width = max((i + 1 for i, name in enumerate(header) if name in names), default=0)
    return any(0 < len(row) < width for row in rows)


def refuse(*args, **kwargs):
    raise AssertionError("quote-free CSV reached csv.reader")


def reference(text, record):
    """`dictreader_reference` of `text`, or its `SchemaError`; a `csv.Error` is the parser's "malformed CSV"."""
    try:
        return dictreader_reference(text or ",".join(record._fields), record)  # empty: no header
    except csv.Error as exc:
        return SchemaError(f"malformed CSV: {exc}")
    except SchemaError as exc:
        return exc


def outcome(want, text, parse):
    """The outcome of `parse` on `text`, checked against `want`: "parsed" or the kind of error."""
    if not isinstance(want, SchemaError):
        table = parse(io.StringIO(text))
        assert list(table) == want
        assert_columns_are_codes(table, want)
        return "parsed"
    with pytest.raises(SchemaError) as err:
        parse(io.StringIO(text))
    assert str(err.value) == str(want)
    kinds = ("missing field", "missing columns", "must be", "outside", "duplicate", "malformed")
    return next(k for k in kinds if k in str(want))


# a 64-character block makes most files several blocks, their fields' widths differing between blocks
@pytest.mark.parametrize("block", [dataset._BLOCK, 64])
@pytest.mark.parametrize("record, parse", RECORDS)
def test_quote_free_csv_matches_dictreader_reference_without_csv_reader(record, parse, block, monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK", block)
    rng = np.random.default_rng(22)
    names = record._fields
    texts = [plain_csv(rng, record) for _ in range(80)]
    texts += ["", ",".join(names), ",".join(names) + "\r\n", ",".join(names[1:]) + "\nx\n"]
    outcomes = set()
    for text in texts:
        want = reference(text, record)
        with monkeypatch.context() as m:
            if not short_row(text, record):  # a short row is read again by csv.reader, for its message
                m.setattr(dataset.csv, "reader", refuse)
            outcomes.add(outcome(want, text, parse))
    assert outcomes == {"parsed", "missing field", "missing columns", "must be", "outside", "duplicate"}


@pytest.mark.parametrize(
    "first, later, message",
    [
        ("i1,a,zz,0,3", "i2,a,aa,0,3", "condition must be one of ('m1', 'm2', 'both'), got 'zz'"),
        ("i1,a,m1,0,9", "i2,a,m1,0,6", "confidence=9 outside [0, 5]"),
    ],
    ids=["condition", "confidence"],
)
def test_byte_coder_names_the_first_bad_row_in_input_order(first, later, message, monkeypatch):
    # over a block of text, so read in two; the levels come in byte order, where the later bad value sorts first
    rows = [f"j{i:06d},a,m1,0,3" for i in range(80_000)]
    rows[10], rows[-10] = first, later
    text = PARTIAL_HEADER + "\n".join(rows) + "\n"
    assert len(text) > dataset._BLOCK
    monkeypatch.setattr(dataset.csv, "reader", refuse)
    with pytest.raises(SchemaError) as err:
        parse_partial(io.StringIO(text))
    assert str(err.value) == message


# one file per input that csv.reader reads right or in less memory, and the field size limit to read it with
@pytest.mark.parametrize(
    "rows, limit",
    [
        (["i1,a,m1,yes,4", 'i2,a,m1,"yes, sure",4'], 100),
        (["i1,a,m1,yes,4", "i2,a,m1,ye\0s,4"], 100),
        (["i1,a,m1,yes,4", "i2,a,m1,no,3\ri3,a,m1,no,3"], 100),
        (["i1,a,m1,yes,4", "i2,a,m1,no,3\r"], 100),
        (["i1,a,m1,yes,4", "i2,a,m1,a label of thirty-one characters,4"], 40),
        (["i1,a,m1,yes,4", "i2,a,m1,no"], 100),
        (["i1,a,m1,yes,4", "i2,a,m1," + "w" * 65 + ",4"], 100),
    ],
    ids=["quote", "nul", "return-inside-line", "return-at-end", "long-line", "short-row", "field-over-64-bytes"],
)
def test_csv_reader_reads_what_the_byte_coder_cannot(rows, limit, monkeypatch):
    text = "\n".join([PARTIAL_HEADER.strip(), *rows])
    default = csv.field_size_limit(limit)
    try:
        want = reference(text, PartialRecord)
        calls = []
        reader = csv.reader
        monkeypatch.setattr(dataset.csv, "reader", lambda *args: calls.append(args) or reader(*args))
        outcome(want, text, parse_partial)
    finally:
        csv.field_size_limit(default)
    assert calls


def test_csv_from_a_stream_that_cannot_seek():
    text = PARTIAL_HEADER + 'i1,a,m1,yes,4\ni2,a,m1,"no",3\n'
    stream = io.StringIO(text)
    stream.seekable = lambda: False
    assert list(parse_partial(stream)) == dictreader_reference(text, PartialRecord)


def test_json_null_field_is_missing_and_list_ids_become_text():
    row = {"item_id": "i1", "annotator_id": "a", "condition": "m1", "label": "x", "confidence": 3}
    with pytest.raises(SchemaError) as err:
        parse_partial(io.StringIO(json.dumps([row, dict(row, annotator_id="b", label=None)])), "json")
    assert str(err.value) == (
        "missing field 'label' in row {'item_id': 'i1', 'annotator_id': 'b', 'condition': 'm1', "
        "'label': None, 'confidence': 3}"
    )
    recs = list(parse_partial(io.StringIO(json.dumps([dict(row, item_id=["a"])])), "json"))
    assert recs[0].item_id == "['a']"


def test_malformed_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_partial(io.StringIO('[{"item_id": '), "json")


@pytest.mark.parametrize("parse", [parse_partial, parse_counterfactual, parse_decomposition])
def test_json_nested_past_the_decoder_recursion_limit_is_schema_error(parse):
    with pytest.raises(SchemaError, match="^malformed JSON: maximum recursion depth exceeded"):
        parse(io.StringIO("[" * 200_000 + "]" * 200_000), "json")


def test_json_labels_one_and_one_point_zero_stay_distinct():
    rows = [
        {"item_id": 7, "annotator_id": "a", "condition": "m1", "label": 1, "confidence": 3},
        {"item_id": "7", "annotator_id": "b", "condition": "m1", "label": 1.0, "confidence": 3},
        {"item_id": 8, "annotator_id": "a", "condition": "m1", "label": 1, "confidence": 3},
    ]
    table = parse_partial(io.StringIO(json.dumps(rows)), "json")
    assert table["item_id"].levels == ["7", "8"]
    assert table["item_id"].codes.tolist() == [0, 0, 1]
    labels = table["label"]
    assert [type(v) for v in labels.levels] == [int, float]
    assert labels.codes.tolist() == [0, 1, 0]
    assert [type(r.label) for r in list(table)] == [int, float, int]


def three_annotator_item(item="i1"):
    rows = []
    for ann, labels in (("a", "yes,no,yes"), ("b", "no,no,yes"), ("c", "yes,yes,no")):
        l1, l2, l12 = labels.split(",")
        rows += [f"{item},{ann},m1,{l1},3", f"{item},{ann},m2,{l2},3", f"{item},{ann},both,{l12},3"]
    return rows


def test_rotation_pairing_three_annotators():
    recs = parse_partial(partial_csv(three_annotator_item()))
    data = triples_from_partial(recs, NOMINAL, pairing="rotation")
    assert len(data.samples) == 3
    assert data.weights.tolist() == [1.0] * 3
    # (a.m1, b.m2, c.both), (b.m1, c.m2, a.both), (c.m1, a.m2, b.both)
    yes, no = 1, 0
    assert data.samples.tolist() == [[yes, no, no], [no, yes, yes], [yes, no, yes]]


def test_rotation_single_annotator_gives_one_triple():
    recs = parse_partial(partial_csv(["i1,a,m1,yes,3", "i1,a,m2,no,3", "i1,a,both,yes,3"]))
    data = triples_from_partial(recs, NOMINAL)
    assert data.samples.tolist() == [[1, 0, 1]]
    assert data.weights.tolist() == [1.0]


def test_missing_condition_is_error():
    recs = parse_partial(partial_csv(["i1,a,m1,yes,3", "i1,b,m1,no,3"]))
    with pytest.raises(SchemaError):
        triples_from_partial(recs, NOMINAL)


def test_all_pairs_weights_sum_to_one_per_item():
    recs = parse_partial(partial_csv(three_annotator_item() + three_annotator_item("i2")))
    data = triples_from_partial(recs, NOMINAL, pairing="all-pairs")
    assert len(data.samples) == 2 * 27
    assert data.weights.sum() == pytest.approx(2.0)


def test_rotation_total_weight_three_per_item():
    recs = parse_partial(partial_csv(three_annotator_item() + three_annotator_item("i2")))
    data = triples_from_partial(recs, NOMINAL, pairing="rotation")
    assert data.weights.sum() == pytest.approx(3 * 2)


def test_triple_dataset_validation():
    with pytest.raises(DistributionError):
        TripleDataset(2, [(0, 1, 0)], [1.0, 1.0])  # one weight per sample
    with pytest.raises(DistributionError):
        TripleDataset(2, [(0, 1, 0)], [[1.0]])  # weights not one-dimensional
    with pytest.raises(DistributionError):
        TripleDataset(2, [(0, 1)], [1.0])  # not a triple
    with pytest.raises(DistributionError):
        TripleDataset(2, [(0.0, 1.0, 0.0)], [1.0])  # not integer indices
    with pytest.raises(DistributionError):
        TripleDataset(2, [(0, 2, 0)], [1.0])  # index out of range
    for w in (0.0, -1.0, np.nan):
        with pytest.raises(DistributionError):
            TripleDataset(2, [(0, 1, 0), (1, 1, 1)], [1.0, w])


@pytest.mark.parametrize(
    "samples, weights, message",
    [
        ([(0, 1, 0), (1, 1, 1), (0, 0, 0)], [1.0, 0.0, -2.0], "nonpositive weight 0.0"),
        ([(0, 1, 0), (1, 1, 1), (0, 0, 0)], [2.0, np.nan, 0.0], "nonpositive weight nan"),
        ([(0, 1, 0), (1, -1, 1)], [1.0, 1.0], "index out of range for space of size 2"),
        ([(0, 1, 0), (1, 1, 2)], [1.0, 1.0], "index out of range for space of size 2"),
    ],
)
def test_triple_dataset_messages_name_first_bad_entry(samples, weights, message):
    with pytest.raises(DistributionError, match=f"^{message}$"):
        TripleDataset(2, samples, weights)


def test_triple_dataset_stores_contiguous_uint8_rows():
    wide = np.array([[1, 9, 0, 9, 1], [0, 9, 1, 9, 1]])  # int64, rows strided in the [:, ::2] view
    data = TripleDataset(2, wide[:, ::2], [1.0, 2.0])
    assert data.samples.dtype == np.uint8 and data.samples.flags.c_contiguous
    assert data.samples.tolist() == [[1, 0, 1], [0, 1, 1]]


def test_triple_dataset_refuses_space_over_max_labels():
    with pytest.raises(DistributionError, match=f"^label space has 33 labels, more than the {MAX_LABELS} supported$"):
        TripleDataset(MAX_LABELS + 1, [(0, 1, 32)], [1.0])


def test_empty_triple_dataset_constructs_but_has_no_joint():
    data = TripleDataset(2, np.zeros((0, 3), int), [])
    assert data.samples.shape == (0, 3) and data.weights.sum() == 0.0
    with pytest.raises(DistributionError, match="empty dataset"):
        empirical_joint(data)


def reference_triples(records, space, pairing):
    """Loop version of the pairing rules, for comparison with the array version."""
    items = {}
    for rec in records:
        items.setdefault(rec.item_id, {}).setdefault(rec.condition, []).append(rec)
    out = []
    for _, conds in sorted(items.items()):
        l1, l2, l12 = (sorted(conds[c], key=lambda r: r.annotator_id) for c in ("m1", "m2", "both"))
        if pairing == "rotation":
            for r in range(max(len(l1), len(l2), len(l12))):
                trio = (l1[r % len(l1)], l2[(r + 1) % len(l2)], l12[(r + 2) % len(l12)])
                out.append(([space.values.index(x.label) for x in trio], 1.0))
        else:
            w = 1.0 / (len(l1) * len(l2) * len(l12))
            out += [([space.values.index(x.label) for x in (a, b, c)], w) for a in l1 for b in l2 for c in l12]
    return [s for s, _ in out], [w for _, w in out]


@pytest.mark.parametrize("pairing", ["rotation", "all-pairs"])
def test_pairing_matches_loop_reference_on_uneven_items(pairing):
    rng = np.random.default_rng(3)
    records = []
    for i in range(40):
        for cond in ("m1", "m2", "both"):
            for ann in rng.choice(["z", "a10", "a9", "B", "c"], size=rng.integers(1, 5), replace=False):
                records.append(PartialRecord(f"i{i}", str(ann), cond, str(rng.choice(["no", "yes"])), 3))
    records = [records[j] for j in rng.permutation(len(records))]
    table = parse_partial(partial_csv([",".join(map(str, r)) for r in records]))
    data = triples_from_partial(table, NOMINAL, pairing=pairing)
    samples, weights = reference_triples(records, NOMINAL, pairing)
    assert data.samples.tolist() == samples
    assert data.weights.tolist() == weights


def test_counterfactual_rounding_rule_for_every_pair():
    # exact halves go to the neighbour farther from the midpoint (size-1)/2, up when equidistant
    for size in range(2, 8):
        space = build_label_space({"kind": "ordinal", "range": [0, size - 1]})
        mid = (size - 1) / 2
        for i12 in range(size):
            for i21 in range(size):
                recs = parse_counterfactual(cf_csv([f"i,a,first-m1,0,{i12},3,3", f"i,b,first-m2,0,{i21},3,3"]))
                lo, hi = (i12 + i21) // 2, (i12 + i21 + 1) // 2
                want = hi if abs(hi - mid) >= abs(lo - mid) else lo
                assert triples_from_counterfactual(recs, space).samples[0, 2] == want


def cf_csv(rows):
    return io.StringIO(CF_HEADER + "\n".join(rows))


@pytest.mark.parametrize(
    "parse, header, triples",
    [(parse_partial, PARTIAL_HEADER, triples_from_partial), (parse_counterfactual, CF_HEADER, triples_from_counterfactual)],
)
def test_header_only_table_produces_no_triples(parse, header, triples):
    # the CLI refuses such a file earlier, as "no records in input"
    table = parse(io.StringIO(header))
    assert not len(table)
    with pytest.raises(SchemaError, match="^no triples produced$"):
        triples(table, ORDINAL)


def test_counterfactual_equal_revisions_average_to_self():
    recs = parse_counterfactual(cf_csv(["i1,a,first-m1,1,2,4,4", "i1,b,first-m2,-1,2,3,3"]))
    data = triples_from_counterfactual(recs, ORDINAL)
    assert data.samples.tolist() == [[4, 2, 5]]
    assert data.weights.tolist() == [1.0]


def test_counterfactual_half_step_rounds_away_from_midpoint():
    # revisions +2 (index 5) and +1 (index 4): mean 4.5 -> index 5
    recs = parse_counterfactual(cf_csv(["i1,a,first-m1,0,2,4,4", "i1,b,first-m2,0,1,3,3"]))
    data = triples_from_counterfactual(recs, ORDINAL)
    assert data.samples[0][2] == 5
    # mirrored on the negative side: -2 and -1 -> mean 1.5 -> index 1
    recs = parse_counterfactual(cf_csv(["i1,a,first-m1,0,-2,4,4", "i1,b,first-m2,0,-1,3,3"]))
    data = triples_from_counterfactual(recs, ORDINAL)
    assert data.samples[0][2] == 1


def test_counterfactual_nominal_emits_half_weight_pair():
    recs = parse_counterfactual(cf_csv(["i1,a,first-m1,yes,yes,4,4", "i1,b,first-m2,no,no,3,3"]))
    data = triples_from_counterfactual(recs, NOMINAL)
    assert data.samples.tolist() == [[1, 0, 1], [1, 0, 0]]
    assert data.weights.tolist() == [0.5, 0.5]
    assert data.weights.sum() == pytest.approx(1.0)


def test_counterfactual_missing_order_is_error():
    recs = parse_counterfactual(cf_csv(["i1,a,first-m1,yes,yes,4,4"]))
    with pytest.raises(SchemaError):
        triples_from_counterfactual(recs, NOMINAL)
