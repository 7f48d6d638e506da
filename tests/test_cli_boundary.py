"""Property test of the CLI boundary.

Small input files for `convert`, `agreement`, `pid` and `--label-space`,
drawn from text that readers must take or refuse (quotes, byte-order marks,
short rows, bools, NaN and infinities, nested lists, nesting past the JSON
decoder's recursion limit, integers past its 4300-digit limit), end either
in exit 0, with any report written strict JSON that meets its shipped
schema, or in exactly one JSON line with `error` and `message` on stderr and
exit 1 or 2. A file read again with a UTF-8 byte-order mark in front gives
the same output.
"""

import json
import math
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionpid.cli import main
from reports import check_report

BOM = "\ufeff"
DEEP = "[" * 5000 + "]" * 5000  # nested past the JSON decoder's recursion limit
# a JSON string that `dumps` turns into DEEP's raw text
DEEP_MARK = "\0deep"
# an integer literal over Python's 4300-digit limit, which json.loads refuses with a plain
# ValueError; `json.dumps` cannot write it, so BIG_MARK stands for its raw text
BIG = "9" * 5000
BIG_MARK = "\0big"
LABEL_SPACE = '{"kind": "nominal", "values": ["0", "1"]}'
# raw field text that the readers must take or refuse in one line
ODD = ["", '"', '""', '"0"', '"m1"', "'", BOM, "NaN", "nan", "-inf", "1e400", "true", "2.5", "-1", "9", "é", " 0"]
IDS = ["i1", "i2", "i3"]
ANNOTATORS = ["a1", "a2", "a3"]
LABELS = ["0", "1"]
RATINGS = ["0", "3", "5"]
COLUMNS = {
    "partial": {
        "item_id": IDS,
        "annotator_id": ANNOTATORS,
        "condition": ["m1", "m2", "both"],
        "label": LABELS,
        "confidence": RATINGS,
    },
    "counterfactual": {
        "item_id": IDS,
        "annotator_id": ANNOTATORS,
        "order": ["first-m1", "first-m2"],
        "label_first": LABELS,
        "label_both": LABELS,
        "confidence_first": RATINGS,
        "confidence_both": RATINGS,
    },
    "decomposition": {
        "item_id": IDS,
        "annotator_id": ANNOTATORS,
        **{name: RATINGS for name in ("r", "u1", "u2", "s", "conf_r", "conf_u1", "conf_u2", "conf_s")},
    },
}
# the column besides item and annotator that keys a schema's rows
KEY = {"partial": "condition", "counterfactual": "order", "decomposition": "item_id"}
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 9)
    | st.floats()
    | st.sampled_from(LABELS + ODD + [DEEP_MARK, BIG_MARK]),
    lambda inner: st.lists(inner, max_size=2),
    max_leaves=4,
)


def dumps(value):
    """JSON text of `value`, NaN and infinities included, with DEEP_MARK as DEEP and BIG_MARK as BIG."""
    return json.dumps(value).replace(json.dumps(DEEP_MARK), DEEP).replace(json.dumps(BIG_MARK), BIG)


@st.composite
def table_rows(draw, schema):
    """Rows of a valid `schema` table: 1-3 items, each rated by 1-2 annotators per condition or order."""
    key = KEY[schema]
    rows = []
    for item in IDS[: draw(st.integers(1, 3))]:
        for choice in [item] if key == "item_id" else COLUMNS[schema][key]:
            for annotator in ANNOTATORS[: draw(st.integers(1, 2))]:
                row = {name: draw(st.sampled_from(values)) for name, values in COLUMNS[schema].items()}
                rows.append({**row, "item_id": item, "annotator_id": annotator, key: choice})
    return rows


# the most fields a file has changed from a valid table's; none half the time
CHANGES = st.sampled_from([0, 0, 0, 1, 2, 3])


@st.composite
def csv_text(draw, schema):
    """A valid `schema` table as CSV, its columns in any order, with a few fields
    made odd, rows cut short, or a column left out."""
    rows = draw(table_rows(schema))
    header = draw(st.permutations(list(COLUMNS[schema])))
    header = header[: len(header) - draw(st.sampled_from([0, 0, 0, 0, 1]))]
    lines = [[row[name] for name in header] for row in rows]
    for _ in range(draw(CHANGES)):
        line = draw(st.sampled_from(lines))
        if not line:
            continue
        at = draw(st.integers(0, len(line) - 1))
        line[at:] = [draw(st.sampled_from(ODD))] + line[at + 1 :] if draw(st.booleans()) else line[:at]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join(line) + newline for line in [header, *lines])


@st.composite
def json_text(draw, schema):
    """A valid `schema` table as a JSON array, with a few fields made any JSON
    value or left out; or any JSON value at all, nesting past the limit too."""
    rows = draw(table_rows(schema))
    for _ in range(draw(CHANGES)):
        row = draw(st.sampled_from(rows))
        name = draw(st.sampled_from(list(row)))
        if draw(st.booleans()):
            row[name] = draw(JSON_VALUES)
        else:
            del row[name]
    return dumps(draw(st.just(rows) | st.just(rows) | JSON_VALUES | st.just(DEEP_MARK)))


@st.composite
def joint_text(draw):
    """A Joint3 JSON file: a normalised joint of size 1-3, or any size and mass,
    or any JSON value, nesting past the limit too."""
    n = draw(st.integers(1, 3))
    mass = draw(st.lists(st.floats(0, 1), min_size=n**3, max_size=n**3))
    total = sum(mass)
    joint = {"size": n, "mass": [m / total for m in mass] if total > 0 else mass}
    loose = st.fixed_dictionaries(
        {}, optional={"size": st.integers(0, 40) | JSON_VALUES, "mass": st.lists(JSON_VALUES, max_size=9) | JSON_VALUES}
    )
    return dumps(draw(st.just(joint) | st.just(joint) | loose | JSON_VALUES | st.just(DEEP_MARK)))


VALID_SPACES = st.sampled_from(
    [
        {"kind": "nominal", "values": ["0", "1"]},
        {"kind": "nominal", "values": [0, 1, 2]},
        {"kind": "ordinal", "range": [0, 1]},
        {"kind": "binned-continuous", "bin_edges": [-1, 0.5, 2]},
    ]
)
LOOSE_SPACES = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["nominal", "ordinal", "binned-continuous", "qa-binary", "other"]) | JSON_VALUES,
        "values": st.lists(st.sampled_from(LABELS) | JSON_VALUES, max_size=4) | JSON_VALUES | st.just(DEEP_MARK),
        "range": st.lists(st.integers(-3, 3) | JSON_VALUES, max_size=3),
        "bin_edges": st.lists(st.floats() | JSON_VALUES, max_size=4),
    },
)
# each kind's list of labels or bin edges in a valid space
LISTS = {
    "nominal": ("values", ["0", "1"]),
    "ordinal": ("values", [0, 1]),
    "binned-continuous": ("bin_edges", [-1, 0.5, 2]),
}


def non_finite_space(kind, value, at):
    """A space of `kind` with `value` put in place `at` of its list."""
    key, items = LISTS[kind]
    return {"kind": kind, key: items[:at] + [value] + items[at:]}


# NaN and infinities are not JSON: a report that echoed such a space would not parse
NON_FINITE_SPACES = st.builds(
    non_finite_space, st.sampled_from(list(LISTS)), st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3)
)
LABEL_SPACES = VALID_SPACES | NON_FINITE_SPACES | LOOSE_SPACES | JSON_VALUES | st.just(DEEP_MARK)


def invoke(args):
    """(exit code, stdout, stderr) of `fusionpid` with `args`; a report written must be strict JSON
    and meet its schema."""
    result = CliRunner().invoke(main, args)
    check_report(args, result.exit_code, result.stdout)
    return result.exit_code, result.stdout, result.stderr


def assert_one_outcome(outcome):
    """Exit 0, or exactly one JSON error line on stderr and exit 1 or 2."""
    code, _, stderr = outcome
    if code == 0:
        return
    assert code in (1, 2), outcome
    [line] = stderr.splitlines()
    error = json.loads(line)
    assert set(error) == {"error", "message"} and all(isinstance(v, str) for v in error.values()), outcome


def check(args, files):
    """Run `args` on `files` (name -> text) written to a fresh directory, whose names
    in `args` stand for their paths; then again with a byte-order mark before each file."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in files}
        args = [paths.get(arg, arg) for arg in args]
        for name, text in files.items():
            Path(paths[name]).write_text(text, encoding="utf-8")
        plain = invoke(args)
        assert_one_outcome(plain)
        if any(text.startswith(BOM) for text in files.values()):
            return  # a second mark would be read as text
        for name, text in files.items():
            Path(paths[name]).write_text(BOM + text, encoding="utf-8")
        assert invoke(args) == plain


SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@SETTINGS
@given(st.sampled_from(list(COLUMNS)), st.sampled_from(["csv", "json"]), st.data())
def test_agreement_takes_any_annotation_file_or_refuses_it_in_one_line(schema, fmt, data):
    text = data.draw(csv_text(schema) if fmt == "csv" else json_text(schema))
    check(["agreement", "--input", "in", "--format", fmt, "--schema", schema], {"in": text})


@SETTINGS
@given(st.sampled_from(["partial", "counterfactual"]), st.sampled_from(["csv", "json"]), st.data())
def test_convert_takes_any_annotation_file_or_refuses_it_in_one_line(schema, fmt, data):
    text = data.draw(csv_text(schema) if fmt == "csv" else json_text(schema))
    args = ["convert", "--input", "in", "--format", fmt, "--schema", schema, "--label-space", LABEL_SPACE]
    check(args, {"in": text})


@SETTINGS
@given(joint_text())
def test_pid_takes_any_joint_file_or_refuses_it_in_one_line(text):
    check(["pid", "--input", "joint.json"], {"joint.json": text})


PARTIAL = "item_id,annotator_id,condition,label,confidence\n" + "".join(
    f"i{i},a{k},{cond},{label},3\n"
    for i, labels in enumerate(["000", "011", "101", "110"])
    for k, (cond, label) in enumerate(zip(["m1", "m2", "both"], labels))
)


@SETTINGS
@given(st.sampled_from(["convert", "agreement"]), st.booleans(), LABEL_SPACES)
def test_any_label_space_is_taken_or_refused_in_one_line(command, inline, config):
    text = dumps(config)
    if inline and text.startswith("{"):
        check([command, "--input", "in.csv", "--schema", "partial", "--label-space", text], {"in.csv": PARTIAL})
    else:
        files = {"in.csv": PARTIAL, "space.json": text}
        check([command, "--input", "in.csv", "--schema", "partial", "--label-space", "space.json"], files)
