import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import fusionpid
from fusionpid import pid
from fusionpid.cli import main
from fusionpid.info import TripleDataset, empirical_joint
from fusionpid.label_space import MAX_LABELS
from fusionpid.pid import InfeasibleError
from fusionpid.synth import GATES, GateSpec, canonical_joint, sample
from reports import VALIDATORS, check_report

LABEL_SPACE = '{"kind": "nominal", "values": ["0", "1"]}'


def draws(data):
    """The rows of a `sample`, one per draw: each drawn cell repeated by its count."""
    return np.repeat(data.samples, data.weights.astype(int), axis=0).tolist()


def write_partial_csv(path, data):
    """One item per draw, one annotator per condition."""
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i, (y1, y2, y) in enumerate(draws(data)):
        lines.append(f"i{i:05d},a1,m1,{y1},4")
        lines.append(f"i{i:05d},a2,m2,{y2},4")
        lines.append(f"i{i:05d},a3,both,{y},5")
    path.write_text("\n".join(lines) + "\n")


def partial_rows(data):
    """Partial-label rows of a `sample`, header first: one item per draw, one annotator per condition."""
    rows = [["item_id", "annotator_id", "condition", "label", "confidence"]]
    for i, row in enumerate(draws(data)):
        for k, (cond, y) in enumerate(zip(("m1", "m2", "both"), row)):
            rows.append([f"item-{i:05d}", f"ann-{k}", cond, str(y), "3"])
    return rows


def run(args):
    """`fusionpid` with `args`; a report written must be strict JSON and meet its schema."""
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    check_report(args, result.exit_code, result.stdout)
    return result


def test_convert_xor_partial_csv(tmp_path):
    data = sample(canonical_joint(GateSpec("XOR")), 5000, seed=1)
    src = tmp_path / "xor.csv"
    out = tmp_path / "report.json"
    write_partial_csv(src, data)
    result = run(
        [
            "convert",
            "--input", str(src),
            "--schema", "partial",
            "--label-space", LABEL_SPACE,
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert abs(report["pid"]["s"] - 1.0) <= 0.05
    assert report["pid"]["consistency"]["passed"]
    assert report["tool"]["name"] == "fusionpid"
    assert report["input"]["pairing"] == "rotation"


def test_convert_counterfactual_unique(tmp_path):
    # both orders always agree and equal y1: R/U1 dominate, S ~ 0
    lines = [
        "item_id,annotator_id,order,label_first,label_both,confidence_first,confidence_both"
    ]
    data = sample(canonical_joint(GateSpec("UNIQUE1")), 4000, seed=2)
    for i, (y1, y2, y) in enumerate(draws(data)):
        lines.append(f"i{i:05d},a1,first-m1,{y1},{y1},4,5")
        lines.append(f"i{i:05d},a2,first-m2,{y2},{y1},3,5")
    src = tmp_path / "cf.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    result = run(
        [
            "convert",
            "--input", str(src),
            "--schema", "counterfactual",
            "--label-space", LABEL_SPACE,
            "--out", str(out),
        ]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["pid"]["s"] <= 0.05
    assert max(report["pid"]["r"], report["pid"]["u1"]) >= report["pid"]["u2"]


def write_counterfactual_csv(path, data):
    """One item per draw: a first-m1 and a first-m2 annotator, both revising to y."""
    lines = ["item_id,annotator_id,order,label_first,label_both,confidence_first,confidence_both"]
    for i, (y1, y2, y) in enumerate(draws(data)):
        lines.append(f"i{i:05d},a1,first-m1,{y1},{y},4,5")
        lines.append(f"i{i:05d},a2,first-m2,{y2},{y},3,5")
    path.write_text("\n".join(lines) + "\n")


def test_convert_partial_pairing_defaults_to_rotation(tmp_path):
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR", noise=0.1)), 200, seed=4))
    args = ["convert", "--input", str(src), "--schema", "partial", "--label-space", LABEL_SPACE]
    default = run(args)
    assert default.exit_code == 0, default.output
    assert json.loads(default.output)["input"]["pairing"] == "rotation"
    assert run(args + ["--pairing", "rotation"]).output == default.output


def test_convert_counterfactual_report_names_all_pairs(tmp_path):
    src = tmp_path / "cf.csv"
    write_counterfactual_csv(src, sample(canonical_joint(GateSpec("AND", noise=0.1)), 200, seed=4))
    args = ["convert", "--input", str(src), "--schema", "counterfactual", "--label-space", LABEL_SPACE]
    default = run(args)
    assert default.exit_code == 0, default.output
    assert json.loads(default.output)["input"]["pairing"] == "all-pairs"
    assert run(args + ["--pairing", "all-pairs"]).output == default.output


def test_convert_counterfactual_rotation_is_one_config_error(tmp_path):
    src = tmp_path / "cf.csv"
    write_counterfactual_csv(src, sample(canonical_joint(GateSpec("AND")), 20, seed=4))
    result = run(
        [
            "convert",
            "--input", str(src),
            "--schema", "counterfactual",
            "--label-space", LABEL_SPACE,
            "--pairing", "rotation",
        ]
    )
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-config"


def test_convert_missing_input_exits_2(tmp_path):
    result = run(
        [
            "convert",
            "--input", str(tmp_path / "nope.csv"),
            "--schema", "partial",
            "--label-space", LABEL_SPACE,
        ]
    )
    assert result.exit_code == 2
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"] == "input-not-found"


@pytest.mark.parametrize("command", ["convert", "agreement"])
def test_empty_label_space_is_one_input_error(tmp_path, command):
    src = tmp_path / "partial.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    result = run([command, "--input", str(src), "--schema", "partial", "--label-space", ""])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "input-not-found"


def test_convert_never_writes_partial_output(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("item_id,annotator_id,condition,label,confidence\ni1,a1,m1,0,9\n")
    out = tmp_path / "report.json"
    result = run(
        [
            "convert",
            "--input", str(src),
            "--schema", "partial",
            "--label-space", LABEL_SPACE,
            "--out", str(out),
        ]
    )
    assert result.exit_code == 2
    assert not out.exists()


def test_convert_negative_smoothing_is_config_error(tmp_path):
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 50, seed=1))
    result = run(
        ["convert", "--input", str(src), "--schema", "partial", "--label-space", LABEL_SPACE, "--smoothing", "-1"]
    )
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert json.loads(result.output.strip().splitlines()[-1])["error"] == "invalid-config"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("smoothing, code", [("inf", "invalid-config"), ("1e308", "conversion-failed")])
def test_convert_smoothing_must_be_finite(tmp_path, smoothing, code):
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 50, seed=1))
    result = run(
        ["convert", "--input", str(src), "--schema", "partial", "--label-space", LABEL_SPACE, "--smoothing", smoothing]
    )
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert json.loads(line)["error"] == code


def test_convert_binned_continuous_report(tmp_path):
    data = sample(canonical_joint(GateSpec("XOR")), 2000, seed=4)
    scores = (-2.5, 1.25)  # label 0 and 1 as scores in the lower and upper bin
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i, row in enumerate(draws(data)):
        lines += [f"i{i:05d},a{k},{cond},{scores[y]},4" for k, (cond, y) in enumerate(zip(("m1", "m2", "both"), row))]
    src = tmp_path / "scores.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report.json"
    space = '{"kind": "binned-continuous", "bin_edges": [-3, 0, 3]}'
    result = run(["convert", "--input", str(src), "--schema", "partial", "--label-space", space, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["input"]["label_space"] == {
        "kind": "binned-continuous",
        "values": ["[-3,0]", "[0,3]"],
        "bin_edges": [-3.0, 0.0, 3.0],
    }
    assert abs(report["pid"]["s"] - 1.0) <= 0.05


# "\u0661" (Arabic-Indic one) and "\u00a00.5" (a no-break space before 0.5) used to be binned as 1 and 0.5
@pytest.mark.parametrize(
    "fmt, score",
    [("csv", "nan"), ("csv", "NaN"), ("csv", "-nan"), ("json", float("nan")), ("csv", "\u0661"), ("csv", "\u00a00.5")],
)
@pytest.mark.parametrize("command, code", [("convert", "conversion-failed"), ("agreement", "agreement-failed")])
def test_binned_nan_score_is_one_error_line(tmp_path, fmt, score, command, code):
    rows = [
        {"item_id": f"i{i}", "annotator_id": f"a{k}", "condition": cond, "label": label, "confidence": 4}
        for i in range(3)
        for k, (cond, label) in enumerate(zip(("m1", "m2", "both"), (score, 1.5, -2)))
    ]
    src = tmp_path / f"scores.{fmt}"
    if fmt == "csv":
        lines = ["item_id,annotator_id,condition,label,confidence"] + [",".join(map(str, r.values())) for r in rows]
        src.write_text("\n".join(lines) + "\n")
    else:
        src.write_text(json.dumps(rows))  # writes the bare JSON token NaN
    args = ["--input", str(src), "--format", fmt, "--schema", "partial"]
    result = run([command, *args, "--label-space", '{"kind": "binned-continuous"}'])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": code, "message": f"not a finite real value: {score!r}"}


@pytest.mark.parametrize("command, code", [("convert", "conversion-failed"), ("agreement", "agreement-failed")])
def test_binned_score_with_digit_grouping_is_one_error_line(tmp_path, command, code):
    # float() reads the text 0_1 as 1.0, which used to be binned into [-1,1]
    scores = list(zip(("m1", "m2", "both"), ("0_1", "1.5", "-2")))
    lines = ["item_id,annotator_id,condition,label,confidence"]
    lines += [f"i{i},a{k},{cond},{y},4" for i in range(3) for k, (cond, y) in enumerate(scores)]
    src = tmp_path / "scores.csv"
    src.write_text("\n".join(lines) + "\n")
    args = ["--input", str(src), "--schema", "partial", "--label-space", '{"kind": "binned-continuous"}']
    result = run([command, *args])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": code, "message": "not a finite real value: '0_1'"}


@pytest.mark.parametrize("command, code", [("convert", "conversion-failed"), ("agreement", "agreement-failed")])
def test_json_bool_label_is_one_error_line(tmp_path, command, code):
    # true == 1 in Python: it used to be read as label 1 of the 0..1 range
    rows = [
        {"item_id": f"i{i}", "annotator_id": f"a{k}", "condition": cond, "label": label, "confidence": 4}
        for i in range(3)
        for k, (cond, label) in enumerate(zip(("m1", "m2", "both"), (True, 0, 1)))
    ]
    src = tmp_path / "rows.json"
    src.write_text(json.dumps(rows))
    args = ["--input", str(src), "--format", "json", "--schema", "partial"]
    result = run([command, *args, "--label-space", '{"kind": "ordinal", "range": [0, 1]}'])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": code, "message": "unknown label True for ordinal space"}


@pytest.mark.parametrize("label", [1, 1.0, 0])
@pytest.mark.parametrize("command, code", [("convert", "conversion-failed"), ("agreement", "agreement-failed")])
def test_json_number_label_on_a_bool_space_is_one_error_line(tmp_path, command, code, label):
    # 1 == True in Python: a JSON 1 used to be read as label true of [false, true]
    rows = [
        {"item_id": f"i{i}", "annotator_id": f"a{k}", "condition": cond, "label": label, "confidence": 4}
        for i in range(3)
        for k, cond in enumerate(("m1", "m2", "both"))
    ]
    src = tmp_path / "rows.json"
    src.write_text(json.dumps(rows))
    args = ["--input", str(src), "--format", "json", "--schema", "partial"]
    result = run([command, *args, "--label-space", '{"kind": "nominal", "values": [false, true]}'])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": code, "message": f"unknown label {label!r} for nominal space"}


def test_convert_label_space_file_matches_inline(tmp_path):
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 200, seed=2))
    space = tmp_path / "space.json"
    space.write_text(LABEL_SPACE)
    args = ["convert", "--input", str(src), "--schema", "partial", "--label-space"]
    inline, from_file = run(args + [LABEL_SPACE]), run(args + [str(space)])
    assert inline.exit_code == from_file.exit_code == 0, inline.output + from_file.output
    assert from_file.output == inline.output


def test_convert_json_non_object_row_is_invalid_records(tmp_path):
    row = {"item_id": "i1", "annotator_id": "a1", "condition": "m1", "label": "0", "confidence": 4}
    src = tmp_path / "rows.json"
    src.write_text(json.dumps([row, 5]))
    result = run(
        ["convert", "--input", str(src), "--format", "json", "--schema", "partial", "--label-space", LABEL_SPACE]
    )
    assert result.exit_code == 2
    assert json.loads(result.output.strip().splitlines()[-1])["error"] == "invalid-records"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args, code",
    [
        (["convert", "--input", "."], "input-unreadable"),
        (["convert", "--input", "latin1.csv"], "input-unreadable"),
        (["convert", "--input", "header.csv"], "invalid-records"),
        (["convert", "--input", "empty.json", "--format", "json"], "invalid-records"),
        (["agreement", "--input", "header.csv"], "invalid-records"),
        (["agreement", "--input", "empty.json", "--format", "json"], "invalid-records"),
        (["pid", "--input", "."], "input-unreadable"),
        (["convert", "--input", "xor.csv", "--label-space", "."], "input-unreadable"),
        (["agreement", "--input", "xor.csv", "--out", "."], "output-unwritable"),
        (["synth", "--gate", "XOR", "--count", "10", "--out", "."], "output-unwritable"),
    ],
)
def test_bad_input_or_output_file_is_one_json_line(tmp_path, monkeypatch, args, code):
    monkeypatch.chdir(tmp_path)  # "." is a directory
    write_partial_csv(tmp_path / "xor.csv", sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    header = b"item_id,annotator_id,condition,label,confidence\n"
    (tmp_path / "latin1.csv").write_bytes(header + "i1,a1,m1,é,4\n".encode("latin-1"))
    (tmp_path / "header.csv").write_bytes(header)
    (tmp_path / "empty.json").write_text("[]")
    if args[0] in ("convert", "agreement"):  # a later --label-space wins
        args = [args[0], "--schema", "partial", "--label-space", LABEL_SPACE, *args[1:]]
    result = run(args)
    assert result.exit_code == 2, result.output
    [line] = result.stderr.splitlines()
    assert json.loads(line)["error"] == code


def test_convert_report_same_for_lf_crlf_and_quoted_csv(tmp_path, monkeypatch):
    rows = partial_rows(sample(canonical_joint(GateSpec("AND")), 300, seed=5))
    reports = []
    for name, options in [
        ("lf", {"lineterminator": "\n"}),
        ("crlf", {}),
        ("quoted", {"quoting": csv.QUOTE_ALL}),
        ("cr", {"lineterminator": "\r"}),  # read by csv.reader, not the byte coder
    ]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the report echoes the input path
        with open("in.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, **options).writerows(rows)
        result = run(["convert", "--input", "in.csv", "--schema", "partial", "--label-space", LABEL_SPACE])
        assert result.exit_code == 0, result.output
        reports.append(result.output)
    assert reports[0] == reports[1] == reports[2] == reports[3]


@pytest.mark.parametrize("command", ["convert", "agreement"])
def test_quoted_crlf_in_a_label_of_a_crlf_file_is_kept(tmp_path, monkeypatch, command):
    # csv.writer quotes the label "x\r\ny"; a file read with universal newlines would see "x\ny"
    rows = partial_rows(sample(canonical_joint(GateSpec("AND")), 300, seed=5))
    relabel = {"0": "z", "1": "x\r\ny"}
    relabelled = rows[:1] + [[*row[:3], relabel[row[3]], row[4]] for row in rows[1:]]
    relabelled_space = json.dumps({"kind": "nominal", "values": ["z", "x\r\ny"]})
    reports = []
    for name, table, space in [("plain", rows, LABEL_SPACE), ("relabelled", relabelled, relabelled_space)]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the report echoes the input path
        with open("in.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table)
        result = run([command, "--input", "in.csv", "--schema", "partial", "--label-space", space])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["input"].pop("label_space") == json.loads(space)
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("fmt", ["csv", "quoted-csv", "json"])
def test_annotation_file_with_a_byte_order_mark_gives_the_report_without_it(tmp_path, monkeypatch, fmt):
    # unquoted CSV is coded from its bytes; quoted CSV falls back to csv.reader from the file's start
    rows = partial_rows(sample(canonical_joint(GateSpec("AND")), 300, seed=5))
    name = "in.json" if fmt == "json" else "in.csv"
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):
        (tmp_path / encoding).mkdir()
        monkeypatch.chdir(tmp_path / encoding)  # the report echoes the input path
        with open(name, "w", newline="", encoding=encoding) as fh:
            if fmt == "json":
                json.dump([dict(zip(rows[0], row)) for row in rows[1:]], fh)
            else:
                csv.writer(fh, quoting=csv.QUOTE_ALL if fmt == "quoted-csv" else csv.QUOTE_MINIMAL).writerows(rows)
        args = ["--input", name, "--format", fmt.removeprefix("quoted-"), "--schema", "partial"]
        for command in (["convert", "--label-space", LABEL_SPACE], ["agreement"]):
            result = run(command + args)
            assert result.exit_code == 0, result.output
            outputs.append(result.output)
    assert outputs[:2] == outputs[2:]


def test_joint_and_label_space_files_with_a_byte_order_mark_are_read(tmp_path):
    joint = json.dumps(canonical_joint(GateSpec("AND")).to_json())
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 200, seed=2))
    outputs = {}
    for encoding in ("utf-8", "utf-8-sig"):
        (tmp_path / f"joint-{encoding}.json").write_text(joint, encoding=encoding)
        (tmp_path / f"space-{encoding}.json").write_text(LABEL_SPACE, encoding=encoding)
        pid_args = ["pid", "--input", str(tmp_path / f"joint-{encoding}.json")]
        convert_args = ["convert", "--input", str(src), "--schema", "partial"]
        for args in (pid_args, convert_args + ["--label-space", str(tmp_path / f"space-{encoding}.json")]):
            result = run(args)
            assert result.exit_code == 0, result.output
            outputs[args[0], encoding] = result.output
    assert outputs["pid", "utf-8"] == outputs["pid", "utf-8-sig"]
    assert outputs["convert", "utf-8"] == outputs["convert", "utf-8-sig"]


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # nested past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "args, code",
    [
        (["pid", "--input", "deep.json"], "invalid-distribution"),
        (["convert", "--input", "deep.json", "--format", "json", "--label-space", LABEL_SPACE], "invalid-records"),
        (["agreement", "--input", "deep.json", "--format", "json"], "invalid-records"),
        (["agreement", "--input", "xor.csv", "--label-space", "deep.json"], "invalid-label-space"),
        (["agreement", "--input", "xor.csv", "--label-space", '{"values": ' + DEEP_JSON + "}"], "invalid-label-space"),
    ],
)
def test_json_nested_too_deep_is_one_error_line(tmp_path, monkeypatch, args, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    write_partial_csv(tmp_path / "xor.csv", sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    if args[0] != "pid":
        args = [*args, "--schema", "partial"]
    result = run(args)
    assert result.exit_code == 2, result.output
    [line] = result.output.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == code and "recursion" in error["message"]


def test_csv_field_over_size_limit_is_one_json_line(tmp_path):
    src = tmp_path / "big.csv"
    src.write_text("item_id,annotator_id,condition,label,confidence\ni1,a1,m1," + "x" * 200_000 + ",4\n")
    result = run(["agreement", "--input", str(src), "--schema", "partial"])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    message = "malformed CSV: field larger than field limit (131072)"
    assert json.loads(line) == {"error": "invalid-records", "message": message}


def test_agreement_unanimous(tmp_path):
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i in range(4):
        for ann in ("a1", "a2"):
            for cond in ("m1", "m2", "both"):
                lines.append(f"i{i},{ann},{cond},{i % 2},4")
    src = tmp_path / "partial.csv"
    src.write_text("\n".join(lines) + "\n")
    result = run(["agreement", "--input", str(src), "--schema", "partial"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert all(report["agreement"][c]["alpha"] == 1.0 for c in ("m1", "m2", "both"))


def test_agreement_hand_worked_example(tmp_path):
    a1 = ["a", "a", "b", "b"]
    a2 = ["a", "a", "b", "a"]
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i in range(4):
        for cond in ("m1", "m2", "both"):
            lines.append(f"i{i},r1,{cond},{a1[i]},3")
            lines.append(f"i{i},r2,{cond},{a2[i]},3")
    src = tmp_path / "partial.csv"
    src.write_text("\n".join(lines) + "\n")
    result = run(["agreement", "--input", str(src), "--schema", "partial"])
    report = json.loads(result.output)
    assert report["agreement"]["m1"]["alpha"] == pytest.approx(16 / 30, abs=1e-4)


def test_agreement_single_annotator_undefined(tmp_path):
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i in range(3):
        for cond in ("m1", "m2", "both"):
            lines.append(f"i{i},solo,{cond},1,4")
    src = tmp_path / "partial.csv"
    src.write_text("\n".join(lines) + "\n")
    result = run(["agreement", "--input", str(src), "--schema", "partial"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["agreement"]["m1"]["alpha"] == "undefined"
    assert "message" in report["agreement"]["m1"]


def test_agreement_decomposition_metric_default(tmp_path):
    lines = ["item_id,annotator_id,r,u1,u2,s,conf_r,conf_u1,conf_u2,conf_s"]
    for i in range(4):
        lines.append(f"i{i},a1,0,0,0,5,4,4,4,5")
        lines.append(f"i{i},a2,0,0,0,5,4,4,4,5")
    src = tmp_path / "decomp.csv"
    src.write_text("\n".join(lines) + "\n")
    result = run(["agreement", "--input", str(src), "--schema", "decomposition"])
    report = json.loads(result.output)
    assert report["input"]["metric"] == "interval"
    assert report["confidence"]["s"] == 5.0


def test_agreement_counts_only_items_rated_in_the_measure(tmp_path):
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i in range(5):
        for cond in ("m1", "m2", "both") if i < 4 else ("m1", "both"):
            lines += [f"i{i},a1,{cond},{i % 2},4", f"i{i},a2,{cond},{i % 3 % 2},4"]
    src = tmp_path / "partial.csv"
    src.write_text("\n".join(lines) + "\n")
    result = run(["agreement", "--input", str(src), "--schema", "partial"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["agreement"]["m1"]["n_units"] == 5
    assert report["agreement"]["m2"]["n_units"] == 4
    assert report["agreement"]["m2"]["n_pairable"] == 4


@pytest.mark.parametrize("labels, metric", [((1, "x"), "nominal"), (("yes", "no"), "interval")])
def test_agreement_labels_the_metric_cannot_compare_fail_cleanly(tmp_path, labels, metric):
    rows = [
        {"item_id": f"i{i}", "annotator_id": ann, "condition": "m1", "label": labels[(i + k) % 2], "confidence": 3}
        for i in range(3)
        for k, ann in enumerate(("a", "b"))
    ]
    src = tmp_path / "rows.json"
    src.write_text(json.dumps(rows))
    result = run(["agreement", "--input", str(src), "--format", "json", "--schema", "partial", "--metric", metric])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert json.loads(result.output.strip().splitlines()[-1])["error"] == "agreement-failed"


def test_agreement_counts_a_json_true_and_a_1_as_two_labels(tmp_path):
    # merged, true and 1 agreed everywhere and alpha was undefined; apart, one item of three disagrees
    units = [(True, 1), (True, True), (1, 1)]
    rows = [
        {"item_id": f"i{i}", "annotator_id": f"a{k}", "condition": "m1", "label": y, "confidence": 3}
        for i, labels in enumerate(units)
        for k, y in enumerate(labels)
    ]
    src = tmp_path / "rows.json"
    src.write_text(json.dumps(rows))
    result = run(["agreement", "--input", str(src), "--format", "json", "--schema", "partial"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["agreement"]["m1"]["alpha"] == pytest.approx(4 / 9, abs=1e-12)


def test_agreement_orders_numeric_text_labels_by_number(tmp_path):
    # 7-point labels as CSV text; sorted as text, "-1" would come before "-3"
    first = [-3, -2, -1, 0, 1, 2, 3, -1]
    second = [-3, -2, 0, 0, 1, 2, 3, -1]  # the annotators differ only on -1 vs 0
    lines = ["item_id,annotator_id,order,label_first,label_both,confidence_first,confidence_both"]
    for i, labels in enumerate(zip(first, second)):
        for ann, y in zip(("a1", "a2"), labels):
            lines += [f"i{i},{ann},{order},{y},{y},3,3" for order in ("first-m1", "first-m2")]
    src = tmp_path / "cf.csv"
    src.write_text("\n".join(lines) + "\n")
    args = ["agreement", "--input", str(src), "--schema", "counterfactual", "--metric", "ordinal"]
    plain = run(args)
    spaced = run(args + ["--label-space", '{"kind": "ordinal", "range": [-3, 3]}'])
    assert plain.exit_code == spaced.exit_code == 0, plain.output + spaced.output
    assert json.loads(plain.output)["agreement"] == json.loads(spaced.output)["agreement"]


@pytest.mark.filterwarnings("error")
def test_agreement_interval_alpha_of_labels_near_the_float_limit_is_finite(tmp_path):
    # squared, 1e200 overflows: alpha used to be NaN, which is not JSON, after two RuntimeWarnings
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i, labels in enumerate([("1e200", "1e200"), ("-1e200", "1e200"), ("-1e200", "-1e200")]):
        lines += [f"i{i},a{k},m1,{y},3" for k, y in enumerate(labels)]
    src = tmp_path / "partial.csv"
    src.write_text("\n".join(lines) + "\n")
    result = run(["agreement", "--input", str(src), "--schema", "partial", "--metric", "interval"])
    assert result.exit_code == 0 and result.stderr == "", result.output
    assert json.loads(result.stdout)["agreement"]["m1"]["alpha"] == pytest.approx(4 / 9, abs=1e-12)


def test_agreement_report_echoes_the_label_space_its_alphas_used(tmp_path):
    lines = ["item_id,annotator_id,condition,label,confidence"]
    for i, labels in (("i1", (0.2, 0.9)), ("i2", (-2.5, -1.5)), ("i3", (2.0, 2.9))):
        lines += [f"{i},a{k},m1,{y},3" for k, y in enumerate(labels, 1)]
    src = tmp_path / "partial.csv"
    src.write_text("\n".join(lines) + "\n")
    args = ["agreement", "--input", str(src), "--schema", "partial", "--metric", "interval"]
    plain, binned = run(args), run(args + ["--label-space", '{"kind": "binned-continuous"}'])
    assert plain.exit_code == binned.exit_code == 0, plain.output + binned.output
    plain, binned = json.loads(plain.output), json.loads(binned.output)
    # three bins of the default range [-3, 3] put each item's two raw scores in one bin
    assert plain["agreement"]["m1"]["alpha"] == pytest.approx(0.909, abs=1e-3)
    assert binned["agreement"]["m1"]["alpha"] == 1.0
    assert "label_space" not in plain["input"]
    assert binned["input"]["label_space"] == {
        "kind": "binned-continuous",
        "values": ["[-3,-1]", "[-1,1]", "[1,3]"],
        "bin_edges": [-3.0, -1.0, 1.0, 3.0],
    }


@pytest.mark.parametrize("command", ["convert", "agreement"])
def test_report_schema_refuses_a_mean_confidence_above_5(tmp_path, command):
    src = tmp_path / "partial.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    result = run([command, "--input", str(src), "--schema", "partial", "--label-space", LABEL_SPACE])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    report["confidence"]["m1"] = 7.0
    with pytest.raises(jsonschema.ValidationError, match="maximum of 5"):
        VALIDATORS[command].validate(report)


# runs one CLI call in a fresh interpreter and prints whether it loaded jsonschema
LOADS_JSONSCHEMA = """
import json, sys
from fusionpid import cli
args = json.loads(sys.argv[1])
if args is not None:
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit:
        pass
print("jsonschema" in sys.modules)
"""


def test_no_command_loads_jsonschema(tmp_path):
    # pytest's own process has jsonschema loaded, so each call runs in a subprocess
    src = Path(fusionpid.__file__).resolve().parents[1]
    joint = tmp_path / "and.json"
    joint.write_text(json.dumps(canonical_joint(GateSpec("AND")).to_json()))
    partial = tmp_path / "partial.csv"
    write_partial_csv(partial, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    convert = ["convert", "--schema", "partial", "--label-space", LABEL_SPACE, "--out", str(tmp_path / "r.json")]
    cases = [
        None,
        ["--version"],
        ["pid", "--input", str(joint)],
        ["synth", "--gate", "XOR", "--count", "10", "--out", str(tmp_path / "s.csv")],
        convert + ["--input", str(tmp_path / "missing.csv")],
        convert + ["--input", str(partial)],
        ["agreement", "--input", str(partial), "--schema", "partial", "--out", str(tmp_path / "a.json")],
    ]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for args in cases:
        done = subprocess.run(
            [sys.executable, "-c", LOADS_JSONSCHEMA, json.dumps(args)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert done.stdout.strip().splitlines()[-1] == "False", (args, done.stdout, done.stderr)
    assert (tmp_path / "r.json").exists() and (tmp_path / "a.json").exists()


def test_malformed_json_input_is_invalid_records(tmp_path):
    src = tmp_path / "rows.json"
    src.write_text('[{"item_id": ')
    result = run(["agreement", "--input", str(src), "--format", "json", "--schema", "partial"])
    assert result.exit_code == 2
    assert json.loads(result.output.strip().splitlines()[-1])["error"] == "invalid-records"


# an integer literal over Python's 4300-digit limit: json refuses it with a plain ValueError
BIG = "9" * 5000


@pytest.mark.parametrize(
    "args, files, code",
    [
        (["pid", "--input", "joint.json"], {"joint.json": f'{{"size": 1, "mass": [{BIG}]}}'}, "invalid-distribution"),
        (
            ["agreement", "--input", "rows.json", "--format", "json", "--schema", "partial"],
            {"rows.json": f'[{{"item_id": "i1", "annotator_id": "a1", "condition": "m1", "label": "0", "confidence": {BIG}}}]'},
            "invalid-records",
        ),
        (
            ["convert", "--input", "in.csv", "--schema", "partial", "--label-space", "space.json"],
            {"in.csv": "item_id,annotator_id,condition,label,confidence\n", "space.json": f'{{"kind": "ordinal", "range": [0, {BIG}]}}'},
            "invalid-label-space",
        ),
        (
            ["convert", "--input", "in.csv", "--schema", "partial", "--label-space", f'{{"kind": "ordinal", "range": [0, {BIG}]}}'],
            {"in.csv": "item_id,annotator_id,condition,label,confidence\n"},
            "invalid-label-space",
        ),
    ],
    ids=["pid-mass", "agreement-json-confidence", "label-space-file", "label-space-inline"],
)
def test_integer_over_the_digit_limit_is_one_error_line(tmp_path, monkeypatch, args, files, code):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    result = run(args)
    assert result.exit_code == 2, result.output
    [line] = result.stderr.splitlines()
    assert json.loads(line)["error"] == code


def test_pid_command_and_joint(tmp_path):
    p = canonical_joint(GateSpec("AND"))
    src = tmp_path / "and.json"
    src.write_text(json.dumps(p.to_json()))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["r"] == pytest.approx(0.3113, abs=1e-3)
    assert report["s"] == pytest.approx(0.5, abs=1e-3)


def test_pid_command_copy_joint(tmp_path):
    p = canonical_joint(GateSpec("COPY"))
    src = tmp_path / "copy.json"
    src.write_text(json.dumps(p.to_json()))
    report = json.loads(run(["pid", "--input", str(src)]).output)
    assert report["r"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "mass, message",
    [([0.9] + [0.0] * 7, "total mass 0.9 != 1"), ([0.125] * 7, "mass array has 7 entries, expected 8")],
)
def test_pid_command_rejects_bad_mass(tmp_path, mass, message):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"size": 2, "mass": mass}))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "invalid-distribution", "message": message}


@pytest.mark.parametrize(
    "text, message",
    [
        ("null", "a joint must be a JSON object with 'size' and 'mass'"),
        ('"x"', "a joint must be a JSON object with 'size' and 'mass'"),
        ("[0.125]", "a joint must be a JSON object with 'size' and 'mass'"),
        ('{"size": 3}', "a joint must be a JSON object with 'size' and 'mass'"),
        ('{"size": 2, "mass": null}', "mass must be an array of numbers"),
        ('{"size": 1, "mass": 1.0}', "mass must be an array of numbers"),
    ],
)
def test_pid_command_names_a_joint_of_the_wrong_shape(tmp_path, text, message):
    # these used to report Python's own errors, such as "'NoneType' object is not subscriptable"
    src = tmp_path / "joint.json"
    src.write_text(text)
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "invalid-distribution", "message": message}


def test_pid_command_rejects_size_over_max_labels_before_solving(tmp_path, monkeypatch):
    def no_solve(_):
        raise AssertionError("solved a joint of a size no label space has")

    monkeypatch.setattr("fusionpid.cli.pid_from_joint", no_solve)
    n = MAX_LABELS + 1
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"size": n, "mass": [1.0 / n**3] * n**3}))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "invalid-distribution",
        "message": f"size must be an integer in [1, {MAX_LABELS}], got {n}",
    }


def test_pid_command_denormal_joint_certified(tmp_path):
    # 5e-324 cells are zero support to the solver, so the joint certifies
    # and the report carries no NaN (which is not JSON)
    mass = [5e-324] * 125
    mass[1], mass[12], mass[0] = 0.8, 0.2, 0.0  # cells (0,0,1), (0,2,2), (0,0,0)
    src = tmp_path / "denormal.json"
    src.write_text(json.dumps({"size": 5, "mass": mass}))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 0, result.output
    assert "NaN" not in result.output
    report = json.loads(result.output)
    assert report["converged"] and report["consistency"]["passed"], report


def test_pid_command_rejects_nan_mass(tmp_path):
    src = tmp_path / "nan.json"
    src.write_text(json.dumps({"size": 2, "mass": [float("nan")] * 8}))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"] == "invalid-distribution"


@pytest.mark.parametrize("entry, message", [(True, "got True"), ("0.125", "got '0.125'")])
def test_pid_command_mass_entries_must_be_json_numbers(tmp_path, monkeypatch, entry, message):
    def no_solve(_):
        raise AssertionError("solved a mass that is not all numbers")

    monkeypatch.setattr("fusionpid.cli.pid_from_joint", no_solve)
    src = tmp_path / "mass.json"
    src.write_text(json.dumps({"size": 2, "mass": [entry] + [0.125] * 7}))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "invalid-distribution", "message": f"mass entries must be numbers, {message}"}


def test_pid_command_integer_mass_beyond_float_is_one_error(tmp_path):
    src = tmp_path / "huge.json"
    src.write_text('{"size": 1, "mass": [1' + "0" * 400 + "]}")
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-distribution"


def solver_args(tmp_path, command):
    """`convert` on sampled XOR annotations or `pid` on the AND joint."""
    if command == "convert":
        src = tmp_path / "xor.csv"
        write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 500, seed=1))
        return ["convert", "--input", str(src), "--schema", "partial", "--label-space", LABEL_SPACE]
    src = tmp_path / "and.json"
    src.write_text(json.dumps(canonical_joint(GateSpec("AND")).to_json()))
    return ["pid", "--input", str(src)]


@pytest.mark.parametrize("command", ["convert", "pid"])
def test_solver_failure_is_one_line_json_error(tmp_path, monkeypatch, command):
    def failing_solve(c):
        raise InfeasibleError("solver left the feasible set (residual 1.0)")

    monkeypatch.setattr("fusionpid.pid.solve_qstar", failing_solve)
    result = run(solver_args(tmp_path, command))
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"] == "solver-failed"
    assert "residual" in err["message"]


@pytest.mark.parametrize(
    "joint",
    [{"size": 1, "mass": [1.0]}, {"size": 2, "mass": [0.125] * 8}],
    ids=["point", "uniform"],
)
def test_pid_command_certifies_a_joint_with_no_task_information(tmp_path, joint):
    src = tmp_path / "joint.json"
    src.write_text(json.dumps(joint))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert report["iterations"] > 0 and report["converged"] and report["consistency"]["passed"], report
    assert [report[k] for k in ("r", "u1", "u2", "s", "total")] == pytest.approx([0.0] * 5, abs=1e-9)


def nan_cell(q):
    q[0] = np.nan
    return q


def scaled_cell(q):
    q[0] *= 1 + 1e-5
    return q


def spoil_recover(monkeypatch, spoil):
    """Make `_DualBarrier.recover` return spoil(q) for the q it recovers."""
    recover = pid._DualBarrier.recover
    monkeypatch.setattr(pid._DualBarrier, "recover", lambda self, *args: spoil(recover(self, *args)))


def assert_one_solver_failed_line(result, message):
    assert result.exit_code == 1
    assert result.stdout == ""
    [line] = result.stderr.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "solver-failed" and err["message"].startswith(message), err


@pytest.mark.parametrize(
    "spoil, message",
    [(nan_cell, "solver broke down numerically"), (scaled_cell, "solver left the feasible set (residual 2.47")],
)
def test_solver_failure_inside_the_solve_is_one_line_json_error(tmp_path, monkeypatch, spoil, message):
    # the raise sites of `solve_qstar` itself, reached through the command
    spoil_recover(monkeypatch, spoil)
    src = tmp_path / "and.json"
    src.write_text(json.dumps(canonical_joint(GateSpec("AND", noise=0.1)).to_json()))
    assert_one_solver_failed_line(run(["pid", "--input", str(src)]), message)


@pytest.mark.filterwarnings("error")
def test_solve_whose_line_searches_all_fail_is_one_line_json_error(tmp_path, monkeypatch):
    # no numpy warning ahead of the error line
    monkeypatch.setattr(pid._DualBarrier, "line_search", lambda self, *args: None)
    src = tmp_path / "and.json"
    src.write_text(json.dumps(canonical_joint(GateSpec("AND", noise=0.1)).to_json()))
    assert_one_solver_failed_line(run(["pid", "--input", str(src)]), "solver broke down numerically")


def partial_convert_args(tmp_path):
    src = tmp_path / "and.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("AND", noise=0.1)), 200, seed=5))
    return ["convert", "--input", str(src), "--schema", "partial", "--label-space", LABEL_SPACE]


def test_convert_reports_a_residual_within_the_tolerance_it_prints(tmp_path):
    result = run(partial_convert_args(tmp_path))
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["pid"]["feasibility_residual"] <= report["config"]["solver"]["tol_feasibility"], report


def test_convert_refuses_a_qstar_off_its_marginals_by_more_than_the_printed_tolerance(tmp_path, monkeypatch):
    # 1e-8 on one cell leaves q* between 1e-9 and 1e-8 off its marginals
    def added_to_one_cell(q):
        q[0] += 1e-8
        return q

    spoil_recover(monkeypatch, added_to_one_cell)
    assert_one_solver_failed_line(run(partial_convert_args(tmp_path)), "solver left the feasible set")


def test_synth_csv_output(tmp_path):
    out = tmp_path / "xor.csv"
    result = run(["synth", "--gate", "XOR", "--count", "100", "--seed", "1", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y1,y2,y,weight"
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert 1 <= len(rows) <= 4  # one row per drawn cell of XOR's four
    assert all(y == y1 ^ y2 for y1, y2, y, _ in rows)
    assert sum(w for *_, w in rows) == 100


def read_weighted_csv(path, space):
    """The `synth` CSV at `path` as a TripleDataset, each row weighted by its weight column."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    samples = np.array([[int(v) for v in row[:3]] for row in rows], np.uint8)
    return TripleDataset(space, samples, np.array([float(row[3]) for row in rows]))


@pytest.mark.parametrize(
    "gate, noise, count, seed",
    dict.fromkeys(
        [("XOR", 0.0, 100, 1), ("AND", 0.1, 2000, 3), ("COPY", 0.3, 1, 0)]
        + list(product(GATES, [0.0, 0.1], [1, 100, 2000, 2**63 - 1], [3]))
    ),
)
def test_synth_csv_equals_per_row_format_of_sample(tmp_path, gate, noise, count, seed):
    args = ["synth", "--gate", gate, "--noise", str(noise), "--count", str(count), "--seed", str(seed)]
    out = tmp_path / "synth.csv"
    result = run(args + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    data = sample(canonical_joint(GateSpec(gate, noise=noise)), count, seed)
    lines = ["y1,y2,y,weight"]
    lines += [f"{a},{b},{c},{int(w)}" for (a, b, c), w in zip(data.samples.tolist(), data.weights.tolist())]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert run(args).output == out.read_text()  # stdout carries the same text
    # read back with its weights, the file is the same sample to the bit
    assert np.array_equal(empirical_joint(read_weighted_csv(out, data.space)).mass, empirical_joint(data).mass)


@pytest.mark.parametrize("count", ["0", "-1", "9223372036854775808", "100000000000000000000"])
def test_synth_count_a_multinomial_cannot_take_is_one_config_error(count):
    result = run(["synth", "--gate", "XOR", "--count", count])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "invalid-config", "message": f"count must lie in [1, 2^63 - 1], got {count}"}


@pytest.mark.parametrize("count", [2**53 + 1, 2**63 - 1])
def test_synth_weights_sum_exactly_to_the_count(count):
    result = run(["synth", "--gate", "XOR", "--count", str(count)])
    assert result.exit_code == 0, result.output
    assert sum(int(line.split(",")[3]) for line in result.output.splitlines()[1:]) == count


def test_synth_deterministic():
    args = ["synth", "--gate", "AND", "--count", "50", "--seed", "9"]
    assert run(args).output == run(args).output


@pytest.mark.parametrize("command", ["convert", "pid"])
def test_unconverged_solve_writes_report_and_exits_1(tmp_path, monkeypatch, command):
    solve = pid.solve_qstar

    def unconverged(c):
        q, diag = solve(c)
        return q, {**diag, "converged": False}

    monkeypatch.setattr("fusionpid.pid.solve_qstar", unconverged)
    out = tmp_path / "report.json"
    result = run(solver_args(tmp_path, command) + ["--out", str(out)])
    assert result.exit_code == 1, result.output
    report = json.loads(out.read_text())
    assert (report["pid"] if command == "convert" else report)["converged"] is False


@pytest.mark.parametrize("command", ["convert", "agreement"])
@pytest.mark.parametrize(
    "config",
    [
        '{"kind": "ordinal", "range": [1]}',
        '{"kind": "ordinal", "range": 5}',
        '{"kind": "ordinal", "range": ["a", "b"]}',
        '{"kind": "binned-continuous", "bin_edges": ["x", 1, 2]}',
        '{"kind": "binned-continuous", "bin_edges": [0, NaN, 2]}',
        '{"kind": "nominal", "values": [[1], [2]]}',
        '{"kind": "ordinal", "range": [1.5, 3]}',
        '{"kind": "ordinal", "range": [true, 3]}',
        '{"kind": "ordinal", "range": [1, 3.9]}',
        '{"kind": "qa-binary"}',  # an unknown kind: {"kind": "nominal", "values": ["SAME", "DIFFERENT"]} replaces it
    ],
)
def test_malformed_label_space_is_one_config_error(tmp_path, command, config):
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    result = run([command, "--input", str(src), "--schema", "partial", "--label-space", config])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-label-space"


@pytest.mark.parametrize("command", ["convert", "agreement"])
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"kind": "binned-continuous", "bin_edges": [0, 1, math.inf]}, "bin edges must be finite numbers, got [0, 1, inf]"),
        ({"kind": "binned-continuous", "bin_edges": [-math.inf, 0, 1]}, "bin edges must be finite numbers, got [-inf, 0, 1]"),
        ({"kind": "nominal", "values": [math.nan, "0", "1"]}, "label values must be finite, got [nan, '0', '1']"),
        ({"kind": "ordinal", "values": [math.inf, "0", "1"]}, "label values must be finite, got [inf, '0', '1']"),
        # float() reads "1_0" as 10 and "\u0661" as 1, and True == 1: each was read as an edge
        ({"kind": "binned-continuous", "bin_edges": ["0", "1_0", "20"]}, "bin edges must be finite numbers, got ['0', '1_0', '20']"),
        ({"kind": "binned-continuous", "bin_edges": [False, True, 2]}, "bin edges must be finite numbers, got [False, True, 2]"),
        ({"kind": "binned-continuous", "bin_edges": ["0", "\u0661", "2"]}, "bin edges must be finite numbers, got ['0', '\u0661', '2']"),
    ],
)
def test_non_finite_label_space_is_one_config_error(tmp_path, command, inline, config, message):
    # the report echoes its label space, and NaN and infinities are not JSON
    config = json.dumps(config)  # writes them as NaN, Infinity and -Infinity, which json.loads reads
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    if not inline:
        (tmp_path / "space.json").write_text(config)
        config = str(tmp_path / "space.json")
    result = run([command, "--input", str(src), "--schema", "partial", "--label-space", config])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "invalid-label-space", "message": message}


@pytest.mark.parametrize("command", ["convert", "agreement"])
def test_oversized_label_space_is_one_config_error(tmp_path, command):
    src = tmp_path / "xor.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    config = '{"kind": "ordinal", "range": [0, 1000000000]}'  # refused from its two ends, no labels built
    result = run([command, "--input", str(src), "--schema", "partial", "--label-space", config])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "invalid-label-space" and "1000000001 labels" in error["message"]


@pytest.mark.parametrize(
    "args",
    [
        ["convert", "--input", "x.csv", "--schema", "partial", "--label-space", LABEL_SPACE, "--bogus"],
        ["convert", "--schema", "partial", "--label-space", LABEL_SPACE],
        ["convert", "--input", "x.csv", "--schema", "partial", "--label-space", LABEL_SPACE, "--smoothing", "abc"],
        ["agreement", "--input", "x.csv", "--schema", "partial", "--bogus"],
        ["agreement", "--input", "x.csv"],
        ["agreement", "--input", "x.csv", "--schema", "partial", "--format", "xml"],
        # decomposition ratings are never encoded: a label space cannot apply to them
        ["agreement", "--input", "x.csv", "--schema", "decomposition", "--label-space", LABEL_SPACE],
        ["pid", "--input", "x.json", "--bogus"],
        ["pid"],
        ["pid", "--input"],
        ["synth", "--gate", "XOR", "--count", "10", "--bogus"],
        ["synth", "--count", "10"],
        ["synth", "--gate", "XOR", "--count", "abc"],
        ["no-such-command"],
        ["oracle-check", "--trials", "1"],  # the grid oracle is a test reference (tests/oracle.py), not a command
        ["--bogus"],
    ],
)
def test_usage_error_is_one_config_error(args):
    result = run(args)
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-config"


def test_no_command_prints_the_help_text_and_exits_2():
    result = run([])
    assert result.exit_code == 2
    assert "Usage:" in result.output and "Commands:" in result.output
    assert not any(line.startswith("{") for line in result.output.splitlines())


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["convert", "--help"], ["synth", "--help"]])
def test_help_and_version_still_print_text(args):
    result = run(args)
    assert result.exit_code == 0
    assert result.output and not result.output.startswith("{")


def test_shipped_schemas_are_valid_schemas():
    schemas = sorted(p.name for p in resources.files("fusionpid").joinpath("schemas").iterdir())
    assert schemas == ["agreement_report.json", "run_report.json"]
    for name in schemas:
        schema = json.loads(resources.files("fusionpid").joinpath(f"schemas/{name}").read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)
