import csv
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from fusionpid import cli, pid
from fusionpid.cli import main
from fusionpid.label_space import MAX_LABELS
from fusionpid.pid import InfeasibleError
from fusionpid.synth import GateSpec, canonical_joint, sample

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


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


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
    schema = resources.files("fusionpid").joinpath("schemas/run_report.json").read_text()
    jsonschema.validate(report, json.loads(schema))
    assert report["input"]["label_space"] == {
        "kind": "binned-continuous",
        "values": ["[-3,0]", "[0,3]"],
        "bin_edges": [-3.0, 0.0, 3.0],
    }
    assert abs(report["pid"]["s"] - 1.0) <= 0.05


@pytest.mark.parametrize("fmt, score", [("csv", "nan"), ("csv", "NaN"), ("csv", "-nan"), ("json", float("nan"))])
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
    data = sample(canonical_joint(GateSpec("AND")), 300, seed=5)
    rows = [["item_id", "annotator_id", "condition", "label", "confidence"]]
    for i, row in enumerate(draws(data)):
        for k, (cond, y) in enumerate(zip(("m1", "m2", "both"), row)):
            rows.append([f"item-{i:05d}", f"ann-{k}", cond, str(y), "3"])
    reports = []
    for name, options in [("lf", {"lineterminator": "\n"}), ("crlf", {}), ("quoted", {"quoting": csv.QUOTE_ALL})]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the report echoes the input path
        with open("in.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, **options).writerows(rows)
        result = run(["convert", "--input", "in.csv", "--schema", "partial", "--label-space", LABEL_SPACE])
        assert result.exit_code == 0, result.output
        reports.append(result.output)
    assert reports[0] == reports[1] == reports[2]


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


def test_agreement_report_is_validated_before_writing(tmp_path, monkeypatch):
    src = tmp_path / "partial.csv"
    write_partial_csv(src, sample(canonical_joint(GateSpec("XOR")), 20, seed=1))
    out = tmp_path / "report.json"
    args = ["agreement", "--input", str(src), "--schema", "partial", "--out", str(out)]
    assert run(args).exit_code == 0
    monkeypatch.setattr("fusionpid.cli._agreement_summary", lambda *a, **k: ({}, {"m1": 7.0}))
    out.unlink()
    with pytest.raises(jsonschema.ValidationError):
        run(args)
    assert not out.exists()


def test_malformed_json_input_is_invalid_records(tmp_path):
    src = tmp_path / "rows.json"
    src.write_text('[{"item_id": ')
    result = run(["agreement", "--input", str(src), "--format", "json", "--schema", "partial"])
    assert result.exit_code == 2
    assert json.loads(result.output.strip().splitlines()[-1])["error"] == "invalid-records"


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


def test_pid_command_rejects_bad_mass(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"size": 2, "mass": [0.9] + [0.0] * 7}))
    result = run(["pid", "--input", str(src)])
    assert result.exit_code == 2
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"] == "invalid-distribution"


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


def test_oracle_check_small():
    result = run(["oracle-check", "--trials", "5", "--seed", "0", "--resolution", "400"])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output)
    assert summary["passed"]
    assert summary["max_component_discrepancy"] <= 2e-3


def test_oracle_check_deterministic():
    args = ["oracle-check", "--trials", "3", "--seed", "7", "--resolution", "300"]
    assert run(args).output == run(args).output


def test_oracle_check_grid_over_cap_is_one_intractable_line():
    result = run(["oracle-check", "--trials", "1", "--resolution", "20000"])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "oracle-intractable"


def test_oracle_check_zero_trials_usage_error():
    result = run(["oracle-check", "--trials", "0"])
    assert result.exit_code == 2


def test_synth_csv_output(tmp_path):
    out = tmp_path / "xor.csv"
    result = run(["synth", "--gate", "XOR", "--count", "100", "--seed", "1", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y1,y2,y,weight"
    assert len(lines) == 101
    y1, y2, y, w = lines[1].split(",")
    assert int(y) == int(y1) ^ int(y2)


@pytest.mark.parametrize("gate, noise, count, seed", [("XOR", 0.0, 100, 1), ("AND", 0.1, 2000, 3), ("COPY", 0.3, 1, 0)])
def test_synth_csv_equals_per_row_format_of_sample(tmp_path, gate, noise, count, seed):
    args = ["synth", "--gate", gate, "--noise", str(noise), "--count", str(count), "--seed", str(seed)]
    out = tmp_path / "synth.csv"
    result = run(args + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    data = sample(canonical_joint(GateSpec(gate, noise=noise)), count, seed)
    lines = ["y1,y2,y,weight"]
    lines += [f"{a},{b},{c},1" for a, b, c in draws(data)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert run(args).output == out.read_text()  # stdout carries the same text


def test_synth_csv_written_in_pieces_equals_per_row_format_of_sample(tmp_path, monkeypatch):
    # pieces of 7 lines: cells of fewer, exactly 7 and many more draws
    monkeypatch.setattr(cli, "SYNTH_CHUNK_LINES", 7)
    for count in (7, 20, 1000):
        args = ["synth", "--gate", "AND", "--noise", "0.1", "--count", str(count), "--seed", "4"]
        out = tmp_path / "synth.csv"
        assert run(args + ["--out", str(out)]).exit_code == 0
        data = sample(canonical_joint(GateSpec("AND", noise=0.1)), count, 4)
        lines = ["y1,y2,y,weight"] + [f"{a},{b},{c},1" for a, b, c in draws(data)]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert run(args).output == out.read_text()


@pytest.mark.parametrize("count", ["0", "-1", "9223372036854775808", "100000000000000000000"])
def test_synth_count_a_multinomial_cannot_take_is_one_config_error(count):
    result = run(["synth", "--gate", "XOR", "--count", count])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "invalid-config", "message": f"count must lie in [1, 2^63 - 1], got {count}"}


def test_synth_count_whose_csv_passes_the_largest_file_offset_is_one_config_error():
    # `sample` takes the largest int64 count; its 8-byte lines would need 2^66 bytes, past 2^63 - 1
    count = str(2**63 - 1)
    result = run(["synth", "--gate", "XOR", "--count", count])
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    message = f"count {count} gives a CSV past the largest file offset, 2^63 - 1 bytes"
    assert json.loads(line) == {"error": "invalid-config", "message": message}


def test_synth_deterministic():
    args = ["synth", "--gate", "AND", "--count", "50", "--seed", "9"]
    assert run(args).output == run(args).output


def test_oracle_check_solver_failure_is_one_line_json_error(monkeypatch):
    def failing_pid(p):
        raise InfeasibleError("solver broke down numerically")

    monkeypatch.setattr("fusionpid.cli.pid_from_joint", failing_pid)
    result = run(["oracle-check", "--trials", "2", "--resolution", "50"])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    [line] = result.output.strip().splitlines()
    assert json.loads(line) == {"error": "solver-failed", "message": "solver broke down numerically"}


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
    "option",
    [["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance", "-1e-3"], ["--resolution", "1"], ["--seed", "-1"]],
)
def test_oracle_check_bad_option_is_one_config_error(option):
    result = run(["oracle-check", "--trials", "1", "--resolution", "50"] + option)
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-config"


@pytest.mark.parametrize(
    "args",
    [
        ["convert", "--input", "x.csv", "--schema", "partial", "--label-space", LABEL_SPACE, "--bogus"],
        ["convert", "--schema", "partial", "--label-space", LABEL_SPACE],
        ["convert", "--input", "x.csv", "--schema", "partial", "--label-space", LABEL_SPACE, "--smoothing", "abc"],
        ["agreement", "--input", "x.csv", "--schema", "partial", "--bogus"],
        ["agreement", "--input", "x.csv"],
        ["agreement", "--input", "x.csv", "--schema", "partial", "--format", "xml"],
        ["pid", "--input", "x.json", "--bogus"],
        ["pid"],
        ["pid", "--input"],
        ["oracle-check", "--trials", "2", "--sizes", "3"],
        ["oracle-check", "--seed", "1"],
        ["oracle-check", "--trials", "two"],
        ["synth", "--gate", "XOR", "--count", "10", "--bogus"],
        ["synth", "--count", "10"],
        ["synth", "--gate", "XOR", "--count", "abc"],
        ["no-such-command"],
        ["--bogus"],
    ],
)
def test_usage_error_is_one_config_error(args):
    result = run(args)
    assert result.exit_code == 2
    [line] = result.output.strip().splitlines()
    assert json.loads(line)["error"] == "invalid-config"


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
