import pytest

from fusionpid.agreement import (
    AgreementError,
    RatingsMatrix,
    krippendorff_alpha,
    matrix_from_records,
    mean_confidence,
)
from fusionpid.dataset import PartialRecord


def matrix(rows, metric="nominal"):
    n_ann = len(rows[0])
    return RatingsMatrix(
        items=[f"i{k}" for k in range(len(rows))],
        annotators=[f"a{k}" for k in range(n_ann)],
        values=[list(r) for r in rows],
        metric=metric,
    )


def test_perfect_agreement_alpha_one():
    m = matrix([["a", "a"], ["b", "b"], ["a", "a"], ["b", "b"]])
    assert krippendorff_alpha(m).alpha == pytest.approx(1.0)


def test_hand_worked_nominal_example():
    # annotator1 = [a, a, b, b], annotator2 = [a, a, b, a]
    # coincidence matrix gives D_o = 2/8, D_e = 30/56 -> alpha = 16/30
    m = matrix([["a", "a"], ["a", "a"], ["b", "b"], ["b", "a"]])
    assert krippendorff_alpha(m).alpha == pytest.approx(16 / 30, abs=1e-12)


def test_perfect_disagreement_negative():
    m = matrix([[0, 1], [1, 0], [0, 1], [1, 0]])
    assert krippendorff_alpha(m).alpha < 0


def test_all_constant_undefined():
    m = matrix([["x", "x"], ["x", "x"]])
    res = krippendorff_alpha(m)
    assert res.alpha is None
    assert res.to_json()["alpha"] == "undefined"


def test_units_with_single_rating_excluded():
    m = matrix([["a", "a"], ["b", None], [None, "b"], ["b", "b"]])
    res = krippendorff_alpha(m)
    assert res.n_units == 4
    assert res.n_pairable == 2
    assert res.alpha == pytest.approx(1.0)


def test_no_pairable_unit_is_error():
    with pytest.raises(AgreementError):
        RatingsMatrix(
            items=["i0", "i1"], annotators=["a0"], values=[["a"], ["b"]], metric="nominal"
        )


def test_nominal_alpha_relabeling_invariant():
    rows = [["a", "b"], ["b", "b"], ["a", "a"], ["c", "a"], ["c", "c"]]
    swapped = [[{"a": "z", "b": "q", "c": "m"}[v] for v in r] for r in rows]
    assert krippendorff_alpha(matrix(rows)).alpha == pytest.approx(
        krippendorff_alpha(matrix(swapped)).alpha
    )


def test_alpha_deterministic_and_unanimous_units():
    rows = [[1, 1, 1], [2, 2, 2], [3, 3, None], [1, 1, 1]]
    for metric in ("nominal", "ordinal", "interval"):
        m = matrix(rows, metric)
        first = krippendorff_alpha(m).alpha
        assert first == pytest.approx(1.0)
        assert krippendorff_alpha(m).alpha == first


def test_interval_metric_penalizes_distance():
    near = matrix([[0, 1], [5, 4], [0, 0], [5, 5]], "interval")
    far = matrix([[0, 5], [5, 0], [0, 0], [5, 5]], "interval")
    assert krippendorff_alpha(near).alpha > krippendorff_alpha(far).alpha


def test_ordinal_metric_runs_and_orders():
    m = matrix([[1, 2], [2, 2], [3, 3], [1, 1]], "ordinal")
    res = krippendorff_alpha(m)
    assert res.alpha is not None
    assert res.alpha <= 1.0


def test_mean_confidence_values():
    recs = [
        PartialRecord("i1", "a", "m1", "x", 5),
        PartialRecord("i2", "a", "m1", "x", 5),
        PartialRecord("i3", "a", "m1", "x", 5),
    ]
    assert mean_confidence(recs, "confidence") == 5
    recs = [PartialRecord("i1", "a", "m1", "x", 0), PartialRecord("i2", "a", "m1", "x", 5)]
    assert mean_confidence(recs, "confidence") == 2.5


def test_mean_confidence_multimodal_above_unimodal():
    # both-modality confidences near ceiling vs middling unimodal ones
    recs = []
    for i, (cond, conf) in enumerate(
        [("m1", 3), ("m1", 3), ("m2", 2), ("m2", 2), ("both", 5), ("both", 4)]
    ):
        recs.append(PartialRecord(f"i{i}", "a", cond, "x", conf))
    both = mean_confidence([r for r in recs if r.condition == "both"], "confidence")
    m1 = mean_confidence([r for r in recs if r.condition == "m1"], "confidence")
    m2 = mean_confidence([r for r in recs if r.condition == "m2"], "confidence")
    assert both > max(m1, m2)


def test_mean_confidence_empty_is_error():
    with pytest.raises(AgreementError):
        mean_confidence([], "confidence")


def test_matrix_from_records():
    recs = [
        PartialRecord("i1", "a", "m1", "yes", 4),
        PartialRecord("i1", "b", "m1", "yes", 4),
        PartialRecord("i2", "a", "m1", "no", 4),
        PartialRecord("i2", "b", "m1", "no", 4),
    ]
    m = matrix_from_records(recs, lambda r: r.label)
    assert m.items == ["i1", "i2"]
    assert krippendorff_alpha(m).alpha == pytest.approx(1.0)
