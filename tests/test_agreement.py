import io
import json

import numpy as np
import pytest

from fusionpid.agreement import (
    AgreementError,
    CategoryError,
    Ratings,
    _categories,
    krippendorff_alpha,
    matrix_from_records,
    mean_confidence,
)
from fusionpid.dataset import CONDITIONS, PartialRecord, parse_partial


def matrix(rows, metric="nominal"):
    """Ratings of an item x annotator grid: units are its rows, one category per rating, None skipped."""
    cells = [(u, v) for u, row in enumerate(rows) for v in row if v is not None]
    unit = np.array([u for u, _ in cells], np.intp)
    return Ratings(len(rows), unit, np.arange(len(cells)), [v for _, v in cells], metric)


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
        matrix([["a"], ["b"]])


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


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_unanimous_study_reads_exactly_one(metric):
    # values whose squares and sums round: a unit that agrees must still add exactly 0
    rows = [[0.1, 0.1, 0.1], [1e200, 1e200], [-1.7e308, -1.7e308, -1.7e308, None], [7 / 3, 7 / 3], [-3, -3]]
    assert krippendorff_alpha(matrix(rows, metric)).alpha == 1.0


@pytest.mark.filterwarnings("error")
def test_interval_alpha_is_unchanged_by_scaling_the_labels():
    # interval alpha is unchanged by affine maps of the labels; squared at 1e200 they overflowed
    rows = [[0, 1], [5, 4, 5], [0, 0], [5, 5], [-2, 3, None], [1, 1]]
    want = krippendorff_alpha(matrix(rows, "interval")).alpha
    for scale in (1e200, -1e200, 1e-200):
        scaled = [[None if v is None else v * scale for v in row] for row in rows]
        assert krippendorff_alpha(matrix(scaled, "interval")).alpha == pytest.approx(want, abs=1e-12)
    huge = [[1.7e308, 1.7e308], [-1.7e308, 1.7e308], [-1.7e308, -1.7e308]]
    assert krippendorff_alpha(matrix(huge, "interval")).alpha == pytest.approx(4 / 9, abs=1e-12)


def test_digit_grouping_text_is_not_a_number():
    # float() reads "1_0" as 10: it is its own category, not one with "10"
    rows = [["1_0", "10"], ["10", "10"], ["1_0", "1_0"]]
    assert krippendorff_alpha(matrix(rows)).alpha == pytest.approx(4 / 9, abs=1e-12)  # one category: undefined
    assert krippendorff_alpha(matrix([["10", "10.0"], ["10", "10"], ["2", "2"]])).alpha == 1.0
    with pytest.raises(CategoryError):
        krippendorff_alpha(matrix(rows, "interval"))


def test_interval_metric_penalizes_distance():
    near = matrix([[0, 1], [5, 4], [0, 0], [5, 5]], "interval")
    far = matrix([[0, 5], [5, 0], [0, 0], [5, 5]], "interval")
    assert krippendorff_alpha(near).alpha > krippendorff_alpha(far).alpha


def test_ordinal_metric_runs_and_orders():
    m = matrix([[1, 2], [2, 2], [3, 3], [1, 1]], "ordinal")
    res = krippendorff_alpha(m)
    assert res.alpha is not None
    assert res.alpha <= 1.0


def partial_table(recs):
    """The table of `recs`, parsed from their JSON text (which keeps 1 and 1.0 apart)."""
    return parse_partial(io.StringIO(json.dumps([r._asdict() for r in recs])), "json")


def test_mean_confidence_values():
    recs = [
        PartialRecord("i1", "a", "m1", "x", 5),
        PartialRecord("i2", "a", "m1", "x", 5),
        PartialRecord("i3", "a", "m1", "x", 5),
    ]
    assert mean_confidence(partial_table(recs)["confidence"]) == 5
    recs = [PartialRecord("i1", "a", "m1", "x", 0), PartialRecord("i2", "a", "m1", "x", 5)]
    assert mean_confidence(partial_table(recs)["confidence"]) == 2.5


def test_mean_confidence_multimodal_above_unimodal():
    # both-modality confidences near ceiling vs middling unimodal ones
    recs = []
    for i, (cond, conf) in enumerate(
        [("m1", 3), ("m1", 3), ("m2", 2), ("m2", 2), ("both", 5), ("both", 4)]
    ):
        recs.append(PartialRecord(f"i{i}", "a", cond, "x", conf))
    table = partial_table(recs)

    def mean(cond):
        return mean_confidence(table["confidence"][table["condition"].codes == CONDITIONS.index(cond)])

    assert mean("both") > max(mean("m1"), mean("m2"))


@pytest.mark.parametrize("values, mean", [([-1, -1], "-1.0"), ([6, 7], "6.5")])
def test_mean_confidence_outside_the_rating_scale_is_error(values, mean):
    with pytest.raises(AgreementError, match=rf"^mean confidence {mean} outside \[0, 5\]$"):
        mean_confidence(values)


def test_mean_confidence_empty_is_error():
    with pytest.raises(AgreementError):
        mean_confidence([])


def test_matrix_from_records():
    recs = [
        PartialRecord("i1", "a", "m1", "yes", 4),
        PartialRecord("i1", "b", "m1", "yes", 4),
        PartialRecord("i2", "a", "m1", "no", 4),
        PartialRecord("i2", "b", "m1", "no", 4),
    ]
    table = partial_table(recs)
    m = matrix_from_records(table["item_id"].codes, table["label"])
    assert table["item_id"].levels == ["i1", "i2"]
    assert m.units == 2
    assert krippendorff_alpha(m).alpha == pytest.approx(1.0)


def test_matrix_from_records_takes_records_and_a_value_function():
    recs = [
        PartialRecord("i2", "a", "m1", 1, 4),
        PartialRecord("i1", "a", "m1", 0, 4),
        PartialRecord("i1", "b", "m1", 1, 4),
        PartialRecord("i2", "b", "m1", 1, 4),
        PartialRecord("i3", "a", "m1", 2, 4),
        PartialRecord("i3", "b", "m1", 2.0, 4),
    ]
    table = partial_table(recs)
    assert list(table) == recs
    columnar = krippendorff_alpha(matrix_from_records(table["item_id"].codes, table["label"]))
    by_record = krippendorff_alpha(matrix_from_records(table, lambda r: r.label))
    assert by_record == columnar
    assert (by_record.n_units, by_record.n_pairable) == (3, 3)
    assert krippendorff_alpha(matrix_from_records(recs[:4], lambda r: r.label)).n_units == 2


def loop_alpha(units, metric):
    """Krippendorff's alpha by the per-unit pair loop: every ordered pair of
    ratings within a unit of m ratings adds 1 / (m - 1) to the coincidence matrix."""
    pairable = [u for u in units if len(u) >= 2]
    cats = sorted({v for u in pairable for v in u})
    index = {v: i for i, v in enumerate(cats)}
    k = len(cats)
    o = np.zeros((k, k))
    for u in pairable:
        w = 1.0 / (len(u) - 1)
        for a in range(len(u)):
            for b in range(len(u)):
                if a != b:
                    o[index[u[a]], index[u[b]]] += w
    totals = o.sum(axis=1)
    n = totals.sum()
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if metric == "nominal":
                d[i, j] = float(i != j)
            elif metric == "interval":
                d[i, j] = (float(cats[i]) - float(cats[j])) ** 2
            else:
                lo, hi = min(i, j), max(i, j)
                d[i, j] = (totals[lo : hi + 1].sum() - (totals[i] + totals[j]) / 2.0) ** 2 if i != j else 0.0
    d_e = float((np.outer(totals, totals) * d).sum()) / (n * (n - 1))
    return 1.0 - float((o * d).sum()) / n / d_e


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_count_based_alpha_matches_pair_loop(metric):
    rng = np.random.default_rng(11)
    for _ in range(30):
        n_units = int(rng.integers(2, 40))
        size = int(rng.integers(2, 7))
        units = [list(rng.integers(0, size, rng.integers(2, 7)) * 2 - 3) for _ in range(n_units)]
        units[0] = [1, 3]  # never all identical
        rows = [u + [None] * (6 - len(u)) for u in units]
        m = matrix(rows, metric)
        assert krippendorff_alpha(m).alpha == pytest.approx(loop_alpha(units, metric), abs=1e-12)


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_count_based_alpha_matches_pair_loop_with_hundreds_of_categories(metric):
    rng = np.random.default_rng(12)
    units = [list(rng.integers(0, 400, rng.integers(2, 7))) for _ in range(300)]
    units[0] = list(rng.permutation(400)[:60])  # one unit with 60 distinct ratings
    ratings = Ratings(
        len(units),
        np.repeat(np.arange(len(units)), [len(u) for u in units]),
        np.concatenate(units),
        list(range(400)),
        metric,
    )
    assert len({v for u in units for v in u}) > 300
    assert krippendorff_alpha(ratings).alpha == pytest.approx(loop_alpha(units, metric), abs=1e-12)


def test_alpha_from_codes_counts_units_and_pairable():
    # unit 0: two ratings, unit 1: one rating, unit 2: none rated here
    r = Ratings(3, np.array([0, 0, 1]), np.array([0, 1, 1]), ["x", "y"])
    res = krippendorff_alpha(r)
    assert (res.n_units, res.n_pairable) == (3, 1)


@pytest.mark.parametrize(
    "unit, code",
    [
        ([0, 0, 3], [0, 1, 1]),  # a unit past `units`: alpha 0.0 with n_pairable 1
        ([0, 0, -1, 1], [0, 1, 1, 1]),  # a negative unit: a ValueError from np.bincount
        ([0, 0, 1, 1], [0, 1, -1, 0]),  # a negative code: read as categories[-1], alpha -0.5
        ([0, 0, 1, 1], [0, 1, 1]),  # fewer codes than units: an IndexError
        ([0, 0, 1, 1], [0, 1, 2, 1]),  # a code past the categories: an IndexError
        ([[0, 0, 1]], [[0, 1, 1]]),  # not 1-D
        ([0.0, 0.0, 1.0], [0, 1, 1]),  # not integers
        ([0, 0, 1], [0.0, 1.0, 1.0]),
    ],
)
def test_ratings_refuse_arrays_that_are_not_in_range_codes(unit, code):
    with pytest.raises(AgreementError):
        Ratings(2, np.array(unit), np.array(code), ["a", "b"])


def test_ratings_refuse_an_unknown_metric():
    with pytest.raises(AgreementError, match="metric must be one of"):
        Ratings(2, np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), ["a", "b"], "x")


def test_ratings_take_any_integer_dtype():
    want = krippendorff_alpha(Ratings(2, np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), ["a", "b"]))
    for dtype in (np.uint8, np.int32, np.uint64):
        r = Ratings(2, np.array([0, 0, 1, 1], dtype), np.array([0, 1, 1, 1], dtype), ["a", "b"])
        assert krippendorff_alpha(r) == want


def test_mixed_type_labels_cannot_be_ordered():
    m = matrix([[1, "x"], ["x", "x"], [1, 1]])
    with pytest.raises(CategoryError):
        krippendorff_alpha(m)
    with pytest.raises(CategoryError):
        krippendorff_alpha(matrix([["a", "b"], ["b", "b"]], "interval"))
    with pytest.raises(CategoryError):  # a bool is no number: True used to be measured as 1
        krippendorff_alpha(matrix([[True, 2.5], [2.5, 2.5]], "interval"))


# a value is a number as `label_space.number` reads it: ASCII whitespace around
# number text is allowed; "_", non-ASCII digits and non-ASCII spaces make it none
@pytest.mark.parametrize(
    "values, distinct",
    [
        ([" 1", "1", "0"], ["0", " 1"]),
        (["1", "1.0 ", "\t1\n"], ["1"]),
        (["\u0661", "1", "0"], ["0", "1", "\u0661"]),  # float() reads the Arabic-Indic one as 1
        (["\u00a01", "1", "0"], ["0", "1", "\u00a01"]),
        (["1_0", "10"], ["10", "1_0"]),
    ],
)
def test_categories_merge_by_number_only_values_that_are_numbers(values, distinct):
    assert _categories(values)[1] == distinct


def test_categories_never_merge_a_bool_with_a_number():
    # True == 1 == 1.0, but JSON true and 1 are two labels, as `parse_partial` keeps them
    codes, distinct, x = _categories([True, 1, 1.0])
    assert codes.tolist() == [1, 0, 0] and distinct == [1, True] and x is None
    assert _categories([np.False_, 0, False])[0].tolist() == [1, 0, 1]


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_equal_numbers_and_numeric_text_match_pair_loop(metric):
    rng = np.random.default_rng(13)
    units = [[int(v) * 5 for v in rng.integers(-3, 4, rng.integers(2, 5))] for _ in range(40)]
    units[0] = [5, 15]  # never all identical
    want = loop_alpha(units, metric)
    # JSON 5 and 5.0 are two labels of the table and one category of alpha
    rows = [
        {"item_id": f"i{u}", "annotator_id": f"a{k}", "condition": "m1", "label": float(v) if k % 2 else v, "confidence": 3}
        for u, unit in enumerate(units)
        for k, v in enumerate(unit)
    ]
    table = parse_partial(io.StringIO(json.dumps(rows)), "json")
    assert 5 in table["label"].levels and any(type(v) is float for v in table["label"].levels)
    got = krippendorff_alpha(matrix_from_records(table["item_id"].codes, table["label"], metric))
    assert got.alpha == pytest.approx(want, abs=1e-12)
    # numeric text orders by number: "-5" after "-10", "10" after "5"
    text = [[str(v) for v in u] + [None] * (4 - len(u)) for u in units]
    m = matrix(text, metric)
    assert krippendorff_alpha(m).alpha == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_numbers_and_numeric_text_order_together(metric):
    numbers = [[1, 2], [2, 2], [1, 1], [3, 1], [2, 3]]
    mixed = [[1, "2"], ["2", "2"], [1, 1], ["3", 1], ["2", "3"]]
    want = krippendorff_alpha(matrix(numbers, metric)).alpha
    assert krippendorff_alpha(matrix(mixed, metric)).alpha == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("metric", ["nominal", "ordinal", "interval"])
def test_number_and_its_text_are_one_category(metric):
    units = [[5, 5], [5, 5], [1, 3], [3, 3], [1, 5]]
    forms = [[5, "5"], ["5.0", 5.0], [1, "3"], ["3", 3], ["1", 5]]
    assert krippendorff_alpha(matrix(forms, metric)).alpha == pytest.approx(loop_alpha(units, metric), abs=1e-12)
    rng = np.random.default_rng(14)
    units = [[int(v) for v in rng.integers(-3, 4, rng.integers(2, 5))] for _ in range(40)]
    units[0] = [1, 3]  # never all identical
    # every label written at random as JSON 5, 5.0, "5" or "5.0"
    write = (int, float, str, lambda v: str(float(v)))
    rows = [
        {"item_id": f"i{u}", "annotator_id": f"a{k}", "condition": "m1", "label": write[rng.integers(4)](v), "confidence": 3}
        for u, unit in enumerate(units)
        for k, v in enumerate(unit)
    ]
    table = parse_partial(io.StringIO(json.dumps(rows)), "json")
    got = krippendorff_alpha(matrix_from_records(table["item_id"].codes, table["label"], metric))
    assert got.alpha == pytest.approx(loop_alpha(units, metric), abs=1e-12)
