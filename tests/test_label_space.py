import math

import numpy as np
import pytest

from fusionpid.label_space import (
    MAX_LABELS,
    LabelSpace,
    LabelSpaceError,
    build_label_space,
    encode,
    number,
)


def test_ordinal_range_builds_seven_values():
    space = build_label_space({"kind": "ordinal", "range": [-3, 3]})
    assert space.size == 7
    assert space.values == (-3, -2, -1, 0, 1, 2, 3)


def test_nominal_two_class():
    space = build_label_space({"kind": "nominal", "values": ["not-sarcastic", "sarcastic"]})
    assert space.size == 2


def test_binned_continuous_bin_count():
    space = build_label_space({"kind": "binned-continuous", "bin_edges": [-3, -1, 1, 3]})
    assert space.size == 3


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "nominal", "values": ["a", "a"]},
        {"kind": "binned-continuous", "bin_edges": [0, 2, 1]},
        {"kind": "nominal", "values": ["only"]},
        {"kind": "ordinal", "range": [2, 2]},
        # values that share a CSV text: "1" used to encode as index 1 and JSON 1 as index 0
        {"kind": "nominal", "values": [1, "1"]},
        {"kind": "nominal", "values": [True, "True"]},
        {"kind": "ordinal", "values": [0.5, "0.5", 2]},
    ],
)
def test_invalid_configs_rejected(config):
    with pytest.raises(LabelSpaceError):
        build_label_space(config)


def test_label_count_is_bounded_before_labels_are_built():
    assert build_label_space({"kind": "ordinal", "range": [1, MAX_LABELS]}).size == MAX_LABELS
    assert LabelSpace("nominal", tuple(range(MAX_LABELS))).size == MAX_LABELS
    with pytest.raises(LabelSpaceError, match="1000000001 labels"):
        build_label_space({"kind": "ordinal", "range": [0, 10**9]})  # would be a billion-entry tuple
    too_many = [
        {"kind": "ordinal", "range": [0, MAX_LABELS]},
        {"kind": "nominal", "values": [str(i) for i in range(MAX_LABELS + 1)]},
        {"kind": "ordinal", "values": list(range(MAX_LABELS + 1))},
        {"kind": "binned-continuous", "bin_edges": list(range(MAX_LABELS + 2))},
    ]
    for config in too_many:
        with pytest.raises(LabelSpaceError, match=f"more than the {MAX_LABELS} supported"):
            build_label_space(config)


def test_encode_ordinal_endpoints():
    space = build_label_space({"kind": "ordinal", "range": [-3, 3]})
    assert encode(space, 3) == 6
    assert encode(space, -3) == 0
    assert encode(space, "2") == 5  # CSV string form


def test_encode_binned_middle_and_boundaries():
    space = build_label_space({"kind": "binned-continuous", "bin_edges": [-3, -1, 1, 3]})
    assert encode(space, 0.0) == 1
    # boundary values land in the lower bin; extremes clamp to end bins
    assert encode(space, -1.0) == 0
    assert encode(space, 1.0) == 1
    assert encode(space, -3.0) == 0
    assert encode(space, 3.0) == 2


def test_encode_unknown_and_out_of_range():
    nom = build_label_space({"kind": "nominal", "values": ["no", "yes"]})
    with pytest.raises(LabelSpaceError):
        encode(nom, "maybe")
    binned = build_label_space({"kind": "binned-continuous", "bin_edges": [-3, -1, 1, 3]})
    with pytest.raises(LabelSpaceError):
        encode(binned, 3.5)


@pytest.mark.parametrize(
    "raw", ["nan", "NaN", "-nan", float("nan"), "inf", float("-inf"), 10**400, "1e999", "0_1", "2_5", "\u0661", "\u00a00.5"]
)
def test_binned_encode_refuses_a_value_that_is_not_a_finite_real(raw):
    # NaN compares false with every edge: it used to land in bin 0; float() reads the text 0_1 as 1.0,
    # the Arabic-Indic digit one as 1 and a no-break space around a number as a space
    space = build_label_space({"kind": "binned-continuous", "bin_edges": [-3, -1, 1, 3]})
    with pytest.raises(LabelSpaceError, match="not a .*real value"):
        encode(space, raw)


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "ordinal", "range": [0, 1]},
        {"kind": "binned-continuous", "bin_edges": [-3, 0, 3]},
        {"kind": "nominal", "values": [0, 1]},
    ],
)
@pytest.mark.parametrize("raw", [True, False])
def test_encode_refuses_a_bool_that_is_no_label_of_the_space(config, raw):
    # True == 1 == 1.0: a JSON true used to be read as label 1, or as a value in a bin
    with pytest.raises(LabelSpaceError, match=f"unknown label {raw}"):
        encode(build_label_space(config), raw)


def test_encode_maps_a_bool_to_the_same_bool_only():
    space = build_label_space({"kind": "nominal", "values": ["x", True, False]})
    assert [encode(space, v) for v in ("x", True, False)] == [0, 1, 2]
    with pytest.raises(LabelSpaceError):
        encode(build_label_space({"kind": "nominal", "values": ["True", "False"]}), True)


@pytest.mark.parametrize("raw", [1, 1.0, 0, 0.0])
def test_encode_refuses_a_number_on_a_bool_space(raw):
    # 1 == True: (False, True).index(1) used to read the number as label True
    with pytest.raises(LabelSpaceError, match=f"unknown label {raw}"):
        encode(build_label_space({"kind": "nominal", "values": [False, True]}), raw)


def test_encode_keeps_bools_and_numbers_of_one_space_apart():
    space = build_label_space({"kind": "nominal", "values": [False, 1]})
    assert [encode(space, v) for v in (False, 1, 1.0, "False", "1")] == [0, 1, 1, 0, 1]  # and their CSV text
    with pytest.raises(LabelSpaceError, match="unknown label 0"):
        encode(space, 0)


@pytest.mark.parametrize(
    "raw, want",
    [
        (2, 2.0),
        (-2.5, -2.5),
        (np.int64(-3), -3.0),
        (np.float32(0.5), 0.5),
        ("-3", -3.0),
        (" 1 ", 1.0),
        ("\t2.5\n", 2.5),
        ("1e3", 1000.0),
        (True, None),
        (False, None),
        (np.True_, None),
        ("1_0", None),
        ("\u0661", None),  # Arabic-Indic one
        ("\u00a01", None),  # a no-break space before 1
        ("nan", None),
        (math.nan, None),
        ("-inf", None),
        ("1e400", None),
        (10**400, None),
        ("0x10", None),
        ("", None),
        ("x", None),
        (None, None),
        ([1], None),
    ],
)
def test_number_reads_finite_numbers_and_their_ascii_text(raw, want):
    assert number(raw) == want


def test_encode_gives_the_index_of_each_value():
    for config in (
        {"kind": "nominal", "values": ["a", "b", "c"]},
        {"kind": "ordinal", "range": [-2, 2]},
    ):
        space = build_label_space(config)
        for value in space.values:
            assert space.values[encode(space, value)] == value


def test_binned_encode_monotone():
    space = build_label_space({"kind": "binned-continuous", "bin_edges": [-3, -1, 1, 3]})
    xs = np.sort(np.random.default_rng(0).uniform(-3, 3, size=200))
    idx = [encode(space, x) for x in xs]
    assert all(a <= b for a, b in zip(idx, idx[1:]))


@pytest.mark.parametrize(
    "kind, values, bin_edges, message",
    [
        ("other", ("a", "b"), None, "unknown label-space kind"),
        ("binned-continuous", ("a", "b"), (0.0, 1.0), "at least 3 bin edges"),
        ("binned-continuous", ("a", "b", "c"), (0.0, 1.0, 2.0), "bin count must be edge count minus one"),
        ("nominal", ("a", "b"), (0.0, 1.0, 2.0), "bin_edges only valid for binned-continuous"),
        # NaN and infinities are not JSON: a report echoing the space would not parse
        ("binned-continuous", ("a", "b"), (0.0, 1.0, float("inf")), "bin edges must be finite"),
        ("binned-continuous", ("a", "b"), (float("-inf"), 0.5, 1.0), "bin edges must be finite"),
        ("nominal", (float("nan"), "0", "1"), None, "label values must be finite"),
        ("ordinal", (float("inf"), "0", "1"), None, "label values must be finite"),
        ("nominal", (0.5, "0.5"), None, "^duplicate label values$"),  # one CSV text
    ],
)
def test_label_space_built_directly_checks_its_kind_and_bins(kind, values, bin_edges, message):
    with pytest.raises(LabelSpaceError, match=message):
        LabelSpace(kind=kind, values=values, bin_edges=bin_edges)
