import io
import json

import numpy as np
import pytest

from fusionpid.dataset import (
    CounterfactualRecord,
    PartialRecord,
    SchemaError,
    TripleDataset,
    parse_counterfactual,
    parse_decomposition,
    parse_partial,
    serialize_records,
    summarize_decomposition,
    triples_from_counterfactual,
    triples_from_partial,
)
from fusionpid.label_space import build_label_space

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
    recs = parse_partial(partial_csv(["i1,a1,m1,yes,4"]))
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
    recs = parse_partial(io.StringIO(json.dumps(rows)), "json")
    assert recs[0].label == "no"


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
    rec = parse_counterfactual(io.StringIO(json.dumps([row])), "json")[0]
    assert (rec.item_id, rec.annotator_id, rec.label_first, rec.label_both) == ("7", "3", -2, 1.5)


def test_parse_counterfactual_bad_order():
    with pytest.raises(SchemaError):
        parse_counterfactual(io.StringIO(CF_HEADER + "i1,a1,first-m3,yes,yes,4,4"))


def test_parse_counterfactual_empty_warns():
    with pytest.warns(UserWarning):
        recs = parse_counterfactual(io.StringIO(CF_HEADER))
    assert recs == []


def test_parse_decomposition_values():
    recs = parse_decomposition(io.StringIO(DECOMP_HEADER + "i1,a1,0,0,0,5,4,4,4,4"))
    assert recs[0].s == 5


def test_parse_decomposition_negative_rating():
    with pytest.raises(SchemaError):
        parse_decomposition(io.StringIO(DECOMP_HEADER + "i1,a1,-1,0,0,5,4,4,4,4"))


def test_parse_decomposition_duplicate():
    rows = "i1,a1,0,0,0,5,4,4,4,4\ni1,a1,1,0,0,4,4,4,4,4"
    with pytest.raises(SchemaError):
        parse_decomposition(io.StringIO(DECOMP_HEADER + rows))


def test_records_roundtrip_csv_and_json():
    recs = parse_partial(partial_csv(["i1,a1,m1,yes,4", "i1,a2,m2,no,3", "i1,a3,both,yes,5"]))
    for fmt in ("csv", "json"):
        text = serialize_records(recs, fmt)
        again = parse_partial(io.StringIO(text), fmt)
        assert again == recs


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
    assert data.total_weight == pytest.approx(2.0)


def test_rotation_total_weight_three_per_item():
    recs = parse_partial(partial_csv(three_annotator_item() + three_annotator_item("i2")))
    data = triples_from_partial(recs, NOMINAL, pairing="rotation")
    assert data.total_weight == pytest.approx(3 * 2)


def test_triple_dataset_validation():
    with pytest.raises(SchemaError):
        TripleDataset(NOMINAL, [(0, 1, 0)], [1.0, 1.0])  # one weight per sample
    with pytest.raises(SchemaError):
        TripleDataset(NOMINAL, [(0, 1, 0)], [[1.0]])  # weights not one-dimensional
    with pytest.raises(SchemaError):
        TripleDataset(NOMINAL, [(0, 1)], [1.0])  # not a triple
    with pytest.raises(SchemaError):
        TripleDataset(NOMINAL, [(0.0, 1.0, 0.0)], [1.0])  # not integer indices
    with pytest.raises(SchemaError):
        TripleDataset(NOMINAL, [(0, 2, 0)], [1.0])  # index out of range
    for w in (0.0, -1.0, np.nan):
        with pytest.raises(SchemaError):
            TripleDataset(NOMINAL, [(0, 1, 0), (1, 1, 1)], [1.0, w])


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
    data = triples_from_partial(records, NOMINAL, pairing=pairing)
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
                recs = [CounterfactualRecord("i", "a", "first-m1", 0, i12, 3, 3),
                        CounterfactualRecord("i", "b", "first-m2", 0, i21, 3, 3)]
                lo, hi = (i12 + i21) // 2, (i12 + i21 + 1) // 2
                want = hi if abs(hi - mid) >= abs(lo - mid) else lo
                assert triples_from_counterfactual(recs, space).samples[0, 2] == want


def cf_csv(rows):
    return io.StringIO(CF_HEADER + "\n".join(rows))


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
    assert data.total_weight == pytest.approx(1.0)


def test_counterfactual_missing_order_is_error():
    recs = parse_counterfactual(cf_csv(["i1,a,first-m1,yes,yes,4,4"]))
    with pytest.raises(SchemaError):
        triples_from_counterfactual(recs, NOMINAL)


def test_summarize_single_record():
    recs = parse_decomposition(io.StringIO(DECOMP_HEADER + "i1,a1,1,2,3,4,5,5,5,5"))
    summary = summarize_decomposition(recs)
    assert summary["ratings"] == {"r": 1, "u1": 2, "u2": 3, "s": 4}


def test_summarize_midpoint():
    rows = "i1,a1,0,0,0,0,0,0,0,0\ni2,a1,5,5,5,5,5,5,5,5"
    summary = summarize_decomposition(parse_decomposition(io.StringIO(DECOMP_HEADER + rows)))
    assert all(v == 2.5 for v in summary["ratings"].values())


def test_summarize_pure_synergy_pattern():
    rows = "\n".join(f"i{i},a1,0,0,0,5,4,4,4,5" for i in range(10))
    summary = summarize_decomposition(parse_decomposition(io.StringIO(DECOMP_HEADER + rows)))
    assert summary["ratings"] == {"r": 0, "u1": 0, "u2": 0, "s": 5}


def test_summarize_empty_is_error():
    with pytest.raises(SchemaError):
        summarize_decomposition([])
