import itertools
import math

import numpy as np
import pytest

from hoicompose.taxonomy import Taxonomy
from hoicompose.evaluation import (
    EvalReport,
    SplitSpec,
    affordance_map,
    affordance_prf1,
    average_precision,
    iou,
    make_split,
    map_report,
    match_detections,
    save_predictions,
    write_report_csv,
    write_report_json,
)

UNIT = np.array([0.0, 0.0, 1.0, 1.0])
RIGHT_HALF = np.array([0.5, 0.0, 1.0, 1.0])
FAR = np.array([0.0, 0.0, 0.1, 0.1])
FAR2 = np.array([0.9, 0.9, 1.0, 1.0])


def four_cat_tax(counts=(1, 5, 9, 100)):
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return Taxonomy.build(["hold", "lift"], ["cup", "pen"], pairs, train_counts=counts)


# --- IoU ---

def test_iou_examples():
    assert iou(UNIT, UNIT) == 1.0
    assert iou(FAR, FAR2) == 0.0
    assert iou(UNIT, RIGHT_HALF) == pytest.approx(0.5)
    # touching edges have zero intersection
    assert iou(np.array([0, 0, 0.5, 1.0]), RIGHT_HALF) == 0.0


def test_iou_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x1, y1 = rng.uniform(0, 0.8, 2)
        a = np.array([x1, y1, x1 + rng.uniform(0.05, 0.2), y1 + rng.uniform(0.05, 0.2)])
        x1, y1 = rng.uniform(0, 0.8, 2)
        b = np.array([x1, y1, x1 + rng.uniform(0.05, 0.2), y1 + rng.uniform(0.05, 0.2)])
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou(b, a))


# --- matching ---

def test_match_exact_hit():
    gt = [(UNIT, RIGHT_HALF, 3)]
    preds = [(UNIT, RIGHT_HALF, 3, 0.9)]
    assert match_detections(preds, gt) == [True]


def test_match_duplicate_consumes_once():
    gt = [(UNIT, RIGHT_HALF, 3)]
    preds = [(UNIT, RIGHT_HALF, 3, 0.9), (UNIT, RIGHT_HALF, 3, 0.8)]
    assert match_detections(preds, gt) == [True, False]


def test_match_wrong_category_is_fp():
    gt = [(UNIT, RIGHT_HALF, 3)]
    preds = [(UNIT, RIGHT_HALF, 2, 0.9)]
    assert match_detections(preds, gt) == [False]


def test_match_both_boxes_must_clear_threshold():
    gt = [(UNIT, RIGHT_HALF, 0)]
    preds = [(UNIT, FAR, 0, 0.9)]  # object box misses
    assert match_detections(preds, gt) == [False]
    preds = [(FAR, RIGHT_HALF, 0, 0.9)]  # human box misses
    assert match_detections(preds, gt) == [False]


def test_match_rejects_unsorted():
    gt = [(UNIT, RIGHT_HALF, 0)]
    preds = [(UNIT, RIGHT_HALF, 0, 0.1), (UNIT, RIGHT_HALF, 0, 0.9)]
    with pytest.raises(ValueError, match="sorted"):
        match_detections(preds, gt)


def test_match_tp_count_bounded_by_gt():
    rng = np.random.default_rng(1)
    gt = [(UNIT, RIGHT_HALF, 0), (UNIT, RIGHT_HALF, 0)]
    preds = sorted(
        [(UNIT, RIGHT_HALF, 0, float(rng.uniform())) for _ in range(10)],
        key=lambda p: -p[3],
    )
    flags = match_detections(preds, gt)
    assert sum(flags) == 2


def test_match_empty_inputs():
    assert match_detections([], [(UNIT, UNIT, 0)]) == []
    assert match_detections([(UNIT, UNIT, 0, 0.5)], []) == [False]


# --- average precision ---

def oracle_ap(flags, n_pos):
    """Integrate precision over recall: each TP adds 1/n_pos of recall at the
    precision reached at its rank. Deliberately shaped unlike the implementation."""
    area = 0.0
    seen_tp = 0
    for rank0, flag in enumerate(flags):
        if flag:
            seen_tp += 1
            precision_here = seen_tp / (rank0 + 1)
            recall_step = 1.0 / n_pos
            area += precision_here * recall_step
    return area


def test_ap_examples():
    assert average_precision([True], 1) == 1.0
    assert average_precision([True, True, True], 3) == 1.0
    assert average_precision([False, True], 1) == pytest.approx(0.5)
    assert average_precision([False, False], 2) == 0.0
    assert average_precision([True, False, True], 2) == pytest.approx((1.0 + 2 / 3) / 2)


def test_ap_rejects_no_positives():
    with pytest.raises(ValueError):
        average_precision([True], 0)


def test_ap_matches_oracle_exhaustively():
    for n in range(1, 9):
        for flags in itertools.product([False, True], repeat=n):
            n_pos = max(1, sum(flags))
            assert average_precision(list(flags), n_pos) == pytest.approx(
                oracle_ap(flags, n_pos), abs=1e-12
            )


def test_ap_missed_positives_lower_score():
    # Two positives in GT but only one recovered: the missing one halves the AP.
    assert average_precision([True], 2) == pytest.approx(0.5)


# --- splits ---

def test_split_rare_first_picks_lowest_counts():
    tax = four_cat_tax()
    split = make_split(tax, "unseen-composition-rare-first", unseen_count=2)
    assert {int(tax.train_counts[c]) for c in split.unseen_hoi_ids} == {1, 5}
    assert split.unseen_hoi_ids | split.seen_hoi_ids == {0, 1, 2, 3}
    assert not split.unseen_hoi_ids & split.seen_hoi_ids


def test_split_nonrare_first_picks_highest_counts():
    tax = four_cat_tax()
    split = make_split(tax, "unseen-composition-nonrare-first", unseen_count=2)
    assert {int(tax.train_counts[c]) for c in split.unseen_hoi_ids} == {9, 100}


def test_split_ties_break_by_category_id():
    tax = four_cat_tax(counts=(7, 7, 7, 7))
    split = make_split(tax, "unseen-composition-rare-first", unseen_count=2)
    assert split.unseen_hoi_ids == {0, 1}


def test_split_unseen_count_bounds():
    tax = four_cat_tax()
    for bad in (0, 4, 5, -1):
        with pytest.raises(ValueError):
            make_split(tax, "unseen-composition-rare-first", unseen_count=bad)


def test_split_novel_object_given_ids():
    tax = four_cat_tax()
    split = make_split(tax, "novel-object", unseen_object_ids=[1])
    # categories whose object is 1: ids 1 and 3
    assert split.unseen_hoi_ids == {1, 3}
    assert split.seen_hoi_ids == {0, 2}
    assert split.unseen_object_ids == {1}


def test_split_novel_object_cannot_consume_everything():
    tax = four_cat_tax()
    with pytest.raises(ValueError):
        make_split(tax, "novel-object", unseen_object_ids=[0, 1])


def test_split_novel_object_sampled_is_deterministic():
    tax = four_cat_tax()
    a = make_split(tax, "novel-object", rng=np.random.default_rng(9))
    b = make_split(tax, "novel-object", rng=np.random.default_rng(9))
    assert a == b
    with pytest.raises(ValueError):
        make_split(tax, "novel-object")  # no ids, no rng


def test_split_none_mode():
    tax = four_cat_tax()
    split = make_split(tax, "none")
    assert split.unseen_hoi_ids == frozenset()
    assert split.seen_hoi_ids == {0, 1, 2, 3}


def test_split_json_roundtrip(tmp_path):
    tax = four_cat_tax()
    split = make_split(tax, "novel-object", unseen_object_ids=[1])
    path = tmp_path / "split.json"
    split.save(path)
    assert SplitSpec.load(path) == split
    with pytest.raises(ValueError, match="bogus"):
        SplitSpec.from_json_dict({**split.to_json_dict(), "bogus": 1})


# --- detection report ---

def perfect_preds_and_gt(tax):
    gt = []
    preds = []
    rng = np.random.default_rng(3)
    for c in range(tax.n_categories):
        for _ in range(2):
            x, y = rng.uniform(0, 0.5, 2)
            h = np.array([x, y, x + 0.3, y + 0.3])
            o = np.array([x + 0.1, y, x + 0.4, y + 0.3])
            gt.append((h, o, c))
            preds.append((h, o, c, float(rng.uniform(0.5, 1.0))))
    return preds, gt


def test_map_report_perfect_predictions():
    tax = four_cat_tax()
    preds, gt = perfect_preds_and_gt(tax)
    report = map_report(preds, gt, tax)
    assert all(ap == 1.0 for ap in report.per_category_ap.values())
    assert report.groups["full"]["map"] == 1.0
    assert report.groups["rare"]["n_categories"] == 3  # counts 1, 5, 9 < 10
    assert report.groups["nonrare"]["n_categories"] == 1


def test_map_report_full_is_category_mean_not_group_mean():
    # Per-category APs 1.0, 1.0, 0.0 with one NaN: full mAP must be 2/3,
    # not the mean of the rare/nonrare group means.
    tax = four_cat_tax()
    gt = [(UNIT, RIGHT_HALF, 0), (UNIT, RIGHT_HALF, 1), (UNIT, RIGHT_HALF, 2)]
    preds = [
        (UNIT, RIGHT_HALF, 0, 0.9),
        (UNIT, RIGHT_HALF, 1, 0.9),
        (FAR, FAR2, 2, 0.9),  # miss
    ]
    report = map_report(preds, gt, tax)
    assert math.isnan(report.per_category_ap[3])
    assert report.groups["full"]["map"] == pytest.approx(2 / 3)
    assert report.groups["full"]["n_categories"] == 3


def test_map_report_unseen_seen_groups_with_split():
    tax = four_cat_tax()
    preds, gt = perfect_preds_and_gt(tax)
    split = make_split(tax, "novel-object", unseen_object_ids=[1])
    report = map_report(preds, gt, tax, split=split)
    assert report.groups["unseen"]["map"] == 1.0
    assert sorted(report.groups["unseen"]["category_ids"]) == [1, 3]
    assert sorted(report.groups["seen"]["category_ids"]) == [0, 2]


def test_map_report_rejects_out_of_range_category():
    tax = four_cat_tax()
    with pytest.raises(ValueError):
        map_report([(UNIT, UNIT, 99, 0.5)], [], tax)
    with pytest.raises(ValueError):
        map_report([], [(UNIT, UNIT, 99)], tax)


def test_report_writers(tmp_path):
    tax = four_cat_tax()
    preds, gt = perfect_preds_and_gt(tax)
    report = map_report(preds, gt, tax)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_report_json(report, jpath)
    write_report_csv(report, tax, cpath)
    import json
    loaded = json.loads(jpath.read_text())
    assert loaded["groups"]["full"]["map"] == 1.0
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("category,verb,object")
    assert any(line.startswith("full,") for line in lines)


def test_predictions_roundtrip(tmp_path):
    preds = [(UNIT, RIGHT_HALF, 2, 0.75), (FAR, FAR2, 0, 0.25)]
    path = tmp_path / "preds.jsonl"
    save_predictions(path, preds)
    import json
    back = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(back) == 2
    for (h, o, c, s), rec in zip(preds, back):
        np.testing.assert_array_equal(np.asarray(h, dtype=float), rec["human_box"])
        np.testing.assert_array_equal(np.asarray(o, dtype=float), rec["object_box"])
        assert (c, s) == (rec["category"], rec["score"])


# --- affordance metrics ---

def test_affordance_prf1_identical():
    sets = {0: {1, 2}, 1: {0}}
    r = affordance_prf1(sets, sets)
    assert (r.micro_precision, r.micro_recall, r.micro_f1) == (1.0, 1.0, 1.0)
    assert (r.macro_precision, r.macro_recall, r.macro_f1) == (1.0, 1.0, 1.0)
    assert not r.undefined_precision


def test_affordance_prf1_empty_predictions_flagged():
    r = affordance_prf1({}, {0: {1}})
    assert (r.micro_precision, r.micro_recall, r.micro_f1) == (0.0, 0.0, 0.0)
    assert r.undefined_precision


def test_affordance_prf1_worked_example():
    # predicted {ride, eat}, truth {ride}: P=1/2, R=1, F1=2/3
    r = affordance_prf1({0: {0, 1}}, {0: {0}})
    assert r.micro_precision == pytest.approx(0.5)
    assert r.micro_recall == 1.0
    assert r.micro_f1 == pytest.approx(2 / 3)


def test_affordance_prf1_micro_vs_macro_differ():
    # object 0 perfect (1 verb), object 1 half precision over many verbs:
    # micro is pulled toward the big object, macro averages objects equally.
    predicted = {0: {0}, 1: {1, 2, 3, 4}}
    truth = {0: {0}, 1: {1, 2}}
    r = affordance_prf1(predicted, truth)
    assert r.micro_precision == pytest.approx(3 / 5)
    assert r.macro_precision == pytest.approx((1.0 + 0.5) / 2)


def test_affordance_map_perfect_separation():
    scores = {k: {0: 1.0 if k < 3 else 0.0} for k in range(6)}
    truth = {k: ({0} if k < 3 else set()) for k in range(6)}
    assert affordance_map(scores, truth) == 1.0


def test_affordance_map_null_matches_prevalence():
    # Random scores: mean AP per verb sits near the positive prevalence.
    # (It sits slightly above for finite lists, so keep the list long.)
    rng = np.random.default_rng(7)
    n_obj, n_pos = 200, 60
    aps = []
    for trial in range(60):
        positive = set(rng.choice(n_obj, size=n_pos, replace=False).tolist())
        truth = {k: ({0} if k in positive else set()) for k in range(n_obj)}
        scores = {k: {0: float(rng.uniform())} for k in range(n_obj)}
        aps.append(affordance_map(scores, truth))
    assert abs(float(np.mean(aps)) - n_pos / n_obj) < 0.05


def test_affordance_map_missing_scores_rank_last():
    truth = {0: {5}, 1: set(), 2: set()}
    # object 0 is the positive but has no score: it ranks below both scored objects
    scores = {1: {5: 0.9}, 2: {5: 0.8}}
    assert affordance_map(scores, truth) == pytest.approx(1 / 3)
    # NaN behaves exactly like missing
    scores_nan = {0: {5: float("nan")}, 1: {5: 0.9}, 2: {5: 0.8}}
    assert affordance_map(scores_nan, truth) == pytest.approx(1 / 3)


def test_affordance_map_excludes_zero_positive_verbs():
    truth = {0: {1}, 1: set()}
    scores = {0: {1: 0.9, 2: 0.1}, 1: {1: 0.2, 2: 0.8}}
    # verb 2 never appears in the truth: only verb 1 contributes
    assert affordance_map(scores, truth) == 1.0


def test_affordance_map_no_positives_at_all_is_nan():
    assert math.isnan(affordance_map({0: {1: 0.5}}, {0: set()}))


def test_eval_report_json_dict_has_nan_as_none():
    report = EvalReport(
        per_category_ap={0: 1.0, 1: float("nan")},
        n_gt_per_category={0: 2, 1: 0},
        groups={"full": {"map": 1.0, "n_categories": 1, "category_ids": [0]}},
        rare_threshold=10,
    )
    d = report.to_json_dict()
    assert d["per_category_ap"]["1"] is None
