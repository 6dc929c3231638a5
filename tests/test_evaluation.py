import itertools
import json
import math
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoicompose import evaluation
from hoicompose.taxonomy import Taxonomy
from hoicompose.evaluation import (
    EvalReport,
    SplitSpec,
    affordance_map,
    affordance_prf1,
    average_precision,
    make_split,
    map_report,
    match_detections,
    write_report_csv,
)
from hoicompose.jsonfile import write_json
from hoicompose.pipeline import TrainConfig, init_model, predict_dataset
from hoicompose.synth import HOISet, gen_dataset, gen_world, load_instances, save_instances

UNIT = np.array([0.0, 0.0, 1.0, 1.0])
RIGHT_HALF = np.array([0.5, 0.0, 1.0, 1.0])
FAR = np.array([0.0, 0.0, 0.1, 0.1])
FAR2 = np.array([0.9, 0.9, 1.0, 1.0])


def four_cat_tax(counts=(1, 5, 9, 100)):
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return Taxonomy.build(["hold", "lift"], ["cup", "pen"], pairs, train_counts=counts)


# --- IoU ---

def iou(box_a, box_b) -> float:
    """Intersection over union of two (x1,y1,x2,y2) boxes in continuous coordinates:
    the scalar oracle of evaluation._pair_iou."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return float(inter / union) if union > 0 else 0.0  # subnormal sides: all three round to 0


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
        assert evaluation._pair_iou(a, b) == v  # the vectorized IoU reads the same bits


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


@pytest.mark.parametrize("key,edit", [
    ("unseen_hoi_ids", lambda ids: [float(c) for c in ids]),
    ("seen_hoi_ids", lambda ids: [False, *ids[1:]]),
    ("unseen_object_ids", lambda ids: [True]),
])
def test_split_json_rejects_non_integer_ids(key, edit):
    # each of these loaded as the same frozenset and passed validate
    tax = four_cat_tax()
    d = make_split(tax, "novel-object", unseen_object_ids=[1]).to_json_dict()
    d[key] = edit(d[key])
    with pytest.raises(ValueError, match=f"split {key} must hold integers, got "):
        SplitSpec.from_json_dict(d).validate(tax)


@pytest.mark.parametrize("version", [2, None, True, 1.0])
def test_split_load_rejects_other_schema_versions(tmp_path, version):
    d = make_split(four_cat_tax(), "none").to_json_dict()
    if version is not None:
        d["schema_version"] = version
    path = tmp_path / "split.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="unsupported split schema_version"):
        SplitSpec.load(path)


# --- detection report ---

def truth_set(human_box, object_box, hoi_label):
    """An HOISet carrying only what map_report reads: boxes and multi-hot labels."""
    labels = np.asarray(hoi_label, dtype=np.int8)
    n = len(labels)
    feats = np.zeros((n, 1))
    return HOISet(np.asarray(human_box, dtype=float).reshape(n, 4),
                  np.asarray(object_box, dtype=float).reshape(n, 4),
                  np.zeros(n, dtype=np.int64), labels, feats, feats, feats)


def perfect_grid(tax):
    """Two GT rows per category, each scored in [0.5, 1) for its category and 0 for
    every other."""
    rng = np.random.default_rng(3)
    boxes, labels, scores = [], [], []
    for c in range(tax.n_categories):
        for _ in range(2):
            x, y = rng.uniform(0, 0.5, 2)
            boxes.append(([x, y, x + 0.3, y + 0.3], [x + 0.1, y, x + 0.4, y + 0.3]))
            labels.append(np.eye(tax.n_categories, dtype=np.int8)[c])
            scores.append(labels[-1] * rng.uniform(0.5, 1.0))
    human, obj = (np.array([b[k] for b in boxes]) for k in (0, 1))
    return np.array(scores), truth_set(human, obj, labels)


def test_map_report_perfect_predictions():
    tax = four_cat_tax()
    detections, truth = perfect_grid(tax)
    report = map_report(detections, truth, tax)
    assert all(ap == 1.0 for ap in report.per_category_ap.values())
    assert report.groups["full"]["map"] == 1.0
    assert report.groups["rare"]["n_categories"] == 3  # counts 1, 5, 9 < 10
    assert report.groups["nonrare"]["n_categories"] == 1


def test_map_report_full_is_category_mean_not_group_mean():
    # Per-category APs 1.0, NaN, 0.5, 1.0: full mAP must be 5/6, not 7/8, the
    # mean of the rare (0.75) and nonrare (1.0) group means.
    tax = four_cat_tax()
    truth = truth_set([UNIT, FAR, FAR2, UNIT], [RIGHT_HALF, FAR, FAR2, RIGHT_HALF],
                      [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    detections = np.array([[0.9, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.5, 0.0],
                           [0.0, 0.0, 0.0, 0.9],
                           [0.0, 0.0, 0.9, 0.0]])  # row 3 outranks category 2's GT
    report = map_report(detections, truth, tax)
    assert math.isnan(report.per_category_ap[1])
    assert report.per_category_ap[2] == 0.5
    assert report.groups["full"]["map"] == pytest.approx(5 / 6)
    assert report.groups["full"]["n_categories"] == 3
    assert (report.groups["rare"]["map"], report.groups["nonrare"]["map"]) == (0.75, 1.0)


def test_map_report_unseen_seen_groups_with_split():
    tax = four_cat_tax()
    detections, truth = perfect_grid(tax)
    split = make_split(tax, "novel-object", unseen_object_ids=[1])
    report = map_report(detections, truth, tax, split=split)
    assert report.groups["unseen"]["map"] == 1.0
    assert sorted(report.groups["unseen"]["category_ids"]) == [1, 3]
    assert sorted(report.groups["seen"]["category_ids"]) == [0, 2]


def test_map_report_rejects_out_of_range_category():
    # a grid or label column wider or narrower than the taxonomy's categories
    # (where a tuple named a category out of range) is a shape mismatch
    tax = four_cat_tax()
    detections, truth = perfect_grid(tax)
    with pytest.raises(ValueError, match=r"detection scores has shape \(8, 99\), expected \(8, 4\)"):
        map_report(np.zeros((len(truth), 99)), truth, tax)
    with pytest.raises(ValueError, match=r"ground-truth hoi_label has shape \(8, 3\)"):
        map_report(detections, replace(truth, hoi_label=truth.hoi_label[:, :3]), tax)
    # a grid of other rows than the truth's
    with pytest.raises(ValueError, match=r"detection scores has shape \(7, 4\), expected \(8, 4\)"):
        map_report(detections[1:], truth, tax)
    with pytest.raises(ValueError, match=r"ground-truth human_box has shape \(8, 3\)"):
        map_report(detections, replace(truth, human_box=truth.human_box[:, :3]), tax)


def test_map_report_of_an_empty_test_set(tmp_path):
    # a saved 0-row test set: every category has no GT
    tax = four_cat_tax()
    save_instances(tmp_path / "test", HOISet(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0, dtype=np.int64),
                                             np.zeros((0, tax.n_categories), dtype=np.int8), *[np.zeros((0, 3))] * 3))
    empty = load_instances(tmp_path / "test", HOISet)
    assert len(empty) == 0 and empty.hoi_label.shape == (0, tax.n_categories)
    report = map_report(np.zeros((0, 4)), empty, tax)
    assert all(math.isnan(ap) for ap in report.per_category_ap.values())
    assert report.n_gt_per_category == {0: 0, 1: 0, 2: 0, 3: 0}
    assert math.isnan(report.groups["full"]["map"])


def test_report_writers(tmp_path):
    tax = four_cat_tax()
    report = map_report(*perfect_grid(tax), tax)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_json(jpath, report.to_json_dict())
    write_report_csv(report, tax, cpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["schema_version"] == 1 and loaded["groups"]["full"]["map"] == 1.0
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("category,verb,object")
    assert any(line.startswith("full,") for line in lines)


# --- the tuple path, kept as the oracle of map_report ---

def ground_truth_pairs(instances):
    """(b_h, b_o, category) per set label bit of an HOISet."""
    human, obj = list(instances.human_box), list(instances.object_box)
    return [(human[i], obj[i], int(c)) for i, c in zip(*np.nonzero(instances.hoi_label))]


def detection_tuples(scores, truth):
    """(b_h, b_o, category, score) per grid cell, row-major; row i's boxes are truth row i's."""
    return [(b_h, b_o, c, s) for b_h, b_o, row in zip(truth.human_box, truth.object_box, scores)
            for c, s in enumerate(row.tolist())]


def iou_matrix_oracle(boxes_a, boxes_b):
    a = np.asarray(boxes_a, dtype=float).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=float).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def match_detections_oracle(predictions, ground_truth, iou_threshold=0.5):
    """Dense IoU matrices, then every GT walked for every prediction in score order."""
    flags = [False] * len(predictions)
    if predictions and ground_truth:
        iou_h = iou_matrix_oracle([p[0] for p in predictions], [g[0] for g in ground_truth])
        iou_o = iou_matrix_oracle([p[1] for p in predictions], [g[1] for g in ground_truth])
        ok = (iou_h >= iou_threshold) & (iou_o >= iou_threshold)
        consumed = [False] * len(ground_truth)
        for i, (_, _, category, _) in enumerate(predictions):
            for j, g in enumerate(ground_truth):
                if not consumed[j] and g[2] == category and ok[i, j]:
                    consumed[j] = True
                    flags[i] = True
                    break
    return flags


def average_precision_oracle(tp_flags, n_positives):
    tp_cum = 0
    total = 0.0
    for rank, flag in enumerate(tp_flags, start=1):
        if flag:
            tp_cum += 1
            total += tp_cum / rank
    return total / n_positives


def map_report_oracle(predictions, ground_truth, n_categories):
    """Per-category APs (NaN without GT) of tuple predictions against tuple ground
    truth; also checks the library matcher against the oracle matcher."""
    per_cat = []
    for c in range(n_categories):
        gt_c = [g for g in ground_truth if g[2] == c]
        if not gt_c:
            per_cat.append(float("nan"))
            continue
        preds_c = sorted((p for p in predictions if p[2] == c), key=lambda p: -p[3])
        flags = match_detections_oracle(preds_c, gt_c)
        assert match_detections(preds_c, gt_c) == flags
        per_cat.append(average_precision_oracle(flags, len(gt_c)))
    return per_cat


def assert_report_matches_oracle(report, detections, truth, tax, split=None):
    want = map_report_oracle(detection_tuples(detections, truth), ground_truth_pairs(truth), tax.n_categories)
    got = [report.per_category_ap[c] for c in range(tax.n_categories)]
    assert [repr(x) for x in got] == [repr(x) for x in want]  # bit-equal, NaN where no GT
    assert report.n_gt_per_category == dict(enumerate(np.count_nonzero(truth.hoi_label, axis=0).tolist()))
    groups = {"full": range(tax.n_categories),
              "rare": [c for c in range(tax.n_categories) if tax.train_counts[c] < evaluation.RARE_THRESHOLD],
              "nonrare": [c for c in range(tax.n_categories) if tax.train_counts[c] >= evaluation.RARE_THRESHOLD]}
    if split is not None:
        groups.update(unseen=sorted(split.unseen_hoi_ids), seen=sorted(split.seen_hoi_ids))
    assert sorted(report.groups) == sorted(groups)
    for name, ids in groups.items():
        vals = [want[c] for c in ids if not math.isnan(want[c])]
        mean = float(np.mean(vals)) if vals else float("nan")
        assert repr(report.groups[name]["map"]) == repr(mean), name


# Corners on a quarter grid: boxes repeat, share edges, nest, and reach IoU exactly 0.5.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


@st.composite
def grid_box(draw):
    x1, x2 = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    y1, y2 = sorted(draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=2, unique=True)))
    return [x1, y1, x2, y2]


@st.composite
def detection_cases(draw):
    n_cat = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12))
    boxes = []
    for _ in range(n):  # a row repeats an earlier row's boxes or has boxes of its own
        fresh = st.tuples(grid_box(), grid_box())
        boxes.append(draw(st.sampled_from(boxes) | fresh if boxes else fresh))
    # some categories carry no GT at all; a row may carry several, or none
    labels = draw(st.lists(st.lists(st.sampled_from([0, 0, 1]), min_size=n_cat, max_size=n_cat),
                           min_size=n, max_size=n))
    # few distinct scores, so ties are common
    scores = draw(st.lists(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9]), min_size=n_cat, max_size=n_cat),
                           min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 20), min_size=n_cat, max_size=n_cat))
    detections = np.array(scores, dtype=float).reshape(n, n_cat)
    truth = truth_set([b[0] for b in boxes], [b[1] for b in boxes], np.array(labels, dtype=np.int8).reshape(n, n_cat))
    pairs = [(v, o) for v in range(2) for o in range(2)][:n_cat]
    tax = Taxonomy.build(["hold", "lift"], ["cup", "pen"], pairs, train_counts=counts)
    return detections, truth, tax, draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(detection_cases())
def test_map_report_matches_tuple_oracle(case):
    detections, truth, tax, chunk_rows = case
    with mock.patch.object(evaluation, "_CHUNK_ROWS", chunk_rows):  # blocks split the rows
        report = map_report(detections, truth, tax)
    assert_report_matches_oracle(report, detections, truth, tax)


def test_map_report_matches_tuple_oracle_on_generated_data():
    # a real world: 60 categories, nearby boxes, untrained-model scores, a split
    tax, world = gen_world(seed=5)
    split = make_split(tax, "novel-object", rng=np.random.default_rng(5))
    train_set, test_set, _ = gen_dataset(world, tax, split, 200, 150, 0, seed=5)
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=16, spatial_resolution=4, seed=5))
    detections = 0.72 * predict_dataset(model, test_set, tax)  # scores that are not products of probabilities
    counted = replace(tax, train_counts=train_set.hoi_label.sum(axis=0))
    report = map_report(detections, test_set, counted, split)
    assert_report_matches_oracle(report, detections, test_set, counted, split)


# --- candidate pairs: the all-pairs scan, kept as the oracle of the cell grid ---

def candidate_pairs_oracle(human, obj, iou_threshold):
    """Every human IoU over blocks of rows against all rows, the object IoU only on
    the pairs the human boxes let through."""
    human, obj = (np.asarray(b, dtype=float).reshape(-1, 4) for b in (human, obj))
    firsts, seconds = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite box reads NaN, never a match
        for start in range(0, len(human), evaluation._CHUNK_ROWS):
            block = evaluation._pair_iou(human[start:start + evaluation._CHUNK_ROWS, None], human[None])
            rows, cols = np.nonzero(block >= iou_threshold)
            rows += start
            ok = evaluation._pair_iou(obj[rows], obj[cols]) >= iou_threshold
            firsts.append(rows[ok])
            seconds.append(cols[ok])
    return np.concatenate(firsts), np.concatenate(seconds)


def assert_candidate_pairs_match_oracle(human, obj, iou_threshold):
    got = evaluation._candidate_pairs(human, obj, iou_threshold)
    want = candidate_pairs_oracle(human, obj, iou_threshold)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
    return got


@st.composite
def any_box(draw):
    """A box of one of several kinds: quarter-grid corners in any order (inverted,
    zero-area, at IoU exactly t with its neighbours), continuous (sides down to
    subnormal), about 1e12 from the origin, or with a NaN or infinite coordinate."""
    kind = draw(st.sampled_from(["grid", "continuous", "far", "non-finite"]))
    if kind == "grid":
        return [draw(st.sampled_from(GRID)) for _ in range(4)]
    x1, y1 = (draw(st.floats(-1, 2)) for _ in range(2))
    box = [x1, y1, x1 + draw(st.floats(0, 1)), y1 + draw(st.floats(0, 1))]
    if kind == "far":
        offset = draw(st.sampled_from([(1e12, 0.0), (0.0, -1e12), (1e12, 1e12)]))
        box = [v + offset[k % 2] for k, v in enumerate(box)]
    elif kind == "non-finite":
        box[draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return box


THRESHOLDS = [0.05, 0.5, 0.9, 1.0]


@settings(max_examples=600, deadline=None)
@given(any_box(), any_box())
@example([0.0, 0.0, 5e-324, 5e-324], [0.0, 0.0, 5e-324, 5e-324])  # every product underflows
@example([0.0, 0.0, 1.0, 1.0], [0.5, 1.0, 0.0, 0.0])  # inverted both ways: a positive area
def test_pair_iou_matches_the_scalar_oracle_both_ways(a, b):
    # the self-join of _candidate_pairs relies on IoU >= t reading the same both ways
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite box
        ab, ba = (float(evaluation._pair_iou(np.array(x), np.array(y))) for x, y in ((a, b), (b, a)))
    for t in THRESHOLDS:
        assert (ab >= t) == (ba >= t)
    if np.isfinite(a + b).all():
        assert ab == ba == iou(a, b) == iou(b, a)


def reach_edge(box, t, axis):
    """box's right (axis 0) or lower (axis 1) part, its x1 (or y1) moved in by
    (1 - t) * side: IoU t with box, at the reach when box has the largest side."""
    box = list(box)
    box[axis] += (1 - t) * (box[axis + 2] - box[axis])
    return box


# the kinds of a fresh box in candidate_pair_cases: any_box's four, and unit-side
# boxes, which no side is larger than, so a reach-edge partner sits at the reach
BOX_KINDS = ["grid", "continuous", "far", "non-finite", "unit"]
FAR_OFFSETS = [(1e12, 0.0), (0.0, -1e12), (1e12, 1e12)]


def fresh_box(kind, u):
    """The box of kind that five numbers u in [0, 1] pick, as any_box draws it. A
    continuous coordinate is 3u - 1, in [-1, 2], and a side is u itself, down to
    subnormal. u[4] picks the far offset, or the non-finite coordinate and value.
    A unit box's corner coordinate is, by u[2] and u[3], a quarter point, one ulp
    below one (its partner's corner then rounds up, past the reach) or continuous."""
    def pick(x, options):
        return options[min(int(x * len(options)), len(options) - 1)]

    if kind == "grid":
        return [pick(x, GRID) for x in u[:4]]
    if kind == "unit":
        x, y = (pick(how, [pick(v, GRID[:-1]), np.nextafter(pick(v, GRID[1:-1]), 0), 3 * v - 1])
                for v, how in zip(u[:2], u[2:4]))
        return [x, y, x + 1, y + 1]
    x1, y1 = 3 * u[0] - 1, 3 * u[1] - 1
    box = [x1, y1, x1 + u[2], y1 + u[3]]
    if kind == "far":
        offset = pick(u[4], FAR_OFFSETS)
        box = [v + offset[k % 2] for k, v in enumerate(box)]
    elif kind == "non-finite":
        k = pick(u[4], range(12))
        box[k % 4] = [np.nan, np.inf, -np.inf][k // 4]
    return box


@st.composite
def candidate_pair_cases(draw):
    """One set of rows: some drawn fresh, then more that copy a drawn row's boxes
    or sit at the reach edge of one, non-finite rows among them. The fresh boxes
    come from one draw of their kinds and one array draw of their numbers."""
    t = draw(st.sampled_from(THRESHOLDS))
    hows = ["fresh"] * draw(st.integers(0, 10))
    hows += draw(st.lists(st.sampled_from(["fresh", "copy", "edge"]), max_size=10))
    if hows:
        hows[0] = "fresh"  # the first row has no row to copy
    n_boxes = 2 * hows.count("fresh")
    kinds = draw(st.lists(st.sampled_from(BOX_KINDS), min_size=n_boxes, max_size=n_boxes))
    numbers = draw(hnp.arrays(np.float64, (n_boxes, 5), elements=st.floats(0, 1)))
    boxes = iter([fresh_box(kind, u) for kind, u in zip(kinds, numbers.tolist())])
    rows = []
    for how in hows:
        if how == "fresh":
            rows.append((next(boxes), next(boxes)))
            continue
        human, obj = draw(st.sampled_from(rows))
        if how == "edge":
            edges = [draw(st.sampled_from([None, 0, 1])) for _ in range(2)]
            human, obj = (b if a is None else reach_edge(b, t, a) for b, a in zip((human, obj), edges))
        rows.append((human, obj))
    human, obj = (np.array([r[k] for r in rows], dtype=float).reshape(-1, 4) for k in (0, 1))
    return human, obj, t, draw(st.integers(1, 5))


def below_quarter_case():
    """A unit box one ulp below y = 0.25 and its lower half, with a zero-area box
    pinning the grid at 0: the half's y1 rounds up to 0.75, just past the reach of
    0.5 at t = 0.5, and the pair still reads IoU 0.5."""
    y = np.nextafter(0.25, 0)
    unit = [0.0, y, 1.0, y + 1]
    obj = np.array([unit, [0.0, 0.0, 0.0, 0.0], reach_edge(unit, 0.5, 1)])
    return np.array([UNIT] * 3), obj, 0.5, 1


def subnormal_case():
    """Boxes one subnormal unit tall: every area and the intersection round to that
    unit, so IoU reads 1 at x1 0.4 apart, far past the reach of 0.1 at t = 0.9."""
    h = np.nextafter(0.0, 1)
    return np.array([UNIT, UNIT]), np.array([[0.0, 0.0, 1.0, h], [0.4, 0.0, 1.0, h]]), 0.9, 1


@settings(max_examples=600, deadline=None)
@given(candidate_pair_cases(), st.sampled_from([1e-6, 1 / 64, 1, 16]))
@example(case=below_quarter_case(), cell_rows=1e-6)
@example(case=subnormal_case(), cell_rows=1e-6)
def test_candidate_pairs_match_all_pairs_oracle(case, cell_rows):
    human, obj, t, chunk_rows = case
    # blocks split the cells, and a _CELL_ROWS below 1 lets twenty rows span many cells
    # (1e-6: up to _MAX_CELLS per axis)
    with mock.patch.object(evaluation, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(evaluation, "_CELL_ROWS", cell_rows):
        assert_candidate_pairs_match_oracle(human, obj, t)


def test_candidate_pairs_match_all_pairs_oracle_on_generated_data():
    # the zeroshot pairing: the 3,200-row test set's boxes against themselves
    tax, world = gen_world(seed=0)
    split = make_split(tax, "novel-object", rng=np.random.default_rng(0))
    _, test_set, _ = gen_dataset(world, tax, split, 10, 3200, 0, seed=0)
    pred, gt = assert_candidate_pairs_match_oracle(test_set.human_box, test_set.object_box, evaluation.IOU_THRESHOLD)
    assert len(pred) > len(test_set)  # every self-pair, and more


@st.composite
def precomputed_pair_cases(draw):
    """A truth of candidate_pair_cases' boxes (none, or non-finite ones among
    them), labels, two score grids of ties and NaN, train counts and a split."""
    human, obj, _, _ = draw(candidate_pair_cases())
    n, n_cat = len(human), draw(st.integers(1, 4))
    labels = draw(hnp.arrays(np.int8, (n, n_cat), elements=st.sampled_from([0, 0, 1])))
    grids = [draw(hnp.arrays(float, (n, n_cat), elements=st.sampled_from([0.0, 0.25, 0.9, np.nan])))
             for _ in range(2)]
    counts = draw(st.lists(st.integers(0, 20), min_size=n_cat, max_size=n_cat))
    tax = Taxonomy.build(["hold", "lift"], ["cup", "pen"], [(v, o) for v in range(2) for o in range(2)][:n_cat],
                         train_counts=counts)
    unseen = frozenset(draw(st.sets(st.integers(0, n_cat - 1), max_size=n_cat - 1)))
    split = SplitSpec("unseen-composition-rare-first", unseen, frozenset(range(n_cat)) - unseen) if unseen else None
    return grids, truth_set(human, obj, labels), tax, split


@settings(max_examples=300, deadline=None)
@given(precomputed_pair_cases())
def test_map_report_on_precomputed_pairs_matches_the_default(case):
    # the pairs found once, before or beside the scores (cli's worker thread,
    # run_trend_seed's two models), give the report map_report finds itself
    grids, truth, tax, split = case
    pairs = evaluation.candidate_pairs(truth)
    for got, want in zip(pairs, evaluation._candidate_pairs(truth.human_box, truth.object_box, 0.5)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for scores in grids:  # one pairs for two grids, as for run_trend_seed's two models
        report = map_report(scores, truth, tax, split, pairs=pairs)
        assert repr(asdict(report)) == repr(asdict(map_report(scores, truth, tax, split)))  # every AP, NaN and group


@st.composite
def tuple_cases(draw):
    """Predictions and GT pairs drawn as two sets: any_box boxes, categories 0-2, a
    GT pair sometimes a copy of a prediction's boxes and category, and predictions
    sorted by few distinct scores, so ties are common."""
    category = st.integers(0, 2)
    predictions = draw(st.lists(st.tuples(any_box(), any_box(), category, st.sampled_from([0.0, 0.5, 0.9])),
                                max_size=10))
    predictions.sort(key=lambda p: -p[3])  # stable: ties keep their drawn order
    pair = st.tuples(any_box(), any_box(), category)
    if predictions:
        pair |= st.sampled_from([p[:3] for p in predictions])
    return predictions, draw(st.lists(pair, max_size=8))


@settings(max_examples=300, deadline=None)
@given(tuple_cases())
def test_match_detections_matches_the_oracle_on_two_sets(case):
    # match_detections raises no warning (the suite turns one into an error);
    # the oracle's inf - inf on a non-finite box is silenced
    predictions, ground_truth = case
    for t in THRESHOLDS:
        with mock.patch.object(evaluation, "IOU_THRESHOLD", t):
            flags = match_detections(predictions, ground_truth)
        with np.errstate(invalid="ignore"):
            assert flags == match_detections_oracle(predictions, ground_truth, t)
        # a non-finite box never matches
        assert not any(flag and not np.isfinite([*p[0], *p[1]]).all() for flag, p in zip(flags, predictions))


RANK_VALUES = [0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 5e-324, -5e-324, np.nan, -np.nan, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(RANK_VALUES) | st.floats(allow_nan=True, allow_infinity=True),
                max_size=400))
@example([0.5] * 40 + [np.nan] * 30 + [-0.0, 0.0] * 20 + [np.inf, -np.inf] * 10)
def test_descending_order_is_the_stable_argsort(values):
    # heavy ties: runs of equal keys, NaN with NaN and -0.0 with 0.0, in row order
    col = np.array(values, dtype=float)
    got, want = evaluation._descending_order(col), np.argsort(-col, kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_descending_order_is_the_stable_argsort_on_a_long_column():
    rng = np.random.default_rng(4)
    col = rng.choice(np.array(RANK_VALUES + [0.75, 0.125]), size=20000)
    np.testing.assert_array_equal(evaluation._descending_order(col), np.argsort(-col, kind="stable"))
    col = rng.uniform(size=20000)  # no ties: the default argsort's order as it is
    np.testing.assert_array_equal(evaluation._descending_order(col), np.argsort(-col, kind="stable"))


# --- affordance metrics ---

def as_grid(rows, n_verbs):
    """(len(rows), n_verbs) bool grid with row k set at the verb ids rows[k]."""
    grid = np.zeros((len(rows), n_verbs), dtype=bool)
    for k, verbs in enumerate(rows):
        grid[k, list(verbs)] = True
    return grid


def test_affordance_prf1_identical():
    sets = as_grid([{1, 2}, {0}], 3)
    r = affordance_prf1(sets, sets)
    assert (r.micro_precision, r.micro_recall, r.micro_f1) == (1.0, 1.0, 1.0)
    assert (r.macro_precision, r.macro_recall, r.macro_f1) == (1.0, 1.0, 1.0)
    assert not r.undefined_precision


def test_affordance_prf1_empty_predictions_flagged():
    r = affordance_prf1(as_grid([set()], 2), as_grid([{1}], 2))
    assert (r.micro_precision, r.micro_recall, r.micro_f1) == (0.0, 0.0, 0.0)
    assert r.undefined_precision


def test_affordance_prf1_worked_example():
    # predicted {ride, eat}, truth {ride}: P=1/2, R=1, F1=2/3
    r = affordance_prf1(as_grid([{0, 1}], 2), as_grid([{0}], 2))
    assert r.micro_precision == pytest.approx(0.5)
    assert r.micro_recall == 1.0
    assert r.micro_f1 == pytest.approx(2 / 3)


def test_affordance_prf1_micro_vs_macro_differ():
    # object 0 perfect (1 verb), object 1 half precision over many verbs:
    # micro is pulled toward the big object, macro averages objects equally.
    predicted = as_grid([{0}, {1, 2, 3, 4}], 5)
    truth = as_grid([{0}, {1, 2}], 5)
    r = affordance_prf1(predicted, truth)
    assert r.micro_precision == pytest.approx(3 / 5)
    assert r.macro_precision == pytest.approx((1.0 + 0.5) / 2)


def test_affordance_map_perfect_separation():
    scores = np.array([[1.0] if k < 3 else [0.0] for k in range(6)])
    truth = as_grid([{0} if k < 3 else set() for k in range(6)], 1)
    assert affordance_map(scores, truth) == 1.0


def test_affordance_map_null_matches_prevalence():
    # Random scores: mean AP per verb sits near the positive prevalence.
    # (It sits slightly above for finite lists, so keep the list long.)
    rng = np.random.default_rng(7)
    n_obj, n_pos = 200, 60
    aps = []
    for trial in range(60):
        positive = set(rng.choice(n_obj, size=n_pos, replace=False).tolist())
        truth = as_grid([{0} if k in positive else set() for k in range(n_obj)], 1)
        scores = np.array([[float(rng.uniform())] for k in range(n_obj)])
        aps.append(affordance_map(scores, truth))
    assert abs(float(np.mean(aps)) - n_pos / n_obj) < 0.05


def test_affordance_map_missing_scores_rank_last():
    truth = as_grid([{5}, set(), set()], 6)
    # object 0 is the positive but has no score (NaN): it ranks below both scored objects
    scores = np.full((3, 6), np.nan)
    scores[1:, 5] = [0.9, 0.8]
    assert affordance_map(scores, truth) == pytest.approx(1 / 3)
    # below a score of 0 too, and in object order among the unscored
    scores[1:, 5] = [0.0, np.nan]
    assert affordance_map(scores, truth) == pytest.approx(1 / 2)


def test_affordance_map_excludes_zero_positive_verbs():
    truth = as_grid([{1}, set()], 3)
    scores = np.array([[np.nan, 0.9, 0.1], [np.nan, 0.2, 0.8]])
    # verb 2 never appears in the truth: only verb 1 contributes
    assert affordance_map(scores, truth) == 1.0


def test_affordance_map_no_positives_at_all_is_nan():
    assert math.isnan(affordance_map(np.array([[np.nan, 0.5]]), as_grid([set()], 2)))


@pytest.mark.parametrize("metric", [affordance_prf1, affordance_map])
@pytest.mark.parametrize("shape,truth_shape", [((2, 3), (2, 4)), ((3, 3), (2, 3)), ((3,), (3,)),
                                               ((1, 2, 3), (1, 2, 3))])
def test_affordance_metrics_reject_shape_mismatch(metric, shape, truth_shape):
    with pytest.raises(ValueError, match="must be the same"):
        metric(np.zeros(shape), np.zeros(truth_shape, dtype=bool))


# The dict path the affordance metrics replaced: per-object sets and score dicts
# keyed by object position, over the union of both inputs' keys. The grid
# metrics must give bit-equal results.

def affordance_prf1_oracle(predicted: dict, ground_truth: dict) -> dict:
    keys = sorted(set(predicted) | set(ground_truth))
    tp = fp = fn = 0
    macro_p, macro_r, macro_f = [], [], []

    def f1(p, r):
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    for k in keys:
        pred = set(predicted.get(k, ()))
        gt = set(ground_truth.get(k, ()))
        tp_k, fp_k, fn_k = len(pred & gt), len(pred - gt), len(gt - pred)
        tp, fp, fn = tp + tp_k, fp + fp_k, fn + fn_k
        p_k = tp_k / (tp_k + fp_k) if pred else 0.0
        r_k = tp_k / (tp_k + fn_k) if gt else 0.0
        macro_p.append(p_k)
        macro_r.append(r_k)
        macro_f.append(f1(p_k, r_k))
    undefined = tp + fp == 0
    micro_p = 0.0 if undefined else tp / (tp + fp)
    micro_r = 0.0 if tp + fn == 0 else tp / (tp + fn)
    return {
        "micro_precision": micro_p, "micro_recall": micro_r, "micro_f1": f1(micro_p, micro_r),
        "macro_precision": float(np.mean(macro_p)) if keys else 0.0,
        "macro_recall": float(np.mean(macro_r)) if keys else 0.0,
        "macro_f1": float(np.mean(macro_f)) if keys else 0.0,
        "n_objects": len(keys), "undefined_precision": undefined,
    }


def affordance_map_oracle(scores: dict, ground_truth: dict) -> float:
    keys = sorted(set(scores) | set(ground_truth))
    verbs = set()
    for k in keys:
        verbs |= set(ground_truth.get(k, ()))
    aps = []
    for v in sorted(verbs):
        ranked = []
        for k in keys:
            s = scores.get(k, {}).get(v)
            ranked.append((-float("inf") if s is None or math.isnan(s) else float(s), k))
        ranked.sort(key=lambda t: -t[0])  # stable: ties keep object-key order
        flags = [v in ground_truth.get(k, ()) for _, k in ranked]
        aps.append(average_precision(flags, sum(flags)))
    return float(np.mean(aps)) if aps else float("nan")


def grid_sets(grid) -> dict:
    """A bool grid as the dict path's {object position: set of verb ids}."""
    return {k: set(np.flatnonzero(row).tolist()) for k, row in enumerate(grid)}


def grid_scores(scores, verbs) -> dict:
    """A score grid as the dict path's {object position: {verb id: score}} over verbs."""
    return {k: {v: float(row[v]) for v in verbs} for k, row in enumerate(scores)}


def assert_same_float(a: float, b: float):
    assert type(a) is type(b) is float
    assert np.float64(a).tobytes() == np.float64(b).tobytes(), (a, b)


def assert_same_prf1(prf1, want: dict):
    """Every field of prf1 equal to the oracle's, of the same type, floats bit for bit."""
    got = asdict(prf1)
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert_same_float(got[key], value)
        else:
            assert type(got[key]) is type(value) and got[key] == value, key


def assert_affordance_metrics_match_oracle(kept, scores, truth, verbs):
    """The grid metrics of (kept, scores, truth) against the dict path's; verbs are
    the score columns the dict path holds."""
    assert_same_prf1(affordance_prf1(kept, truth), affordance_prf1_oracle(grid_sets(kept), grid_sets(truth)))
    assert_same_float(affordance_map(scores, truth),
                      affordance_map_oracle(grid_scores(scores, verbs), grid_sets(truth)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30), st.integers(1, 4), st.data())
def test_affordance_metrics_match_dict_oracle(n, n_verbs, data):
    # scores from a few values (ties), NaN and +-inf included; rows of kept and
    # truth may be empty, or all of them. Up to 30 objects: numpy's quicksort
    # is an insertion sort, so stable, below 17.
    cells = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf]),
                     min_size=n * n_verbs, max_size=n * n_verbs)
    bits = st.lists(st.booleans(), min_size=n * n_verbs, max_size=n * n_verbs)
    scores = np.array(data.draw(cells), dtype=float).reshape(n, n_verbs)
    kept = np.array(data.draw(bits), dtype=bool).reshape(n, n_verbs)
    truth = np.array(data.draw(bits), dtype=bool).reshape(n, n_verbs)
    assert_affordance_metrics_match_oracle(kept, scores, truth, range(n_verbs))


def test_eval_report_json_dict_has_nan_as_none():
    report = EvalReport(
        per_category_ap={0: 1.0, 1: float("nan")},
        n_gt_per_category={0: 2, 1: 0},
        groups={"full": {"map": 1.0, "n_categories": 1, "category_ids": [0]}},
    )
    d = report.to_json_dict()
    assert d["per_category_ap"]["1"] is None
    assert d["rare_threshold"] == 10  # report.json still records the fixed definition of rare
