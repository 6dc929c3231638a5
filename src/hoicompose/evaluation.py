"""Measurement: IoU-matched HOI detection mAP, zero-shot splits, affordance metrics.

Detections are an (n, C) score grid over the ground truth's own rows: row i
scores truth row i's (human_box, object_box) pair for every category. Ground
truth is an HOISet's boxes and multi-hot labels. Matching is greedy in score
order against a shared ground-truth pool, a true positive needs both IoUs >= 0.5
and the exact category, and AP is the non-interpolated sum of precisions at
true-positive ranks over n_positives.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .jsonfile import check_fields, int_items, read_json, write_json
from .taxonomy import Taxonomy

IOU_THRESHOLD = 0.5
RARE_THRESHOLD = 10
DEFAULT_UNSEEN_FRACTION = 0.2

SPLIT_MODES = ("unseen-composition-rare-first", "unseen-composition-nonrare-first",
               "novel-object", "none")


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes a[..., :4] and b[..., :4], broadcast against each other: a[:, None]
    and b[None] give the pairwise matrix, equal-length a and b the row-by-row pairs.
    Every pair reads the same value either way, and an overlap-free pair (zero
    intersection) reads 0. A union that is not positive holds no intersection (or
    overflowed): the division by inf there reads 0, or NaN, never a match."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0)
    inter *= np.maximum(ih, 0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    return inter / np.where(union > 0, union, np.inf)


# Rows per IoU block: a block's temporaries are _CHUNK_ROWS x (the rows near its
# cell), a few MB at most even when every box falls into one cell.
_CHUNK_ROWS = 64
# Cells per axis at most. Wider cells stay exact; they keep the cell keys small and the
# keys' rounding error far below the margin on the reach.
_MAX_CELLS = 1024
# Rows per cell, at least, on average: cells per axis are also at most
# sqrt(rows / _CELL_ROWS), so that a small set does not pay a Python loop step
# for every few rows.
_CELL_ROWS = 16


def _candidate_pairs(human, obj, iou_threshold: float):
    """(row, row) index arrays of every pair of a set's rows, a row with itself
    included, whose human and object IoUs both reach iou_threshold, in index order.

    If IoU(a, b) >= t > 0, the intersection width is at least t * max(w_a, w_b), so
    |x1_a - x1_b| <= (1 - t) * max(w_a, w_b), and likewise y1 with heights. With
    reach that bound at the largest object side, widened to cover rounding, rows are
    bucketed by their object box's (x1, y1) into square cells of side at least
    reach / 2, so the two rows of a pair lie within one 5 x 5 neighbourhood of
    cells. The IoU and the neighbourhood are both symmetric, so each cell meets only
    itself and the 12 cells after it in key order (the object IoU over blocks of its
    rows, the human IoU only on the pairs the object boxes let through), and each
    pair across two cells is found once and mirrored. A row with a non-finite
    coordinate never reaches IoU t and is dropped."""
    human, obj = (np.asarray(b, dtype=float).reshape(-1, 4) for b in (human, obj))
    rows = np.flatnonzero(np.isfinite(human).all(axis=1) & np.isfinite(obj).all(axis=1))
    boxes = obj[rows]
    w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    side = max(w.max(initial=0.0), h.max(initial=0.0))
    empty = np.zeros(0, dtype=np.intp)
    if not (len(rows) and side > 0):  # no pair can overlap
        return empty, empty
    # Below an area of 1e-300 the IoU's rounding is no longer relative to its value:
    # then only the overlap itself is relied on, |x1_a - x1_b| < max(w_a, w_b).
    slack = 1.0 if ((w > 0) & (h > 0) & (w * h < 1e-300)).any() else 1 - iou_threshold
    reach = (slack * (1 + 1e-9) + 1e-9) * side
    corners = boxes[:, :2]
    lo = corners.min(axis=0)
    cells = min(_MAX_CELLS, max(1.0, math.sqrt(len(rows) / _CELL_ROWS)))
    cell = max(reach / 2, (corners.max(axis=0) - lo).max() / cells)
    if 0 < cell < np.inf:
        xy = np.floor((corners - lo) / cell).astype(np.intp)
    else:  # a reach and span of 0 (or an infinite one): one cell holds every row
        xy = np.zeros_like(corners, dtype=np.intp)
    stride = xy[:, 1].max() + 3  # > the largest y cell + 2: a window stays in its column
    keys = xy[:, 0] * stride + xy[:, 1]
    order = np.argsort(keys)
    rows, keys = rows[order], keys[order]
    # the cell itself, the two after it in its column, the next two columns' five
    window_lo = np.array([0, 1, stride - 2, 2 * stride - 2])
    window_hi = np.array([0, 2, stride + 2, 2 * stride + 2])
    # per occupied cell, the rows of its window
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))
    starts = np.searchsorted(keys, keys[firsts, None] + window_lo, side="left")
    ends = np.searchsorted(keys, keys[firsts, None] + window_hi, side="right")
    lefts, rights = [empty], [empty]
    for first, last, cell_starts, cell_ends in zip(firsts, np.append(firsts[1:], len(keys)), starts, ends):
        near = np.concatenate([rows[s:e] for s, e in zip(cell_starts, cell_ends)])
        own = cell_ends[0] - cell_starts[0]  # the rows past the cell's own are another cell's: mirrored
        for start in range(first, last, _CHUNK_ROWS):
            block = rows[start:min(start + _CHUNK_ROWS, last)]
            r, c = np.nonzero(_pair_iou(obj[block, None], obj[None, near]) >= iou_threshold)
            ok = _pair_iou(human[block[r]], human[near[c]]) >= iou_threshold
            r, c = r[ok], c[ok]
            mirror = c >= own
            lefts += [block[r], near[c[mirror]]]
            rights += [near[c], block[r[mirror]]]
    a, b = np.concatenate(lefts), np.concatenate(rights)
    order = np.lexsort((b, a))
    return a[order], b[order]


def candidate_pairs(truth):
    """The (detection row, GT row) index arrays that map_report matches: every
    pair of an HOISet's rows whose human and object IoUs both reach
    IOU_THRESHOLD, in index order. It reads only the boxes, so it can be found
    before, or beside, the scores."""
    return _candidate_pairs(truth.human_box, truth.object_box, IOU_THRESHOLD)


def _descending_order(col: np.ndarray) -> np.ndarray:
    """np.argsort(-col, kind="stable") from the default argsort: each run of equal
    keys (NaN with NaN, -0.0 with 0.0) is put back in row order, NaN last."""
    key = -col
    order = np.argsort(key)
    ranked = key[order]
    tied = (ranked[1:] == ranked[:-1]) | np.isnan(ranked[:-1])  # NaN sorts last
    if tied.any():  # sort (run, row) as one integer key; runs are numbered in rank order
        run = np.cumsum(np.concatenate(([True], ~tied)))
        order = np.sort(run * len(key) + order) % len(key)
    return order


def _greedy_match(pred, gt) -> list[int]:
    """The greedy matcher. pred, gt: the candidate pairs of one category, ordered by
    (prediction rank, GT index). Each prediction takes its first GT not yet consumed.
    Returns the ranks of the matched predictions, ascending."""
    matched, consumed = [], set()
    for p, g in zip(pred.tolist(), gt.tolist()):
        if g not in consumed and (not matched or matched[-1] != p):
            consumed.add(g)
            matched.append(p)
    return matched


def match_detections(predictions, ground_truth) -> list[bool]:
    """TP/FP flag per prediction, in input order.

    predictions: (human_box, object_box, category, score), already sorted by
    score descending; equal scores keep input order. Each GT pair is consumed
    by at most one prediction; a prediction takes the first unconsumed GT (in
    GT input order) with its exact category and both IoUs >= IOU_THRESHOLD.
    A box with a non-finite coordinate never matches.
    """
    scores = [p[3] for p in predictions]
    if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
        raise ValueError("predictions must be sorted by score descending")
    pred_h, pred_o, gt_h, gt_o = (np.asarray([x[k] for x in rows], dtype=float).reshape(-1, 4)
                                  for rows in (predictions, ground_truth) for k in (0, 1))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite box reads NaN, never a match
        ok = ((_pair_iou(pred_h[:, None], gt_h[None]) >= IOU_THRESHOLD)
              & (_pair_iou(pred_o[:, None], gt_o[None]) >= IOU_THRESHOLD))
    ok &= np.array([p[2] for p in predictions])[:, None] == np.array([g[2] for g in ground_truth])[None]
    flags = [False] * len(predictions)
    for rank in _greedy_match(*np.nonzero(ok)):  # in (prediction, GT) order
        flags[rank] = True
    return flags


def _ap_at_ranks(tp_ranks, n_positives: int) -> float:
    """Sum of precision at each true positive, given its 0-based rank (ascending),
    accumulated in rank order and divided by n_positives."""
    total = 0.0
    for tp_cum, rank in enumerate(tp_ranks, start=1):
        total += tp_cum / (rank + 1)
    return total / n_positives


def average_precision(tp_flags, n_positives: int) -> float:
    """Sum of precision at each TP rank, divided by n_positives."""
    if n_positives < 1:
        raise ValueError("average_precision needs at least one positive")
    return _ap_at_ranks([rank for rank, flag in enumerate(tp_flags) if flag], n_positives)


@dataclass
class SplitSpec:
    """A zero-shot split: which HOI categories (and objects) are held out."""

    mode: str
    unseen_hoi_ids: frozenset[int]
    seen_hoi_ids: frozenset[int]
    unseen_object_ids: frozenset[int] = frozenset()

    def validate(self, tax: Taxonomy) -> None:
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.unseen_hoi_ids & self.seen_hoi_ids:
            raise ValueError("unseen and seen categories overlap")
        if self.unseen_hoi_ids | self.seen_hoi_ids != set(range(tax.n_categories)):
            raise ValueError("split does not cover all categories")
        if self.mode == "novel-object":
            expected = {c for c, (v, o) in enumerate(tax.hoi_pairs) if o in self.unseen_object_ids}
            if expected != set(self.unseen_hoi_ids):
                raise ValueError("novel-object unseen categories must be exactly those of the unseen objects")
        if self.mode == "none" and self.unseen_hoi_ids:
            raise ValueError("mode 'none' cannot hold out categories")

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "unseen_hoi_ids": sorted(self.unseen_hoi_ids),
            "seen_hoi_ids": sorted(self.seen_hoi_ids),
            "unseen_object_ids": sorted(self.unseen_object_ids),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SplitSpec":
        check_fields(d, {"mode": str, "unseen_hoi_ids": list, "seen_hoi_ids": list, "unseen_object_ids": list},
                     "split")
        return cls(
            mode=d["mode"],
            unseen_hoi_ids=frozenset(int_items(d["unseen_hoi_ids"], "split unseen_hoi_ids")),
            seen_hoi_ids=frozenset(int_items(d["seen_hoi_ids"], "split seen_hoi_ids")),
            unseen_object_ids=frozenset(int_items(d.get("unseen_object_ids", []), "split unseen_object_ids")),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "SplitSpec":
        return cls.from_json_dict(read_json(path, "split"))


def make_split(
    tax: Taxonomy,
    mode: str = "none",
    unseen_count: int | None = None,
    unseen_object_ids=None,
    rng: np.random.Generator | None = None,
) -> SplitSpec:
    """Build a split. Rare-first holds out the lowest-count categories, non-rare-first
    the highest (ties by category id); novel-object holds out whole objects, either
    the given ids or a sampled default fraction of all objects. A mode refuses a
    key it does not read: unseen_count outside the two composition modes,
    unseen_object_ids outside novel-object.
    """
    if mode not in SPLIT_MODES:
        raise ValueError(f"unknown split mode {mode!r}")
    composition = mode in ("unseen-composition-rare-first", "unseen-composition-nonrare-first")
    for key, value, read in (("unseen_count", unseen_count, composition),
                             ("unseen_object_ids", unseen_object_ids, mode == "novel-object")):
        if value is not None and not read:
            raise ValueError(f"split mode {mode!r} does not read {key}")
    all_cats = set(range(tax.n_categories))
    if mode == "none":
        return SplitSpec(mode="none", unseen_hoi_ids=frozenset(), seen_hoi_ids=frozenset(all_cats))

    if composition:
        if unseen_count is None:
            unseen_count = int(round(DEFAULT_UNSEEN_FRACTION * tax.n_categories))
        if not 0 < unseen_count < tax.n_categories:
            raise ValueError(f"unseen_count must be in (0, {tax.n_categories})")
        counts = tax.train_counts
        if mode == "unseen-composition-rare-first":
            order = sorted(all_cats, key=lambda c: (counts[c], c))
        else:
            order = sorted(all_cats, key=lambda c: (-counts[c], c))
        unseen = frozenset(order[:unseen_count])
        return SplitSpec(mode=mode, unseen_hoi_ids=unseen, seen_hoi_ids=frozenset(all_cats - unseen))

    if unseen_object_ids is None:  # novel-object
        if rng is None:
            raise ValueError("novel-object mode needs unseen_object_ids or an rng to sample them")
        k = max(1, int(round(DEFAULT_UNSEEN_FRACTION * tax.n_objects)))
        unseen_object_ids = rng.choice(tax.n_objects, size=k, replace=False)
    obj_ids = frozenset(int(o) for o in unseen_object_ids)
    for o in obj_ids:
        if not 0 <= o < tax.n_objects:
            raise ValueError(f"object id {o} out of range")
    unseen = frozenset(c for c, (v, o) in enumerate(tax.hoi_pairs) if o in obj_ids)
    if len(unseen) >= tax.n_categories:
        raise ValueError("novel-object split leaves no seen categories")
    return SplitSpec(mode=mode, unseen_hoi_ids=unseen, seen_hoi_ids=frozenset(all_cats - unseen),
                     unseen_object_ids=obj_ids)


@dataclass
class PRF1:
    """Micro- and macro-averaged precision/recall/F1 for affordance recognition."""

    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n_objects: int
    undefined_precision: bool = False  # no predictions anywhere: precision reported as 0


def _f1(p, r):
    """F1 of precisions p and recalls r (scalars or arrays); 0 where p + r = 0."""
    den = p + r
    return np.divide(2 * p * r, den, out=np.zeros_like(den, dtype=float), where=den != 0)


def _affordance_grids(a, dtype, truth, what: str):
    """a as dtype and truth as bool, both (objects, verbs) grids of one shape."""
    a, truth = np.asarray(a, dtype=dtype), np.asarray(truth, dtype=bool)
    if truth.ndim != 2 or a.shape != truth.shape:
        raise ValueError(f"{what} of shape {a.shape} and truth of shape {truth.shape} "
                         "must be the same (objects, verbs) grid")
    return a, truth


def affordance_prf1(kept, truth) -> PRF1:
    """Compare predicted affordances with the truth, both (n objects, V verbs) bool grids.

    Micro averages pool every (object, verb) decision; macro averages per-object
    scores, where an object with no prediction (no truth) has precision (recall)
    0. Undefined precision (no predictions at all) is reported as 0 and flagged,
    never NaN.
    """
    kept, truth = _affordance_grids(kept, bool, truth, "kept")
    tp_k = (kept & truth).sum(axis=1)
    n_pred, n_true = kept.sum(axis=1), truth.sum(axis=1)
    p_k = np.divide(tp_k, n_pred, out=np.zeros(len(kept)), where=n_pred > 0)
    r_k = np.divide(tp_k, n_true, out=np.zeros(len(kept)), where=n_true > 0)
    tp, fp, fn = int(tp_k.sum()), int((n_pred - tp_k).sum()), int((n_true - tp_k).sum())
    undefined = tp + fp == 0
    micro_p = 0.0 if undefined else tp / (tp + fp)
    micro_r = 0.0 if tp + fn == 0 else tp / (tp + fn)
    macro = [float(np.mean(x)) if len(kept) else 0.0 for x in (p_k, r_k, _f1(p_k, r_k))]
    return PRF1(micro_p, micro_r, float(_f1(micro_p, micro_r)), *macro, n_objects=len(kept),
                undefined_precision=undefined)


def affordance_map(scores, truth) -> float:
    """Mean over verbs of AP when ranking objects by their score for that verb.

    scores: (n objects, V verbs) float; truth: the same grid, bool. Per verb a
    stable argsort ranks the objects by score descending, NaN last and ties in
    object order. Verbs with zero positive objects are excluded; with no
    scorable verb at all the result is NaN.
    """
    scores, truth = _affordance_grids(scores, float, truth, "scores")
    ranked = -np.where(np.isnan(scores), -np.inf, scores)
    aps = []
    for v in np.flatnonzero(truth.any(axis=0)).tolist():
        flags = truth[np.argsort(ranked[:, v], kind="stable"), v]
        aps.append(_ap_at_ranks(np.flatnonzero(flags).tolist(), int(flags.sum())))
    return float(np.mean(aps)) if aps else float("nan")


@dataclass
class EvalReport:
    """Per-category APs plus grouped means."""

    per_category_ap: dict[int, float]  # NaN where the category has no GT
    n_gt_per_category: dict[int, int]
    groups: dict[str, dict]  # name -> {"map": float, "n_categories": int, "category_ids": [...]}

    def to_json_dict(self) -> dict:
        # NaN is not valid JSON; absent values serialize as null.
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            "per_category_ap": {str(c): clean(self.per_category_ap[c])
                                for c in sorted(self.per_category_ap)},
            "n_gt_per_category": {str(c): self.n_gt_per_category[c] for c in sorted(self.n_gt_per_category)},
            "groups": {name: {**g, "map": clean(g["map"])} for name, g in self.groups.items()},
            "rare_threshold": RARE_THRESHOLD,
        }


def _group_mean(per_cat: dict[int, float], ids) -> dict:
    vals = [per_cat[c] for c in ids if not math.isnan(per_cat[c])]
    used = [c for c in ids if not math.isnan(per_cat[c])]
    return {
        "map": float(np.mean(vals)) if vals else float("nan"),
        "n_categories": len(used),
        "category_ids": sorted(used),
    }


def map_report(scores, truth, tax: Taxonomy, split: SplitSpec | None = None, *, pairs=None) -> EvalReport:
    """Full detection report of an (n, C) score grid against one pooled test set.

    truth is an HOISet: each set bit of its hoi_label is one GT pair, that row's
    two boxes with that category. Row i of the grid scores truth row i's boxes.
    The candidate (detection row, GT row) pairs, both IoUs >= IOU_THRESHOLD,
    are the truth's self-join candidate_pairs(truth), found once for all
    categories, or pairs when the caller found them already; per category,
    the detections rank by score descending (ties in row order) and match
    greedily against the candidate pairs whose GT row carries the category,
    as match_detections does. Categories absent from the ground truth get
    AP = NaN and are excluded from every group mean. Rare = realized train
    count < RARE_THRESHOLD.
    """
    n, n_cat = len(truth), tax.n_categories
    # an empty set loaded from an empty file has no label width
    labels = truth.hoi_label if n else np.zeros((0, n_cat), dtype=np.int8)
    for name, column, want in (("detection scores", scores, (n, n_cat)),
                               ("ground-truth human_box", truth.human_box, (n, 4)),
                               ("ground-truth object_box", truth.object_box, (n, 4)),
                               ("ground-truth hoi_label", labels, (n, n_cat))):
        if np.shape(column) != want:
            raise ValueError(f"{name} has shape {np.shape(column)}, expected {want}")
    pred, gt = candidate_pairs(truth) if pairs is None else pairs
    labels = np.asarray(labels) != 0
    candidate_labels = labels[gt]
    scores = np.asarray(scores, dtype=float)
    rank = np.empty(n, dtype=np.intp)

    per_cat = {}
    n_gt = dict(enumerate(labels.sum(axis=0).tolist()))
    for c in range(n_cat):
        if not n_gt[c]:
            per_cat[c] = float("nan")
            continue
        rank[_descending_order(scores[:, c])] = np.arange(n)
        keep = candidate_labels[:, c]
        r, g = rank[pred[keep]], gt[keep]
        order = np.lexsort((g, r))
        per_cat[c] = _ap_at_ranks(_greedy_match(r[order], g[order]), n_gt[c])

    all_ids = range(tax.n_categories)
    rare = [c for c in all_ids if tax.train_counts[c] < RARE_THRESHOLD]
    nonrare = [c for c in all_ids if tax.train_counts[c] >= RARE_THRESHOLD]
    groups = {
        "full": _group_mean(per_cat, all_ids),
        "rare": _group_mean(per_cat, rare),
        "nonrare": _group_mean(per_cat, nonrare),
    }
    if split is not None and split.mode != "none":
        groups["unseen"] = _group_mean(per_cat, sorted(split.unseen_hoi_ids))
        groups["seen"] = _group_mean(per_cat, sorted(split.seen_hoi_ids))
    return EvalReport(per_category_ap=per_cat, n_gt_per_category=n_gt, groups=groups)


def write_report_csv(report: EvalReport, tax: Taxonomy, path) -> None:
    """One row per category, then one summary row per group."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["category", "verb", "object", "train_count", "n_gt", "ap"])
        for c in sorted(report.per_category_ap):
            v, o = tax.hoi_pairs[c]
            ap = report.per_category_ap[c]
            w.writerow([c, tax.verb_names[v], tax.object_names[o],
                        int(tax.train_counts[c]), report.n_gt_per_category[c],
                        "" if math.isnan(ap) else f"{ap:.6f}"])
        w.writerow([])
        w.writerow(["group", "map", "n_categories"])
        for name, g in report.groups.items():
            w.writerow([name, "" if math.isnan(g["map"]) else f"{g['map']:.6f}", g["n_categories"]])

