"""Measurement: IoU-matched HOI detection mAP, zero-shot splits, affordance metrics.

Detections are a grid, every (human_box, object_box) row scored for every
category; ground truth is an HOISet's boxes and multi-hot labels. Matching is
greedy in score order against a shared ground-truth pool, a true positive needs
both IoUs >= 0.5 and the exact category, and AP is the non-interpolated sum of
precisions at true-positive ranks over n_positives.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .taxonomy import Taxonomy, _reject_unknown

IOU_THRESHOLD = 0.5
RARE_THRESHOLD = 10
DEFAULT_UNSEEN_FRACTION = 0.2

SPLIT_MODES = ("unseen-composition-rare-first", "unseen-composition-nonrare-first",
               "novel-object", "none")


def iou(box_a, box_b) -> float:
    """Intersection over union of two (x1,y1,x2,y2) boxes in continuous coordinates."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return float(inter / union)


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes a[..., :4] and b[..., :4], broadcast against each other: a[:, None]
    and b[None] give the pairwise matrix, equal-length a and b the row-by-row pairs.
    Same arithmetic as iou(), so every pair reads the same bits either way."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


# Prediction rows per human-IoU block: 64 x n_gt float temporaries stay a few MB.
_CHUNK_ROWS = 64


def _candidate_pairs(pred_h, pred_o, gt_h, gt_o, iou_threshold: float):
    """(prediction, GT) index arrays of every pair whose human and object IoUs both
    reach iou_threshold, in (prediction, GT) order. The human IoU is taken over blocks
    of prediction rows, the object IoU only on the pairs the human boxes let through."""
    pred_h, pred_o, gt_h, gt_o = (np.asarray(b, dtype=float).reshape(-1, 4)
                                  for b in (pred_h, pred_o, gt_h, gt_o))
    preds, gts = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(pred_h), _CHUNK_ROWS):
        block = _pair_iou(pred_h[start:start + _CHUNK_ROWS, None], gt_h[None])
        rows, cols = np.nonzero(block >= iou_threshold)
        rows += start
        ok = _pair_iou(pred_o[rows], gt_o[cols]) >= iou_threshold
        preds.append(rows[ok])
        gts.append(cols[ok])
    return np.concatenate(preds), np.concatenate(gts)


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


def match_detections(predictions, ground_truth, iou_threshold: float = IOU_THRESHOLD) -> list[bool]:
    """TP/FP flag per prediction, in input order.

    predictions: (human_box, object_box, category, score), already sorted by
    score descending; equal scores keep input order. Each GT pair is consumed
    by at most one prediction; a prediction takes the first unconsumed GT (in
    GT input order) with its exact category and both IoUs >= threshold.
    """
    scores = [p[3] for p in predictions]
    if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
        raise ValueError("predictions must be sorted by score descending")
    flags = [False] * len(predictions)
    if predictions and ground_truth:
        pred, gt = _candidate_pairs([p[0] for p in predictions], [p[1] for p in predictions],
                                    [g[0] for g in ground_truth], [g[1] for g in ground_truth],
                                    iou_threshold)
        same = (np.array([p[2] for p in predictions])[pred]
                == np.array([g[2] for g in ground_truth])[gt])
        for rank in _greedy_match(pred[same], gt[same]):
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


@dataclass(eq=False)
class Detections:
    """Scored detections as one grid: row i is one (human box, object box) pair,
    and scores[i, c] its score for category c."""

    human_box: np.ndarray  # (n, 4)
    object_box: np.ndarray  # (n, 4)
    scores: np.ndarray  # (n, n_categories)


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
            "schema_version": 1,
            "mode": self.mode,
            "unseen_hoi_ids": sorted(self.unseen_hoi_ids),
            "seen_hoi_ids": sorted(self.seen_hoi_ids),
            "unseen_object_ids": sorted(self.unseen_object_ids),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SplitSpec":
        _reject_unknown(d, {"schema_version", "mode", "unseen_hoi_ids", "seen_hoi_ids",
                            "unseen_object_ids"}, "split")
        return cls(
            mode=d["mode"],
            unseen_hoi_ids=frozenset(d["unseen_hoi_ids"]),
            seen_hoi_ids=frozenset(d["seen_hoi_ids"]),
            unseen_object_ids=frozenset(d.get("unseen_object_ids", ())),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "SplitSpec":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def make_split(
    tax: Taxonomy,
    mode: str,
    unseen_count: int | None = None,
    unseen_object_ids=None,
    rng: np.random.Generator | None = None,
) -> SplitSpec:
    """Build a split. Rare-first holds out the lowest-count categories, non-rare-first
    the highest (ties by category id); novel-object holds out whole objects, either
    the given ids or a sampled default fraction of all objects.
    """
    all_cats = set(range(tax.n_categories))
    if mode == "none":
        return SplitSpec(mode="none", unseen_hoi_ids=frozenset(), seen_hoi_ids=frozenset(all_cats))

    if mode in ("unseen-composition-rare-first", "unseen-composition-nonrare-first"):
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

    if mode == "novel-object":
        if unseen_object_ids is None:
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
        split = SplitSpec(
            mode=mode,
            unseen_hoi_ids=unseen,
            seen_hoi_ids=frozenset(all_cats - unseen),
            unseen_object_ids=obj_ids,
        )
        split.validate(tax)
        return split

    raise ValueError(f"unknown split mode {mode!r}")


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

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "micro_precision", "micro_recall", "micro_f1",
            "macro_precision", "macro_recall", "macro_f1",
            "n_objects", "undefined_precision")}


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
    rare_threshold: int = RARE_THRESHOLD

    def to_json_dict(self) -> dict:
        # NaN is not valid JSON; absent values serialize as null.
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            "schema_version": 1,
            "per_category_ap": {str(c): clean(self.per_category_ap[c])
                                for c in sorted(self.per_category_ap)},
            "n_gt_per_category": {str(c): self.n_gt_per_category[c] for c in sorted(self.n_gt_per_category)},
            "groups": {name: {**g, "map": clean(g["map"])} for name, g in self.groups.items()},
            "rare_threshold": self.rare_threshold,
        }


def _group_mean(per_cat: dict[int, float], ids) -> dict:
    vals = [per_cat[c] for c in ids if not math.isnan(per_cat[c])]
    used = [c for c in ids if not math.isnan(per_cat[c])]
    return {
        "map": float(np.mean(vals)) if vals else float("nan"),
        "n_categories": len(used),
        "category_ids": sorted(used),
    }


def map_report(
    detections: Detections,
    truth,
    tax: Taxonomy,
    split: SplitSpec | None = None,
    rare_threshold: int = RARE_THRESHOLD,
    iou_threshold: float = IOU_THRESHOLD,
) -> EvalReport:
    """Full detection report of a Detections grid against one pooled test set.

    truth is an HOISet: each set bit of its hoi_label is one GT pair, that row's
    two boxes with that category. The IoU test runs once per (detection row, GT
    row); per category, the detections rank by score descending (ties in row
    order) and match greedily against the candidate pairs whose GT row carries
    the category, as match_detections does. Categories absent from the ground
    truth get AP = NaN and are excluded from every group mean. Rare = realized
    train count < rare_threshold.
    """
    n, m, n_cat = len(detections.scores), len(truth.hoi_label), tax.n_categories
    # an empty set loaded from an empty file has no label width
    labels = truth.hoi_label if m else np.zeros((0, n_cat), dtype=np.int8)
    for name, column, want in (("detection human_box", detections.human_box, (n, 4)),
                               ("detection object_box", detections.object_box, (n, 4)),
                               ("detection scores", detections.scores, (n, n_cat)),
                               ("ground-truth human_box", truth.human_box, (m, 4)),
                               ("ground-truth object_box", truth.object_box, (m, 4)),
                               ("ground-truth hoi_label", labels, (m, n_cat))):
        if np.shape(column) != want:
            raise ValueError(f"{name} has shape {np.shape(column)}, expected {want}")
    pred, gt = _candidate_pairs(detections.human_box, detections.object_box,
                                truth.human_box, truth.object_box, iou_threshold)
    labels = np.asarray(labels) != 0
    candidate_labels = labels[gt]
    scores = np.asarray(detections.scores, dtype=float)
    rank = np.empty(n, dtype=np.intp)

    per_cat = {}
    n_gt = dict(enumerate(labels.sum(axis=0).tolist()))
    for c in range(n_cat):
        if not n_gt[c]:
            per_cat[c] = float("nan")
            continue
        rank[np.argsort(-scores[:, c], kind="stable")] = np.arange(n)
        keep = candidate_labels[:, c]
        r, g = rank[pred[keep]], gt[keep]
        order = np.lexsort((g, r))
        per_cat[c] = _ap_at_ranks(_greedy_match(r[order], g[order]), n_gt[c])

    all_ids = range(tax.n_categories)
    rare = [c for c in all_ids if tax.train_counts[c] < rare_threshold]
    nonrare = [c for c in all_ids if tax.train_counts[c] >= rare_threshold]
    groups = {
        "full": _group_mean(per_cat, all_ids),
        "rare": _group_mean(per_cat, rare),
        "nonrare": _group_mean(per_cat, nonrare),
    }
    if split is not None and split.mode != "none":
        groups["unseen"] = _group_mean(per_cat, sorted(split.unseen_hoi_ids))
        groups["seen"] = _group_mean(per_cat, sorted(split.seen_hoi_ids))
    return EvalReport(
        per_category_ap=per_cat,
        n_gt_per_category=n_gt,
        groups=groups,
        rare_threshold=rare_threshold,
    )


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


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


def save_predictions(path, detections: Detections) -> None:
    """JSON-lines prediction file, one line per (row, category), row-major:
    boxes, integer category, score."""
    with open(path, "w") as f:
        for human_box, object_box, row in zip(detections.human_box, detections.object_box,
                                              np.asarray(detections.scores).tolist()):
            boxes = {"human_box": np.asarray(human_box, dtype=float).tolist(),
                     "object_box": np.asarray(object_box, dtype=float).tolist()}
            for category, score in enumerate(row):
                rec = {**boxes, "category": category, "score": float(score)}
                f.write(json.dumps(rec, sort_keys=True) + "\n")
