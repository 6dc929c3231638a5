"""Measurement: IoU-matched HOI detection mAP, zero-shot splits, affordance metrics.

Detections are (human_box, object_box, category, score); ground truth drops the
score. Matching is greedy in score order against a shared ground-truth pool, a
true positive needs both IoUs >= 0.5 and the exact category, and AP is the
non-interpolated sum of precisions at true-positive ranks over n_positives.
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


def _iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU, shape (len(a), len(b)). Same arithmetic as iou()."""
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
    if not predictions:
        return []
    flags = [False] * len(predictions)
    if ground_truth:
        iou_h = _iou_matrix([p[0] for p in predictions], [g[0] for g in ground_truth])
        iou_o = _iou_matrix([p[1] for p in predictions], [g[1] for g in ground_truth])
        ok = (iou_h >= iou_threshold) & (iou_o >= iou_threshold)
        consumed = [False] * len(ground_truth)
        for i, (_, _, category, _) in enumerate(predictions):
            for j, g in enumerate(ground_truth):
                if not consumed[j] and g[2] == category and ok[i, j]:
                    consumed[j] = True
                    flags[i] = True
                    break
    return flags


def average_precision(tp_flags, n_positives: int) -> float:
    """Sum of precision at each TP rank, divided by n_positives."""
    if n_positives < 1:
        raise ValueError("average_precision needs at least one positive")
    tp_cum = 0
    total = 0.0
    for rank, flag in enumerate(tp_flags, start=1):
        if flag:
            tp_cum += 1
            total += tp_cum / rank
    return total / n_positives


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


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def affordance_prf1(predicted: dict, ground_truth: dict) -> PRF1:
    """Compare per-object predicted verb sets against ground-truth affordance sets.

    Micro averages pool every (object, verb) decision; macro averages per-object
    scores. Undefined precision (no predictions at all) is reported as 0 and
    flagged, never NaN.
    """
    keys = sorted(set(predicted) | set(ground_truth))
    tp = fp = fn = 0
    macro_p = []
    macro_r = []
    macro_f = []
    for k in keys:
        pred = set(predicted.get(k, ()))
        gt = set(ground_truth.get(k, ()))
        tp_k = len(pred & gt)
        fp_k = len(pred - gt)
        fn_k = len(gt - pred)
        tp, fp, fn = tp + tp_k, fp + fp_k, fn + fn_k
        p_k = tp_k / (tp_k + fp_k) if pred else 0.0
        r_k = tp_k / (tp_k + fn_k) if gt else 0.0
        macro_p.append(p_k)
        macro_r.append(r_k)
        macro_f.append(_f1(p_k, r_k))
    undefined = tp + fp == 0
    micro_p = 0.0 if undefined else tp / (tp + fp)
    micro_r = 0.0 if tp + fn == 0 else tp / (tp + fn)
    return PRF1(
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=_f1(micro_p, micro_r),
        macro_precision=float(np.mean(macro_p)) if keys else 0.0,
        macro_recall=float(np.mean(macro_r)) if keys else 0.0,
        macro_f1=float(np.mean(macro_f)) if keys else 0.0,
        n_objects=len(keys),
        undefined_precision=undefined,
    )


def affordance_map(scores: dict, ground_truth: dict) -> float:
    """Mean over verbs of AP when ranking objects by their score for that verb.

    scores: {object_key: {verb_id: score}}; missing or NaN scores rank last
    (in object-key order). Verbs with zero positive objects are excluded; with
    no scorable verb at all the result is NaN.
    """
    keys = sorted(set(scores) | set(ground_truth))
    verbs = set()
    for k in keys:
        verbs |= set(ground_truth.get(k, ()))
    aps = []
    for v in sorted(verbs):
        ranked = []
        for k in keys:
            s = scores.get(k, {}).get(v)
            sort_key = -float("inf") if s is None or math.isnan(s) else float(s)
            ranked.append((sort_key, k))
        ranked.sort(key=lambda t: -t[0])  # stable: ties keep object-key order
        flags = [v in ground_truth.get(k, ()) for _, k in ranked]
        n_pos = sum(flags)
        if n_pos == 0:
            continue
        aps.append(average_precision(flags, n_pos))
    return float(np.mean(aps)) if aps else float("nan")


@dataclass
class EvalReport:
    """Per-category APs plus grouped means; affordance metrics attach when computed."""

    per_category_ap: dict[int, float]  # NaN where the category has no GT
    n_gt_per_category: dict[int, int]
    groups: dict[str, dict]  # name -> {"map": float, "n_categories": int, "category_ids": [...]}
    rare_threshold: int = RARE_THRESHOLD
    affordance: PRF1 | None = None
    affordance_map_score: float | None = None

    def to_json_dict(self) -> dict:
        # NaN is not valid JSON; absent values serialize as null.
        def clean(x):
            return None if isinstance(x, float) and math.isnan(x) else x

        d = {
            "schema_version": 1,
            "per_category_ap": {str(c): clean(self.per_category_ap[c])
                                for c in sorted(self.per_category_ap)},
            "n_gt_per_category": {str(c): self.n_gt_per_category[c] for c in sorted(self.n_gt_per_category)},
            "groups": {name: {**g, "map": clean(g["map"])} for name, g in self.groups.items()},
            "rare_threshold": self.rare_threshold,
        }
        if self.affordance is not None:
            d["affordance"] = self.affordance.to_json_dict()
        if self.affordance_map_score is not None:
            d["affordance_map"] = clean(self.affordance_map_score)
        return d


def _group_mean(per_cat: dict[int, float], ids) -> dict:
    vals = [per_cat[c] for c in ids if not math.isnan(per_cat[c])]
    used = [c for c in ids if not math.isnan(per_cat[c])]
    return {
        "map": float(np.mean(vals)) if vals else float("nan"),
        "n_categories": len(used),
        "category_ids": sorted(used),
    }


def map_report(
    predictions,
    ground_truth,
    tax: Taxonomy,
    split: SplitSpec | None = None,
    rare_threshold: int = RARE_THRESHOLD,
    iou_threshold: float = IOU_THRESHOLD,
) -> EvalReport:
    """Full detection report over one pooled test set.

    Categories absent from the ground truth get AP = NaN and are excluded from
    every group mean. Rare = realized train count < rare_threshold.
    """
    by_cat_preds: dict[int, list] = {c: [] for c in range(tax.n_categories)}
    for p in predictions:
        c = p[2]
        if not 0 <= c < tax.n_categories:
            raise ValueError(f"prediction category {c} out of range")
        by_cat_preds[c].append(p)
    by_cat_gt: dict[int, list] = {c: [] for c in range(tax.n_categories)}
    for g in ground_truth:
        c = g[2]
        if not 0 <= c < tax.n_categories:
            raise ValueError(f"ground-truth category {c} out of range")
        by_cat_gt[c].append(g)

    per_cat = {}
    n_gt = {}
    for c in range(tax.n_categories):
        gt_c = by_cat_gt[c]
        n_gt[c] = len(gt_c)
        if not gt_c:
            per_cat[c] = float("nan")
            continue
        preds_c = sorted(by_cat_preds[c], key=lambda p: -p[3])
        flags = match_detections(preds_c, gt_c, iou_threshold)
        per_cat[c] = average_precision(flags, len(gt_c))

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


def save_predictions(path, predictions) -> None:
    """JSON-lines prediction file: boxes, integer category, score."""
    with open(path, "w") as f:
        for human_box, object_box, category, score in predictions:
            rec = {
                "human_box": np.asarray(human_box, dtype=float).tolist(),
                "object_box": np.asarray(object_box, dtype=float).tolist(),
                "category": int(category),
                "score": float(score),
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def load_predictions(path) -> list:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out.append((
                np.asarray(rec["human_box"], dtype=float),
                np.asarray(rec["object_box"], dtype=float),
                int(rec["category"]),
                float(rec["score"]),
            ))
    return out
