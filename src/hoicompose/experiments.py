"""Multi-seed trend experiments: transfer-on vs transfer-off on novel-object splits.

One seed = one world, one novel-object split, one dataset triple, two trained
models (composite branch on/off), detection mAP groups, and affordance metrics
on the held-out novel objects. The report medians these across seeds; the same
code backs both the CLI summary and the automated trend checks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from .affordance import DEFAULT_BANK_SIZE, build_bank, recognize_objects
from .evaluation import SplitSpec, affordance_map, affordance_prf1, make_split, map_report
from .pipeline import TrainConfig, TrainResult, baseline_config, predict_dataset, train
from .seeding import substream
from .synth import HOISet, ObjectSet, gen_dataset, gen_world
from .taxonomy import Taxonomy

# Trend thresholds: the margins the comparison must clear.
UNSEEN_MIN_RELATIVE_GAIN = 1.10
SEEN_MAX_RELATIVE_DROP = 0.95
AFFORDANCE_F1_MIN_GAP = 0.10
BANK_STABILITY_MAX_REL_DIFF = 0.10


@dataclass
class TrendSettings:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    n_train: int = 1500
    n_test: int = 400
    n_external: int = 400
    train: TrainConfig = field(default_factory=TrainConfig)
    bank_m: int = DEFAULT_BANK_SIZE
    bank_m_small: int = 20

    def validate(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be nonnegative integers, got {list(self.seeds)}")
        if self.n_train < 1 or self.n_test < 1 or self.n_external < 1:
            raise ValueError("dataset sizes must be positive")
        if self.bank_m < 1 or self.bank_m_small < 1:
            raise ValueError("bank sizes must be positive")
        self.train.validate()


@dataclass
class SeedRun:
    """Everything one seed produced; kept so later checks can reuse the models."""

    seed: int
    tax: Taxonomy
    split: SplitSpec
    train_set: HOISet
    test_set: HOISet
    external: ObjectSet
    atl: TrainResult
    base: TrainResult
    detection: dict  # {"atl": EvalReport, "baseline": EvalReport}
    affordance: dict  # {"atl"/"baseline": {"prf1": PRF1, "map": float}}
    novel_feats: np.ndarray  # (n_novel, feat_dim)
    novel_gt: np.ndarray  # (n_novel, n_verbs) bool, the novel objects' true affordances
    metrics: dict


def run_trend_seed(seed: int, settings: TrendSettings) -> SeedRun:
    tax, world = gen_world(seed=seed)
    split = make_split(tax, "novel-object", rng=substream(seed, "split"))
    train_set, test_set, external = gen_dataset(
        world, tax, split, settings.n_train, settings.n_test, settings.n_external, seed=seed)

    cfg = replace(settings.train, seed=seed)
    atl = train(train_set, external, tax, cfg)
    base = train(train_set, [], tax, baseline_config(cfg))

    # Rare/non-rare groups count the training labels actually drawn.
    counted = replace(tax, train_counts=train_set.hoi_label.sum(axis=0))
    detection = {
        "atl": map_report(predict_dataset(atl.model, test_set, tax), test_set, counted, split),
        "baseline": map_report(predict_dataset(base.model, test_set, tax), test_set, counted, split),
    }

    novel = external[np.isin(external.object_label, sorted(split.unseen_object_ids))]
    if not len(novel):
        raise ValueError(f"seed {seed}: no novel objects in the external stream")
    novel_feats = novel.object_feat
    novel_gt = tax.affordance_matrix()[novel.object_label]
    bank = build_bank(train_set, tax, m=settings.bank_m, seed=seed)
    affordance = {}
    for name, result in (("atl", atl), ("baseline", base)):
        r = recognize_objects(novel_feats, bank, result.model, tax)
        affordance[name] = {
            "prf1": affordance_prf1(r.kept, novel_gt),
            "map": affordance_map(r.scores, novel_gt),
        }

    metrics = {
        "seed": seed,
        "atl_unseen_map": detection["atl"].groups["unseen"]["map"],
        "atl_seen_map": detection["atl"].groups["seen"]["map"],
        "atl_full_map": detection["atl"].groups["full"]["map"],
        "baseline_unseen_map": detection["baseline"].groups["unseen"]["map"],
        "baseline_seen_map": detection["baseline"].groups["seen"]["map"],
        "baseline_full_map": detection["baseline"].groups["full"]["map"],
        "atl_affordance_f1": affordance["atl"]["prf1"].micro_f1,
        "baseline_affordance_f1": affordance["baseline"]["prf1"].micro_f1,
        "atl_affordance_map": affordance["atl"]["map"],
        "baseline_affordance_map": affordance["baseline"]["map"],
        "n_novel_objects": len(novel),
    }
    return SeedRun(
        seed=seed, tax=tax, split=split, train_set=train_set, test_set=test_set,
        external=external, atl=atl, base=base, detection=detection,
        affordance=affordance, novel_feats=novel_feats, novel_gt=novel_gt, metrics=metrics,
    )


def bank_stability(run: SeedRun, settings: TrendSettings) -> dict:
    """Affordance mAP with a small bank vs the full bank, on one seed's ATL model."""
    small = build_bank(run.train_set, run.tax, m=settings.bank_m_small, seed=run.seed)
    full = build_bank(run.train_set, run.tax, m=settings.bank_m, seed=run.seed)
    map_small, map_full = (affordance_map(recognize_objects(run.novel_feats, bank, run.atl.model, run.tax).scores,
                                          run.novel_gt) for bank in (small, full))
    rel = abs(map_small - map_full) / map_full if map_full > 0 else float("inf")
    return {
        "m_small": settings.bank_m_small,
        "m_full": settings.bank_m,
        "map_small": map_small,
        "map_full": map_full,
        "rel_diff": rel,
    }


@dataclass
class TrendReport:
    per_seed: list[dict]
    medians: dict
    bank: dict
    checks: dict
    runs: list[SeedRun] | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "per_seed": self.per_seed,
            "medians": self.medians,
            "bank_stability": self.bank,
            "checks": self.checks,
        }

    def format_table(self) -> str:
        header = (f"{'seed':>4} {'ATL-unseen':>10} {'base-unseen':>11} {'ATL-seen':>9} "
                  f"{'base-seen':>9} {'ATL-F1':>7} {'base-F1':>8} {'ATL-aMAP':>9} {'base-aMAP':>9}")
        lines = [header, "-" * len(header)]
        for m in self.per_seed:
            lines.append(
                f"{m['seed']:>4} {m['atl_unseen_map']:>10.4f} {m['baseline_unseen_map']:>11.4f} "
                f"{m['atl_seen_map']:>9.4f} {m['baseline_seen_map']:>9.4f} "
                f"{m['atl_affordance_f1']:>7.4f} {m['baseline_affordance_f1']:>8.4f} "
                f"{m['atl_affordance_map']:>9.4f} {m['baseline_affordance_map']:>9.4f}")
        med = self.medians
        lines.append("-" * len(header))
        lines.append(
            f"{'med':>4} {med['atl_unseen_map']:>10.4f} {med['baseline_unseen_map']:>11.4f} "
            f"{med['atl_seen_map']:>9.4f} {med['baseline_seen_map']:>9.4f} "
            f"{med['atl_affordance_f1']:>7.4f} {med['baseline_affordance_f1']:>8.4f} "
            f"{med['atl_affordance_map']:>9.4f} {med['baseline_affordance_map']:>9.4f}")
        lines.append("")
        b = self.bank
        lines.append(f"bank stability: aMAP {b['map_small']:.4f} @ M={b['m_small']} vs "
                     f"{b['map_full']:.4f} @ M={b['m_full']} (rel diff {b['rel_diff']:.3f})")
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
        return "\n".join(lines)


def reproduce_trends(settings: TrendSettings | None = None, keep_runs: bool = False) -> TrendReport:
    """Run every seed, median the metrics, and evaluate the trend checks."""
    settings = settings or TrendSettings()
    settings.validate()
    runs = [run_trend_seed(seed, settings) for seed in settings.seeds]
    per_seed = [r.metrics for r in runs]

    keys = [k for k in per_seed[0] if k not in ("seed", "n_novel_objects")]
    medians = {k: median(m[k] for m in per_seed) for k in keys}
    bank = bank_stability(runs[0], settings)

    checks = {
        "unseen_map_gain": medians["atl_unseen_map"] >= UNSEEN_MIN_RELATIVE_GAIN * medians["baseline_unseen_map"],
        "seen_map_preserved": medians["atl_seen_map"] >= SEEN_MAX_RELATIVE_DROP * medians["baseline_seen_map"],
        "affordance_f1_gap": medians["atl_affordance_f1"] >= medians["baseline_affordance_f1"] + AFFORDANCE_F1_MIN_GAP,
        "affordance_map_higher": medians["atl_affordance_map"] > medians["baseline_affordance_map"],
        "bank_stable": bank["rel_diff"] <= BANK_STABILITY_MAX_REL_DIFF,
    }
    return TrendReport(per_seed=per_seed, medians=medians, bank=bank, checks=checks,
                       runs=runs if keep_runs else None)


def save_trend_report(report: TrendReport, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
