"""Multi-seed trend experiments: transfer-on vs transfer-off on novel-object splits.

One seed = one world, one novel-object split, one dataset triple, two trained
models (composite branch on/off), detection mAP groups, and affordance metrics
on the held-out novel objects. The report medians these across seeds; the same
code backs both the CLI summary and the automated trend checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import median
from typing import NamedTuple

import numpy as np

from . import parallel
from .affordance import DEFAULT_BANK_SIZE, build_bank, recognize_objects
from .evaluation import affordance_map, affordance_prf1, candidate_pairs, make_split, map_report
from .pipeline import TrainConfig, baseline_config, predict_dataset, train
from .seeding import substream
from .synth import gen_dataset, gen_world

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


class TrendSeed(NamedTuple):
    """One seed's metrics, and its bank-stability dict when asked for: all that
    a trend child sends back, so no taxonomy, dataset or model is pickled."""

    metrics: dict
    bank: dict | None


def run_trend_seed(seed: int, settings: TrendSettings, with_bank: bool = False) -> TrendSeed:
    tax, world = gen_world(seed=seed)
    split = make_split(tax, "novel-object", rng=substream(seed, "split"))
    train_set, test_set, external = gen_dataset(
        world, tax, split, settings.n_train, settings.n_test, settings.n_external, seed=seed)

    cfg = replace(settings.train, seed=seed)
    models = {"atl": train(train_set, external, tax, cfg).model,
              "baseline": train(train_set, [], tax, baseline_config(cfg)).model}

    # Rare/non-rare groups count the training labels actually drawn.
    counted = replace(tax, train_counts=train_set.hoi_label.sum(axis=0))
    metrics = {"seed": seed}
    pairs = candidate_pairs(test_set)  # one self-join of the test boxes serves both models
    for name, model in models.items():
        groups = map_report(predict_dataset(model, test_set, tax), test_set, counted, split, pairs=pairs).groups
        metrics.update({f"{name}_{group}_map": groups[group]["map"] for group in ("unseen", "seen", "full")})

    novel = external[np.isin(external.object_label, sorted(split.unseen_object_ids))]
    if not len(novel):
        raise ValueError(f"seed {seed}: no novel objects in the external stream")
    novel_gt = tax.affordance_matrix()[novel.object_label]
    bank = build_bank(train_set, tax, m=settings.bank_m, seed=seed)
    recognized = {name: recognize_objects(novel.object_feat, bank, model, tax) for name, model in models.items()}
    metrics.update({f"{name}_affordance_f1": affordance_prf1(r.kept, novel_gt).micro_f1
                    for name, r in recognized.items()})
    metrics.update({f"{name}_affordance_map": affordance_map(r.scores, novel_gt) for name, r in recognized.items()})
    metrics["n_novel_objects"] = len(novel)
    if not with_bank:
        return TrendSeed(metrics, None)
    small = build_bank(train_set, tax, m=settings.bank_m_small, seed=seed)
    map_small = affordance_map(recognize_objects(novel.object_feat, small, models["atl"], tax).scores, novel_gt)
    return TrendSeed(metrics, bank_stability(map_small, metrics["atl_affordance_map"], settings))


def bank_stability(map_small: float, map_full: float, settings: TrendSettings) -> dict:
    """The bank-size check: affordance mAP with the small bank vs the full bank,
    both on one seed's ATL model."""
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

    def to_json_dict(self) -> dict:
        return {
            "per_seed": self.per_seed,
            "medians": self.medians,
            "bank_stability": self.bank,
            "checks": self.checks,
        }

    def format_table(self) -> str:
        header = (f"{'seed':>4} {'ATL-unseen':>10} {'base-unseen':>11} {'ATL-seen':>9} "
                  f"{'base-seen':>9} {'ATL-F1':>7} {'base-F1':>8} {'ATL-aMAP':>9} {'base-aMAP':>9}")

        def row(label, m: dict) -> str:
            return (f"{label:>4} {m['atl_unseen_map']:>10.4f} {m['baseline_unseen_map']:>11.4f} "
                    f"{m['atl_seen_map']:>9.4f} {m['baseline_seen_map']:>9.4f} "
                    f"{m['atl_affordance_f1']:>7.4f} {m['baseline_affordance_f1']:>8.4f} "
                    f"{m['atl_affordance_map']:>9.4f} {m['baseline_affordance_map']:>9.4f}")

        rule = "-" * len(header)
        lines = [header, rule, *(row(m["seed"], m) for m in self.per_seed), rule, row("med", self.medians), ""]
        b = self.bank
        lines.append(f"bank stability: aMAP {b['map_small']:.4f} @ M={b['m_small']} vs "
                     f"{b['map_full']:.4f} @ M={b['m_full']} (rel diff {b['rel_diff']:.3f})")
        for name, ok in self.checks.items():
            lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
        return "\n".join(lines)


def reproduce_trends(settings: TrendSettings | None = None) -> TrendReport:
    """Run every seed, median the metrics, and evaluate the trend checks. The
    first seed's run also gives the bank-stability check.

    With two seeds or more, the seeds split in seed order into two halves,
    each run in its own forked child (parallel.fork_pair): this side of the
    first half's pair forks the second half's, so this process trains no seed,
    and each child's train and probe stay inline. On one usable CPU, without a
    fork, or when a half fails in its child and again here, the seeds run one
    after another in this process, the serial loop, which raises the first
    error in seed order.
    """
    settings = settings or TrendSettings()
    settings.validate()
    seeds, half = settings.seeds, len(settings.seeds) // 2

    def run(part: tuple[int, ...], first: bool) -> list[TrendSeed]:
        return [run_trend_seed(seed, settings, first and i == 0) for i, seed in enumerate(part)]

    def second_half(_) -> list[TrendSeed]:
        pair = parallel.fork_pair(lambda _: run(seeds[half:], False), lambda _: None)
        return pair[0] if pair else run(seeds[half:], False)

    halves = parallel.fork_pair(lambda _: run(seeds[:half], True), second_half) if half else None
    results = halves[0] + halves[1] if halves else run(seeds, True)
    per_seed = [metrics for metrics, _ in results]
    bank = results[0].bank

    keys = [k for k in per_seed[0] if k not in ("seed", "n_novel_objects")]
    medians = {k: median(m[k] for m in per_seed) for k in keys}

    checks = {
        "unseen_map_gain": medians["atl_unseen_map"] >= UNSEEN_MIN_RELATIVE_GAIN * medians["baseline_unseen_map"],
        "seen_map_preserved": medians["atl_seen_map"] >= SEEN_MAX_RELATIVE_DROP * medians["baseline_seen_map"],
        "affordance_f1_gap": medians["atl_affordance_f1"] >= medians["baseline_affordance_f1"] + AFFORDANCE_F1_MIN_GAP,
        "affordance_map_higher": medians["atl_affordance_map"] > medians["baseline_affordance_map"],
        "bank_stable": bank["rel_diff"] <= BANK_STABILITY_MAX_REL_DIFF,
    }
    return TrendReport(per_seed=per_seed, medians=medians, bank=bank, checks=checks)
