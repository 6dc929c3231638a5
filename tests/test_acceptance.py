"""Seven go/no-go checks, each printing one pass/fail line in the run summary.

1. Label composition agrees with an exhaustive set-membership oracle.
2. Analytic gradients agree with finite differences, unit and end-to-end.
3. Average precision agrees with a brute-force oracle on every short pattern.
4. Composite training lifts unseen-category mAP without hurting seen categories.
5. On novel objects, affordance recognition beats the ablation by a clear gap.
6. Shrinking the feature bank to a fifth barely moves the affordance ranking.
7. Structural invariants hold across generation, batching, scoring, and files.

Checks 4-6 share one multi-seed experiment (session fixture); its margins and
the tolerances here are fixed, not tuned per run.
"""
import itertools
import time

import numpy as np
import pytest

from conftest import record_acceptance

from hoicompose import nn
from hoicompose.affordance import build_bank, recognize
from hoicompose.cli import _end_to_end_errors
from hoicompose.evaluation import average_precision, make_split, match_detections
from hoicompose.experiments import (
    AFFORDANCE_F1_MIN_GAP,
    BANK_STABILITY_MAX_REL_DIFF,
    SEEN_MAX_RELATIVE_DROP,
    UNSEEN_MIN_RELATIVE_GAIN,
    TrendSettings,
    reproduce_trends,
)
from hoicompose.pipeline import TrainConfig, compose_batch, init_model, make_spatial_pattern, train
from hoicompose.seeding import substream
from hoicompose.synth import gen_dataset, gen_world, save_instances
from hoicompose.taxonomy import Taxonomy, compose_label, decouple_object, decouple_verb, one_hot


# --- criterion 1: label algebra vs exhaustive oracle ---

def test_criterion_1_label_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    n_tax, n_checked, mismatches = 50, 0, 0
    for _ in range(n_tax):
        n_v = int(rng.integers(1, 13))
        n_o = int(rng.integers(1, 13))
        n_c = int(rng.integers(1, n_v * n_o + 1))
        flat = rng.choice(n_v * n_o, size=n_c, replace=False)
        pairs = [(int(i) // n_o, int(i) % n_o) for i in flat]
        tax = Taxonomy.build([f"v{i}" for i in range(n_v)],
                             [f"o{i}" for i in range(n_o)], pairs)
        index_of = {pair: c for c, pair in enumerate(pairs)}
        for v in range(n_v):
            for o in range(n_o):
                got = compose_label(one_hot(n_o, o), one_hot(n_v, v), tax)
                want = np.zeros(n_c, dtype=got.dtype)
                if (v, o) in index_of:
                    want[index_of[(v, o)]] = 1
                n_checked += 1
                if not np.array_equal(got, want):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    passed = mismatches == 0 and elapsed < 5.0
    record_acceptance(1, "label-algebra-oracle", passed,
                      f"{n_tax} taxonomies, {n_checked} pairs, "
                      f"{mismatches} mismatches, {elapsed:.2f}s < 5s")
    assert mismatches == 0
    assert elapsed < 5.0


# --- criterion 2: gradients vs finite differences ---

def test_criterion_2_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    n_configs = 120
    worst = 0.0
    for _ in range(n_configs):
        d_in = int(rng.integers(1, 33))
        hidden = int(rng.integers(1, 33))
        k_out = int(rng.integers(1, 33))
        params = nn.init_params(d_in, k_out, hidden, seed=int(rng.integers(2**31)))
        x = rng.normal(size=d_in)
        t = (rng.random(k_out) < 0.5).astype(float)
        worst = max(worst, nn.grad_check(params, x, t).max_rel_error)
    e2e_worst = max(_end_to_end_errors(seed=0).values())
    elapsed = time.perf_counter() - start
    passed = worst < 1e-4 and e2e_worst < 1e-3 and elapsed < 30.0
    record_acceptance(2, "gradient-check", passed,
                      f"unit max {worst:.2e} < 1e-4 over {n_configs} configs, "
                      f"end-to-end max {e2e_worst:.2e} < 1e-3, {elapsed:.2f}s < 30s")
    assert worst < 1e-4
    assert e2e_worst < 1e-3
    assert elapsed < 30.0


# --- criterion 3: average precision vs brute force ---

def brute_force_ap(flags, n_pos):
    """Precision integrated over recall, one recall step of 1/n_pos per TP."""
    area = 0.0
    tp_so_far = 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp_so_far += 1
            area += (tp_so_far / rank) * (1.0 / n_pos)
    return area


def test_criterion_3_average_precision():
    start = time.perf_counter()
    n_patterns, mismatches = 0, 0
    for n in range(1, 9):
        for flags in itertools.product([False, True], repeat=n):
            tp = sum(flags)
            for n_pos in range(max(1, tp), tp + 3):
                n_patterns += 1
                got = average_precision(list(flags), n_pos)
                if abs(got - brute_force_ap(flags, n_pos)) > 1e-12:
                    mismatches += 1
    # pinned spot values, through the real matching path
    unit = np.array([0.0, 0.0, 1.0, 1.0])
    right = np.array([0.5, 0.0, 1.0, 1.0])
    far = np.array([0.0, 0.5, 0.3, 0.9])
    gt = [(unit, right, 0)]
    perfect = average_precision(match_detections([(unit, right, 0, 0.9)], gt), 1)
    # two detections, only the lower-scored one hits: single positive at rank 2
    flags = match_detections([(far, right, 0, 0.9), (unit, right, 0, 0.8)], gt)
    rank2 = average_precision(flags, 1)
    elapsed = time.perf_counter() - start
    passed = mismatches == 0 and perfect == 1.0 and rank2 == 0.5
    record_acceptance(3, "average-precision-oracle", passed,
                      f"{n_patterns} patterns exhaustive <= 8 predictions, "
                      f"{mismatches} mismatches; perfect={perfect}, rank2-of-2={rank2}")
    assert mismatches == 0
    assert perfect == 1.0
    assert rank2 == 0.5


# --- criteria 4-6: the multi-seed trend experiment ---

@pytest.fixture(scope="session")
def trend():
    start = time.perf_counter()
    report = reproduce_trends(TrendSettings(), keep_runs=True)
    return report, time.perf_counter() - start


def test_criterion_4_zero_shot_transfer(trend):
    report, elapsed = trend
    med = report.medians
    unseen_ratio = med["atl_unseen_map"] / med["baseline_unseen_map"]
    seen_ratio = med["atl_seen_map"] / med["baseline_seen_map"]
    passed = (unseen_ratio >= UNSEEN_MIN_RELATIVE_GAIN
              and seen_ratio >= SEEN_MAX_RELATIVE_DROP
              and elapsed < 600.0)
    record_acceptance(4, "zero-shot-transfer", passed,
                      f"median unseen mAP {med['atl_unseen_map']:.3f} vs "
                      f"{med['baseline_unseen_map']:.3f} (x{unseen_ratio:.2f} >= "
                      f"{UNSEEN_MIN_RELATIVE_GAIN}), seen x{seen_ratio:.2f} >= "
                      f"{SEEN_MAX_RELATIVE_DROP}, {len(report.per_seed)} seeds, "
                      f"{elapsed:.0f}s < 600s")
    assert len(report.per_seed) == 5
    assert unseen_ratio >= UNSEEN_MIN_RELATIVE_GAIN
    assert seen_ratio >= SEEN_MAX_RELATIVE_DROP
    assert report.checks["unseen_map_gain"] and report.checks["seen_map_preserved"]
    assert elapsed < 600.0


def test_criterion_5_novel_object_affordances(trend):
    report, _ = trend
    med = report.medians
    f1_gap = med["atl_affordance_f1"] - med["baseline_affordance_f1"]
    map_gap = med["atl_affordance_map"] - med["baseline_affordance_map"]
    passed = f1_gap >= AFFORDANCE_F1_MIN_GAP and map_gap > 0
    record_acceptance(5, "novel-object-affordances", passed,
                      f"median micro-F1 {med['atl_affordance_f1']:.3f} vs "
                      f"{med['baseline_affordance_f1']:.3f} (gap {f1_gap:.3f} >= "
                      f"{AFFORDANCE_F1_MIN_GAP}), affordance mAP gap {map_gap:+.3f} > 0")
    assert f1_gap >= AFFORDANCE_F1_MIN_GAP
    assert map_gap > 0
    assert report.checks["affordance_f1_gap"] and report.checks["affordance_map_higher"]


def test_criterion_6_bank_size_stability(trend):
    report, _ = trend
    b = report.bank
    passed = b["rel_diff"] <= BANK_STABILITY_MAX_REL_DIFF
    record_acceptance(6, "bank-size-stability", passed,
                      f"affordance mAP {b['map_small']:.3f} @ M={b['m_small']} vs "
                      f"{b['map_full']:.3f} @ M={b['m_full']}, rel diff "
                      f"{b['rel_diff']:.3f} <= {BANK_STABILITY_MAX_REL_DIFF}")
    assert b["m_small"] == 20 and b["m_full"] == 100
    assert b["rel_diff"] <= BANK_STABILITY_MAX_REL_DIFF
    assert report.checks["bank_stable"]


# --- criterion 7: structural invariants ---

def test_criterion_7_structural_invariants(tmp_path):
    start = time.perf_counter()
    fails = []

    def check(cond, label):
        if not cond:
            fails.append(label)

    tax, world = gen_world(n_verbs=5, n_objects=6, c_pairs=18, feat_dim=8, seed=70)
    split = make_split(tax, "novel-object", rng=substream(70, "split"))
    train_set, test_set, external = gen_dataset(world, tax, split, 200, 60, 60, seed=70)

    # split partitions the categories; training never sees a held-out one
    all_cats = set(range(tax.n_categories))
    check(split.unseen_hoi_ids | split.seen_hoi_ids == all_cats, "split does not cover all categories")
    check(not split.unseen_hoi_ids & split.seen_hoi_ids, "split groups overlap")
    leaked = any(set(np.flatnonzero(y)) & split.unseen_hoi_ids
                 for y in train_set.hoi_label)
    check(not leaked, "train set leaks unseen categories")
    test_cats = set()
    for y in test_set.hoi_label:
        test_cats |= set(np.flatnonzero(y).tolist())
    check(bool(test_cats & split.unseen_hoi_ids), "test set never exercises unseen categories")

    # every instance label decomposes and recomposes consistently
    for y in np.concatenate([train_set.hoi_label, test_set.hoi_label]):
        vl = decouple_verb(y, tax)
        ol = decouple_object(y, tax)
        check(ol.sum() == 1, "instance label spans several objects")
        recomposed = compose_label(ol, vl, tax)
        check(bool(((y == 1) <= (recomposed == 1)).all()),
              "label not contained in its recomposition")

    # composite batches: capped, never all-zero, built from the given features
    rng = np.random.default_rng(7)
    verb_items = [(f, decouple_verb(y, tax))
                  for f, y in zip(train_set.verb_feat[:8], train_set.hoi_label[:8])]
    object_items = [(f, one_hot(tax.n_objects, o))
                    for f, o in zip(external.object_feat[:4], external.object_label[:4])]
    known_halves = ({tuple(f) for f, _ in verb_items}, {tuple(f) for f, _ in object_items})
    for cap in (1, 3, 10, 10**6):
        out = compose_batch(verb_items, object_items, tax, cap, rng)
        check(len(out) <= cap, "composite batch above cap")
        for x, y in out:
            check(bool(y.any()), "all-zero composite label survived")
            d = world.feat_dim
            check(tuple(x[:d]) in known_halves[0] and tuple(x[d:]) in known_halves[1],
                  "composite input not built from the given features")

    # affordance scores: 0 <= hits <= stored <= m; kept only above threshold
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4))
    bank = build_bank(train_set, tax, m=7, seed=0)
    for feat in external.object_feat[:12]:
        r = recognize(feat, bank, model, tax)
        hits, stored, banked = r.hits[0], r.stored, r.stored > 0
        check(bool(((0 <= hits) & (hits <= stored) & (stored <= 7)).all()), "hit count outside [0, stored]")
        check(bool((abs(r.scores[0, banked] - hits[banked] / stored[banked]) < 1e-12).all()),
              "score is not hits/stored")
        check(bool((r.scores[r.kept] > 0.5).all()), "kept verb at or below keep threshold")

    # spatial patterns: each channel covers its box's share of the union frame
    rng2 = np.random.default_rng(71)
    res = 32
    for _ in range(40):
        def rand_box():
            x, y = rng2.uniform(0, 0.6, 2)
            return np.array([x, y, x + rng2.uniform(0.1, 0.4), y + rng2.uniform(0.1, 0.4)])
        b_h, b_o = rand_box(), rand_box()
        pattern = make_spatial_pattern(b_h, b_o, res)
        ux = max(b_h[2], b_o[2]) - min(b_h[0], b_o[0])
        uy = max(b_h[3], b_o[3]) - min(b_h[1], b_o[1])
        for ch, b in ((0, b_h), (1, b_o)):
            want = ((b[2] - b[0]) / ux) * ((b[3] - b[1]) / uy) * res * res
            check(abs(int(pattern[ch].sum()) - want) <= 2 * res,
                  "channel area off its analytic share")

    # determinism: identical seeds give byte-identical artifacts and weights
    rerun = gen_dataset(world, tax, split, 200, 60, 60, seed=70)
    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_instances(a_path, train_set)
    save_instances(b_path, rerun[0])
    check(a_path.read_bytes() == b_path.read_bytes(), "dataset regeneration not byte-identical")
    cfg = TrainConfig(iterations=25, hidden=8, spatial_resolution=4, seed=70)
    m1 = train(train_set, external, tax, cfg).model
    m2 = train(train_set, external, tax, cfg).model
    same = all(np.array_equal(arr, getattr(m2.hoi_classifier, name))
               for name, arr in m1.hoi_classifier.items())
    check(same, "training repeat drifted")

    elapsed = time.perf_counter() - start
    passed = not fails and elapsed < 60.0
    detail = f"{elapsed:.2f}s < 60s" if not fails else "; ".join(sorted(set(fails)))
    record_acceptance(7, "structural-invariants", passed, detail)
    assert not fails, fails
    assert elapsed < 60.0
