import math

import numpy as np
import pytest

from hoicompose import nn
from hoicompose.affordance import (
    AffordanceBank,
    build_bank,
    recognize,
    recognize_objects,
)
from hoicompose.pipeline import HOIModel, TrainConfig, init_model
from hoicompose.synth import gen_dataset, gen_world
from hoicompose.taxonomy import Taxonomy


def small_world(seed=0):
    tax, world = gen_world(n_verbs=4, n_objects=5, c_pairs=12, feat_dim=6, seed=seed)
    train_set, _, external = gen_dataset(world, tax, None, 80, 10, 10, seed=seed)
    return tax, world, train_set, external


def threshold_model(feat_dim=1, n_categories=3, cut=0.5, sharpness=1e4):
    """Classifier whose every category fires iff the banked verb feature > cut.

    hidden unit h = relu(bank_feat[0]); logit = sharpness * (h - cut).
    The object half of the input is ignored, which makes hit counts exact.
    """
    hoi = nn.MLPParams(
        w1=np.array([[1.0] + [0.0] * (2 * feat_dim - 1)]),
        b1=np.zeros(1),
        w2=np.full((n_categories, 1), sharpness),
        b2=np.full(n_categories, -sharpness * cut),
    )
    sp = nn.init_params(2 * 4 ** 2 + feat_dim, n_categories, hidden=2, seed=0)
    model = HOIModel(sp_classifier=sp, hoi_classifier=hoi, spatial_resolution=4, feat_dim=feat_dim)
    model.validate()
    return model


def line_tax():
    # three verbs on one object; category c belongs to verb c
    return Taxonomy.build(["hold", "sip", "wave"], ["cup"], [(0, 0), (1, 0), (2, 0)])


def bank_of(entries, m=10, feat_dim=1):
    arrs = {v: np.asarray(rows, dtype=float).reshape(-1, feat_dim) for v, rows in entries.items()}
    bank = AffordanceBank(entries=arrs, m=m, feat_dim=feat_dim, source_seed=0)
    bank.validate()
    return bank


# --- building ---

def test_bank_stores_all_when_under_cap():
    tax, world, train_set, _ = small_world()
    bank = build_bank(train_set, tax, m=10**6, seed=0)
    # every verb stores its whole pool, in instance order
    from hoicompose.taxonomy import decouple_verb
    pools = {v: [] for v in range(tax.n_verbs)}
    for label, feat in zip(train_set.hoi_label, train_set.verb_feat):
        for v in np.flatnonzero(decouple_verb(label, tax)):
            pools[int(v)].append(feat)
    assert bank.s_counts() == {v: len(pool) for v, pool in pools.items()}
    for v, pool in pools.items():
        np.testing.assert_array_equal(bank.entries[v], np.reshape(pool, (-1, world.feat_dim)))


def test_bank_cap_binds():
    tax, world, train_set, _ = small_world()
    bank = build_bank(train_set, tax, m=3, seed=0)
    assert all(s <= 3 for s in bank.s_counts().values())
    assert max(bank.s_counts().values()) == 3
    # entries come from real training features
    flat = {tuple(f) for f in train_set.verb_feat}
    for arr in bank.entries.values():
        for row in arr:
            assert tuple(row) in flat


def test_bank_determinism_and_seed_sensitivity():
    tax, world, train_set, _ = small_world()
    a = build_bank(train_set, tax, m=3, seed=5)
    b = build_bank(train_set, tax, m=3, seed=5)
    c = build_bank(train_set, tax, m=3, seed=6)
    for v in a.entries:
        np.testing.assert_array_equal(a.entries[v], b.entries[v])
    assert any(not np.array_equal(a.entries[v], c.entries[v]) for v in a.entries)


def test_bank_empty_train_warns():
    tax, _, train_set, _ = small_world()
    with pytest.warns(UserWarning, match="empty train set"):
        bank = build_bank(train_set[:0], tax, m=5, seed=0)
    assert bank.total_entries == 0


def test_bank_rejects_bad_cap():
    tax, world, train_set, _ = small_world()
    with pytest.raises(ValueError):
        build_bank(train_set, tax, m=0)


def test_bank_skips_no_interaction_verbs():
    tax, world, train_set, _ = small_world()
    quiet = Taxonomy.build(tax.verb_names, tax.object_names, tax.hoi_pairs,
                           train_counts=tax.train_counts, no_interaction_verbs=[0])
    bank = build_bank(train_set, quiet, m=5, seed=0)
    assert 0 not in bank.entries
    assert set(bank.entries) == {1, 2, 3}


def test_bank_json_roundtrip(tmp_path):
    tax, world, train_set, _ = small_world()
    bank = build_bank(train_set, tax, m=4, seed=2)
    path = tmp_path / "bank.json"
    bank.save(path)
    back = AffordanceBank.load(path)
    assert back.m == bank.m and back.feat_dim == bank.feat_dim
    for v in bank.entries:
        np.testing.assert_array_equal(back.entries[v], bank.entries[v])
    with pytest.raises(ValueError, match="extra"):
        AffordanceBank.from_json_dict({**bank.to_json_dict(), "extra": 1})
    doc = bank.to_json_dict()
    doc["entries"]["1"][0][0] = float("nan")
    with pytest.raises(ValueError, match="verb 1 entries hold non-finite values"):
        AffordanceBank.from_json_dict(doc)


def test_bank_validate_rejects_over_cap():
    bank = bank_of({0: [[0.1]]}, m=1)
    bank.entries[0] = np.zeros((3, 1))  # mutate past the cap
    with pytest.raises(ValueError, match="above cap"):
        bank.validate()


# --- recognition ---

def test_recognize_hit_ratio_exact():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories)
    bank = bank_of({0: [[0.9], [0.8], [0.7], [0.1]], 1: [[0.9], [0.1], [0.2], [0.3]]})
    r = recognize(np.zeros(1), bank, model, tax)
    assert r.stored == {0: 4, 1: 4}
    assert r.hits == {0: 3, 1: 1}
    assert r.scores[0] == pytest.approx(0.75)
    assert r.scores[1] == pytest.approx(0.25)
    assert r.kept == {0}


def test_recognize_keep_is_strict_inequality():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories)
    bank = bank_of({0: [[0.9], [0.1]]})  # exactly half the entries hit
    r = recognize(np.zeros(1), bank, model, tax, keep_threshold=0.5)
    assert r.scores[0] == pytest.approx(0.5)
    assert r.kept == set()


def test_recognize_all_or_nothing_classifier():
    tax = line_tax()
    always = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    never = threshold_model(n_categories=tax.n_categories, cut=10.0)
    bank = bank_of({0: [[0.5], [0.6]], 1: [[0.4]]})
    r_all = recognize(np.zeros(1), bank, always, tax)
    assert all(s == 1.0 for s in r_all.scores.values())
    assert r_all.kept == {0, 1}
    r_none = recognize(np.zeros(1), bank, never, tax)
    assert all(s == 0.0 for s in r_none.scores.values())
    assert r_none.kept == set()


def test_recognize_empty_verb_entry_is_nan_never_kept():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    bank = bank_of({0: [[0.5]], 1: []})
    r = recognize(np.zeros(1), bank, model, tax)
    assert math.isnan(r.scores[1])
    assert r.hits[1] == 0
    assert 1 not in r.kept
    assert r.scores[1] != 0.0  # undefined is not the same as zero


def test_recognize_entry_order_irrelevant():
    tax, world, train_set, external = small_world()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=1)
    model = init_model(tax, world.feat_dim, cfg)
    bank = build_bank(train_set, tax, m=6, seed=0)
    shuffled = AffordanceBank(
        entries={v: arr[::-1].copy() for v, arr in bank.entries.items()},
        m=bank.m, feat_dim=bank.feat_dim, source_seed=bank.source_seed,
    )
    feat = external.object_feat[0]
    a = recognize(feat, bank, model, tax)
    b = recognize(feat, shuffled, model, tax)
    assert a.scores == b.scores and a.kept == b.kept


def test_recognize_threshold_monotonicity():
    tax, world, train_set, external = small_world()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=2)
    model = init_model(tax, world.feat_dim, cfg)
    bank = build_bank(train_set, tax, m=8, seed=0)
    feat = external.object_feat[0]
    prev_hits = None
    for t in (0.0, 0.3, 0.5, 0.7, 1.0):
        r = recognize(feat, bank, model, tax, hoi_threshold=t)
        if prev_hits is not None:
            assert all(r.hits[v] <= prev_hits[v] for v in r.hits)
        prev_hits = r.hits


def test_recognize_skips_no_interaction_verbs():
    tax = Taxonomy.build(["hold", "sip", "idle"], ["cup"],
                         [(0, 0), (1, 0), (2, 0)], no_interaction_verbs=[2])
    model = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    bank = bank_of({0: [[0.5]], 1: [[0.5]], 2: [[0.5]]})
    r = recognize(np.zeros(1), bank, model, tax)
    assert 2 not in r.scores and 2 not in r.kept
    assert set(r.scores) == {0, 1}


def test_recognize_input_validation():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories)
    bank = bank_of({0: [[0.5]]})
    with pytest.raises(ValueError, match="thresholds"):
        recognize(np.zeros(1), bank, model, tax, hoi_threshold=1.5)
    with pytest.raises(ValueError, match="does not match"):
        recognize(np.zeros(2), bank, model, tax)
    with pytest.raises(ValueError, match="non-finite"):
        recognize(np.array([np.nan]), bank, model, tax)
    empty = bank_of({0: []})
    with pytest.raises(ValueError, match="no entries"):
        recognize(np.zeros(1), empty, model, tax)


def test_recognize_objects_keys_and_consistency():
    tax, world, train_set, external = small_world()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=3)
    model = init_model(tax, world.feat_dim, cfg)
    bank = build_bank(train_set, tax, m=5, seed=0)
    feats = external.object_feat[:4]
    predicted, scores = recognize_objects(feats, bank, model, tax)
    assert set(predicted) == set(scores) == {0, 1, 2, 3}
    single = recognize(feats[2], bank, model, tax)
    assert predicted[2] == single.kept
    assert scores[2] == single.scores
