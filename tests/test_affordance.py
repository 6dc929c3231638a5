import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_evaluation import (affordance_map_oracle, affordance_prf1_oracle, assert_same_float, assert_same_prf1,
                             grid_sets)

from hoicompose import nn
from hoicompose.affordance import (
    PROBE_ROWS,
    AffordanceBank,
    build_bank,
    recognize,
    recognize_objects,
)
from hoicompose.evaluation import affordance_map, affordance_prf1
from hoicompose.pipeline import HOIModel, TrainConfig, init_model, train
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


@pytest.mark.parametrize("edit,needle", [
    (lambda d: d["entries"]["1"].__setitem__(0, [str(x) for x in d["entries"]["1"][0]]),
     "bank verb 1 row 0: not a number"),
    (lambda d: d["entries"]["2"][1].__setitem__(0, True), "bank verb 2 row 1: not a number"),
    (lambda d: d["entries"]["0"][0].__setitem__(3, None), "bank verb 0 row 0: not a number"),
    (lambda d: d.update(m="100"), "bank m must be an integer, got '100'"),
    (lambda d: d.update(feat_dim=6.0), "bank feat_dim must be an integer, got 6.0"),
    (lambda d: d.update(source_seed=True), "bank source_seed must be an integer, got True"),
])
def test_bank_load_rejects_non_numbers(edit, needle):
    # a float or int cast would read number strings and true as numbers
    tax, world, train_set, _ = small_world()
    doc = build_bank(train_set, tax, m=4, seed=2).to_json_dict()
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(needle)):
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
    assert r.probed.tolist() == [True, True, False]
    assert r.stored.tolist() == [4, 4, 0]
    assert r.hits.tolist() == [[3, 1, 0]]
    assert r.scores[0, 0] == pytest.approx(0.75)
    assert r.scores[0, 1] == pytest.approx(0.25)
    assert math.isnan(r.scores[0, 2])
    assert r.kept.tolist() == [[True, False, False]]


def test_recognize_keep_is_strict_inequality():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories)
    bank = bank_of({0: [[0.9], [0.1]]})  # exactly half the entries hit
    r = recognize(np.zeros(1), bank, model, tax, keep_threshold=0.5)
    assert r.scores[0, 0] == pytest.approx(0.5)
    assert not r.kept.any()


def test_recognize_all_or_nothing_classifier():
    tax = line_tax()
    always = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    never = threshold_model(n_categories=tax.n_categories, cut=10.0)
    bank = bank_of({0: [[0.5], [0.6]], 1: [[0.4]]})
    r_all = recognize(np.zeros(1), bank, always, tax)
    assert r_all.scores[0, r_all.probed].tolist() == [1.0, 1.0]
    assert r_all.kept.tolist() == [[True, True, False]]
    r_none = recognize(np.zeros(1), bank, never, tax)
    assert r_none.scores[0, r_none.probed].tolist() == [0.0, 0.0]
    assert not r_none.kept.any()


def test_recognize_empty_verb_entry_is_nan_never_kept():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    bank = bank_of({0: [[0.5]], 1: []})
    r = recognize(np.zeros(1), bank, model, tax)
    assert r.probed[1] and r.stored[1] == 0
    assert math.isnan(r.scores[0, 1])
    assert r.hits[0, 1] == 0
    assert not r.kept[0, 1]
    assert r.scores[0, 1] != 0.0  # undefined is not the same as zero


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
    assert np.array_equal(a.scores, b.scores, equal_nan=True)
    assert np.array_equal(a.kept, b.kept)


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
            assert (r.hits <= prev_hits).all()
        prev_hits = r.hits


def test_recognize_skips_no_interaction_verbs():
    tax = Taxonomy.build(["hold", "sip", "idle"], ["cup"],
                         [(0, 0), (1, 0), (2, 0)], no_interaction_verbs=[2])
    model = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    bank = bank_of({0: [[0.5]], 1: [[0.5]], 2: [[0.5]]})
    r = recognize(np.zeros(1), bank, model, tax)
    assert r.probed.tolist() == [True, True, False]
    assert r.stored[2] == 0 and r.hits[0, 2] == 0
    assert math.isnan(r.scores[0, 2]) and not r.kept[0, 2]
    assert r.kept.tolist() == [[True, True, False]]


def test_recognize_input_validation():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories)
    bank = bank_of({0: [[0.5]]})
    with pytest.raises(ValueError, match="thresholds"):
        recognize(np.zeros(1), bank, model, tax, hoi_threshold=1.5)
    with pytest.raises(ValueError, match="does not match"):
        recognize(np.zeros(2), bank, model, tax)
    with pytest.raises(ValueError, match="does not match"):
        recognize(np.float64(0.5), bank, model, tax)
    with pytest.raises(ValueError, match="does not match"):
        recognize_objects(np.zeros((3, 2)), bank, model, tax)
    with pytest.raises(ValueError, match="non-finite"):
        recognize(np.array([np.nan]), bank, model, tax)
    wide = HOIModel(sp_classifier=model.sp_classifier, hoi_classifier=nn.init_params(3, tax.n_categories, 2),
                    spatial_resolution=4, feat_dim=1)
    with pytest.raises(ValueError, match="classifier input dim 3 does not match twice the bank dim 1"):
        recognize(np.zeros(1), bank, wide, tax)
    empty = bank_of({0: []})
    with pytest.raises(ValueError, match="no entries"):
        recognize(np.zeros(1), empty, model, tax)
    for verb in (3, -1):  # a bank written for a larger taxonomy
        with pytest.raises(ValueError, match=rf"bank verbs \[{verb}\] lie outside the taxonomy's 3 verbs"):
            recognize(np.zeros(1), bank_of({0: [[0.5]], verb: [[0.5]]}), model, tax)


def test_recognize_objects_keys_and_consistency():
    tax, world, train_set, external = small_world()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=3)
    model = init_model(tax, world.feat_dim, cfg)
    bank = build_bank(train_set, tax, m=5, seed=0)
    feats = external.object_feat[:4]
    r = recognize_objects(feats, bank, model, tax)
    assert r.hits.shape == r.scores.shape == r.kept.shape == (4, tax.n_verbs)
    assert r.stored.shape == r.probed.shape == (tax.n_verbs,)
    single = recognize(feats[2], bank, model, tax)
    assert np.array_equal(r.hits[2:3], single.hits)
    assert np.array_equal(r.scores[2:3], single.scores, equal_nan=True)
    assert np.array_equal(r.kept[2:3], single.kept)
    assert recognize_objects(feats[:0], bank, model, tax).hits.shape == (0, tax.n_verbs)


# --- the dict path recognize_objects replaced, kept as the oracle ---

def recognize_oracle(object_feat, bank, model, tax, hoi_threshold=0.5, keep_threshold=0.5) -> dict:
    """One object probed verb by verb: per-verb hits, stored counts and scores
    (NaN when S_i = 0) over the bank's verbs minus the no-interaction verbs,
    plus the kept set."""
    scores, hits, stored, kept = {}, {}, {}, set()
    for v in sorted(bank.entries):
        if v in tax.no_interaction_verbs:
            continue
        feats = bank.entries[v]
        s_i = len(feats)
        stored[v] = s_i
        if s_i == 0:
            hits[v] = 0
            scores[v] = float("nan")
            continue
        own_cats = tax.categories_of_verb(v)
        if len(own_cats) == 0:
            hits[v] = 0
            scores[v] = 0.0
            continue
        x = np.hstack([feats, np.broadcast_to(object_feat, (s_i, bank.feat_dim))])
        _, probs = nn.mlp_forward(model.hoi_classifier, x)
        f_i = int((probs[:, own_cats].max(axis=1) >= hoi_threshold).sum())
        hits[v] = f_i
        scores[v] = f_i / s_i
        if scores[v] > keep_threshold:
            kept.add(v)
    return {"scores": scores, "hits": hits, "stored": stored, "kept": kept}


def recognize_objects_oracle(object_feats, bank, model, tax, hoi_threshold=0.5, keep_threshold=0.5):
    """recognize_oracle over many objects: (kept sets, score dicts, hit dicts), each keyed
    by position."""
    results = [recognize_oracle(f, bank, model, tax, hoi_threshold, keep_threshold) for f in object_feats]
    return ({i: r["kept"] for i, r in enumerate(results)}, {i: r["scores"] for i, r in enumerate(results)},
            {i: r["hits"] for i, r in enumerate(results)})


def affordances_of_object_oracle(tax, object_id) -> set:
    """Verbs valid for the object, minus the no-interaction verbs."""
    return {v for v, o in tax.hoi_pairs if o == object_id} - tax.no_interaction_verbs


VALUES = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def probe_cases(draw):
    """A small taxonomy (verbs with no category, no-interaction verbs), a bank (verbs
    with no entries, unbanked verbs), a classifier and objects, all from a few values,
    so probabilities hit 0.5 exactly and hit ratios tie."""
    n_verbs, n_objects = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    all_pairs = [(v, o) for v in range(n_verbs) for o in range(n_objects)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=len(all_pairs), unique=True))
    tax = Taxonomy.build([f"verb{v}" for v in range(n_verbs)], [f"object{o}" for o in range(n_objects)],
                         pairs, no_interaction_verbs=draw(st.sets(st.integers(0, n_verbs - 1), max_size=1)))
    feat_dim, hidden, n = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(0, 6))

    def array(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=float).reshape(shape)

    banked = sorted(draw(st.sets(st.integers(0, n_verbs - 1), min_size=1)))
    entries = {v: array(draw(st.integers(0, 4)), feat_dim) for v in banked}
    if not sum(map(len, entries.values())):
        entries[banked[0]] = array(1, feat_dim)
    bank = bank_of(entries, m=4, feat_dim=feat_dim)
    c = tax.n_categories
    hoi = nn.MLPParams(w1=array(hidden, 2 * feat_dim), b1=array(hidden), w2=array(c, hidden), b2=array(c))
    model = HOIModel(sp_classifier=nn.init_params(2 * 4 ** 2 + feat_dim, c, hidden=2, seed=0),
                     hoi_classifier=hoi, spatial_resolution=4, feat_dim=feat_dim)
    labels = np.array(draw(st.lists(st.integers(0, n_objects - 1), min_size=n, max_size=n)), dtype=np.int64)
    thresholds = draw(st.sampled_from([0.0, 0.5, 0.6, 1.0])), draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return tax, bank, model, array(n, feat_dim), labels, thresholds


@settings(max_examples=300, deadline=None)
@given(probe_cases())
def test_recognize_objects_matches_dict_oracle(case):
    tax, bank, model, feats, labels, (hoi_t, keep_t) = case
    r = recognize_objects(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
    predicted, scores, hits = recognize_objects_oracle(feats, bank, model, tax, hoi_t, keep_t)

    probed = [v for v in sorted(bank.entries) if v not in tax.no_interaction_verbs]
    assert np.flatnonzero(r.probed).tolist() == probed
    assert r.stored.tolist() == [len(bank.entries[v]) if v in probed else 0 for v in range(tax.n_verbs)]
    assert not r.hits[:, ~r.probed].any() and np.isnan(r.scores[:, ~r.probed]).all()
    for k in range(len(feats)):
        assert r.hits[k, probed].tolist() == [hits[k][v] for v in probed]
        for v in probed:
            assert_same_float(float(r.scores[k, v]), scores[k][v])
        assert set(np.flatnonzero(r.kept[k]).tolist()) == predicted[k]

    truth = tax.affordance_matrix()[labels]
    gt = {k: affordances_of_object_oracle(tax, o) for k, o in enumerate(labels.tolist())}
    assert grid_sets(truth) == gt
    assert_same_prf1(affordance_prf1(r.kept, truth), affordance_prf1_oracle(predicted, gt))
    assert_same_float(affordance_map(r.scores, truth), affordance_map_oracle(scores, gt))


def test_recognize_objects_matches_dict_oracle_on_generated_data():
    # a real world and an untrained model: hit ratios of every size
    tax, world, train_set, external = small_world(seed=4)
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4, seed=4))
    bank = build_bank(train_set, tax, m=7, seed=4)
    r = recognize_objects(external.object_feat, bank, model, tax)
    predicted, scores, hits = recognize_objects_oracle(external.object_feat, bank, model, tax)
    assert [dict(zip(range(tax.n_verbs), row)) for row in r.hits.tolist()] == list(hits.values())
    truth = tax.affordance_matrix()[external.object_label]
    gt = {k: affordances_of_object_oracle(tax, o) for k, o in enumerate(external.object_label.tolist())}
    assert_same_float(affordance_map(r.scores, truth), affordance_map_oracle(scores, gt))
    assert_same_prf1(affordance_prf1(r.kept, truth), affordance_prf1_oracle(predicted, gt))


def assert_hits_match_oracle(feats, bank, model, tax, hoi_threshold=0.5):
    r = recognize_objects(feats, bank, model, tax, hoi_threshold=hoi_threshold)
    _, _, hits = recognize_objects_oracle(feats, bank, model, tax, hoi_threshold)
    probed = np.flatnonzero(r.probed).tolist()
    assert r.hits.shape == (len(feats), tax.n_verbs)
    assert [dict(zip(probed, row)) for row in r.hits[:, probed].tolist()] == list(hits.values())
    return r


def probe_margin(feats, bank, model, tax, hoi_threshold):
    """Smallest |p - hoi_threshold| over every (object, entry) pair's own-category max."""
    margin = math.inf
    for v, entries in bank.entries.items():
        cats = tax.categories_of_verb(v)
        for feat in feats:
            _, probs = nn.mlp_forward(model.hoi_classifier, np.hstack([entries, np.broadcast_to(feat, entries.shape)]))
            margin = min(margin, float(np.abs(probs[:, cats].max(axis=1) - hoi_threshold).min()))
    return margin


def test_recognize_objects_matches_oracle_with_trained_weights():
    # trained, non-dyadic weights: the split first layer sums in another order
    # than the oracle's one forward pass, so equality rests on no probability
    # lying within rounding of the threshold
    tax, world, train_set, external = small_world(seed=5)
    cfg = TrainConfig(hidden=16, spatial_resolution=4, iterations=150, hoi_batch=16, object_batch=8, seed=5)
    model = train(train_set, external, tax, cfg).model
    bank = build_bank(train_set, tax, m=12, seed=5)
    for t in (0.3, 0.5, 0.7):
        r = assert_hits_match_oracle(external.object_feat, bank, model, tax, hoi_threshold=t)
        assert 0 < r.hits.sum() < r.stored.sum() * len(external)
        print(f"hoi_threshold {t}: smallest |p - threshold| {probe_margin(external.object_feat, bank, model, tax, t):.3g}")


def random_case(sizes, seed=0):
    """line_tax, a bank with sizes[v] random entries for verb v, and an untrained model."""
    tax = line_tax()
    rng = np.random.default_rng(seed)
    bank = bank_of({v: rng.normal(size=(s, 3)) for v, s in enumerate(sizes)}, m=max(sizes), feat_dim=3)
    model = init_model(tax, 3, TrainConfig(hidden=6, spatial_resolution=4, seed=seed))
    return tax, bank, model, rng


@pytest.mark.parametrize("s_i", [7, 100])
def test_recognize_objects_block_boundaries(s_i):
    # 0, 1, one full block of PROBE_ROWS // s_i objects and one more
    tax, bank, model, rng = random_case([s_i, 3, 1], seed=s_i)
    block = PROBE_ROWS // s_i
    for n in (0, 1, block, block + 1):
        assert_hits_match_oracle(rng.normal(size=(n, 3)), bank, model, tax)


def test_recognize_objects_verb_above_block_rows():
    # S_i > PROBE_ROWS: every block holds one object
    tax, bank, model, rng = random_case([PROBE_ROWS + 5, 2], seed=1)
    r = assert_hits_match_oracle(rng.normal(size=(3, 3)), bank, model, tax)
    assert r.stored.tolist() == [PROBE_ROWS + 5, 2, 0]


def test_recognize_objects_single_entry_verb():
    # S_i = 1: a block of PROBE_ROWS objects, then one more
    tax, bank, model, rng = random_case([1, 1, 1], seed=2)
    r = assert_hits_match_oracle(rng.normal(size=(PROBE_ROWS + 1, 3)), bank, model, tax)
    assert set(np.unique(r.hits)) <= {0, 1}


@pytest.mark.parametrize("s_i,n", [(100, 400), (PROBE_ROWS + 5, 8)])
def test_recognize_objects_working_set_is_bounded(s_i, n):
    # one block buffer of at most max(PROBE_ROWS, S_i) hidden rows, not n x S_i of them
    tax = line_tax()
    rng = np.random.default_rng(0)
    bank = bank_of({0: rng.normal(size=(s_i, 3))}, m=s_i, feat_dim=3)
    model = init_model(tax, 3, TrainConfig(hidden=64, spatial_resolution=4, seed=0))
    feats = rng.normal(size=(n, 3))
    tracemalloc.start()
    try:
        recognize_objects(feats, bank, model, tax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = max(PROBE_ROWS, s_i) + s_i + n  # the block buffer, the entry half, the object half
    assert peak < 1.25 * rows * 64 * 8 + 64 * 1024
