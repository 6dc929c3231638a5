import hashlib
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_evaluation import (affordance_map_oracle, affordance_prf1_oracle, assert_same_float, assert_same_prf1,
                             grid_sets)
from test_pipeline import edge_floats

from hoicompose import affordance, nn
from hoicompose.affordance import (
    PROBE_CELLS,
    PROBE_COLS,
    AffordanceBank,
    build_bank,
    decision_point,
    recognize,
    recognize_objects,
)
from hoicompose.evaluation import affordance_map, affordance_prf1, make_split
from hoicompose.pipeline import HOIModel, TrainConfig, init_model, train
from hoicompose.seeding import substream
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
    bank = AffordanceBank(entries=arrs, m=m, feat_dim=feat_dim)
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


def bank_to_json_dict(bank: AffordanceBank) -> dict:
    """A bank as the object of a schema-1 bank.json, whose writer this was: the
    oracle that rebuilds that text from entries.npy."""
    return {
        "m": bank.m,
        "feat_dim": bank.feat_dim,
        "entries": {str(v): bank.entries[v].tolist() for v in sorted(bank.entries)},
    }


def saved_bank(tmp_path, edit=None, entries=None):
    """The path of a saved small-world bank, its document edited by edit(doc)
    and its entries.npy replaced by entries (with the document's sha256 of it)."""
    tax, world, train_set, _ = small_world()
    path = tmp_path / "bank.json"
    build_bank(train_set, tax, m=4, seed=2).save(path)
    doc = json.loads(path.read_text())
    if entries is not None:
        np.save(tmp_path / "entries.npy", entries, allow_pickle=True)
        doc["arrays"]["entries.npy"] = hashlib.sha256((tmp_path / "entries.npy").read_bytes()).hexdigest()
    if edit is not None:
        edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_bank_json_roundtrip(tmp_path):
    tax, world, train_set, _ = small_world()
    bank = build_bank(train_set, tax, m=4, seed=2)
    path = tmp_path / "bank.json"
    bank.save(path)
    back = AffordanceBank.load(path)
    assert back.m == bank.m and back.feat_dim == bank.feat_dim
    assert bank_to_json_dict(back) == bank_to_json_dict(bank)
    with pytest.raises(ValueError, match="extra"):
        AffordanceBank.load(saved_bank(tmp_path, lambda d: d.update(extra=1)))
    with pytest.raises(ValueError, match=re.escape("unknown bank fields: ['source_seed']")):  # a field since dropped
        AffordanceBank.load(saved_bank(tmp_path, lambda d: d.update(source_seed=2)))
    rows = np.concatenate([bank.entries[v] for v in sorted(bank.entries)])
    rows[len(bank.entries[0])] = np.nan  # verb 1's first entry
    with pytest.raises(ValueError, match=re.escape("entries.npy: non-finite values")):
        AffordanceBank.load(saved_bank(tmp_path, entries=rows))


@pytest.mark.parametrize("edit,needle", [
    (lambda d: d["counts"].update({"1": "4"}), "bank verb 1 count must be a nonnegative integer, got '4'"),
    (lambda d: d["counts"].update({"2": True}), "bank verb 2 count must be a nonnegative integer, got True"),
    (lambda d: d["counts"].update({"0": -1, "1": d["counts"]["1"] + 1}),
     "bank verb 0 count must be a nonnegative integer, got -1"),
    (lambda d: d.update(m="100"), "bank m must be an integer, got '100'"),
    (lambda d: d.update(feat_dim=6.0), "bank feat_dim must be an integer, got 6.0"),
    (lambda d: d.update(m=True), "bank m must be an integer, got True"),
    (lambda d: d["counts"].update({"01": d["counts"].pop("1")}), "bank counts key '01' is not a verb id in decimal"),
])
def test_bank_load_rejects_non_numbers(tmp_path, edit, needle):
    # a float or int cast would read number strings and true as numbers
    with pytest.raises(ValueError, match=re.escape(needle)):
        AffordanceBank.load(saved_bank(tmp_path, edit))


@pytest.mark.parametrize("entries,needle", [
    (lambda rows: rows.astype(str), "entries.npy: dtype <U32, expected <f8"),
    (lambda rows: rows > 0, "entries.npy: dtype |b1, expected <f8"),
    (lambda rows: rows.astype(object), "entries.npy: Object arrays cannot be loaded when allow_pickle=False"),
    (lambda rows: rows.astype(np.float32), "entries.npy: dtype <f4, expected <f8"),
    (lambda rows: rows[:-1], "entries.npy: shape (15, 6), expected (16, 6)"),
    (lambda rows: rows.T, "entries.npy: shape (6, 16), expected (16, 6)"),
])
def test_bank_load_rejects_bad_entries(tmp_path, entries, needle):
    # 16 entries: verbs of 4, 4, 4 and 4 rows; each file's sha256 is in the document
    tax, world, train_set, _ = small_world()
    bank = build_bank(train_set, tax, m=4, seed=2)
    rows = np.concatenate([bank.entries[v] for v in sorted(bank.entries)])
    with pytest.raises(ValueError, match=re.escape(needle)):
        AffordanceBank.load(saved_bank(tmp_path, entries=entries(rows)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(st.integers(-3, 40), min_size=1, max_size=4, unique=True), st.data())
def test_bank_roundtrip_is_bit_equal(feat_dim, m, counts, verbs, data):
    # any verb ids, a verb of 0 entries, and edge values anywhere in the entries
    entries = {}
    for v, n in zip(verbs, counts):
        values = data.draw(st.lists(edge_floats, min_size=min(n, m) * feat_dim, max_size=min(n, m) * feat_dim))
        entries[v] = np.array(values, dtype=float).reshape(-1, feat_dim)
    bank = AffordanceBank(entries=entries, m=m, feat_dim=feat_dim)
    with tempfile.TemporaryDirectory() as tmp:
        bank.save(f"{tmp}/bank.json")
        back = AffordanceBank.load(f"{tmp}/bank.json")
    assert (back.m, back.feat_dim, sorted(back.entries)) == (m, feat_dim, sorted(entries))
    for v, rows in entries.items():
        assert back.entries[v].shape == rows.shape and back.entries[v].tobytes() == rows.tobytes(), v


def test_a_second_bank_in_one_directory_replaces_the_first_ones_entries(tmp_path):
    # as with checkpoints: one directory holds one bank, and the first document
    # is refused by its digest rather than read with the second's entries
    bank_of({0: [[0.1]]}).save(tmp_path / "a.json")
    bank_of({0: [[0.2]]}).save(tmp_path / "b.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "entries.npy"]
    with pytest.raises(ValueError, match=r"^entries\.npy: sha256 [0-9a-f]{64}, its document records "):
        AffordanceBank.load(tmp_path / "a.json")
    assert AffordanceBank.load(tmp_path / "b.json").entries[0].tolist() == [[0.2]]


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
    assert np.isnan(r.scores[0]).tolist() == [False, False, True]  # verb 2 is not in the bank
    assert r.stored.tolist() == [4, 4, 0]
    assert r.hits.tolist() == [[3, 1, 0]]
    assert r.scores[0, 0] == pytest.approx(0.75)
    assert r.scores[0, 1] == pytest.approx(0.25)
    assert math.isnan(r.scores[0, 2])
    assert r.kept.tolist() == [[True, False, False]]


def test_two_recognize_calls_bisect_once():
    # decision_point depends on the threshold alone, so its 64-step bisection
    # runs at the first probe of a threshold only
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories)
    bank = bank_of({0: [[0.9], [0.8]], 1: [[0.1]]})
    decision_point.cache_clear()
    with mock.patch.object(affordance.nn, "sigmoid", wraps=nn.sigmoid) as sigmoid:
        first = recognize(np.zeros(1), bank, model, tax, hoi_threshold=0.3)
        bisection = sigmoid.call_count
        second = recognize(np.zeros(1), bank, model, tax, hoi_threshold=0.3)
    assert bisection >= 60 and sigmoid.call_count == bisection
    assert decision_point.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert first.hits.tolist() == second.hits.tolist() == [[2, 0, 0]]


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
    assert r_all.scores[0, sorted(bank.entries)].tolist() == [1.0, 1.0]
    assert r_all.kept.tolist() == [[True, True, False]]
    r_none = recognize(np.zeros(1), bank, never, tax)
    assert r_none.scores[0, sorted(bank.entries)].tolist() == [0.0, 0.0]
    assert not r_none.kept.any()


def test_recognize_empty_verb_entry_is_nan_never_kept():
    tax = line_tax()
    model = threshold_model(n_categories=tax.n_categories, cut=-10.0)
    bank = bank_of({0: [[0.5]], 1: []})
    r = recognize(np.zeros(1), bank, model, tax)
    assert 1 in bank.entries and r.stored[1] == 0
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
        m=bank.m, feat_dim=bank.feat_dim,
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
    assert r.stored.shape == (tax.n_verbs,)
    single = recognize(feats[2], bank, model, tax)
    assert np.array_equal(r.hits[2:3], single.hits)
    assert np.array_equal(r.scores[2:3], single.scores, equal_nan=True)
    assert np.array_equal(r.kept[2:3], single.kept)
    assert recognize_objects(feats[:0], bank, model, tax).hits.shape == (0, tax.n_verbs)


# --- the dict path recognize_objects replaced, kept as the oracle ---

def recognize_oracle(object_feat, bank, model, tax, hoi_threshold=0.5, keep_threshold=0.5) -> dict:
    """One object probed verb by verb: per-verb hits, stored counts and scores
    (NaN when S_i = 0) over the bank's verbs, plus the kept set."""
    scores, hits, stored, kept = {}, {}, {}, set()
    for v in sorted(bank.entries):
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
    """Verbs valid for the object."""
    return {v for v, o in tax.hoi_pairs if o == object_id}


VALUES = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def probe_cases(draw):
    """A small taxonomy (verbs with no category), a bank (verbs
    with no entries, unbanked verbs), a classifier and objects, all from a few values,
    so probabilities hit 0.5 exactly and hit ratios tie."""
    n_verbs, n_objects = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    all_pairs = [(v, o) for v in range(n_verbs) for o in range(n_objects)]
    pairs = draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=len(all_pairs), unique=True))
    tax = Taxonomy.build([f"verb{v}" for v in range(n_verbs)], [f"object{o}" for o in range(n_objects)], pairs)
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
@given(probe_cases(), st.integers(1, 3), st.integers(1, 3))
def test_recognize_objects_matches_dict_oracle(case, cols, cells):
    tax, bank, model, feats, labels, (hoi_t, keep_t) = case
    # blocks of 1-3 objects, and hidden and best-logit buffers of 1-3 cells (at least one
    # entry): up to 6 objects and 4 entries a verb cross every block, group and buffer edge
    with mock.patch.object(affordance, "PROBE_COLS", cols), mock.patch.object(affordance, "PROBE_CELLS", cells):
        r = recognize_objects(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
    predicted, scores, hits = recognize_objects_oracle(feats, bank, model, tax, hoi_t, keep_t)

    probed = sorted(bank.entries)
    unbanked = [v for v in range(tax.n_verbs) if v not in bank.entries]
    assert r.stored.tolist() == [len(bank.entries[v]) if v in probed else 0 for v in range(tax.n_verbs)]
    assert not r.hits[:, unbanked].any() and np.isnan(r.scores[:, unbanked]).all()
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
    probed = sorted(bank.entries)
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
    # 0, 1, one full block of PROBE_COLS objects and one more; at hidden 6, a full
    # block's hidden buffer holds 10 entries and its best-logit buffer up to 64
    tax, bank, model, rng = random_case([s_i, 3, 1], seed=s_i)
    for n in (0, 1, PROBE_COLS, PROBE_COLS + 1):
        assert_hits_match_oracle(rng.normal(size=(n, 3)), bank, model, tax)


def test_recognize_objects_verb_above_block_rows():
    # S_i > PROBE_CELLS: no hidden or best-logit buffer holds all of the verb's entries
    tax, bank, model, rng = random_case([PROBE_CELLS + 5, 2], seed=1)
    r = assert_hits_match_oracle(rng.normal(size=(3, 3)), bank, model, tax)
    assert r.stored.tolist() == [PROBE_CELLS + 5, 2, 0]


def test_recognize_objects_single_entry_verb():
    # S_i = 1: a block of PROBE_COLS objects, then one more
    tax, bank, model, rng = random_case([1, 1, 1], seed=2)
    r = assert_hits_match_oracle(rng.normal(size=(PROBE_COLS + 1, 3)), bank, model, tax)
    assert set(np.unique(r.hits)) <= {0, 1}


def object_major_hits(feats, bank, model, tax, hoi_threshold=0.5, block_rows=1024):
    """The hits of the object-major probe that recognize_objects replaced: for each
    verb, blocks of about block_rows (object, entry) rows of relu(e + o), summed in
    one buffer and read through the verb's own rows of W2."""
    hoi = model.hoi_classifier
    w1_verb, w1_obj = hoi.w1[:, :bank.feat_dim], hoi.w1[:, bank.feat_dim:]
    obj_hidden = feats @ w1_obj.T
    hits = np.zeros((len(feats), tax.n_verbs), dtype=np.int64)
    for v, entries in bank.entries.items():
        cats = tax.categories_of_verb(v)
        if not len(entries) or not len(cats):
            continue
        entry_hidden = entries @ w1_verb.T + hoi.b1
        block = max(1, block_rows // len(entries))
        for start in range(0, len(feats), block):
            h = np.maximum(entry_hidden + obj_hidden[start:start + block, None], 0.0)
            logits = hoi.w2[cats] @ h.reshape(-1, hoi.hidden).T + hoi.b2[cats, None]
            probs = nn.sigmoid(logits.max(axis=0)).reshape(len(h), len(entries))
            hits[start:start + len(h), v] = (probs >= hoi_threshold).sum(axis=1)
    return hits


def test_recognize_objects_matches_object_major_oracle_at_the_chain_shape():
    # the chain's affordance step: its 1,245 novel objects against its 1,091 bank
    # entries over 12 verbs, hidden 64, with an untrained classifier whose
    # probabilities sit near 0.5, so hits split and every block and buffer fills
    tax, world = gen_world(seed=7)
    split = make_split(tax, "novel-object", rng=substream(7, "split"))
    train_set, _, external = gen_dataset(world, tax, split, 4000, 0, 6400, seed=7)
    novel = external.object_feat[np.isin(external.object_label, sorted(split.unseen_object_ids))]
    bank = build_bank(train_set, tax)
    model = init_model(tax, world.feat_dim, TrainConfig(seed=7))
    assert (len(novel), bank.total_entries, model.hoi_classifier.hidden) == (1245, 1091, 64)
    r = recognize_objects(novel, bank, model, tax)
    assert 0 < r.hits.sum() < r.stored.sum() * len(novel)
    assert np.array_equal(r.hits, object_major_hits(novel, bank, model, tax))


def float64_probe_hits(feats, bank, model, tax, hoi_threshold=0.5):
    """The hits of the float64 entry-major probe that recognize_objects replaced:
    the same blocks, groups and buffers, read through the current PROBE_COLS
    and PROBE_CELLS, with the sigmoid and threshold run on each full buffer."""
    hoi = model.hoi_classifier
    w1_verb, w1_obj, hidden = hoi.w1[:, :bank.feat_dim], hoi.w1[:, bank.feat_dim:], hoi.hidden
    probes = [(v, hoi.w2[cats], hoi.b2[cats, None]) for v in sorted(bank.entries)
              if len(bank.entries[v]) and len(cats := tax.categories_of_verb(v))]
    most = max((len(bank.entries[v]) for v, _, _ in probes), default=0)
    hits = np.zeros((len(feats), tax.n_verbs), dtype=np.int64)
    for start in range(0, len(feats), affordance.PROBE_COLS):
        neg = w1_obj @ feats[start:start + affordance.PROBE_COLS].T
        np.negative(neg, out=neg)
        cols = neg.shape[1]
        rows = min(most, max(1, affordance.PROBE_CELLS // cols))
        group = min(rows, max(1, affordance.PROBE_CELLS // (hidden * cols)))
        h_buf, best = np.empty(hidden * group * cols), np.empty((rows, cols))
        for v, w2, b2 in probes:
            base = b2 - w2 @ neg
            entry_hidden = bank.entries[v] @ w1_verb.T
            entry_hidden += hoi.b1
            for first in range(0, len(entry_hidden), rows):
                chunk = entry_hidden[first:first + rows]
                for g0 in range(0, len(chunk), group):
                    e = chunk[g0:g0 + group]
                    h = h_buf[:hidden * len(e) * cols].reshape(hidden, len(e), cols)
                    np.maximum(neg[:, None], e.T[:, :, None], out=h)
                    logits = (w2 @ h.reshape(hidden, -1)).reshape(len(w2), len(e), cols)
                    logits += base[:, None]
                    logits.max(axis=0, out=best[g0:g0 + len(e)])
                passed = nn.sigmoid(best[:len(chunk)], overwrite=True) >= hoi_threshold
                hits[start:start + cols, v] += passed.sum(axis=0)
    return hits


def sigmoid64(x):
    return nn.sigmoid(np.array([x]))[0]


@pytest.mark.parametrize("t", [0.0, 2.0**-1074, 1e-300, 2.0**-60, 0.3, 0.5, 0.5 + 2.0**-53, 0.6,
                               1 - 3 * 2.0**-53, 1 - 2.0**-53, 1.0])
def test_decision_point_is_where_the_float64_sigmoid_flips(t):
    # the least float64 x that hits, also at 0 and 1, where logit(t) is -inf and
    # inf, and where the float64 sigmoid saturates, far from logit(t)
    x = decision_point(t)
    assert sigmoid64(x) >= t
    if t == 0:
        assert x == -math.inf
        return
    assert sigmoid64(np.nextafter(x, -math.inf)) < t
    near = x + np.arange(-2000, 2001) * np.spacing(abs(x))  # monotone around it, as the probe assumes
    assert np.array_equal(nn.sigmoid(near) >= t, near >= x)
    if t == 1:
        assert 36.5 < x < 37  # where exp(-x) drops below half of float64's spacing at 1


DECISION_THRESHOLDS = [0.0, 1.0, 0.5, 0.6, 2.0**-60, 1 - 3 * 2.0**-53, 1 - 2.0**-53]


@st.composite
def decision_cases(draw):
    """probe_cases with thresholds that include 0, 1 and saturated ones (1 - 3 * 2^-53
    has logit 35.6, where the float64 sigmoid's steps are wide), and with some
    own categories pinned to the threshold's decision point: each pinned
    category's bias is the decision point or a few ulps off it, and when its
    W2 row is zeroed, its logit is that bias exactly for every pair."""
    tax, bank, model, feats, _, (_, keep_t) = draw(probe_cases())
    hoi_t = draw(st.sampled_from(DECISION_THRESHOLDS))
    point = decision_point(hoi_t)
    hoi = model.hoi_classifier
    w2, b2 = hoi.w2.copy(), hoi.b2.copy()
    if point > -math.inf:
        for c in draw(st.sets(st.integers(0, tax.n_categories - 1))):
            b2[c] = point + draw(st.integers(-3, 3)) * np.spacing(abs(point))
            if draw(st.booleans()):
                w2[c] = 0.0
    pinned = HOIModel(sp_classifier=model.sp_classifier, hoi_classifier=nn.MLPParams(hoi.w1, hoi.b1, w2, b2),
                      spatial_resolution=4, feat_dim=model.feat_dim)
    return tax, bank, pinned, feats, hoi_t, keep_t


@settings(max_examples=300, deadline=None)
@given(decision_cases(), st.integers(1, 3), st.integers(1, 3))
def test_recognize_objects_matches_float64_probe_at_the_decision_point(case, cols, cells):
    tax, bank, model, feats, hoi_t, keep_t = case
    # blocks of 1-3 objects and buffers of 1-3 cells, in both probes
    with mock.patch.object(affordance, "PROBE_COLS", cols), mock.patch.object(affordance, "PROBE_CELLS", cells):
        r = recognize_objects(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
        want = float64_probe_hits(feats, bank, model, tax, hoi_t)
    assert np.array_equal(r.hits, want)


@pytest.mark.parametrize("feat_scale,entry_scale", [
    pytest.param(1e39, 1.0, id="objects-overflow"),  # past float32's 3.4e38: inf as a float32
    pytest.param(1.0, 1e39, id="entries-overflow"),
    pytest.param(1e-42, 1.0, id="objects-subnormal"),  # below float32's smallest normal, 1.2e-38
    pytest.param(1.0, 1e-42, id="entries-subnormal"),
    pytest.param(1e-320, 1e-320, id="both-float64-subnormal"),
])
def test_recognize_objects_at_the_float32_range_edge(feat_scale, entry_scale):
    # finite float64 inputs whose float32 casts overflow or lose bits: a logit
    # that could be non-finite is flagged and rechecked in float64, and nothing warns
    tax, bank, model, rng = random_case([9, 4, 2], seed=6)
    bank = bank_of({v: arr * entry_scale for v, arr in bank.entries.items()}, m=9, feat_dim=3)
    feats = rng.normal(size=(6, 3))
    feats[::2] *= feat_scale  # a block holds objects on both sides of the edge
    for t in (0.0, 0.5, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = recognize_objects(feats, bank, model, tax, hoi_threshold=t)
        assert np.array_equal(r.hits, float64_probe_hits(feats, bank, model, tax, t))


def shape_case(sizes, n):
    """A bank of sizes[v] random entries for verb v (feature length 3) over a taxonomy
    of max(3, len(sizes)) verbs on 5 objects, every pair a category, an untrained
    hidden-64 model and n objects."""
    n_verbs = max(3, len(sizes))
    tax = Taxonomy.build([f"verb{v}" for v in range(n_verbs)], [f"object{o}" for o in range(5)],
                         [(v, o) for v in range(n_verbs) for o in range(5)])
    rng = np.random.default_rng(0)
    bank = bank_of({v: rng.normal(size=(s, 3)) for v, s in enumerate(sizes)}, m=max(sizes), feat_dim=3)
    model = init_model(tax, 3, TrainConfig(hidden=64, spatial_resolution=4, seed=0))
    return tax, bank, model, rng.normal(size=(n, 3))


# bytes the object-major probe peaked at on the "benchmark" case below
OBJECT_MAJOR_PEAK = 1_886_532


@pytest.mark.parametrize("sizes,n", [
    pytest.param([100], 400, id="100-400"),  # many objects
    pytest.param([1029], 8, id="1029-8"),  # more entries than one hidden buffer holds
    pytest.param([100] * 12, 1293, id="benchmark"),  # affordance_scale: 1,293 objects x 1,200 entries
])
def test_recognize_objects_working_set_is_bounded(sizes, n):
    # three buffers' worth of max(PROBE_CELLS, hidden x PROBE_COLS) floats (the
    # block's -o in float64 and float32, the float32 hidden and best-logit
    # buffers and the decision's masks; no sigmoid runs on a full buffer), one
    # verb's e and the (n, V) outputs: nothing of n x S_i
    tax, bank, model, feats = shape_case(sizes, n)
    tracemalloc.start()
    try:
        recognize_objects(feats, bank, model, tax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = 3 * max(PROBE_CELLS, 64 * min(n, PROBE_COLS)) + max(sizes) * 64 + 3 * n * tax.n_verbs
    bound = 1.1 * floats * 8 + 64 * 1024
    assert peak < bound
    if len(sizes) == 12:
        assert bound < OBJECT_MAJOR_PEAK
