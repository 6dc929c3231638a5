import dataclasses
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoicompose.seeding import per_instance_rng, substream
from hoicompose.evaluation import make_split
from hoicompose.synth import (
    Detections,
    HOISet,
    ObjectSet,
    WorldSpec,
    gen_dataset,
    gen_world,
    load_instances,
    save_instances,
    tail_counts,
    validate_instances,
)
from hoicompose.taxonomy import decouple_object, decouple_verb


def test_gen_world_complete_bipartite():
    tax, world = gen_world(n_verbs=2, n_objects=2, c_pairs=4, feat_dim=4, seed=0)
    assert sorted(tax.hoi_pairs) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert world.verb_prototypes.shape == (2, 4)
    assert world.object_prototypes.shape == (2, 4)


def test_gen_world_rejects_too_many_pairs():
    with pytest.raises(ValueError):
        gen_world(n_verbs=2, n_objects=2, c_pairs=5, feat_dim=4)


def test_tail_exponent_zero_uniform_counts():
    tax, _ = gen_world(n_verbs=4, n_objects=4, c_pairs=10, feat_dim=4, tail_exponent=0.0,
                       head_count=25, seed=1)
    assert (tax.train_counts == 25).all()


def test_tail_counts_match_analytic_distribution():
    # Sorted-decreasing realized counts must equal max(1, round(head * k^-tau)).
    tau, head, c = 1.5, 1000, 50
    # gen_world draws nothing with noise_sigma, so the counts do not depend on
    # it; at 0 no prototype lies within 4 sigma of another
    tax, _ = gen_world(n_verbs=10, n_objects=10, c_pairs=c, feat_dim=4, noise_sigma=0.0,
                       tail_exponent=tau, head_count=head, seed=2)
    got = np.sort(tax.train_counts)[::-1]
    ranks = np.arange(1, c + 1, dtype=float)
    want = np.maximum(1, np.rint(head * ranks**-tau)).astype(np.int64)
    np.testing.assert_array_equal(got, want)
    assert tail_counts(c, tau, head).tolist() == want.tolist()


def test_gen_world_deterministic():
    tax1, world1 = gen_world(seed=5)
    tax2, world2 = gen_world(seed=5)
    assert tax1.hoi_pairs == tax2.hoi_pairs
    np.testing.assert_array_equal(world1.verb_prototypes, world2.verb_prototypes)
    np.testing.assert_array_equal(world1.object_domain_shift, world2.object_domain_shift)
    tax3, _ = gen_world(seed=6)
    assert tax1.hoi_pairs != tax3.hoi_pairs


def test_world_validate_warns_on_close_prototypes():
    protos = np.zeros((2, 4))
    protos[1, 0] = 0.5  # distance 0.5 <= 4 * 0.3
    world = WorldSpec(feat_dim=4, verb_prototypes=protos.copy(),
                      object_prototypes=np.eye(4) * 10, noise_sigma=0.3,
                      tail_exponent=1.0, object_domain_shift=np.zeros(4),
                      target_counts=np.ones(3, dtype=np.int64), seed=0)
    with pytest.warns(UserWarning, match="prototype distance"):
        world.validate()
    world.verb_prototypes[1] = 0.0
    with pytest.raises(ValueError, match="duplicate"):
        world.validate()


def sample_box(rng, min_side, max_side, center=None, jitter=0.0):
    """The per-record box draw: width, height, then the corner or the jitter."""
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    if center is None:
        x1 = rng.uniform(0.0, 1.0 - w)
        y1 = rng.uniform(0.0, 1.0 - h)
    else:
        cx = np.clip(center[0] + rng.uniform(-jitter, jitter), w / 2, 1.0 - w / 2)
        cy = np.clip(center[1] + rng.uniform(-jitter, jitter), h / 2, 1.0 - h / 2)
        x1, y1 = cx - w / 2, cy - h / 2
    return np.array([x1, y1, x1 + w, y1 + h])


def sample_hoi_record(world, tax, hoi_category, rng, co_label_prob, allowed_categories=None):
    """One HOI row of the given category as a record (field name -> value),
    drawn one value at a time."""
    v, o = tax.hoi_pairs[hoi_category]
    label = np.zeros(tax.n_categories, dtype=np.int8)
    label[hoi_category] = 1
    for c in np.flatnonzero(tax.object_to_hoi[o]):
        if c == hoi_category:
            continue
        take = rng.random() < co_label_prob
        if take and (allowed_categories is None or c in allowed_categories):
            label[c] = 1
    sigma, d = world.noise_sigma, world.feat_dim
    verb_feat = world.verb_prototypes[v] + sigma * rng.normal(size=d)
    object_feat = world.object_prototypes[o] + sigma * rng.normal(size=d)
    present_verbs = np.flatnonzero(decouple_verb(label, tax))
    human_feat = world.verb_prototypes[present_verbs].mean(axis=0) + sigma * rng.normal(size=d)
    human_box = sample_box(rng, 0.25, 0.5)
    center = ((human_box[0] + human_box[2]) / 2, (human_box[1] + human_box[3]) / 2)
    object_box = sample_box(rng, 0.1, 0.35, center=center, jitter=0.25)
    return {"human_box": human_box, "object_box": object_box, "object_label": o, "hoi_label": label,
            "human_feat": human_feat, "verb_feat": verb_feat, "object_feat": object_feat}


def sample_object_record(world, object_id, rng):
    feat = world.object_prototypes[object_id] + world.object_domain_shift + world.noise_sigma * rng.normal(
        size=world.feat_dim)
    return {"object_box": sample_box(rng, 0.2, 0.8), "object_label": object_id, "object_feat": feat}


def write_row(columns, i, record):
    for name, value in record.items():
        getattr(columns, name)[i] = value


def record_gen_dataset(world, tax, split, n_train, n_test, n_external_objects, seed, co_label_prob):
    """gen_dataset's oracle: zero columns, each row then written from a record
    drawn value by value from its own generator, the category by Generator.choice."""
    seen = list(range(tax.n_categories)) if split is None else sorted(split.seen_hoi_ids)
    weights = world.target_counts[seen].astype(float)
    probs = weights / weights.sum() if weights.sum() > 0 else None
    C, d = tax.n_categories, world.feat_dim
    train, test = (HOISet(np.zeros((n, 4)), np.zeros((n, 4)), np.zeros(n, dtype=np.int64),
                          np.zeros((n, C), dtype=np.int8), np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d)))
                   for n in (n_train, n_test))
    for i in range(n_train):
        rng = per_instance_rng(seed, "train", i)
        cat = seen[rng.choice(len(seen), p=probs)]
        write_row(train, i, sample_hoi_record(world, tax, cat, rng, co_label_prob, allowed_categories=set(seen)))
    for j in range(n_test):
        rng = per_instance_rng(seed, "test", j)
        write_row(test, j, sample_hoi_record(world, tax, int(rng.integers(C)), rng, co_label_prob))
    n = n_external_objects
    external = ObjectSet(np.zeros((n, 4)), np.zeros(n, dtype=np.int64), np.zeros((n, d)))
    for k in range(n):
        rng = per_instance_rng(seed, "external", k)
        write_row(external, k, sample_object_record(world, int(rng.integers(world.object_prototypes.shape[0])), rng))
    return train, test, external


def assert_same_bytes(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape, a.flags.c_contiguous) == (b.dtype, b.shape, True), f.name
        assert a.tobytes() == b.tobytes(), f.name


def oracle_split(tax, mode, draw_int):
    """A split of mode (None for no split) whose unseen parts draw_int(lo, hi)
    picks, or None when the mode leaves no category seen."""
    if mode is None or "composition" in mode and tax.n_categories < 2:
        return None
    try:
        if mode == "novel-object":
            return make_split(tax, mode, unseen_object_ids=[draw_int(0, tax.n_objects - 1)])
        if "composition" in mode:
            return make_split(tax, mode, unseen_count=draw_int(1, tax.n_categories - 1))
        return make_split(tax, mode)
    except ValueError:  # one category, or one object holding every category
        return None


ORACLE_SPLIT_MODES = [None, "none", "unseen-composition-rare-first", "unseen-composition-nonrare-first",
                      "novel-object"]


@st.composite
def dataset_cases(draw):
    """A random world and split, and gen_dataset's other arguments; a world may
    weigh every seen category 0."""
    n_verbs, n_objects = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # close prototypes are a fine world here
        tax, world = gen_world(n_verbs=n_verbs, n_objects=n_objects, c_pairs=draw(st.integers(1, n_verbs * n_objects)),
                               feat_dim=draw(st.integers(2, 5)), noise_sigma=draw(st.sampled_from([0.0, 0.3, 2.0])),
                               tail_exponent=draw(st.sampled_from([0.0, 1.5])), seed=draw(st.integers(0, 2**32)),
                               head_count=draw(st.integers(1, 50)))
    split = oracle_split(tax, draw(st.sampled_from(ORACLE_SPLIT_MODES)), lambda lo, hi: draw(st.integers(lo, hi)))
    if draw(st.booleans()):
        seen = list(range(tax.n_categories)) if split is None else sorted(split.seen_hoi_ids)
        world.target_counts[seen] = 0 if draw(st.booleans()) else draw(
            hnp.arrays(np.int64, len(seen), elements=st.integers(0, 3)))
    sizes = [draw(st.sampled_from([0, 1, draw(st.integers(2, 40))])) for _ in range(3)]
    return world, tax, split, sizes, draw(st.integers(0, 2**32)), draw(st.sampled_from([0.0, 1.0, 0.1, 0.5]))


@settings(max_examples=150, deadline=None)
@given(dataset_cases())
def test_gen_dataset_matches_record_oracle(case):
    # the column draws give the per-record path's bytes, column by column
    world, tax, split, sizes, seed, co_label_prob = case
    got = gen_dataset(world, tax, split, *sizes, seed=seed, co_label_prob=co_label_prob)
    want = record_gen_dataset(world, tax, split, *sizes, seed, co_label_prob)
    for part, oracle in zip(got, want):
        assert_same_bytes(part, oracle)


@pytest.mark.parametrize("mode", ORACLE_SPLIT_MODES)
def test_gen_dataset_matches_record_oracle_at_desk_scale(mode):
    # the desk world: 60 categories over 20 objects, so most rows draw several co-labels
    tax, world = gen_world(seed=7)
    split = oracle_split(tax, mode, lambda lo, hi: (lo + hi) // 2)
    args = (world, tax, split, 300, 200, 200)
    for part, oracle in zip(gen_dataset(*args, seed=7, co_label_prob=0.5), record_gen_dataset(*args, 7, 0.5)):
        assert_same_bytes(part, oracle)


def test_noiseless_features_equal_prototypes():
    # sigma 0 and one category a row: every feature is its prototype
    tax, world = gen_world(seed=4, noise_sigma=0.0)
    _, test, _ = gen_dataset(world, tax, None, 0, 300, 0, seed=4, co_label_prob=0.0)
    assert (test.hoi_label.sum(axis=1) == 1).all()
    verb = np.array(tax.hoi_pairs)[test.hoi_label.argmax(axis=1), 0]
    np.testing.assert_array_equal(test.verb_feat, world.verb_prototypes[verb])
    np.testing.assert_array_equal(test.object_feat, world.object_prototypes[test.object_label])
    np.testing.assert_array_equal(test.human_feat, world.verb_prototypes[verb])


def test_hoi_label_consistency():
    # every label is of the row's object alone and sets the drawn category, whose
    # verb the noiseless verb feature names; some labels carry co-labels
    tax, world = gen_world(seed=4, noise_sigma=0.0)
    _, test, _ = gen_dataset(world, tax, None, 0, 300, 0, seed=4, co_label_prob=0.5)
    np.testing.assert_array_equal(decouple_object(test.hoi_label, tax), np.eye(tax.n_objects)[test.object_label])
    verb = (test.verb_feat[:, None, :] == world.verb_prototypes).all(axis=2).argmax(axis=1)
    drawn = [tax.hoi_pairs.index((v, o)) for v, o in zip(verb, test.object_label)]
    assert (test.hoi_label[np.arange(len(test)), drawn] == 1).all()
    assert (test.hoi_label.sum(axis=1) > 1).any()
    assert validate_instances(test, "hoi", tax) == world.feat_dim


def test_hoi_rows_invariants_bulk():
    tax, world = gen_world(seed=9)
    train, test, _ = gen_dataset(world, tax, None, 500, 500, 0, seed=9, co_label_prob=0.2)
    for part in (train, test):
        assert validate_instances(part, "hoi", tax, world.feat_dim) == world.feat_dim


def nearest_prototype_accuracy(prototypes, feats, labels):
    d = np.linalg.norm(feats[:, None, :] - prototypes[None, :, :], axis=2)
    return (d.argmin(axis=1) == labels).mean()


def test_nearest_prototype_recovers_object_label():
    # With sigma small relative to prototype separation, nearest-prototype
    # classification of object_feat must recover the label almost surely.
    tax, world = gen_world(seed=11)
    _, test, _ = gen_dataset(world, tax, None, 0, 2000, 0, seed=11)
    assert nearest_prototype_accuracy(world.object_prototypes, test.object_feat, test.object_label) >= 0.99


def test_external_object_domain_shift():
    tax, world = gen_world(seed=12, noise_sigma=0.0)
    _, _, external = gen_dataset(world, tax, None, 0, 0, 100, seed=12)
    assert len(set(external.object_label)) > 1
    np.testing.assert_array_equal(external.object_feat,
                                  world.object_prototypes[external.object_label] + world.object_domain_shift)
    assert validate_instances(external, "object", tax, world.feat_dim) == world.feat_dim


def test_large_shift_hurts_nearest_prototype():
    tax, world = gen_world(seed=13)
    base_world = WorldSpec(**{**world.__dict__, "object_domain_shift": np.zeros(world.feat_dim)})
    big = WorldSpec(**{**world.__dict__, "object_domain_shift": np.full(world.feat_dim, 2.0)})

    def accuracy(w):
        _, _, external = gen_dataset(w, tax, None, 0, 0, 400, seed=13)
        return nearest_prototype_accuracy(w.object_prototypes, external.object_feat, external.object_label)

    assert accuracy(big) < accuracy(base_world)


def test_gen_dataset_novel_object_leakage_free():
    tax, world = gen_world(seed=21)
    split = make_split(tax, "novel-object", rng=substream(21, "split"))
    train, test, external = gen_dataset(world, tax, split, 300, 150, 150, seed=21)
    unseen = split.unseen_hoi_ids
    unseen_objects = split.unseen_object_ids
    for label, y in zip(train.object_label, train.hoi_label):
        assert label not in unseen_objects
        assert not (set(np.flatnonzero(y)) & unseen)
    # novel objects do reach the external stream and the test set
    assert any(o in unseen_objects for o in external.object_label)
    assert any(o in unseen_objects for o in test.object_label)


def test_gen_dataset_leaves_taxonomy_unchanged():
    # the taxonomy keeps its target counts; the realized ones are a column sum
    tax, world = gen_world(seed=22)
    before = tax.to_json_dict()
    train, _, _ = gen_dataset(world, tax, None, 250, 50, 50, seed=22)
    assert tax.to_json_dict() == before
    np.testing.assert_array_equal(tax.train_counts, world.target_counts)
    realized = np.zeros(tax.n_categories, dtype=np.int64)
    for y in train.hoi_label:
        realized += y
    np.testing.assert_array_equal(train.hoi_label.sum(axis=0), realized)


def test_gen_dataset_empty_train_ok():
    tax, world = gen_world(seed=23)
    train, test, external = gen_dataset(world, tax, None, 0, 40, 20, seed=23)
    assert len(train) == 0 and train.hoi_label.shape == (0, tax.n_categories)
    assert len(test) == 40 and len(external) == 20
    assert (train.hoi_label.sum(axis=0) == 0).all()


def test_gen_dataset_rejects_empty_seen():
    tax, world = gen_world(n_verbs=2, n_objects=1, c_pairs=2, feat_dim=4, seed=24)
    split = make_split(tax, "none")
    bad = type(split)(mode="novel-object", unseen_hoi_ids=frozenset({0, 1}),
                      seen_hoi_ids=frozenset(), unseen_object_ids=frozenset({0}))
    with pytest.raises(ValueError, match="zero seen"):
        gen_dataset(world, tax, bad, 10, 10, 10, seed=24)


def test_gen_dataset_deterministic():
    tax1, world1 = gen_world(seed=25)
    a, _, _ = gen_dataset(world1, tax1, None, 50, 10, 10, seed=25)
    tax2, world2 = gen_world(seed=25)
    b, _, _ = gen_dataset(world2, tax2, None, 50, 10, 10, seed=25)
    # repeat on the same objects: a second draw from one taxonomy and world
    # repeats the first
    c, _, _ = gen_dataset(world1, tax1, None, 50, 10, 10, seed=25)
    np.testing.assert_array_equal(a.hoi_label, b.hoi_label)
    np.testing.assert_array_equal(a.verb_feat, b.verb_feat)
    np.testing.assert_array_equal(a.human_box, b.human_box)
    np.testing.assert_array_equal(a.hoi_label, c.hoi_label)
    np.testing.assert_array_equal(a.verb_feat, c.verb_feat)


def assert_same_set(got, want):
    assert type(got) is type(want) and len(got) == len(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        np.testing.assert_array_equal(a, b)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def _float_column(n, width):
    return hnp.arrays(np.float64, (n, width), elements=st.floats(width=64))


@st.composite
def column_sets(draw):
    """An HOISet, ObjectSet or Detections of 0, 1 or n rows, of any float values
    (NaN and ±inf too) and any label in its column's integer range."""
    n = draw(st.sampled_from([0, 1, draw(st.integers(2, 9))]))
    if draw(st.booleans()):
        return Detections(draw(_float_column(n, 4)), draw(_float_column(n, 4)),
                          draw(_float_column(n, draw(st.integers(1, 6)))))
    feat_dim = draw(st.integers(1, 5))
    columns = {"object_box": draw(_float_column(n, 4)),
               "object_label": draw(hnp.arrays(np.int64, (n,))),
               "object_feat": draw(_float_column(n, feat_dim))}
    if draw(st.booleans()):
        return ObjectSet(**columns)
    return HOISet(human_box=draw(_float_column(n, 4)),
                  hoi_label=draw(hnp.arrays(np.int8, (n, draw(st.integers(1, 6))))),
                  human_feat=draw(_float_column(n, feat_dim)), verb_feat=draw(_float_column(n, feat_dim)),
                  **columns)


@settings(max_examples=60, deadline=None)
@given(column_sets())
def test_save_load_roundtrip_property(orig):
    # values and dtypes come back equal, and a save of the load is byte-identical
    with tempfile.TemporaryDirectory() as tmp:
        save_instances(Path(tmp) / "a", orig)
        back = load_instances(Path(tmp) / "a")
        assert_same_set(back, orig)
        save_instances(Path(tmp) / "b", back)
        assert dir_bytes(Path(tmp) / "b") == dir_bytes(Path(tmp) / "a")


def test_save_of_load_is_byte_identical(tmp_path):
    tax, world = gen_world(seed=26)
    split = make_split(tax, "novel-object", rng=substream(26, "split"))
    parts = gen_dataset(world, tax, split, 30, 20, 25, seed=26)
    for name, part in zip(("train", "test", "external"), parts):
        save_instances(tmp_path / name, part)
        back = load_instances(tmp_path / name)
        assert_same_set(back, part)
        save_instances(tmp_path / ("again-" + name), back)
        assert dir_bytes(tmp_path / ("again-" + name)) == dir_bytes(tmp_path / name)


def test_save_refuses_a_column_of_another_dtype(tmp_path):
    tax, world = gen_world(seed=26)
    _, _, external = gen_dataset(world, tax, None, 0, 0, 3, seed=26)
    bad = dataclasses.replace(external, object_label=external.object_label.astype(float))
    with pytest.raises(ValueError, match=re.escape("object_label: dtype <f8, expected <i8")):
        save_instances(tmp_path / "bad", bad)


def test_load_rejects_unknown_kind(tmp_path):
    # a directory whose column files are no set's names none of them as a kind
    path = tmp_path / "bad"
    path.mkdir()
    np.save(path / "mystery.npy", np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("unknown column files: ['mystery.npy']")):
        load_instances(path)


def test_load_refuses_a_stray_column_in_a_detections_directory(tmp_path):
    # scores.npy makes the directory a Detections, whose files hold no label
    detections = Detections(np.zeros((2, 4)), np.ones((2, 4)), np.full((2, 3), 0.5))
    save_instances(tmp_path / "predictions", detections)
    assert_same_set(load_instances(tmp_path / "predictions"), detections)
    np.save(tmp_path / "predictions" / "hoi_label.npy", np.zeros((2, 3), dtype=np.int8))
    with pytest.raises(ValueError, match=re.escape("unknown column files: ['hoi_label.npy']")):
        load_instances(tmp_path / "predictions")
    (tmp_path / "predictions" / "scores.npy").unlink()
    with pytest.raises(ValueError, match=re.escape("missing field 'object_label'")):
        load_instances(tmp_path / "predictions")


def saved_columns(tmp_path, part):
    """The columns of part as save_instances writes and np.load reads them back."""
    save_instances(tmp_path / "part", part)
    return {p.stem: np.load(p) for p in (tmp_path / "part").iterdir()}


def write_columns(path, columns):
    """A column directory holding each value: an array saved as .npy (an object
    array pickled), or bytes as they are."""
    path.mkdir()
    for name, value in columns.items():
        if isinstance(value, bytes):
            (path / f"{name}.npy").write_bytes(value)
        else:
            np.save(path / f"{name}.npy", value)
    return path


def load_and_validate(path, kind, tax, feat_dim):
    return validate_instances(load_instances(path), kind, tax, feat_dim)


@pytest.mark.parametrize("part,field,value,want", [
    (0, "human_box", [0.5], "human_box has shape (1,), expected (4,)"),
    (0, "object_box", [0.1, 0.2, 0.3, 0.4, 0.5], "object_box has shape (5,), expected (4,)"),
    (0, "hoi_label", [1], "hoi_label has shape (1,), expected ("),
    (0, "verb_feat", [0.0], "verb_feat has shape (1,), expected ("),
    (2, "object_box", [0.5], "object_box has shape (1,), expected (4,)"),
    (2, "object_feat", [], "object_feat has shape (0,), expected ("),
    (0, "object_label", [3], "object_label: "),
    (0, "human_feat", None, "missing field 'human_feat'"),
])
def test_load_rejects_a_short_row_by_record_number(tmp_path, part, field, value, want):
    # A .npy column is rectangular: a short row is a column of that width (named
    # by validate_instances as record 1), a wrong rank or a missing column file.
    tax, world = gen_world(seed=29)
    columns = saved_columns(tmp_path, gen_dataset(world, tax, None, 5, 0, 5, seed=29)[part])
    if value is None:
        del columns[field]
    else:
        columns[field] = np.tile(np.asarray(value, dtype=columns[field].dtype), (5, 1))
    kind = "hoi" if part == 0 else "object"
    with pytest.raises(ValueError, match=f"^(record 1: )?{re.escape(want)}"):
        load_and_validate(write_columns(tmp_path / "bad", columns), kind, tax, world.feat_dim)


def _fractional_bit(columns):
    y = columns["hoi_label"].astype(float)
    y[2, np.argmax(y[2])] = 1.9
    columns["hoi_label"] = y


def _label(columns, value):
    """object_label as a column of value's type, with value in row 3."""
    label = columns["object_label"].astype(type(value))
    label[2] = value
    columns["object_label"] = label


@pytest.mark.parametrize("part,edit,fault", [
    (0, lambda c: _label(c, 7.5), "object_label is not integral"),
    (0, _fractional_bit, "hoi_label is not integral"),
    (2, lambda c: _label(c, c["object_label"][2] + 0.5), "object_label is not integral"),
    (0, lambda c: _label(c, float("nan")), "object_label is not integral"),
    (0, lambda c: _label(c, float("inf")), "object_label is not integral"),
    (2, lambda c: _label(c, float("-inf")), "object_label is not integral"),
    (0, lambda c: c.update(object_label=c["object_label"].astype(str)), "object_label is not a number"),
    (2, lambda c: c.update(object_label=c["object_label"] > 0), "object_label is not a number"),
    (0, lambda c: c.update(object_label=np.array([None] * 5)), "object_label is not a number"),
    (0, lambda c: c.update(object_box=c["object_box"].astype(str)), "object_box is not a number"),
    (2, lambda c: c.update(object_box=np.ones((5, 4), dtype=bool)), "object_box is not a number"),
    (0, lambda c: c.update(hoi_label=c["hoi_label"].astype(bool)), "hoi_label is not a number"),
    (2, lambda c: c.update(object_feat=c["object_feat"].astype(str)), "object_feat is not a number"),
])
def test_load_rejects_a_non_integral_label(tmp_path, part, edit, fault):
    # A column holds one dtype, so 7.5 in a label, a string, true or null makes
    # the whole column of another dtype, which the loader refuses by name without
    # a cast (which would truncate 7.5 to 7, parse "1" and take true as 1); an
    # object column is refused by the pickle-free read.
    tax, world = gen_world(seed=29)
    columns = saved_columns(tmp_path, gen_dataset(world, tax, None, 5, 0, 5, seed=29)[part])
    edit(columns)
    column = fault.split()[0]
    with pytest.raises(ValueError, match=f"^{column}: (dtype |Object arrays cannot be loaded)"):
        load_instances(write_columns(tmp_path / "bad", columns))


@pytest.mark.parametrize("part", [0, 2])
def test_load_rejects_an_unknown_field(tmp_path, part):
    # a misspelt column file would otherwise be dropped without a word
    tax, world = gen_world(seed=29)
    columns = saved_columns(tmp_path, gen_dataset(world, tax, None, 5, 0, 5, seed=29)[part])
    columns["object_bbox"] = columns["object_box"]
    with pytest.raises(ValueError, match=re.escape("unknown column files: ['object_bbox.npy']")):
        load_instances(write_columns(tmp_path / "bad", columns))


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


@pytest.mark.parametrize("edit,want", [
    (lambda c: c.update(object_feat=c["object_feat"][:-1]), "object_feat: 4 rows, object_box has 5"),
    (lambda c: c.update(object_box=b""), "object_box: No data left in file"),
    (lambda c: c.update(object_box=_npy_bytes(c["object_box"])[:-8]), "object_box: Failed to read all data"),
    (lambda c: c.update(object_box=_npy_bytes(c["object_box"])[:40]), "object_box: EOF: reading array header"),
    (lambda c: c.update(object_feat=b'{"rows": [[0.5]]}\n'), "object_feat: This file contains pickled"),
    (lambda c: c.update(object_feat=c["object_feat"].astype(">f8")), "object_feat: dtype >f8, expected <f8"),
    (lambda c: c.update(object_feat=c["object_feat"].astype(np.float32)), "object_feat: dtype <f4, expected <f8"),
    (lambda c: c.update(object_label=c["object_label"].astype(np.int32)), "object_label: dtype <i4, expected <i8"),
    (lambda c: c.update(object_feat=c["object_feat"][:, :, None]), "object_feat: shape (5, 16, 1), expected rank 2"),
    (lambda c: c.update(object_feat=np.float64(1.0)), "object_feat: shape (), expected rank 2"),
])
def test_load_rejects_a_malformed_column_file(tmp_path, edit, want):
    # ragged row counts, an empty, truncated or non-.npy file, another byte order,
    # width or integer size, and a column of the wrong rank
    tax, world = gen_world(seed=29)
    columns = saved_columns(tmp_path, gen_dataset(world, tax, None, 0, 0, 5, seed=29)[2])
    edit(columns)
    with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
        load_instances(write_columns(tmp_path / "bad", columns))


def test_load_rejects_a_huge_declared_shape(tmp_path):
    # a header may claim more rows than memory holds: a data error, not a crash
    path = tmp_path / "bad"
    path.mkdir()
    with open(path / "object_label.npy", "wb") as f:
        np.lib.format.write_array_header_1_0(f, {"descr": "<i8", "fortran_order": False, "shape": (2**60,)})
        f.write(b"\0" * 64)
    for name in ("object_box", "object_feat"):
        np.save(path / f"{name}.npy", np.zeros((8, 4)))
    with pytest.raises(ValueError, match="^object_label: "):
        load_instances(path)


def _set(name, value):
    return lambda s, tax: _assign(s, name, value)


def _assign(s, name, value):
    """Row 3 of column name set to value; a value of another row shape gives
    the whole column that shape, since every row of a column has one."""
    column = getattr(s, name)
    if np.shape(value) == column.shape[1:]:
        column[2] = value
        return None
    return dataclasses.replace(s, **{name: np.tile(np.asarray(value, dtype=column.dtype), (len(s), 1))})


def _poke(name, index, value):
    def edit(s, tax):
        getattr(s, name)[2, index] = value
    return edit


def _other_object_category(s, tax):
    other = next(c for c, (_, o) in enumerate(tax.hoi_pairs) if o != s.object_label[2])
    s.hoi_label[2, other] = 1


@pytest.mark.parametrize("edit,want", [
    (_poke("human_box", 2, 0.0), "human_box is degenerate"),
    (_poke("object_box", 2, 1.5), "object_box lies outside"),
    (_poke("human_box", 1, np.nan), "human_box is not finite; human_box is degenerate"),
    (_set("object_label", 99), "object_label outside"),
    (_set("hoi_label", [0, 0, 0]), "hoi_label has shape"),
    (lambda s, tax: s.hoi_label.__setitem__(2, 0), "hoi_label sets no category"),
    (lambda s, tax: s.hoi_label.__setitem__(2, 2 * s.hoi_label[2]), "hoi_label is not multi-hot"),
    (_other_object_category, "hoi_label sets a category of another object"),
    (_poke("verb_feat", 0, np.inf), "verb_feat is not finite"),
    (_poke("human_feat", 0, np.nan), "human_feat is not finite"),
    (_set("object_feat", [0.0, 0.0, 0.0]), "object_feat has shape"),
    (lambda s, tax: ObjectSet(s.object_box, s.object_label, s.object_feat), "expected kind 'hoi'"),
])
def test_validate_instances_names_first_bad_record(tmp_path, edit, want):
    # the set goes through its directory; a fault of a whole column (a row
    # length, the kind) is named as record 1, a bad value by its first record
    tax, world = gen_world(seed=27)
    records, _, _ = gen_dataset(world, tax, None, 6, 0, 0, seed=27)
    assert validate_instances(records, "hoi", tax) == world.feat_dim
    # record 4 (1-based) gets a later bad value; record 3 is the first bad one
    records.verb_feat[3] = np.nan
    replaced = edit(records, tax)
    save_instances(tmp_path / "bad", records if replaced is None else replaced)
    first = 3 if replaced is None else 1
    with pytest.raises(ValueError, match=f"^record {first}: {want}"):
        load_and_validate(tmp_path / "bad", "hoi", tax, world.feat_dim)


def test_validate_instances_object_records_and_shared_feat_dim(tmp_path):
    tax, world = gen_world(seed=28)
    train, _, external = gen_dataset(world, tax, None, 3, 0, 4, seed=28)
    assert validate_instances(external[:0], "object", tax) is None
    assert validate_instances(external[:0], "object", tax, 5) == 5
    assert validate_instances(external, "object", tax, world.feat_dim) == world.feat_dim
    with pytest.raises(ValueError, match="record 1: object_feat has shape"):
        validate_instances(external, "object", tax, world.feat_dim + 1)
    # the column files of both kinds in one directory: the HOI set's plus an unknown
    mixed = {**saved_columns(tmp_path, external[:1]), **saved_columns(tmp_path, train[:1])}
    mixed["object_kind"] = np.zeros(1)
    with pytest.raises(ValueError, match=re.escape("unknown column files: ['object_kind.npy']")):
        load_instances(write_columns(tmp_path / "mixed", mixed))
    with pytest.raises(ValueError, match="record 1: expected kind 'object'"):
        validate_instances(train, "object", tax)
    external.object_box[3] = [0.2, 0.2, 0.1, 0.9]
    with pytest.raises(ValueError, match="record 4: object_box is degenerate"):
        validate_instances(external, "object", tax)


def test_row_selection():
    tax, world = gen_world(seed=30)
    train, _, external = gen_dataset(world, tax, None, 6, 0, 4, seed=30)
    picked = train[np.array([4, 1])]
    assert len(picked) == 2 and isinstance(picked, HOISet)
    np.testing.assert_array_equal(picked.verb_feat, train.verb_feat[[4, 1]])
    assert len(external[external.object_label == external.object_label[0]]) >= 1
    with pytest.raises(TypeError, match="slice"):
        train[0]
