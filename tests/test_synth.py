import dataclasses
import json
import re

import numpy as np
import pytest

from hoicompose.seeding import per_instance_rng, substream
from hoicompose.evaluation import make_split
from hoicompose.synth import (
    HOISet,
    ObjectSet,
    WorldSpec,
    gen_dataset,
    gen_world,
    load_instances,
    sample_hoi_instance,
    sample_object_instance,
    save_instances,
    tail_counts,
    validate_instances,
)
from hoicompose.taxonomy import decouple_object, one_hot


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
    tax, _ = gen_world(n_verbs=10, n_objects=10, c_pairs=c, feat_dim=4,
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


def test_world_json_roundtrip(tmp_path):
    _, world = gen_world(seed=3)
    path = tmp_path / "world.json"
    world.save(path)
    back = WorldSpec.load(path)
    np.testing.assert_array_equal(back.verb_prototypes, world.verb_prototypes)
    np.testing.assert_array_equal(back.object_prototypes, world.object_prototypes)
    np.testing.assert_array_equal(back.object_domain_shift, world.object_domain_shift)
    assert back.noise_sigma == world.noise_sigma


def test_sample_hoi_noiseless_features_equal_prototypes():
    tax, world = gen_world(seed=4, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    cat = 7
    v, o = tax.hoi_pairs[cat]
    inst = sample_hoi_instance(world, tax, cat, rng)
    np.testing.assert_array_equal(inst["verb_feat"], world.verb_prototypes[v])
    np.testing.assert_array_equal(inst["object_feat"], world.object_prototypes[o])
    np.testing.assert_array_equal(inst["human_feat"], world.verb_prototypes[v])


def one_row(record, tax, feat_dim):
    """A one-row set holding record (an HOI record when it has a label)."""
    if "hoi_label" in record:
        out = HOISet.empty(1, tax.n_categories, feat_dim)
    else:
        out = ObjectSet.empty(1, feat_dim)
    out.put(0, record)
    return out


def test_sample_hoi_label_consistency():
    tax, world = gen_world(seed=4)
    rng = np.random.default_rng(1)
    for cat in range(0, tax.n_categories, 7):
        inst = sample_hoi_instance(world, tax, cat, rng, co_label_prob=0.5)
        assert inst["hoi_label"][cat] == 1
        want = one_hot(tax.n_objects, inst["object_label"])
        np.testing.assert_array_equal(decouple_object(inst["hoi_label"], tax), want)
        assert validate_instances(one_row(inst, tax, world.feat_dim), "hoi", tax) == world.feat_dim


def test_sample_hoi_instance_invariants_bulk():
    tax, world = gen_world(seed=9)
    instances = HOISet.empty(500, tax.n_categories, world.feat_dim)
    for i in range(500):
        rng = per_instance_rng(9, "bulk", i)
        cat = int(rng.integers(tax.n_categories))
        instances.put(i, sample_hoi_instance(world, tax, cat, rng, co_label_prob=0.2))
    assert validate_instances(instances, "hoi", tax, world.feat_dim) == world.feat_dim


def test_nearest_prototype_recovers_object_label():
    # With sigma small relative to prototype separation, nearest-prototype
    # classification of object_feat must recover the label almost surely.
    tax, world = gen_world(seed=11)
    hits = 0
    n = 2000
    for i in range(n):
        rng = per_instance_rng(11, "nn-check", i)
        cat = int(rng.integers(tax.n_categories))
        inst = sample_hoi_instance(world, tax, cat, rng)
        d = np.linalg.norm(world.object_prototypes - inst["object_feat"], axis=1)
        hits += int(np.argmin(d)) == inst["object_label"]
    assert hits / n >= 0.99


def test_external_object_domain_shift():
    tax, world = gen_world(seed=12, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    inst = sample_object_instance(world, 3, rng)
    np.testing.assert_allclose(inst["object_feat"], world.object_prototypes[3] + world.object_domain_shift)
    one = one_row(inst, tax, world.feat_dim)
    assert validate_instances(one, "object", tax, world.feat_dim) == world.feat_dim
    with pytest.raises(ValueError):
        sample_object_instance(world, tax.n_objects, rng)


def test_large_shift_hurts_nearest_prototype():
    tax, world = gen_world(seed=13)
    base_world = WorldSpec(**{**world.__dict__, "object_domain_shift": np.zeros(world.feat_dim)})
    big = WorldSpec(**{**world.__dict__, "object_domain_shift": np.full(world.feat_dim, 2.0)})

    def accuracy(w):
        hits = 0
        for i in range(400):
            rng = per_instance_rng(13, "shift", i)
            o = int(rng.integers(tax.n_objects))
            inst = sample_object_instance(w, o, rng)
            d = np.linalg.norm(w.object_prototypes - inst["object_feat"], axis=1)
            hits += int(np.argmin(d)) == o
        return hits / 400

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


def test_jsonl_roundtrip_lossless(tmp_path):
    tax, world = gen_world(seed=26)
    train, _, external = gen_dataset(world, tax, None, 20, 5, 8, seed=26)
    for name, orig in (("hoi.jsonl", train), ("object.jsonl", external)):
        save_instances(tmp_path / name, orig)
        back = load_instances(tmp_path / name)
        assert type(back) is type(orig) and len(back) == len(orig)
        for f in dataclasses.fields(orig):
            got, want = getattr(back, f.name), getattr(orig, f.name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_save_of_load_is_byte_identical(tmp_path):
    tax, world = gen_world(seed=26)
    split = make_split(tax, "novel-object", rng=substream(26, "split"))
    parts = gen_dataset(world, tax, split, 30, 20, 25, seed=26)
    for name, part in zip(("train.jsonl", "test.jsonl", "external.jsonl"), parts):
        save_instances(tmp_path / name, part)
        save_instances(tmp_path / ("again-" + name), load_instances(tmp_path / name))
        assert (tmp_path / ("again-" + name)).read_bytes() == (tmp_path / name).read_bytes()


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "mystery"}\n')
    with pytest.raises(ValueError, match="mystery"):
        load_instances(path)


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def saved_records(tmp_path, part):
    save_instances(tmp_path / "part.jsonl", part)
    return [json.loads(line) for line in (tmp_path / "part.jsonl").read_text().splitlines()]


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
    # row assignment would broadcast a length-1 value across the row
    tax, world = gen_world(seed=29)
    records = saved_records(tmp_path, gen_dataset(world, tax, None, 5, 0, 5, seed=29)[part])
    if value is None:
        del records[2][field]
    else:
        records[2][field] = value
    with pytest.raises(ValueError, match=f"^record 3: {re.escape(want)}"):
        load_instances(write_records(tmp_path / "bad.jsonl", records))


def _fractional_bit(rec):
    rec["hoi_label"][rec["hoi_label"].index(1)] = 1.9


@pytest.mark.parametrize("part,edit,want", [
    (0, lambda rec: rec.update(object_label=13.5), "object_label is not integral"),
    (0, _fractional_bit, "hoi_label is not integral"),
    (2, lambda rec: rec.update(object_label=rec["object_label"] + 0.5), "object_label is not integral"),
    (0, lambda rec: rec.update(object_label=float("nan")), "object_label is not integral"),
    (0, lambda rec: rec.update(object_label=float("inf")), "object_label is not integral"),
    (2, lambda rec: rec.update(object_label=float("-inf")), "object_label is not integral"),
])
def test_load_rejects_a_non_integral_label(tmp_path, part, edit, want):
    # assignment into an integer column would truncate 13.5 to 13 and 1.9 to 1
    tax, world = gen_world(seed=29)
    records = saved_records(tmp_path, gen_dataset(world, tax, None, 5, 0, 5, seed=29)[part])
    label = records[2]["object_label"]
    edit(records[2])
    with pytest.raises(ValueError, match=f"^record 3: {re.escape(want)}$"):
        load_instances(write_records(tmp_path / "bad.jsonl", records))
    # an integral float is no truncation: 7.0 loads as 7
    records = saved_records(tmp_path, gen_dataset(world, tax, None, 5, 0, 5, seed=29)[part])
    records[2]["object_label"] = float(label)
    assert load_instances(write_records(tmp_path / "ok.jsonl", records)).object_label[2] == label


def _set(name, value):
    return lambda rec, tax: rec.__setitem__(name, value)


def _poke(name, index, value):
    def edit(rec, tax):
        rec[name][index] = value
    return edit


def _other_object_category(rec, tax):
    other = next(c for c, (_, o) in enumerate(tax.hoi_pairs) if o != rec["object_label"])
    rec["hoi_label"][other] = 1


@pytest.mark.parametrize("edit,want", [
    (_poke("human_box", 2, 0.0), "human_box is degenerate"),
    (_poke("object_box", 2, 1.5), "object_box lies outside"),
    (_poke("human_box", 1, np.nan), "human_box is not finite; human_box is degenerate"),
    (_set("object_label", 99), "object_label outside"),
    (_set("hoi_label", [0, 0, 0]), "hoi_label has shape"),
    (lambda rec, tax: rec.update(hoi_label=[0 for _ in rec["hoi_label"]]), "hoi_label sets no category"),
    (lambda rec, tax: rec.update(hoi_label=[2 * b for b in rec["hoi_label"]]), "hoi_label is not multi-hot"),
    (_other_object_category, "hoi_label sets a category of another object"),
    (_poke("verb_feat", 0, np.inf), "verb_feat is not finite"),
    (_poke("human_feat", 0, np.nan), "human_feat is not finite"),
    (_set("object_feat", [0.0, 0.0, 0.0]), "object_feat has shape"),
    (lambda rec, tax: {"kind": "object", "object_box": rec["object_box"], "object_label": rec["object_label"],
                       "object_feat": rec["object_feat"]},
     "expected kind 'hoi'"),
])
def test_validate_instances_names_first_bad_record(tmp_path, edit, want):
    # the records go through a file: a wrong-length or wrong-kind record is
    # rejected by the loader, a bad value by validate_instances
    tax, world = gen_world(seed=27)
    records, _, _ = gen_dataset(world, tax, None, 6, 0, 0, seed=27)
    assert validate_instances(records, "hoi", tax) == world.feat_dim
    # record 4 (1-based) gets a later bad value; record 3 is the first bad one
    lines = saved_records(tmp_path, records)
    lines[3]["verb_feat"] = [np.nan] * world.feat_dim
    replaced = edit(lines[2], tax)
    if replaced is not None:
        lines[2] = replaced
    path = write_records(tmp_path / "bad.jsonl", lines)
    with pytest.raises(ValueError, match=f"^record 3: {want}"):
        validate_instances(load_instances(path), "hoi", tax)


def test_validate_instances_object_records_and_shared_feat_dim(tmp_path):
    tax, world = gen_world(seed=28)
    train, _, external = gen_dataset(world, tax, None, 3, 0, 4, seed=28)
    assert validate_instances(ObjectSet.empty(0, world.feat_dim), "object", tax) is None
    assert validate_instances(ObjectSet.empty(0, world.feat_dim), "object", tax, 5) == 5
    assert validate_instances(external, "object", tax, world.feat_dim) == world.feat_dim
    with pytest.raises(ValueError, match="record 1: object_feat has shape"):
        validate_instances(external, "object", tax, world.feat_dim + 1)
    mixed = saved_records(tmp_path, external[:1]) + saved_records(tmp_path, train[:1])
    with pytest.raises(ValueError, match="record 2: expected kind 'object'"):
        load_instances(write_records(tmp_path / "mixed.jsonl", mixed))
    with pytest.raises(ValueError, match="record 1: expected kind 'object'"):
        validate_instances(train, "object", tax)
    external.object_box[3] = [0.2, 0.2, 0.1, 0.9]
    with pytest.raises(ValueError, match="record 4: object_box is degenerate"):
        validate_instances(external, "object", tax)


def test_row_selection_and_put():
    tax, world = gen_world(seed=30)
    train, _, external = gen_dataset(world, tax, None, 6, 0, 4, seed=30)
    picked = train[np.array([4, 1])]
    assert len(picked) == 2 and isinstance(picked, HOISet)
    np.testing.assert_array_equal(picked.verb_feat, train.verb_feat[[4, 1]])
    assert len(external[external.object_label == external.object_label[0]]) >= 1
    with pytest.raises(TypeError, match="slice"):
        train[0]
    with pytest.raises(ValueError, match="human_box has shape"):
        train.put(0, {**{f.name: getattr(train, f.name)[1] for f in dataclasses.fields(train)},
                      "human_box": [0.5]})
