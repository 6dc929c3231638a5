import numpy as np
import pytest

from hoicompose.seeding import per_instance_rng, substream
from hoicompose.evaluation import make_split
from hoicompose.synth import (
    HOIInstance,
    ObjectInstance,
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
    np.testing.assert_array_equal(inst.verb_feat, world.verb_prototypes[v])
    np.testing.assert_array_equal(inst.object_feat, world.object_prototypes[o])
    np.testing.assert_array_equal(inst.human_feat, world.verb_prototypes[v])


def test_sample_hoi_label_consistency():
    tax, world = gen_world(seed=4)
    rng = np.random.default_rng(1)
    for cat in range(0, tax.n_categories, 7):
        inst = sample_hoi_instance(world, tax, cat, rng, co_label_prob=0.5)
        assert inst.hoi_label[cat] == 1
        want = one_hot(tax.n_objects, inst.object_label)
        np.testing.assert_array_equal(decouple_object(inst.hoi_label, tax), want)
        assert validate_instances([inst], "hoi", tax) == world.feat_dim


def test_sample_hoi_instance_invariants_bulk():
    tax, world = gen_world(seed=9)
    instances = []
    for i in range(500):
        rng = per_instance_rng(9, "bulk", i)
        cat = int(rng.integers(tax.n_categories))
        instances.append(sample_hoi_instance(world, tax, cat, rng, co_label_prob=0.2))
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
        d = np.linalg.norm(world.object_prototypes - inst.object_feat, axis=1)
        hits += int(np.argmin(d)) == inst.object_label
    assert hits / n >= 0.99


def test_external_object_domain_shift():
    tax, world = gen_world(seed=12, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    inst = sample_object_instance(world, 3, rng)
    np.testing.assert_allclose(inst.object_feat, world.object_prototypes[3] + world.object_domain_shift)
    assert validate_instances([inst], "object", tax, world.feat_dim) == world.feat_dim
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
            d = np.linalg.norm(w.object_prototypes - inst.object_feat, axis=1)
            hits += int(np.argmin(d)) == o
        return hits / 400

    assert accuracy(big) < accuracy(base_world)


def test_gen_dataset_novel_object_leakage_free():
    tax, world = gen_world(seed=21)
    split = make_split(tax, "novel-object", rng=substream(21, "split"))
    train, test, external = gen_dataset(world, tax, split, 300, 150, 150, seed=21)
    unseen = split.unseen_hoi_ids
    unseen_objects = split.unseen_object_ids
    for inst in train:
        assert inst.object_label not in unseen_objects
        assert not (set(np.flatnonzero(inst.hoi_label)) & unseen)
    # novel objects do reach the external stream and the test set
    assert any(o.object_label in unseen_objects for o in external)
    assert any(inst.object_label in unseen_objects for inst in test)


def test_gen_dataset_records_realized_counts():
    tax, world = gen_world(seed=22)
    train, _, _ = gen_dataset(world, tax, None, 250, 50, 50, seed=22)
    realized = np.zeros(tax.n_categories, dtype=np.int64)
    for inst in train:
        realized += inst.hoi_label
    np.testing.assert_array_equal(tax.train_counts, realized)


def test_gen_dataset_empty_train_ok():
    tax, world = gen_world(seed=23)
    train, test, external = gen_dataset(world, tax, None, 0, 40, 20, seed=23)
    assert train == []
    assert len(test) == 40 and len(external) == 20
    assert (tax.train_counts == 0).all()


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
    # repeat on the same objects: the realized-count overwrite must not feed
    # back into the sampling weights
    c, _, _ = gen_dataset(world1, tax1, None, 50, 10, 10, seed=25)
    for x, y, z in zip(a, b, c):
        np.testing.assert_array_equal(x.hoi_label, y.hoi_label)
        np.testing.assert_array_equal(x.verb_feat, y.verb_feat)
        np.testing.assert_array_equal(x.human_box, y.human_box)
        np.testing.assert_array_equal(x.hoi_label, z.hoi_label)
        np.testing.assert_array_equal(x.verb_feat, z.verb_feat)


def test_jsonl_roundtrip_lossless(tmp_path):
    tax, world = gen_world(seed=26)
    train, _, external = gen_dataset(world, tax, None, 20, 5, 8, seed=26)
    path = tmp_path / "mixed.jsonl"
    save_instances(path, train + external)
    back = load_instances(path)
    assert len(back) == 28
    for orig, loaded in zip(train, back[:20]):
        assert isinstance(loaded, HOIInstance)
        np.testing.assert_array_equal(orig.human_box, loaded.human_box)
        np.testing.assert_array_equal(orig.verb_feat, loaded.verb_feat)
        np.testing.assert_array_equal(orig.hoi_label, loaded.hoi_label)
    for orig, loaded in zip(external, back[20:]):
        assert isinstance(loaded, ObjectInstance)
        np.testing.assert_array_equal(orig.object_feat, loaded.object_feat)
        assert orig.object_label == loaded.object_label


def test_load_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "mystery"}\n')
    with pytest.raises(ValueError, match="mystery"):
        load_instances(path)


def _set(name, value):
    return lambda inst, tax: setattr(inst, name, value)


def _poke(name, index, value):
    def edit(inst, tax):
        arr = getattr(inst, name).copy()
        arr[index] = value
        setattr(inst, name, arr)
    return edit


def _other_object_category(inst, tax):
    other = next(c for c, (_, o) in enumerate(tax.hoi_pairs) if o != inst.object_label)
    inst.hoi_label = inst.hoi_label.copy()
    inst.hoi_label[other] = 1


@pytest.mark.parametrize("edit,want", [
    (_poke("human_box", 2, 0.0), "human_box is degenerate"),
    (_poke("object_box", 2, 1.5), "object_box lies outside"),
    (_poke("human_box", 1, np.nan), "human_box is not finite; human_box is degenerate"),
    (_set("object_label", 99), "object_label outside"),
    (_set("hoi_label", np.zeros(3, dtype=np.int8)), "hoi_label has shape"),
    (lambda inst, tax: setattr(inst, "hoi_label", 0 * inst.hoi_label), "hoi_label sets no category"),
    (lambda inst, tax: setattr(inst, "hoi_label", 2 * inst.hoi_label), "hoi_label is not multi-hot"),
    (_other_object_category, "hoi_label sets a category of another object"),
    (_poke("verb_feat", 0, np.inf), "verb_feat is not finite"),
    (_poke("human_feat", 0, np.nan), "human_feat is not finite"),
    (_set("object_feat", np.zeros(3)), "object_feat has shape"),
    (lambda inst, tax: ObjectInstance(inst.object_box, inst.object_label, inst.object_feat),
     "expected kind 'hoi'"),
])
def test_validate_instances_names_first_bad_record(edit, want):
    tax, world = gen_world(seed=27)
    records, _, _ = gen_dataset(world, tax, None, 6, 0, 0, seed=27)
    assert validate_instances(records, "hoi", tax) == world.feat_dim
    # record 4 (1-based) gets a later bad value; record 3 is the first bad one
    records[3] = HOIInstance(**{**records[3].__dict__, "verb_feat": np.full(world.feat_dim, np.nan)})
    records[2] = HOIInstance(**records[2].__dict__)
    replaced = edit(records[2], tax)
    if replaced is not None:
        records[2] = replaced
    with pytest.raises(ValueError, match=f"^record 3: {want}"):
        validate_instances(records, "hoi", tax)


def test_validate_instances_object_records_and_shared_feat_dim():
    tax, world = gen_world(seed=28)
    train, _, external = gen_dataset(world, tax, None, 3, 0, 4, seed=28)
    assert validate_instances([], "object", tax) is None
    assert validate_instances([], "object", tax, 5) == 5
    assert validate_instances(external, "object", tax, world.feat_dim) == world.feat_dim
    with pytest.raises(ValueError, match="record 1: object_feat has shape"):
        validate_instances(external, "object", tax, world.feat_dim + 1)
    with pytest.raises(ValueError, match="record 2: expected kind 'object'"):
        validate_instances([external[0], train[0]], "object", tax)
    external[3].object_box = np.array([0.2, 0.2, 0.1, 0.9])
    with pytest.raises(ValueError, match="record 4: object_box is degenerate"):
        validate_instances(external, "object", tax)
