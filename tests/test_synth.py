import dataclasses
import io
import re
import tempfile
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


def test_sample_hoi_noiseless_features_equal_prototypes():
    tax, world = gen_world(seed=4, noise_sigma=0.0)
    rng = np.random.default_rng(0)
    cat = 7
    v, o = tax.hoi_pairs[cat]
    inst = sample_hoi_instance(world, tax, cat, rng)
    np.testing.assert_array_equal(inst["verb_feat"], world.verb_prototypes[v])
    np.testing.assert_array_equal(inst["object_feat"], world.object_prototypes[o])
    np.testing.assert_array_equal(inst["human_feat"], world.verb_prototypes[v])


def one_row(record):
    """A one-row set holding record (an HOISet when it has a label)."""
    cls = HOISet if "hoi_label" in record else ObjectSet
    return cls(**{name: np.asarray(value)[None] for name, value in record.items()})


def test_sample_hoi_label_consistency():
    tax, world = gen_world(seed=4)
    rng = np.random.default_rng(1)
    for cat in range(0, tax.n_categories, 7):
        inst = sample_hoi_instance(world, tax, cat, rng, co_label_prob=0.5)
        assert inst["hoi_label"][cat] == 1
        want = one_hot(tax.n_objects, inst["object_label"])
        np.testing.assert_array_equal(decouple_object(inst["hoi_label"], tax), want)
        assert validate_instances(one_row(inst), "hoi", tax) == world.feat_dim


def test_sample_hoi_instance_invariants_bulk():
    tax, world = gen_world(seed=9)
    instances = HOISet.empty(500, tax.n_categories, world.feat_dim)
    for i in range(500):
        rng = per_instance_rng(9, "bulk", i)
        cat = int(rng.integers(tax.n_categories))
        for name, value in sample_hoi_instance(world, tax, cat, rng, co_label_prob=0.2).items():
            getattr(instances, name)[i] = value
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
    one = one_row(inst)
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
    assert validate_instances(ObjectSet.empty(0, world.feat_dim), "object", tax) is None
    assert validate_instances(ObjectSet.empty(0, world.feat_dim), "object", tax, 5) == 5
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
