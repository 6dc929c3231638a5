import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicompose.taxonomy import (
    Taxonomy,
    build_cooccurrence,
    compose_label,
    decouple_object,
    decouple_verb,
    one_hot,
)


def small_tax():
    # 3 verbs x 3 objects, 5 valid pairs
    pairs = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]
    return Taxonomy.build(
        verb_names=["hold", "ride", "no_interaction"],
        object_names=["cup", "bike", "kite"],
        hoi_pairs=pairs,
        no_interaction_verbs=[2],
    )


def reference_compose(object_label, verb_label, tax):
    # Independent loop-based route: scan the pair list directly.
    out = np.zeros(tax.n_categories, dtype=np.int8)
    for c, (v, o) in enumerate(tax.hoi_pairs):
        if verb_label[v] and object_label[o]:
            out[c] = 1
    return out


def test_one_hot():
    v = one_hot(4, 2)
    assert v.tolist() == [0, 0, 1, 0]
    with pytest.raises(ValueError):
        one_hot(4, 4)
    with pytest.raises(ValueError):
        one_hot(0, 0)


def test_cooccurrence_columns_sum_to_one():
    tax = small_tax()
    assert tax.verb_to_hoi.shape == (3, 5)
    assert tax.object_to_hoi.shape == (3, 5)
    assert (tax.verb_to_hoi.sum(axis=0) == 1).all()
    assert (tax.object_to_hoi.sum(axis=0) == 1).all()


def test_cooccurrence_rejects_duplicates_and_range():
    with pytest.raises(ValueError, match="verb=0, object=1"):
        build_cooccurrence([(0, 1), (0, 1)], 2, 2)
    with pytest.raises(ValueError):
        build_cooccurrence([(2, 0)], 2, 2)
    with pytest.raises(ValueError):
        build_cooccurrence([(0, -1)], 2, 2)


def test_compose_matches_reference_small():
    tax = small_tax()
    for v in range(3):
        for o in range(3):
            got = compose_label(one_hot(3, o), one_hot(3, v), tax)
            want = reference_compose(one_hot(3, o), one_hot(3, v), tax)
            np.testing.assert_array_equal(got, want)


def test_compose_invalid_pair_gives_all_zero():
    tax = small_tax()
    # ride cup is not in the pair list
    y = compose_label(one_hot(3, 0), one_hot(3, 1), tax)
    assert y.sum() == 0


def test_compose_multi_hot_verb():
    tax = small_tax()
    verb = np.array([1, 0, 1], dtype=np.int8)  # hold + no_interaction
    y = compose_label(one_hot(3, 0), verb, tax)
    # cup pairs with hold (pair 0) and no_interaction (pair 3)
    assert y.tolist() == [1, 0, 0, 1, 0]


def test_decouple_roundtrip_single_pair():
    tax = small_tax()
    for c, (v, o) in enumerate(tax.hoi_pairs):
        y = np.zeros(5, dtype=np.int8)
        y[c] = 1
        assert decouple_verb(y, tax).tolist() == one_hot(3, v).tolist()
        assert decouple_object(y, tax).tolist() == one_hot(3, o).tolist()


def test_categories_of_and_affordances():
    tax = small_tax()
    assert tax.categories_of_verb(2).tolist() == [3, 4]
    assert np.flatnonzero(tax.object_to_hoi[1]).tolist() == [1, 2]
    # no_interaction excluded from affordances
    afford = tax.affordance_matrix()
    assert afford.dtype == bool
    assert afford.tolist() == [[True, False, False], [True, True, False], [False, False, False]]


def test_json_roundtrip(tmp_path):
    tax = small_tax()
    tax.train_counts[:] = [5, 0, 3, 1, 2]
    path = tmp_path / "tax.json"
    tax.save(path)
    back = Taxonomy.load(path)
    assert back.verb_names == tax.verb_names
    assert back.object_names == tax.object_names
    assert back.hoi_pairs == tax.hoi_pairs
    assert back.no_interaction_verbs == tax.no_interaction_verbs
    np.testing.assert_array_equal(back.train_counts, tax.train_counts)
    np.testing.assert_array_equal(back.verb_to_hoi, tax.verb_to_hoi)


def test_json_rejects_unknown_keys(tmp_path):
    tax = small_tax()
    d = {"schema_version": 1, **tax.to_json_dict()}
    d["surprise"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="surprise"):
        Taxonomy.load(path)


@pytest.mark.parametrize("version", [7, None, True, 1.0, "1"])
def test_load_rejects_other_schema_versions(tmp_path, version):
    d = small_tax().to_json_dict()
    if version is not None:
        d["schema_version"] = version
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=re.escape(f"unsupported taxonomy schema_version {version!r}")):
        Taxonomy.load(path)


@pytest.mark.parametrize("edit,needle", [
    (lambda d: d["train_counts"].__setitem__(0, 9.5), "taxonomy train_counts must hold integers, got 9.5"),
    (lambda d: d["train_counts"].__setitem__(0, True), "taxonomy train_counts must hold integers, got True"),
    (lambda d: d["pairs"][0].__setitem__(0, "0"), "taxonomy pair must hold integers, got '0'"),
    (lambda d: d["pairs"][1].__setitem__(1, 1.0), "taxonomy pair must hold integers, got 1.0"),
    (lambda d: d.update(no_interaction_verbs=[2.0]), "taxonomy no_interaction_verbs must hold integers, got 2.0"),
    (lambda d: d.update(pairs={"0": [0, 0]}), "taxonomy pairs must be a list, got {'0': [0, 0]}"),
])
def test_json_rejects_non_integer_ids_and_counts(tmp_path, edit, needle):
    # int() used to read a count of 9.5 as 9, true as 1 and the pair id "0" as 0
    d = {"schema_version": 1, **small_tax().to_json_dict()}
    edit(d)
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=re.escape(needle)):
        Taxonomy.load(path)


def test_validate_catches_tampering():
    tax = small_tax()
    tax.verb_to_hoi[0, 0] = 0
    with pytest.raises(ValueError):
        tax.validate()


@st.composite
def random_taxonomy(draw):
    n_v = draw(st.integers(min_value=1, max_value=6))
    n_o = draw(st.integers(min_value=1, max_value=6))
    all_pairs = [(v, o) for v in range(n_v) for o in range(n_o)]
    k = draw(st.integers(min_value=1, max_value=len(all_pairs)))
    chosen = draw(st.permutations(all_pairs))[:k]
    return Taxonomy.build(
        verb_names=[f"v{i}" for i in range(n_v)],
        object_names=[f"o{i}" for i in range(n_o)],
        hoi_pairs=sorted(chosen),
    )


@settings(max_examples=60, deadline=None)
@given(random_taxonomy(), st.data())
def test_compose_matches_reference_property(tax, data):
    verb = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=tax.n_verbs, max_size=tax.n_verbs)),
        dtype=np.int8,
    )
    obj = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=tax.n_objects, max_size=tax.n_objects)),
        dtype=np.int8,
    )
    got = compose_label(obj, verb, tax)
    want = reference_compose(obj, verb, tax)
    np.testing.assert_array_equal(got, want)
    # decoupling a composed label can only light verbs/objects that were lit
    if got.any():
        assert (decouple_verb(got, tax) <= verb).all()
        assert (decouple_object(got, tax) <= obj).all()


@settings(max_examples=40, deadline=None)
@given(random_taxonomy(), st.data())
def test_compose_label_broadcasts_stacked_labels(tax, data):
    b = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 4))
    bits = st.integers(0, 1)
    verbs = np.array(data.draw(st.lists(st.lists(bits, min_size=tax.n_verbs, max_size=tax.n_verbs),
                                        min_size=b, max_size=b)), dtype=np.int8)
    objs = np.array(data.draw(st.lists(st.lists(bits, min_size=tax.n_objects, max_size=tax.n_objects),
                                       min_size=k, max_size=k)), dtype=np.int8)
    block = compose_label(objs[None, :, :], verbs[:, None, :], tax)
    assert block.shape == (b, k, tax.n_categories) and block.dtype == np.int8
    for i in range(b):
        for j in range(k):
            np.testing.assert_array_equal(block[i, j], reference_compose(objs[j], verbs[i], tax))


def test_compose_label_rejects_wrong_last_axis():
    tax = small_tax()
    with pytest.raises(ValueError, match="object label"):
        compose_label(np.zeros((2, 4), dtype=np.int8), np.zeros((2, 3), dtype=np.int8), tax)
    with pytest.raises(ValueError, match="verb label"):
        compose_label(one_hot(3, 0), np.int8(1), tax)
