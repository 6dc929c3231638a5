"""HOI label space: verbs, objects, valid verb-object pairs, and the label algebra.

Interaction categories are multi-hot binary vectors of length C. Each category is
one (verb, object) pair; the two co-occurrence matrices map verb/object ids to the
categories they participate in and drive label composition and decoupling.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def _reject_unknown(d: dict, known, what: str) -> None:
    """Strict JSON loading: raise ValueError naming any key of d outside known."""
    unknown = set(d) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def one_hot(n: int, index: int) -> np.ndarray:
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for length {n}")
    v = np.zeros(n, dtype=np.int8)
    v[index] = 1
    return v


def build_cooccurrence(hoi_pairs, n_verbs: int, n_objects: int):
    """Build the verb-to-HOI and object-to-HOI binary matrices.

    Column c of each matrix has exactly one nonzero row: the verb (resp. object)
    of pair c. Duplicate pairs and out-of-range ids are rejected.
    """
    seen = {}
    for c, (v, o) in enumerate(hoi_pairs):
        if not 0 <= v < n_verbs:
            raise ValueError(f"verb id {v} out of range [0, {n_verbs}) in pair {c}")
        if not 0 <= o < n_objects:
            raise ValueError(f"object id {o} out of range [0, {n_objects}) in pair {c}")
        if (v, o) in seen:
            raise ValueError(f"duplicate HOI pair (verb={v}, object={o}) at indices {seen[(v, o)]} and {c}")
        seen[(v, o)] = c
    n_cats = len(hoi_pairs)
    verb_to_hoi = np.zeros((n_verbs, n_cats), dtype=np.int8)
    object_to_hoi = np.zeros((n_objects, n_cats), dtype=np.int8)
    for c, (v, o) in enumerate(hoi_pairs):
        verb_to_hoi[v, c] = 1
        object_to_hoi[o, c] = 1
    return verb_to_hoi, object_to_hoi


@dataclass
class Taxonomy:
    """The HOI label space. Immutable after construction; share freely.

    train_counts is the one field written once more after construction: dataset
    generation records realized per-category training counts into it in place.
    """

    verb_names: list[str]
    object_names: list[str]
    hoi_pairs: list[tuple[int, int]]
    verb_to_hoi: np.ndarray
    object_to_hoi: np.ndarray
    train_counts: np.ndarray
    no_interaction_verbs: frozenset[int] = field(default_factory=frozenset)

    @property
    def n_verbs(self) -> int:
        return len(self.verb_names)

    @property
    def n_objects(self) -> int:
        return len(self.object_names)

    @property
    def n_categories(self) -> int:
        return len(self.hoi_pairs)

    @classmethod
    def build(cls, verb_names, object_names, hoi_pairs, train_counts=None,
              no_interaction_verbs=()) -> "Taxonomy":
        pairs = [(int(v), int(o)) for v, o in hoi_pairs]
        verb_to_hoi, object_to_hoi = build_cooccurrence(pairs, len(verb_names), len(object_names))
        if train_counts is None:
            train_counts = np.zeros(len(pairs), dtype=np.int64)
        tax = cls(
            verb_names=list(verb_names),
            object_names=list(object_names),
            hoi_pairs=pairs,
            verb_to_hoi=verb_to_hoi,
            object_to_hoi=object_to_hoi,
            train_counts=np.asarray(train_counts, dtype=np.int64),
            no_interaction_verbs=frozenset(int(v) for v in no_interaction_verbs),
        )
        tax.validate()
        return tax

    def validate(self) -> None:
        if self.n_verbs < 1 or self.n_objects < 1 or self.n_categories < 1:
            raise ValueError("taxonomy needs at least one verb, one object, and one HOI pair")
        if self.verb_to_hoi.shape != (self.n_verbs, self.n_categories):
            raise ValueError("verb_to_hoi shape does not match taxonomy")
        if self.object_to_hoi.shape != (self.n_objects, self.n_categories):
            raise ValueError("object_to_hoi shape does not match taxonomy")
        if not ((self.verb_to_hoi.sum(axis=0) == 1).all() and (self.object_to_hoi.sum(axis=0) == 1).all()):
            raise ValueError("each HOI category must have exactly one verb and one object")
        for c, (v, o) in enumerate(self.hoi_pairs):
            if self.verb_to_hoi[v, c] != 1 or self.object_to_hoi[o, c] != 1:
                raise ValueError(f"co-occurrence matrices disagree with pair {c} = (verb={v}, object={o})")
        if len(set(self.hoi_pairs)) != self.n_categories:
            raise ValueError("duplicate HOI pairs")
        if self.train_counts.shape != (self.n_categories,) or (self.train_counts < 0).any():
            raise ValueError("train_counts must be nonnegative, one per HOI category")
        for v in self.no_interaction_verbs:
            if not 0 <= v < self.n_verbs:
                raise ValueError(f"no-interaction verb id {v} out of range")

    def pair_index(self, verb_id: int, object_id: int):
        """Category index of (verb, object), or None when the pair is invalid."""
        if not hasattr(self, "_pair_index"):
            object.__setattr__(self, "_pair_index", {p: c for c, p in enumerate(self.hoi_pairs)})
        return self._pair_index.get((verb_id, object_id))

    def categories_of_verb(self, verb_id: int) -> np.ndarray:
        return np.flatnonzero(self.verb_to_hoi[verb_id])

    def categories_of_object(self, object_id: int) -> np.ndarray:
        return np.flatnonzero(self.object_to_hoi[object_id])

    def affordances_of_object(self, object_id: int) -> set[int]:
        """Ground-truth affordance set: verbs valid for the object, minus no-interaction verbs."""
        verbs = {self.hoi_pairs[c][0] for c in self.categories_of_object(object_id)}
        return verbs - self.no_interaction_verbs

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": 1,
            "verbs": self.verb_names,
            "objects": self.object_names,
            "pairs": [[v, o] for v, o in self.hoi_pairs],
            "train_counts": self.train_counts.tolist(),
        }
        if self.no_interaction_verbs:
            d["no_interaction_verbs"] = sorted(self.no_interaction_verbs)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "Taxonomy":
        _reject_unknown(d, {"schema_version", "verbs", "objects", "pairs", "train_counts",
                            "no_interaction_verbs"}, "taxonomy")
        return cls.build(
            d["verbs"], d["objects"], [tuple(p) for p in d["pairs"]],
            train_counts=d.get("train_counts"),
            no_interaction_verbs=d.get("no_interaction_verbs", ()),
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "Taxonomy":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def _as_binary(vec, length: int, what: str) -> np.ndarray:
    """vec as an array whose last axis has the given length; leading axes are free."""
    v = np.asarray(vec)
    if v.ndim < 1 or v.shape[-1] != length:
        raise ValueError(f"{what} has shape {v.shape}, expected (..., {length})")
    return v


def compose_label(object_label, verb_label, tax: Taxonomy) -> np.ndarray:
    """Label of a composed verb-object sample: the elementwise AND of the HOI
    categories reachable from the object label and from the verb label.

    Invalid pairs come out all-zero; for one-hot inputs the result is one-hot at
    the unique matching category. Stacked labels broadcast over their leading
    axes: object labels (1, K, n_objects) with verb labels (B, 1, n_verbs) give
    the (B, K, C) block of every verb-object composition.
    """
    obj = _as_binary(object_label, tax.n_objects, "object label")
    verb = _as_binary(verb_label, tax.n_verbs, "verb label")
    from_obj = (obj @ tax.object_to_hoi) > 0
    from_verb = (verb @ tax.verb_to_hoi) > 0
    return (from_obj & from_verb).astype(np.int8)


def decouple_verb(hoi_label, tax: Taxonomy) -> np.ndarray:
    """Verb multi-hot of an HOI label: bit v set iff some set category has verb v."""
    y = _as_binary(hoi_label, tax.n_categories, "HOI label")
    return ((y @ tax.verb_to_hoi.T) > 0).astype(np.int8)


def decouple_object(hoi_label, tax: Taxonomy) -> np.ndarray:
    """Object multi-hot of an HOI label; mirror of decouple_verb."""
    y = _as_binary(hoi_label, tax.n_categories, "HOI label")
    return ((y @ tax.object_to_hoi.T) > 0).astype(np.int8)


def is_valid_pair(verb_id: int, object_id: int, tax: Taxonomy) -> bool:
    if not 0 <= verb_id < tax.n_verbs:
        raise ValueError(f"verb id {verb_id} out of range [0, {tax.n_verbs})")
    if not 0 <= object_id < tax.n_objects:
        raise ValueError(f"object id {object_id} out of range [0, {tax.n_objects})")
    return tax.pair_index(verb_id, object_id) is not None
