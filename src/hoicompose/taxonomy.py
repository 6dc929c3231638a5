"""HOI label space: verbs, objects, valid verb-object pairs, and the label algebra.

Interaction categories are multi-hot binary vectors of length C. Each category is
one (verb, object) pair; the two co-occurrence matrices map verb/object ids to the
categories they participate in and drive label composition and decoupling.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jsonfile import check_fields, int_items, read_json, write_json


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
    """The HOI label space. Immutable after construction; share freely."""

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

    def categories_of_verb(self, verb_id: int) -> np.ndarray:
        return np.flatnonzero(self.verb_to_hoi[verb_id])

    def affordance_matrix(self) -> np.ndarray:
        """Ground-truth affordances, (n_objects, n_verbs) bool: [o, v] is set iff
        (v, o) is a valid pair and v is not a no-interaction verb."""
        valid = (self.object_to_hoi.astype(np.int64) @ self.verb_to_hoi.T) > 0
        valid[:, sorted(self.no_interaction_verbs)] = False
        return valid

    def to_json_dict(self) -> dict:
        d = {
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
        check_fields(d, {"verbs": list, "objects": list, "pairs": list, "train_counts": list,
                         "no_interaction_verbs": list}, "taxonomy")
        for key in ("verbs", "objects"):
            for name in d[key]:
                if type(name) is not str:  # a name is printed as text
                    raise ValueError(f"taxonomy {key} must hold strings, got {name!r}")
        counts = d.get("train_counts")
        return cls.build(
            d["verbs"], d["objects"], [tuple(int_items(p, "taxonomy pair")) for p in d["pairs"]],
            train_counts=None if counts is None else int_items(counts, "taxonomy train_counts"),
            no_interaction_verbs=int_items(d.get("no_interaction_verbs", []), "taxonomy no_interaction_verbs"),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "Taxonomy":
        return cls.from_json_dict(read_json(path, "taxonomy"))


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
