"""Affordance feature bank: store verb features from training, then probe any
object feature by pairing it with every banked entry and reading the shared HOI
classifier. A verb counts a hit only on its own bank entries; the per-verb score
is hits / stored entries.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .pipeline import HOIModel
from .seeding import substream
from .taxonomy import Taxonomy, _reject_unknown, decouple_verb

DEFAULT_BANK_SIZE = 100
DEFAULT_HOI_THRESHOLD = 0.5
DEFAULT_KEEP_THRESHOLD = 0.5


@dataclass
class AffordanceBank:
    """Per-verb stored verb-feature vectors, at most m each."""

    entries: dict[int, np.ndarray]  # verb id -> (s_i, feat_dim)
    m: int
    feat_dim: int
    source_seed: int

    def s_counts(self) -> dict[int, int]:
        return {v: len(arr) for v, arr in self.entries.items()}

    @property
    def total_entries(self) -> int:
        return sum(len(arr) for arr in self.entries.values())

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError("bank cap m must be at least 1")
        for v, arr in self.entries.items():
            if len(arr) > self.m:
                raise ValueError(f"verb {v} stores {len(arr)} entries, above cap {self.m}")
            if len(arr) and arr.shape[1] != self.feat_dim:
                raise ValueError(f"verb {v} entries have dim {arr.shape[1]}, expected {self.feat_dim}")
            if not np.isfinite(arr).all():
                raise ValueError(f"verb {v} entries hold non-finite values")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "m": self.m,
            "feat_dim": self.feat_dim,
            "source_seed": self.source_seed,
            "entries": {str(v): self.entries[v].tolist() for v in sorted(self.entries)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AffordanceBank":
        _reject_unknown(d, {"schema_version", "m", "feat_dim", "source_seed", "entries"}, "bank")
        feat_dim = int(d["feat_dim"])
        entries = {}
        for v, rows in d["entries"].items():
            arr = np.asarray(rows, dtype=float)
            entries[int(v)] = arr.reshape(len(rows), feat_dim) if len(rows) else np.zeros((0, feat_dim))
        bank = cls(entries=entries, m=int(d["m"]), feat_dim=feat_dim, source_seed=int(d["source_seed"]))
        bank.validate()
        return bank

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "AffordanceBank":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


def build_bank(train_set, tax: Taxonomy, m: int = DEFAULT_BANK_SIZE, seed: int = 0) -> AffordanceBank:
    """Uniformly sample up to m verb features per verb from a training HOISet.

    A verb's pool is the verb_feat rows, in instance order, whose label
    contains it. No-interaction verbs are skipped entirely; verbs with no
    instances store empty arrays.
    """
    if m < 1:
        raise ValueError("bank cap m must be at least 1")
    feat_dim = train_set.verb_feat.shape[1]
    if len(train_set):
        verbs = decouple_verb(train_set.hoi_label, tax)
    else:
        warnings.warn("empty train set: bank has no entries", stacklevel=2)
        verbs = np.zeros((0, tax.n_verbs), dtype=np.int8)
    rng = substream(seed, "bank")

    entries = {}
    for v in range(tax.n_verbs):
        if v in tax.no_interaction_verbs:
            continue
        pool = train_set.verb_feat[verbs[:, v] == 1]
        if len(pool) > m:
            pool = pool[np.sort(rng.choice(len(pool), size=m, replace=False))]
        entries[v] = pool

    bank = AffordanceBank(entries=entries, m=m, feat_dim=feat_dim, source_seed=seed)
    bank.validate()
    return bank


@dataclass(eq=False)
class AffordanceScores:
    """recognize_objects() output: one grid over n objects x V verbs (V = tax.n_verbs).

    probed marks the bank's verbs minus the no-interaction verbs. stored is S_i
    for a probed verb and 0 for any other, hits[k, i] is F_i for object k, and
    scores is F_i / S_i: NaN where S_i = 0 (undefined, never 0), so for every
    verb not probed. kept is scores > keep_threshold.
    """

    hits: np.ndarray  # (n, V) int64
    stored: np.ndarray  # (V,) int64
    probed: np.ndarray  # (V,) bool
    scores: np.ndarray  # (n, V) float
    kept: np.ndarray  # (n, V) bool


def recognize(
    object_feat,
    bank: AffordanceBank,
    model: HOIModel,
    tax: Taxonomy,
    hoi_threshold: float = DEFAULT_HOI_THRESHOLD,
    keep_threshold: float = DEFAULT_KEEP_THRESHOLD,
) -> AffordanceScores:
    """recognize_objects() for one object feature (feat_dim,): a grid of one row."""
    return recognize_objects(np.asarray(object_feat, dtype=float)[None], bank, model, tax,
                             hoi_threshold, keep_threshold)


def recognize_objects(
    object_feats,
    bank: AffordanceBank,
    model: HOIModel,
    tax: Taxonomy,
    hoi_threshold: float = DEFAULT_HOI_THRESHOLD,
    keep_threshold: float = DEFAULT_KEEP_THRESHOLD,
) -> AffordanceScores:
    """Probe each of n object features (n, feat_dim) against every bank entry.

    Each entry (verb i, feat f) runs the HOI classifier on f ++ object_feat, one
    forward pass per (object, verb); the entry scores a hit iff verb i's own
    max-over-categories probability reaches hoi_threshold (other verbs'
    predictions are discarded), so a verb with no category of its own scores 0.
    Kept verbs are those with hit ratio strictly above keep_threshold.
    """
    if not 0 <= hoi_threshold <= 1 or not 0 <= keep_threshold <= 1:
        raise ValueError("thresholds must lie in [0, 1]")
    if bank.total_entries == 0:
        raise ValueError("bank has no entries")
    outside = sorted(v for v in bank.entries if not 0 <= v < tax.n_verbs)
    if outside:
        raise ValueError(f"bank verbs {outside} lie outside the taxonomy's {tax.n_verbs} verbs")
    feats = np.asarray(object_feats, dtype=float)
    if feats.ndim != 2 or (len(feats) and feats.shape[1] != bank.feat_dim):
        raise ValueError(f"object feature shape {feats.shape[1:]} does not match bank dim {bank.feat_dim}")
    if not np.isfinite(feats).all():
        raise ValueError("object features have non-finite entries")

    probed = np.array([v in bank.entries and v not in tax.no_interaction_verbs for v in range(tax.n_verbs)])
    stored = np.array([len(bank.entries[v]) if p else 0 for v, p in enumerate(probed)], dtype=np.int64)
    probes = [(v, bank.entries[v], tax.categories_of_verb(v)) for v in np.flatnonzero(stored).tolist()]
    hits = np.zeros((len(feats), tax.n_verbs), dtype=np.int64)
    for k, feat in enumerate(feats):
        for v, entries, cats in probes:
            if len(cats):
                x = np.hstack([entries, np.broadcast_to(feat, entries.shape)])
                _, probs = nn.mlp_forward(model.hoi_classifier, x)
                hits[k, v] = (probs[:, cats].max(axis=1) >= hoi_threshold).sum()
    scores = np.full(hits.shape, np.nan)
    np.divide(hits, stored, out=scores, where=stored > 0)
    return AffordanceScores(hits=hits, stored=stored, probed=probed, scores=scores,
                            kept=scores > keep_threshold)
