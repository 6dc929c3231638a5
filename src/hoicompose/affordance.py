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


@dataclass
class AffordanceScores:
    """recognize() output: per-verb hit counts and ratios, plus the kept set."""

    scores: dict[int, float]  # F_i / S_i; NaN when S_i = 0 (undefined, never 0)
    hits: dict[int, int]  # F_i
    stored: dict[int, int]  # S_i
    kept: set[int]


def recognize(
    object_feat,
    bank: AffordanceBank,
    model: HOIModel,
    tax: Taxonomy,
    hoi_threshold: float = DEFAULT_HOI_THRESHOLD,
    keep_threshold: float = DEFAULT_KEEP_THRESHOLD,
) -> AffordanceScores:
    """Probe one object feature against every bank entry.

    Each entry (verb i, feat f) runs the HOI classifier on f ++ object_feat; the
    entry scores a hit iff verb i's own max-over-categories probability reaches
    hoi_threshold (other verbs' predictions are discarded). Kept verbs are those
    with hit ratio strictly above keep_threshold.
    """
    if not 0 <= hoi_threshold <= 1 or not 0 <= keep_threshold <= 1:
        raise ValueError("thresholds must lie in [0, 1]")
    if bank.total_entries == 0:
        raise ValueError("bank has no entries")
    object_feat = np.asarray(object_feat, dtype=float)
    if object_feat.shape != (bank.feat_dim,):
        raise ValueError(f"object feature shape {object_feat.shape} does not match bank dim {bank.feat_dim}")
    if not np.isfinite(object_feat).all():
        raise ValueError("object feature has non-finite entries")

    scores: dict[int, float] = {}
    hits: dict[int, int] = {}
    stored: dict[int, int] = {}
    kept: set[int] = set()
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
        verb_scores = probs[:, own_cats].max(axis=1)
        f_i = int((verb_scores >= hoi_threshold).sum())
        hits[v] = f_i
        scores[v] = f_i / s_i
        if scores[v] > keep_threshold:
            kept.add(v)

    return AffordanceScores(scores=scores, hits=hits, stored=stored, kept=kept)


def recognize_objects(
    object_feats,
    bank: AffordanceBank,
    model: HOIModel,
    tax: Taxonomy,
    hoi_threshold: float = DEFAULT_HOI_THRESHOLD,
    keep_threshold: float = DEFAULT_KEEP_THRESHOLD,
):
    """recognize() over many object features.

    Returns (kept sets, score dicts) keyed by position, ready for the
    affordance metrics.
    """
    predicted: dict[int, set] = {}
    scores: dict[int, dict] = {}
    for i, feat in enumerate(object_feats):
        r = recognize(feat, bank, model, tax, hoi_threshold, keep_threshold)
        predicted[i] = r.kept
        scores[i] = r.scores
    return predicted, scores
