"""Affordance feature bank: store verb features from training, then probe any
object feature by pairing it with every banked entry and reading the shared HOI
classifier. A verb counts a hit only on its own bank entries; the per-verb score
is hits / stored entries.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .pipeline import HOIModel
from .seeding import substream
from .jsonfile import check_fields, number_items, read_json, write_json
from .taxonomy import Taxonomy, decouple_verb

DEFAULT_BANK_SIZE = 100
DEFAULT_HOI_THRESHOLD = 0.5
DEFAULT_KEEP_THRESHOLD = 0.5
# (object, entry) rows per block of recognize_objects: bounds its hidden buffer at
# PROBE_ROWS x hidden floats whatever the number of objects.
PROBE_ROWS = 1024


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
            "m": self.m,
            "feat_dim": self.feat_dim,
            "source_seed": self.source_seed,
            "entries": {str(v): self.entries[v].tolist() for v in sorted(self.entries)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AffordanceBank":
        check_fields(d, {"m": int, "feat_dim": int, "source_seed": int, "entries": dict}, "bank")
        feat_dim = d["feat_dim"]
        entries = {}
        for v, rows in d["entries"].items():
            if str(int(v)) != v:  # one spelling per verb: "01" would overwrite the rows of "1"
                raise ValueError(f"bank entries key {v!r} is not a verb id in decimal")
            for j, row in enumerate(rows):
                number_items(row, f"bank verb {v} row {j}")
            arr = np.asarray(rows, dtype=float)
            entries[int(v)] = arr.reshape(len(rows), feat_dim) if len(rows) else np.zeros((0, feat_dim))
        bank = cls(entries=entries, m=d["m"], feat_dim=feat_dim, source_seed=d["source_seed"])
        bank.validate()
        return bank

    def save(self, path) -> None:
        write_json(path, self.to_json_dict(), indent=None)

    @classmethod
    def load(cls, path) -> "AffordanceBank":
        return cls.from_json_dict(read_json(path, "bank"))


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

    Each (object, entry) pair, entry = (verb i, feat f), reads the HOI classifier
    on f ++ object_feat and scores a hit iff verb i's own max-over-categories
    probability reaches hoi_threshold, so a verb with no category of its own
    scores 0. Kept verbs are those with hit ratio strictly above keep_threshold.

    The first layer splits as W1 = [W1_verb | W1_obj], so each pair's hidden
    pre-activation is (f @ W1_verb.T + b1) + object_feat @ W1_obj.T: both halves
    are computed once, and each verb's pairs are summed block by block into one
    buffer of at most PROBE_ROWS x hidden (one object a block when S_i is larger),
    which reads only that verb's own output rows of W2.
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
    hoi = model.hoi_classifier
    if hoi.d_in != 2 * bank.feat_dim:
        raise ValueError(f"classifier input dim {hoi.d_in} does not match twice the bank dim {bank.feat_dim}")
    w1_verb, w1_obj = hoi.w1[:, :bank.feat_dim], hoi.w1[:, bank.feat_dim:]
    obj_hidden = feats @ w1_obj.T  # (n, hidden): the object half of every first layer
    hits = np.zeros((len(feats), tax.n_verbs), dtype=np.int64)
    for v in np.flatnonzero(stored).tolist():
        cats = tax.categories_of_verb(v)
        if not len(cats):
            continue
        entries = bank.entries[v]
        entry_hidden = entries @ w1_verb.T + hoi.b1  # (s_i, hidden)
        s_i = len(entries)
        block = max(1, PROBE_ROWS // s_i)
        buf = np.empty((min(block, len(feats)), s_i, hoi.hidden))
        w2, b2 = hoi.w2[cats], hoi.b2[cats, None]
        for start in range(0, len(feats), block):
            h = buf[:min(block, len(feats) - start)]
            np.add(entry_hidden, obj_hidden[start:start + len(h), None], out=h)
            np.maximum(h, 0.0, out=h)
            logits = w2 @ h.reshape(-1, hoi.hidden).T  # (own categories, rows): max runs down columns
            logits += b2
            probs = nn.sigmoid(logits.max(axis=0)).reshape(len(h), s_i)
            hits[start:start + len(h), v] = (probs >= hoi_threshold).sum(axis=1)
    scores = np.full(hits.shape, np.nan)
    np.divide(hits, stored, out=scores, where=stored > 0)
    return AffordanceScores(hits=hits, stored=stored, probed=probed, scores=scores,
                            kept=scores > keep_threshold)
