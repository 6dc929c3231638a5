"""Affordance feature bank: store verb features from training, then probe any
object feature by pairing it with every banked entry and reading the shared HOI
classifier. A verb counts a hit only on its own bank entries; the per-verb score
is hits / stored entries.

The probe runs entry-major: for a block of objects, each of a verb's entries is
paired with all the block's objects at once, and the first layer's ReLU is split
as relu(e + o) = max(e, -o) + o, so the object term o reaches the output
through W2 once per block instead of once per (object, entry) pair.
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
# recognize_objects pairs blocks of PROBE_COLS objects with groups of entries, and
# its hidden buffer and its best-logit buffer each hold at most
# max(PROBE_CELLS, hidden x PROBE_COLS) floats, whatever the number of objects
# and entries.
PROBE_COLS = 512
PROBE_CELLS = 32768


@dataclass
class AffordanceBank:
    """Per-verb stored verb-feature vectors, at most m each."""

    entries: dict[int, np.ndarray]  # verb id -> (s_i, feat_dim)
    m: int
    feat_dim: int

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
            "entries": {str(v): self.entries[v].tolist() for v in sorted(self.entries)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AffordanceBank":
        check_fields(d, {"m": int, "feat_dim": int, "entries": dict}, "bank")
        feat_dim = d["feat_dim"]
        entries = {}
        for v, rows in d["entries"].items():
            if str(int(v)) != v:  # one spelling per verb: "01" would overwrite the rows of "1"
                raise ValueError(f"bank entries key {v!r} is not a verb id in decimal")
            for j, row in enumerate(rows):
                number_items(row, f"bank verb {v} row {j}")
            arr = np.asarray(rows, dtype=float)
            entries[int(v)] = arr.reshape(len(rows), feat_dim) if len(rows) else np.zeros((0, feat_dim))
        bank = cls(entries=entries, m=d["m"], feat_dim=feat_dim)
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
    contains it; verbs with no instances store empty arrays.
    """
    if m < 1:
        raise ValueError("bank cap m must be at least 1")
    feat_dim = train_set.verb_feat.shape[1]
    if not len(train_set):
        warnings.warn("empty train set: bank has no entries", stacklevel=2)
    verbs = decouple_verb(train_set.hoi_label, tax)
    rng = substream(seed, "bank")

    entries = {}
    for v in range(tax.n_verbs):
        pool = train_set.verb_feat[verbs[:, v] == 1]
        if len(pool) > m:
            pool = pool[np.sort(rng.choice(len(pool), size=m, replace=False))]
        entries[v] = pool

    bank = AffordanceBank(entries=entries, m=m, feat_dim=feat_dim)
    bank.validate()
    return bank


@dataclass(eq=False)
class AffordanceScores:
    """recognize_objects() output: one grid over n objects x V verbs (V = tax.n_verbs).

    probed marks the bank's verbs. stored is S_i for a probed verb and 0 for
    any other, hits[k, i] is F_i for object k, and scores is F_i / S_i: NaN
    where S_i = 0 (undefined, never 0), so for every verb not probed. kept is
    scores > keep_threshold.
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
    pre-activation is e + o, with e = f @ W1_verb.T + b1 and
    o = object_feat @ W1_obj.T. The probe is entry-major: objects go in blocks of
    PROBE_COLS, held as -o's (hidden, objects) columns, and each verb's entries
    in groups. Since relu(e + o) = max(e, -o) + o exactly, a verb's own-category
    logits are W2 @ max(e, -o) + (W2 @ o + b2). The bracket is computed once per
    block and verb, and a group of entries costs one broadcast max, contiguous
    over the block's objects, and one matrix product. Only the order of the
    sums differs from a single forward pass, so a hit can differ only where a
    probability lies within rounding of hoi_threshold. The max over own
    categories fills a best-logit buffer of one or more groups, and the sigmoid
    and threshold run once per buffer. The hidden and best-logit buffers hold at
    most max(PROBE_CELLS, hidden x PROBE_COLS) floats each.
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

    probed = np.array([v in bank.entries for v in range(tax.n_verbs)])
    stored = np.array([len(bank.entries[v]) if p else 0 for v, p in enumerate(probed)], dtype=np.int64)
    hoi = model.hoi_classifier
    if hoi.d_in != 2 * bank.feat_dim:
        raise ValueError(f"classifier input dim {hoi.d_in} does not match twice the bank dim {bank.feat_dim}")
    w1_verb, w1_obj, hidden = hoi.w1[:, :bank.feat_dim], hoi.w1[:, bank.feat_dim:], hoi.hidden
    probes = [(v, hoi.w2[cats], hoi.b2[cats, None]) for v in np.flatnonzero(stored).tolist()
              if len(cats := tax.categories_of_verb(v))]  # each probed verb's own rows of W2 and b2
    most = max((len(bank.entries[v]) for v, _, _ in probes), default=0)
    hits = np.zeros((len(feats), tax.n_verbs), dtype=np.int64)
    for start in range(0, len(feats), PROBE_COLS):
        neg = w1_obj @ feats[start:start + PROBE_COLS].T  # the block's o, (hidden, cols), negated in place
        np.negative(neg, out=neg)
        cols = neg.shape[1]
        rows = min(most, max(1, PROBE_CELLS // cols))  # entries one best-logit buffer holds
        group = min(rows, max(1, PROBE_CELLS // (hidden * cols)))  # entries one hidden buffer holds
        h_buf, best = np.empty(hidden * group * cols), np.empty((rows, cols))
        for v, w2, b2 in probes:
            base = b2 - w2 @ neg  # W2 @ o + b2, as W2 @ -o is exactly -(W2 @ o)
            entry_hidden = bank.entries[v] @ w1_verb.T  # e, (s_i, hidden)
            entry_hidden += hoi.b1
            for first in range(0, len(entry_hidden), rows):
                chunk = entry_hidden[first:first + rows]
                for g0 in range(0, len(chunk), group):
                    e = chunk[g0:g0 + group]
                    h = h_buf[:hidden * len(e) * cols].reshape(hidden, len(e), cols)
                    np.maximum(neg[:, None], e.T[:, :, None], out=h)
                    logits = (w2 @ h.reshape(hidden, -1)).reshape(len(w2), len(e), cols)
                    logits += base[:, None]
                    logits.max(axis=0, out=best[g0:g0 + len(e)])
                passed = nn.sigmoid(best[:len(chunk)], overwrite=True) >= hoi_threshold
                hits[start:start + cols, v] += passed.sum(axis=0)
    scores = np.full(hits.shape, np.nan)
    np.divide(hits, stored, out=scores, where=stored > 0)
    return AffordanceScores(hits=hits, stored=stored, probed=probed, scores=scores,
                            kept=scores > keep_threshold)
