"""Affordance feature bank: store verb features from training, then probe any
object feature by pairing it with every banked entry and reading the shared HOI
classifier. A verb counts a hit only on its own bank entries; the per-verb score
is hits / stored entries.

The probe runs entry-major over blocks of objects, with relu(e + o) split as
max(e, -o) + o, and in float32. A pair is flagged when its float32 best logit
lies within bound = 2 (g_{hidden+3} (L H + B) + 2^-149 (hidden (H + 1) + L + 1))
of where float64 sigmoid(x) >= hoi_threshold flips, or could be non-finite, and
is then decided in float64 (recognize_objects defines the terms). g covers the
product's roundings and three more (two casts, one add), 2^-149 the underflows
and the factor 2 the float64 sums' own rounding.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import nn
from .pipeline import HOIModel
from .seeding import substream
from .jsonfile import check_fields, read_arrays, read_json, write_arrays, write_json
from .taxonomy import Taxonomy, decouple_verb

_BANK_SCHEMA = 2
BANK_ENTRIES = "entries.npy"  # the file beside a bank
DEFAULT_BANK_SIZE = 100
DEFAULT_HOI_THRESHOLD = 0.5
DEFAULT_KEEP_THRESHOLD = 0.5
# recognize_objects' hidden and best-logit buffers each hold at most
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

    def save(self, path) -> None:
        """Write the bank as the JSON document at path, m, feat_dim and each verb's
        entry count, and every entry, in ascending verb order, as BANK_ENTRIES beside it."""
        rows = np.concatenate([np.zeros((0, self.feat_dim)),
                               *(self.entries[v].reshape(-1, self.feat_dim) for v in sorted(self.entries))])
        write_json(path, {"m": self.m, "feat_dim": self.feat_dim, "counts": self.s_counts(),
                          "arrays": write_arrays(path, {BANK_ENTRIES: rows})}, version=_BANK_SCHEMA, indent=None)

    @classmethod
    def load(cls, path) -> "AffordanceBank":
        """The bank of a save document; ValueError names a failed field or file."""
        d = read_json(path, "bank", version=_BANK_SCHEMA)
        check_fields(d, {"m": int, "feat_dim": int, "counts": dict, "arrays": dict}, "bank")
        for v, n in d["counts"].items():
            if str(int(v)) != v:  # one spelling per verb: "01" would overwrite the rows of "1"
                raise ValueError(f"bank counts key {v!r} is not a verb id in decimal")
            if type(n) is not int or n < 0:
                raise ValueError(f"bank verb {v} count must be a nonnegative integer, got {n!r}")
        verbs = sorted(d["counts"], key=int)
        rows = read_arrays(path, d["arrays"], {BANK_ENTRIES: (sum(d["counts"].values()), d["feat_dim"])})
        parts = np.split(rows[BANK_ENTRIES], np.cumsum([d["counts"][v] for v in verbs])[:-1])
        bank = cls(entries=dict(zip(map(int, verbs), parts)), m=d["m"], feat_dim=d["feat_dim"])
        bank.validate()
        return bank


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

    stored is S_i for a verb in the bank and 0 for any other, hits[k, i] is F_i
    for object k, and scores is F_i / S_i: NaN where S_i = 0 (undefined, never
    0), so for every verb not in the bank. kept is scores > keep_threshold.
    """

    hits: np.ndarray  # (n, V) int64
    stored: np.ndarray  # (V,) int64
    scores: np.ndarray  # (n, V) float
    kept: np.ndarray  # (n, V) bool


@functools.lru_cache
def decision_point(hoi_threshold: float) -> float:
    """The least float64 x with nn.sigmoid(x) >= hoi_threshold: -inf at threshold
    0, and about 36.74 at 1, where the float64 sigmoid rounds to 1. It bisects
    the float64 values in order, as ranks (sign-folded bit patterns), so it is
    exact wherever nn.sigmoid is monotone; each threshold is bisected once."""
    def value(rank: int) -> float:
        return math.copysign(float(np.int64(abs(rank)).view(np.float64)), rank)

    lo, hi = -0x7FF0000000000001, 0x7FF0000000000000  # below -inf (never read) and +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if nn.sigmoid(np.array([value(mid)]))[0] >= hoi_threshold else (mid, hi)
    return value(hi)


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

    With e = f @ W1_verb.T + b1 and o = object_feat @ W1_obj.T, a verb's
    own-category logits are W2 @ max(e, -o) + (W2 @ o + b2), taken over blocks
    of PROBE_COLS objects with the bracket once per block and verb. The hidden
    and best-logit buffers hold at most max(PROBE_CELLS, hidden x PROBE_COLS)
    floats each. Only the order of the sums differs from a single forward pass,
    so a hit can differ only where a probability lies within rounding of
    hoi_threshold.

    -o, e, W2 and the bracket are rounded to float32, and the max, the product
    and the best logits run in float32. Per block and verb, with H the largest
    |o| or |e|, B the largest |bracket| and L the largest ||W2_c||_1 over own
    categories c, a float32 logit lies within
    bound = 2 (g_{hidden+3} (L H + B) + 2^-149 (hidden (H + 1) + L + 1))
    of the float64 one, g_n = n u / (1 - n u) with u = 2^-24. A pair is flagged
    when its float32 best logit lies within bound of
    x* = decision_point(hoi_threshold), or when (L + 1)(H + 1) + B >= 2^126,
    where float32 could overflow. Flagged pairs are recomputed in float64 along
    the same split, their bracket retaken by a product of the same shape as
    W2 @ max(e, -o) so that the two cancel where every ReLU is 0, and hit iff
    nn.sigmoid(logit) >= hoi_threshold; any other pair hits iff its float32
    best logit exceeds x* + bound.
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

    stored = np.array([len(bank.entries.get(v, ())) for v in range(tax.n_verbs)], dtype=np.int64)
    hoi = model.hoi_classifier
    if hoi.d_in != 2 * bank.feat_dim:
        raise ValueError(f"classifier input dim {hoi.d_in} does not match twice the bank dim {bank.feat_dim}")
    w1_verb, w1_obj, hidden = hoi.w1[:, :bank.feat_dim], hoi.w1[:, bank.feat_dim:], hoi.hidden
    probes = [(v, hoi.w2[cats], hoi.b2[cats, None]) for v in np.flatnonzero(stored).tolist()
              if len(cats := tax.categories_of_verb(v))]  # each banked verb's own rows of W2 and b2
    most = max((len(bank.entries[v]) for v, _, _ in probes), default=0)
    point = decision_point(hoi_threshold)
    gamma = (hidden + 3) * 2.0**-24 / (1 - (hidden + 3) * 2.0**-24)
    hits = np.zeros((len(feats), tax.n_verbs), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # float32 overflows only where every pair is flagged
        for start in range(0, len(feats), PROBE_COLS):
            neg = w1_obj @ feats[start:start + PROBE_COLS].T  # the block's o, (hidden, cols), negated in place
            np.negative(neg, out=neg)
            cols = neg.shape[1]
            neg32, o_max = neg.astype(np.float32), float(max(neg.max(), -neg.min()))  # max |o|, without an |o| copy
            rows = min(most, max(1, PROBE_CELLS // cols))  # entries one best-logit buffer holds
            group = min(rows, max(1, PROBE_CELLS // (hidden * cols)))  # entries one hidden buffer holds
            h_buf, best = np.empty(hidden * group * cols, dtype=np.float32), np.empty((rows, cols), dtype=np.float32)
            for v, w2, b2 in probes:
                base = b2 - w2 @ neg  # W2 @ o + b2, as W2 @ -o is exactly -(W2 @ o)
                entry_hidden = bank.entries[v] @ w1_verb.T  # e, (s_i, hidden)
                entry_hidden += hoi.b1
                h_max = float(max(o_max, entry_hidden.max(), -entry_hidden.min()))
                l1, b_max = float(np.abs(w2).sum(axis=1).max()), float(np.abs(base).max())
                bound = 2 * (gamma * (l1 * h_max + b_max) + 2.0**-149 * (hidden * (h_max + 1) + l1 + 1))
                if (l1 + 1) * (h_max + 1) + b_max >= 2.0**126:  # float32 could overflow: flag every pair
                    bound = math.inf
                lo, hi = np.nextafter(np.float32([point - bound, point + bound]), np.float32([-np.inf, np.inf]))
                w2_32, base32 = w2.astype(np.float32), base.astype(np.float32)
                for first in range(0, len(entry_hidden), rows):
                    n = min(rows, len(entry_hidden) - first)
                    for g0 in range(0, n, group):
                        e = entry_hidden[first + g0:first + min(g0 + group, n)].astype(np.float32)
                        h = h_buf[:hidden * len(e) * cols].reshape(hidden, len(e), cols)
                        np.maximum(neg32[:, None], e.T[:, :, None], out=h)
                        logits = (w2_32 @ h.reshape(hidden, -1)).reshape(len(w2), len(e), cols)
                        logits += base32[:, None]
                        logits.max(axis=0, out=best[g0:g0 + len(e)])
                    above = best[:n] > hi
                    hits[start:start + cols, v] += above.sum(axis=0)
                    flagged = np.nonzero(~(best[:n] < lo) ^ above)  # within bound of x*, or NaN
                    for f0 in range(0, len(flagged[0]), group * cols):  # the float64 recheck, a hidden buffer at a time
                        r, c = flagged[0][f0:f0 + group * cols] + first, flagged[1][f0:f0 + group * cols]
                        n_c = neg[:, c]  # -o, for a bracket of the same product shape as W2 @ max(e, -o)
                        logit = (w2 @ np.maximum(n_c, entry_hidden[r].T) + (b2 - w2 @ n_c)).max(axis=0)
                        passed = nn.sigmoid(logit, overwrite=True) >= hoi_threshold
                        hits[start:start + cols, v] += np.bincount(c[passed], minlength=cols)
    scores = np.full(hits.shape, np.nan)
    np.divide(hits, stored, out=scores, where=stored > 0)
    return AffordanceScores(hits=hits, stored=stored, scores=scores, kept=scores > keep_threshold)
