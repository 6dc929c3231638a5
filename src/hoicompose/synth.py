"""Synthetic HOI worlds: latent prototypes, long-tailed pair sampling, scene boxes.

Features are prototype + Gaussian noise, so every downstream claim (composition,
transfer to novel objects, affordance recovery) can be checked against ground
truth the generator knows exactly. A separate external-object stream stands in
for an out-of-domain object dataset via a fixed domain-shift offset.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .seeding import per_instance_rng, substream
from .taxonomy import Taxonomy, _reject_unknown, decouple_verb

# Desk-scale defaults; everything is overridable.
DESK_N_VERBS = 12
DESK_N_OBJECTS = 20
DESK_C_PAIRS = 60
DESK_FEAT_DIM = 16
DESK_NOISE_SIGMA = 0.3
DESK_N_TRAIN = 4000
DESK_N_TEST = 1000


@dataclass
class WorldSpec:
    """Latent generative state of one synthetic world."""

    feat_dim: int
    verb_prototypes: np.ndarray  # (n_verbs, feat_dim)
    object_prototypes: np.ndarray  # (n_objects, feat_dim)
    noise_sigma: float
    tail_exponent: float
    object_domain_shift: np.ndarray  # (feat_dim,)
    target_counts: np.ndarray  # (n_categories,) long-tail sampling weights
    seed: int

    def validate(self) -> None:
        if self.feat_dim < 2:
            raise ValueError("feat_dim must be at least 2")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.tail_exponent < 0:
            raise ValueError("tail_exponent must be nonnegative")
        for name, protos in (("verb", self.verb_prototypes), ("object", self.object_prototypes)):
            if protos.ndim != 2 or protos.shape[1] != self.feat_dim:
                raise ValueError(f"{name} prototypes must be (n, {self.feat_dim})")
            if protos.shape[0] > 1:
                diffs = protos[:, None, :] - protos[None, :, :]
                dist = np.sqrt((diffs**2).sum(axis=2))
                np.fill_diagonal(dist, np.inf)
                min_dist = dist.min()
                if min_dist == 0.0:
                    raise ValueError(f"duplicate {name} prototypes")
                if min_dist <= 4.0 * self.noise_sigma:
                    warnings.warn(
                        f"min {name} prototype distance {min_dist:.3g} <= 4*sigma;"
                        " categories may be inseparable",
                        stacklevel=2,
                    )
        if self.object_domain_shift.shape != (self.feat_dim,):
            raise ValueError("object_domain_shift must have shape (feat_dim,)")
        if self.target_counts.ndim != 1 or (self.target_counts < 0).any():
            raise ValueError("target_counts must be a nonnegative 1-D array")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "feat_dim": self.feat_dim,
            "verb_prototypes": self.verb_prototypes.tolist(),
            "object_prototypes": self.object_prototypes.tolist(),
            "noise_sigma": self.noise_sigma,
            "tail_exponent": self.tail_exponent,
            "object_domain_shift": self.object_domain_shift.tolist(),
            "target_counts": self.target_counts.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "WorldSpec":
        _reject_unknown(d, {"schema_version", "feat_dim", "verb_prototypes", "object_prototypes",
                            "noise_sigma", "tail_exponent", "object_domain_shift", "target_counts",
                            "seed"}, "world")
        world = cls(
            feat_dim=int(d["feat_dim"]),
            verb_prototypes=np.asarray(d["verb_prototypes"], dtype=float),
            object_prototypes=np.asarray(d["object_prototypes"], dtype=float),
            noise_sigma=float(d["noise_sigma"]),
            tail_exponent=float(d["tail_exponent"]),
            object_domain_shift=np.asarray(d["object_domain_shift"], dtype=float),
            target_counts=np.asarray(d["target_counts"], dtype=np.int64),
            seed=int(d["seed"]),
        )
        world.validate()
        return world

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "WorldSpec":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


@dataclass(eq=False)
class _Columns:
    """A set of records held as columns: every field is an array whose first
    axis indexes the records, so a row selection applies to all of them."""

    def __len__(self) -> int:
        return len(self.object_label)

    def __getitem__(self, rows):
        """The records at rows (a slice, an index array or a boolean mask) as a new
        set; as in numpy, a slice's columns are views of this set's."""
        if isinstance(rows, (int, np.integer)):
            raise TypeError("select rows with a slice, an index array or a boolean mask")
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def put(self, i: int, record) -> None:
        """Write one record (field name -> value, as in a .jsonl line) into row i.

        The record holds this set's fields and at most a "kind". Each value is a
        number or a list of numbers: assignment would parse the string "1" and
        take true as 1. A vector value must have exactly the row's length: row
        assignment would broadcast a length-1 value across the whole row. An
        integer column takes only integral values: assignment would truncate
        13.5 to 13. NaN and ±inf are not integral either.
        """
        names = [f.name for f in fields(self)]
        if len(record) > len(names) + ("kind" in record):  # else an unknown field leaves one missing
            _reject_unknown(record, [*names, "kind"], "record")
        for name in names:
            column, value = getattr(self, name), record[name]
            if column.ndim == 2 and len(value) != column.shape[1]:
                raise ValueError(f"{name} has shape ({len(value)},), expected ({column.shape[1]},)")
            if type(value) is list:  # as json.loads makes it: the items' types tell
                kinds = set(map(type, value))
                numeric, fractional = kinds <= {int, float}, float in kinds
            else:
                kind = np.asarray(value).dtype.kind
                numeric, fractional = kind in "iuf", kind == "f"
            if not numeric:
                raise ValueError(f"{name} is not a number")
            if fractional and column.dtype.kind == "i":
                given = np.asarray(value, dtype=float)
                if not (np.isfinite(given) & (given == np.trunc(given))).all():
                    raise ValueError(f"{name} is not integral")
            try:
                column[i] = value
            except (TypeError, ValueError, OverflowError) as e:
                raise ValueError(f"{name}: {e}") from None


@dataclass(eq=False)
class HOISet(_Columns):
    """n human-object pairs, one row each: boxes, features, multi-hot HOI label."""

    human_box: np.ndarray  # (n, 4) x1,y1,x2,y2 normalized to [0,1]
    object_box: np.ndarray  # (n, 4)
    object_label: np.ndarray  # (n,) int64
    hoi_label: np.ndarray  # (n, n_categories) multi-hot int8
    human_feat: np.ndarray  # (n, feat_dim)
    verb_feat: np.ndarray  # (n, feat_dim)
    object_feat: np.ndarray  # (n, feat_dim)

    kind = "hoi"

    @classmethod
    def empty(cls, n: int, n_categories: int, feat_dim: int) -> "HOISet":
        """n zero rows, for put to fill."""
        return cls(np.zeros((n, 4)), np.zeros((n, 4)), np.zeros(n, dtype=np.int64),
                   np.zeros((n, n_categories), dtype=np.int8),
                   np.zeros((n, feat_dim)), np.zeros((n, feat_dim)), np.zeros((n, feat_dim)))


@dataclass(eq=False)
class ObjectSet(_Columns):
    """n standalone objects from the external stream, one row each."""

    object_box: np.ndarray  # (n, 4)
    object_label: np.ndarray  # (n,) int64
    object_feat: np.ndarray  # (n, feat_dim)

    kind = "object"

    @classmethod
    def empty(cls, n: int, feat_dim: int) -> "ObjectSet":
        """n zero rows, for put to fill."""
        return cls(np.zeros((n, 4)), np.zeros(n, dtype=np.int64), np.zeros((n, feat_dim)))


def tail_counts(n_categories: int, tail_exponent: float, head_count: int) -> np.ndarray:
    """Zipf-like target counts, rank k gets max(1, round(head_count * k^-exponent))."""
    ranks = np.arange(1, n_categories + 1, dtype=float)
    raw = head_count * ranks ** (-tail_exponent)
    return np.maximum(1, np.rint(raw)).astype(np.int64)


def gen_world(
    n_verbs: int = DESK_N_VERBS,
    n_objects: int = DESK_N_OBJECTS,
    c_pairs: int = DESK_C_PAIRS,
    feat_dim: int = DESK_FEAT_DIM,
    noise_sigma: float = DESK_NOISE_SIGMA,
    tail_exponent: float = 1.5,
    seed: int = 0,
    head_count: int = 1000,
    domain_shift_scale: float = 0.1,
    no_interaction_verbs=(),
) -> tuple[Taxonomy, WorldSpec]:
    """Sample a taxonomy (valid pairs + long-tail target counts) and its latent world.

    Target counts live in the world and are copied into taxonomy.train_counts.
    The realized counts of a drawn split are its train.hoi_label.sum(axis=0).
    """
    if c_pairs > n_verbs * n_objects:
        raise ValueError(f"c_pairs={c_pairs} exceeds {n_verbs}x{n_objects} possible pairs")
    rng = substream(seed, "world")
    all_pairs = [(v, o) for v in range(n_verbs) for o in range(n_objects)]
    chosen = rng.choice(len(all_pairs), size=c_pairs, replace=False)
    pairs = sorted(all_pairs[i] for i in chosen)

    counts = tail_counts(c_pairs, tail_exponent, head_count)
    counts = counts[rng.permutation(c_pairs)]

    tax = Taxonomy.build(
        verb_names=[f"verb{v:02d}" for v in range(n_verbs)],
        object_names=[f"object{o:02d}" for o in range(n_objects)],
        hoi_pairs=pairs,
        train_counts=counts,
        no_interaction_verbs=no_interaction_verbs,
    )

    direction = rng.normal(size=feat_dim)
    shift = domain_shift_scale * direction / np.linalg.norm(direction)
    world = WorldSpec(
        feat_dim=feat_dim,
        verb_prototypes=rng.normal(size=(n_verbs, feat_dim)),
        object_prototypes=rng.normal(size=(n_objects, feat_dim)),
        noise_sigma=noise_sigma,
        tail_exponent=tail_exponent,
        object_domain_shift=shift,
        target_counts=counts.copy(),
        seed=seed,
    )
    world.validate()
    return tax, world


def _sample_box(rng, min_side: float, max_side: float, center=None, jitter: float = 0.0) -> np.ndarray:
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    if center is None:
        x1 = rng.uniform(0.0, 1.0 - w)
        y1 = rng.uniform(0.0, 1.0 - h)
    else:
        cx = np.clip(center[0] + rng.uniform(-jitter, jitter), w / 2, 1.0 - w / 2)
        cy = np.clip(center[1] + rng.uniform(-jitter, jitter), h / 2, 1.0 - h / 2)
        x1, y1 = cx - w / 2, cy - h / 2
    return np.array([x1, y1, x1 + w, y1 + h])


def sample_hoi_instance(
    world: WorldSpec,
    tax: Taxonomy,
    hoi_category: int,
    rng: np.random.Generator,
    co_label_prob: float = 0.0,
    allowed_categories=None,
) -> dict:
    """Draw one HOI pair of the given category, as a record (field name -> value)
    that HOISet.put writes into a row.

    With probability co_label_prob each other valid category sharing the same
    object is added to the label (restricted to allowed_categories when given,
    so zero-shot splits stay leak-free). The verb feature always comes from the
    primary category's verb.
    """
    if not 0 <= hoi_category < tax.n_categories:
        raise ValueError(f"HOI category {hoi_category} out of range")
    v, o = tax.hoi_pairs[hoi_category]

    label = np.zeros(tax.n_categories, dtype=np.int8)
    label[hoi_category] = 1
    for c in tax.categories_of_object(o):
        if c == hoi_category:
            continue
        take = rng.random() < co_label_prob
        if take and (allowed_categories is None or c in allowed_categories):
            label[c] = 1

    sigma = world.noise_sigma
    d = world.feat_dim
    verb_feat = world.verb_prototypes[v] + sigma * rng.normal(size=d)
    object_feat = world.object_prototypes[o] + sigma * rng.normal(size=d)
    present_verbs = np.flatnonzero(decouple_verb(label, tax))
    human_feat = world.verb_prototypes[present_verbs].mean(axis=0) + sigma * rng.normal(size=d)

    human_box = _sample_box(rng, 0.25, 0.5)
    center = ((human_box[0] + human_box[2]) / 2, (human_box[1] + human_box[3]) / 2)
    object_box = _sample_box(rng, 0.1, 0.35, center=center, jitter=0.25)

    return {"human_box": human_box, "object_box": object_box, "object_label": o, "hoi_label": label,
            "human_feat": human_feat, "verb_feat": verb_feat, "object_feat": object_feat}


def sample_object_instance(world: WorldSpec, object_id: int, rng: np.random.Generator) -> dict:
    """Draw one external-domain object record: prototype + domain shift + noise."""
    if not 0 <= object_id < world.object_prototypes.shape[0]:
        raise ValueError(f"object id {object_id} out of range")
    feat = (
        world.object_prototypes[object_id]
        + world.object_domain_shift
        + world.noise_sigma * rng.normal(size=world.feat_dim)
    )
    return {"object_box": _sample_box(rng, 0.2, 0.8), "object_label": object_id, "object_feat": feat}


def gen_dataset(
    world: WorldSpec,
    tax: Taxonomy,
    split,
    n_train: int,
    n_test: int,
    n_external_objects: int,
    seed: int,
    co_label_prob: float = 0.1,
):
    """Draw (train, test, external) sets for one split: two HOISets and an ObjectSet.

    Train instances come only from seen categories, sampled proportionally to
    the world's target counts; tax is left as given, and the realized
    per-category counts are train.hoi_label.sum(axis=0). Test draws uniformly
    over all categories; external objects draw uniformly over all object ids.
    Each instance uses its own RNG stream, so generation is order-independent.
    """
    if split is None:
        seen = list(range(tax.n_categories))
    else:
        split.validate(tax)
        seen = sorted(split.seen_hoi_ids)
    if not seen:
        raise ValueError("split leaves zero seen categories to train on")
    seen_set = set(seen)

    if world.target_counts.shape != (tax.n_categories,):
        raise ValueError("world target counts do not match this taxonomy")
    weights = world.target_counts[seen].astype(float)
    probs = weights / weights.sum() if weights.sum() > 0 else None

    train = HOISet.empty(n_train, tax.n_categories, world.feat_dim)
    for i in range(n_train):
        rng = per_instance_rng(seed, "train", i)
        cat = seen[rng.choice(len(seen), p=probs)]
        train.put(i, sample_hoi_instance(world, tax, cat, rng, co_label_prob, allowed_categories=seen_set))

    test = HOISet.empty(n_test, tax.n_categories, world.feat_dim)
    for j in range(n_test):
        rng = per_instance_rng(seed, "test", j)
        cat = int(rng.integers(tax.n_categories))
        test.put(j, sample_hoi_instance(world, tax, cat, rng, co_label_prob))

    external = ObjectSet.empty(n_external_objects, world.feat_dim)
    n_objects = world.object_prototypes.shape[0]
    for k in range(n_external_objects):
        rng = per_instance_rng(seed, "external", k)
        external.put(k, sample_object_instance(world, int(rng.integers(n_objects)), rng))
    return train, test, external


def save_instances(path, instances) -> None:
    """Write a set as JSON lines, one record per row; float round-trip is exact."""
    names = [f.name for f in fields(instances)]
    columns = [getattr(instances, name).tolist() for name in names]
    with open(path, "w") as f:
        for row in zip(*columns):
            f.write(json.dumps({"kind": instances.kind, **dict(zip(names, row))}, sort_keys=True) + "\n")


def _empty_for(record, n: int):
    kind = record.get("kind") if isinstance(record, dict) else None
    if kind == "hoi":
        return HOISet.empty(n, len(record["hoi_label"]), len(record["object_feat"]))
    if kind == "object":
        return ObjectSet.empty(n, len(record["object_feat"]))
    raise ValueError(f"unknown record kind {kind!r}")


def load_instances(path):
    """Read a .jsonl file of one record kind as an HOISet or ObjectSet.

    A first pass counts the records (non-blank lines); the second fills the
    preallocated rows one line at a time. Record 1 fixes the kind, the label
    length and the feature length; a record that breaks them, or that cannot
    be parsed, raises ValueError naming it (1-based). A file with no records
    loads as an empty HOISet.
    """
    with open(path) as f:
        n = sum(1 for line in f if line.strip())
    out = HOISet.empty(0, 0, 0)
    with open(path) as f:
        i = 0
        for line in f:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if i == 0:
                    out = _empty_for(rec, n)
                elif not isinstance(rec, dict) or rec.get("kind") != out.kind:
                    raise ValueError(f"expected kind {out.kind!r}")
                out.put(i, rec)
            except KeyError as e:
                raise ValueError(f"record {i + 1}: missing field {e}") from None
            except (ValueError, TypeError, OverflowError) as e:
                raise ValueError(f"record {i + 1}: {e}") from None
            i += 1
    return out


def validate_instances(instances, kind: str, tax: Taxonomy, feat_dim: int | None = None) -> int | None:
    """Check a loaded set of one kind ("hoi" or "object") column by column: boxes
    finite, non-degenerate, in [0, 1]; object label in range; features finite, of
    length feat_dim (default: record 1's); hoi_label a multi-hot of length C
    setting at least one category, all of its object. Raises ValueError naming
    record 1 when the set is of the other kind or its rows have the wrong length
    (the loader makes every row agree with record 1), else the first record
    (1-based) failing a value check. Returns feat_dim, so one length can be
    carried across files."""
    if not len(instances):
        return feat_dim
    if instances.kind != kind:
        raise ValueError(f"record 1: expected kind {kind!r}")
    if feat_dim is None:
        feat_dim = instances.object_feat.shape[1]
    row_shapes = {"human_box": (4,), "object_box": (4,), "object_label": (), "hoi_label": (tax.n_categories,)}
    for f in fields(instances):
        got, want = getattr(instances, f.name).shape[1:], row_shapes.get(f.name, (feat_dim,))
        if got != want:
            raise ValueError(f"record 1: {f.name} has shape {got}, expected {want}")

    hoi = kind == "hoi"
    checks = []  # (bad-record mask, failure), in record field order
    for name in ("human_box", "object_box") if hoi else ("object_box",):
        b = getattr(instances, name)
        checks += [(~np.isfinite(b).all(axis=1), f"{name} is not finite"),
                   (~((b[:, 2] > b[:, 0]) & (b[:, 3] > b[:, 1])), f"{name} is degenerate"),
                   (((b < 0.0) | (b > 1.0)).any(axis=1), f"{name} lies outside [0, 1]")]
    labels = instances.object_label
    checks.append(((labels < 0) | (labels >= tax.n_objects), f"object_label outside [0, {tax.n_objects})"))
    if hoi:
        y = instances.hoi_label
        category_object = np.array([o for _, o in tax.hoi_pairs])
        checks += [(((y != 0) & (y != 1)).any(axis=1), "hoi_label is not multi-hot"),
                   (~y.any(axis=1), "hoi_label sets no category"),
                   (((y != 0) & (category_object != labels[:, None])).any(axis=1),
                    "hoi_label sets a category of another object")]
    for name in ("human_feat", "verb_feat", "object_feat") if hoi else ("object_feat",):
        checks.append((~np.isfinite(getattr(instances, name)).all(axis=1), f"{name} is not finite"))

    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"record {i + 1}: " + "; ".join(why for mask, why in checks if mask[i]))
    return feat_dim
