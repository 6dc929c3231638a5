"""Synthetic HOI worlds: latent prototypes, long-tailed pair sampling, scene boxes.

Features are prototype + Gaussian noise, so every downstream claim (composition,
transfer to novel objects, affordance recovery) can be checked against ground
truth the generator knows exactly. A separate external-object stream stands in
for an out-of-domain object dataset via a fixed domain-shift offset.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .jsonfile import check_array, read_array
from .seeding import instance_rngs, substream
from .taxonomy import Taxonomy, decouple_verb

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
    object_domain_shift: np.ndarray  # (feat_dim,)
    target_counts: np.ndarray  # (n_categories,) long-tail sampling weights

    def validate(self) -> None:
        if self.feat_dim < 2:
            raise ValueError("feat_dim must be at least 2")
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


@dataclass(eq=False)
class _Columns:
    """A set of records held as columns: every field is an array whose first
    axis indexes the records, so a row selection applies to all of them."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, rows):
        """The records at rows (a slice, an index array or a boolean mask) as a new
        set; as in numpy, a slice's columns are views of this set's."""
        if isinstance(rows, (int, np.integer)):
            raise TypeError("select rows with a slice, an index array or a boolean mask")
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


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


@dataclass(eq=False)
class ObjectSet(_Columns):
    """n standalone objects from the external stream, one row each."""

    object_box: np.ndarray  # (n, 4)
    object_label: np.ndarray  # (n,) int64
    object_feat: np.ndarray  # (n, feat_dim)


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
) -> tuple[Taxonomy, WorldSpec]:
    """Sample a taxonomy (valid pairs + long-tail target counts) and its latent world.

    Target counts live in the world and are copied into taxonomy.train_counts.
    The realized counts of a drawn split are its train.hoi_label.sum(axis=0).
    """
    for name, x in (("noise_sigma", noise_sigma), ("tail_exponent", tail_exponent)):
        if not 0 <= x < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and nonnegative, got {x}")
    if not math.isfinite(domain_shift_scale):
        raise ValueError(f"domain_shift_scale must be finite, got {domain_shift_scale}")
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
    )

    direction = rng.normal(size=feat_dim)
    shift = domain_shift_scale * direction / np.linalg.norm(direction)
    world = WorldSpec(
        feat_dim=feat_dim,
        verb_prototypes=rng.normal(size=(n_verbs, feat_dim)),
        object_prototypes=rng.normal(size=(n_objects, feat_dim)),
        noise_sigma=noise_sigma,
        object_domain_shift=shift,
        target_counts=counts.copy(),
    )
    world.validate()
    return tax, world


def _boxes(u, min_side: float, max_side: float, center=None, jitter: float = 0.0) -> np.ndarray:
    """(n, 4) boxes from four unit draws u a row, each mapped as Generator.uniform
    maps it, low + (high - low) * u: the width and the height, then the top-left
    corner, or with center (n, 2) the jitter of the box's center about it (the
    box kept inside the image)."""
    side = min_side + (max_side - min_side) * u[:, :2]
    if center is None:
        corner = (1.0 - side) * u[:, 2:]  # low 0.0 adds nothing to a product >= +0.0
    else:
        corner = np.clip(center + (-jitter + 2 * jitter * u[:, 2:]), side / 2, 1.0 - side / 2) - side / 2
    return np.hstack([corner, corner + side])


def _draw_rows(seed: int, stream: str, n: int, pick, n_normal: int, n_unit: int, others=None, prob=0.0):
    """The draws of a stream's rows 0..n-1 as columns. Row i draws from its own
    generator, the one per_instance_rng(seed, stream, i) returns, which
    instance_rngs seeds for all rows in one vectorised pass. A row's draw order:
    its pick(rng); with others, one unit draw per id in others[pick], kept as a
    coin that is set when the draw is below prob; n_normal standard normals;
    n_unit unit draws."""
    picks = np.zeros(n, dtype=np.int64)
    coins = np.zeros((n, 0 if others is None else len(others)), dtype=bool)
    normal, unit = np.empty((n, n_normal)), np.empty((n, n_unit))
    for i, rng in enumerate(instance_rngs(seed, stream, range(n))):
        p = picks[i] = pick(rng)
        if others is not None:
            coins[i, others[p]] = rng.random(len(others[p])) < prob
        rng.standard_normal(out=normal[i])
        rng.random(out=unit[i])
    return picks, coins, normal, unit


def _unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(bits, axis=0, return_inverse=True) for a 0/1 matrix, by one sort of
    a 1-D key per row: the row's bits packed big-endian into bytes, so the keys,
    compared as byte strings, sort as the rows do."""
    packed = np.packbits(bits, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return bits[first], which


def _hoi_rows(world: WorldSpec, tax: Taxonomy, seed: int, stream: str, n: int, categories, cdf,
              co_label_prob: float) -> HOISet:
    """n HOI rows of the named stream, each of a category drawn from categories
    (by cdf when given, else uniformly). Each other category of the row's object
    joins its label when its unit draw is below co_label_prob and it is one of
    categories. The verb feature comes from the drawn category's verb, the human
    feature from the mean prototype of the label's verbs; the object box is
    jittered about the human box's center."""
    pairs = np.array(tax.hoi_pairs, dtype=np.int64)
    ids = np.arange(tax.n_categories)
    others = [np.flatnonzero((pairs[:, 1] == o) & (ids != c)) for c, (_, o) in enumerate(tax.hoi_pairs)]

    def pick(rng):
        k = rng.integers(len(categories)) if cdf is None else cdf.searchsorted(rng.random(), side="right")
        return categories[k]

    d, sigma = world.feat_dim, world.noise_sigma
    cats, coins, noise, unit = _draw_rows(seed, stream, n, pick, 3 * d, 8, others, co_label_prob)
    label = (coins & np.isin(ids, categories)).astype(np.int8)
    label[np.arange(n), cats] = 1
    verb_sets, which = _unique_rows(decouple_verb(label, tax))
    means = np.array([world.verb_prototypes[np.flatnonzero(s)].mean(axis=0) for s in verb_sets]).reshape(-1, d)
    human_box = _boxes(unit[:, :4], 0.25, 0.5)
    center = (human_box[:, :2] + human_box[:, 2:]) / 2
    return HOISet(human_box=human_box, object_box=_boxes(unit[:, 4:], 0.1, 0.35, center, jitter=0.25),
                  object_label=pairs[cats, 1], hoi_label=label,
                  human_feat=means[which] + sigma * noise[:, 2 * d:],
                  verb_feat=world.verb_prototypes[pairs[cats, 0]] + sigma * noise[:, :d],
                  object_feat=world.object_prototypes[pairs[cats, 1]] + sigma * noise[:, d:2 * d])


def gen_dataset(
    world: WorldSpec,
    tax: Taxonomy,
    split,
    n_train: int = DESK_N_TRAIN,
    n_test: int = DESK_N_TEST,
    n_external_objects: int = DESK_N_TEST,
    seed: int = 0,
    co_label_prob: float = 0.1,
):
    """Draw (train, test, external) sets for one split: two HOISets and an ObjectSet.

    Train instances come only from seen categories, sampled proportionally to
    the world's target counts; their co-labels stay seen, so zero-shot splits
    stay leak-free. tax is left as given, and the realized per-category counts
    are train.hoi_label.sum(axis=0). Test draws uniformly over all categories;
    external objects draw uniformly over all object ids, with features shifted
    by the world's domain shift. Each instance uses its own RNG stream, so
    generation is order-independent.
    """
    if not 0 <= co_label_prob <= 1:
        raise ValueError(f"co_label_prob must lie in [0, 1], got {co_label_prob}")
    if split is None:
        seen = np.arange(tax.n_categories)
    else:
        split.validate(tax)
        seen = np.array(sorted(split.seen_hoi_ids), dtype=np.int64)
    if not len(seen):
        raise ValueError("split leaves zero seen categories to train on")

    if world.target_counts.shape != (tax.n_categories,):
        raise ValueError("world target counts do not match this taxonomy")
    weights = world.target_counts[seen].astype(float)
    cdf = None
    if weights.sum() > 0:  # the cdf Generator.choice(len(seen), p=weights / weights.sum()) draws by
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
    train = _hoi_rows(world, tax, seed, "train", n_train, seen, cdf, co_label_prob)
    test = _hoi_rows(world, tax, seed, "test", n_test, np.arange(tax.n_categories), None, co_label_prob)

    n_objects = world.object_prototypes.shape[0]
    objects, _, noise, unit = _draw_rows(seed, "external", n_external_objects,
                                         lambda rng: rng.integers(n_objects), world.feat_dim, 4)
    feat = world.object_prototypes[objects] + world.object_domain_shift + world.noise_sigma * noise
    return train, test, ObjectSet(object_box=_boxes(unit, 0.2, 0.8), object_label=objects, object_feat=feat)


# The on-disk dtype of every column: little-endian float64 unless named here. The
# loader casts nothing, so a float label is never truncated and 256 never wraps.
_FLOAT = np.dtype("<f8")
_DTYPES = {"object_label": np.dtype("<i8"), "hoi_label": np.dtype("i1")}


def _column(name: str) -> tuple:
    """A column's (dtype, shape) on disk: object_label one value per row, every
    other column a row vector; validate_instances checks the row widths."""
    return _DTYPES.get(name, _FLOAT), (None,) if name == "object_label" else (None, None)


def save_instances(path, instances) -> None:
    """Write a set as the directory path holding one <field>.npy per column."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for f in fields(instances):
        column = getattr(instances, f.name)
        check_array(column, f.name, *_column(f.name))
        np.save(path / f"{f.name}.npy", column, allow_pickle=False)


def load_instances(path, cls):
    """Read a save_instances directory as a cls set (HOISet or ObjectSet).

    Its files must be exactly cls's <field>.npy column files. Each is read
    without pickle, must hold the dtype and rank save_instances writes, and all
    must have one row count. A failed check raises ValueError naming the column
    file or column.
    """
    path = Path(path)
    found = {p.name for p in path.iterdir()}
    names = [f.name for f in fields(cls)]
    unknown = found - {f"{name}.npy" for name in names}
    if unknown:
        raise ValueError(f"unknown column files: {sorted(unknown)}")
    columns = {}
    for name in names:
        if f"{name}.npy" not in found:
            raise ValueError(f"missing field {name!r}: no {name}.npy")
        columns[name] = read_array(path / f"{name}.npy", name, *_column(name))
        if len(columns[name]) != len(columns[names[0]]):
            raise ValueError(f"{name}: {len(columns[name])} rows, {names[0]} has {len(columns[names[0]])}")
    return cls(**columns)


def validate_instances(instances, tax: Taxonomy, feat_dim: int | None = None) -> int | None:
    """Check a loaded HOISet or ObjectSet column by column: boxes finite,
    non-degenerate, in [0, 1]; object label in range; features finite, of length
    feat_dim (default: record 1's); hoi_label a multi-hot of length C setting at
    least one category, all of its object. Raises ValueError naming record 1 when
    its feature length is 0 or its rows have the wrong length (every row of a
    column has one length), else the first record (1-based) failing a value
    check. Returns feat_dim, so one length can be carried across files."""
    if not len(instances):
        return feat_dim
    if feat_dim is None:
        feat_dim = instances.object_feat.shape[1]
    if feat_dim < 1:
        raise ValueError(f"record 1: object_feat has feature length {feat_dim}, expected at least 1")
    row_shapes = {"human_box": (4,), "object_box": (4,), "object_label": (), "hoi_label": (tax.n_categories,)}
    for f in fields(instances):
        got, want = getattr(instances, f.name).shape[1:], row_shapes.get(f.name, (feat_dim,))
        if got != want:
            raise ValueError(f"record 1: {f.name} has shape {got}, expected {want}")

    hoi = isinstance(instances, HOISet)
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
