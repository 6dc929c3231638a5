"""Three-branch HOI training: spatial branch, real verb-object branch, and the
composite branch that pairs in-batch verb features with external-object features.

Both the real and composite branches run through one shared HOI classifier; the
total loss is L_sp + lambda1 * L_hoi + lambda2 * L_composite. Inference scores a
pair of ground-truth boxes as p_sp * p_hoi per category (box confidences s_h = s_o = 1).
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import blas, nn
from .jsonfile import check_fields, read_arrays, read_json, write_arrays, write_json
from .seeding import stream_seed, substream
from .taxonomy import Taxonomy, compose_label, decouple_verb

_CHECKPOINT_SCHEMA = 3
_CLASSIFIERS, _SHAPE = ("sp_classifier", "hoi_classifier"), ("d_in", "hidden", "k_out")
CHECKPOINT_ARRAYS = tuple(f"{name}.npy" for name in _CLASSIFIERS)  # the files beside a checkpoint
# Steps train plans with one draw before each classifier's loop runs over them.
# 64-256 train alike in time; a plan holds row indices and int8 labels only.
TRAIN_WINDOW = 128


class TrainingDiverged(RuntimeError):
    """Raised when a step's loss or gradients go non-finite; .step is the failing step."""

    def __init__(self, step: int, loss: float):
        # args hold what __init__ takes, so the error unpickles from a worker
        super().__init__(step, loss)
        self.step, self.loss = step, loss

    def __str__(self) -> str:
        return f"training loss or gradients became non-finite at step {self.step} (loss {self.loss})"


@dataclass
class TrainConfig:
    lambda1: float = 2.0
    lambda2: float = 0.5
    # lr is calibrated for the mean-reduced BCE at desk scale; with 60 classes
    # the per-class gradient scale is 1/C, so this is far larger than the lr a
    # sum-reduced full-scale system would use.
    lr: float = 3.0
    iterations: int = 1500
    hoi_batch: int = 32
    object_batch: int = 2  # external objects per step; also the composite cap
    hidden: int = 64
    spatial_resolution: int = 16  # classifier-side downscale of the 64x64 map
    trace_every: int = 50
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):  # a float field takes any number, an int field an integer
            value, real = getattr(self, f.name), isinstance(f.default, float)
            if isinstance(value, bool) or not isinstance(value, numbers.Real if real else numbers.Integral):
                raise ValueError(f"{f.name} must be {'a number' if real else 'an integer'}, got {value!r}")
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):  # NaN fails too
            raise ValueError("loss weights must be finite and nonnegative")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.hoi_batch < 1:
            raise ValueError("hoi_batch must be at least 1")
        if self.object_batch < 0:
            raise ValueError("object_batch must be nonnegative")
        if self.hidden < 1:
            raise ValueError("hidden must be at least 1")
        if self.spatial_resolution < 1:
            raise ValueError("spatial_resolution must be positive")
        if self.trace_every < 1:
            raise ValueError("trace_every must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        check_fields(d, dict.fromkeys(f.name for f in fields(cls)), "training config")
        cfg = cls(**d)
        cfg.validate()
        return cfg


def baseline_config(cfg: TrainConfig) -> TrainConfig:
    """The no-transfer ablation: composite branch off, no external objects."""
    return replace(cfg, lambda2=0.0, object_batch=0)


@dataclass
class HOIModel:
    """The two trained classifiers."""

    sp_classifier: nn.MLPParams  # input: flattened spatial map ++ human_feat
    hoi_classifier: nn.MLPParams  # input: verb_feat ++ object_feat; shared by both branches
    spatial_resolution: int
    feat_dim: int

    @property
    def n_categories(self) -> int:
        return self.hoi_classifier.k_out

    def validate(self) -> None:
        if self.sp_classifier.k_out != self.hoi_classifier.k_out:
            raise ValueError("classifier output widths disagree")
        if self.hoi_classifier.d_in != 2 * self.feat_dim:
            raise ValueError("hoi classifier input must be two concatenated features")
        want = 2 * self.spatial_resolution**2 + self.feat_dim
        if self.sp_classifier.d_in != want:
            raise ValueError(f"spatial classifier input must be {want}")


def make_spatial_pattern(b_h, b_o, resolution: int) -> np.ndarray:
    """Two binary maps per pair over the tight union box of the pair: boxes of
    shape (..., 4) give maps of shape (..., 2, res, res).

    A pixel is 1 iff its center lies inside the human (channel 0) or object
    (channel 1) box.
    """
    b_h = np.asarray(b_h, dtype=float)
    b_o = np.asarray(b_o, dtype=float)
    for name, b in (("human", b_h), ("object", b_o)):
        if b.ndim == 0 or b.shape[-1] != 4:
            raise ValueError(f"{name} box malformed: shape {b.shape}")
        ok = (b[..., 2] > b[..., 0]) & (b[..., 3] > b[..., 1])  # NaN corners fail too
        if not ok.all():
            raise ValueError(f"{name} box degenerate or malformed: {b[~ok][0].tolist()}")
    lo = np.minimum(b_h[..., :2], b_o[..., :2])
    hi = np.maximum(b_h[..., 2:], b_o[..., 2:])
    centers = lo[..., None] + (np.arange(resolution) + 0.5) / resolution * (hi - lo)[..., None]
    boxes = np.stack([b_h, b_o], axis=-2)[..., None]  # (..., channel, corner, 1)
    cx, cy = centers[..., None, 0, :], centers[..., None, 1, :]  # (..., 1, res)
    in_x = (cx >= boxes[..., 0, :]) & (cx <= boxes[..., 2, :])  # (..., channel, res)
    in_y = (cy >= boxes[..., 1, :]) & (cy <= boxes[..., 3, :])
    return (in_y[..., :, None] & in_x[..., None, :]).astype(np.int8)


def build_matrices(instances, resolution: int):
    """The two classifier inputs of an HOISet: (X_sp, X_hoi). The one
    finiteness check on the way into train and predict_dataset."""
    pattern = make_spatial_pattern(instances.human_box, instances.object_box, resolution)
    x_sp = np.concatenate([pattern.reshape(len(instances), -1), instances.human_feat], axis=1)
    x_hoi = np.concatenate([instances.verb_feat, instances.object_feat], axis=1)
    if not (np.isfinite(x_sp).all() and np.isfinite(x_hoi).all()):
        raise ValueError("non-finite entries in instance features")
    return x_sp, x_hoi


@dataclass
class Composites:
    """The kept compositions of one compose_batch call, in verb-major order: row
    indices into its verb and object label rows, and each composition's label."""

    verb_rows: np.ndarray  # (kept,) intp
    object_rows: np.ndarray  # (kept,) intp
    labels: np.ndarray  # (kept, C) int8, never all zero

    def __len__(self) -> int:
        return len(self.verb_rows)

    def inputs(self, verb_feats: np.ndarray, object_feats: np.ndarray) -> np.ndarray:
        """(kept, d_v + d_o) classifier inputs: each kept pair's verb feature row
        ++ object feature row, from the rows the label rows came from."""
        return np.concatenate([verb_feats[self.verb_rows], object_feats[self.object_rows]], axis=1)


def compose_batch(verb_labels, object_labels, tax: Taxonomy, cap: int, rng: np.random.Generator,
                  counters: dict | None = None) -> Composites:
    """Cross every verb row with every object row, keep valid compositions only.

    verb_labels: (B, n_verbs) verb multi-hots; object_labels: (K, n_objects)
    object one-hots. One broadcast compose_label call labels all B x K
    candidates; those whose label is all zeros are dropped, the rest stay in
    verb-major order. At most cap survivors are kept by uniform subsampling
    (selection order-preserving). counters, when given, gains the
    composite_candidates and composite_valid counts of this call.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    block = compose_label(np.asarray(object_labels)[None, :, :], np.asarray(verb_labels)[:, None, :], tax)
    vi, oj = np.nonzero(block.any(axis=-1))
    if counters is not None:
        counters["composite_candidates"] += block.shape[0] * block.shape[1]
        counters["composite_valid"] += len(vi)
    if len(vi) > cap:
        keep = np.sort(rng.choice(len(vi), size=cap, replace=False))
        vi, oj = vi[keep], oj[keep]
    return Composites(vi, oj, block[vi, oj])


def total_loss(sp_loss: float, hoi_loss: float, atl_loss: float, cfg: TrainConfig) -> float:
    """The one total-loss expression, unvalidated:
    (L_sp + lambda1 * L_hoi) + lambda2 * L_composite; an empty composite branch passes 0."""
    return float(sp_loss + cfg.lambda1 * hoi_loss + cfg.lambda2 * atl_loss)


@dataclass
class StepPlan:
    """One step's batch as rows, not as gathered features: the train rows, then,
    with the composite branch on, the drawn external rows and the kept
    compositions of the two (None when none was kept)."""

    rows: np.ndarray  # (hoi_batch,) intp
    objects: np.ndarray | None = None  # (object_batch,) intp
    kept: Composites | None = None


class StepSampler:
    """Plans the batches of the steps train takes, gathers each classifier's
    rows of a plan, and counts what the composite branch did: candidate and
    valid compositions, draws that kept any, kept examples, and their label
    bits per category (per_category). Construction checks every input train
    takes, so a bad one fails even at 0 iterations."""

    def __init__(self, train_set, external_objects, tax: Taxonomy, cfg: TrainConfig):
        cfg.validate()
        if not train_set:
            raise ValueError("train set is empty")
        self.use_composite = cfg.lambda2 > 0 and cfg.object_batch > 0
        if self.use_composite and not external_objects:
            raise ValueError("composite branch enabled but no external objects given")
        self.x_sp, self.x_hoi = build_matrices(train_set, cfg.spatial_resolution)
        self.y = train_set.hoi_label.astype(float)
        verb_labels = decouple_verb(train_set.hoi_label, tax)  # also with no composites: checks the label width
        if self.use_composite:
            if not np.isfinite(external_objects.object_feat).all():
                raise ValueError("non-finite entries in external object features")
            self.verb_feats, self.verb_labels = train_set.verb_feat, verb_labels
            self.object_feats = external_objects.object_feat
            labels = np.asarray(external_objects.object_label)
            bad = (labels < 0) | (labels >= tax.n_objects)  # a negative label would wrap in the gather
            if bad.any():
                raise ValueError(f"object label {labels[bad][0]} out of range for {tax.n_objects} objects")
            self.object_labels = np.eye(tax.n_objects, dtype=np.int8)[labels]
        self.tax, self.cfg = tax, cfg
        self.counters = {"composite_classifier_calls": 0, "composite_examples": 0,
                         "composite_candidates": 0, "composite_valid": 0}
        self.per_category = np.zeros(tax.n_categories, dtype=np.int64)

    def draw(self, rng: np.random.Generator, steps: int) -> list[StepPlan]:
        """The plans of the next steps steps from rng, in step order. Each takes
        hoi_batch train rows, then, with the composite branch on, object_batch
        external objects and the kept compositions of the two."""
        cfg, n = self.cfg, len(self.y)
        plans = []
        for _ in range(steps):
            idx = rng.choice(n, size=cfg.hoi_batch, replace=n < cfg.hoi_batch)
            if not self.use_composite:
                plans.append(StepPlan(idx))
                continue
            m = len(self.object_labels)
            obj_idx = rng.choice(m, size=cfg.object_batch, replace=m < cfg.object_batch)
            kept = compose_batch(self.verb_labels[idx], self.object_labels[obj_idx], self.tax, cfg.object_batch,
                                 rng, self.counters)
            if len(kept):
                self.per_category += kept.labels.sum(axis=0)
                self.counters["composite_classifier_calls"] += 1
                self.counters["composite_examples"] += len(kept)
            plans.append(StepPlan(idx, obj_idx, kept if len(kept) else None))
        return plans

    def sp_rows(self, plan: StepPlan) -> tuple:
        """(x, y): the spatial classifier's inputs and targets of a plan."""
        return self.x_sp[plan.rows], self.y[plan.rows]

    def hoi_rows(self, plan: StepPlan) -> tuple:
        """(x, y, atl_x, atl_y): the interaction classifier's real inputs and
        targets of a plan, then its composite ones (None with no composites).
        The real branch scores the spatial branch's rows, so y is theirs."""
        atl_x = atl_y = None
        if plan.kept is not None:
            atl_x = plan.kept.inputs(self.verb_feats[plan.rows], self.object_feats[plan.objects])
            atl_y = plan.kept.labels.astype(float)
        return self.x_hoi[plan.rows], self.y[plan.rows], atl_x, atl_y


def sp_grads(params: nn.MLPParams, sampler: StepSampler, plan: StepPlan, out: nn.MLPParams,
             norms: dict | None = None) -> tuple[float, nn.MLPParams]:
    """The spatial classifier's loss and gradient at plan: (L_sp, out), with
    the gradient written into out. norms, when given, gains its L2 norm "sp"."""
    loss = nn.mlp_backward(params, *sampler.sp_rows(plan), out=out)[0]
    if norms is not None:
        norms["sp"] = float(np.linalg.norm(out.flat))
    return loss, out


def hoi_grads(params: nn.MLPParams, sampler: StepSampler, plan: StepPlan, cfg: TrainConfig, out: nn.MLPParams,
              atl_out: nn.MLPParams, norms: dict | None = None) -> tuple[float, float, nn.MLPParams]:
    """The interaction classifier's losses and gradient at plan: (L_hoi, L_ATL,
    out), with the gradient written into out and L_ATL 0.0 in a step with no
    composites.

    The real and composite branches share this classifier, so its gradient is
    lambda1 * real + lambda2 * composite; atl_out ends up holding the second
    term. norms, when given, gains the L2 norms "hoi" and "atl" of the two
    terms (0.0 with no composites), taken before they are added.
    """
    x, y, atl_x, atl_y = sampler.hoi_rows(plan)
    l_hoi = nn.mlp_backward(params, x, y, out=out)[0]
    out.flat *= cfg.lambda1
    if norms is not None:
        norms.update(hoi=float(np.linalg.norm(out.flat)), atl=0.0)
    l_atl = 0.0
    if atl_x is not None:
        l_atl = nn.mlp_backward(params, atl_x, atl_y, out=atl_out)[0]
        atl_out.flat *= cfg.lambda2
        if norms is not None:
            norms["atl"] = float(np.linalg.norm(atl_out.flat))
        out.flat += atl_out.flat
    return l_hoi, l_atl, out


@dataclass
class TrainResult:
    """The trained model, the loss trace, the composite counters, and per traced
    step the L2 gradient norms of the three branches (see sp_grads and hoi_grads)."""

    model: HOIModel
    trace: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    grad_norms: list[dict] = field(default_factory=list)


def init_model(tax: Taxonomy, feat_dim: int, cfg: TrainConfig) -> HOIModel:
    sp_d_in = 2 * cfg.spatial_resolution**2 + feat_dim
    return HOIModel(
        sp_classifier=nn.init_params(sp_d_in, tax.n_categories, cfg.hidden,
                                     seed=stream_seed(cfg.seed, "init-sp")),
        hoi_classifier=nn.init_params(2 * feat_dim, tax.n_categories, cfg.hidden,
                                      seed=stream_seed(cfg.seed, "init-hoi")),
        spatial_resolution=cfg.spatial_resolution,
        feat_dim=feat_dim,
    )


def train(train_set, external_objects, tax: Taxonomy, cfg: TrainConfig) -> TrainResult:
    """Run the three-branch optimization and return the model plus loss trace.

    lambda2=0 or object_batch=0 disables the composite branch entirely (the
    counters, those of the StepSampler that plans each step's batch, record
    that the shared classifier never saw composite inputs).

    The two classifiers share no parameters, and no batch depends on either,
    so the steps run in windows of TRAIN_WINDOW: one draw plans the window,
    then one loop takes the spatial classifier's steps and a second the
    interaction classifier's. The model, trace, counters and grad norms are
    those of running the steps one by one. At the first step whose total loss
    or either gradient is non-finite, TrainingDiverged carries that step and
    its total; by then the spatial classifier may have taken later steps of
    the window, and that model is discarded. The classifiers are updated in
    place, and each step's gradients are written into one reused workspace per
    branch. The steps run with OpenBLAS on one thread (blas.one_thread), so
    the model's bytes do not depend on the caller's thread count.
    """
    sampler = StepSampler(train_set, external_objects, tax, cfg)
    model = init_model(tax, train_set.verb_feat.shape[1], cfg)
    g_sp, g_hoi, g_atl = map(nn.zeros_like, (model.sp_classifier, model.hoi_classifier, model.hoi_classifier))
    rng = substream(cfg.seed, "batching")
    trace, grad_norms = [], []

    with blas.one_thread():
        for start in range(0, cfg.iterations, TRAIN_WINDOW):
            plans = sampler.draw(rng, min(TRAIN_WINDOW, cfg.iterations - start))
            sp_losses, norms_at, sp_stop = [], {}, -1
            for step, plan in enumerate(plans, start):
                if step % cfg.trace_every == 0 or step == cfg.iterations - 1:
                    norms_at[step] = {}
                l_sp, g = sp_grads(model.sp_classifier, sampler, plan, g_sp, norms_at.get(step))
                sp_losses.append(l_sp)
                # each divergence check is one isfinite per flat gradient buffer and
                # the loss, with no sum that could overflow; the interaction loop
                # raises at this step
                if not (math.isfinite(l_sp) and np.isfinite(g.flat).all()):
                    sp_stop = step
                    break
                nn.sgd_step(model.sp_classifier, g, cfg.lr)
            for step, (plan, l_sp) in enumerate(zip(plans, sp_losses), start):
                norms = norms_at.get(step)
                l_hoi, l_atl, g = hoi_grads(model.hoi_classifier, sampler, plan, cfg, g_hoi, g_atl, norms)
                total = total_loss(l_sp, l_hoi, l_atl, cfg)
                if step == sp_stop or not (math.isfinite(total) and np.isfinite(g.flat).all()):
                    raise TrainingDiverged(step, total)
                nn.sgd_step(model.hoi_classifier, g, cfg.lr)
                if norms is not None:
                    trace.append({"step": step, "L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl, "L_total": total})
                    grad_norms.append({"step": step, **norms})

    counters = {**sampler.counters, "composite_per_category": sampler.per_category.tolist()}
    return TrainResult(model=model, trace=trace, counters=counters, grad_norms=grad_norms)


def step_grad_check(model: HOIModel, sampler: StepSampler, plan: StepPlan, cfg: TrainConfig):
    """Finite-difference check of plan's full composite step loss across both
    classifiers. Returns {param_path: rel_error}.

    Each evaluation is total_loss of the forward-only branch losses, the path
    nn.grad_check takes, so no gradient is computed only to be thrown away.
    """
    sp, hoi = model.sp_classifier, model.hoi_classifier
    (sp_x, y), (hoi_x, _, atl_x, atl_y) = sampler.sp_rows(plan), sampler.hoi_rows(plan)

    def bce(params: nn.MLPParams, x, t) -> float:
        return nn.bce_loss(nn.mlp_forward(params, x)[1], t)

    def loss() -> float:
        l_atl = 0.0 if atl_x is None else bce(hoi, atl_x, atl_y)
        return total_loss(bce(sp, sp_x, y), bce(hoi, hoi_x, y), l_atl, cfg)

    analytic = {"sp_classifier": sp_grads(sp, sampler, plan, nn.zeros_like(sp))[1],
                "hoi_classifier": hoi_grads(hoi, sampler, plan, cfg, nn.zeros_like(hoi), nn.zeros_like(hoi))[2]}
    return {f"{comp}.{name}": err for comp, grads in analytic.items()
            for name, err in nn.fd_errors(loss, getattr(model, comp), grads).items()}


def predict_dataset(model: HOIModel, instances, tax: Taxonomy) -> np.ndarray:
    """Score every instance of an HOISet for every category: an (n, C) float64
    grid whose row i is the set's row i. The classifiers run with OpenBLAS on
    one thread, as train does."""
    if not len(instances):
        return np.zeros((0, tax.n_categories))
    x_sp, x_hoi = build_matrices(instances, model.spatial_resolution)
    with blas.one_thread():
        _, p_sp = nn.mlp_forward(model.sp_classifier, x_sp)
        _, p_hoi = nn.mlp_forward(model.hoi_classifier, x_hoi)
    return p_sp * p_hoi


def save_checkpoint(model: HOIModel, path) -> None:
    """Write model as the JSON document at path, its sizes and classifier shapes,
    and each classifier's flat buffer as <classifier>.npy beside it."""
    params = {name: getattr(model, name) for name in _CLASSIFIERS}
    write_json(path, {
        "spatial_resolution": model.spatial_resolution,
        "feat_dim": model.feat_dim,
        **{name: {"shape": dict(zip(_SHAPE, (p.d_in, p.hidden, p.k_out)))} for name, p in params.items()},
        "arrays": write_arrays(path, {f"{name}.npy": p.flat for name, p in params.items()}),
    }, version=_CHECKPOINT_SCHEMA, indent=None)


def load_checkpoint(path) -> HOIModel:
    """The model of a save_checkpoint document; ValueError names a failed field or file."""
    d = read_json(path, "checkpoint", version=_CHECKPOINT_SCHEMA)
    check_fields(d, {"spatial_resolution": int, "feat_dim": int, "arrays": dict,
                     **dict.fromkeys(_CLASSIFIERS, dict)}, "checkpoint")
    shapes = {}
    for name in _CLASSIFIERS:
        check_fields(d[name], {"shape": dict}, name)
        check_fields(d[name]["shape"], dict.fromkeys(_SHAPE, int), f"{name} shape")
        shapes[name] = [d[name]["shape"][key] for key in _SHAPE]
        if min(shapes[name]) < 1:
            raise ValueError(f"{name} shape {d[name]['shape']} must be positive")
    flats = read_arrays(path, d["arrays"], {f"{name}.npy": (hidden * (d_in + 1 + k_out) + k_out,)
                                            for name, (d_in, hidden, k_out) in shapes.items()})
    model = HOIModel(**{name: nn.MLPParams.from_flat(flats[f"{name}.npy"], *shapes[name]) for name in _CLASSIFIERS},
                     spatial_resolution=d["spatial_resolution"], feat_dim=d["feat_dim"])
    model.validate()
    return model


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "L_sp", "L_hoi", "L_ATL", "L_total"])
        for row in trace:
            w.writerow([row["step"], row["L_sp"], row["L_hoi"], row["L_ATL"], row["L_total"]])
