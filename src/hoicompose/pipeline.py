"""Three-branch HOI training: spatial branch, real verb-object branch, and the
composite branch that pairs in-batch verb features with external-object features.

Both the real and composite branches run through one shared HOI classifier; the
total loss is L_sp + lambda1 * L_hoi + lambda2 * L_composite. Inference scores a
pair as s_h * s_o * p_hoi * p_sp per category.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import nn
from .jsonfile import check_fields, read_json, write_json
from .seeding import stream_seed, substream
from .synth import Detections
from .taxonomy import Taxonomy, compose_label, decouple_verb, one_hot

_CHECKPOINT_SCHEMA = 2


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

    def to_json_dict(self) -> dict:
        return asdict(self)

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
class StepBatch:
    """Everything one optimization step sees, as stacked arrays (None = no composites).
    The spatial and real branches score the same rows, so they share the target y."""

    sp_x: np.ndarray
    hoi_x: np.ndarray
    y: np.ndarray
    atl_x: np.ndarray | None
    atl_y: np.ndarray | None


class StepSampler:
    """Draws the batch of each step train takes, and counts what the composite
    branch did: candidate and valid compositions, draws that kept any, kept
    examples, and their label bits per category (per_category). Construction
    checks every input train takes, so a bad one fails even at 0 iterations."""

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
            self.object_labels = np.stack([one_hot(tax.n_objects, o) for o in external_objects.object_label])
        self.tax, self.cfg = tax, cfg
        self.counters = {"composite_classifier_calls": 0, "composite_examples": 0,
                         "composite_candidates": 0, "composite_valid": 0}
        self.per_category = np.zeros(tax.n_categories, dtype=np.int64)

    def draw(self, rng: np.random.Generator) -> StepBatch:
        """One step's batch from rng: hoi_batch train rows, then, with the
        composite branch on, object_batch external objects and the kept
        compositions of the two."""
        cfg, n = self.cfg, len(self.y)
        idx = rng.choice(n, size=cfg.hoi_batch, replace=n < cfg.hoi_batch)
        atl_x = atl_y = None
        if self.use_composite:
            m = len(self.object_labels)
            obj_idx = rng.choice(m, size=cfg.object_batch, replace=m < cfg.object_batch)
            kept = compose_batch(self.verb_labels[idx], self.object_labels[obj_idx], self.tax, cfg.object_batch,
                                 rng, self.counters)
            if len(kept):
                atl_x = kept.inputs(self.verb_feats[idx], self.object_feats[obj_idx])
                atl_y = kept.labels.astype(float)
                self.per_category += kept.labels.sum(axis=0)
                self.counters["composite_classifier_calls"] += 1
                self.counters["composite_examples"] += len(kept)
        return StepBatch(sp_x=self.x_sp[idx], hoi_x=self.x_hoi[idx], y=self.y[idx], atl_x=atl_x, atl_y=atl_y)


def grad_workspaces(model: HOIModel) -> tuple:
    """Zeroed (g_sp, g_hoi, g_atl) gradient workspaces for step_grads."""
    return tuple(nn.zeros_like(p) for p in (model.sp_classifier, model.hoi_classifier, model.hoi_classifier))


def step_grads(model: HOIModel, batch: StepBatch, cfg: TrainConfig, grads=None, norms: dict | None = None):
    """Raw branch losses and analytic gradients of the total step loss, from one
    forward pass per branch: returns (losses, (g_sp, g_hoi)).

    The real and composite branches share the HOI classifier, so its gradient
    is lambda1 * real + lambda2 * composite. The gradients are written into
    grads, the grad_workspaces of the model (new ones when None); its g_atl ends
    up holding lambda2 * composite. norms, when given, gains the L2 norms "sp",
    "hoi" and "atl" of g_sp, lambda1 * real and lambda2 * composite (0.0 with no
    composites), the last two taken before they are added.
    """
    g_sp, g_hoi, g_atl = grads or grad_workspaces(model)
    l_sp = nn.mlp_backward(model.sp_classifier, batch.sp_x, batch.y, out=g_sp)[0]
    l_hoi = nn.mlp_backward(model.hoi_classifier, batch.hoi_x, batch.y, out=g_hoi)[0]
    g_hoi.flat *= cfg.lambda1
    if norms is not None:
        norms.update(sp=float(np.linalg.norm(g_sp.flat)), hoi=float(np.linalg.norm(g_hoi.flat)), atl=0.0)
    l_atl = 0.0
    if batch.atl_x is not None:
        l_atl = nn.mlp_backward(model.hoi_classifier, batch.atl_x, batch.atl_y, out=g_atl)[0]
        g_atl.flat *= cfg.lambda2
        if norms is not None:
            norms["atl"] = float(np.linalg.norm(g_atl.flat))
        g_hoi.flat += g_atl.flat
    return {"L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl}, (g_sp, g_hoi)


@dataclass
class TrainResult:
    """The trained model, the loss trace, the composite counters, and per traced
    step the L2 gradient norms of the three branches (see step_grads)."""

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
    counters, those of the StepSampler that draws each step's batch, record
    that the shared classifier never saw composite inputs).

    The model's classifiers are updated in place, and each step's gradients
    are written into one reused workspace per branch.
    """
    sampler = StepSampler(train_set, external_objects, tax, cfg)
    model = init_model(tax, train_set.verb_feat.shape[1], cfg)
    grads = grad_workspaces(model)
    rng = substream(cfg.seed, "batching")
    trace, grad_norms = [], []

    for step in range(cfg.iterations):
        traced = step % cfg.trace_every == 0 or step == cfg.iterations - 1
        norms = {} if traced else None
        losses, (g_sp, g_hoi) = step_grads(model, sampler.draw(rng), cfg, grads, norms)
        total = total_loss(losses["L_sp"], losses["L_hoi"], losses["L_ATL"], cfg)
        # the step's one divergence check, before either classifier is updated: one
        # isfinite per flat gradient buffer and the loss, with no sum that could overflow
        if not (math.isfinite(total) and np.isfinite(g_sp.flat).all() and np.isfinite(g_hoi.flat).all()):
            raise TrainingDiverged(step, total)

        nn.sgd_step(model.sp_classifier, g_sp, cfg.lr)
        nn.sgd_step(model.hoi_classifier, g_hoi, cfg.lr)

        if traced:
            trace.append({"step": step, **losses, "L_total": total})
            grad_norms.append({"step": step, **norms})

    counters = {**sampler.counters, "composite_per_category": sampler.per_category.tolist()}
    return TrainResult(model=model, trace=trace, counters=counters, grad_norms=grad_norms)


def step_grad_check(model: HOIModel, batch: StepBatch, cfg: TrainConfig, step: float = 1e-5):
    """Finite-difference check of the full composite step loss across both
    classifiers. Returns {param_path: rel_error}.

    Each evaluation is total_loss of the forward-only branch losses, the path
    nn.grad_check takes, so no gradient is computed only to be thrown away.
    """
    def bce(params: nn.MLPParams, x, y) -> float:
        return nn.bce_loss(nn.mlp_forward(params, x)[1], y)

    def loss() -> float:
        l_atl = 0.0 if batch.atl_x is None else bce(model.hoi_classifier, batch.atl_x, batch.atl_y)
        return total_loss(bce(model.sp_classifier, batch.sp_x, batch.y),
                          bce(model.hoi_classifier, batch.hoi_x, batch.y), l_atl, cfg)

    _, analytic = step_grads(model, batch, cfg)
    errors = {}
    for comp, grads in zip(("sp_classifier", "hoi_classifier"), analytic):
        for name, arr in getattr(model, comp).items():
            fd = nn._numeric_grad(loss, arr, step)
            errors[f"{comp}.{name}"] = nn._rel_error(getattr(grads, name), fd)
    return errors


def _check_confidences(s_h: float, s_o: float) -> None:
    if not 0.0 <= s_h <= 1.0 or not 0.0 <= s_o <= 1.0:
        raise ValueError("detection confidences must lie in [0, 1]")


def predict_dataset(model: HOIModel, instances, tax: Taxonomy, s_h: float = 1.0,
                    s_o: float = 1.0) -> Detections:
    """Score every instance of an HOISet for every category: a Detections grid
    whose row i is the set's row i."""
    _check_confidences(s_h, s_o)
    if not len(instances):
        return Detections(np.zeros((0, tax.n_categories)))
    x_sp, x_hoi = build_matrices(instances, model.spatial_resolution)
    _, p_sp = nn.mlp_forward(model.sp_classifier, x_sp)
    _, p_hoi = nn.mlp_forward(model.hoi_classifier, x_hoi)
    return Detections(s_h * s_o * p_sp * p_hoi)


def save_checkpoint(model: HOIModel, cfg: TrainConfig, path) -> None:
    write_json(path, {
        "config": cfg.to_json_dict(),
        "spatial_resolution": model.spatial_resolution,
        "feat_dim": model.feat_dim,
        "sp_classifier": nn.params_to_dict(model.sp_classifier),
        "hoi_classifier": nn.params_to_dict(model.hoi_classifier),
    }, version=_CHECKPOINT_SCHEMA, indent=None)


def load_checkpoint(path) -> tuple[HOIModel, TrainConfig]:
    d = read_json(path, "checkpoint", version=_CHECKPOINT_SCHEMA)
    check_fields(d, {"config": dict, "spatial_resolution": int, "feat_dim": int,
                     "sp_classifier": dict, "hoi_classifier": dict}, "checkpoint")
    model = HOIModel(
        sp_classifier=nn.params_from_dict(d["sp_classifier"], "sp_classifier"),
        hoi_classifier=nn.params_from_dict(d["hoi_classifier"], "hoi_classifier"),
        spatial_resolution=d["spatial_resolution"],
        feat_dim=d["feat_dim"],
    )
    model.validate()
    return model, TrainConfig.from_json_dict(d["config"])


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "L_sp", "L_hoi", "L_ATL", "L_total"])
        for row in trace:
            w.writerow([row["step"], row["L_sp"], row["L_hoi"], row["L_ATL"], row["L_total"]])
