"""Three-branch HOI training: spatial branch, real verb-object branch, and the
composite branch that pairs in-batch verb features with external-object features.

Both the real and composite branches run through one shared HOI classifier; the
total loss is L_sp + lambda1 * L_hoi + lambda2 * L_composite. Inference scores a
pair as s_h * s_o * p_hoi * p_sp per category.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import nn
from .seeding import stream_seed, substream
from .taxonomy import Taxonomy, _reject_unknown, compose_label, decouple_verb, one_hot
from .synth import HOIInstance

_CHECKPOINT_SCHEMA = 2


class TrainingDiverged(RuntimeError):
    """Raised when a step's loss or gradients go non-finite; .step is the failing step."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"training loss or gradients became non-finite at step {step} (loss {loss})")
        self.step = step


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
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.hoi_batch < 1:
            raise ValueError("hoi_batch must be at least 1")
        if self.object_batch < 0:
            raise ValueError("object_batch must be nonnegative")
        if self.spatial_resolution < 1:
            raise ValueError("spatial_resolution must be positive")
        if self.trace_every < 1:
            raise ValueError("trace_every must be at least 1")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        _reject_unknown(d, {f.name for f in fields(cls)}, "training config")
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
    """Two binary maps over the tight union box of the pair, shape (2, res, res).

    A pixel is 1 iff its center lies inside the human (channel 0) or object
    (channel 1) box.
    """
    b_h = np.asarray(b_h, dtype=float)
    b_o = np.asarray(b_o, dtype=float)
    for name, b in (("human", b_h), ("object", b_o)):
        if b.shape != (4,) or not (b[2] > b[0] and b[3] > b[1]):  # NaN corners fail too
            raise ValueError(f"{name} box degenerate or malformed: {b.tolist()}")
    ux1, uy1 = min(b_h[0], b_o[0]), min(b_h[1], b_o[1])
    ux2, uy2 = max(b_h[2], b_o[2]), max(b_h[3], b_o[3])
    cx = ux1 + (np.arange(resolution) + 0.5) / resolution * (ux2 - ux1)
    cy = uy1 + (np.arange(resolution) + 0.5) / resolution * (uy2 - uy1)
    out = np.zeros((2, resolution, resolution), dtype=np.int8)
    for ch, b in ((0, b_h), (1, b_o)):
        in_x = (cx >= b[0]) & (cx <= b[2])
        in_y = (cy >= b[1]) & (cy <= b[3])
        out[ch] = in_y[:, None] & in_x[None, :]
    return out


def spatial_input(inst: HOIInstance, resolution: int) -> np.ndarray:
    pattern = make_spatial_pattern(inst.human_box, inst.object_box, resolution)
    return np.concatenate([pattern.reshape(-1).astype(float), inst.human_feat])


def hoi_input(verb_feat, object_feat) -> np.ndarray:
    return np.concatenate([verb_feat, object_feat])


def build_matrices(instances, tax: Taxonomy, resolution: int):
    """Stack per-instance classifier inputs/targets: (X_sp, X_hoi, Y, verb multi-hots).
    The one finiteness check on the way into train and predict_dataset."""
    x_sp = np.stack([spatial_input(inst, resolution) for inst in instances])
    x_hoi = np.stack([hoi_input(inst.verb_feat, inst.object_feat) for inst in instances])
    if not (np.isfinite(x_sp).all() and np.isfinite(x_hoi).all()):
        raise ValueError("non-finite entries in instance features")
    y = np.stack([inst.hoi_label for inst in instances]).astype(float)
    verbs = np.stack([decouple_verb(inst.hoi_label, tax) for inst in instances]).astype(float)
    return x_sp, x_hoi, y, verbs


def compose_batch(verb_items, object_items, tax: Taxonomy, cap: int, rng: np.random.Generator,
                  counters: dict | None = None):
    """Cross every verb item with every object item, keep valid compositions only.

    verb_items: (verb_feat, verb multi-hot); object_items: (object_feat, object
    one-hot). One broadcast compose_label call labels all B x K candidates;
    those whose label is all zeros are dropped, the rest stay in verb-major
    order. At most cap survivors are kept by uniform subsampling (selection
    order-preserving). Returns a list of (verb_feat ++ object_feat, label).
    counters, when given, gains the composite_candidates and composite_valid
    counts of this call.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if not len(verb_items) or not len(object_items):
        return []
    verb_labels = np.stack([label for _, label in verb_items])
    object_labels = np.stack([label for _, label in object_items])
    block = compose_label(object_labels[None, :, :], verb_labels[:, None, :], tax)
    vi, oj = np.nonzero(block.any(axis=-1))
    if counters is not None:
        counters["composite_candidates"] += block.shape[0] * block.shape[1]
        counters["composite_valid"] += len(vi)
    keep = range(len(vi))
    if len(vi) > cap:
        keep = np.sort(rng.choice(len(vi), size=cap, replace=False))
    return [(hoi_input(verb_items[vi[k]][0], object_items[oj[k]][0]), block[vi[k], oj[k]]) for k in keep]


def total_loss(sp_loss: float, hoi_loss: float, atl_loss: float, cfg: TrainConfig) -> float:
    """The one total-loss expression, unvalidated:
    (L_sp + lambda1 * L_hoi) + lambda2 * L_composite; an empty composite branch passes 0."""
    return float(sp_loss + cfg.lambda1 * hoi_loss + cfg.lambda2 * atl_loss)


@dataclass
class StepBatch:
    """Everything one optimization step sees, as stacked arrays (None = no composites)."""

    sp_x: np.ndarray
    sp_y: np.ndarray
    hoi_x: np.ndarray
    hoi_y: np.ndarray
    atl_x: np.ndarray | None
    atl_y: np.ndarray | None


def step_grads(model: HOIModel, batch: StepBatch, cfg: TrainConfig):
    """Raw branch losses and analytic gradients of the total step loss, from one
    forward pass per branch: returns (losses, (g_sp, g_hoi)).

    The real and composite branches share the HOI classifier, so its gradient
    is lambda1 * real + lambda2 * composite.
    """
    l_sp, g_sp = nn.mlp_backward(model.sp_classifier, batch.sp_x, batch.sp_y)
    l_hoi, g_hoi = nn.mlp_backward(model.hoi_classifier, batch.hoi_x, batch.hoi_y)
    g_hoi = nn.scale_grads(g_hoi, cfg.lambda1)
    l_atl = 0.0
    if batch.atl_x is not None and len(batch.atl_x):
        l_atl, g_atl = nn.mlp_backward(model.hoi_classifier, batch.atl_x, batch.atl_y)
        g_hoi = nn.add_grads(g_hoi, nn.scale_grads(g_atl, cfg.lambda2))
    return {"L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl}, (g_sp, g_hoi)


@dataclass
class TrainResult:
    model: HOIModel
    trace: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def init_model(tax: Taxonomy, feat_dim: int, cfg: TrainConfig) -> HOIModel:
    sp_d_in = 2 * cfg.spatial_resolution**2 + feat_dim
    model = HOIModel(
        sp_classifier=nn.init_params(sp_d_in, tax.n_categories, cfg.hidden,
                                     seed=stream_seed(cfg.seed, "init-sp")),
        hoi_classifier=nn.init_params(2 * feat_dim, tax.n_categories, cfg.hidden,
                                      seed=stream_seed(cfg.seed, "init-hoi")),
        spatial_resolution=cfg.spatial_resolution,
        feat_dim=feat_dim,
    )
    return model


def train(train_set, external_objects, tax: Taxonomy, cfg: TrainConfig) -> TrainResult:
    """Run the three-branch optimization and return the model plus loss trace.

    lambda2=0 or object_batch=0 disables the composite branch entirely (the
    counters record that the shared classifier never saw composite inputs).
    The counters also record what the composite branch did: candidate and valid
    compositions, kept examples (composite_examples), and the label bits of the
    kept examples per category (composite_per_category).
    """
    cfg.validate()
    if not train_set:
        raise ValueError("train set is empty")
    use_composite = cfg.lambda2 > 0 and cfg.object_batch > 0
    if use_composite and not external_objects:
        raise ValueError("composite branch enabled but no external objects given")

    feat_dim = train_set[0].verb_feat.shape[0]
    x_sp, x_hoi, y, verb_targets = build_matrices(train_set, tax, cfg.spatial_resolution)
    if use_composite:
        verb_feats = np.stack([inst.verb_feat for inst in train_set])
        verb_rows = verb_targets.astype(np.int8)
        obj_feats = np.stack([o.object_feat for o in external_objects])
        if not np.isfinite(obj_feats).all():
            raise ValueError("non-finite entries in external object features")
        obj_onehots = np.stack([one_hot(tax.n_objects, o.object_label) for o in external_objects])

    model = init_model(tax, feat_dim, cfg)
    rng = substream(cfg.seed, "batching")
    n = len(train_set)
    counters = {"composite_classifier_calls": 0, "composite_examples": 0,
                "composite_candidates": 0, "composite_valid": 0}
    per_category = np.zeros(tax.n_categories, dtype=np.int64)
    trace = []

    for step in range(cfg.iterations):
        idx = rng.choice(n, size=cfg.hoi_batch, replace=n < cfg.hoi_batch)
        atl_x = atl_y = None
        if use_composite:
            m = len(external_objects)
            obj_idx = rng.choice(m, size=cfg.object_batch, replace=m < cfg.object_batch)
            verb_items = [(verb_feats[i], verb_rows[i]) for i in idx]
            object_items = [(obj_feats[j], obj_onehots[j]) for j in obj_idx]
            composites = compose_batch(verb_items, object_items, tax, cfg.object_batch, rng, counters)
            if composites:
                atl_x = np.stack([c[0] for c in composites])
                labels = np.stack([c[1] for c in composites])
                atl_y = labels.astype(float)
                per_category += labels.sum(axis=0)
                counters["composite_classifier_calls"] += 1
                counters["composite_examples"] += len(composites)

        batch = StepBatch(sp_x=x_sp[idx], sp_y=y[idx], hoi_x=x_hoi[idx], hoi_y=y[idx],
                          atl_x=atl_x, atl_y=atl_y)
        losses, (g_sp, g_hoi) = step_grads(model, batch, cfg)
        total = total_loss(losses["L_sp"], losses["L_hoi"], losses["L_ATL"], cfg)
        # the step's one divergence check, before either classifier is updated
        if not (np.isfinite(total) and all(np.isfinite(arr).all()
                                           for g in (g_sp, g_hoi) for _, arr in g.items())):
            raise TrainingDiverged(step, total)
        losses["L_total"] = total

        model.sp_classifier = nn.sgd_step(model.sp_classifier, g_sp, cfg.lr)
        model.hoi_classifier = nn.sgd_step(model.hoi_classifier, g_hoi, cfg.lr)

        if step % cfg.trace_every == 0 or step == cfg.iterations - 1:
            trace.append({"step": step, **{k: losses[k] for k in ("L_sp", "L_hoi", "L_ATL", "L_total")}})

    counters["composite_per_category"] = per_category.tolist()
    return TrainResult(model=model, trace=trace, counters=counters)


def step_grad_check(model: HOIModel, batch: StepBatch, cfg: TrainConfig, step: float = 1e-5):
    """Finite-difference check of the full composite step loss across both
    classifiers. Returns {param_path: rel_error}.
    """
    def loss() -> float:
        losses, _ = step_grads(model, batch, cfg)
        return total_loss(losses["L_sp"], losses["L_hoi"], losses["L_ATL"], cfg)

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


def predict_dataset(model: HOIModel, instances, tax: Taxonomy, s_h: float = 1.0, s_o: float = 1.0):
    """Score every instance for every category; returns (b_h, b_o, category, score) tuples."""
    _check_confidences(s_h, s_o)
    if not instances:
        return []
    x_sp, x_hoi, _, _ = build_matrices(instances, tax, model.spatial_resolution)
    _, p_sp = nn.mlp_forward(model.sp_classifier, x_sp)
    _, p_hoi = nn.mlp_forward(model.hoi_classifier, x_hoi)
    scores = s_h * s_o * p_sp * p_hoi
    out = []
    for i, inst in enumerate(instances):
        for c in range(tax.n_categories):
            out.append((inst.human_box, inst.object_box, c, float(scores[i, c])))
    return out


def ground_truth_pairs(instances):
    """(b_h, b_o, category) per set label bit, for the evaluation harness."""
    out = []
    for inst in instances:
        for c in np.flatnonzero(inst.hoi_label):
            out.append((inst.human_box, inst.object_box, int(c)))
    return out


def save_checkpoint(model: HOIModel, cfg: TrainConfig, path) -> None:
    d = {
        "schema_version": _CHECKPOINT_SCHEMA,
        "config": cfg.to_json_dict(),
        "spatial_resolution": model.spatial_resolution,
        "feat_dim": model.feat_dim,
        "sp_classifier": nn.params_to_dict(model.sp_classifier),
        "hoi_classifier": nn.params_to_dict(model.hoi_classifier),
    }
    with open(path, "w") as f:
        json.dump(d, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> tuple[HOIModel, TrainConfig]:
    with open(path) as f:
        d = json.load(f)
    version = d.get("schema_version") if isinstance(d, dict) else None
    if version != _CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema_version {version!r}; "
                         f"this version reads {_CHECKPOINT_SCHEMA} (retrain to upgrade)")
    _reject_unknown(d, {"schema_version", "config", "spatial_resolution", "feat_dim",
                        "sp_classifier", "hoi_classifier"}, "checkpoint")
    model = HOIModel(
        sp_classifier=nn.params_from_dict(d["sp_classifier"]),
        hoi_classifier=nn.params_from_dict(d["hoi_classifier"]),
        spatial_resolution=int(d["spatial_resolution"]),
        feat_dim=int(d["feat_dim"]),
    )
    model.validate()
    return model, TrainConfig.from_json_dict(d["config"])


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "L_sp", "L_hoi", "L_ATL", "L_total"])
        for row in trace:
            w.writerow([row["step"], row["L_sp"], row["L_hoi"], row["L_ATL"], row["L_total"]])
