"""Three-branch HOI training: spatial branch, real verb-object branch, and the
composite branch that pairs in-batch verb features with external-object features.

Both the real and composite branches run through one shared HOI classifier; the
total loss is L_sp + lambda1 * L_hoi + lambda2 * L_composite. Inference scores a
pair as s_h * s_o * p_hoi * p_sp per category.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .seeding import stream_seed, substream
from .taxonomy import Taxonomy, compose_label, decouple_verb, one_hot
from .synth import HOIInstance

SPATIAL_MAP_RESOLUTION = 64  # full-size binary map; classifiers use a downscale


class TrainingDiverged(RuntimeError):
    """Raised when the training loss goes non-finite; .step is the failing step."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"training loss became non-finite ({loss}) at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    lambda1: float = 2.0
    lambda2: float = 0.5
    lambda_aux: float = 0.0  # optional auxiliary verb head; off by default
    # lr is calibrated for the mean-reduced BCE at desk scale; with 60 classes
    # the per-class gradient scale is 1/C, so this is far larger than the lr a
    # sum-reduced full-scale system would use.
    lr: float = 3.0
    lr_decay_step: int | None = None  # multiply lr by 0.1 from this step on
    iterations: int = 1500
    hoi_batch: int = 32
    object_batch: int = 2  # external objects per step; also the composite cap
    hidden: int = 64
    spatial_resolution: int = 16  # classifier-side downscale of the 64x64 map
    trace_every: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda_aux < 0:
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
        return {
            "lambda1": self.lambda1, "lambda2": self.lambda2, "lambda_aux": self.lambda_aux,
            "lr": self.lr, "lr_decay_step": self.lr_decay_step, "iterations": self.iterations,
            "hoi_batch": self.hoi_batch, "object_batch": self.object_batch,
            "hidden": self.hidden, "spatial_resolution": self.spatial_resolution,
            "trace_every": self.trace_every, "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown training config fields: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


def baseline_config(cfg: TrainConfig) -> TrainConfig:
    """The no-transfer ablation: composite branch off, no external objects."""
    return replace(cfg, lambda2=0.0, object_batch=0)


@dataclass
class HOIModel:
    """The two trained classifiers (plus the optional verb head)."""

    sp_classifier: nn.MLPParams  # input: flattened spatial map ++ human_feat
    hoi_classifier: nn.MLPParams  # input: verb_feat ++ object_feat; shared by both branches
    verb_head: nn.MLPParams | None
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


def make_spatial_pattern(b_h, b_o, resolution: int = SPATIAL_MAP_RESOLUTION) -> np.ndarray:
    """Two binary maps over the tight union box of the pair, shape (2, res, res).

    A pixel is 1 iff its center lies inside the human (channel 0) or object
    (channel 1) box.
    """
    b_h = np.asarray(b_h, dtype=float)
    b_o = np.asarray(b_o, dtype=float)
    for name, b in (("human", b_h), ("object", b_o)):
        if b.shape != (4,) or b[2] <= b[0] or b[3] <= b[1]:
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
    """Stack per-instance classifier inputs/targets: (X_sp, X_hoi, Y, verb multi-hots)."""
    x_sp = np.stack([spatial_input(inst, resolution) for inst in instances])
    x_hoi = np.stack([hoi_input(inst.verb_feat, inst.object_feat) for inst in instances])
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


def _weighted_total(sp_loss, hoi_loss, atl_loss, aux_loss, cfg: TrainConfig):
    """The one total-loss expression, unvalidated:
    ((L_sp + lambda1 * L_hoi) + lambda2 * L_composite) + lambda_aux * L_aux."""
    return sp_loss + cfg.lambda1 * hoi_loss + cfg.lambda2 * atl_loss + cfg.lambda_aux * aux_loss


def total_loss(sp_loss: float, hoi_loss: float, atl_loss: float, cfg: TrainConfig,
               aux_loss: float = 0.0) -> float:
    """L_sp + lambda1 * L_hoi + lambda2 * L_composite (+ lambda_aux * L_aux);
    empty composite passes 0."""
    for name, v in (("sp", sp_loss), ("hoi", hoi_loss), ("composite", atl_loss), ("aux", aux_loss)):
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"{name} loss must be finite and nonnegative, got {v}")
    return float(_weighted_total(sp_loss, hoi_loss, atl_loss, aux_loss, cfg))


@dataclass
class StepBatch:
    """Everything one optimization step sees, as stacked arrays (None = branch off)."""

    sp_x: np.ndarray
    sp_y: np.ndarray
    hoi_x: np.ndarray
    hoi_y: np.ndarray
    atl_x: np.ndarray | None
    atl_y: np.ndarray | None
    verb_x: np.ndarray | None = None
    verb_y: np.ndarray | None = None


def branch_losses(model: HOIModel, batch: StepBatch, cfg: TrainConfig) -> dict:
    """Raw forward-only branch losses for one step; no finiteness validation.

    Training takes the same losses from step_grads; this forward-only path
    serves the finite-difference check.
    """
    l_sp = nn.bce_loss(nn.mlp_forward(model.sp_classifier, batch.sp_x)[1], batch.sp_y)
    l_hoi = nn.bce_loss(nn.mlp_forward(model.hoi_classifier, batch.hoi_x)[1], batch.hoi_y)
    l_atl = 0.0
    if batch.atl_x is not None and len(batch.atl_x):
        l_atl = nn.bce_loss(nn.mlp_forward(model.hoi_classifier, batch.atl_x)[1], batch.atl_y)
    l_aux = 0.0
    if model.verb_head is not None and batch.verb_x is not None and cfg.lambda_aux > 0:
        l_aux = nn.bce_loss(nn.mlp_forward(model.verb_head, batch.verb_x)[1], batch.verb_y)
    return {"L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl, "L_aux": l_aux}


def step_losses(model: HOIModel, batch: StepBatch, cfg: TrainConfig) -> dict:
    """Forward-only branch losses plus the validated total (for the grad check)."""
    losses = branch_losses(model, batch, cfg)
    total = total_loss(losses["L_sp"], losses["L_hoi"], losses["L_ATL"], cfg, losses["L_aux"])
    return {**losses, "L_total": total}


def step_grads(model: HOIModel, batch: StepBatch, cfg: TrainConfig):
    """Raw branch losses and analytic gradients of the total step loss, from one
    forward pass per branch: returns (losses, (g_sp, g_hoi, g_verb)).

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
    l_aux, g_verb = 0.0, None
    if model.verb_head is not None and batch.verb_x is not None and cfg.lambda_aux > 0:
        l_aux, g_verb = nn.mlp_backward(model.verb_head, batch.verb_x, batch.verb_y)
        g_verb = nn.scale_grads(g_verb, cfg.lambda_aux)
    losses = {"L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl, "L_aux": l_aux}
    return losses, (g_sp, g_hoi, g_verb)


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
        verb_head=(nn.init_params(feat_dim, tax.n_verbs, cfg.hidden,
                                  seed=stream_seed(cfg.seed, "init-verb"))
                   if cfg.lambda_aux > 0 else None),
        spatial_resolution=cfg.spatial_resolution,
        feat_dim=feat_dim,
    )
    model.validate()
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
    verb_feats = np.stack([inst.verb_feat for inst in train_set])
    if use_composite:
        verb_rows = verb_targets.astype(np.int8)
        obj_feats = np.stack([o.object_feat for o in external_objects])
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

        batch = StepBatch(
            sp_x=x_sp[idx], sp_y=y[idx], hoi_x=x_hoi[idx], hoi_y=y[idx],
            atl_x=atl_x, atl_y=atl_y,
            verb_x=verb_feats[idx] if cfg.lambda_aux > 0 else None,
            verb_y=verb_targets[idx] if cfg.lambda_aux > 0 else None,
        )
        losses, (g_sp, g_hoi, g_verb) = step_grads(model, batch, cfg)
        raw_total = _weighted_total(losses["L_sp"], losses["L_hoi"], losses["L_ATL"], losses["L_aux"], cfg)
        if not np.isfinite(raw_total):
            raise TrainingDiverged(step, raw_total)
        losses["L_total"] = float(raw_total)

        lr = cfg.lr
        if cfg.lr_decay_step is not None and step >= cfg.lr_decay_step:
            lr = cfg.lr * 0.1
        try:
            model.sp_classifier = nn.sgd_step(model.sp_classifier, g_sp, lr)
            model.hoi_classifier = nn.sgd_step(model.hoi_classifier, g_hoi, lr)
            if g_verb is not None:
                model.verb_head = nn.sgd_step(model.verb_head, g_verb, lr)
        except ValueError:
            # sgd_step only rejects non-finite gradients: that is divergence here.
            raise TrainingDiverged(step, float("nan"))

        if step % cfg.trace_every == 0 or step == cfg.iterations - 1:
            trace.append({"step": step, **{k: losses[k] for k in ("L_sp", "L_hoi", "L_ATL", "L_total")}})

    counters["composite_per_category"] = per_category.tolist()
    return TrainResult(model=model, trace=trace, counters=counters)


def step_grad_check(model: HOIModel, batch: StepBatch, cfg: TrainConfig, step: float = 1e-5):
    """Finite-difference check of the full composite step loss across both
    classifiers (and the verb head when present). Returns {param_path: rel_error}.
    """
    _, (g_sp, g_hoi, g_verb) = step_grads(model, batch, cfg)
    analytic = {"sp_classifier": g_sp, "hoi_classifier": g_hoi}
    if g_verb is not None:
        analytic["verb_head"] = g_verb
    errors = {}
    for comp, grads in analytic.items():
        params: nn.MLPParams = getattr(model, comp)
        for name, arr in params.items():
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                up = step_losses(model, batch, cfg)["L_total"]
                arr[ix] = orig - step
                down = step_losses(model, batch, cfg)["L_total"]
                arr[ix] = orig
                fd[ix] = (up - down) / (2.0 * step)
                it.iternext()
            a = getattr(grads, name)
            num = np.linalg.norm(a - fd)
            den = max(np.linalg.norm(a) + np.linalg.norm(fd), 1e-12)
            errors[f"{comp}.{name}"] = float(num / den)
    return errors


def predict_pair(human_feat, verb_feat, object_feat, b_h, b_o, s_h: float, s_o: float,
                 model: HOIModel, tax: Taxonomy) -> np.ndarray:
    """Per-category score s_h * s_o * p_hoi * p_sp for one human-object pair."""
    if not 0.0 <= s_h <= 1.0 or not 0.0 <= s_o <= 1.0:
        raise ValueError("detection confidences must lie in [0, 1]")
    pattern = make_spatial_pattern(b_h, b_o, model.spatial_resolution)
    sp_x = np.concatenate([pattern.reshape(-1).astype(float), np.asarray(human_feat, dtype=float)])
    _, p_sp = nn.mlp_forward(model.sp_classifier, sp_x)
    _, p_hoi = nn.mlp_forward(model.hoi_classifier, hoi_input(verb_feat, object_feat))
    return s_h * s_o * p_hoi * p_sp


def predict_dataset(model: HOIModel, instances, tax: Taxonomy, s_h: float = 1.0, s_o: float = 1.0):
    """Score every instance for every category; returns (b_h, b_o, category, score) tuples."""
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
        "schema_version": 1,
        "config": cfg.to_json_dict(),
        "spatial_resolution": model.spatial_resolution,
        "feat_dim": model.feat_dim,
        "sp_classifier": nn.params_to_dict(model.sp_classifier),
        "hoi_classifier": nn.params_to_dict(model.hoi_classifier),
        "verb_head": None if model.verb_head is None else nn.params_to_dict(model.verb_head),
    }
    with open(path, "w") as f:
        json.dump(d, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> tuple[HOIModel, TrainConfig]:
    with open(path) as f:
        d = json.load(f)
    known = {"schema_version", "config", "spatial_resolution", "feat_dim",
             "sp_classifier", "hoi_classifier", "verb_head"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown checkpoint fields: {sorted(unknown)}")
    model = HOIModel(
        sp_classifier=nn.params_from_dict(d["sp_classifier"]),
        hoi_classifier=nn.params_from_dict(d["hoi_classifier"]),
        verb_head=None if d["verb_head"] is None else nn.params_from_dict(d["verb_head"]),
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
