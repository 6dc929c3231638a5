"""Two-layer multi-label MLP with manual backpropagation.

sigmoid(W2 @ relu(W1 @ x + b1) + b2) trained with mean-reduced binary cross
entropy and plain SGD. Gradients are closed-form; grad_check verifies them
against central finite differences.

Forward, backward and SGD check shapes only: inputs are checked for finiteness
where they enter, and train checks each step's loss and gradients once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reference classifier width; desk-scale configs shrink it.
DEFAULT_HIDDEN = 1024

# Probabilities are clamped to [EPS, 1-EPS] before logs.
EPS = 1e-7


@dataclass
class MLPParams:
    w1: np.ndarray  # (hidden, d_in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (k_out, hidden)
    b2: np.ndarray  # (k_out,)

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def k_out(self) -> int:
        return self.w2.shape[0]

    def items(self):
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def copy(self) -> "MLPParams":
        return MLPParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def validate(self) -> None:
        if self.w1.shape != (self.hidden, self.d_in) or self.b1.shape != (self.hidden,):
            raise ValueError("first-layer shapes inconsistent")
        if self.w2.shape != (self.k_out, self.hidden) or self.b2.shape != (self.k_out,):
            raise ValueError("second-layer shapes inconsistent")
        for name, arr in self.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")


@dataclass
class GradReport:
    max_rel_error: float
    per_param: dict[str, float]


def init_params(d_in: int, k_out: int, hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> MLPParams:
    """Seeded scaled-uniform init: weights in [-a, a], a = sqrt(6/(fan_in+fan_out))."""
    if d_in < 1 or k_out < 1 or hidden < 1:
        raise ValueError("d_in, k_out and hidden must be positive")
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (d_in + hidden))
    a2 = np.sqrt(6.0 / (hidden + k_out))
    return MLPParams(
        w1=rng.uniform(-a1, a1, size=(hidden, d_in)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-a2, a2, size=(k_out, hidden)),
        b2=np.zeros(k_out),
    )


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_input(params: MLPParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != params.d_in:
        raise ValueError(f"input shape {x.shape} does not match d_in={params.d_in}")
    return x


def mlp_forward(params: MLPParams, x):
    """Forward pass. x is one vector (d_in,) or a batch (n, d_in).

    Returns (logits, probs) with matching leading shape.
    """
    x = _check_input(params, x)
    h = np.maximum(x @ params.w1.T + params.b1, 0.0)
    logits = h @ params.w2.T + params.b2
    return logits, sigmoid(logits)


def bce_loss(probs, target) -> float:
    """Mean over all entries of -[t*log(p) + (1-t)*log(1-p)], with p clamped to EPS."""
    p = np.asarray(probs, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"probs shape {p.shape} != target shape {t.shape}")
    return _clamped_bce(np.clip(p, EPS, 1.0 - EPS), t)


def _clamped_bce(pc: np.ndarray, t: np.ndarray) -> float:
    return float(-np.mean(t * np.log(pc) + (1.0 - t) * np.log1p(-pc)))


def mlp_backward(params: MLPParams, x, target) -> tuple[float, MLPParams]:
    """bce_loss(mlp_forward(x)) and its analytic gradient w.r.t. every parameter.

    The loss comes from the forward pass the gradient runs anyway, so a training
    step needs no separate forward. Batch inputs use mean reduction over
    examples, matching bce_loss on the stacked batch; the gradient has
    MLPParams shape.
    """
    x = _check_input(params, x)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    t = np.asarray(target, dtype=float)
    tb = t[None, :] if single else t
    if tb.shape != (xb.shape[0], params.k_out):
        raise ValueError(f"target shape {t.shape} does not match ({xb.shape[0]}, {params.k_out})")

    pre = xb @ params.w1.T + params.b1
    h = np.maximum(pre, 0.0)
    logits = h @ params.w2.T + params.b2
    p = sigmoid(logits)

    # d(loss)/d(prob) through the clamp: zero where the clamp is active.
    pc = np.clip(p, EPS, 1.0 - EPS)
    loss = _clamped_bce(pc, tb)
    n_terms = tb.size
    dl_dp = (-tb / pc + (1.0 - tb) / (1.0 - pc)) / n_terms
    dl_dp[(p < EPS) | (p > 1.0 - EPS)] = 0.0
    delta = dl_dp * p * (1.0 - p)  # (n, k_out)

    dw2 = delta.T @ h
    db2 = delta.sum(axis=0)
    dh = delta @ params.w2
    dh[pre <= 0.0] = 0.0
    dw1 = dh.T @ xb
    db1 = dh.sum(axis=0)
    return loss, MLPParams(dw1, db1, dw2, db2)


def sgd_step(params: MLPParams, grads: MLPParams, lr: float = 0.01) -> MLPParams:
    """One gradient-descent update; returns new params, inputs untouched."""
    return MLPParams(
        params.w1 - lr * grads.w1,
        params.b1 - lr * grads.b1,
        params.w2 - lr * grads.w2,
        params.b2 - lr * grads.b2,
    )


def scale_grads(grads: MLPParams, coef: float) -> MLPParams:
    return MLPParams(coef * grads.w1, coef * grads.b1, coef * grads.w2, coef * grads.b2)


def add_grads(a: MLPParams, b: MLPParams) -> MLPParams:
    return MLPParams(a.w1 + b.w1, a.b1 + b.b1, a.w2 + b.w2, a.b2 + b.b2)


def _rel_error(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(a - b)
    den = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return float(num / den)


def _numeric_grad(loss, arr: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of loss() w.r.t. every entry of arr.

    Each entry is perturbed in place by +-step and restored exactly, so loss
    must read arr (e.g. a parameter array of the model it evaluates).
    """
    fd = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + step
        up = loss()
        arr[idx] = orig - step
        down = loss()
        arr[idx] = orig
        fd[idx] = (up - down) / (2.0 * step)
    return fd


def grad_check(params: MLPParams, x, target, step: float = 1e-5) -> GradReport:
    """Central finite differences over every parameter entry vs the analytic gradient."""
    _, analytic = mlp_backward(params, x, target)
    per_param = {}
    for name, arr in params.items():
        fd = _numeric_grad(lambda: bce_loss(mlp_forward(params, x)[1], target), arr, step)
        per_param[name] = _rel_error(getattr(analytic, name), fd)
    return GradReport(max_rel_error=max(per_param.values()), per_param=per_param)


def params_to_dict(params: MLPParams) -> dict:
    return {
        "shape": {"d_in": params.d_in, "hidden": params.hidden, "k_out": params.k_out},
        "w1": params.w1.tolist(),
        "b1": params.b1.tolist(),
        "w2": params.w2.tolist(),
        "b2": params.b2.tolist(),
    }


def params_from_dict(d: dict) -> MLPParams:
    shape = d["shape"]
    params = MLPParams(
        w1=np.asarray(d["w1"], dtype=float),
        b1=np.asarray(d["b1"], dtype=float),
        w2=np.asarray(d["w2"], dtype=float),
        b2=np.asarray(d["b2"], dtype=float),
    )
    if (params.d_in, params.hidden, params.k_out) != (shape["d_in"], shape["hidden"], shape["k_out"]):
        raise ValueError("checkpoint arrays do not match their declared shapes")
    params.validate()
    return params
