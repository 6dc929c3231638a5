"""Two-layer multi-label MLP with manual backpropagation.

sigmoid(W2 @ relu(W1 @ x + b1) + b2) trained with mean-reduced binary cross
entropy and plain SGD. Gradients are closed-form; grad_check verifies them
against central finite differences.

Forward, backward and SGD check shapes only: inputs are checked for finiteness
where they enter, and train checks each step's loss and gradients once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Probabilities are clamped to [EPS, 1-EPS] before logs.
EPS = 1e-7


@dataclass
class MLPParams:
    """The four parameter arrays, as views into one contiguous float buffer, flat
    (w1, b1, w2, b2 in that order), so that a whole-model update, scaling or
    check is one operation. Construction copies the given arrays into it."""

    w1: np.ndarray  # (hidden, d_in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (k_out, hidden)
    b2: np.ndarray  # (k_out,)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(arr, dtype=float) for arr in (self.w1, self.b1, self.w2, self.b2)]
        self.flat = np.concatenate([arr.ravel() for arr in arrays])
        at = 0
        for name, arr in zip(("w1", "b1", "w2", "b2"), arrays):
            setattr(self, name, self.flat[at:at + arr.size].reshape(arr.shape))
            at += arr.size

    def __reduce__(self):  # a copy or an unpickled one rebuilds its views
        return MLPParams, (self.w1, self.b1, self.w2, self.b2)

    @classmethod
    def from_flat(cls, flat: np.ndarray, d_in: int, hidden: int, k_out: int) -> "MLPParams":
        """The MLPParams whose flat buffer is a copy of flat, of those shapes."""
        w1, b1, w2, b2 = np.split(flat, np.cumsum([hidden * d_in, hidden, k_out * hidden]))
        return cls(w1.reshape(hidden, d_in), b1, w2.reshape(k_out, hidden), b2)

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


@dataclass
class GradReport:
    max_rel_error: float
    per_param: dict[str, float]


def init_params(d_in: int, k_out: int, hidden: int, seed: int = 0) -> MLPParams:
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


def sigmoid(z: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """The logistic function without overflow: with e = exp(-|z|), 1 / (1 + e)
    where z >= 0 and e / (1 + e) elsewhere (NaN included). overwrite=True
    writes the result into z, a float array."""
    z = np.asarray(z, dtype=float)
    nonneg = z >= 0
    e = z if overwrite else z.copy()
    np.minimum(e, -e, out=e)  # -|z|, and z itself where z is NaN
    np.exp(e, out=e)
    num = np.where(nonneg, 1.0, e)
    e += 1.0  # the denominator, in place: one temporary at a time
    return np.divide(num, e, out=e)


def zeros_like(params: MLPParams) -> MLPParams:
    """An all-zero MLPParams of params' shapes, with its own flat buffer."""
    return MLPParams(*(np.zeros_like(arr) for _, arr in params.items()))


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
    h = x @ params.w1.T
    h += params.b1
    np.maximum(h, 0.0, out=h)
    logits = h @ params.w2.T
    logits += params.b2
    return logits, sigmoid(logits)


def _clamp(p: np.ndarray) -> np.ndarray:
    """np.clip(p, EPS, 1 - EPS), without its Python wrapper."""
    pc = np.maximum(p, EPS)
    return np.minimum(pc, 1.0 - EPS, out=pc)


def bce_loss(probs, target) -> float:
    """Mean over all entries of -[t*log(p) + (1-t)*log(1-p)], with p clamped to EPS."""
    p = np.asarray(probs, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"probs shape {p.shape} != target shape {t.shape}")
    return _clamped_bce(_clamp(p), t, 1.0 - t)


def _clamped_bce(pc: np.ndarray, t: np.ndarray, one_minus_t: np.ndarray) -> float:
    terms = np.log(pc)
    terms *= t
    log_q = np.negative(pc)
    np.log1p(log_q, out=log_q)
    log_q *= one_minus_t
    terms += log_q
    return float(-(terms.sum() / terms.size))  # -mean, without np.mean's wrapper


def mlp_backward(params: MLPParams, x, target, out: MLPParams | None = None) -> tuple[float, MLPParams]:
    """bce_loss(mlp_forward(x)) and its analytic gradient w.r.t. every parameter.

    The loss comes from the forward pass the gradient runs anyway, so a training
    step needs no separate forward. Batch inputs use mean reduction over
    examples, matching bce_loss on the stacked batch. The gradient is written
    into out, an MLPParams of params' shapes (a new one when None), and returned.
    """
    x = _check_input(params, x)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    t = np.asarray(target, dtype=float)
    tb = t[None, :] if single else t
    if tb.shape != (xb.shape[0], params.k_out):
        raise ValueError(f"target shape {t.shape} does not match ({xb.shape[0]}, {params.k_out})")
    grads = zeros_like(params) if out is None else out

    pre = xb @ params.w1.T
    pre += params.b1
    h = np.maximum(pre, 0.0)
    p = h @ params.w2.T
    p += params.b2
    sigmoid(p, overwrite=True)

    # d(loss)/d(prob) through the clamp: zero where the clamp is active, which
    # is where it moved p (a NaN p gives a NaN delta either way).
    pc = _clamp(p)
    one_minus_t = 1.0 - tb
    loss = _clamped_bce(pc, tb, one_minus_t)
    delta = np.negative(tb)
    delta /= pc
    q = np.subtract(1.0, pc)
    np.divide(one_minus_t, q, out=q)
    delta += q
    delta /= tb.size
    np.copyto(delta, 0.0, where=pc != p)
    delta *= p
    np.subtract(1.0, p, out=q)
    delta *= q  # (n, k_out)

    np.matmul(delta.T, h, out=grads.w2)
    np.add.reduce(delta, axis=0, out=grads.b2)
    dh = delta @ params.w2
    dh[pre <= 0.0] = 0.0
    np.matmul(dh.T, xb, out=grads.w1)
    np.add.reduce(dh, axis=0, out=grads.b1)
    return loss, grads


def sgd_step(params: MLPParams, grads: MLPParams, lr: float = 0.01) -> MLPParams:
    """One gradient-descent update of params, in place: params -= lr * grads. Returns params."""
    params.flat -= lr * grads.flat
    return params


def fd_errors(loss, params: MLPParams, analytic: MLPParams, step: float = 1e-5) -> dict[str, float]:
    """{name: relative error} of each array of analytic, a gradient of loss()
    w.r.t. params, against central finite differences of loss().

    Each entry of params is perturbed in place by +-step and restored exactly,
    so loss must read params (e.g. the parameters of the model it evaluates).
    """
    fd = zeros_like(params)
    for i in range(params.flat.size):
        orig = params.flat[i]
        params.flat[i] = orig + step
        up = loss()
        params.flat[i] = orig - step
        down = loss()
        params.flat[i] = orig
        fd.flat[i] = (up - down) / (2.0 * step)
    return {name: float(np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12))
            for (name, a), (_, b) in zip(analytic.items(), fd.items())}


def grad_check(params: MLPParams, x, target, step: float = 1e-5) -> GradReport:
    """Central finite differences over every parameter entry vs the analytic gradient."""
    _, analytic = mlp_backward(params, x, target)
    per_param = fd_errors(lambda: bce_loss(mlp_forward(params, x)[1], target), params, analytic, step)
    return GradReport(max_rel_error=max(per_param.values()), per_param=per_param)
