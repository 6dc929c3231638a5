import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicompose.nn import (
    EPS,
    GradReport,
    MLPParams,
    add_grads,
    bce_loss,
    grad_check,
    init_params,
    mlp_backward,
    mlp_forward,
    params_from_dict,
    params_to_dict,
    scale_grads,
    sgd_step,
    sigmoid,
)


def test_init_shapes_and_determinism():
    p = init_params(5, 3, hidden=7, seed=11)
    assert p.w1.shape == (7, 5)
    assert p.b1.shape == (7,)
    assert p.w2.shape == (3, 7)
    assert p.b2.shape == (3,)
    assert (p.b1 == 0).all() and (p.b2 == 0).all()
    q = init_params(5, 3, hidden=7, seed=11)
    np.testing.assert_array_equal(p.w1, q.w1)
    r = init_params(5, 3, hidden=7, seed=12)
    assert not np.array_equal(p.w1, r.w1)


def test_init_bounds():
    p = init_params(9, 4, hidden=6, seed=0)
    a1 = np.sqrt(6.0 / (9 + 6))
    a2 = np.sqrt(6.0 / (6 + 4))
    assert np.abs(p.w1).max() <= a1
    assert np.abs(p.w2).max() <= a2


def test_sigmoid_stable_at_extremes():
    z = np.array([-1e4, -50.0, 0.0, 50.0, 1e4])
    s = sigmoid(z)
    assert np.isfinite(s).all()
    assert s[0] == 0.0 or s[0] < 1e-20
    assert s[2] == 0.5
    assert s[4] == 1.0 or s[4] > 1 - 1e-20
    np.testing.assert_allclose(s + sigmoid(-z), 1.0, atol=1e-12)


def test_forward_single_and_batch_agree():
    p = init_params(4, 3, hidden=5, seed=1)
    rng = np.random.default_rng(2)
    xb = rng.normal(size=(6, 4))
    logits_b, probs_b = mlp_forward(p, xb)
    assert logits_b.shape == (6, 3) and probs_b.shape == (6, 3)
    for i in range(6):
        logits_i, probs_i = mlp_forward(p, xb[i])
        np.testing.assert_allclose(logits_i, logits_b[i], atol=1e-12)
        np.testing.assert_allclose(probs_i, probs_b[i], atol=1e-12)


def test_forward_rejects_bad_input():
    p = init_params(4, 3, hidden=5, seed=1)
    with pytest.raises(ValueError):
        mlp_forward(p, np.zeros(5))


def test_bce_known_value():
    # -mean(log(p) on targets 1, log(1-p) on targets 0)
    probs = np.array([0.9, 0.2])
    target = np.array([1.0, 0.0])
    want = -(np.log(0.9) + np.log(0.8)) / 2
    assert bce_loss(probs, target) == pytest.approx(want, rel=1e-12)


def test_bce_clamps_extremes():
    probs = np.array([0.0, 1.0])
    target = np.array([1.0, 0.0])
    want = -np.log(EPS)
    assert bce_loss(probs, target) == pytest.approx(want, rel=1e-6)
    assert np.isfinite(bce_loss(probs, target))


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.zeros(3), np.zeros(4))


def test_backward_matches_finite_differences_single():
    p = init_params(4, 3, hidden=5, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=4)
    t = (rng.random(3) < 0.5).astype(float)
    report = grad_check(p, x, t)
    assert isinstance(report, GradReport)
    assert set(report.per_param) == {"w1", "b1", "w2", "b2"}
    assert report.max_rel_error < 1e-6


def test_backward_matches_finite_differences_batch():
    p = init_params(3, 2, hidden=4, seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 3))
    t = (rng.random((5, 2)) < 0.5).astype(float)
    assert grad_check(p, x, t).max_rel_error < 1e-6


def test_backward_batch_is_mean_of_singles():
    p = init_params(3, 2, hidden=4, seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    t = (rng.random((4, 2)) < 0.5).astype(float)
    _, gb = mlp_backward(p, x, t)
    acc = None
    for i in range(4):
        _, gi = mlp_backward(p, x[i], t[i])
        acc = gi if acc is None else add_grads(acc, gi)
    mean = scale_grads(acc, 1.0 / 4)
    for name, arr in gb.items():
        np.testing.assert_allclose(arr, getattr(mean, name), atol=1e-12)


def test_backward_clamped_region_matches_fd():
    # Saturate the output so the clamp engages, then check FD still agrees.
    p = init_params(2, 2, hidden=3, seed=9)
    p.b2[:] = 40.0  # probs == 1.0 numerically
    x = np.array([0.5, -0.3])
    t = np.array([0.0, 1.0])
    report = grad_check(p, x, t)
    assert report.max_rel_error < 1e-6


def _mlp_backward_reference(params, x, target):
    """The gradient-only backward pass as it was before the loss was fused in."""
    x = np.asarray(x, dtype=float)
    xb = x[None, :] if x.ndim == 1 else x
    t = np.asarray(target, dtype=float)
    tb = t[None, :] if t.ndim == 1 else t
    pre = xb @ params.w1.T + params.b1
    h = np.maximum(pre, 0.0)
    p = sigmoid(h @ params.w2.T + params.b2)
    pc = np.clip(p, EPS, 1.0 - EPS)
    dl_dp = (-tb / pc + (1.0 - tb) / (1.0 - pc)) / tb.size
    dl_dp[(p < EPS) | (p > 1.0 - EPS)] = 0.0
    delta = dl_dp * p * (1.0 - p)
    dh = delta @ params.w2
    dh[pre <= 0.0] = 0.0
    return MLPParams(dh.T @ xb, dh.sum(axis=0), delta.T @ h, delta.sum(axis=0))


def _saturated_case():
    p = init_params(2, 2, hidden=3, seed=9)
    p.b2[:] = 40.0
    return p, np.array([0.5, -0.3]), np.array([0.0, 1.0])


def _random_case(d_in, k_out, hidden, seed, n=None):
    p = init_params(d_in, k_out, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    shape = (d_in,) if n is None else (n, d_in)
    x = rng.normal(size=shape)
    t = (rng.random(shape[:-1] + (k_out,)) < 0.5).astype(float)
    return p, x, t


# The inputs of this file's other mlp_backward and grad_check cases.
BACKWARD_CASES = [
    _random_case(4, 3, 5, 3),
    _random_case(3, 2, 4, 5, n=5),
    _random_case(3, 2, 4, 7, n=4),
    _saturated_case(),
    (init_params(3, 2, hidden=4, seed=10), np.ones(3), np.array([1.0, 0.0])),
    _random_case(3, 2, 8, 11, n=16),
    (init_params(2, 2, hidden=2, seed=13), np.ones(2), np.ones(2)),
]


@pytest.mark.parametrize("case", range(len(BACKWARD_CASES)))
def test_backward_loss_is_forward_bce_bitwise(case):
    p, x, t = BACKWARD_CASES[case]
    loss, _ = mlp_backward(p, x, t)
    assert isinstance(loss, float)
    assert loss == bce_loss(mlp_forward(p, x)[1], t)


@pytest.mark.parametrize("case", range(len(BACKWARD_CASES)))
def test_backward_grads_match_gradient_only_reference(case):
    p, x, t = BACKWARD_CASES[case]
    _, grads = mlp_backward(p, x, t)
    want = _mlp_backward_reference(p, x, t)
    for name, arr in grads.items():
        np.testing.assert_array_equal(arr, getattr(want, name))


def test_sgd_step_functional():
    p = init_params(3, 2, hidden=4, seed=10)
    x = np.ones(3)
    t = np.array([1.0, 0.0])
    _, g = mlp_backward(p, x, t)
    before = p.w1.copy()
    q = sgd_step(p, g, lr=0.1)
    np.testing.assert_array_equal(p.w1, before)
    np.testing.assert_allclose(q.w1, p.w1 - 0.1 * g.w1)


def test_sgd_step_reduces_loss():
    p = init_params(3, 2, hidden=8, seed=11)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(16, 3))
    t = (rng.random((16, 2)) < 0.5).astype(float)
    loss0 = bce_loss(mlp_forward(p, x)[1], t)
    for _ in range(50):
        p = sgd_step(p, mlp_backward(p, x, t)[1], lr=0.5)
    loss1 = bce_loss(mlp_forward(p, x)[1], t)
    assert loss1 < loss0


def test_params_dict_roundtrip():
    p = init_params(3, 2, hidden=4, seed=14)
    d = params_to_dict(p)
    q = params_from_dict(d)
    for name, arr in p.items():
        np.testing.assert_array_equal(arr, getattr(q, name))


def test_params_from_dict_rejects_shape_mismatch():
    p = init_params(3, 2, hidden=4, seed=15)
    d = params_to_dict(p)
    d["shape"]["hidden"] = 9
    with pytest.raises(ValueError):
        params_from_dict(d)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
def test_grad_check_property(d_in, hidden, k_out, seed):
    p = init_params(d_in, k_out, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=d_in)
    t = (rng.random(k_out) < 0.5).astype(float)
    assert grad_check(p, x, t).max_rel_error < 1e-5
