import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicompose.nn import (
    EPS,
    GradReport,
    MLPParams,
    bce_loss,
    fd_errors,
    grad_check,
    init_params,
    mlp_backward,
    mlp_forward,
    params_from_dict,
    params_to_dict,
    sgd_step,
    sigmoid,
    zeros_like,
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


def sigmoid_reference(z):
    """The masked logistic function sigmoid replaced: 1 / (1 + exp(-z)) on z >= 0,
    exp(z) / (1 + exp(z)) on the rest."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SPECIAL_LOGITS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                  745.2, -745.2, 746.0, -746.0, 1e300, -1e300, 36.7, -36.7, 1.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL_LOGITS) | st.floats(allow_nan=True, allow_infinity=True)
                | st.floats(-800, 800), min_size=0, max_size=40),
       st.sampled_from([(-1,), (-1, 1), (1, -1), (-1, 2)]))
def test_sigmoid_is_the_masked_one_bit_for_bit(values, shape):
    if shape[-1] == 2 and len(values) % 2:
        values = values[:-1]
    z = np.array(values, dtype=float).reshape(shape)
    want = sigmoid_reference(z).view(np.uint64)
    before = z.copy()
    np.testing.assert_array_equal(sigmoid(z).view(np.uint64), want)
    np.testing.assert_array_equal(z.view(np.uint64), before.view(np.uint64))  # z untouched
    out = sigmoid(z, overwrite=True)
    assert out is z
    np.testing.assert_array_equal(z.view(np.uint64), want)


def sigmoid_where_oracle(z, overwrite=False):
    """The where= logistic function sigmoid replaced: -|z| by a masked negate, and
    the numerator 1 copied in under the same mask."""
    z = np.asarray(z, dtype=float)
    nonneg = z >= 0
    e = z if overwrite else z.copy()
    np.negative(e, out=e, where=nonneg)
    np.exp(e, out=e)
    den = e + 1.0
    np.copyto(e, 1.0, where=nonneg)
    return np.divide(e, den, out=e)


# quiet and signalling NaNs of both signs with payloads, as raw bits
NAN_PAYLOADS = np.array([0x7FF8000000000123, 0xFFF8000000000456, 0x7FF0000000000001, 0xFFF0000000000007],
                        dtype=np.uint64).view(float).tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL_LOGITS + NAN_PAYLOADS) | st.floats(allow_nan=True, allow_infinity=True)
                | st.floats(-800, 800), min_size=0, max_size=40),
       st.sampled_from([(-1,), (-1, 1), (1, -1), (-1, 2)]))
def test_sigmoid_is_the_where_one_bit_for_bit(values, shape):
    # NaN sign and payload, +-0, +-inf and |z| > 745 included
    if shape[-1] == 2 and len(values) % 2:
        values = values[:-1]
    z = np.array(values, dtype=float).reshape(shape)
    want = sigmoid_where_oracle(z).view(np.uint64)
    np.testing.assert_array_equal(sigmoid(z).view(np.uint64), want)
    out = sigmoid(z, overwrite=True)
    assert out is z
    np.testing.assert_array_equal(z.view(np.uint64), want)


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
    singles = [mlp_backward(p, x[i], t[i])[1] for i in range(4)]
    for name, arr in gb.items():
        mean = sum(getattr(g, name) for g in singles) / 4
        np.testing.assert_allclose(arr, mean, atol=1e-12)


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
    p = sigmoid_reference(h @ params.w2.T + params.b2)
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


def _clamp_band_case():
    """Outputs 0 and 1 inside the clamp band but not at 0 or 1: p = 1 - 4.1e-8 and
    4.1e-8, where p * (1 - p) is not 0, so only the clamp's zero keeps them out."""
    p = init_params(3, 3, hidden=4, seed=15)
    p.w2[:] *= 1e-9
    p.b2[:] = [17.0, -17.0, 0.5]
    x = np.array([[0.3, -1.2, 0.8], [1.5, 0.2, -0.4]])
    return p, x, np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])


def test_backward_gradient_is_zero_in_the_clamp_band():
    p, x, t = _clamp_band_case()
    probs = mlp_forward(p, x)[1]
    assert (probs[:, 0] > 1 - EPS).all() and (probs[:, 0] < 1).all()
    assert (probs[:, 1] < EPS).all() and (probs[:, 1] > 0).all()
    _, grads = mlp_backward(p, x, t)
    assert (grads.b2[:2] == 0).all() and (grads.w2[:2] == 0).all() and grads.b2[2] != 0


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
    _clamp_band_case(),
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


@pytest.mark.parametrize("case", range(len(BACKWARD_CASES)))
def test_backward_writes_into_out(case):
    # a stale workspace, NaN-filled, ends up holding exactly the allocating result
    p, x, t = BACKWARD_CASES[case]
    loss, want = mlp_backward(p, x, t)
    out = zeros_like(p)
    out.flat[:] = np.nan
    got_loss, got = mlp_backward(p, x, t, out=out)
    assert got is out and got_loss == loss
    np.testing.assert_array_equal(out.flat, want.flat)


def bce_reference(p, t):
    """bce_loss as np.clip and np.mean wrote it."""
    pc = np.clip(p, EPS, 1.0 - EPS)
    return float(-np.mean(t * np.log(pc) + (1.0 - t) * np.log1p(-pc)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, EPS, 1 - EPS, 5e-324, 1 - 2**-53, 0.5])
                          | st.floats(0, 1), st.sampled_from([0.0, 1.0]) | st.floats(0, 1)),
                min_size=1, max_size=30))
def test_bce_loss_is_the_clip_and_mean_formula_bit_for_bit(pairs):
    p, t = (np.array(col) for col in zip(*pairs))
    assert bce_loss(p, t) == bce_reference(p, t)


def test_sgd_step_in_place():
    p = init_params(3, 2, hidden=4, seed=10)
    x = np.ones(3)
    t = np.array([1.0, 0.0])
    _, g = mlp_backward(p, x, t)
    before, g_before = p.w1.copy(), g.flat.copy()
    w1 = p.w1
    q = sgd_step(p, g, lr=0.1)
    assert q is p and p.w1 is w1
    np.testing.assert_array_equal(p.w1, before - 0.1 * g.w1)
    np.testing.assert_array_equal(g.flat, g_before)


def test_params_are_views_of_one_flat_buffer():
    p = init_params(3, 2, hidden=4, seed=10)
    parts = [arr.ravel() for _, arr in p.items()]
    np.testing.assert_array_equal(p.flat, np.concatenate(parts))
    for _, arr in p.items():
        assert np.shares_memory(arr, p.flat)
    p.flat[-1] = 7.0
    assert p.b2[-1] == 7.0
    source = np.ones((4, 3))
    q = MLPParams(source, p.b1, p.w2, p.b2)  # construction copies
    q.w1[0, 0] = 5.0
    assert source[0, 0] == 1.0


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
def test_params_copy_rebuilds_its_views(clone):
    p = init_params(3, 2, hidden=4, seed=10)
    q = clone(p)
    assert not np.shares_memory(q.flat, p.flat)
    np.testing.assert_array_equal(q.flat, p.flat)
    q.flat[0] = 9.0
    assert q.w1[0, 0] == 9.0 and p.w1[0, 0] != 9.0


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



@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
def test_params_from_dict_names_a_non_finite_array(name, value):
    d = params_to_dict(init_params(3, 2, hidden=4, seed=16))
    (d[name][-1] if name.startswith("w") else d[name])[-1] = value  # json reads 1e999 as inf
    with pytest.raises(ValueError, match=f"^non-finite entries in {name}$"):
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


def numeric_grad_oracle(loss, arr: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of loss() w.r.t. every entry of arr, one array
    at a time: with rel_error_oracle, the per-array routine fd_errors replaced."""
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


def rel_error_oracle(a: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(a - b)
    den = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return float(num / den)


def fd_errors_oracle(loss, params: MLPParams, analytic: MLPParams, step: float) -> dict:
    return {name: rel_error_oracle(getattr(analytic, name), numeric_grad_oracle(loss, arr, step))
            for name, arr in params.items()}


def bits(params: MLPParams) -> bytes:
    return params.flat.view(np.uint64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([None, 1, 5]),
    st.sampled_from([1e-6, 1e-5, 1e-3]),
    st.booleans(),
)
def test_fd_errors_is_the_per_array_oracle(d_in, hidden, k_out, seed, n, step, exact):
    # the errors are the oracle's bit for bit, for a right and a wrong gradient,
    # and every parameter entry ends bit-equal to where it started
    p, x, t = _random_case(d_in, k_out, hidden, seed, n)
    _, analytic = mlp_backward(p, x, t)
    if not exact:
        analytic.flat += np.random.default_rng(seed).normal(size=analytic.flat.size)
    before = bits(p)

    def loss():
        return bce_loss(mlp_forward(p, x)[1], t)

    got = fd_errors(loss, p, analytic, step)
    assert bits(p) == before
    want = fd_errors_oracle(loss, p, analytic, step)
    assert list(got) == ["w1", "b1", "w2", "b2"] and got == want
    report = grad_check(p, x, t, step)
    assert bits(p) == before
    if exact:
        assert report.per_param == want and report.max_rel_error == max(want.values())
