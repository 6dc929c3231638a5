import copy
import json
import math
import os
import pickle
import re
import tempfile
import warnings
from dataclasses import asdict, replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_evaluation import ground_truth_pairs
from test_nn import bits, numeric_grad_oracle, params_to_dict, rel_error_oracle
from test_taxonomy import random_taxonomy

from hoicompose import blas, nn, parallel, pipeline
from hoicompose.evaluation import make_split, map_report
from hoicompose.seeding import substream
from hoicompose.synth import gen_dataset, gen_world
from hoicompose.taxonomy import compose_label, decouple_verb, one_hot
from hoicompose.pipeline import (
    HOIModel,
    StepSampler,
    TrainConfig,
    TrainingDiverged,
    baseline_config,
    build_matrices,
    compose_batch,
    init_model,
    load_checkpoint,
    make_spatial_pattern,
    predict_dataset,
    save_checkpoint,
    step_grad_check,
    total_loss,
    train,
    write_trace_csv,
)


def tiny_setup(seed=0, n_train=60, n_external=20):
    tax, world = gen_world(n_verbs=4, n_objects=5, c_pairs=12, feat_dim=6, seed=seed)
    train_set, test_set, external = gen_dataset(world, tax, None, n_train, 20, n_external, seed=seed)
    return tax, world, train_set, test_set, external


def composite_items(train_set, external, tax):
    """The tuple compose_batch's verb and object items, one per row of the two sets."""
    verb_items = [(f, decouple_verb(y, tax)) for f, y in zip(train_set.verb_feat, train_set.hoi_label)]
    object_items = [(f, one_hot(tax.n_objects, o))
                    for f, o in zip(external.object_feat, external.object_label)]
    return verb_items, object_items


def _stack_items(items, n_labels):
    """(feature rows, label rows) of (feature, label) items; (0, 1) and (0, n_labels) when empty."""
    if not items:
        return np.zeros((0, 1)), np.zeros((0, n_labels), dtype=np.int8)
    return np.stack([f for f, _ in items]), np.stack([label for _, label in items])


def compose_as_tuples(verb_items, object_items, tax, cap, rng, counters=None):
    """compose_batch on the label rows of tuple items, its kept compositions as the
    (verb_feat ++ object_feat, label) list the tuple oracles return."""
    verb_feats, verb_labels = _stack_items(verb_items, tax.n_verbs)
    object_feats, object_labels = _stack_items(object_items, tax.n_objects)
    kept = compose_batch(verb_labels, object_labels, tax, cap, rng, counters)
    assert kept.verb_rows.dtype == kept.object_rows.dtype == np.intp and kept.labels.dtype == np.int8
    return list(zip(kept.inputs(verb_feats, object_feats), kept.labels))


# --- spatial pattern ---

def spatial_pattern_oracle(b_h, b_o, resolution):
    """One pair's (2, res, res) maps, pixel by pixel row: the per-pair form
    make_spatial_pattern had before it broadcast over pairs."""
    b_h = np.asarray(b_h, dtype=float)
    b_o = np.asarray(b_o, dtype=float)
    for name, b in (("human", b_h), ("object", b_o)):
        if b.shape != (4,) or not (b[2] > b[0] and b[3] > b[1]):
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


@st.composite
def box_pairs(draw):
    """(human boxes (n, 4), object boxes (n, 4), resolution). On each axis of
    each pair the union frame is [a, b]: one box owns each end, and every
    other edge is a frame end, a pixel centre of the frame or a free point.
    So edges fall exactly on pixel centres, boxes share edges, and a box that
    owns both ends nests the other."""
    res = draw(st.integers(1, 16))
    n = draw(st.integers(1, 4))
    human, obj = np.zeros((n, 4)), np.zeros((n, 4))
    for i in range(n):
        for lo, hi in ((0, 2), (1, 3)):
            a = draw(st.floats(0.0, 0.45))
            b = draw(st.floats(0.55, 1.0))
            centres = a + (np.arange(res) + 0.5) / res * (b - a)
            pool = sorted({a, b, *centres.tolist(), draw(st.floats(a, b))})
            human_owns_lo, human_owns_hi = draw(st.booleans()), draw(st.booleans())
            for box, owns_lo, owns_hi in ((human, human_owns_lo, human_owns_hi),
                                          (obj, not human_owns_lo, not human_owns_hi)):
                box[i, lo] = a if owns_lo else draw(st.sampled_from([v for v in pool if v < b]))
                box[i, hi] = b if owns_hi else draw(st.sampled_from([v for v in pool if v > box[i, lo]]))
    return human, obj, res


@settings(max_examples=200, deadline=None)
@given(box_pairs())
def test_spatial_pattern_matches_per_pair_oracle(case):
    human, obj, res = case
    want = np.stack([spatial_pattern_oracle(h, o, res) for h, o in zip(human, obj)])
    np.testing.assert_array_equal(make_spatial_pattern(human, obj, res), want)
    np.testing.assert_array_equal(make_spatial_pattern(human[0], obj[0], res), want[0])


@pytest.mark.parametrize("channel", [0, 1])
@pytest.mark.parametrize("bad", [[0.3, 0.1, 0.3, 0.5], [0.1, 0.4, 0.5, 0.4], [0.5, 0.1, 0.2, 0.5],
                                 [0.1, np.nan, 0.5, 0.5]])
def test_spatial_pattern_rejects_a_bad_pair_in_a_batch(channel, bad):
    boxes = [np.tile([0.1, 0.1, 0.5, 0.5], (3, 1)), np.tile([0.2, 0.3, 0.9, 0.6], (3, 1))]
    boxes[channel][1] = bad
    with pytest.raises(ValueError, match="degenerate"):
        spatial_pattern_oracle(boxes[0][1], boxes[1][1], 8)
    with pytest.raises(ValueError, match="degenerate"):
        make_spatial_pattern(boxes[0], boxes[1], 8)


def test_spatial_pattern_full_frame_all_ones():
    b = np.array([0.2, 0.2, 0.8, 0.8])
    pattern = make_spatial_pattern(b, b, resolution=16)
    assert pattern.shape == (2, 16, 16)
    assert pattern.all()


def test_spatial_pattern_halves_area_counts():
    # Human is the left half of the union frame, object the right half:
    # each channel covers half the pixels exactly.
    b_h = np.array([0.0, 0.0, 0.5, 1.0])
    b_o = np.array([0.5, 0.0, 1.0, 1.0])
    pattern = make_spatial_pattern(b_h, b_o, resolution=64)
    assert pattern[0].sum() == 2048
    assert pattern[1].sum() == 2048
    # disjoint boxes -> channels never overlap
    assert not (pattern[0] & pattern[1]).any()


def test_spatial_pattern_analytic_area_within_boundary_tolerance():
    b_h = np.array([0.1, 0.1, 0.6, 0.7])
    b_o = np.array([0.3, 0.2, 0.9, 0.9])
    res = 64
    pattern = make_spatial_pattern(b_h, b_o, res)
    ux, uy = 0.8, 0.8  # union extents
    for ch, b in ((0, b_h), (1, b_o)):
        frac = ((b[2] - b[0]) / ux) * ((b[3] - b[1]) / uy)
        expect = frac * res * res
        assert abs(int(pattern[ch].sum()) - expect) <= 2 * res


def test_spatial_pattern_rejects_degenerate():
    good = np.array([0.1, 0.1, 0.5, 0.5])
    with pytest.raises(ValueError):
        make_spatial_pattern(np.array([0.5, 0.1, 0.5, 0.5]), good, 16)
    with pytest.raises(ValueError):
        make_spatial_pattern(good, np.array([0.1, 0.6, 0.5, 0.5]), 16)


# --- compose_batch ---

def test_compose_batch_labels_match_oracle():
    tax, world, train_set, _, external = tiny_setup()
    verb_items, object_items = composite_items(train_set[:5], external[:3], tax)
    out = compose_as_tuples(verb_items, object_items, tax, cap=10**9, rng=np.random.default_rng(0))
    # every returned label nonzero and equal to recomputing the composition
    expected = []
    for vf, vl in verb_items:
        for of, ol in object_items:
            y = compose_label(ol, vl, tax)
            if y.any():
                expected.append((np.concatenate([vf, of]), y))
    assert len(out) == len(expected)
    for (x, y), (ex, ey) in zip(out, expected):
        np.testing.assert_array_equal(x, ex)
        np.testing.assert_array_equal(y, ey)
        assert y.any()


def test_compose_batch_cap_binds():
    tax = _complete_tax()
    rng = np.random.default_rng(1)
    verb_labels = np.stack([one_hot(3, v) for v in range(3)])
    object_labels = np.stack([one_hot(2, o) for o in range(2)])
    out = compose_batch(verb_labels, object_labels, tax, cap=2, rng=rng)
    assert len(out) == 2 == len(out.object_rows) == len(out.labels)


def _complete_tax():
    from hoicompose.taxonomy import Taxonomy
    pairs = [(v, o) for v in range(3) for o in range(2)]
    return Taxonomy.build([f"v{i}" for i in range(3)], [f"o{i}" for i in range(2)], pairs)


def test_compose_batch_all_invalid_empty():
    from hoicompose.taxonomy import Taxonomy
    tax = Taxonomy.build(["a", "b"], ["x", "y"], [(0, 0), (1, 1)])
    # (0, 1) is invalid
    out = compose_batch(one_hot(2, 0)[None], one_hot(2, 1)[None], tax, 5, np.random.default_rng(0))
    assert len(out) == 0 and out.labels.shape == (0, 2)


def test_compose_batch_empty_verbs():
    tax = _complete_tax()
    out = compose_batch(np.zeros((0, 3), dtype=np.int8), one_hot(2, 0)[None], tax, 5, np.random.default_rng(0))
    assert len(out) == 0 and out.labels.shape == (0, tax.n_categories)


def _compose_batch_reference(verb_items, object_items, tax, cap, rng):
    """compose_batch as a double loop: one compose_label call per candidate."""
    survivors = []
    for verb_feat, verb_label in verb_items:
        for object_feat, object_label in object_items:
            label = compose_label(object_label, verb_label, tax)
            if label.any():
                survivors.append((np.concatenate([verb_feat, object_feat]), label))
    if len(survivors) > cap:
        keep = np.sort(rng.choice(len(survivors), size=cap, replace=False))
        survivors = [survivors[i] for i in keep]
    return survivors


def compose_batch_tuples(verb_items, object_items, tax, cap, rng, counters=None):
    """compose_batch as it was before it took label rows and returned index arrays:
    (feature, label) items in, a list of (verb_feat ++ object_feat, label) out."""
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
    return [(np.concatenate([verb_items[vi[k]][0], object_items[oj[k]][0]]), block[vi[k], oj[k]]) for k in keep]


def test_compose_batch_draws_only_over_cap():
    tax = _complete_tax()
    verb_items = [(np.zeros(2), one_hot(3, 0))]
    object_items = [(np.ones(2), one_hot(2, o)) for o in range(2)]  # both compositions valid
    for cap in (1, 2, 3):
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        got = compose_as_tuples(verb_items, object_items, tax, cap, rng)
        want = _compose_batch_reference(verb_items, object_items, tax, cap, rng_ref)
        assert len(got) == len(want) == min(cap, 2)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(random_taxonomy(), st.data())
def test_compose_batch_matches_double_loop_reference(tax, data):
    n_verb_items = data.draw(st.integers(0, 6))
    n_object_items = data.draw(st.integers(0, 4))
    multi_hot = st.lists(st.integers(0, 1), min_size=tax.n_verbs, max_size=tax.n_verbs)
    # Features encode the item index, so a reordered output cannot pass.
    verb_items = [(np.full(2, float(i)), np.array(data.draw(multi_hot), dtype=np.int8))
                  for i in range(n_verb_items)]
    object_items = [(np.full(3, -1.0 - j), one_hot(tax.n_objects, data.draw(st.integers(0, tax.n_objects - 1))))
                    for j in range(n_object_items)]
    cap = data.draw(st.sampled_from([0, 1, 2, 10**9]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    counters = [{"composite_candidates": 0, "composite_valid": 0} for _ in range(2)]
    got = compose_as_tuples(verb_items, object_items, tax, cap, rngs[0], counters[0])
    tuples = compose_batch_tuples(verb_items, object_items, tax, cap, rngs[1], counters[1])
    want = _compose_batch_reference(verb_items, object_items, tax, cap, rngs[2])
    assert len(got) == len(tuples) == len(want)
    for (x, y), (tx, ty), (ex, ey) in zip(got, tuples, want):
        assert x.dtype == tx.dtype == ex.dtype and y.dtype == ty.dtype == ey.dtype
        for a, b in ((x, ex), (tx, ex), (y, ey), (ty, ey)):
            np.testing.assert_array_equal(a, b)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state
    valid = len(_compose_batch_reference(verb_items, object_items, tax, 10**9, None))
    for c in counters:
        assert c == {"composite_candidates": n_verb_items * n_object_items, "composite_valid": valid}


# --- losses ---

def test_total_loss_arithmetic():
    cfg = TrainConfig(lambda1=2.0, lambda2=0.5)
    assert total_loss(1.0, 2.0, 0.5, cfg) == pytest.approx(5.25)
    assert total_loss(1.0, 2.0, 0.0, cfg) == pytest.approx(5.0)
    cfg0 = TrainConfig(lambda1=0.0, lambda2=0.0)
    assert total_loss(0.7, 9.0, 9.0, cfg0) == pytest.approx(0.7)


def test_step_losses_total_is_the_training_expression():
    # The training step and step_grad_check total the branch losses of
    # sp_grads and hoi_grads through total_loss, with the association
    # (L_sp + l1*L_hoi) + l2*L_ATL; the trace records that total.
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, lambda1=1.3, lambda2=0.7, seed=6)
    model = init_model(tax, world.feat_dim, cfg)
    sampler = StepSampler(train_set, external, tax, cfg)
    [plan] = sampler.draw(np.random.default_rng(6), 1)
    sp, hoi = model.sp_classifier, model.hoi_classifier
    l_sp, _ = pipeline.sp_grads(sp, sampler, plan, nn.zeros_like(sp))
    l_hoi, l_atl, _ = pipeline.hoi_grads(hoi, sampler, plan, cfg, nn.zeros_like(hoi), nn.zeros_like(hoi))
    losses = {"L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl}
    assert set(losses) == {"L_sp", "L_hoi", "L_ATL"}
    assert losses["L_ATL"] > 0
    want = (losses["L_sp"] + cfg.lambda1 * losses["L_hoi"]) + cfg.lambda2 * losses["L_ATL"]
    assert total_loss(losses["L_sp"], losses["L_hoi"], losses["L_ATL"], cfg) == want

    trace = train(train_set, external, tax, replace(cfg, iterations=30, trace_every=7)).trace
    assert len(trace) == 6
    for row in trace:
        assert row["L_total"] == (row["L_sp"] + cfg.lambda1 * row["L_hoi"]) + cfg.lambda2 * row["L_ATL"]


# --- training ---

def test_train_loss_decreases():
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=600, hidden=16, spatial_resolution=8, trace_every=10, seed=0)
    result = train(train_set, external, tax, cfg)
    totals = [row["L_total"] for row in result.trace]
    head = np.median(totals[: max(1, len(totals) // 10)])
    tail = np.median(totals[-max(1, len(totals) // 10):])
    assert tail < head


def test_train_deterministic():
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=40, hidden=8, spatial_resolution=4, seed=3)
    a = train(train_set, external, tax, cfg)
    b = train(train_set, external, tax, cfg)
    for name, arr in a.model.hoi_classifier.items():
        np.testing.assert_array_equal(arr, getattr(b.model.hoi_classifier, name))
    for name, arr in a.model.sp_classifier.items():
        np.testing.assert_array_equal(arr, getattr(b.model.sp_classifier, name))
    assert a.trace == b.trace


def test_baseline_never_touches_composite_path():
    tax, world, train_set, _, external = tiny_setup()
    cfg = baseline_config(TrainConfig(iterations=30, hidden=8, spatial_resolution=4, seed=1))
    assert cfg.lambda2 == 0.0 and cfg.object_batch == 0
    result = train(train_set, [], tax, cfg)
    assert result.counters["composite_classifier_calls"] == 0
    assert result.counters["composite_examples"] == 0
    assert result.counters["composite_candidates"] == 0
    assert result.counters["composite_valid"] == 0
    assert result.counters["composite_per_category"] == [0] * tax.n_categories


def test_atl_run_uses_composite_path():
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=30, hidden=8, spatial_resolution=4, seed=1)
    result = train(train_set, external, tax, cfg)
    assert result.counters["composite_classifier_calls"] > 0
    assert result.counters["composite_examples"] <= 30 * cfg.object_batch
    c = result.counters
    assert c["composite_candidates"] == cfg.iterations * cfg.hoi_batch * cfg.object_batch
    assert 0 < c["composite_examples"] <= c["composite_valid"] <= c["composite_candidates"]
    assert len(c["composite_per_category"]) == tax.n_categories
    # every kept label sets at least one category bit
    assert sum(c["composite_per_category"]) >= c["composite_examples"]


def test_composite_examples_reach_unseen_categories():
    # On a novel-object split the real branch never sees an unseen category;
    # only composites of training verbs with novel external objects reach them.
    tax, world = gen_world(n_verbs=4, n_objects=5, c_pairs=12, feat_dim=6, seed=0)
    split = make_split(tax, "novel-object", rng=substream(0, "split"))
    train_set, _, external = gen_dataset(world, tax, split, 60, 20, 20, seed=0)
    unseen = sorted(split.unseen_hoi_ids)
    assert not train_set.hoi_label[:, unseen].any()
    cfg = TrainConfig(iterations=30, hidden=8, spatial_resolution=4, seed=1)
    per_category = train(train_set, external, tax, cfg).counters["composite_per_category"]
    assert sum(per_category[c] for c in unseen) > 0


def test_train_zero_iterations_equals_init():
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=0, hidden=8, spatial_resolution=4, seed=2)
    result = train(train_set, external, tax, cfg)
    fresh = init_model(tax, world.feat_dim, cfg)
    for name, arr in result.model.hoi_classifier.items():
        np.testing.assert_array_equal(arr, getattr(fresh.hoi_classifier, name))


def test_train_rejects_empty_train_set():
    tax, world, _, _, external = tiny_setup()
    with pytest.raises(ValueError, match="empty"):
        train([], external, tax, TrainConfig(iterations=1))


def test_train_composite_needs_external():
    tax, world, train_set, _, _ = tiny_setup()
    with pytest.raises(ValueError, match="external"):
        train(train_set, [], tax, TrainConfig(iterations=1))


def test_train_divergence_reports_step():
    # Needs full-width features: at toy widths the overflowed logits are pure
    # +-inf, the sigmoid saturates, and the clamped loss stays finite.
    tax, world = gen_world(seed=0)
    train_set, _, external = gen_dataset(world, tax, None, 40, 5, 10, seed=0)
    cfg = TrainConfig(iterations=10, lr=1e160, seed=0)
    with pytest.raises(TrainingDiverged, match="non-finite") as err:
        with np.errstate(all="ignore"):
            train(train_set, external, tax, cfg)
    with pytest.raises(TrainingDiverged) as want:
        with np.errstate(all="ignore"):
            _train_reference(train_set, external, tax, cfg)
    assert (err.value.step, repr(err.value.loss)) == (want.value.step, repr(want.value.loss))


def test_training_diverged_pickles():
    # an error pickled across a process boundary arrives as itself
    err = pickle.loads(pickle.dumps(TrainingDiverged(7, float("nan"))))
    assert (type(err), err.step, str(err)) == (
        TrainingDiverged, 7, "training loss or gradients became non-finite at step 7 (loss nan)")


def edited_grads(edit, latest: dict):
    """pipeline's (sp_grads, hoi_grads) for train's two loops, where a
    classifier's calls are its steps in order: edit(classifier, step, grad)
    edits each step's gradient before train checks it ("sp" or "hoi"), and
    latest[classifier] becomes the (step, gradient) of its last call."""
    def branch(classifier, real):
        def grads(*args):
            *losses, grad = real(*args)
            step = latest[classifier][0] + 1 if classifier in latest else 0
            edit(classifier, step, grad)
            latest[classifier] = (step, grad)
            return (*losses, grad)
        return grads
    return branch("sp", pipeline.sp_grads), branch("hoi", pipeline.hoi_grads)


def train_with_gradient_edit(monkeypatch, edit, updates, iterations=10):
    """Train tiny_setup for iterations steps (one window), with edited_grads'
    edit; updates gains (classifier, step) per SGD update. Returns the TrainResult."""
    tax, world, train_set, _, external = tiny_setup()
    latest, real_sgd_step = {}, nn.sgd_step

    def sgd_step(params, grads, lr):  # one gradient workspace per classifier
        updates.append(next((c, step) for c, (step, g) in latest.items() if g is grads))
        return real_sgd_step(params, grads, lr)

    for name, grads in zip(("sp_grads", "hoi_grads"), edited_grads(edit, latest)):
        monkeypatch.setattr(pipeline, name, grads)
    monkeypatch.setattr(nn, "sgd_step", sgd_step)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spies count this process's steps
    return train(train_set, external, tax, TrainConfig(iterations=iterations, hidden=8, spatial_resolution=4, seed=3))


def window_updates(sp_steps: int, hoi_steps: int) -> list:
    """The SGD updates of one window: the spatial loop's, then the interaction loop's."""
    return [("sp", k) for k in range(sp_steps)] + [("hoi", k) for k in range(hoi_steps)]


@pytest.mark.parametrize("classifier", ["sp", "hoi"])
def test_train_divergence_on_nonfinite_gradient(monkeypatch, classifier):
    # finite loss, one non-finite gradient entry at step 3: its classifier's loop
    # stops there, and training raises at step 3 before the interaction
    # classifier takes it; the spatial loop may already have run its window
    def edit(c, step, grad):
        if (c, step) == (classifier, 3):
            grad.b2[0] = np.inf

    updates = []
    with pytest.raises(TrainingDiverged, match="non-finite") as err:
        train_with_gradient_edit(monkeypatch, edit, updates)
    assert err.value.step == 3
    assert np.isfinite(err.value.loss)
    assert updates == window_updates(3 if classifier == "sp" else 10, 3)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_train_divergence_on_the_last_gradient_entry(monkeypatch, value):
    # the very last entry the check sees: hoi_classifier's output bias, last category
    def edit(classifier, step, grad):
        if (classifier, step) == ("hoi", 4):
            grad.b2[-1] = value

    updates = []
    with pytest.raises(TrainingDiverged) as err:
        train_with_gradient_edit(monkeypatch, edit, updates)
    assert err.value.step == 4
    assert updates == window_updates(10, 4)


def test_train_overflowing_gradient_sum_is_no_divergence(monkeypatch):
    # finite entries whose sum overflows to inf: the check must not add them up
    def edit(classifier, step, grad):
        if step == 9:
            grad.w1[0, :2] = np.finfo(float).max
            grad.b2[:2] = np.finfo(float).max

    updates = []
    with np.errstate(over="ignore"):  # the update after the check overflows (lr 3)
        result = train_with_gradient_edit(monkeypatch, edit, updates)
    assert updates == window_updates(10, 10)
    assert [row["step"] for row in result.trace] == [0, 9]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", [0, -1])
@pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
@pytest.mark.parametrize("classifier", ["sp", "hoi"])
def test_train_divergence_on_every_gradient_array(monkeypatch, classifier, name, entry, value):
    # the first or last entry of any one gradient array: the flat-buffer check sees
    # every view, and training stops at that step, which neither classifier takes
    def edit(c, step, grad):
        if (c, step) == (classifier, 2):
            getattr(grad, name).reshape(-1)[entry] = value

    updates = []
    with pytest.raises(TrainingDiverged) as err:
        train_with_gradient_edit(monkeypatch, edit, updates)
    assert err.value.step == 2
    assert updates == window_updates(2 if classifier == "sp" else 10, 2)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_train_divergence_on_a_nonfinite_composite_gradient(monkeypatch, value):
    # lambda2 > 0: a non-finite composite gradient reaches the shared classifier's
    # gradient, and the check stops training at that step
    tax, world, train_set, _, external = tiny_setup()
    real_backward, real_sgd_step = nn.mlp_backward, nn.sgd_step
    hoi_calls, updates = [], []

    def classifier(params):
        return "hoi" if params.d_in == 2 * world.feat_dim else "sp"

    def mlp_backward(params, x, target, out=None):
        loss, grads = real_backward(params, x, target, out=out)
        if classifier(params) == "hoi":  # its step: the updates it has taken
            hoi_calls.append(updates.count("hoi"))
            if hoi_calls.count(4) == 2 and hoi_calls[-1] == 4:  # step 4's composite call
                grads.w2[0, -1] = value
        return loss, grads

    def sgd_step(params, grads, lr):
        updates.append(classifier(params))
        return real_sgd_step(params, grads, lr)

    monkeypatch.setattr(nn, "mlp_backward", mlp_backward)
    monkeypatch.setattr(nn, "sgd_step", sgd_step)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spies count this process's steps
    cfg = TrainConfig(iterations=10, hidden=8, spatial_resolution=4, lambda2=0.5, seed=3)
    with pytest.raises(TrainingDiverged) as err:
        train(train_set, external, tax, cfg)
    assert hoi_calls.count(4) == 2  # the step had composites
    assert err.value.step == 4 and updates == ["sp"] * 10 + ["hoi"] * 4


@lru_cache(maxsize=None)
def reference_world(n_train: int, n_external: int):
    tax, world, train_set, _, external = tiny_setup(seed=1, n_train=60, n_external=20)
    return tax, train_set[:n_train], external[:n_external]


def _sgd_step_reference(params, grads, lr):
    return nn.MLPParams(*(p - lr * g for (_, p), (_, g) in zip(params.items(), grads.items())))


def _scale_grads(grads, coef):
    return nn.MLPParams(*(coef * g for _, g in grads.items()))


def _add_grads(a, b):
    return nn.MLPParams(*(x + y for (_, x), (_, y) in zip(a.items(), b.items())))


def _train_reference(train_set, external_objects, tax, cfg):
    """train as it was before its flat workspaces: tuple compose_batch, a new
    MLPParams from every gradient scaling, gradient sum and SGD step, and one
    concatenated divergence check."""
    cfg.validate()
    use_composite = cfg.lambda2 > 0 and cfg.object_batch > 0
    x_sp, x_hoi = build_matrices(train_set, cfg.spatial_resolution)
    y = train_set.hoi_label.astype(float)
    if use_composite:
        verb_rows = decouple_verb(train_set.hoi_label, tax)
        obj_onehots = np.stack([one_hot(tax.n_objects, o) for o in external_objects.object_label])
    model = init_model(tax, train_set.verb_feat.shape[1], cfg)
    rng = substream(cfg.seed, "batching")
    n = len(train_set)
    counters = {"composite_classifier_calls": 0, "composite_examples": 0,
                "composite_candidates": 0, "composite_valid": 0}
    per_category = np.zeros(tax.n_categories, dtype=np.int64)
    trace = []
    for step in range(cfg.iterations):
        idx = rng.choice(n, size=cfg.hoi_batch, replace=n < cfg.hoi_batch)
        composites = []
        if use_composite:
            m = len(external_objects)
            obj_idx = rng.choice(m, size=cfg.object_batch, replace=m < cfg.object_batch)
            verb_items = [(train_set.verb_feat[i], verb_rows[i]) for i in idx]
            object_items = [(external_objects.object_feat[j], obj_onehots[j]) for j in obj_idx]
            composites = compose_batch_tuples(verb_items, object_items, tax, cfg.object_batch, rng, counters)
            if composites:
                labels = np.stack([c[1] for c in composites])
                per_category += labels.sum(axis=0)
                counters["composite_classifier_calls"] += 1
                counters["composite_examples"] += len(composites)
        l_sp, g_sp = nn.mlp_backward(model.sp_classifier, x_sp[idx], y[idx])
        l_hoi, g_hoi = nn.mlp_backward(model.hoi_classifier, x_hoi[idx], y[idx])
        g_hoi = _scale_grads(g_hoi, cfg.lambda1)
        l_atl = 0.0
        if composites:
            l_atl, g_atl = nn.mlp_backward(model.hoi_classifier, np.stack([c[0] for c in composites]),
                                           labels.astype(float))
            g_hoi = _add_grads(g_hoi, _scale_grads(g_atl, cfg.lambda2))
        total = total_loss(l_sp, l_hoi, l_atl, cfg)
        entries = [np.ravel(total)] + [arr.ravel() for g in (g_sp, g_hoi) for _, arr in g.items()]
        if not np.isfinite(np.concatenate(entries)).all():
            raise TrainingDiverged(step, total)
        model.sp_classifier = _sgd_step_reference(model.sp_classifier, g_sp, cfg.lr)
        model.hoi_classifier = _sgd_step_reference(model.hoi_classifier, g_hoi, cfg.lr)
        if step % cfg.trace_every == 0 or step == cfg.iterations - 1:
            trace.append({"step": step, "L_sp": l_sp, "L_hoi": l_hoi, "L_ATL": l_atl, "L_total": total})
    counters["composite_per_category"] = per_category.tolist()
    return pipeline.TrainResult(model=model, trace=trace, counters=counters)


def one_cpu():
    """Training on one usable CPU: both loops in this process, where spies see them."""
    return mock.patch.object(parallel, "usable_cpus", lambda: 1)


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 60]), st.sampled_from([1, 20]), st.fixed_dictionaries({
    "lambda1": st.sampled_from([0.0, 1.3, 2.0]),
    "lambda2": st.sampled_from([0.0, 0.5, 3.0]),
    "lr": st.sampled_from([0.1, 3.0]),
    "iterations": st.sampled_from([0, 1, 2, 9]),
    "hoi_batch": st.sampled_from([1, 8, 70]),  # 8 and 70 draw with replacement from 5 rows, 70 from 60
    "object_batch": st.sampled_from([0, 1, 2, 3]),
    "hidden": st.sampled_from([1, 4]),
    "spatial_resolution": st.sampled_from([2, 4]),
    "trace_every": st.sampled_from([1, 4]),
    "seed": st.integers(0, 3),
}))
def test_train_matches_the_allocating_reference_bit_for_bit(n_train, n_external, overrides):
    tax, train_set, external = reference_world(n_train, n_external)
    cfg = TrainConfig(**overrides)
    real_backward, inputs = nn.mlp_backward, ({"sp": [], "hoi": []}, {"sp": [], "hoi": []})
    hoi_d_in = 2 * train_set.verb_feat.shape[1]  # the spatial classifier's is 2 * res**2 + that half

    def recorder(side):  # each classifier's backward inputs and targets, so batches must match too
        def mlp_backward(params, x, target, out=None):
            side["hoi" if params.d_in == hoi_d_in else "sp"].append((x, target))
            return real_backward(params, x, target, out=out)
        return mlp_backward

    with mock.patch.object(nn, "mlp_backward", recorder(inputs[0])), one_cpu():
        got = train(train_set, external, tax, cfg)
    with mock.patch.object(nn, "mlp_backward", recorder(inputs[1])):
        want = _train_reference(train_set, external, tax, cfg)
    for classifier in ("sp", "hoi"):
        assert len(inputs[0][classifier]) == len(inputs[1][classifier])
        for pair, want_pair in zip(inputs[0][classifier], inputs[1][classifier]):
            for a, b in zip(pair, want_pair):
                assert_same_bits(a, b)
    for name in ("sp_classifier", "hoi_classifier"):
        for (_, a), (_, b) in zip(getattr(got.model, name).items(), getattr(want.model, name).items()):
            assert_same_bits(a, b)
    assert got.trace == want.trace
    assert got.counters == want.counters
    assert [row["step"] for row in got.grad_norms] == [row["step"] for row in got.trace]


def reference_steps(train_set, external, tax, cfg, fault):
    """_train_reference's result, or its TrainingDiverged, and per step its raw
    gradients' flat buffers: spatial, real, then composite when the step had
    one. fault, ("sp" | "hoi", step) or None, makes a NaN of that step's
    spatial or real gradient."""
    hoi_d_in, steps, real_backward = 2 * train_set.verb_feat.shape[1], [], nn.mlp_backward

    def mlp_backward(params, x, target, out=None):
        loss, grads = real_backward(params, x, target, out=out)
        if params.d_in != hoi_d_in:  # each step begins with the spatial classifier
            steps.append([])
        if fault == (("sp", "hoi", None)[len(steps[-1])], len(steps) - 1):
            grads.b2[0] = np.nan
        steps[-1].append(grads.flat)
        return loss, grads

    with mock.patch.object(nn, "mlp_backward", mlp_backward), one_cpu():
        try:
            return _train_reference(train_set, external, tax, cfg), steps
        except TrainingDiverged as err:
            return err, steps


def windowed_train(train_set, external, tax, cfg, window, fault, forked=False):
    """train's result, or its TrainingDiverged, with TRAIN_WINDOW window and
    fault as in reference_steps, made in the gradient sp_grads or hoi_grads
    returns; forked, the spatial loop runs in a child whatever the steps, and
    exactly one child starts."""
    def edit(classifier, step, grad):
        if (classifier, step) == fault:
            grad.b2[0] = np.nan

    sp_grads, hoi_grads = edited_grads(edit, {})
    with mock.patch.object(pipeline, "TRAIN_WINDOW", window), mock.patch.object(pipeline, "sp_grads", sp_grads), \
            mock.patch.object(pipeline, "hoi_grads", hoi_grads), mock.patch.object(pipeline, "FORK_MIN_STEPS", 0), \
            mock.patch.object(parallel, "usable_cpus", lambda: 2 if forked else 1), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        try:
            return train(train_set, external, tax, cfg)
        except TrainingDiverged as err:
            return err
        finally:
            assert fork.call_count == forked


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 9), st.sampled_from([1, 4]), st.booleans(),
       st.sampled_from([None, "sp", "hoi"]), st.sampled_from(["first", "last"]), st.booleans(), st.data())
def test_train_windows_match_the_reference_bit_for_bit(window, iterations, trace_every, composites,
                                                        classifier, edge, forked, data):
    # windows of 1-3 steps cross every edge of 0-9 iterations; a NaN gradient at
    # a window's first or last step must stop training at that step, as stepping
    # one by one does, also with the spatial loop in a forked child
    tax, train_set, external = reference_world(60, 20)
    cfg = TrainConfig(iterations=iterations, trace_every=trace_every, hoi_batch=8, hidden=4,
                      spatial_resolution=2, lambda2=0.5 if composites else 0.0,
                      object_batch=2 if composites else 0, seed=data.draw(st.integers(0, 3)))
    fault = None
    if classifier and iterations:
        first = window * data.draw(st.integers(0, (iterations - 1) // window))
        fault = (classifier, first if edge == "first" else min(first + window, iterations) - 1)
    want, steps = reference_steps(train_set, external, tax, cfg, fault)
    got = windowed_train(train_set, external, tax, cfg, window, fault, forked)
    assert type(got) is type(want)
    if isinstance(want, TrainingDiverged):
        assert (got.step, repr(got.loss)) == (want.step, repr(want.loss)) == (fault[1], repr(want.loss))
        return
    assert fault is None
    for name in ("sp_classifier", "hoi_classifier"):
        assert_same_bits(getattr(got.model, name).flat, getattr(want.model, name).flat)
    assert got.trace == want.trace
    assert got.counters == want.counters
    assert got.grad_norms == [
        {"step": row["step"], "sp": float(np.linalg.norm(steps[row["step"]][0])),
         "hoi": float(np.linalg.norm(cfg.lambda1 * steps[row["step"]][1])),
         "atl": float(np.linalg.norm(cfg.lambda2 * steps[row["step"]][2])) if len(steps[row["step"]]) == 3 else 0.0}
        for row in want.trace]


def test_sampler_object_one_hots_are_the_labels_one_hots():
    tax, _, train_set, _, external = tiny_setup()
    sampler = StepSampler(train_set, external, tax, TrainConfig(hidden=8, spatial_resolution=4))
    want = np.stack([one_hot(tax.n_objects, o) for o in external.object_label])
    assert sampler.object_labels.dtype == want.dtype == np.int8
    assert sampler.object_labels.tobytes() == want.tobytes()


@pytest.mark.parametrize("label", [-1, 5, 99])
def test_sampler_rejects_an_out_of_range_object_label(label):
    # the one-hots are one gather, where a negative label would wrap silently
    tax, _, train_set, _, external = tiny_setup()
    bad = external[np.arange(6)]
    bad.object_label[4] = label
    with pytest.raises(ValueError, match=f"object label {label} out of range for 5 objects"):
        StepSampler(train_set, bad, tax, TrainConfig(hidden=8, spatial_resolution=4))


def test_two_trainings_return_independent_models(monkeypatch):
    # each training owns its model, which no later training and no gradient
    # workspace shares; one workspace per classifier serves every step of a training
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=6, hidden=8, spatial_resolution=4, seed=2)
    workspaces = {"sp_grads": [], "hoi_grads": []}

    def recorder(name, real):
        def grads(*args):
            result = real(*args)
            workspaces[name].append(result[-1])
            return result
        return grads

    for name in workspaces:
        monkeypatch.setattr(pipeline, name, recorder(name, getattr(pipeline, name)))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spies see this process's steps
    a = train(train_set, external, tax, cfg)
    b = train(train_set, external, tax, cfg)
    for grads in workspaces.values():
        assert len(grads) == 12
        assert all(g is grads[0] for g in grads[:6]) and all(g is grads[6] for g in grads[6:])
        assert grads[6] is not grads[0]
    assert workspaces["sp_grads"][0] is not workspaces["hoi_grads"][0]
    flats = [p.flat for r in (a, b) for p in (r.model.sp_classifier, r.model.hoi_classifier)]
    flats += [grads[k].flat for grads in workspaces.values() for k in (0, 6)]
    for i, x in enumerate(flats):
        assert not any(np.shares_memory(x, y) for y in flats[i + 1:])
    want = b.model.hoi_classifier.flat.copy()
    a.model.hoi_classifier.flat[:] = 0.0
    a.model.sp_classifier.flat[:] = 0.0
    assert_same_bits(b.model.hoi_classifier.flat, want)
    assert_same_bits(train(train_set, external, tax, cfg).model.hoi_classifier.flat, want)


def test_grad_norms_are_the_norms_of_the_step_gradients(monkeypatch):
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=12, trace_every=5, hidden=8, spatial_resolution=4, lambda1=1.3, seed=3)
    real = {name: getattr(pipeline, name) for name in ("sp_grads", "hoi_grads")}
    recorded = {name: [] for name in real}

    def recorder(name):  # each traced step's classifier, as it was before the step, and plan
        def grads(params, sampler, plan, *rest):
            if rest[-1] is not None:
                recorded[name].append((copy.deepcopy(params), sampler, plan))
            return real[name](params, sampler, plan, *rest)
        return grads

    for name in real:
        monkeypatch.setattr(pipeline, name, recorder(name))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spies see this process's steps
    result = train(train_set, external, tax, cfg)
    assert [row["step"] for row in result.grad_norms] == [row["step"] for row in result.trace] == [0, 5, 10, 11]
    assert all(set(row) == {"step", "L_sp", "L_hoi", "L_ATL", "L_total"} for row in result.trace)
    for k, row in enumerate(result.grad_norms):
        (sp_params, sampler, plan), (hoi_params, _, hoi_plan) = recorded["sp_grads"][k], recorded["hoi_grads"][k]
        assert set(row) == {"step", "sp", "hoi", "atl"} and hoi_plan is plan and plan.kept is not None
        g_sp = nn.mlp_backward(sp_params, *sampler.sp_rows(plan))[1]
        _, _, g_hoi = real["hoi_grads"](hoi_params, sampler, plan, cfg, nn.zeros_like(hoi_params),
                                        nn.zeros_like(hoi_params))
        x, y, atl_x, atl_y = sampler.hoi_rows(plan)
        real_branch = cfg.lambda1 * nn.mlp_backward(hoi_params, x, y)[1].flat
        composite = cfg.lambda2 * nn.mlp_backward(hoi_params, atl_x, atl_y)[1].flat
        assert_same_bits(g_hoi.flat, real_branch + composite)
        assert row["sp"] == np.linalg.norm(np.concatenate([arr.ravel() for _, arr in g_sp.items()]))
        assert row["hoi"] == np.linalg.norm(real_branch) > 0
        assert row["atl"] == np.linalg.norm(composite) > 0
    base = train(train_set, [], tax, baseline_config(cfg))
    assert [row["atl"] for row in base.grad_norms] == [0.0] * 4


@pytest.mark.parametrize("field", ["human_feat", "verb_feat", "object_feat", "human_box"])
def test_build_matrices_rejects_nonfinite_input(field):
    # the entry check of train and predict_dataset; the forward pass no longer checks
    tax, world, train_set, test_set, external = tiny_setup()
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4))
    bad = test_set[[0, 2]]
    getattr(bad, field)[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        build_matrices(bad, 4)
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        predict_dataset(model, bad, tax)
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        train(bad, external, tax, TrainConfig(iterations=1, hidden=8, spatial_resolution=4))


def test_build_matrices_matches_per_instance_oracle(monkeypatch):
    # one spatial-pattern call per set, equal to the per-instance rows stacked
    _, _, train_set, _, _ = tiny_setup()
    rows = [(np.concatenate([spatial_pattern_oracle(h, o, 4).reshape(-1).astype(float), f]),
             np.concatenate([v, of]))
            for h, o, f, v, of in zip(train_set.human_box, train_set.object_box, train_set.human_feat,
                                      train_set.verb_feat, train_set.object_feat)]
    calls = []
    for name in ("make_spatial_pattern", "decouple_verb"):
        real = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    got = build_matrices(train_set, 4)
    assert calls == ["make_spatial_pattern"]
    for column, want in zip(got, zip(*rows)):
        np.testing.assert_array_equal(column, np.stack(want))


def test_train_rejects_nonfinite_external_feature():
    tax, world, train_set, _, external = tiny_setup()
    bad = external[np.arange(6)]
    bad.object_feat[5, 0] = np.nan
    cfg = TrainConfig(iterations=1, hidden=8, spatial_resolution=4)
    with pytest.raises(ValueError, match="non-finite entries in external object features"):
        train(train_set, bad, tax, cfg)


def test_weight_sharing_real_and_composite_branch():
    # One classifier serves both branches: identical inputs give identical outputs.
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=25, hidden=8, spatial_resolution=4, seed=4)
    model = train(train_set, external, tax, cfg).model
    x = np.concatenate([train_set.verb_feat[0], external.object_feat[0]])
    _, real_branch = nn.mlp_forward(model.hoi_classifier, x)
    _, composite_branch = nn.mlp_forward(model.hoi_classifier, x)
    np.testing.assert_array_equal(real_branch, composite_branch)


# --- end-to-end gradient ---

def test_step_grad_check_miniature():
    tax, world = gen_world(n_verbs=3, n_objects=2, c_pairs=6, feat_dim=4, seed=5)
    train_set, _, external = gen_dataset(world, tax, None, 6, 2, 4, seed=5)
    cfg = TrainConfig(hidden=8, spatial_resolution=4, hoi_batch=4, seed=5)
    model = init_model(tax, world.feat_dim, cfg)
    sampler = StepSampler(train_set, external, tax, cfg)
    [plan] = sampler.draw(np.random.default_rng(5), 1)
    assert plan.kept is not None
    errors = step_grad_check(model, sampler, plan, cfg)
    assert set(errors) == {"sp_classifier.w1", "sp_classifier.b1", "sp_classifier.w2",
                           "sp_classifier.b2", "hoi_classifier.w1", "hoi_classifier.b1",
                           "hoi_classifier.w2", "hoi_classifier.b2"}
    assert max(errors.values()) < 1e-6



@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=1000), st.sampled_from([0.0, 0.5]))
def test_step_grad_check_is_the_per_array_oracle(seed, lambda2):
    # the errors are those of the per-array oracle over the total step loss and
    # the step's analytic gradients, and both classifiers end bit-equal
    with warnings.catch_warnings():  # a gradient check does not depend on separability
        warnings.filterwarnings("ignore", r"min \w+ prototype distance", UserWarning)
        tax, world, train_set, _, external = tiny_setup(seed, n_train=12, n_external=6)
    cfg = TrainConfig(hidden=4, spatial_resolution=3, hoi_batch=4, lambda2=lambda2, seed=seed)
    model = init_model(tax, world.feat_dim, cfg)
    sampler = StepSampler(train_set, external, tax, cfg)
    [plan] = sampler.draw(np.random.default_rng(seed), 1)
    sp, hoi = model.sp_classifier, model.hoi_classifier
    before = bits(sp), bits(hoi)
    got = step_grad_check(model, sampler, plan, cfg)
    assert (bits(sp), bits(hoi)) == before

    (sp_x, y), (hoi_x, _, atl_x, atl_y) = sampler.sp_rows(plan), sampler.hoi_rows(plan)

    def bce(params, x, t):
        return nn.bce_loss(nn.mlp_forward(params, x)[1], t)

    def loss():
        l_atl = 0.0 if atl_x is None else bce(hoi, atl_x, atl_y)
        return total_loss(bce(sp, sp_x, y), bce(hoi, hoi_x, y), l_atl, cfg)

    g_hoi = nn.mlp_backward(hoi, hoi_x, y)[1]
    g_hoi.flat *= cfg.lambda1
    if atl_x is not None:
        g_hoi.flat += cfg.lambda2 * nn.mlp_backward(hoi, atl_x, atl_y)[1].flat
    want = {f"{comp}.{name}": rel_error_oracle(getattr(grads, name), numeric_grad_oracle(loss, arr, 1e-5))
            for comp, params, grads in (("sp_classifier", sp, nn.mlp_backward(sp, sp_x, y)[1]),
                                        ("hoi_classifier", hoi, g_hoi))
            for name, arr in params.items()}
    assert got == want

# --- inference ---

def predict_pair(human_feat, verb_feat, object_feat, b_h, b_o, model, tax):
    """Reference scorer for one pair of ground-truth boxes: p_hoi * p_sp per category."""
    pattern = spatial_pattern_oracle(b_h, b_o, model.spatial_resolution)
    sp_x = np.concatenate([pattern.reshape(-1).astype(float), np.asarray(human_feat, dtype=float)])
    _, p_sp = nn.mlp_forward(model.sp_classifier, sp_x)
    _, p_hoi = nn.mlp_forward(model.hoi_classifier, np.concatenate([verb_feat, object_feat]))
    return p_hoi * p_sp


def test_predict_pair_arithmetic_and_monotonicity():
    tax, world, train_set, _, _ = tiny_setup()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=7)
    model = init_model(tax, world.feat_dim, cfg)
    part = train_set[:3]
    full = predict_dataset(model, part, tax)
    assert full.shape == (3, tax.n_categories)
    assert ((full >= 0) & (full <= 1)).all()
    # the product of the two classifiers' probabilities, bit for bit
    x_sp, x_hoi = build_matrices(part, model.spatial_resolution)
    with blas.one_thread():
        want = nn.mlp_forward(model.sp_classifier, x_sp)[1] * nn.mlp_forward(model.hoi_classifier, x_hoi)[1]
    assert full.tobytes() == want.tobytes()
    # monotone nondecreasing in each classifier's probabilities: raise its output biases
    for branch in ("sp_classifier", "hoi_classifier"):
        raised = copy.deepcopy(model)
        getattr(raised, branch).b2 += 1.0
        assert (predict_dataset(raised, part, tax) >= full).all()


def test_predict_dataset_matches_predict_pair():
    tax, world, train_set, test_set, _ = tiny_setup()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=8)
    model = init_model(tax, world.feat_dim, cfg)
    part = test_set[:3]
    scores = predict_dataset(model, part, tax)
    assert (scores.dtype, scores.shape) == (np.float64, (len(part), tax.n_categories))
    single = predict_pair(test_set.human_feat[1], test_set.verb_feat[1], test_set.object_feat[1],
                          test_set.human_box[1], test_set.object_box[1], model, tax)
    np.testing.assert_allclose(scores[1], single, rtol=0, atol=1e-12)
    empty = predict_dataset(model, test_set[:0], tax)
    assert (empty.dtype, empty.shape) == (np.float64, (0, tax.n_categories))


def test_ground_truth_pairs_expands_multi_hot():
    # one GT pair per set label bit: the tuple oracle and map_report agree
    tax, world, train_set, _, _ = tiny_setup()
    one = train_set[:1]
    one.hoi_label[:] = 0
    one.hoi_label[0, [2, 5]] = 1
    gt = ground_truth_pairs(one)
    assert [g[2] for g in gt] == [2, 5]
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4, seed=1))
    n_gt = map_report(predict_dataset(model, one, tax), one, tax).n_gt_per_category
    assert {c: k for c, k in n_gt.items() if k} == {2: 1, 5: 1}


# --- persistence ---

def test_checkpoint_roundtrip(tmp_path):
    tax, world, train_set, test_set, external = tiny_setup()
    cfg = TrainConfig(iterations=15, hidden=8, spatial_resolution=4, seed=9)
    result = train(train_set, external, tax, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(result.model, path)
    model = load_checkpoint(path)
    # the model only: the training config is the train command's manifest's
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["arrays", "feat_dim", "hoi_classifier", "schema_version", "sp_classifier",
                           "spatial_resolution"]
    assert sorted(doc["arrays"]) == ["hoi_classifier.npy", "sp_classifier.npy"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "hoi_classifier.npy", "sp_classifier.npy"]
    np.testing.assert_array_equal(model.hoi_classifier.w1, result.model.hoi_classifier.w1)
    a = predict_dataset(result.model, test_set[:2], tax)
    b = predict_dataset(model, test_set[:2], tax)
    np.testing.assert_array_equal(a, b)


def checkpoint_to_json_dict(model: HOIModel) -> dict:
    """A model as the object of a schema-2 checkpoint.json, which its writer wrote
    with indent=None: the oracle that rebuilds that text from the .npy buffers."""
    return {"spatial_resolution": model.spatial_resolution, "feat_dim": model.feat_dim,
            "sp_classifier": params_to_dict(model.sp_classifier),
            "hoi_classifier": params_to_dict(model.hoi_classifier)}


# float64 values at the edges of the format: signed zeros, the least subnormal,
# a subnormal with a full mantissa, the least normal and the largest finite
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
edge_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.data())
def test_checkpoint_roundtrip_is_bit_equal(feat_dim, resolution, sp_hidden, hoi_hidden, k_out, data):
    # random shapes, with edge values anywhere in either buffer
    def params(d_in, hidden):
        size = hidden * (d_in + 1 + k_out) + k_out
        flat = np.array(data.draw(st.lists(edge_floats, min_size=size, max_size=size)))
        return nn.MLPParams.from_flat(flat, d_in, hidden, k_out)

    model = HOIModel(params(2 * resolution**2 + feat_dim, sp_hidden), params(2 * feat_dim, hoi_hidden),
                     resolution, feat_dim)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(model, f"{tmp}/checkpoint.json")
        back = load_checkpoint(f"{tmp}/checkpoint.json")
    assert (back.spatial_resolution, back.feat_dim) == (resolution, feat_dim)
    for name in ("sp_classifier", "hoi_classifier"):
        assert bits(getattr(back, name)) == bits(getattr(model, name)), name
        assert [a.shape for _, a in getattr(back, name).items()] == [a.shape for _, a in getattr(model, name).items()]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["sp_classifier", "hoi_classifier"])
def test_load_checkpoint_names_a_non_finite_buffer(tmp_path, name, value):
    tax, world, *_ = tiny_setup()
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4))
    getattr(model, name).b1[-1] = value
    save_checkpoint(model, tmp_path / "checkpoint.json")
    with pytest.raises(ValueError, match=f"^{name}.npy: non-finite values$"):
        load_checkpoint(tmp_path / "checkpoint.json")


@pytest.mark.parametrize("edit,needle", [
    (lambda d: d["sp_classifier"]["shape"].update(hidden=9),
     "sp_classifier.npy: shape (420,), expected (471,)"),
    (lambda d: d["hoi_classifier"]["shape"].update(k_out=0), "hoi_classifier shape "),
    (lambda d: d["arrays"].update({"extra.npy": d["arrays"]["sp_classifier.npy"]}),
     "arrays names ['extra.npy', 'hoi_classifier.npy', 'sp_classifier.npy'], expected "),
    (lambda d: d["arrays"].pop("hoi_classifier.npy"), "arrays names ['sp_classifier.npy'], expected "),
    (lambda d: d.update(feat_dim=7), "hoi classifier input must be two concatenated features"),
])
def test_load_checkpoint_refuses_a_header_its_buffers_do_not_fit(tmp_path, edit, needle):
    tax, world, *_ = tiny_setup()
    save_checkpoint(init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4)),
                    tmp_path / "checkpoint.json")
    doc = json.loads((tmp_path / "checkpoint.json").read_text())
    edit(doc)
    (tmp_path / "checkpoint.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(needle)):
        load_checkpoint(tmp_path / "checkpoint.json")


def test_a_second_checkpoint_in_one_directory_replaces_the_first_ones_arrays(tmp_path):
    # the array files keep fixed names, so a directory holds one checkpoint: the
    # first document is then refused by its digests, never read with the second's weights
    tax, world, *_ = tiny_setup()
    first, second = (init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4, seed=seed))
                     for seed in (0, 1))
    save_checkpoint(first, tmp_path / "a.json")
    save_checkpoint(second, tmp_path / "b.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "hoi_classifier.npy",
                                                          "sp_classifier.npy"]
    with pytest.raises(ValueError, match=r"^sp_classifier\.npy: sha256 [0-9a-f]{64}, its document records "):
        load_checkpoint(tmp_path / "a.json")
    assert load_checkpoint(tmp_path / "b.json").hoi_classifier.flat.tobytes() == second.hoi_classifier.flat.tobytes()


def test_trace_csv(tmp_path):
    trace = [{"step": 0, "L_sp": 1.0, "L_hoi": 2.0, "L_ATL": 0.5, "L_total": 5.25}]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,L_sp,L_hoi,L_ATL,L_total"
    assert lines[1] == "0,1.0,2.0,0.5,5.25"


def test_config_roundtrip_rejects_unknown():
    cfg = TrainConfig()
    back = TrainConfig.from_json_dict(asdict(cfg))
    assert back == cfg
    with pytest.raises(ValueError, match="mystery"):
        TrainConfig.from_json_dict({"mystery": 1})
