from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_taxonomy import random_taxonomy

from hoicompose import nn, pipeline
from hoicompose.evaluation import make_split
from hoicompose.seeding import substream
from hoicompose.synth import gen_dataset, gen_world
from hoicompose.taxonomy import compose_label, decouple_verb, one_hot
from hoicompose.pipeline import (
    HOIModel,
    StepBatch,
    TrainConfig,
    TrainingDiverged,
    baseline_config,
    build_matrices,
    compose_batch,
    ground_truth_pairs,
    hoi_input,
    init_model,
    load_checkpoint,
    make_spatial_pattern,
    predict_dataset,
    save_checkpoint,
    step_grad_check,
    step_grads,
    total_loss,
    train,
    write_trace_csv,
)


def tiny_setup(seed=0, n_train=60, n_external=20):
    tax, world = gen_world(n_verbs=4, n_objects=5, c_pairs=12, feat_dim=6, seed=seed)
    train_set, test_set, external = gen_dataset(world, tax, None, n_train, 20, n_external, seed=seed)
    return tax, world, train_set, test_set, external


# --- spatial pattern ---

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
    verb_items = [(inst.verb_feat, decouple_verb(inst.hoi_label, tax)) for inst in train_set[:5]]
    object_items = [(o.object_feat, one_hot(tax.n_objects, o.object_label)) for o in external[:3]]
    out = compose_batch(verb_items, object_items, tax, cap=10**9, rng=np.random.default_rng(0))
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
    verb_items = [(np.zeros(2), one_hot(3, v)) for v in range(3)]
    object_items = [(np.ones(2), one_hot(2, o)) for o in range(2)]
    out = compose_batch(verb_items, object_items, tax, cap=2, rng=rng)
    assert len(out) == 2


def _complete_tax():
    from hoicompose.taxonomy import Taxonomy
    pairs = [(v, o) for v in range(3) for o in range(2)]
    return Taxonomy.build([f"v{i}" for i in range(3)], [f"o{i}" for i in range(2)], pairs)


def test_compose_batch_all_invalid_empty():
    from hoicompose.taxonomy import Taxonomy
    tax = Taxonomy.build(["a", "b"], ["x", "y"], [(0, 0), (1, 1)])
    verb_items = [(np.zeros(2), one_hot(2, 0))]
    object_items = [(np.ones(2), one_hot(2, 1))]  # (0, 1) is invalid
    assert compose_batch(verb_items, object_items, tax, 5, np.random.default_rng(0)) == []


def test_compose_batch_empty_verbs():
    tax = _complete_tax()
    assert compose_batch([], [(np.ones(2), one_hot(2, 0))], tax, 5, np.random.default_rng(0)) == []


def _compose_batch_reference(verb_items, object_items, tax, cap, rng):
    """compose_batch as a double loop: one compose_label call per candidate."""
    survivors = []
    for verb_feat, verb_label in verb_items:
        for object_feat, object_label in object_items:
            label = compose_label(object_label, verb_label, tax)
            if label.any():
                survivors.append((hoi_input(verb_feat, object_feat), label))
    if len(survivors) > cap:
        keep = np.sort(rng.choice(len(survivors), size=cap, replace=False))
        survivors = [survivors[i] for i in keep]
    return survivors


def test_compose_batch_draws_only_over_cap():
    tax = _complete_tax()
    verb_items = [(np.zeros(2), one_hot(3, 0))]
    object_items = [(np.ones(2), one_hot(2, o)) for o in range(2)]  # both compositions valid
    for cap in (1, 2, 3):
        rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        got = compose_batch(verb_items, object_items, tax, cap, rng)
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
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    counters = {"composite_candidates": 0, "composite_valid": 0}
    got = compose_batch(verb_items, object_items, tax, cap, rng, counters)
    want = _compose_batch_reference(verb_items, object_items, tax, cap, rng_ref)
    assert len(got) == len(want)
    for (x, y), (ex, ey) in zip(got, want):
        assert x.dtype == ex.dtype and y.dtype == ey.dtype
        np.testing.assert_array_equal(x, ex)
        np.testing.assert_array_equal(y, ey)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert counters["composite_candidates"] == n_verb_items * n_object_items
    valid = len(_compose_batch_reference(verb_items, object_items, tax, 10**9, None))
    assert counters["composite_valid"] == valid


# --- losses ---

def test_total_loss_arithmetic():
    cfg = TrainConfig(lambda1=2.0, lambda2=0.5)
    assert total_loss(1.0, 2.0, 0.5, cfg) == pytest.approx(5.25)
    assert total_loss(1.0, 2.0, 0.0, cfg) == pytest.approx(5.0)
    cfg0 = TrainConfig(lambda1=0.0, lambda2=0.0)
    assert total_loss(0.7, 9.0, 9.0, cfg0) == pytest.approx(0.7)


def test_step_losses_total_is_the_training_expression():
    # The training step and step_grad_check total the fused branch losses of
    # step_grads through total_loss, with the association
    # (L_sp + l1*L_hoi) + l2*L_ATL; the trace records that total.
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, lambda1=1.3, lambda2=0.7, seed=6)
    model = init_model(tax, world.feat_dim, cfg)
    x_sp, x_hoi, y, _ = build_matrices(train_set[:8], tax, cfg.spatial_resolution)
    verb_items = [(inst.verb_feat, decouple_verb(inst.hoi_label, tax)) for inst in train_set[:8]]
    object_items = [(o.object_feat, one_hot(tax.n_objects, o.object_label)) for o in external[:3]]
    comps = compose_batch(verb_items, object_items, tax, 2, np.random.default_rng(6))
    batch = StepBatch(
        sp_x=x_sp, sp_y=y, hoi_x=x_hoi, hoi_y=y,
        atl_x=np.stack([c[0] for c in comps]), atl_y=np.stack([c[1] for c in comps]).astype(float),
    )
    losses, _ = step_grads(model, batch, cfg)
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
    assert not any(inst.hoi_label[unseen].any() for inst in train_set)
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
    assert err.value.step >= 0


@pytest.mark.parametrize("classifier", ["sp", "hoi"])
def test_train_divergence_on_nonfinite_gradient(monkeypatch, classifier):
    # finite loss, one non-finite gradient entry at step 3: the step's one
    # check stops training there, before either classifier is updated
    tax, world, train_set, _, external = tiny_setup()
    real_step_grads, real_sgd_step = pipeline.step_grads, nn.sgd_step
    steps, updates = [], []

    def step_grads(model, batch, cfg):
        losses, grads = real_step_grads(model, batch, cfg)
        if len(steps) == 3:
            grads[0 if classifier == "sp" else 1].b2[0] = np.inf
        steps.append(losses)
        return losses, grads

    def sgd_step(params, grads, lr):
        updates.append(len(steps) - 1)
        return real_sgd_step(params, grads, lr)

    monkeypatch.setattr(pipeline, "step_grads", step_grads)
    monkeypatch.setattr(nn, "sgd_step", sgd_step)
    cfg = TrainConfig(iterations=10, hidden=8, spatial_resolution=4, seed=3)
    with pytest.raises(TrainingDiverged, match="non-finite") as err:
        train(train_set, external, tax, cfg)
    assert err.value.step == 3
    assert np.isfinite(total_loss(steps[3]["L_sp"], steps[3]["L_hoi"], steps[3]["L_ATL"], cfg))
    assert updates == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("field", ["human_feat", "verb_feat", "object_feat", "human_box"])
def test_build_matrices_rejects_nonfinite_input(field):
    # the entry check of train and predict_dataset; the forward pass no longer checks
    tax, world, train_set, test_set, external = tiny_setup()
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4))
    bad = replace(test_set[2], **{field: getattr(test_set[2], field).copy()})
    getattr(bad, field)[1] = np.nan
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        build_matrices([test_set[0], bad], tax, 4)
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        predict_dataset(model, [test_set[0], bad], tax)
    with pytest.raises(ValueError, match="non-finite|degenerate"):
        train([train_set[0], bad], external, tax, TrainConfig(iterations=1, hidden=8, spatial_resolution=4))


def test_train_rejects_nonfinite_external_feature():
    tax, world, train_set, _, external = tiny_setup()
    bad = replace(external[5], object_feat=external[5].object_feat.copy())
    bad.object_feat[0] = np.nan
    cfg = TrainConfig(iterations=1, hidden=8, spatial_resolution=4)
    with pytest.raises(ValueError, match="non-finite entries in external object features"):
        train(train_set, external[:5] + [bad], tax, cfg)


def test_weight_sharing_real_and_composite_branch():
    # One classifier serves both branches: identical inputs give identical outputs.
    tax, world, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=25, hidden=8, spatial_resolution=4, seed=4)
    model = train(train_set, external, tax, cfg).model
    x = np.concatenate([train_set[0].verb_feat, external[0].object_feat])
    _, real_branch = nn.mlp_forward(model.hoi_classifier, x)
    _, composite_branch = nn.mlp_forward(model.hoi_classifier, x)
    np.testing.assert_array_equal(real_branch, composite_branch)


# --- end-to-end gradient ---

def test_step_grad_check_miniature():
    tax, world = gen_world(n_verbs=3, n_objects=2, c_pairs=6, feat_dim=4, seed=5)
    train_set, _, external = gen_dataset(world, tax, None, 6, 2, 4, seed=5)
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=5)
    model = init_model(tax, world.feat_dim, cfg)
    x_sp, x_hoi, y, _ = build_matrices(train_set[:4], tax, cfg.spatial_resolution)
    verb_items = [(inst.verb_feat, decouple_verb(inst.hoi_label, tax)) for inst in train_set[:4]]
    object_items = [(o.object_feat, one_hot(tax.n_objects, o.object_label)) for o in external[:2]]
    comps = compose_batch(verb_items, object_items, tax, 2, np.random.default_rng(5))
    batch = StepBatch(
        sp_x=x_sp, sp_y=y, hoi_x=x_hoi, hoi_y=y,
        atl_x=np.stack([c[0] for c in comps]) if comps else None,
        atl_y=np.stack([c[1] for c in comps]).astype(float) if comps else None,
    )
    errors = step_grad_check(model, batch, cfg)
    assert set(errors) == {"sp_classifier.w1", "sp_classifier.b1", "sp_classifier.w2",
                           "sp_classifier.b2", "hoi_classifier.w1", "hoi_classifier.b1",
                           "hoi_classifier.w2", "hoi_classifier.b2"}
    assert max(errors.values()) < 1e-6


# --- inference ---

def predict_pair(human_feat, verb_feat, object_feat, b_h, b_o, s_h, s_o, model, tax):
    """Reference scorer for one pair: s_h * s_o * p_hoi * p_sp per category."""
    pattern = make_spatial_pattern(b_h, b_o, model.spatial_resolution)
    sp_x = np.concatenate([pattern.reshape(-1).astype(float), np.asarray(human_feat, dtype=float)])
    _, p_sp = nn.mlp_forward(model.sp_classifier, sp_x)
    _, p_hoi = nn.mlp_forward(model.hoi_classifier, hoi_input(verb_feat, object_feat))
    return s_h * s_o * p_hoi * p_sp


def test_predict_pair_arithmetic_and_monotonicity():
    tax, world, train_set, _, _ = tiny_setup()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=7)
    model = init_model(tax, world.feat_dim, cfg)

    def scores(s_h, s_o):
        return np.array([p[3] for p in predict_dataset(model, train_set[:3], tax, s_h=s_h, s_o=s_o)])

    full = scores(1.0, 1.0)
    assert full.shape == (3 * tax.n_categories,)
    assert ((full >= 0) & (full <= 1)).all()
    np.testing.assert_array_equal(scores(0.0, 1.0), np.zeros_like(full))
    np.testing.assert_allclose(scores(0.5, 0.5), 0.25 * full, atol=1e-12)
    # monotone nondecreasing in each confidence
    assert (scores(0.6, 0.8) >= scores(0.3, 0.8)).all()
    assert (scores(0.8, 0.6) >= scores(0.8, 0.3)).all()


def test_predict_dataset_matches_predict_pair():
    tax, world, train_set, test_set, _ = tiny_setup()
    cfg = TrainConfig(hidden=8, spatial_resolution=4, seed=8)
    model = init_model(tax, world.feat_dim, cfg)
    preds = predict_dataset(model, test_set[:3], tax)
    assert len(preds) == 3 * tax.n_categories
    inst = test_set[1]
    single = predict_pair(inst.human_feat, inst.verb_feat, inst.object_feat,
                          inst.human_box, inst.object_box, 1.0, 1.0, model, tax)
    rows = [p for p in preds if p[0] is inst.human_box]
    for b_h, b_o, c, score in rows:
        assert score == pytest.approx(single[c], abs=1e-12)
    for s_h, s_o in ((-1.0, 1.0), (1.0, 5.0)):
        with pytest.raises(ValueError, match="confidences"):
            predict_dataset(model, test_set[:3], tax, s_h=s_h, s_o=s_o)


def test_ground_truth_pairs_expands_multi_hot():
    tax, world, train_set, _, _ = tiny_setup()
    inst = train_set[0]
    inst.hoi_label[:] = 0
    inst.hoi_label[[2, 5]] = 1
    gt = ground_truth_pairs([inst])
    assert [g[2] for g in gt] == [2, 5]


# --- persistence ---

def test_checkpoint_roundtrip(tmp_path):
    tax, world, train_set, test_set, external = tiny_setup()
    cfg = TrainConfig(iterations=15, hidden=8, spatial_resolution=4, seed=9)
    result = train(train_set, external, tax, cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(result.model, cfg, path)
    model, cfg_back = load_checkpoint(path)
    assert cfg_back == cfg
    np.testing.assert_array_equal(model.hoi_classifier.w1, result.model.hoi_classifier.w1)
    a = predict_dataset(result.model, test_set[:2], tax)
    b = predict_dataset(model, test_set[:2], tax)
    for x, y in zip(a, b):
        assert x[3] == y[3]


def test_trace_csv(tmp_path):
    trace = [{"step": 0, "L_sp": 1.0, "L_hoi": 2.0, "L_ATL": 0.5, "L_total": 5.25}]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,L_sp,L_hoi,L_ATL,L_total"
    assert lines[1] == "0,1.0,2.0,0.5,5.25"


def test_config_roundtrip_rejects_unknown():
    cfg = TrainConfig()
    back = TrainConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    with pytest.raises(ValueError, match="mystery"):
        TrainConfig.from_json_dict({"mystery": 1})
