"""The traced benchmark run's per-layer counts come from the count functions of
perfbench/layers.py applied to each wrapped call's (args, kwargs, result). A
signature change in the package would silently zero those metrics, so these
tests apply the count functions to real calls and check their values."""
import importlib
from pathlib import Path

import numpy as np
from test_pipeline import tiny_setup

from hoicompose import nn, pipeline
from hoicompose.pipeline import TrainConfig, init_model, predict_dataset, train
from hoicompose.taxonomy import decouple_verb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def count_function(monkeypatch, module: str, function: str):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    return next(count for m, f, count in layers.TARGETS if (m, f) == (module, function))


def record_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name to record each call's (args, kwargs, result)."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_compose_batch_counts_are_the_calls_candidates_and_kept_rows(monkeypatch):
    count = count_function(monkeypatch, "pipeline", "compose_batch")
    calls = record_calls(monkeypatch, pipeline, "compose_batch")
    tax, _, train_set, _, external = tiny_setup()
    cfg = TrainConfig(iterations=40, hoi_batch=6, object_batch=3, hidden=8, spatial_resolution=4, seed=5)
    counters = train(train_set, external, tax, cfg).counters
    assert len(calls) == cfg.iterations
    counts = [count(*call) for call in calls]
    for (args, kwargs, result), c in zip(calls, counts):
        assert c == {"candidates": cfg.hoi_batch * cfg.object_batch, "kept": len(result.verb_rows)}
    assert sum(c["candidates"] for c in counts) == counters["composite_candidates"]
    assert sum(c["kept"] for c in counts) == counters["composite_examples"] > 0

    # direct calls, empty sides included: the call's own counters
    rng = np.random.default_rng(0)
    verb_labels = decouple_verb(train_set.hoi_label[:7], tax)
    object_labels = np.eye(tax.n_objects, dtype=np.int8)[external.object_label[:4]]
    for b, k, cap in [(7, 4, 100), (7, 4, 1), (0, 4, 2), (7, 0, 2)]:
        call_counters = {"composite_candidates": 0, "composite_valid": 0}
        args = (verb_labels[:b], object_labels[:k], tax, cap, rng, call_counters)
        result = pipeline.compose_batch(*args)
        assert count(args, {}, result) == {"candidates": call_counters["composite_candidates"],
                                           "kept": len(result.labels)}


def test_mlp_forward_rows_are_the_input_rows(monkeypatch):
    count = count_function(monkeypatch, "nn", "mlp_forward")
    p = nn.init_params(4, 3, hidden=5, seed=0)
    for x in (np.ones(4), np.ones((7, 4)), np.ones((0, 4))):
        want = {"rows": 1 if x.ndim == 1 else len(x)}
        assert count((p, x), {}, nn.mlp_forward(p, x)) == want
        assert count((p,), {"x": x}, nn.mlp_forward(p, x=x)) == want

    calls = record_calls(monkeypatch, nn, "mlp_forward")
    tax, world, _, test_set, _ = tiny_setup()
    model = init_model(tax, world.feat_dim, TrainConfig(hidden=8, spatial_resolution=4))
    predict_dataset(model, test_set, tax)
    assert [count(*call) for call in calls] == [{"rows": len(test_set)}] * 2
