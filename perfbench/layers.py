"""Which hoicompose functions the traced run wraps, and the per-layer metrics.

A metric name is ``<module>.<function>.<key>``. Its key says how it is made
from the spans of that function: ``calls`` counts spans, ``self_s`` sums self
time (span time minus the time its child spans cover), ``s`` is the median
wall time of one call, ``kept_ratio`` is kept / candidates, and any other key
sums the count the wrapper recorded. Each value is the median over the run's
operations of each operation's total. The spans in SETUP_SPANS are the
exception when no operation opens them, as on the CLI workloads, whose
set-up generates the data and trains: they give the traced set-up's total.
Any other span reads 0 where only set-up opens it.

Which end-to-end metric each layer metric should move, and on which workload:
- taxonomy.*, pipeline.compose_batch.*, pipeline.train.*, nn.* and
  experiments.*: run_s on trends. pipeline.train.* and
  pipeline.build_matrices.* also move setup_s on the CLI workloads;
  nn.mlp_forward.* also moves run_s on affordance_scale.
- evaluation.*, pipeline.predict_dataset.*: run_s (and peak_rss_mb) on eval_scale.
- affordance.*: run_s on affordance_scale.
- synth.gen_dataset.*, synth.save_instances.*, pipeline.save_checkpoint.*,
  cli.gen-data.* and cli.train.*: setup_s on the CLI workloads.
- synth.load_instances.*, pipeline.load_checkpoint.* and the other cli.*:
  run_s on the two CLI workloads.
"""
from __future__ import annotations

import numpy as np

from tracer import layer_value, median_wall_s


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(args, kwargs, result):
    return {"rows": 1 if np.ndim(_arg(args, kwargs, 1, "x")) == 1 else len(_arg(args, kwargs, 1, "x"))}


def _compose(args, kwargs, result):
    candidates = len(_arg(args, kwargs, 0, "verb_items")) * len(_arg(args, kwargs, 1, "object_items"))
    return {"candidates": candidates, "kept": len(result)}


def _probes(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "object_feats"))
    return {"objects": n, "probes": n * _arg(args, kwargs, 1, "bank").total_entries}


# (module, function, count) — count maps (args, kwargs, result) to a dict of counts.
TARGETS = [
    ("taxonomy", "compose_label", None),
    ("taxonomy", "decouple_verb", None),
    ("pipeline", "compose_batch", _compose),
    ("pipeline", "train", lambda a, k, r: {"steps": _arg(a, k, 3, "cfg").iterations}),
    ("pipeline", "build_matrices", None),
    ("pipeline", "predict_dataset", lambda a, k, r: {"rows": len(_arg(a, k, 1, "instances"))}),
    ("pipeline", "load_checkpoint", None),
    ("pipeline", "save_checkpoint", None),
    ("nn", "mlp_forward", _rows),
    ("nn", "mlp_backward", None),
    ("nn", "sgd_step", None),
    ("evaluation", "map_report", None),
    ("evaluation", "match_detections",
     lambda a, k, r: {"pairs": len(_arg(a, k, 0, "predictions")) * len(_arg(a, k, 1, "ground_truth"))}),
    ("affordance", "build_bank", lambda a, k, r: {"entries": r.total_entries}),
    ("affordance", "recognize_objects", _probes),
    ("affordance", "recognize", None),
    ("synth", "gen_dataset", lambda a, k, r: {"instances": sum(len(part) for part in r)}),
    ("synth", "save_instances", None),
    ("synth", "load_instances", lambda a, k, r: {"instances": len(r)}),
    ("experiments", "run_trend_seed", None),
    ("experiments", "bank_stability", None),
]

CLI_COMMANDS = ("gen-data", "train", "zeroshot", "build-bank", "affordance")

# Spans that run only in the CLI workloads' set-up.
SETUP_SPANS = frozenset({
    "pipeline.train", "pipeline.build_matrices", "pipeline.save_checkpoint", "synth.gen_dataset",
    "synth.save_instances", "cli.gen-data", "cli.train",
})

METRICS = [
    "taxonomy.compose_label.calls", "taxonomy.compose_label.self_s", "taxonomy.decouple_verb.calls",
    "pipeline.compose_batch.calls", "pipeline.compose_batch.self_s", "pipeline.compose_batch.candidates",
    "pipeline.compose_batch.kept", "pipeline.compose_batch.kept_ratio",
    "pipeline.train.self_s", "pipeline.train.steps", "pipeline.build_matrices.self_s",
    "nn.mlp_forward.calls", "nn.mlp_forward.rows", "nn.mlp_forward.self_s",
    "nn.mlp_backward.calls", "nn.mlp_backward.self_s", "nn.sgd_step.calls", "nn.sgd_step.self_s",
    "evaluation.map_report.self_s", "evaluation.match_detections.calls",
    "evaluation.match_detections.self_s", "evaluation.match_detections.pairs",
    "pipeline.predict_dataset.self_s", "pipeline.predict_dataset.rows",
    "affordance.build_bank.self_s", "affordance.build_bank.entries",
    "affordance.recognize_objects.self_s", "affordance.recognize_objects.objects",
    "affordance.recognize_objects.probes", "affordance.recognize.calls", "affordance.recognize.self_s",
    "synth.gen_dataset.self_s", "synth.gen_dataset.instances", "synth.save_instances.self_s",
    "synth.load_instances.self_s", "synth.load_instances.instances",
    "pipeline.load_checkpoint.self_s", "pipeline.save_checkpoint.self_s",
    *[f"cli.{c}.self_s" for c in CLI_COMMANDS],
    "experiments.run_trend_seed.s", "experiments.bank_stability.self_s",
    "bench.op.self_s", "bench.untraced_run_s", "bench.traced_run_s", "bench.trace_overhead",
]

_RATIOS = {"kept_ratio", "trace_overhead"}
_SECONDS = {"self_s", "s", "untraced_run_s", "traced_run_s"}


def unit(metric: str) -> str:
    key = metric.rsplit(".", 1)[1]
    return "ratio" if key in _RATIOS else "s" if key in _SECONDS else "count"


def seconds_by_span(totals, key: str) -> list:
    """[name, seconds] of every span name, largest first; key is "self_ns" or "wall_ns"."""
    names = {name for per_name in totals.values() for name in per_name}
    return sorted(([name, layer_value(totals, name, key, SETUP_SPANS) / 1e9] for name in names),
                  key=lambda pair: -pair[1])


def per_layer_metrics(totals, walls, untraced_s: float, traced_s: float) -> dict:
    out = {}
    for metric in METRICS:
        span, key = metric.rsplit(".", 1)
        if metric == "bench.untraced_run_s":
            value = untraced_s
        elif metric == "bench.traced_run_s":
            value = traced_s
        elif metric == "bench.trace_overhead":
            value = traced_s / untraced_s
        elif key == "self_s":
            value = layer_value(totals, span, "self_ns", SETUP_SPANS) / 1e9
        elif key == "s":
            value = median_wall_s(walls, span)
        elif key == "kept_ratio":
            candidates = layer_value(totals, span, "candidates", SETUP_SPANS)
            value = layer_value(totals, span, "kept", SETUP_SPANS) / candidates if candidates else 0.0
        else:
            value = layer_value(totals, span, key, SETUP_SPANS)
        out[metric] = {"value": value, "unit": unit(metric)}
    return out
