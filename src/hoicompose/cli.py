"""Command-line entry point.

Every command reads an optional JSON config (unknown keys rejected), honors
--seed/--out overrides, writes machine-readable outputs plus a manifest with a
config hash, and exits 0 on success, 2 on config errors, 3 on data errors, 4 on
numeric divergence. Reruns with the same config are byte-identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import nn
from .affordance import (DEFAULT_BANK_SIZE, DEFAULT_HOI_THRESHOLD, DEFAULT_KEEP_THRESHOLD,
                         AffordanceBank, build_bank, recognize_objects)
from .evaluation import (RARE_THRESHOLD, SplitSpec, affordance_map, affordance_prf1,
                         make_split, map_report, save_predictions, write_report_csv,
                         write_report_json)
from .experiments import TrendSettings, reproduce_trends, save_trend_report
from .pipeline import (HOIModel, StepBatch, TrainConfig, TrainingDiverged, build_matrices,
                       _check_confidences, ground_truth_pairs, init_model, load_checkpoint, predict_dataset,
                       save_checkpoint, step_grad_check, train, write_trace_csv)
from .seeding import substream
from .synth import (DESK_N_TEST, DESK_N_TRAIN, gen_dataset, gen_world, load_instances,
                    save_instances, validate_instances)
from .taxonomy import Taxonomy

OUT_ENV_VAR = "HOICOMPOSE_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


# What parsing a malformed JSON field raises (json.JSONDecodeError is a ValueError).
_LOAD_ERRORS = (ValueError, KeyError, TypeError, OverflowError)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    version = cfg.pop("schema_version", 1)
    if version != 1:
        raise ConfigError(f"unsupported config schema_version {version}")
    return cfg


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {sorted(unknown)}")


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", 0))


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _file_hash(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, command: str, resolved: dict, inputs: dict, outputs: list) -> None:
    manifest = {
        "schema_version": 1,
        "command": command,
        "config": resolved,
        "config_sha256": _config_hash(resolved),
        "inputs": {name: {"path": str(p), "sha256": _file_hash(Path(p))} for name, p in inputs.items()},
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    return path


def _load_data_dir(cfg: dict, need=("taxonomy",)) -> dict:
    """Load and check the gen-data files in need, "taxonomy" first; failures name the file."""
    data_dir = cfg.get("data_dir")
    if data_dir is None:
        raise ConfigError("config must set data_dir (a gen-data output directory)")
    d = Path(data_dir)
    if not d.is_dir():
        raise DataError(f"data_dir does not exist: {d}")
    loaded = {"dir": d, "feat_dim": None}
    names = {"taxonomy": "taxonomy.json", "split": "split.json",
             "train": "train.jsonl", "test": "test.jsonl", "external": "external.jsonl"}
    kinds = {"train": "hoi", "test": "hoi", "external": "object"}
    for key in need:
        path = _require_file(d / names[key], names[key])
        try:
            if key == "taxonomy":
                loaded[key] = Taxonomy.load(path)
            elif key == "split":
                loaded[key] = SplitSpec.load(path)
                loaded[key].validate(loaded["taxonomy"])
            else:
                loaded[key] = load_instances(path)
                loaded["feat_dim"] = validate_instances(loaded[key], kinds[key], loaded["taxonomy"],
                                                        loaded["feat_dim"])
        except _LOAD_ERRORS as e:
            raise DataError(f"failed to load {path}: {e}")
        loaded[key + "_path"] = path
    return loaded


def _load_model(path, data: dict) -> HOIModel:
    """The checkpoint at path; it must fit the loaded data's categories and feat_dim."""
    try:
        model, _ = load_checkpoint(path)
    except _LOAD_ERRORS as e:
        raise DataError(f"failed to load checkpoint {path}: {e}")
    n_categories, feat_dim = data["taxonomy"].n_categories, data["feat_dim"]
    if model.n_categories != n_categories or feat_dim not in (None, model.feat_dim):
        raise DataError(f"checkpoint {path} ({model.n_categories} categories, feat_dim {model.feat_dim}) "
                        f"does not fit {data['dir']} ({n_categories} categories, feat_dim {feat_dim})")
    return model


def cmd_gen_data(cfg: dict, args) -> int:
    _check_keys(cfg, {"world", "dataset", "split", "seed"}, "gen-data")
    world_cfg = dict(cfg.get("world", {}))
    data_cfg = dict(cfg.get("dataset", {}))
    split_cfg = dict(cfg.get("split", {}))
    _check_keys(world_cfg, {"n_verbs", "n_objects", "c_pairs", "feat_dim", "noise_sigma",
                            "tail_exponent", "head_count", "domain_shift_scale",
                            "no_interaction_verbs"}, "gen-data world")
    _check_keys(data_cfg, {"n_train", "n_test", "n_external_objects", "co_label_prob"}, "gen-data dataset")
    _check_keys(split_cfg, {"mode", "unseen_count", "unseen_object_ids"}, "gen-data split")
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)

    try:
        tax, world = gen_world(seed=seed, **world_cfg)
        split = make_split(
            tax,
            split_cfg.get("mode", "none"),
            unseen_count=split_cfg.get("unseen_count"),
            unseen_object_ids=split_cfg.get("unseen_object_ids"),
            rng=substream(seed, "split"),
        )
        train_set, test_set, external = gen_dataset(
            world, tax, split,
            n_train=int(data_cfg.get("n_train", DESK_N_TRAIN)),
            n_test=int(data_cfg.get("n_test", DESK_N_TEST)),
            n_external_objects=int(data_cfg.get("n_external_objects", DESK_N_TEST)),
            seed=seed,
            co_label_prob=float(data_cfg.get("co_label_prob", 0.1)),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"gen-data: {e}")

    tax.save(out / "taxonomy.json")
    world.save(out / "world.json")
    split.save(out / "split.json")
    save_instances(out / "train.jsonl", train_set)
    save_instances(out / "test.jsonl", test_set)
    save_instances(out / "external.jsonl", external)
    resolved = {"world": world_cfg, "dataset": data_cfg, "split": split_cfg, "seed": seed}
    outputs = ["taxonomy.json", "world.json", "split.json", "train.jsonl", "test.jsonl", "external.jsonl"]
    _write_manifest(out, "gen-data", resolved, {}, outputs)
    print(f"gen-data: {len(train_set)} train, {len(test_set)} test, {len(external)} external -> {out}")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    _check_keys(cfg, {"data_dir", "train", "baseline", "seed"}, "train")
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    train_overrides = dict(cfg.get("train", {}))
    train_overrides.setdefault("seed", seed)
    try:
        tcfg = TrainConfig.from_json_dict(train_overrides)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train config: {e}")
    if args.seed is not None:
        tcfg.seed = args.seed
    baseline = bool(cfg.get("baseline", False))
    if baseline:
        from .pipeline import baseline_config
        tcfg = baseline_config(tcfg)

    data = _load_data_dir(cfg, need=("taxonomy", "train", "external"))
    try:
        result = train(data["train"], [] if baseline else data["external"], data["taxonomy"], tcfg)
    except ValueError as e:
        raise DataError(f"train: {e}")

    save_checkpoint(result.model, tcfg, out / "checkpoint.json")
    write_trace_csv(result.trace, out / "trace.csv")
    resolved = {"data_dir": str(data["dir"]), "train": tcfg.to_json_dict(), "baseline": baseline, "seed": tcfg.seed}
    inputs = {k: data[k + "_path"] for k in ("taxonomy", "train", "external")}
    _write_manifest(out, "train", resolved, inputs, ["checkpoint.json", "trace.csv"])
    last = result.trace[-1]["L_total"] if result.trace else float("nan")
    c = result.counters
    print(f"train: {tcfg.iterations} steps, final loss {last:.4f}, composite kept/valid/candidates "
          f"{c['composite_examples']}/{c['composite_valid']}/{c['composite_candidates']} -> {out}")
    return EXIT_OK


def _eval_common(cfg: dict, args, with_split: bool) -> int:
    _check_keys(cfg, {"data_dir", "checkpoint", "s_h", "s_o", "rare_threshold", "seed",
                      "write_predictions"}, "eval")
    try:
        s_h, s_o = float(cfg.get("s_h", 1.0)), float(cfg.get("s_o", 1.0))
        _check_confidences(s_h, s_o)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"eval s_h, s_o: {e}")
    out = _out_dir(args)
    ckpt_path = cfg.get("checkpoint")
    if ckpt_path is None:
        raise ConfigError("config must set checkpoint (a train output)")
    _require_file(Path(ckpt_path), "checkpoint")
    need = ("taxonomy", "test", "split") if with_split else ("taxonomy", "test")
    data = _load_data_dir(cfg, need=need)
    model = _load_model(ckpt_path, data)

    split = data.get("split")
    if with_split and split is not None and split.mode == "none":
        raise DataError("zeroshot evaluation needs a split with held-out categories; this split has mode 'none'")
    tax = data["taxonomy"]
    preds = predict_dataset(model, data["test"], tax, s_h=s_h, s_o=s_o)
    gt = ground_truth_pairs(data["test"])
    report = map_report(preds, gt, tax, split if with_split else None,
                        rare_threshold=int(cfg.get("rare_threshold", RARE_THRESHOLD)))
    write_report_json(report, out / "report.json")
    write_report_csv(report, tax, out / "report.csv")
    outputs = ["report.json", "report.csv"]
    if cfg.get("write_predictions"):
        save_predictions(out / "predictions.jsonl", preds)
        outputs.append("predictions.jsonl")
    resolved = {"data_dir": str(data["dir"]), "checkpoint": str(ckpt_path),
                "s_h": s_h, "s_o": s_o,
                "rare_threshold": int(cfg.get("rare_threshold", RARE_THRESHOLD))}
    inputs = {k: data[k + "_path"] for k in need}
    inputs["checkpoint"] = Path(ckpt_path)
    _write_manifest(out, "zeroshot" if with_split else "eval-hoi", resolved, inputs, outputs)
    for name in ("full", "rare", "nonrare", "unseen", "seen"):
        if name in report.groups:
            g = report.groups[name]
            val = g["map"]
            shown = "n/a" if math.isnan(val) else f"{val:.4f}"
            print(f"{name:>8} mAP {shown}  ({g['n_categories']} categories)")
    return EXIT_OK


def cmd_eval_hoi(cfg: dict, args) -> int:
    return _eval_common(cfg, args, with_split=False)


def cmd_zeroshot(cfg: dict, args) -> int:
    return _eval_common(cfg, args, with_split=True)


def cmd_build_bank(cfg: dict, args) -> int:
    _check_keys(cfg, {"data_dir", "m", "seed"}, "build-bank")
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    data = _load_data_dir(cfg, need=("taxonomy", "train"))
    m = int(cfg.get("m", DEFAULT_BANK_SIZE))
    try:
        bank = build_bank(data["train"], data["taxonomy"], m=m, seed=seed)
    except ValueError as e:
        raise ConfigError(f"build-bank: {e}")
    bank.save(out / "bank.json")
    resolved = {"data_dir": str(data["dir"]), "m": m, "seed": seed}
    inputs = {k: data[k + "_path"] for k in ("taxonomy", "train")}
    _write_manifest(out, "build-bank", resolved, inputs, ["bank.json"])
    counts = bank.s_counts()
    print(f"build-bank: {bank.total_entries} entries over {len(counts)} verbs "
          f"(min {min(counts.values())}, max {max(counts.values())}) -> {out}")
    return EXIT_OK


def cmd_affordance(cfg: dict, args) -> int:
    _check_keys(cfg, {"data_dir", "checkpoint", "bank", "hoi_threshold", "keep_threshold",
                      "novel_only", "seed"}, "affordance")
    out = _out_dir(args)
    for key in ("checkpoint", "bank"):
        if cfg.get(key) is None:
            raise ConfigError(f"config must set {key}")
    _require_file(Path(cfg["checkpoint"]), "checkpoint")
    _require_file(Path(cfg["bank"]), "bank")
    data = _load_data_dir(cfg, need=("taxonomy", "split", "external"))
    model = _load_model(cfg["checkpoint"], data)
    try:
        bank = AffordanceBank.load(cfg["bank"])
    except _LOAD_ERRORS as e:
        raise DataError(f"failed to load bank {cfg['bank']}: {e}")

    tax = data["taxonomy"]
    split = data["split"]
    objects = data["external"]
    if bool(cfg.get("novel_only", True)):
        objects = [o for o in objects if o.object_label in split.unseen_object_ids]
        if not objects:
            raise DataError("no novel objects in the external stream for this split")

    hoi_t = float(cfg.get("hoi_threshold", DEFAULT_HOI_THRESHOLD))
    keep_t = float(cfg.get("keep_threshold", DEFAULT_KEEP_THRESHOLD))
    try:
        predicted, scores = recognize_objects([o.object_feat for o in objects], bank, model, tax,
                                              hoi_threshold=hoi_t, keep_threshold=keep_t)
    except ValueError as e:
        raise DataError(f"affordance: {e}")
    gt = {i: tax.affordances_of_object(o.object_label) for i, o in enumerate(objects)}
    prf1 = affordance_prf1(predicted, gt)
    amap = affordance_map(scores, gt)

    per_object = []
    for i, o in enumerate(objects):
        row_scores = {v: (None if math.isnan(s) else s) for v, s in scores[i].items()}
        per_object.append({
            "index": i,
            "object_label": int(o.object_label),
            "object_name": tax.object_names[o.object_label],
            "kept_verbs": sorted(predicted[i]),
            "gt_verbs": sorted(gt[i]),
            "scores": {str(v): row_scores[v] for v in sorted(row_scores)},
        })
    doc = {
        "schema_version": 1,
        "hoi_threshold": hoi_t,
        "keep_threshold": keep_t,
        "prf1": prf1.to_json_dict(),
        "affordance_map": None if math.isnan(amap) else amap,
        "objects": per_object,
    }
    with open(out / "affordance.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    resolved = {"data_dir": str(data["dir"]), "checkpoint": str(cfg["checkpoint"]),
                "bank": str(cfg["bank"]), "hoi_threshold": hoi_t, "keep_threshold": keep_t,
                "novel_only": bool(cfg.get("novel_only", True))}
    inputs = {k: data[k + "_path"] for k in ("taxonomy", "split", "external")}
    inputs.update({"checkpoint": Path(cfg["checkpoint"]), "bank": Path(cfg["bank"])})
    _write_manifest(out, "affordance", resolved, inputs, ["affordance.json"])

    print(f"affordance over {len(objects)} objects: micro-F1 {prf1.micro_f1:.4f} "
          f"P {prf1.micro_precision:.4f} R {prf1.micro_recall:.4f} mAP "
          f"{'n/a' if math.isnan(amap) else f'{amap:.4f}'}")
    print(f"{'object':<12} {'kept verbs':<24} gt verbs")
    for row in per_object[:20]:
        print(f"{row['object_name']:<12} {str(row['kept_verbs']):<24} {row['gt_verbs']}")
    if len(per_object) > 20:
        print(f"... {len(per_object) - 20} more in affordance.json")
    return EXIT_OK


def cmd_gradcheck(cfg: dict, args) -> int:
    _check_keys(cfg, {"n_configs", "tolerance", "end_to_end_tolerance", "seed"}, "gradcheck")
    seed = _resolve_seed(cfg, args)
    out = _out_dir(args)
    n_configs = int(cfg.get("n_configs", 100))
    tol = float(cfg.get("tolerance", 1e-4))
    e2e_tol = float(cfg.get("end_to_end_tolerance", 1e-3))
    if n_configs < 1:
        raise ConfigError("n_configs must be positive")

    rng = substream(seed, "gradcheck")
    worst = 0.0
    for _ in range(n_configs):
        d_in = int(rng.integers(1, 33))
        hidden = int(rng.integers(1, 33))
        k_out = int(rng.integers(1, 33))
        params = nn.init_params(d_in, k_out, hidden, seed=int(rng.integers(2**31)))
        x = rng.normal(size=d_in)
        t = (rng.random(k_out) < 0.5).astype(float)
        worst = max(worst, nn.grad_check(params, x, t).max_rel_error)

    e2e_worst = max(_end_to_end_errors(seed).values())
    doc = {
        "schema_version": 1,
        "n_configs": n_configs,
        "max_rel_error": worst,
        "tolerance": tol,
        "end_to_end_max_rel_error": e2e_worst,
        "end_to_end_tolerance": e2e_tol,
        "passed": worst < tol and e2e_worst < e2e_tol,
    }
    with open(out / "gradcheck.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(out, "gradcheck", {"n_configs": n_configs, "tolerance": tol,
                                       "end_to_end_tolerance": e2e_tol, "seed": seed},
                    {}, ["gradcheck.json"])
    print(f"gradcheck: max rel error {worst:.3e} over {n_configs} configs "
          f"(tolerance {tol:g}); end-to-end {e2e_worst:.3e} (tolerance {e2e_tol:g})")
    if not doc["passed"]:
        print("gradcheck FAILED", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _end_to_end_errors(seed: int) -> dict:
    """Finite-difference check of one full composite training step on a miniature world."""
    from .synth import gen_dataset as _gen
    tax, world = gen_world(n_verbs=3, n_objects=2, c_pairs=6, feat_dim=4, seed=seed)
    train_set, _, external = _gen(world, tax, None, 6, 1, 4, seed=seed)
    cfg = TrainConfig(hidden=8, spatial_resolution=4, hoi_batch=4, object_batch=2, seed=seed)
    model = init_model(tax, world.feat_dim, cfg)
    x_sp, x_hoi, y, _ = build_matrices(train_set[:4], tax, cfg.spatial_resolution)
    from .pipeline import compose_batch
    from .taxonomy import decouple_verb, one_hot
    verb_items = [(inst.verb_feat, decouple_verb(inst.hoi_label, tax)) for inst in train_set[:4]]
    object_items = [(o.object_feat, one_hot(tax.n_objects, o.object_label)) for o in external[:2]]
    composites = compose_batch(verb_items, object_items, tax, cfg.object_batch, substream(seed, "gradcheck-e2e"))
    atl_x = np.stack([c[0] for c in composites]) if composites else None
    atl_y = np.stack([c[1] for c in composites]).astype(float) if composites else None
    batch = StepBatch(sp_x=x_sp, sp_y=y, hoi_x=x_hoi, hoi_y=y, atl_x=atl_x, atl_y=atl_y)
    return step_grad_check(model, batch, cfg)


def cmd_reproduce_trends(cfg: dict, args) -> int:
    _check_keys(cfg, {"seeds", "n_train", "n_test", "n_external", "train",
                      "bank_m", "bank_m_small", "seed"}, "reproduce-trends")
    out = _out_dir(args)
    try:
        settings = TrendSettings(
            seeds=tuple(cfg.get("seeds", (0, 1, 2, 3, 4))),
            n_train=int(cfg.get("n_train", 1500)),
            n_test=int(cfg.get("n_test", 400)),
            n_external=int(cfg.get("n_external", 400)),
            train=TrainConfig.from_json_dict(dict(cfg.get("train", {}))),
            bank_m=int(cfg.get("bank_m", DEFAULT_BANK_SIZE)),
            bank_m_small=int(cfg.get("bank_m_small", 20)),
        )
        settings.validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(f"reproduce-trends config: {e}")
    try:
        report = reproduce_trends(settings)
    except ValueError as e:
        raise DataError(f"reproduce-trends: {e}")
    save_trend_report(report, out / "trends.json")
    resolved = {"seeds": list(settings.seeds), "n_train": settings.n_train,
                "n_test": settings.n_test, "n_external": settings.n_external,
                "train": settings.train.to_json_dict(), "bank_m": settings.bank_m,
                "bank_m_small": settings.bank_m_small}
    _write_manifest(out, "reproduce-trends", resolved, {}, ["trends.json"])
    print(report.format_table())
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval-hoi": cmd_eval_hoi,
    "zeroshot": cmd_zeroshot,
    "build-bank": cmd_build_bank,
    "affordance": cmd_affordance,
    "gradcheck": cmd_gradcheck,
    "reproduce-trends": cmd_reproduce_trends,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoicompose",
        description="Compositional HOI learning on synthetic desk-scale worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen-data": "generate a synthetic world, split, and dataset files",
        "train": "train the three-branch model from a gen-data directory",
        "eval-hoi": "detection mAP report (Full/Rare/NonRare)",
        "zeroshot": "detection mAP report with Unseen/Seen groups",
        "build-bank": "sample the affordance feature bank from training data",
        "affordance": "recognize affordances of external objects and score them",
        "gradcheck": "verify analytic gradients against finite differences",
        "reproduce-trends": "multi-seed transfer-on vs transfer-off comparison",
    }
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or .)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.fn(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
