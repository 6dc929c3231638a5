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
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import nn
from .affordance import (BANK_ENTRIES, DEFAULT_BANK_SIZE, DEFAULT_HOI_THRESHOLD, DEFAULT_KEEP_THRESHOLD,
                         AffordanceBank, build_bank, recognize_objects)
from .blas import blas_info
from .evaluation import SplitSpec, affordance_map, affordance_prf1, make_split, map_report, write_report_csv
from .experiments import TrendSettings, reproduce_trends
from .jsonfile import check_fields, int_items, read_json, write_arrays, write_json
from .pipeline import (CHECKPOINT_ARRAYS, HOIModel, StepSampler, TrainConfig, TrainingDiverged, baseline_config,
                       init_model, load_checkpoint, predict_dataset, save_checkpoint, step_grad_check, train,
                       write_trace_csv)
from .seeding import substream
from .synth import HOISet, ObjectSet, gen_dataset, gen_world, load_instances, save_instances, validate_instances
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

# gen-data's sections go to gen_world, make_split and gen_dataset as given, and
# those functions hold their defaults, so these tables hold kinds only.
_GEN_DATA_SECTIONS = {
    "world": {"n_verbs": int, "n_objects": int, "c_pairs": int, "feat_dim": int, "noise_sigma": float,
              "tail_exponent": float, "head_count": int, "domain_shift_scale": float},
    "dataset": {"n_train": int, "n_test": int, "n_external_objects": int, "co_label_prob": float},
    "split": {"mode": str, "unseen_count": int, "unseen_object_ids": list},
}
_EVAL = {"data_dir": str, "checkpoint": str, "write_predictions": False, "seed": 0}

# Each command's settings, {key: default}; a kind in place of a default marks a
# key the config must set. A default's type is its key's kind, and a float key
# takes any JSON number.
SETTINGS = {
    "gen-data": {**{name: {} for name in _GEN_DATA_SECTIONS}, "seed": 0},
    "train": {"data_dir": str, "train": {}, "baseline": False, "seed": 0},
    "eval-hoi": _EVAL,
    "zeroshot": _EVAL,
    "build-bank": {"data_dir": str, "m": DEFAULT_BANK_SIZE, "seed": 0},
    "affordance": {"data_dir": str, "checkpoint": str, "bank": str, "hoi_threshold": DEFAULT_HOI_THRESHOLD,
                   "keep_threshold": DEFAULT_KEEP_THRESHOLD, "novel_only": True, "seed": 0},
    "gradcheck": {"n_configs": 100, "tolerance": 1e-4, "end_to_end_tolerance": 1e-3, "seed": 0},
    "reproduce-trends": {**vars(TrendSettings()), "seeds": list(TrendSettings.seeds), "train": {}},
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:  # a config file may leave out its schema_version
        return read_json(path, "config", missing_ok=True)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, ValueError) as e:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"config file {path}: {e}")


def _check_keys(cfg: dict, kinds: dict, where: str) -> None:
    try:
        check_fields(cfg, kinds, f"{where} config")
    except ValueError as e:
        raise ConfigError(e)


def _settings(cfg: dict, args) -> dict:
    """The command's resolved config: cfg checked against the command's
    SETTINGS table, defaults filled in, numbers of float keys as floats and
    --seed applied. The command reads it, and its manifest records it, so that
    running the command on that record repeats the run."""
    where, spec = args.command, SETTINGS[args.command]
    kinds = {k: d if isinstance(d, type) else type(d) for k, d in spec.items()}
    _check_keys(cfg, kinds, where)
    missing = [k for k, d in spec.items() if isinstance(d, type) and k not in cfg]
    if missing:
        raise ConfigError(f"{where} config must set {', '.join(missing)}")
    try:
        resolved = {k: float(v) if kinds[k] is float else v for k, v in {**spec, **cfg}.items()}
    except OverflowError as e:  # an integer past the float range
        raise ConfigError(f"{where} config: {e}")
    if "seed" in spec:
        if args.seed is not None:
            resolved["seed"] = args.seed
        if resolved["seed"] < 0:
            raise ConfigError(f"seed must be nonnegative, got {resolved['seed']}")
    return resolved


# The files each output directory receives: a set's column files, or a score grid and its labels.
_OUT_DIR_FILES = {**{name: [f"{f.name}.npy" for f in fields(cls)]
                     for name, cls in (("train", HOISet), ("test", HOISet), ("external", ObjectSet))},
                  "predictions": ["scores.npy"], "objects": ["scores.npy", "object_label.npy"]}


def _out_dir(args, outputs: list) -> Path:
    """The output directory, made if missing. Before the command works, it
    refuses an output name, manifest.json or a file an output directory
    receives, that exists as the other kind: a directory where a file goes, or
    a file where a directory goes. It refuses an output directory that holds
    anything else, which a reader of the directory would take for its own."""
    path = Path(args.out or os.environ.get(OUT_ENV_VAR) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # the path or a parent is a file
        raise ConfigError(f"output directory {path}: {e}")
    for name in [*outputs, "manifest.json"]:
        files = _OUT_DIR_FILES.get(name, [])
        for target, want in [(path / name, "directory" if name in _OUT_DIR_FILES else "file"),
                             *((path / name / f, "file") for f in files)]:
            if target.exists() and target.is_dir() != (want == "directory"):
                raise ConfigError(f"output {target} is in the way: {args.command} writes a {want} there")
        stale = sorted(set(os.listdir(path / name)) - set(files)) if (path / name).is_dir() else []
        if stale:
            raise ConfigError(f"output {path / name} holds {stale}, which {args.command} does not write")
    return path


def _config_hash(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _file_hash(path: Path) -> str:
    """sha256 of a file's bytes; of a directory, sha256 of its sorted "<name> <sha256>" lines."""
    h = hashlib.sha256()
    if path.is_dir():
        h.update("".join(f"{p.name} {_file_hash(p)}\n" for p in sorted(path.iterdir())).encode())
        return h.hexdigest()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, command: str, resolved: dict, inputs: dict, outputs: list) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config": resolved,
        "config_sha256": _config_hash(resolved),
        "inputs": {name: {"path": str(p), "sha256": _file_hash(Path(p))} for name, p in inputs.items()},
        "outputs": sorted(outputs),
        # the BLAS the outputs' bytes depend on; its thread count is not among them
        "blas": {k: v for k, v in blas_info().items() if k != "threads"},
    })


def _load_data_dir(s: dict, need=("taxonomy",)) -> dict:
    """Load and check the gen-data inputs in need, "taxonomy" first: the JSON
    documents and the train, test and external column directories. Failures
    name the file or directory. Records the loaded paths under "inputs" and
    data_dir in s as a normalised path."""
    d = Path(s["data_dir"])
    s["data_dir"] = str(d)
    if not d.is_dir():
        raise DataError(f"data_dir does not exist: {d}")
    loaded = {"dir": d, "feat_dim": None, "inputs": {}}
    sets = {"train": HOISet, "test": HOISet, "external": ObjectSet}  # the column directories
    for key in need:
        path = d / (key if key in sets else key + ".json")
        if not (path.is_dir() if key in sets else path.is_file()):
            raise DataError(f"{path.name} not found: {path}")
        try:
            if key == "taxonomy":
                loaded[key] = Taxonomy.load(path)
            elif key == "split":
                loaded[key] = SplitSpec.load(path)
                loaded[key].validate(loaded["taxonomy"])
            else:
                loaded[key] = load_instances(path, sets[key])
                loaded["feat_dim"] = validate_instances(loaded[key], loaded["taxonomy"], loaded["feat_dim"])
        except _LOAD_ERRORS as e:
            raise DataError(f"failed to load {path}: {e}")
        loaded["inputs"][key] = path
    return loaded


def _load_file(path: str, what: str, load, inputs: dict):
    """load(path) for the file at path, recorded in inputs as what."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} not found: {p}")
    try:
        value = load(p)
    except _LOAD_ERRORS as e:
        raise DataError(f"failed to load {what} {p}: {e}")
    inputs[what] = p
    return value


def _load_model(path: str, data: dict) -> HOIModel:
    """The checkpoint at path; it must fit the loaded data's categories and feat_dim."""
    model = _load_file(path, "checkpoint", load_checkpoint, data["inputs"])
    n_categories, feat_dim = data["taxonomy"].n_categories, data["feat_dim"]
    if model.n_categories != n_categories or feat_dim not in (None, model.feat_dim):
        raise DataError(f"checkpoint {path} ({model.n_categories} categories, feat_dim {model.feat_dim}) "
                        f"does not fit {data['dir']} ({n_categories} categories, feat_dim {feat_dim})")
    return model


def cmd_gen_data(cfg: dict, args) -> int:
    s = _settings(cfg, args)
    for name, kinds in _GEN_DATA_SECTIONS.items():
        _check_keys(s[name], kinds, f"gen-data {name}")
    seed = s["seed"]
    try:
        int_items(s["split"].get("unseen_object_ids", []), "split unseen_object_ids")
        if s["dataset"].get("n_train", 1) < 1:  # gen_dataset would draw it, but train refuses it
            raise ValueError(f"dataset n_train must be at least 1, got {s['dataset']['n_train']}")
        tax, world = gen_world(seed=seed, **s["world"])
        split = make_split(tax, rng=substream(seed, "split"), **s["split"])
        train_set, test_set, external = gen_dataset(world, tax, split, seed=seed, **s["dataset"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"gen-data: {e}")

    outputs = ["taxonomy.json", "split.json", "train", "test", "external"]
    out = _out_dir(args, outputs)
    # taxonomy.json records the training counts this split actually drew
    replace(tax, train_counts=train_set.hoi_label.sum(axis=0)).save(out / "taxonomy.json")
    split.save(out / "split.json")
    save_instances(out / "train", train_set)
    save_instances(out / "test", test_set)
    save_instances(out / "external", external)
    _write_manifest(out, "gen-data", s, {}, outputs)
    print(f"gen-data: {len(train_set)} train, {len(test_set)} test, {len(external)} external -> {out}")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    s = _settings(cfg, args)
    try:  # the seed is --seed, else train.seed, else the top-level seed
        tcfg = TrainConfig.from_json_dict({"seed": s["seed"], **s["train"]})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"train config: {e}")
    if args.seed is not None:
        tcfg.seed = args.seed
    if s["baseline"]:
        tcfg = baseline_config(tcfg)
    s.update(train=asdict(tcfg), seed=tcfg.seed)
    outputs = ["checkpoint.json", *CHECKPOINT_ARRAYS, "trace.csv"]
    out = _out_dir(args, outputs)

    data = _load_data_dir(s, need=("taxonomy", "train", "external"))
    try:
        result = train(data["train"], [] if s["baseline"] else data["external"], data["taxonomy"], tcfg)
    except ValueError as e:
        raise DataError(f"train: {e}")

    save_checkpoint(result.model, out / "checkpoint.json")
    write_trace_csv(result.trace, out / "trace.csv")
    _write_manifest(out, "train", s, data["inputs"], outputs)
    last = result.trace[-1]["L_total"] if result.trace else float("nan")
    c = result.counters
    print(f"train: {tcfg.iterations} steps, final loss {last:.4f}, composite kept/valid/candidates "
          f"{c['composite_examples']}/{c['composite_valid']}/{c['composite_candidates']} -> {out}")
    return EXIT_OK


def cmd_eval(cfg: dict, args) -> int:
    s = _settings(cfg, args)
    zeroshot = args.command == "zeroshot"
    outputs = ["report.json", "report.csv", *(["predictions"] if s["write_predictions"] else [])]
    out = _out_dir(args, outputs)
    data = _load_data_dir(s, need=("taxonomy", "test", "split") if zeroshot else ("taxonomy", "test"))
    model = _load_model(s["checkpoint"], data)

    split = data.get("split")
    if zeroshot and split.mode == "none":
        raise DataError("zeroshot evaluation needs a split with held-out categories; this split has mode 'none'")
    tax = data["taxonomy"]
    scores = predict_dataset(model, data["test"], tax)
    report = map_report(scores, data["test"], tax, split)
    write_json(out / "report.json", report.to_json_dict())
    write_report_csv(report, tax, out / "report.csv")
    if s["write_predictions"]:
        (out / "predictions").mkdir(exist_ok=True)
        np.save(out / "predictions" / "scores.npy", scores, allow_pickle=False)
    _write_manifest(out, args.command, s, data["inputs"], outputs)
    for name in ("full", "rare", "nonrare", "unseen", "seen"):
        if name in report.groups:
            g = report.groups[name]
            val = g["map"]
            shown = "n/a" if math.isnan(val) else f"{val:.4f}"
            print(f"{name:>8} mAP {shown}  ({g['n_categories']} categories)")
    return EXIT_OK


def cmd_build_bank(cfg: dict, args) -> int:
    s = _settings(cfg, args)
    outputs = ["bank.json", BANK_ENTRIES]
    out = _out_dir(args, outputs)
    data = _load_data_dir(s, need=("taxonomy", "train"))
    if not len(data["train"]):  # its bank would have no entries, which affordance refuses
        raise DataError(f"build-bank: the train set {data['inputs']['train']} is empty: there is nothing to bank")
    try:
        bank = build_bank(data["train"], data["taxonomy"], m=s["m"], seed=s["seed"])
    except ValueError as e:
        raise ConfigError(f"build-bank: {e}")
    bank.save(out / "bank.json")
    _write_manifest(out, "build-bank", s, data["inputs"], outputs)
    counts = bank.s_counts()
    print(f"build-bank: {bank.total_entries} entries over {len(counts)} verbs "
          f"(min {min(counts.values())}, max {max(counts.values())}) -> {out}")
    return EXIT_OK


def cmd_affordance(cfg: dict, args) -> int:
    s = _settings(cfg, args)
    hoi_t, keep_t = s["hoi_threshold"], s["keep_threshold"]
    if not (0 <= hoi_t <= 1 and 0 <= keep_t <= 1):
        raise ConfigError(f"hoi_threshold {hoi_t} and keep_threshold {keep_t} must lie in [0, 1]")
    outputs = ["affordance.json", "objects"]
    out = _out_dir(args, outputs)
    data = _load_data_dir(s, need=("taxonomy", "split", "external"))
    model = _load_model(s["checkpoint"], data)
    bank = _load_file(s["bank"], "bank", AffordanceBank.load, data["inputs"])

    tax, split, objects = data["taxonomy"], data["split"], data["external"]
    if s["novel_only"]:
        objects = objects[np.isin(objects.object_label, sorted(split.unseen_object_ids))]
        if not len(objects):
            raise DataError("no novel objects in the external stream for this split")

    try:
        r = recognize_objects(objects.object_feat, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
    except ValueError as e:
        raise DataError(f"affordance: {e}")
    truth = tax.affordance_matrix()[objects.object_label]
    prf1 = affordance_prf1(r.kept, truth)
    amap = affordance_map(r.scores, truth)

    (out / "objects").mkdir(exist_ok=True)
    write_json(out / "affordance.json", {
        "hoi_threshold": hoi_t,
        "keep_threshold": keep_t,
        "prf1": asdict(prf1),
        "affordance_map": None if math.isnan(amap) else amap,
        "arrays": write_arrays(out / "affordance.json", {"objects/scores.npy": r.scores,
                                                         "objects/object_label.npy": objects.object_label}),
    })
    _write_manifest(out, "affordance", s, data["inputs"], outputs)

    print(f"affordance over {len(objects)} objects: micro-F1 {prf1.micro_f1:.4f} "
          f"P {prf1.micro_precision:.4f} R {prf1.micro_recall:.4f} mAP "
          f"{'n/a' if math.isnan(amap) else f'{amap:.4f}'}")
    print(f"{'object':<12} {'kept verbs':<24} gt verbs")
    for i, o in enumerate(objects.object_label[:20].tolist()):
        kept = str(np.flatnonzero(r.kept[i]).tolist())
        print(f"{tax.object_names[o]:<12} {kept:<24} {np.flatnonzero(truth[i]).tolist()}")
    if len(objects) > 20:
        print(f"... {len(objects) - 20} more in objects/")
    return EXIT_OK


def cmd_gradcheck(cfg: dict, args) -> int:
    s = _settings(cfg, args)
    n_configs, tol, e2e_tol, seed = s["n_configs"], s["tolerance"], s["end_to_end_tolerance"], s["seed"]
    if n_configs < 1:
        raise ConfigError("n_configs must be positive")
    for key in ("tolerance", "end_to_end_tolerance"):
        if not 0 <= s[key] < math.inf:  # NaN fails too
            raise ConfigError(f"{key} must be finite and nonnegative, got {s[key]}")
    out = _out_dir(args, ["gradcheck.json"])

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
    passed = worst < tol and e2e_worst < e2e_tol
    write_json(out / "gradcheck.json", {
        "n_configs": n_configs,
        "max_rel_error": worst,
        "tolerance": tol,
        "end_to_end_max_rel_error": e2e_worst,
        "end_to_end_tolerance": e2e_tol,
        "passed": passed,
    })
    _write_manifest(out, "gradcheck", s, {}, ["gradcheck.json"])
    print(f"gradcheck: max rel error {worst:.3e} over {n_configs} configs "
          f"(tolerance {tol:g}); end-to-end {e2e_worst:.3e} (tolerance {e2e_tol:g})")
    if not passed:
        print("gradcheck FAILED", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _end_to_end_errors(seed: int) -> dict:
    """Finite-difference check of train's first step on a miniature world."""
    with warnings.catch_warnings():  # a gradient check does not depend on separability
        warnings.filterwarnings("ignore", r"min \w+ prototype distance", UserWarning)
        tax, world = gen_world(n_verbs=3, n_objects=2, c_pairs=6, feat_dim=4, seed=seed)
    train_set, _, external = gen_dataset(world, tax, None, 6, 1, 4, seed=seed)
    cfg = TrainConfig(hidden=8, spatial_resolution=4, hoi_batch=4, object_batch=2, seed=seed)
    sampler = StepSampler(train_set, external, tax, cfg)
    [plan] = sampler.draw(substream(seed, "batching"), 1)
    return step_grad_check(init_model(tax, world.feat_dim, cfg), sampler, plan, cfg)


def cmd_reproduce_trends(cfg: dict, args) -> int:
    train = cfg.get("train")
    if "seed" in cfg or args.seed is not None or (isinstance(train, dict) and "seed" in train):
        raise ConfigError("reproduce-trends takes no seed, train.seed or --seed: "
                          "trend seeds come from the seeds list")
    s = _settings(cfg, args)
    try:
        settings = TrendSettings(**{**s, "seeds": tuple(s["seeds"]), "train": TrainConfig.from_json_dict(s["train"])})
        settings.validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(f"reproduce-trends config: {e}")
    s["train"] = asdict(settings.train)
    del s["train"]["seed"]  # each trend seed is its own training seed
    out = _out_dir(args, ["trends.json"])
    try:
        report = reproduce_trends(settings)
    except ValueError as e:
        raise DataError(f"reproduce-trends: {e}")
    write_json(out / "trends.json", report.to_json_dict())
    _write_manifest(out, "reproduce-trends", s, {}, ["trends.json"])
    print(report.format_table())
    return EXIT_OK


# {name: (function, help)}
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic world, split, and dataset files"),
    "train": (cmd_train, "train the three-branch model from a gen-data directory"),
    "eval-hoi": (cmd_eval, "detection mAP report (Full/Rare/NonRare)"),
    "zeroshot": (cmd_eval, "detection mAP report with Unseen/Seen groups"),
    "build-bank": (cmd_build_bank, "sample the affordance feature bank from training data"),
    "affordance": (cmd_affordance, "recognize affordances of external objects and score them"),
    "gradcheck": (cmd_gradcheck, "verify analytic gradients against finite differences"),
    "reproduce-trends": (cmd_reproduce_trends, "multi-seed transfer-on vs transfer-off comparison"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoicompose",
        description="Compositional HOI learning on synthetic desk-scale worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
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
