import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hoicompose
from hoicompose.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main
from hoicompose.pipeline import load_checkpoint


def write_config(path: Path, body: dict) -> str:
    path.write_text(json.dumps({"schema_version": 1, **body}))
    return str(path)


def run(cmd, config=None, out=None, seed=None):
    argv = [cmd]
    if config is not None:
        argv += ["--config", str(config)]
    if out is not None:
        argv += ["--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


TINY_WORLD = {"n_verbs": 4, "n_objects": 6, "c_pairs": 14, "feat_dim": 6}
TINY_DATASET = {"n_train": 150, "n_test": 60, "n_external_objects": 60}
TINY_TRAIN = {"iterations": 200, "hidden": 12, "spatial_resolution": 6, "trace_every": 50}

DATA_FILES = ["taxonomy.json", "world.json", "split.json",
              "train.jsonl", "test.jsonl", "external.jsonl"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "gen.json", {
        "world": TINY_WORLD,
        "dataset": TINY_DATASET,
        "split": {"mode": "novel-object"},
        "seed": 0,
    })
    out = root / "data"
    out.mkdir()
    assert run("gen-data", cfg, out) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained_dir(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    cfg = write_config(root / "train.json", {
        "data_dir": str(data_dir),
        "train": TINY_TRAIN,
        "seed": 0,
    })
    out = root / "run"
    out.mkdir()
    assert run("train", cfg, out) == EXIT_OK
    return out


def test_gen_data_outputs_and_manifest(data_dir):
    for name in DATA_FILES + ["manifest.json"]:
        assert (data_dir / name).is_file()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["outputs"] == sorted(DATA_FILES)
    assert "config_sha256" in manifest
    # reproducibility artifacts carry no wall-clock state
    assert not any("time" in k or "date" in k for k in manifest)


def test_gen_data_rerun_byte_identical(data_dir, tmp_path):
    cfg = write_config(tmp_path / "gen.json", {
        "world": TINY_WORLD,
        "dataset": TINY_DATASET,
        "split": {"mode": "novel-object"},
        "seed": 0,
    })
    out = tmp_path / "again"
    out.mkdir()
    assert run("gen-data", cfg, out) == EXIT_OK
    for name in DATA_FILES:
        assert (out / name).read_bytes() == (data_dir / name).read_bytes(), name


def test_gen_data_seed_changes_data(data_dir, tmp_path):
    cfg = write_config(tmp_path / "gen.json", {
        "world": TINY_WORLD,
        "dataset": TINY_DATASET,
        "split": {"mode": "novel-object"},
        "seed": 0,
    })
    out = tmp_path / "seed7"
    out.mkdir()
    assert run("gen-data", cfg, out, seed=7) == EXIT_OK
    assert (out / "train.jsonl").read_bytes() != (data_dir / "train.jsonl").read_bytes()


def test_train_outputs(trained_dir, data_dir):
    assert (trained_dir / "checkpoint.json").is_file()
    assert (trained_dir / "trace.csv").is_file()
    model, cfg = load_checkpoint(trained_dir / "checkpoint.json")
    assert cfg.iterations == TINY_TRAIN["iterations"]
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert set(manifest["inputs"]) == {"taxonomy", "train", "external"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_train_rerun_byte_identical(trained_dir, data_dir, tmp_path):
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data_dir),
        "train": TINY_TRAIN,
        "seed": 0,
    })
    out = tmp_path / "rerun"
    out.mkdir()
    assert run("train", cfg, out) == EXIT_OK
    for name in ("checkpoint.json", "trace.csv"):
        assert (out / name).read_bytes() == (trained_dir / name).read_bytes(), name


def test_train_summary_reports_composite_counts(data_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data_dir),
        "train": TINY_TRAIN,
        "seed": 0,
    })
    out = tmp_path / "summary"
    out.mkdir()
    assert run("train", cfg, out) == EXIT_OK
    summary = capsys.readouterr().out
    m = re.search(r"composite kept/valid/candidates (\d+)/(\d+)/(\d+)", summary)
    assert m, summary
    kept, valid, candidates = (int(g) for g in m.groups())
    assert 0 < kept <= valid <= candidates == TINY_TRAIN["iterations"] * 32 * 2
    manifest = (out / "manifest.json").read_text() + (out / "checkpoint.json").read_text()
    assert "composite" not in manifest


def test_train_baseline_flag(data_dir, tmp_path):
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data_dir),
        "train": TINY_TRAIN,
        "baseline": True,
        "seed": 0,
    })
    out = tmp_path / "base"
    out.mkdir()
    assert run("train", cfg, out) == EXIT_OK
    _, tcfg = load_checkpoint(out / "checkpoint.json")
    assert tcfg.lambda2 == 0.0 and tcfg.object_batch == 0


def test_train_zero_iterations(data_dir, tmp_path):
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data_dir),
        "train": {**TINY_TRAIN, "iterations": 0},
        "seed": 0,
    })
    out = tmp_path / "zero"
    out.mkdir()
    assert run("train", cfg, out) == EXIT_OK
    assert (out / "trace.csv").read_text().strip() == "step,L_sp,L_hoi,L_ATL,L_total"
    load_checkpoint(out / "checkpoint.json")  # still a complete model


def test_zeroshot_report(trained_dir, data_dir, tmp_path, capsys):
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data_dir),
        "checkpoint": str(trained_dir / "checkpoint.json"),
        "write_predictions": True,
    })
    out = tmp_path / "eval"
    out.mkdir()
    assert run("zeroshot", cfg, out) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert {"full", "rare", "nonrare", "unseen", "seen"} <= set(report["groups"])
    assert (out / "report.csv").is_file()
    assert (out / "predictions.jsonl").is_file()
    text = capsys.readouterr().out
    assert "unseen mAP" in text and "seen mAP" in text


def test_eval_hoi_needs_no_split(trained_dir, data_dir, tmp_path):
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data_dir),
        "checkpoint": str(trained_dir / "checkpoint.json"),
    })
    out = tmp_path / "eval"
    out.mkdir()
    assert run("eval-hoi", cfg, out) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert set(report["groups"]) == {"full", "rare", "nonrare"}
    assert not (out / "predictions.jsonl").exists()


@pytest.mark.parametrize("cmd", ["eval-hoi", "zeroshot"])
@pytest.mark.parametrize("key,value", [("s_h", -1.0), ("s_h", 5.0), ("s_o", -1.0), ("s_o", 5.0),
                                       ("s_o", "high")])
def test_eval_rejects_confidence_outside_unit_interval(trained_dir, data_dir, tmp_path, cmd, key, value):
    # -1 would silently reverse the ranking, 5 would write scores above 1
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data_dir),
        "checkpoint": str(trained_dir / "checkpoint.json"),
        key: value,
    })
    assert run(cmd, cfg, tmp_path) == EXIT_CONFIG
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("cmd,body,needle", [
    ("gen-data", {"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ("gen-data", {"dataset": {"n_train": 7.5}}, "n_train must be an integer, got 7.5"),
    ("train", {"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ("train", {"seed": -1}, "seed must be nonnegative"),
    ("train", {"baseline": "yes"}, "baseline must be true or false"),
    ("train", {"train": {"hidden": "x"}}, "hidden must be an integer, got 'x'"),
    ("build-bank", {"m": "many"}, "m must be an integer, got 'many'"),
    ("zeroshot", {"rare_threshold": "x"}, "rare_threshold must be an integer, got 'x'"),
    ("eval-hoi", {"write_predictions": "true"}, "write_predictions must be true or false"),
    ("affordance", {"hoi_threshold": "hi"}, "hoi_threshold must be a number, got 'hi'"),
    ("affordance", {"keep_threshold": 2}, "keep_threshold 2.0 must lie in [0, 1]"),
    ("affordance", {"novel_only": "false"}, "novel_only must be true or false"),
    ("gradcheck", {"n_configs": "x"}, "n_configs must be an integer, got 'x'"),
    ("gradcheck", {"tolerance": "tight"}, "tolerance must be a number, got 'tight'"),
    ("reproduce-trends", {"seeds": "ab"}, "seeds must be a list, got 'ab'"),
    ("reproduce-trends", {"seeds": [0, "1"]}, "seeds must be nonnegative integers, got [0, '1']"),
    ("reproduce-trends", {"seeds": [True]}, "seeds must be nonnegative integers"),
    ("reproduce-trends", {"seeds": [-1]}, "seeds must be nonnegative integers"),
    ("gen-data", {"world": {"noise_sigma": "x"}}, "noise_sigma must be a number, got 'x'"),
    ("gen-data", {"split": {"mode": 3}}, "mode must be a string, got 3"),
])
def test_malformed_config_scalar_is_config_error(data_dir, trained_dir, tmp_path, capsys, cmd, body, needle):
    # most used to end in a traceback (exit 1), exit 3, or a run that read 7.5 as 7,
    # "yes" or "false" as true and "1" as seed 1
    files = {"data_dir": str(data_dir), "checkpoint": str(trained_dir / "checkpoint.json"),
             "bank": str(tmp_path / "bank.json")}
    needs = {"train": ["data_dir"], "build-bank": ["data_dir"], "zeroshot": ["data_dir", "checkpoint"],
             "eval-hoi": ["data_dir", "checkpoint"], "affordance": ["data_dir", "checkpoint", "bank"]}
    cfg = write_config(tmp_path / "cfg.json", {**{k: files[k] for k in needs.get(cmd, [])}, **body})
    out = tmp_path / "out"
    assert run(cmd, cfg, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err, err
    assert not out.exists() or not any(out.iterdir())


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    # gradcheck used to end in a traceback from the seed stream
    assert run("gradcheck", out=tmp_path, seed=-1) == EXIT_CONFIG
    assert "config error: seed must be nonnegative, got -1" in capsys.readouterr().err


def test_zeroshot_rejects_schema_1_checkpoint(trained_dir, data_dir, tmp_path, capsys):
    d = json.loads((trained_dir / "checkpoint.json").read_text())
    assert d["schema_version"] == 2
    d["schema_version"] = 1
    d["verb_head"] = None
    d["config"].update(lambda_aux=0.0, lr_decay_step=None)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(d))
    cfg = write_config(tmp_path / "eval.json", {"data_dir": str(data_dir), "checkpoint": str(old)})
    assert run("zeroshot", cfg, tmp_path) == EXIT_DATA
    assert "schema_version 1" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("lambda_aux", 0.5), ("lr_decay_step", 100)])
def test_train_rejects_removed_config_fields(data_dir, tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data_dir),
        "train": {**TINY_TRAIN, key: value},
    })
    assert run("train", cfg, tmp_path) == EXIT_CONFIG
    assert f"unknown training config fields: ['{key}']" in capsys.readouterr().err


def test_zeroshot_rejects_trivial_split(trained_dir, tmp_path):
    gen = write_config(tmp_path / "gen.json", {
        "world": TINY_WORLD,
        "dataset": {"n_train": 30, "n_test": 10, "n_external_objects": 5},
        "split": {"mode": "none"},
        "seed": 0,
    })
    data = tmp_path / "data"
    data.mkdir()
    assert run("gen-data", gen, data) == EXIT_OK
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(trained_dir / "checkpoint.json"),
    })
    assert run("zeroshot", cfg, tmp_path) == EXIT_DATA


def test_rare_first_split_end_to_end(tmp_path):
    gen = write_config(tmp_path / "gen.json", {
        "world": TINY_WORLD,
        "dataset": TINY_DATASET,
        "split": {"mode": "unseen-composition-rare-first"},
        "seed": 0,
    })
    data = tmp_path / "data"
    assert run("gen-data", gen, data) == EXIT_OK
    split = json.loads((data / "split.json").read_text())
    unseen = set(split["unseen_hoi_ids"])
    assert split["mode"] == "unseen-composition-rare-first" and unseen
    for line in (data / "train.jsonl").read_text().splitlines():
        label = json.loads(line)["hoi_label"]
        assert not any(label[c] for c in unseen)

    train_cfg = write_config(tmp_path / "train.json", {"data_dir": str(data), "train": TINY_TRAIN})
    assert run("train", train_cfg, tmp_path / "run") == EXIT_OK
    eval_cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(tmp_path / "run" / "checkpoint.json"),
    })
    assert run("zeroshot", eval_cfg, tmp_path / "eval") == EXIT_OK
    groups = json.loads((tmp_path / "eval" / "report.json").read_text())["groups"]
    assert groups["unseen"]["category_ids"]
    assert set(groups["unseen"]["category_ids"]) <= unseen


# --- input checked where it is loaded: exit 3, a message naming the file, no output file ---

def corrupt_copy(data_dir, dest, name, edit):
    """A copy of data_dir where edit has changed record 5 of a .jsonl file in
    place (or returned its replacement), or changed a .json document."""
    shutil.copytree(data_dir, dest)
    path = dest / name
    if name.endswith(".jsonl"):
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        replacement = edit(record)
        lines[4] = json.dumps(record if replacement is None else replacement)
        path.write_text("\n".join(lines) + "\n")
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return dest


def assert_data_error(capsys, out, *needles):
    err = capsys.readouterr().err
    assert err.startswith("data error: failed to load "), err
    for needle in needles:
        assert needle in err, err
    assert not any(out.iterdir()), sorted(out.iterdir())


TEST_RECORD_FAULTS = {
    "nan-verb-feat": (lambda r: r["verb_feat"].__setitem__(1, float("nan")), "verb_feat is not finite"),
    "degenerate-human-box": (lambda r: r["human_box"].__setitem__(2, r["human_box"][0]),
                             "human_box is degenerate"),
    "short-hoi-label": (lambda r: r.update(hoi_label=r["hoi_label"][:-1]), "hoi_label has shape"),
    "fractional-object-label": (lambda r: r.update(object_label=r["object_label"] + 0.5),
                                "object_label is not integral"),
    "fractional-hoi-bit": (lambda r: r["hoi_label"].__setitem__(r["hoi_label"].index(1), 1.9),
                           "hoi_label is not integral"),
    "string-object-label": (lambda r: r.update(object_label=str(r["object_label"])),
                            "object_label is not a number"),
    "boolean-hoi-bit": (lambda r: r["hoi_label"].__setitem__(r["hoi_label"].index(1), True),
                        "hoi_label is not a number"),
    "string-human-box": (lambda r: r.update(human_box=[str(x) for x in r["human_box"]]),
                         "human_box is not a number"),
    "unknown-field": (lambda r: r.update(object_bbox=r["object_box"]), "unknown record fields: ['object_bbox']"),
}


@pytest.mark.parametrize("cmd", ["eval-hoi", "zeroshot"])
@pytest.mark.parametrize("fault", sorted(TEST_RECORD_FAULTS))
def test_eval_rejects_bad_test_record(trained_dir, data_dir, tmp_path, capsys, cmd, fault):
    edit, why = TEST_RECORD_FAULTS[fault]
    data = corrupt_copy(data_dir, tmp_path / "data", "test.jsonl", edit)
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(trained_dir / "checkpoint.json"),
    })
    out = tmp_path / "out"
    assert run(cmd, cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, f"test.jsonl: record 5: {why}")


@pytest.mark.parametrize("cmd", ["eval-hoi", "zeroshot", "affordance"])
@pytest.mark.parametrize("world", [{"feat_dim": 8}, {"c_pairs": 13}])
def test_checkpoint_must_fit_the_data(trained_dir, tmp_path, capsys, cmd, world):
    gen = write_config(tmp_path / "gen.json", {
        "world": {**TINY_WORLD, **world},
        "dataset": TINY_DATASET,
        "split": {"mode": "novel-object"},
        "seed": 0,
    })
    data = tmp_path / "data"
    assert run("gen-data", gen, data) == EXIT_OK
    body = {"data_dir": str(data), "checkpoint": str(trained_dir / "checkpoint.json")}
    if cmd == "affordance":
        bank_cfg = write_config(tmp_path / "bank.json", {"data_dir": str(data)})
        assert run("build-bank", bank_cfg, tmp_path / "bank") == EXIT_OK
        body["bank"] = str(tmp_path / "bank" / "bank.json")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(cmd, write_config(tmp_path / "cmd.json", body), out) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoint ") and "checkpoint.json" in err, err
    assert "does not fit" in err and not any(out.iterdir())


def test_zeroshot_rejects_split_with_unknown_category(trained_dir, data_dir, tmp_path, capsys):
    data = corrupt_copy(data_dir, tmp_path / "data", "split.json",
                        lambda d: d["unseen_hoi_ids"].append(999))
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(trained_dir / "checkpoint.json"),
    })
    out = tmp_path / "out"
    assert run("zeroshot", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, "split.json: split does not cover all categories")


def test_build_bank_rejects_nonfinite_verb_feat(data_dir, tmp_path, capsys):
    # m above every pool size: at the parent commit the NaN reached bank.json
    data = corrupt_copy(data_dir, tmp_path / "data", "train.jsonl",
                        lambda r: r["verb_feat"].__setitem__(3, float("nan")))
    out = tmp_path / "out"
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data), "m": 1000}),
               out) == EXIT_DATA
    assert_data_error(capsys, out, "train.jsonl: record 5: verb_feat is not finite")


@pytest.mark.parametrize("edit", [
    lambda r: [r["kind"], r["object_label"]],  # a record that is not a JSON object
    lambda r: r.update(object_label=None),
    lambda r: r["hoi_label"].__setitem__(0, 300),  # out of int8 range
])
def test_malformed_record_is_data_error(data_dir, tmp_path, capsys, edit):
    data = corrupt_copy(data_dir, tmp_path / "data", "train.jsonl", edit)
    out = tmp_path / "out"
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data)}), out) == EXIT_DATA
    assert_data_error(capsys, out, "train.jsonl: ")


@pytest.mark.parametrize("iterations", [0, 5])
def test_train_rejects_nonfinite_human_feat(data_dir, tmp_path, capsys, iterations):
    # rejected at load, whether or not a batch would ever sample the bad record
    data = corrupt_copy(data_dir, tmp_path / "data", "train.jsonl",
                        lambda r: r["human_feat"].__setitem__(0, float("nan")))
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data),
        "train": {**TINY_TRAIN, "iterations": iterations},
    })
    out = tmp_path / "out"
    assert run("train", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, "train.jsonl: record 5: human_feat is not finite")


def test_bank_and_affordance_chain(trained_dir, data_dir, tmp_path):
    bank_cfg = write_config(tmp_path / "bank.json", {
        "data_dir": str(data_dir), "m": 20, "seed": 0,
    })
    bank_out = tmp_path / "bank"
    bank_out.mkdir()
    assert run("build-bank", bank_cfg, bank_out) == EXIT_OK
    bank_doc = json.loads((bank_out / "bank.json").read_text())
    assert bank_doc["m"] == 20

    aff_cfg = write_config(tmp_path / "aff.json", {
        "data_dir": str(data_dir),
        "checkpoint": str(trained_dir / "checkpoint.json"),
        "bank": str(bank_out / "bank.json"),
    })
    aff_out = tmp_path / "aff"
    aff_out.mkdir()
    assert run("affordance", aff_cfg, aff_out) == EXIT_OK
    doc = json.loads((aff_out / "affordance.json").read_text())
    assert "prf1" in doc and "objects" in doc
    assert len(doc["objects"]) > 0
    # novel_only keeps exactly the held-out objects
    split = json.loads((data_dir / "split.json").read_text())
    novel = set(split["unseen_object_ids"])
    assert {row["object_label"] for row in doc["objects"]} <= novel


def test_gradcheck_passes_and_writes(tmp_path):
    cfg = write_config(tmp_path / "gc.json", {"n_configs": 5})
    assert run("gradcheck", cfg, tmp_path) == EXIT_OK
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["passed"] is True
    assert doc["max_rel_error"] < 1e-4
    assert doc["end_to_end_max_rel_error"] < 1e-3


def test_gradcheck_impossible_tolerance_fails(tmp_path):
    cfg = write_config(tmp_path / "gc.json", {"n_configs": 2, "tolerance": 0.0})
    assert run("gradcheck", cfg, tmp_path) == EXIT_DIVERGED
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["passed"] is False


def test_train_divergence_exit_code(tmp_path):
    # full-width default world: huge lr overflows into NaN within a step or two
    gen = write_config(tmp_path / "gen.json", {
        "dataset": {"n_train": 40, "n_test": 5, "n_external_objects": 10},
        "seed": 0,
    })
    data = tmp_path / "data"
    data.mkdir()
    assert run("gen-data", gen, data) == EXIT_OK
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data),
        "train": {"iterations": 10, "lr": 1e160},
        "seed": 0,
    })
    with np.errstate(all="ignore"):
        assert run("train", cfg, tmp_path) == EXIT_DIVERGED


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "gen.json", {"wrold": {}})
    assert run("gen-data", cfg, tmp_path) == EXIT_CONFIG


def test_unknown_nested_key_rejected(tmp_path):
    cfg = write_config(tmp_path / "gen.json", {"world": {"n_verts": 3}})
    assert run("gen-data", cfg, tmp_path) == EXIT_CONFIG


def test_config_schema_version_checked(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"schema_version": 99}))
    assert run("gen-data", path, tmp_path) == EXIT_CONFIG


def test_config_must_be_valid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run("train", path, tmp_path) == EXIT_CONFIG


def test_config_file_missing(tmp_path):
    assert run("train", tmp_path / "ghost.json", tmp_path) == EXIT_CONFIG


def test_train_requires_data_dir(tmp_path):
    cfg = write_config(tmp_path / "train.json", {"train": {}})
    assert run("train", cfg, tmp_path) == EXIT_CONFIG


def test_train_missing_data_dir_is_data_error(tmp_path):
    cfg = write_config(tmp_path / "train.json", {"data_dir": str(tmp_path / "nowhere")})
    assert run("train", cfg, tmp_path) == EXIT_DATA


def test_eval_missing_checkpoint_is_data_error(data_dir, tmp_path):
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data_dir),
        "checkpoint": str(tmp_path / "ghost.json"),
    })
    assert run("eval-hoi", cfg, tmp_path) == EXIT_DATA


def test_corrupt_data_file_is_data_error(data_dir, tmp_path):
    broken = tmp_path / "data"
    broken.mkdir()
    for name in DATA_FILES:
        (broken / name).write_bytes((data_dir / name).read_bytes())
    (broken / "taxonomy.json").write_text('{"schema_version": 1}')
    cfg = write_config(tmp_path / "bank.json", {"data_dir": str(broken)})
    assert run("build-bank", cfg, tmp_path) == EXIT_DATA


def test_out_env_var_used(data_dir, tmp_path, monkeypatch):
    out = tmp_path / "envout"
    out.mkdir()
    monkeypatch.setenv("HOICOMPOSE_OUT", str(out))
    cfg = write_config(tmp_path / "bank.json", {"data_dir": str(data_dir), "m": 5})
    assert run("build-bank", cfg) == EXIT_OK
    assert (out / "bank.json").is_file()


def test_reproduce_trends_smoke(tmp_path, capsys):
    # one seed at toy sizes: exercises the command, not the trend margins
    cfg = write_config(tmp_path / "t.json", {
        "seeds": [0],
        "n_train": 250, "n_test": 60, "n_external": 60,
        "train": {"iterations": 250, "hidden": 24, "spatial_resolution": 8},
    })
    assert run("reproduce-trends", cfg, tmp_path) == EXIT_OK
    doc = json.loads((tmp_path / "trends.json").read_text())
    assert set(doc["checks"]) == {"unseen_map_gain", "seen_map_preserved",
                                  "affordance_f1_gap", "affordance_map_higher", "bank_stable"}
    assert len(doc["per_seed"]) == 1
    out = capsys.readouterr().out
    assert "bank stability" in out and "check unseen_map_gain" in out


def test_reproduce_trends_config_validation(tmp_path):
    cfg = write_config(tmp_path / "t.json", {"train": {"not_a_field": 1}})
    assert run("reproduce-trends", cfg, tmp_path) == EXIT_CONFIG
    cfg2 = write_config(tmp_path / "t2.json", {"seeds": []})
    assert run("reproduce-trends", cfg2, tmp_path) == EXIT_CONFIG


def run_python(*argv):
    # a separate Python process importing this checkout's package whatever the
    # working directory and whatever copy is installed
    env = dict(os.environ)
    src = str(Path(hoicompose.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def run_program(*argv):
    return run_python("-m", "hoicompose", *argv)


def test_console_script_runs(tmp_path):
    proc = run_program("gradcheck", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: hoicompose gradcheck")
    assert "--seed" in proc.stdout
    # the exit code of main() must reach the process exit status
    cfg = write_config(tmp_path / "train.json", {"data_dir": str(tmp_path / "nowhere")})
    proc = run_program("train", "--config", cfg, "--out", str(tmp_path))
    assert proc.returncode == EXIT_DATA, proc.stderr


def test_gradient_check_demo_runs():
    # the one demo that builds a StepBatch and calls step_grad_check
    demo = Path(__file__).resolve().parents[1] / "demos" / "gradient_check.py"
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "end-to-end composite step:" in proc.stdout


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"hoicompose": "hoicompose.cli:main"}
    module, _, attr = scripts["hoicompose"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
