import copy
import hashlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from test_affordance import bank_to_json_dict
from test_pipeline import checkpoint_to_json_dict

import hoicompose
from hoicompose import cli, experiments, pipeline
from hoicompose.affordance import AffordanceBank
from hoicompose.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGED, EXIT_OK, main
from hoicompose.experiments import TrendSettings, reproduce_trends
from hoicompose.jsonfile import write_json
from hoicompose.pipeline import TrainConfig, load_checkpoint, train
from hoicompose.synth import HOISet, load_instances, save_instances
from hoicompose.taxonomy import Taxonomy


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

DATA_FILES = ["taxonomy.json", "split.json"]
DATA_DIRS = ["train", "test", "external"]  # one <column>.npy per field


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


def tree_bytes(path: Path) -> dict:
    """Every file under path (relative name -> bytes)."""
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def test_gen_data_outputs_and_manifest(data_dir):
    for name in DATA_FILES + ["manifest.json"]:
        assert (data_dir / name).is_file()
    assert sorted(p.name for p in (data_dir / "test").iterdir()) == [
        "hoi_label.npy", "human_box.npy", "human_feat.npy", "object_box.npy", "object_feat.npy",
        "object_label.npy", "verb_feat.npy"]
    assert sorted(p.name for p in (data_dir / "external").iterdir()) == [
        "object_box.npy", "object_feat.npy", "object_label.npy"]
    assert not (data_dir / "world.json").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["outputs"] == sorted(DATA_FILES + DATA_DIRS)
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
    assert tree_bytes(out) == tree_bytes(data_dir)  # the manifest too


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
    assert (out / "train" / "verb_feat.npy").read_bytes() != (data_dir / "train" / "verb_feat.npy").read_bytes()


# The sha256 of every file gen-data writes at the byte-identity chain's config
# (tools/chain_digest.py): 4000/3200/6400 rows, novel-object, seed 7, but its
# manifest, whose blas block names the machine's BLAS build. None of them
# depends on the BLAS.
CHAIN_GEN_DATA_SHA256 = {
    "external/object_box.npy": "a4b9131779b4e36af57f184c9ff6aafa61742bc9ea0cee8a8be084c621520fa9",
    "external/object_feat.npy": "7492467b1a7ecaaf9768c62e4dafbad668331e1a53b930a3e17ef8cacaff1ae0",
    "external/object_label.npy": "2123822e48f6ad4bde3e7501fca2b8857526d7245235e4d9ef9a604cd401aaa1",
    "split.json": "8ff2c5fd3e882cce1a1e7d2c4c38c98bdb31da82f870f139c05a541e97b55877",
    "taxonomy.json": "e89ed2791e2d008841d5a0cf381fda1e2035d46d189ce93ebcdf915e1fbdbb74",
    "test/hoi_label.npy": "fff46b6f2cc8bacc4b8c0c1fdf5067d7d49affdecb3f9417ea005dd7f21325ab",
    "test/human_box.npy": "f6aa5ad9e97870466773b1dbc12ae7cbb2d25d01299f56744c4f53d18a6ef1ac",
    "test/human_feat.npy": "e57d88aef2ce7f11241de7f0ebc488e41ffbbf9abd0dcb02a18137c84c581ed4",
    "test/object_box.npy": "7d8def407d2c8154468c6398d3a655ad74ebdb144f5409d30f797375e473a86a",
    "test/object_feat.npy": "621c3b92d54bf362c3fa4c4a635b2b54450bbae201f2304a250a52e30f95cec6",
    "test/object_label.npy": "713fa3fcc1a937b9e29581f651ddcb3344c155bde4ca206b64b002859faab196",
    "test/verb_feat.npy": "edb3e2f3db0311ab8fe9ca30785d9125a72575dca9e8d566706c8e885ea00c6a",
    "train/hoi_label.npy": "9796c84ac44c2dddb7c728e088b19adf71596e91ab6c786fdc72dac6abd1a31d",
    "train/human_box.npy": "cce1a09d3f956b69dda0320e0dc030ddea9b6577ce75d8d270569575bc9dba4f",
    "train/human_feat.npy": "ab691362612f379b52e90732727a5c205d5c180f1f84d21fde9771d943b12a74",
    "train/object_box.npy": "859fed8c83a3a8c20309161a66fc683556d5b40495109f47fadacd5e1aaced90",
    "train/object_feat.npy": "323f461bd33f552799affd428f3950652d4dd941fbbf7f82679b5a1f3a72ec82",
    "train/object_label.npy": "5e20cebb7f5083496db46bb769a949cdfc7b7eecc1ea45d725f6068094fe1113",
    "train/verb_feat.npy": "68bb48d348885bae4ac1a88ec94f3c658f744e3e1df5ed2ce02513001bbfbfca",
}
CHAIN_GEN_DATA_STDOUT_SHA256 = "7c847d03955f2babc9f774f5ed67786a0ef4399dc7f4c48a2d2e840108f5a850"
# build-bank's files but its manifest, and its stdout, at the chain's default
# config over that data; no training comes before it, so tier-1 can afford it
CHAIN_BUILD_BANK_SHA256 = {
    "bank.json": "976a7da69366dd0f3de5c2b066d2475a8c25b0f5c9d516dd3ac7e28da1ece73a",
    "entries.npy": "ea2bca533d2894f6cd7bd854a31e168d8e539bc7d62b7bb506afd8554f1d9c8c",
}
CHAIN_BUILD_BANK_STDOUT_SHA256 = "b359c286bfc4b46b2adc6576bc00aec979faa07d60fd6674bb3032bba3d1b842"
# the zeroshot and affordance outputs that do not depend on the BLAS build (the
# checkpoint, trace, predictions and the manifests do; none depends on the thread
# count); the predictions' rows are the test set's, whose boxes are pinned above
CHAIN_THREAD_FREE_SHA256 = {
    "zeroshot/report.json": "31d0b3d2a25fa383a10d42c0ba9e02a68245e4bb409ea59f0401a649ada1d297",
    "zeroshot/report.csv": "8930d848e9437956c0af46bf62620f27942d4486a1a94d854916377f1c0ef719",
    "affordance/affordance.json": "7a0d32dd2c1b70f5c9d820aa8e1d9a45bb73073b7176fb73b72e6918aaac779d",
    "affordance/objects/object_label.npy": "8d9b1c4ae8da06297a1bddcef07338e65c441385bfdade0614eb20832ce4436b",
    "affordance/objects/scores.npy": "d6997144b44aabc1b99b4aea4d3f99c0301526233167cba3e6d3f0adc0e35279",
}
CHAIN_STDOUT_SHA256 = {
    "zeroshot": "ca5a1e598fc9111b3ac300fe184cb3aec98683e6324f1184bbb2cbd677ac7443",
    "affordance": "a00499d337c10a25dc970cab591696b2dd472417edc71fa61456e0f0ef6cd73f",
}
# the chain's affordance.json when it also held one "objects" row per probed object
CHAIN_AFFORDANCE_ROWS_SHA256 = "54dd280e186c58d6479428c84c550a188e4ce6903ab0eb335907ed20725f6804"
# the chain's bank.json when it was schema 1, every entry a list of JSON numbers
CHAIN_BANK_SCHEMA_1_SHA256 = "4a62b16c5801c0bf2066e6fc3d1b31500fed4ceac9ae6d1b4ae980f0277d7e65"


def unmanifested_sha256(path) -> dict:
    """{name: sha256} of the files under path but its manifest."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(Path(path)).items()
            if name != "manifest.json"}


def test_gen_data_writes_the_chain_bytes(tmp_path, monkeypatch, capsys):
    # run as the chain runs it: in its output root, on relative paths
    monkeypatch.chdir(tmp_path)
    config = {"dataset": {"n_train": 4000, "n_test": 3200, "n_external_objects": 6400},
              "split": {"mode": "novel-object"}, "seed": 7}
    Path("gen-data.json").write_text(json.dumps(config, sort_keys=True) + "\n")
    assert main(["gen-data", "--config", "gen-data.json", "--out", "gen-data"]) == EXIT_OK
    assert unmanifested_sha256("gen-data") == CHAIN_GEN_DATA_SHA256
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHAIN_GEN_DATA_STDOUT_SHA256

    Path("build-bank.json").write_text(json.dumps({"data_dir": "gen-data"}, sort_keys=True) + "\n")
    assert main(["build-bank", "--config", "build-bank.json", "--out", "build-bank"]) == EXIT_OK
    assert unmanifested_sha256("build-bank") == CHAIN_BUILD_BANK_SHA256
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHAIN_BUILD_BANK_STDOUT_SHA256
    # entries.npy holds the very numbers the schema-1 bank.json spelt out
    write_json("bank-schema-1.json", bank_to_json_dict(AffordanceBank.load("build-bank/bank.json")), indent=None)
    assert hashlib.sha256(Path("bank-schema-1.json").read_bytes()).hexdigest() == CHAIN_BANK_SCHEMA_1_SHA256

    # train, then zeroshot and affordance on its checkpoint: of their files, only
    # those that do not depend on the BLAS build are checked
    for step, config in (("train", {"data_dir": "gen-data"}),
                         ("zeroshot", {"data_dir": "gen-data", "checkpoint": "train/checkpoint.json",
                                       "write_predictions": True}),
                         ("affordance", {"data_dir": "gen-data", "checkpoint": "train/checkpoint.json",
                                         "bank": "build-bank/bank.json"})):
        Path(f"{step}.json").write_text(json.dumps(config, sort_keys=True) + "\n")
        assert main([step, "--config", f"{step}.json", "--out", step]) == EXIT_OK
        out = capsys.readouterr().out
        if step in CHAIN_STDOUT_SHA256:
            assert hashlib.sha256(out.encode()).hexdigest() == CHAIN_STDOUT_SHA256[step], step
    for name, digest in CHAIN_THREAD_FREE_SHA256.items():
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name
    assert sorted(p.name for p in Path("zeroshot/predictions").iterdir()) == ["scores.npy"]

    # the per-object rows follow from objects/, the taxonomy, the bank and the thresholds
    doc = json.loads(Path("affordance/affordance.json").read_text())
    del doc["schema_version"]
    assert doc.pop("arrays") == {name: CHAIN_THREAD_FREE_SHA256[f"affordance/{name}"]
                                 for name in ("objects/scores.npy", "objects/object_label.npy")}
    tax = Taxonomy.load("gen-data/taxonomy.json")
    bank = AffordanceBank.load("build-bank/bank.json")
    scores = np.load("affordance/objects/scores.npy", allow_pickle=False)
    labels = np.load("affordance/objects/object_label.npy", allow_pickle=False)
    probed = np.isin(np.arange(tax.n_verbs), list(bank.entries))
    write_json("rows.json", {**doc, "objects": object_dicts(
        scores > doc["keep_threshold"], tax.affordance_matrix()[labels], scores, probed, labels.tolist(),
        tax.object_names)})
    assert hashlib.sha256(Path("rows.json").read_bytes()).hexdigest() == CHAIN_AFFORDANCE_ROWS_SHA256


def test_train_outputs(trained_dir, data_dir):
    assert (trained_dir / "checkpoint.json").is_file()
    assert (trained_dir / "trace.csv").is_file()
    load_checkpoint(trained_dir / "checkpoint.json")
    manifest = json.loads((trained_dir / "manifest.json").read_text())
    assert TrainConfig.from_json_dict(manifest["config"]["train"]).iterations == TINY_TRAIN["iterations"]
    assert set(manifest["inputs"]) == {"taxonomy", "train", "external"}
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64
    # a column directory hashes as its sorted "<file name> <sha256>" lines
    lines = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                    for p in sorted((data_dir / "train").iterdir()))
    assert manifest["inputs"]["train"]["sha256"] == hashlib.sha256(lines.encode()).hexdigest()


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
    tcfg = TrainConfig.from_json_dict(json.loads((out / "manifest.json").read_text())["config"]["train"])
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
    assert sorted(p.name for p in (out / "predictions").iterdir()) == ["scores.npy"]
    assert not (out / "predictions.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["predictions", "report.csv", "report.json"]
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
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.csv", "report.json"]


@pytest.mark.parametrize("n_test", [60, 0])
def test_predictions_directory_is_the_predicted_grid(trained_dir, data_dir, tmp_path, n_test):
    # predictions/scores.npy reads back as predict_dataset's grid bit for bit:
    # row i scores test row i, and scores[:, c] category c
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    test_set = load_instances(data / "test", HOISet)[:n_test]
    save_instances(data / "test", test_set)
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(trained_dir / "checkpoint.json"),
        "write_predictions": True,
    })
    out = tmp_path / "eval"
    assert run("eval-hoi", cfg, out) == EXIT_OK
    back = np.load(out / "predictions" / "scores.npy", allow_pickle=False)
    model = load_checkpoint(trained_dir / "checkpoint.json")
    want = pipeline.predict_dataset(model, test_set, Taxonomy.load(data / "taxonomy.json"))
    assert len(back) == len(test_set) == n_test
    assert (back.dtype, back.shape) == (want.dtype, want.shape) == (np.dtype("<f8"), (n_test, want.shape[1]))
    assert back.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_rows", [60, 0])
def test_predictions_directory_is_not_a_test_set(trained_dir, data_dir, tmp_path, capsys, n_rows):
    # a predictions directory in the test set's place is refused by its column
    # files, when it has no rows too
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    first = tmp_path / "first"
    body = {"data_dir": str(data), "checkpoint": str(trained_dir / "checkpoint.json"), "write_predictions": True}
    assert run("eval-hoi", write_config(tmp_path / "eval.json", body), first) == EXIT_OK
    shutil.rmtree(data / "test")
    (data / "test").mkdir()
    np.save(data / "test" / "scores.npy", np.load(first / "predictions" / "scores.npy")[:n_rows])
    out = tmp_path / "out"
    assert run("eval-hoi", write_config(tmp_path / "eval.json", body), out) == EXIT_DATA
    assert_data_error(capsys, out, f"{data / 'test'}: unknown column files: ['scores.npy']")


@pytest.mark.parametrize("n_rows", [60, 0])
@pytest.mark.parametrize("cmd,key,source,why", [
    ("eval-hoi", "test", "external", "missing field 'human_box': no human_box.npy"),
    ("build-bank", "train", "external", "missing field 'human_box': no human_box.npy"),
    ("train", "external", "test", "unknown column files: ['hoi_label.npy', 'human_box.npy'"),
])
def test_set_directory_of_the_other_class_is_data_error(trained_dir, data_dir, tmp_path, capsys, n_rows,
                                                         cmd, key, source, why):
    # an object directory where an HOI set belongs, or an HOI directory where the
    # external objects belong, is refused by its column files, with rows or without
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    shutil.rmtree(data / key)
    (data / key).mkdir()
    for column in (data_dir / source).iterdir():
        np.save(data / key / column.name, np.load(column)[:n_rows])
    body = {"data_dir": str(data)}
    if cmd == "eval-hoi":
        body["checkpoint"] = str(trained_dir / "checkpoint.json")
    out = tmp_path / "out"
    assert run(cmd, write_config(tmp_path / "cfg.json", body), out) == EXIT_DATA
    assert_data_error(capsys, out, f"{data / key}: {why}")


@pytest.mark.parametrize("cmd", ["eval-hoi", "zeroshot"])
@pytest.mark.parametrize("key,value", [("s_h", -1.0), ("s_h", 5.0), ("s_o", -1.0), ("s_o", 5.0),
                                       ("s_o", "high"), ("s_h", 1.0), ("rare_threshold", 10)])
def test_eval_rejects_confidence_outside_unit_interval(trained_dir, data_dir, tmp_path, capsys, cmd, key, value):
    # ground-truth boxes have confidence 1 and rare is fixed at 10 training
    # instances: s_h, s_o and rare_threshold are no config keys, at any value
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data_dir),
        "checkpoint": str(trained_dir / "checkpoint.json"),
        key: value,
    })
    assert run(cmd, cfg, tmp_path) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: unknown {cmd} config fields: ['{key}']\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("cmd,body,needle", [
    ("gen-data", {"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ("gen-data", {"dataset": {"n_train": 7.5}}, "n_train must be an integer, got 7.5"),
    ("train", {"seed": "abc"}, "seed must be an integer, got 'abc'"),
    ("train", {"seed": -1}, "seed must be nonnegative"),
    ("train", {"baseline": "yes"}, "baseline must be true or false"),
    ("train", {"train": {"hidden": "x"}}, "hidden must be an integer, got 'x'"),
    ("build-bank", {"m": "many"}, "m must be an integer, got 'many'"),
    ("zeroshot", {"checkpoint": 3}, "checkpoint must be a string, got 3"),
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
    ("train", {"train": {"seed": -1}}, "train config: seed must be nonnegative, got -1"),
    ("train", {"train": {"hidden": 0}}, "train config: hidden must be at least 1"),
    ("reproduce-trends", {"train": {"hidden": 0}}, "reproduce-trends config: hidden must be at least 1"),
    ("train", {"train": {"lr": float("nan")}}, "train config: lr must be positive and finite"),
    ("train", {"train": {"lambda1": float("inf")}}, "train config: loss weights must be finite and nonnegative"),
    ("gen-data", {"dataset": {"co_label_prob": 1.5}}, "co_label_prob must lie in [0, 1], got 1.5"),
    ("gen-data", {"dataset": {"co_label_prob": -3}}, "co_label_prob must lie in [0, 1], got -3"),
    ("gen-data", {"world": {"n_verbs": True}}, "n_verbs must be an integer, got True"),
    ("gen-data", {"world": {"domain_shift_scale": "0.1"}}, "domain_shift_scale must be a number, got '0.1'"),
    ("gen-data", {"split": {"mode": "novel-object", "unseen_object_ids": [1.9, "3"]}},
     "split unseen_object_ids must hold integers, got 1.9"),
    ("gen-data", {"split": {"mode": "novel-object", "unseen_object_ids": [1, "3"]}},
     "split unseen_object_ids must hold integers, got '3'"),
    ("gen-data", {"world": {"noise_sigma": float("nan")}}, "noise_sigma must be finite and nonnegative, got nan"),
    ("gen-data", {"world": {"noise_sigma": float("inf")}}, "noise_sigma must be finite and nonnegative, got inf"),
    ("gen-data", {"world": {"tail_exponent": float("nan")}}, "tail_exponent must be finite and nonnegative, got nan"),
    ("gen-data", {"world": {"domain_shift_scale": float("inf")}}, "domain_shift_scale must be finite, got inf"),
    ("gen-data", {"world": {"domain_shift_scale": float("nan")}}, "domain_shift_scale must be finite, got nan"),
    ("gradcheck", {"tolerance": float("nan")}, "tolerance must be finite and nonnegative, got nan"),
    ("gradcheck", {"tolerance": -1e-4}, "tolerance must be finite and nonnegative, got -0.0001"),
    ("gradcheck", {"end_to_end_tolerance": float("inf")},
     "end_to_end_tolerance must be finite and nonnegative, got inf"),
    ("gradcheck", {"tolerance": 10**400}, "gradcheck config: int too large to convert to float"),
    ("gen-data", {"split": {"mode": "none", "unseen_count": 5}}, "split mode 'none' does not read unseen_count"),
    ("gen-data", {"split": {"mode": "novel-object", "unseen_count": 5}},
     "split mode 'novel-object' does not read unseen_count"),
    ("gen-data", {"split": {"unseen_object_ids": [1]}}, "split mode 'none' does not read unseen_object_ids"),
    ("gen-data", {"split": {"mode": "unseen-composition-rare-first", "unseen_object_ids": [1]}},
     "split mode 'unseen-composition-rare-first' does not read unseen_object_ids"),
    ("gen-data", {"dataset": {"n_train": 0}}, "dataset n_train must be at least 1, got 0"),
    ("gen-data", {"dataset": {"n_train": -3}}, "dataset n_train must be at least 1, got -3"),
    ("gen-data", {"world": {"no_interaction_verbs": [0]}},  # a removed key
     "unknown gen-data world config fields: ['no_interaction_verbs']"),
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


def readme_config_rows() -> dict:
    """README's "Keys (default)" table as {row: its key names}, where a row is
    ("command", name) for each command a row names and ("gen-data", section)
    for a gen-data section's row. A key name is a backticked name outside
    the parenthesised defaults."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| Command | Keys (default) |"):].split("\n\n")[0].splitlines()[2:]
    rows = {}
    for line in table:
        label, keys = line.strip("|").split(" | ")
        names = set(re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", keys)))
        section = re.fullmatch(r" gen-data `(\w+)`", label)
        if section:
            rows["gen-data", section[1]] = names
        else:
            rows.update((("command", c), names) for c in re.findall(r"`([\w-]+)`", label))
    return rows


def test_readme_config_table_names_every_key_and_no_other():
    # a key that leaves cli.SETTINGS or a gen-data section must leave the table too
    want = {**{("command", c): set(spec) for c, spec in cli.SETTINGS.items()},
            **{("gen-data", name): set(kinds) for name, kinds in cli._GEN_DATA_SECTIONS.items()}}
    assert readme_config_rows() == want


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    # gradcheck used to end in a traceback from the seed stream
    assert run("gradcheck", out=tmp_path, seed=-1) == EXIT_CONFIG
    assert "config error: seed must be nonnegative, got -1" in capsys.readouterr().err


def copy_checkpoint(trained_dir: Path, dest: Path) -> Path:
    """The path of a copy of trained_dir's checkpoint and its array files in dest."""
    dest.mkdir(exist_ok=True)
    for name in ("checkpoint.json", "sp_classifier.npy", "hoi_classifier.npy"):
        shutil.copy(trained_dir / name, dest / name)
    return dest / "checkpoint.json"


def edit_doc(doc: Path, edit) -> None:
    """Apply edit to the JSON document at doc, in place."""
    body = json.loads(doc.read_text())
    edit(body)
    doc.write_text(json.dumps(body))


def replace_array(doc: Path, name: str, array) -> None:
    """Write array, pickled if it is an object array, as the array file name beside
    the document doc, and record its sha256 there, so that the file fails only
    the checks of its own contents."""
    np.save(doc.parent / name, array, allow_pickle=True)
    digest = hashlib.sha256((doc.parent / name).read_bytes()).hexdigest()
    edit_doc(doc, lambda d: d["arrays"].update({name: digest}))


def test_zeroshot_rejects_schema_1_checkpoint(trained_dir, data_dir, tmp_path, capsys):
    d = json.loads((trained_dir / "checkpoint.json").read_text())
    assert d["schema_version"] == 3
    model = load_checkpoint(trained_dir / "checkpoint.json")
    config = json.loads((trained_dir / "manifest.json").read_text())["config"]["train"]
    # schema 1 carried a verb head and the training config, with two fields since
    # removed; schema 2 held the weights as JSON numbers
    schema_2 = checkpoint_to_json_dict(model)
    old = {**schema_2, "schema_version": 1, "verb_head": None,
           "config": {**config, "lambda_aux": 0.0, "lr_decay_step": None}}
    cfg = write_config(tmp_path / "eval.json", {"data_dir": str(data_dir), "checkpoint": str(tmp_path / "old.json")})
    for doc, needle in ((old, "schema_version 1"), ({**schema_2, "schema_version": 2}, "schema_version 2")):
        (tmp_path / "old.json").write_text(json.dumps(doc))
        assert run("zeroshot", cfg, tmp_path / "out") == EXIT_DATA
        assert f"unsupported checkpoint {needle}; this version reads 3" in capsys.readouterr().err
    # a schema-3 checkpoint that still carries the training config is refused too
    bad = copy_checkpoint(trained_dir, tmp_path / "ckpt")
    bad.write_text(json.dumps({**d, "config": config}))
    cfg = write_config(tmp_path / "eval.json", {"data_dir": str(data_dir), "checkpoint": str(bad)})
    assert run("zeroshot", cfg, tmp_path / "out") == EXIT_DATA
    assert "unknown checkpoint fields: ['config']" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("lambda_aux", 0.5), ("lr_decay_step", 100)])
def test_train_rejects_removed_config_fields(data_dir, tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data_dir),
        "train": {**TINY_TRAIN, key: value},
    })
    assert run("train", cfg, tmp_path) == EXIT_CONFIG
    assert f"unknown training config fields: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("edit,needle", [
    (lambda doc: replace_array(doc, "sp_classifier.npy", np.load(doc.parent / "sp_classifier.npy").astype(np.float32)),
     "sp_classifier.npy: dtype <f4, expected <f8"),
    (lambda doc: replace_array(doc, "hoi_classifier.npy", np.load(doc.parent / "hoi_classifier.npy").astype(object)),
     "hoi_classifier.npy: Object arrays cannot be loaded when allow_pickle=False"),
    (lambda doc: edit_doc(doc, lambda d: d["hoi_classifier"].update(extra=[1.0])),
     "unknown hoi_classifier fields: ['extra']"),
])
def test_checkpoint_of_non_numbers_is_data_error(trained_dir, data_dir, tmp_path, capsys, edit, needle):
    # a cast would read float32 or object weights as float64, and an unknown key went unread
    bad = copy_checkpoint(trained_dir, tmp_path / "ckpt")
    edit(bad)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "eval.json", {"data_dir": str(data_dir), "checkpoint": str(bad)})
    assert run("zeroshot", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, f"checkpoint {bad}: {needle}")


def test_checkpoint_weight_of_inf_is_data_error(trained_dir, data_dir, tmp_path, capsys):
    bad = copy_checkpoint(trained_dir, tmp_path / "ckpt")
    flat = np.load(bad.parent / "sp_classifier.npy")
    flat[-1] = np.inf
    replace_array(bad, "sp_classifier.npy", flat)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "eval.json", {"data_dir": str(data_dir), "checkpoint": str(bad)})
    assert run("zeroshot", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, f"checkpoint {bad}: sp_classifier.npy: non-finite values")


def test_bank_entry_of_inf_is_data_error(trained_dir, data_dir, tmp_path, capsys):
    assert run("build-bank", write_config(tmp_path / "build.json", {"data_dir": str(data_dir)}),
               tmp_path / "bank") == EXIT_OK
    bank = tmp_path / "bank" / "bank.json"
    rows = np.load(bank.parent / "entries.npy")
    rows[0, 0] = np.inf  # verb 0's first entry
    replace_array(bank, "entries.npy", rows)
    cfg = write_config(tmp_path / "aff.json", {"data_dir": str(data_dir), "bank": str(bank),
                                                "checkpoint": str(trained_dir / "checkpoint.json")})
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("affordance", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, f"bank {bank}: entries.npy: non-finite values")


def flip_last_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


# Faults of an array file beside its document: (edit of the file, what the message says after its name)
ARRAY_FILE_FAULTS = {
    "missing": (lambda doc, name: (doc.parent / name).unlink(), "No such file or directory"),
    "flipped-byte": (lambda doc, name: flip_last_byte(doc.parent / name), "sha256 "),
    "wrong-shape": (lambda doc, name: replace_array(doc, name, np.load(doc.parent / name)[:-1]), "shape "),
    "pickled": (lambda doc, name: replace_array(doc, name, np.load(doc.parent / name).astype(object)),
                "Object arrays cannot be loaded when allow_pickle=False"),
}


@pytest.mark.parametrize("fault", sorted(ARRAY_FILE_FAULTS))
@pytest.mark.parametrize("name", ["sp_classifier.npy", "hoi_classifier.npy", "entries.npy"])
def test_array_file_fault_is_data_error(trained_dir, data_dir, tmp_path, capsys, name, fault):
    # every weight lies in an array file whose sha256 its document holds: a
    # missing file, one flipped byte, another shape or a pickle stops the run,
    # naming the file; a missing file used to be an OSError traceback
    checkpoint = copy_checkpoint(trained_dir, tmp_path / "ckpt")
    assert run("build-bank", write_config(tmp_path / "build.json", {"data_dir": str(data_dir)}),
               tmp_path / "bank") == EXIT_OK
    bank = tmp_path / "bank" / "bank.json"
    doc = bank if name == "entries.npy" else checkpoint
    edit, needle = ARRAY_FILE_FAULTS[fault]
    edit(doc, name)
    cfg = write_config(tmp_path / "aff.json", {"data_dir": str(data_dir), "bank": str(bank),
                                                "checkpoint": str(checkpoint)})
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("affordance", cfg, out) == EXIT_DATA
    what = "bank" if name == "entries.npy" else "checkpoint"
    assert_data_error(capsys, out, f"{what} {doc}: {name}: ", needle)


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
    assert not np.load(data / "train" / "hoi_label.npy", allow_pickle=False)[:, sorted(unseen)].any()

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
    """A copy of data_dir where edit has changed a column directory's columns
    (a dict: name -> array, or bytes to write as they are) or a .json document."""
    shutil.copytree(data_dir, dest)
    path = dest / name
    if path.is_dir():
        columns = {p.stem: np.load(p, allow_pickle=False) for p in path.iterdir()}
        edit(columns)
        shutil.rmtree(path)
        path.mkdir()
        for column, value in columns.items():
            if isinstance(value, bytes):
                (path / f"{column}.npy").write_bytes(value)
            else:
                np.save(path / f"{column}.npy", value)  # an object array is pickled
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return dest


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def put(columns, name, index, value, dtype=None):
    """Set columns[name][index] = value, first making the column of dtype."""
    column = columns[name].astype(dtype or columns[name].dtype)
    column[index] = value
    columns[name] = column


def assert_data_error(capsys, out, *needles):
    err = capsys.readouterr().err
    assert err.startswith("data error: failed to load "), err
    for needle in needles:
        assert needle in err, err
    assert not any(out.iterdir()), sorted(out.iterdir())


# Faults of the test set's columns, each made in record 5 where it is of one
# value: (edit, what the message says after "test: ").
TEST_RECORD_FAULTS = {
    "nan-verb-feat": (lambda c: put(c, "verb_feat", (4, 1), np.nan), "record 5: verb_feat is not finite"),
    "degenerate-human-box": (lambda c: put(c, "human_box", (4, 2), c["human_box"][4, 0]),
                             "record 5: human_box is degenerate"),
    "short-hoi-label": (lambda c: c.update(hoi_label=c["hoi_label"][:, :-1]), "record 1: hoi_label has shape"),
    "fractional-object-label": (lambda c: put(c, "object_label", 4, 7.5, float),
                                "object_label: dtype <f8, expected <i8"),
    "fractional-hoi-bit": (lambda c: put(c, "hoi_label", (4, 0), 1.9, float), "hoi_label: dtype <f8, expected |i1"),
    "string-object-label": (lambda c: c.update(object_label=c["object_label"].astype(str)),
                            "object_label: dtype <U"),
    "boolean-hoi-bit": (lambda c: c.update(hoi_label=c["hoi_label"].astype(bool)), "hoi_label: dtype |b1"),
    "string-human-box": (lambda c: c.update(human_box=c["human_box"].astype(str)), "human_box: dtype <U"),
    "unknown-field": (lambda c: c.update(object_bbox=c["object_box"]), "unknown column files: ['object_bbox.npy']"),
    "object-column": (lambda c: c.update(human_box=c["human_box"].astype(object)),
                      "human_box: Object arrays cannot be loaded when allow_pickle=False"),
    "wide-object-box": (lambda c: c.update(object_box=np.hstack([c["object_box"], c["object_box"][:, :1]])),
                        "record 1: object_box has shape (5,), expected (4,)"),
    "ragged-rows": (lambda c: c.update(verb_feat=c["verb_feat"][:-1]), "verb_feat: 59 rows, human_box has 60"),
    "missing-column": (lambda c: c.pop("human_feat"), "missing field 'human_feat': no human_feat.npy"),
    "empty-npy": (lambda c: c.update(object_feat=b""), "object_feat: No data left in file"),
    "truncated-npy": (lambda c: c.update(object_feat=npy_bytes(c["object_feat"])[:-8]),
                      "object_feat: Failed to read all data"),
    "big-endian-feat": (lambda c: c.update(human_feat=c["human_feat"].astype(">f8")),
                        "human_feat: dtype >f8, expected <f8"),
}


@pytest.mark.parametrize("cmd", ["eval-hoi", "zeroshot"])
@pytest.mark.parametrize("fault", sorted(TEST_RECORD_FAULTS))
def test_eval_rejects_bad_test_record(trained_dir, data_dir, tmp_path, capsys, cmd, fault):
    edit, why = TEST_RECORD_FAULTS[fault]
    data = corrupt_copy(data_dir, tmp_path / "data", "test", edit)
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(trained_dir / "checkpoint.json"),
    })
    out = tmp_path / "out"
    assert run(cmd, cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, f"test: {why}")


@pytest.mark.parametrize("cmd", ["eval-hoi", "build-bank"])
def test_data_dir_of_jsonl_files_is_data_error(trained_dir, data_dir, tmp_path, capsys, cmd):
    # a data dir in the old record format: its .jsonl files are not read
    data = tmp_path / "data"
    data.mkdir()
    for name in DATA_FILES:
        shutil.copy(data_dir / name, data / name)
    for name in DATA_DIRS:
        (data / f"{name}.jsonl").write_text('{"kind": "object", "object_box": [0.1, 0.1, 0.5, 0.5]}\n')
    body = {"data_dir": str(data)}
    if cmd == "eval-hoi":
        body["checkpoint"] = str(trained_dir / "checkpoint.json")
    out = tmp_path / "out"
    assert run(cmd, write_config(tmp_path / "cfg.json", body), out) == EXIT_DATA
    err = capsys.readouterr().err
    name = "test" if cmd == "eval-hoi" else "train"
    assert err.startswith(f"data error: {name} not found: "), err
    assert not out.exists() or not any(out.iterdir())


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


def test_zeroshot_rejects_split_of_float_ids(trained_dir, data_dir, tmp_path, capsys):
    # frozenset({2.0, 5.0}) equals {2, 5}, so the split used to validate
    data = corrupt_copy(data_dir, tmp_path / "data", "split.json",
                        lambda d: d.update(unseen_hoi_ids=[float(c) for c in d["unseen_hoi_ids"]]))
    cfg = write_config(tmp_path / "eval.json", {
        "data_dir": str(data),
        "checkpoint": str(trained_dir / "checkpoint.json"),
    })
    out = tmp_path / "out"
    assert run("zeroshot", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, "split.json: split unseen_hoi_ids must hold integers, got ")


@pytest.mark.parametrize("version", [7, None, True])
@pytest.mark.parametrize("cmd,name", [("build-bank", "taxonomy.json"), ("zeroshot", "split.json"),
                                      ("affordance", "bank.json")])
def test_document_of_another_schema_version_is_data_error(trained_dir, data_dir, tmp_path, capsys,
                                                          cmd, name, version):
    # none of these three files used to have its version read
    def edit(doc):
        del doc["schema_version"]
        if version is not None:
            doc["schema_version"] = version

    body = {"data_dir": str(data_dir)}
    if cmd != "build-bank":
        body["checkpoint"] = str(trained_dir / "checkpoint.json")
    if name == "bank.json":
        assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data_dir)}),
                   tmp_path / "bank") == EXIT_OK
        path = tmp_path / "bank" / "bank.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        body["bank"] = str(path)
    else:
        body["data_dir"] = str(corrupt_copy(data_dir, tmp_path / "data", name, edit))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(cmd, write_config(tmp_path / "cmd.json", body), out) == EXIT_DATA
    assert_data_error(capsys, out, f"{name}: unsupported ",
                      f"schema_version {version!r}; this version reads {2 if name == 'bank.json' else 1}")


def test_build_bank_refuses_a_bank_with_no_entries(data_dir, tmp_path, capsys):
    # a 0-row train set is the one way to a bank with no entries, which affordance
    # refuses. Unchecked, build-bank wrote bank.json and its manifest, then crashed
    # printing its summary; later it warned of the empty set before refusing
    data = corrupt_copy(data_dir, tmp_path / "data", "train", lambda c: c.update({k: v[:0] for k, v in c.items()}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data)}), out)
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: build-bank: the train set {data / 'train'} is empty: "
                                       "there is nothing to bank\n")
    assert not any(out.iterdir())


def test_a_taxonomy_naming_no_interaction_verbs_is_data_error(data_dir, tmp_path, capsys):
    # the label space is the valid-pair matrix alone: the removed key is an unknown field
    data = corrupt_copy(data_dir, tmp_path / "data", "taxonomy.json", lambda d: d.update(no_interaction_verbs=[0]))
    out = tmp_path / "out"
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data)}), out) == EXIT_DATA
    assert_data_error(capsys, out, "taxonomy.json: unknown taxonomy fields: ['no_interaction_verbs']")


def test_build_bank_rejects_nonfinite_verb_feat(data_dir, tmp_path, capsys):
    # m above every pool size: at the parent commit the NaN reached bank.json
    data = corrupt_copy(data_dir, tmp_path / "data", "train", lambda c: put(c, "verb_feat", (4, 3), np.nan))
    out = tmp_path / "out"
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data), "m": 1000}),
               out) == EXIT_DATA
    assert_data_error(capsys, out, "train: record 5: verb_feat is not finite")


@pytest.mark.parametrize("cmd, config", [
    ("build-bank", {}),
    ("train", {"train": TINY_TRAIN}),
])
def test_zero_length_features_are_data_errors(data_dir, tmp_path, capsys, cmd, config):
    # the feature length is taken from the data: unchecked, build-bank wrote a
    # bank.json of empty rows
    def empty_features(columns):
        for name in ("human_feat", "verb_feat", "object_feat"):
            columns[name] = columns[name][:, :0]

    data = corrupt_copy(data_dir, tmp_path / "data", "train", empty_features)
    out = tmp_path / "out"
    assert run(cmd, write_config(tmp_path / "cfg.json", {"data_dir": str(data), **config}), out) == EXIT_DATA
    assert_data_error(capsys, out, "train: record 1: object_feat has feature length 0")


@pytest.mark.parametrize("edit", [
    lambda c: c.update(object_label=b"[3, 4]\n"),  # a column file that is not a .npy array
    lambda c: c.update(object_label=np.array([None] * len(c["object_label"]))),
    lambda c: put(c, "hoi_label", (4, 0), 300, np.int16),  # out of int8 range: refused, not wrapped
])
def test_malformed_record_is_data_error(data_dir, tmp_path, capsys, edit):
    data = corrupt_copy(data_dir, tmp_path / "data", "train", edit)
    out = tmp_path / "out"
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data)}), out) == EXIT_DATA
    assert_data_error(capsys, out, "train: ")


@pytest.mark.parametrize("iterations", [0, 5])
def test_train_rejects_nonfinite_human_feat(data_dir, tmp_path, capsys, iterations):
    # rejected at load, whether or not a batch would ever sample the bad record
    data = corrupt_copy(data_dir, tmp_path / "data", "train", lambda c: put(c, "human_feat", (4, 0), np.nan))
    cfg = write_config(tmp_path / "train.json", {
        "data_dir": str(data),
        "train": {**TINY_TRAIN, "iterations": iterations},
    })
    out = tmp_path / "out"
    assert run("train", cfg, out) == EXIT_DATA
    assert_data_error(capsys, out, "train: record 5: human_feat is not finite")


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
    assert sorted(doc) == ["affordance_map", "arrays", "hoi_threshold", "keep_threshold", "prf1", "schema_version"]
    assert sorted(p.name for p in (aff_out / "objects").iterdir()) == ["object_label.npy", "scores.npy"]
    # the summary's digests cover the grids
    assert doc["arrays"] == {f"objects/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in (aff_out / "objects").iterdir()}
    labels = np.load(aff_out / "objects" / "object_label.npy", allow_pickle=False)
    scores = np.load(aff_out / "objects" / "scores.npy", allow_pickle=False)
    assert (labels.dtype, scores.dtype) == (np.dtype("<i8"), np.dtype("<f8"))
    assert scores.shape == (len(labels), TINY_WORLD["n_verbs"]) and len(labels) > 0
    # a verb's scores are NaN exactly when the bank holds none of its features
    empty = [not len(rows) for _, rows in sorted(AffordanceBank.load(bank_out / "bank.json").entries.items())]
    assert (np.isnan(scores) == np.array(empty)).all() and 0 <= np.nanmin(scores) <= np.nanmax(scores) <= 1
    # novel_only keeps exactly the held-out objects, in stream order
    split = json.loads((data_dir / "split.json").read_text())
    stream = np.load(data_dir / "external" / "object_label.npy", allow_pickle=False)
    assert labels.tolist() == [o for o in stream.tolist() if o in split["unseen_object_ids"]]
    manifest = json.loads((aff_out / "manifest.json").read_text())
    assert manifest["outputs"] == ["affordance.json", "objects"]


def test_affordance_over_every_external_object(trained_dir, data_dir, tmp_path, capsys):
    # novel_only false probes the whole stream, seen objects included, in its order
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data_dir)}),
               tmp_path / "bank") == EXIT_OK
    cfg = write_config(tmp_path / "aff.json", {
        "data_dir": str(data_dir), "checkpoint": str(trained_dir / "checkpoint.json"),
        "bank": str(tmp_path / "bank" / "bank.json"), "novel_only": False})
    capsys.readouterr()
    assert run("affordance", cfg, tmp_path / "out") == EXIT_OK
    labels = np.load(data_dir / "external" / "object_label.npy", allow_pickle=False).tolist()
    assert np.load(tmp_path / "out" / "objects" / "object_label.npy", allow_pickle=False).tolist() == labels
    scores = np.load(tmp_path / "out" / "objects" / "scores.npy", allow_pickle=False)
    assert scores.shape == (TINY_DATASET["n_external_objects"], TINY_WORLD["n_verbs"])
    unseen = set(json.loads((data_dir / "split.json").read_text())["unseen_object_ids"])
    assert set(labels) - unseen and set(labels) & unseen
    out = capsys.readouterr().out
    assert out.startswith(f"affordance over {len(labels)} objects: ")
    assert out.endswith(f"... {len(labels) - 20} more in objects/\n")


def test_affordance_on_an_empty_external_stream(tmp_path, capsys):
    # a baseline model trains without the stream, so gen-data may draw none of it
    data = tmp_path / "data"
    assert run("gen-data", write_config(tmp_path / "gen.json", {
        "world": TINY_WORLD, "dataset": {**TINY_DATASET, "n_external_objects": 0},
        "split": {"mode": "novel-object"}, "seed": 0}), data) == EXIT_OK
    assert run("train", write_config(tmp_path / "train.json", {
        "data_dir": str(data), "train": TINY_TRAIN, "baseline": True}), tmp_path / "train") == EXIT_OK
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data)}),
               tmp_path / "bank") == EXIT_OK
    cfg = write_config(tmp_path / "aff.json", {
        "data_dir": str(data), "checkpoint": str(tmp_path / "train" / "checkpoint.json"),
        "bank": str(tmp_path / "bank" / "bank.json"), "novel_only": False})
    capsys.readouterr()
    assert run("affordance", cfg, tmp_path / "out") == EXIT_OK
    assert "objects" not in json.loads((tmp_path / "out" / "affordance.json").read_text())
    labels = np.load(tmp_path / "out" / "objects" / "object_label.npy", allow_pickle=False)
    scores = np.load(tmp_path / "out" / "objects" / "scores.npy", allow_pickle=False)
    assert (labels.shape, scores.shape) == ((0,), (0, TINY_WORLD["n_verbs"]))
    assert capsys.readouterr().out.splitlines() == [  # no "... more" line
        "affordance over 0 objects: micro-F1 0.0000 P 0.0000 R 0.0000 mAP n/a",
        f"{'object':<12} {'kept verbs':<24} gt verbs"]


def object_dicts(kept, truth, scores, probed, labels, names) -> list:
    """The "objects" rows affordance.json held before they became objects/, as
    Python objects: per object, its index, label and name, the verb ids set in
    kept[i] and truth[i], and each probed verb's score (None for NaN) under its
    id as a string."""
    probed = np.flatnonzero(probed).tolist()
    return [{
        "index": i,
        "object_label": o,
        "object_name": names[o],
        "kept_verbs": np.flatnonzero(kept[i]).tolist(),
        "gt_verbs": np.flatnonzero(truth[i]).tolist(),
        "scores": {str(v): None if math.isnan(x) else x for v, x in zip(probed, scores[i, probed].tolist())},
    } for i, o in enumerate(labels)]


def run_affordance(trained_dir, data_dir, tmp_path, capsys, edit_bank=lambda path: None, data=None):
    """affordance's exit code and output dir, over data (default data_dir) with
    a bank built from data_dir that edit_bank(path of its bank.json) changed."""
    assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data_dir)}),
               tmp_path / "bank") == EXIT_OK
    path = tmp_path / "bank" / "bank.json"
    edit_bank(path)
    cfg = write_config(tmp_path / "aff.json", {"data_dir": str(data or data_dir), "bank": str(path),
                                                "checkpoint": str(trained_dir / "checkpoint.json")})
    capsys.readouterr()
    out = tmp_path / "out"
    return run("affordance", cfg, out), out


@pytest.mark.parametrize("edit", [
    lambda path: replace_array(path, "entries.npy", np.load(path.parent / "entries.npy").astype(str)),
    lambda path: replace_array(path, "entries.npy", np.load(path.parent / "entries.npy") > 0),
])
def test_affordance_rejects_bank_of_non_numbers(trained_dir, data_dir, tmp_path, capsys, edit):
    # a float cast would load such entries as numbers
    code, out = run_affordance(trained_dir, data_dir, tmp_path, capsys, edit)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: failed to load bank ") and "entries.npy: dtype " in err, err
    assert not any(out.iterdir())


@pytest.mark.parametrize("edit,key", [
    (lambda path: edit_doc(path, lambda d: d["counts"].__setitem__("01", 1)), "'01'"),  # a second verb 1
    (lambda path: edit_doc(path, lambda d: d["counts"].__setitem__(" 2", d["counts"].pop("2"))), "' 2'"),
])
def test_affordance_rejects_a_bank_key_of_another_spelling(trained_dir, data_dir, tmp_path, capsys, edit, key):
    code, out = run_affordance(trained_dir, data_dir, tmp_path, capsys, edit)
    assert code == EXIT_DATA
    assert_data_error(capsys, out, f"bank counts key {key} is not a verb id in decimal")


@pytest.mark.parametrize("key", ["verbs", "objects"])
def test_affordance_rejects_a_taxonomy_name_that_is_not_a_string(trained_dir, data_dir, tmp_path, capsys, key):
    # a list name used to load, and the affordance table then failed to print it
    data = corrupt_copy(data_dir, tmp_path / "data", "taxonomy.json",
                        lambda d: d.__setitem__(key, [[i] for i in range(len(d[key]))]))
    code, out = run_affordance(trained_dir, data_dir, tmp_path, capsys, data=data)
    assert code == EXIT_DATA
    assert_data_error(capsys, out, f"taxonomy {key} must hold strings, got [0]")


def test_gradcheck_passes_and_writes(tmp_path):
    cfg = write_config(tmp_path / "gc.json", {"n_configs": 5})
    assert run("gradcheck", cfg, tmp_path) == EXIT_OK
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["passed"] is True
    assert doc["max_rel_error"] < 1e-4
    assert doc["end_to_end_max_rel_error"] < 1e-3


@pytest.mark.parametrize("seed", [0, 1])
def test_gradcheck_end_to_end_checks_trains_first_step(seed):
    # the classifiers and each classifier's inputs the end-to-end check
    # differentiates are those of the first step train's two loops take on the
    # same world and config, bit for bit
    def record(into, fn):  # each call's arguments, copied before the call, and its result
        def wrapper(*args, **kwargs):
            copied = copy.deepcopy(args)
            result = fn(*args, **kwargs)
            into.append((copied, result))
            return result
        return wrapper

    def same(value, want):
        return (value is None and want is None) or (value.dtype == want.dtype and value.shape == want.shape
                                                    and value.tobytes() == want.tobytes())

    worlds, checked, sp_steps, hoi_steps = [], [], [], []
    with mock.patch.object(cli, "gen_dataset", record(worlds, cli.gen_dataset)), \
            mock.patch.object(cli, "step_grad_check", record(checked, cli.step_grad_check)):
        cli._end_to_end_errors(seed)
    [((_, tax, *_), (train_set, _, external))] = worlds
    [((model, sampler, plan, cfg), _)] = checked
    with mock.patch.object(pipeline, "sp_grads", record(sp_steps, pipeline.sp_grads)), \
            mock.patch.object(pipeline, "hoi_grads", record(hoi_steps, pipeline.hoi_grads)):
        train(train_set, external, tax, replace(cfg, iterations=1))
    [((sp_params, sp_sampler, sp_plan, *_), _)] = sp_steps
    [((hoi_params, hoi_sampler, hoi_plan, *_), _)] = hoi_steps
    assert plan.kept is not None  # the check covers the composite branch
    assert model.sp_classifier.flat.tobytes() == sp_params.flat.tobytes()
    assert model.hoi_classifier.flat.tobytes() == hoi_params.flat.tobytes()
    for rows, want in ((sampler.sp_rows(plan), sp_sampler.sp_rows(sp_plan)),
                       (sampler.hoi_rows(plan), hoi_sampler.hoi_rows(hoi_plan))):
        assert len(rows) == len(want) and all(same(a, b) for a, b in zip(rows, want))


def test_gradcheck_seed_3_emits_no_warning(tmp_path, capsys):
    # seed 3's miniature world has close object prototypes, which a gradient
    # check does not depend on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("gradcheck", write_config(tmp_path / "gc.json", {"n_configs": 1}), tmp_path, seed=3) == EXIT_OK
    assert capsys.readouterr().err == ""


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


def test_config_naming_a_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("gradcheck", tmp_path, out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {tmp_path}: "), err
    assert "Is a directory" in err and not out.exists()
    assert run("gradcheck", tmp_path / "ghost.json", out) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config file not found: {tmp_path / 'ghost.json'}\n"


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
    shutil.copytree(data_dir, broken)
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


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("under", [False, True])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, monkeypatch, via, under):
    # --out or $HOICOMPOSE_OUT naming an existing file, or a path under one
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    if via == "env":
        monkeypatch.setenv("HOICOMPOSE_OUT", str(out))
    assert run("gradcheck", out=out if via == "flag" else None) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {out}: "), err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("cmd,name,kind", [
    ("gen-data", "train", "directory"),
    ("gen-data", "split.json", "file"),
    ("train", "checkpoint.json", "file"),
    ("eval-hoi", "report.csv", "file"),
    ("zeroshot", "predictions", "directory"),
    ("build-bank", "bank.json", "file"),
    ("train", "sp_classifier.npy", "file"),
    ("build-bank", "entries.npy", "file"),
    ("affordance", "manifest.json", "file"),
    ("gradcheck", "gradcheck.json", "file"),
    ("reproduce-trends", "trends.json", "file"),
    ("gen-data", "test/hoi_label.npy", "file"),
    ("zeroshot", "predictions/scores.npy", "file"),
])
def test_output_of_the_wrong_kind_is_config_error(data_dir, trained_dir, tmp_path, capsys, cmd, name, kind):
    # a directory where a file goes, or a file where a directory goes, is refused
    # before the command works: it used to end in a traceback after part of the outputs
    body = {"data_dir": str(data_dir), "checkpoint": str(trained_dir / "checkpoint.json"),
            "bank": str(tmp_path / "bank.json"), "write_predictions": True}
    keys = {"train": ["data_dir"], "eval-hoi": ["data_dir", "checkpoint"], "build-bank": ["data_dir"],
            "zeroshot": ["data_dir", "checkpoint", "write_predictions"],
            "affordance": ["data_dir", "checkpoint", "bank"]}.get(cmd, [])
    out = tmp_path / "out"
    out.mkdir()
    if kind == "file":  # a file of an output directory too: a set's column file, the score grid
        (out / name).mkdir(parents=True)
    else:
        (out / name).write_text("kept\n")
    assert run(cmd, write_config(tmp_path / "cfg.json", {k: body[k] for k in keys}), out) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: output {out / name} is in the way: {cmd} writes a {kind} there\n"
    assert [p.name for p in out.iterdir()] == [name.split("/")[0]]
    assert (out / name).is_dir() if kind == "file" else (out / name).read_text() == "kept\n"


@pytest.mark.parametrize("cmd,name", [("gen-data", "train"), ("affordance", "objects")])
def test_stale_file_in_an_output_directory_is_config_error(data_dir, trained_dir, tmp_path, capsys, cmd, name):
    # a file the command does not write, left in one of its output directories,
    # would make a directory that every later reader refuses (a set with an
    # unknown column file), so the command refuses it before writing
    body = {"world": TINY_WORLD, "dataset": TINY_DATASET}
    if cmd == "affordance":
        assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data_dir)}),
                   tmp_path / "bank") == EXIT_OK
        body = {"data_dir": str(data_dir), "checkpoint": str(trained_dir / "checkpoint.json"),
                "bank": str(tmp_path / "bank" / "bank.json")}
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    np.save(out / name / "extra.npy", np.zeros(3))
    assert run(cmd, write_config(tmp_path / "cfg.json", body), out) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: output {out / name} holds ['extra.npy'], "
                                       f"which {cmd} does not write\n")
    assert [p.name for p in out.iterdir()] == [name]
    assert [p.name for p in (out / name).iterdir()] == ["extra.npy"]


@pytest.mark.parametrize("cmd", ["gen-data", "train", "zeroshot", "build-bank", "affordance", "gradcheck"])
def test_manifest_config_reruns_the_command(data_dir, trained_dir, tmp_path, cmd):
    # a manifest's config is the full resolved config: run on it, with no --seed,
    # the command writes the same bytes, the manifest among them
    checkpoint, bank = str(trained_dir / "checkpoint.json"), tmp_path / "bank" / "bank.json"
    body = {
        "gen-data": {"world": TINY_WORLD, "dataset": TINY_DATASET, "split": {"mode": "novel-object"}},
        "train": {"data_dir": str(data_dir), "train": TINY_TRAIN},
        "zeroshot": {"data_dir": str(data_dir), "checkpoint": checkpoint, "write_predictions": True},
        "build-bank": {"data_dir": str(data_dir), "m": 20},
        "affordance": {"data_dir": str(data_dir), "checkpoint": checkpoint, "bank": str(bank)},
        "gradcheck": {"n_configs": 3},
    }[cmd]
    if cmd == "affordance":
        assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data_dir)}),
                   bank.parent) == EXIT_OK
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(cmd, write_config(tmp_path / "cfg.json", body), first, seed=3) == EXIT_OK
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert config["seed"] == 3
    assert run(cmd, write_config(tmp_path / "replay.json", config), again) == EXIT_OK
    assert tree_bytes(again) == tree_bytes(first)


@pytest.mark.parametrize("cmd", ["eval-hoi", "zeroshot", "affordance"])
def test_seed_is_recorded_but_not_read(data_dir, trained_dir, tmp_path, cmd):
    # these commands draw nothing: under --seed 0 and --seed 5 they write the same
    # reports, and their manifests differ only in the recorded seed and its hash
    checkpoint, bank = str(trained_dir / "checkpoint.json"), tmp_path / "bank" / "bank.json"
    body = {"data_dir": str(data_dir), "checkpoint": checkpoint}
    if cmd == "affordance":
        assert run("build-bank", write_config(tmp_path / "bank.json", {"data_dir": str(data_dir)}),
                   bank.parent) == EXIT_OK
        body["bank"] = str(bank)
    else:
        body["write_predictions"] = True
    cfg = write_config(tmp_path / "cfg.json", body)
    assert run(cmd, cfg, tmp_path / "seed0", seed=0) == EXIT_OK
    assert run(cmd, cfg, tmp_path / "seed5", seed=5) == EXIT_OK
    zero, five = tree_bytes(tmp_path / "seed0"), tree_bytes(tmp_path / "seed5")
    m0, m5 = (json.loads(files.pop("manifest.json")) for files in (zero, five))
    assert zero == five
    assert (m0["config"].pop("seed"), m5["config"].pop("seed")) == (0, 5)
    assert m0.pop("config_sha256") != m5.pop("config_sha256")
    assert m0 == m5


TOY_TRENDS = {"n_train": 250, "n_test": 60, "n_external": 60,
              "train": {"iterations": 250, "hidden": 24, "spatial_resolution": 8}}


def test_reproduce_trends_smoke(tmp_path, capsys):
    # one seed at toy sizes: exercises the command, not the trend margins
    cfg = write_config(tmp_path / "t.json", {"seeds": [0], **TOY_TRENDS})
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("reproduce-trends", cfg, first) == EXIT_OK
    doc = json.loads((first / "trends.json").read_text())
    assert set(doc["checks"]) == {"unseen_map_gain", "seen_map_preserved",
                                  "affordance_f1_gap", "affordance_map_higher", "bank_stable"}
    assert len(doc["per_seed"]) == 1
    out = capsys.readouterr().out
    assert "bank stability" in out and "check unseen_map_gain" in out
    # its manifest config, the full train config but for its seed (each trend
    # seed trains with itself), repeats the run
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert run("reproduce-trends", write_config(tmp_path / "replay.json", config), again) == EXIT_OK
    assert tree_bytes(again) == tree_bytes(first)


def test_reproduce_trends_config_validation(tmp_path):
    cfg = write_config(tmp_path / "t.json", {"train": {"not_a_field": 1}})
    assert run("reproduce-trends", cfg, tmp_path) == EXIT_CONFIG
    cfg2 = write_config(tmp_path / "t2.json", {"seeds": []})
    assert run("reproduce-trends", cfg2, tmp_path) == EXIT_CONFIG


def test_reproduce_trends_worker_error_is_data_error(tmp_path, capsys):
    # seed 1's external stream has no novel object; the error comes from a worker
    cfg = write_config(tmp_path / "t.json", {"seeds": [5, 1], **TOY_TRENDS, "n_external": 1})
    assert run("reproduce-trends", cfg, tmp_path / "out") == EXIT_DATA
    err = capsys.readouterr().err
    assert "reproduce-trends: seed 1: no novel objects in the external stream" in err, err


def test_reproduce_trends_worker_divergence_exit_code(tmp_path, capsys):
    # a worker's TrainingDiverged reaches main as itself; huge lr overflows into
    # NaN within a step or two at full width
    cfg = write_config(tmp_path / "t.json", {"seeds": [0, 1], **TOY_TRENDS,
                                             "train": {"iterations": 10, "lr": 1e160}})
    with np.errstate(all="ignore"):
        assert run("reproduce-trends", cfg, tmp_path / "out") == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "diverged: training loss or gradients became non-finite at step" in err, err


@pytest.mark.parametrize("body,seed", [({"seed": 3}, None), ({}, 3), ({"train": {"seed": 3}}, None)])
def test_reproduce_trends_rejects_seed(tmp_path, capsys, body, seed):
    # none would change trends.json: the trend seeds are the seeds list, and
    # each is also its own training seed
    cfg = write_config(tmp_path / "t.json", {"seeds": [0], **body})
    out = tmp_path / "out"
    assert run("reproduce-trends", cfg, out, seed=seed) == EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: reproduce-trends takes no seed, train.seed or --seed: "), err
    assert "trend seeds come from the seeds list" in err, err
    assert not out.exists()


def run_python(*argv):
    # a separate Python process importing this checkout's package whatever the
    # working directory and whatever copy is installed
    env = dict(os.environ)
    src = str(Path(hoicompose.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)


def run_program(*argv):
    return run_python("-m", "hoicompose", *argv)


def test_reproduce_trends_entry_point_starts_its_workers(tmp_path, monkeypatch):
    # spawn workers of a fresh `python -m hoicompose` start from the CLI's main
    # module, and the pooled run writes the serial run's bytes
    cfg = write_config(tmp_path / "t.json", {"seeds": [0, 1], **TOY_TRENDS})
    proc = run_program("reproduce-trends", "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_OK, proc.stderr
    settings = TrendSettings(seeds=(0, 1), **{**TOY_TRENDS, "train": TrainConfig(**TOY_TRENDS["train"])})
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)  # the in-process serial loop
    write_json(tmp_path / "serial.json", reproduce_trends(settings).to_json_dict())
    assert (tmp_path / "out" / "trends.json").read_bytes() == (tmp_path / "serial.json").read_bytes()



COMMAND_HELP = {
    "gen-data": "generate a synthetic world, split, and dataset files",
    "train": "train the three-branch model from a gen-data directory",
    "eval-hoi": "detection mAP report (Full/Rare/NonRare)",
    "zeroshot": "detection mAP report with Unseen/Seen groups",
    "build-bank": "sample the affordance feature bank from training data",
    "affordance": "recognize affordances of external objects and score them",
    "gradcheck": "verify analytic gradients against finite differences",
    "reproduce-trends": "multi-seed transfer-on vs transfer-off comparison",
}


def test_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one line per command
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: hoicompose ")
    assert dict(re.findall(r"^    (\S+) +(\S.*)$", text, re.MULTILINE)) == COMMAND_HELP

def test_console_script_runs(tmp_path):
    proc = run_program("gradcheck", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: hoicompose gradcheck")
    assert "--seed" in proc.stdout
    # the exit code of main() must reach the process exit status
    cfg = write_config(tmp_path / "train.json", {"data_dir": str(tmp_path / "nowhere")})
    proc = run_program("train", "--config", cfg, "--out", str(tmp_path))
    assert proc.returncode == EXIT_DATA, proc.stderr


@pytest.mark.parametrize("demo", sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "gradient_check":
        assert "end-to-end composite step:" in proc.stdout


def test_console_script_target():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"hoicompose": "hoicompose.cli:main"}
    module, _, attr = scripts["hoicompose"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
