"""Smoke test of the benchmark itself at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that a quality value off its reference fails the operation, that the traced
run puts every wrapped attribute back, and that the benchmark refuses to run
without the package sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_out" / "smoke"
SEED = 5


@pytest.fixture(scope="module", autouse=True)
def clean_scratch():
    yield
    shutil.rmtree(SCRATCH, ignore_errors=True)


def declared(kind: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def toy_run(workload: str, trace: bool, reference=None):
    return workloads.run_workload(workload, SEED, 0.2, trace, SCRATCH / workload, 0.0,
                                  sizes=workloads.TOY, reference=reference)


def package_attributes() -> dict:
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if name == "hoicompose" or name.startswith("hoicompose.")
            for attr, value in vars(module).items()}


def test_declared_workloads_and_per_layer_metrics_match_the_code():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS == run.WORKLOADS
    assert declared("per_layer") == {m: layers.unit(m) for m in layers.METRICS}


def test_every_declared_metric_is_emitted_with_its_unit_and_wrappers_are_restored():
    before = package_attributes()
    for workload in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, record = toy_run(workload, trace)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == declared(kind), (workload, kind)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["attempted"] >= 1
            assert not record.get("span_problems")
        after = package_attributes()
        changed = [key for key in before if after.get(key) is not before[key]]
        assert not changed, f"{workload}: attributes not restored: {changed}"


def test_perturbed_reference_fails_operations():
    result, record = toy_run("eval_scale", False)
    assert result["failed"] == 0, record["failures"]
    q = {name: m["value"] for name, m in record["quality"].items()}
    assert set(q) == {"unseen_map", "seen_map"}
    reference = {"cli": {str(SEED): {"zeroshot": q}}}
    result, _ = toy_run("eval_scale", False, reference)
    assert result["failed"] == 0 and result["correct"]

    reference["cli"][str(SEED)]["zeroshot"]["unseen_map"] += 1e-3
    result, record = toy_run("eval_scale", False, reference)
    zeroshot_ops = [o for o in record["failures"] if o["op"] == "zeroshot"]
    assert result["failed"] == len(zeroshot_ops) >= 1
    assert not result["correct"]


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "trends", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
