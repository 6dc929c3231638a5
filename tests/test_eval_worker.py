"""eval-hoi and zeroshot score the test set on a worker thread while the
calling thread joins its boxes, when two CPUs are usable; on one, they run
both inline. Every test runs both paths: the inline one is the oracle of the
threaded one, in outputs, errors, warnings and numpy error handling, and
neither leaves a thread behind."""
import functools
import importlib
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_cli import data_dir, run, trained_dir, tree_bytes, write_config  # noqa: F401 (fixtures)

from hoicompose import cli, parallel
from hoicompose.cli import EXIT_OK

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(cli.__file__).resolve().parent.parent
# path -> usable CPUs
PATHS = {"inline": 1, "threaded": 2}
COMMANDS = ["zeroshot", "eval-hoi"]


def eval_config(tmp_path, data_dir, trained_dir) -> str:
    return write_config(tmp_path / "eval.json", {"data_dir": str(data_dir), "write_predictions": True,
                                                 "checkpoint": str(trained_dir / "checkpoint.json")})


def run_on(path: str, monkeypatch, cmd, config, out):
    """run(cmd, config, out) with the CPUs of path; no thread outlives it."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: PATHS[path])
    before = threading.active_count()
    try:
        return run(cmd, config, out)
    finally:
        assert threading.active_count() == before


def spy_predict(monkeypatch, before=lambda: None) -> list:
    """Wrap cli.predict_dataset to call before() first; returns the list of the
    names of the threads it ran on."""
    threads, predict = [], cli.predict_dataset

    def spy(*args):
        threads.append(threading.current_thread().name)
        before()
        return predict(*args)

    monkeypatch.setattr(cli, "predict_dataset", spy)
    return threads


@pytest.mark.parametrize("cmd", COMMANDS)
def test_threaded_outputs_are_the_inline_bytes(cmd, data_dir, trained_dir, tmp_path, monkeypatch):
    config = eval_config(tmp_path, data_dir, trained_dir)
    threads = spy_predict(monkeypatch)
    trees = {path: (run_on(path, monkeypatch, cmd, config, tmp_path / path), tree_bytes(tmp_path / path))
             for path in PATHS}
    assert threads == ["MainThread", "predict_dataset"]
    assert trees["inline"][0] == EXIT_OK
    assert {"report.json", "report.csv", "predictions/scores.npy"} <= set(trees["inline"][1])
    assert trees["threaded"] == trees["inline"]


# Runs one command with predict_dataset raising: argv[1] the source directory,
# argv[2] the usable CPUs, the rest the command line.
_FAILING_PREDICT = """
import sys
sys.path.insert(0, sys.argv[1])
from hoicompose import cli, parallel
def predict_dataset(model, test, tax):
    raise ValueError("predict_dataset: no scores for this set")
cli.predict_dataset = predict_dataset
parallel.usable_cpus = lambda: int(sys.argv[2])
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("cmd", COMMANDS)
def test_a_worker_error_leaves_main_as_the_inline_one(cmd, data_dir, trained_dir, tmp_path):
    config = eval_config(tmp_path, data_dir, trained_dir)
    ends = {}
    for path, cpus in PATHS.items():
        proc = subprocess.run([sys.executable, "-c", _FAILING_PREDICT, str(SRC), str(cpus), cmd, "--config", config,
                               "--out", str(tmp_path / path)], capture_output=True, text=True, timeout=60)
        ends[path] = (proc.returncode, proc.stderr.strip().splitlines()[-1])
    assert ends["threaded"] == ends["inline"] == (1, "ValueError: predict_dataset: no scores for this set")


@pytest.mark.parametrize("path", PATHS)
def test_the_scores_error_wins_over_the_joins_as_inline(path, data_dir, trained_dir, tmp_path, monkeypatch):
    # inline, predict_dataset raises before the join starts; threaded, its error
    # is the one raised, after the worker is joined
    def fail(what):
        def raise_(*args):
            raise ValueError(what)
        return raise_

    config = eval_config(tmp_path, data_dir, trained_dir)
    monkeypatch.setattr(cli, "predict_dataset", fail("scores"))
    monkeypatch.setattr(cli, "candidate_pairs", fail("pairs"))
    with pytest.raises(ValueError, match="^scores$"):
        run_on(path, monkeypatch, "zeroshot", config, tmp_path / "out")
    monkeypatch.setattr(cli, "predict_dataset", lambda *args: np.zeros(0))
    with pytest.raises(ValueError, match="^pairs$"):
        run_on(path, monkeypatch, "zeroshot", config, tmp_path / "out")


@pytest.mark.parametrize("path", PATHS)
def test_a_warning_the_filters_make_an_error_fails_the_command(path, data_dir, trained_dir, tmp_path, monkeypatch):
    # the suite turns RuntimeWarning into an error; numpy's default error
    # handling warns on a division by zero, in the worker as in the caller
    spy_predict(monkeypatch, lambda: np.log(np.zeros(1)))
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        run_on(path, monkeypatch, "zeroshot", eval_config(tmp_path, data_dir, trained_dir), tmp_path / "out")


@pytest.mark.parametrize("path", PATHS)
def test_the_callers_numpy_error_handling_applies_in_the_worker(path, data_dir, trained_dir, tmp_path, monkeypatch):
    config = eval_config(tmp_path, data_dir, trained_dir)
    seen = []
    spy_predict(monkeypatch, lambda: (seen.append(np.geterr()), np.log(np.zeros(1))))
    with np.errstate(divide="ignore", over="raise", under="warn", invalid="print"):
        assert run_on(path, monkeypatch, "zeroshot", config, tmp_path / "ignored") == EXIT_OK
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError, match="divide by zero"):
        run_on(path, monkeypatch, "zeroshot", config, tmp_path / "raised")
    assert seen[0] == {"divide": "ignore", "over": "raise", "under": "warn", "invalid": "print"}
    assert seen[1]["divide"] == "raise"


def test_no_two_threads_are_inside_traced_functions_at_once(data_dir, trained_dir, tmp_path, monkeypatch):
    # The benchmark's tracer keeps one span stack for every thread, so while the
    # worker runs, the caller must call none of the functions it wraps. Each is
    # wrapped here, as the tracer does, with a pause that widens its window.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    lock, depth, overlaps, entered = threading.Lock(), {}, [], []

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = threading.current_thread().name
            with lock:
                overlaps.extend((name, other) for other, n in depth.items() if n and other != me)
                depth[me] = depth.get(me, 0) + 1
                entered.append((me, name))
            try:
                time.sleep(0.005)
                return fn(*args, **kwargs)
            finally:
                with lock:
                    depth[me] -= 1

        return wrapper

    modules = [m for n, m in sorted(sys.modules.items()) if m is not None and n.split(".")[0] == "hoicompose"]
    for module, function, _ in layers.TARGETS:
        original = getattr(importlib.import_module(f"hoicompose.{module}"), function)
        wrapper = wrap(f"{module}.{function}", original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapper)
    assert run_on("threaded", monkeypatch, "zeroshot", eval_config(tmp_path, data_dir, trained_dir),
                  tmp_path / "out") == EXIT_OK
    assert not overlaps
    assert ("predict_dataset", "nn.mlp_forward") in entered  # the worker ran, and was traced
    assert ("MainThread", "evaluation.map_report") in entered
