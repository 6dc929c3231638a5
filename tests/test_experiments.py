"""reproduce_trends in spawn workers against its in-process serial loop, the
oracle: same bytes, no worker left behind, one BLAS thread per worker, and the
caller's warning filters in every worker."""
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from hoicompose import experiments
from hoicompose.blas import blas_info
from hoicompose.experiments import TrendSettings, reproduce_trends, spawn_map, usable_cpus
from hoicompose.jsonfile import write_json
from hoicompose.pipeline import TrainConfig

TOY = {"n_train": 250, "n_test": 60, "n_external": 60,
       "train": TrainConfig(iterations=250, hidden=24, spatial_resolution=8)}
# n_external=1 leaves seed 1's external stream no novel object; seed 5 keeps one
NO_NOVEL = TrendSettings(seeds=(5, 1), **{**TOY, "n_external": 1})

needs_pool = pytest.mark.skipif(usable_cpus() < 2, reason="one usable CPU: reproduce_trends runs no pool")


def serial_trends(settings: TrendSettings, monkeypatch):
    """reproduce_trends as on one CPU: the in-process serial loop."""
    with monkeypatch.context() as m:
        m.setattr(experiments, "usable_cpus", lambda: 1)
        return reproduce_trends(settings)


def report_bytes(report, path: Path) -> tuple[bytes, str]:
    write_json(path, report.to_json_dict())
    return path.read_bytes(), report.format_table()


@needs_pool
@pytest.mark.parametrize("seeds", [(0, 1), (3, 0, 7)])
def test_pooled_report_is_the_serial_report(seeds, tmp_path, monkeypatch):
    # three seeds on two workers: one worker runs two of them, out of seed order
    settings = TrendSettings(seeds=seeds, **TOY)
    pooled = reproduce_trends(settings)
    serial = serial_trends(settings, monkeypatch)
    assert [m["seed"] for m in pooled.per_seed] == list(seeds)
    assert report_bytes(pooled, tmp_path / "pooled.json") == report_bytes(serial, tmp_path / "serial.json")


@needs_pool
def test_pool_leaves_no_worker_and_restores_the_environment(monkeypatch):
    # one pinned variable set before the call, the others unset
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    reproduce_trends(TrendSettings(seeds=(0, 1), **TOY))
    assert multiprocessing.active_children() == []
    assert dict(os.environ) == before

    with pytest.raises(ValueError) as serial:
        serial_trends(NO_NOVEL, monkeypatch)
    with pytest.raises(ValueError) as pooled:
        reproduce_trends(NO_NOVEL)
    assert str(pooled.value) == str(serial.value) == "seed 1: no novel objects in the external stream"
    assert multiprocessing.active_children() == []
    assert dict(os.environ) == before


def worker_blas_threads(_) -> int | None:
    return blas_info()["threads"]


@needs_pool
def test_each_worker_has_one_blas_thread():
    # unpinned, each worker's OpenBLAS would start one thread per CPU, and the
    # workers, as many as the CPUs, would oversubscribe them
    threads = spawn_map(worker_blas_threads, 2, range(2))
    if threads[0] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: there is no thread count to read")
    assert threads == [1, 1]


def overflow(_) -> float:
    return float(np.float64(1e308) * 10)


@needs_pool
def test_workers_take_the_callers_warning_filters():
    # the project's pytest config makes RuntimeWarning an error, here and in a worker
    with pytest.raises(RuntimeWarning, match="overflow"):
        spawn_map(overflow, 2, range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert spawn_map(overflow, 2, range(2)) == [np.inf, np.inf]
    with np.errstate(over="ignore"):
        assert spawn_map(overflow, 2, range(2)) == [np.inf, np.inf]
