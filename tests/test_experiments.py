"""reproduce_trends in two forked seed children against its in-process serial
loop, the oracle: same bytes, exactly two children and no seed run in the
caller, and the caller's warning filters and numpy error handling in every
child, so that a warning fails a forked seed as it fails the serial loop."""
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from hoicompose import experiments, parallel
from hoicompose.experiments import TrendSettings, reproduce_trends
from hoicompose.jsonfile import write_json
from hoicompose.pipeline import TrainConfig

TOY = {"n_train": 250, "n_test": 60, "n_external": 60,
       "train": TrainConfig(iterations=250, hidden=24, spatial_resolution=8)}
# n_external=1 leaves seed 1's external stream no novel object; seed 5 keeps one
NO_NOVEL = TrendSettings(seeds=(5, 1), **{**TOY, "n_external": 1})

needs_two_cpus = pytest.mark.skipif(parallel.usable_cpus() < 2, reason="one usable CPU: reproduce_trends forks no seed")


def serial_trends(settings: TrendSettings, monkeypatch):
    """reproduce_trends as on one CPU: the in-process serial loop."""
    with monkeypatch.context() as m:
        m.setattr(parallel, "usable_cpus", lambda: 1)
        return reproduce_trends(settings)


def report_bytes(report, path: Path) -> tuple[bytes, str]:
    write_json(path, report.to_json_dict())
    return path.read_bytes(), report.format_table()


@needs_two_cpus
@pytest.mark.parametrize("seeds", [(0, 1), (3, 0, 7)])
def test_pooled_report_is_the_serial_report(seeds, forks, tmp_path, monkeypatch):
    # three seeds: the second child runs two of them, out of seed order
    settings = TrendSettings(seeds=seeds, **TOY)
    forked = reproduce_trends(settings)
    assert len(forks) == 2
    serial = serial_trends(settings, monkeypatch)
    assert [m["seed"] for m in forked.per_seed] == list(seeds)
    assert report_bytes(forked, tmp_path / "forked.json") == report_bytes(serial, tmp_path / "serial.json")


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_pool_leaves_no_worker_and_restores_the_environment(forks, monkeypatch):
    # one pinned variable set before the call, the others unset; each child
    # pins its own BLAS, so the caller's environment is never touched
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    reproduce_trends(TrendSettings(seeds=(0, 1), **TOY))
    assert len(forks) == 2
    assert_reaped(forks)
    assert dict(os.environ) == before

    with pytest.raises(ValueError) as serial:
        serial_trends(NO_NOVEL, monkeypatch)
    with pytest.raises(ValueError) as forked:
        reproduce_trends(NO_NOVEL)
    assert str(forked.value) == str(serial.value) == "seed 1: no novel objects in the external stream"
    assert len(forks) > 2  # the failed halves recompute here, and the serial loop's training forks
    assert_reaped(forks)
    assert dict(os.environ) == before


def test_the_caller_trains_no_seed(forks, tmp_path, monkeypatch):
    # each run_trend_seed call writes its pid to a log that every process appends to
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    log, real = tmp_path / "pids", experiments.run_trend_seed

    def logged(*args):
        with log.open("a") as f:
            f.write(f"{os.getpid()} {args[0]}\n")
        return real(*args)

    def ran() -> dict[int, set[int]]:
        pids = {}
        for line in log.read_text().splitlines():
            pid, seed = map(int, line.split())
            pids.setdefault(seed, set()).add(pid)
        log.unlink()
        return pids

    monkeypatch.setattr(experiments, "run_trend_seed", logged)
    small = {**TOY, "train": TrainConfig(iterations=20, hidden=24, spatial_resolution=8)}
    reproduce_trends(TrendSettings(seeds=(3, 0, 7), **small))
    pids = ran()
    assert len(forks) == 2 and set(pids) == {3, 0, 7}
    assert pids[3] == {forks[0]} and pids[0] == pids[7] == {forks[1]}  # the first child takes the first half
    reproduce_trends(TrendSettings(seeds=(3,), **small))
    assert ran() == {3: {os.getpid()}} and len(forks) == 2  # one seed forks no seed child


def overflow_in_seed(bad: int):
    """run_trend_seed, overflowing a float64 multiply first in seed `bad`."""
    real = experiments.run_trend_seed

    def run(seed, *args):
        if seed == bad:
            np.float64(1e308) * 10
        return real(seed, *args)
    return run


@needs_two_cpus
def test_workers_take_the_callers_warning_filters(tmp_path, monkeypatch):
    # the project's pytest config makes RuntimeWarning an error, in the caller
    # and so in a seed child; each seed child is one half of the seeds
    settings = TrendSettings(seeds=(0, 1), **{**TOY, "train": TrainConfig(iterations=20, hidden=24)})
    want = report_bytes(serial_trends(settings, monkeypatch), tmp_path / "serial.json")
    for bad in settings.seeds:
        monkeypatch.setattr(experiments, "run_trend_seed", overflow_in_seed(bad))
        with pytest.raises(RuntimeWarning) as serial:
            serial_trends(settings, monkeypatch)
        with pytest.raises(RuntimeWarning) as forked:
            reproduce_trends(settings)
        assert str(forked.value) == str(serial.value) == "overflow encountered in scalar multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert report_bytes(reproduce_trends(settings), tmp_path / "ignored.json") == want
        with np.errstate(over="ignore"):
            assert report_bytes(reproduce_trends(settings), tmp_path / "errstate.json") == want
