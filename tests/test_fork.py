"""recognize_objects probes half of the bank's verbs in a forked child when two
CPUs are usable and the probe is large enough (experiments.fork_halves). The
inline path is the oracle: the same hits, scores and kept verbs bit for bit,
the same errors and warnings, and no child left behind. A spy on os.fork shows
where no child may start: on one CPU, without os.fork, in a trend worker,
below affordance.FORK_MIN_PAIRS, and on the package's small probes."""
import os
import runpy
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_affordance import probe_cases, shape_case

from hoicompose import affordance, blas, experiments, nn
from hoicompose.affordance import FORK_MIN_PAIRS, decision_point, recognize, recognize_objects
from hoicompose.experiments import TrendSettings, fork_halves, reproduce_trends, spawn_map
from hoicompose.pipeline import TrainConfig

DEMO = Path(__file__).resolve().parent.parent / "demos" / "affordance_bank.py"
# 12 verbs x 100 entries; every verb has categories of its own
SIZES = [100] * 12


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts in this process from now on."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def open_gate(monkeypatch):
    """Two usable CPUs and no pair minimum: every probe of two verbs or more forks."""
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    monkeypatch.setattr(affordance, "FORK_MIN_PAIRS", 1)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def inline(*args, **kwargs):
    """recognize_objects as on one CPU: the oracle."""
    with mock.patch.object(experiments, "usable_cpus", lambda: 1):
        return recognize_objects(*args, **kwargs)


def assert_same_scores(got, want):
    assert np.array_equal(got.hits, want.hits) and got.hits.dtype == want.hits.dtype
    assert np.array_equal(got.stored, want.stored)
    assert np.array_equal(got.scores, want.scores, equal_nan=True)
    assert np.array_equal(got.kept, want.kept)


def overflow_case():
    """shape_case's 12 verbs and 6 objects past float32's range: the overflow
    guard flags every pair, so each verb's float64 recheck calls nn.sigmoid."""
    tax, bank, model, feats = shape_case(SIZES, 6)
    decision_point(0.5)  # its bisection's sigmoid calls happen here, not in a probe
    return tax, bank, model, feats * 1e39


def in_child(parent: int, action):
    """nn.sigmoid, running action() first in any process but parent."""
    sigmoid = nn.sigmoid

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return sigmoid(*args, **kwargs)
    return wrapped


def everywhere(action):
    sigmoid = nn.sigmoid

    def wrapped(*args, **kwargs):
        action()
        return sigmoid(*args, **kwargs)
    return wrapped


def fail():
    raise ValueError("probe failed")


def warn():
    warnings.warn("probe warned", RuntimeWarning)


# --- the oracle ---

@st.composite
def fork_cases(draw):
    """probe_cases at thresholds 0, 0.5 and 1, some with every other object past
    float32's range (the overflow guard flags every pair of their blocks)."""
    tax, bank, model, feats, _, (_, keep_t) = draw(probe_cases())
    if draw(st.booleans()):
        feats = feats * np.where(np.arange(len(feats)) % 2, 1.0, 1e39)[:, None]
    return tax, bank, model, feats, draw(st.sampled_from([0.0, 0.5, 1.0])), keep_t


@settings(max_examples=150, deadline=None)
@given(fork_cases(), st.integers(1, 3), st.integers(1, 3))
def test_forked_probe_is_the_inline_probe(case, cols, cells):
    tax, bank, model, feats, hoi_t, keep_t = case
    probed = [v for v, arr in bank.entries.items() if len(arr) and len(tax.categories_of_verb(v))]
    with mock.patch.object(affordance, "PROBE_COLS", cols), mock.patch.object(affordance, "PROBE_CELLS", cells), \
            mock.patch.object(experiments, "usable_cpus", lambda: 2), \
            mock.patch.object(affordance, "FORK_MIN_PAIRS", 0), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = recognize_objects(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
        want = inline(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
    assert fork.call_count == (len(probed) > 1)  # a verb with no categories or no entries is not probed
    assert_same_scores(got, want)


@pytest.mark.parametrize("sizes,cut", [([5, 1, 1, 1, 1, 1], 1), ([1, 1, 1, 1, 1, 5], 5), ([3] * 6, 3)])
def test_the_halves_cost_about_the_same(sizes, cut):
    # each verb has 5 own categories, so costs 6 per entry: the cut leaves the
    # two halves' costs closest
    tax, bank, model, feats = shape_case(sizes, 2)
    halves = []
    with mock.patch.object(experiments, "fork_halves", lambda work, a, b, out: halves.append((a, b))), \
            mock.patch.object(affordance, "FORK_MIN_PAIRS", 1):
        recognize_objects(feats, bank, model, tax)
    (first, second), = halves
    assert [v for v, _, _ in first] == list(range(cut)) and [v for v, _, _ in second] == list(range(cut, 6))


# --- where no child starts ---

def test_the_gate_is_the_pair_count(forks, monkeypatch):
    # 12 verbs x 100 entries: 166 objects are 199,200 pairs, 167 are 200,400
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    assert FORK_MIN_PAIRS == 200_000
    tax, bank, model, feats = shape_case(SIZES, 167)
    below = recognize_objects(feats[:166], bank, model, tax)
    assert forks == []
    above = recognize_objects(feats, bank, model, tax)
    assert len(forks) == 1
    assert_same_scores(below, inline(feats[:166], bank, model, tax))
    assert_same_scores(above, inline(feats, bank, model, tax))


def test_one_usable_cpu_or_no_fork_runs_inline(forks, monkeypatch):
    monkeypatch.setattr(affordance, "FORK_MIN_PAIRS", 1)
    tax, bank, model, feats = shape_case(SIZES, 20)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    want = recognize_objects(feats, bank, model, tax)
    assert len(forks) == 1
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    assert_same_scores(recognize_objects(feats, bank, model, tax), want)
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert_same_scores(recognize_objects(feats, bank, model, tax), want)
    assert len(forks) == 1


def test_another_python_thread_or_a_failed_fork_runs_inline(forks, open_gate, monkeypatch):
    tax, bank, model, feats = shape_case(SIZES, 20)
    want = inline(feats, bank, model, tax)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert_same_scores(recognize_objects(feats, bank, model, tax), want)
    finally:
        release.set()
        other.join()
    assert forks == []

    def no_process():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert_same_scores(recognize_objects(feats, bank, model, tax), want)


@pytest.mark.parametrize("cpus", [1, 2])
def test_both_paths_probe_on_one_blas_thread(cpus, open_gate, monkeypatch):
    if blas.blas_info()["threads"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: there is no thread count to read")
    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
    tax, bank, model, feats = overflow_case()
    threads = []
    monkeypatch.setattr(nn, "sigmoid", everywhere(lambda: threads.append(blas.blas_info()["threads"])))
    recognize_objects(feats, bank, model, tax)
    assert threads and set(threads) == {1}


def forks_in_a_worker(_) -> tuple[int, list]:
    """In a spawn worker: the children an open-gated probe starts, and its hits."""
    tax, bank, model, feats = shape_case(SIZES, 20)
    with mock.patch.object(experiments, "usable_cpus", lambda: 2), \
            mock.patch.object(affordance, "FORK_MIN_PAIRS", 1), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        hits = recognize_objects(feats, bank, model, tax).hits
    return fork.call_count, hits.tolist()


def test_a_trend_worker_forks_no_child(forks, open_gate):
    # the pool already fills the CPUs; the same probe forks here
    (calls, hits), = spawn_map(forks_in_a_worker, 1, [None])
    assert calls == 0
    assert forks_in_a_worker(None) == (1, hits)


TOY = {"n_train": 80, "n_test": 40, "n_external": 40, "train": TrainConfig(iterations=10)}
# perfbench's toy warm-up of the trends workload: one seed, in process
WARMUP = {"n_train": 40, "n_test": 20, "n_external": 20, "train": TrainConfig(iterations=5)}


def test_small_probes_fork_no_child(forks, monkeypatch, capsys):
    tax, bank, model, feats = shape_case(SIZES, 1)
    recognize(feats[0], bank, model, tax)
    reproduce_trends(TrendSettings(seeds=(0, 1), **TOY))  # in process, below the pool's work gate
    reproduce_trends(TrendSettings(seeds=(3,), **WARMUP))
    monkeypatch.setattr(experiments, "POOL_MIN_ROWS", 0)
    reproduce_trends(TrendSettings(seeds=(0, 1), **TOY))  # pooled
    runpy.run_path(str(DEMO), run_name="__main__")
    assert "affordance mAP with M=20" in capsys.readouterr().out
    assert forks == []


# --- failures ---

def test_an_error_in_the_child_alone_is_recomputed_here(forks, open_gate, monkeypatch):
    tax, bank, model, feats = overflow_case()
    want = inline(feats, bank, model, tax)
    monkeypatch.setattr(nn, "sigmoid", in_child(os.getpid(), fail))
    assert_same_scores(recognize_objects(feats, bank, model, tax), want)
    assert len(forks) == 1


def test_an_error_reaches_the_caller_as_inline(forks, open_gate, monkeypatch):
    tax, bank, model, feats = overflow_case()
    monkeypatch.setattr(nn, "sigmoid", everywhere(fail))
    with pytest.raises(ValueError) as want:
        inline(feats, bank, model, tax)
    with pytest.raises(ValueError) as got:
        recognize_objects(feats, bank, model, tax)
    assert str(got.value) == str(want.value) == "probe failed"
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_warning_surfaces_as_inline(forks, open_gate, monkeypatch):
    tax, bank, model, feats = overflow_case()
    monkeypatch.setattr(nn, "sigmoid", everywhere(warn))
    # the suite's filters make a RuntimeWarning an error
    with pytest.raises(RuntimeWarning, match="probe warned"):
        inline(feats, bank, model, tax)
    with pytest.raises(RuntimeWarning, match="probe warned"):
        recognize_objects(feats, bank, model, tax)
    # shown every time, each warning of the inline path is shown once: the
    # child's half fails on its first, and its warnings are shown here
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        expected = inline(feats, bank, model, tax)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        assert_same_scores(recognize_objects(feats, bank, model, tax), expected)
    assert len(got) == len(want) >= 12
    assert len(forks) == 2


def test_fork_halves_recomputes_a_failed_half_and_raises_its_error(forks, monkeypatch):
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    calls = []

    def work(items, out):
        calls.append(os.getpid())
        for i in items:
            if i < 0:
                raise ValueError(f"item {i}")
            out[i] += 1

    out = np.zeros(4, dtype=np.int64)
    fork_halves(work, [0, 1], [2, 3], out)
    assert out.tolist() == [1, 1, 1, 1] and calls == [os.getpid()] and len(forks) == 1
    with pytest.raises(ValueError, match=r"item -1"):  # the child's half fails, and fails again here
        fork_halves(work, [-1], [2], out)
    assert out.tolist() == [1, 1, 2, 1] and calls == [os.getpid()] * 3 and len(forks) == 2
    with pytest.raises(ValueError, match=r"item -2"):  # this side's half fails
        fork_halves(work, [0], [-2], out)
    assert len(forks) == 3
    assert_reaped(forks)


# fork_halves in a fresh interpreter, which has no other child: it returns,
# then this side's half raises; argv[1] is the source directory
NO_CHILD_LEFT = """
import os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from hoicompose import experiments

experiments.usable_cpus = lambda: 2
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()


def work(items, out):
    for i in items:
        if i < 0:
            raise ValueError(i)
        out[i] += 1


def no_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return "no child"
    return "a child is left"


out = np.zeros(2, dtype=np.int64)
experiments.fork_halves(work, [0], [1], out)
print("returned:", no_child())
try:
    experiments.fork_halves(work, [0], [-1], out)
except ValueError:
    print("raised:", no_child())
print(out.tolist(), len(forks))
"""


def test_no_child_outlives_a_return_or_a_raise():
    src = str(Path(experiments.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_CHILD_LEFT, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "returned: no child\nraised: no child\n[1, 1] 2\n"


def test_buffered_output_is_written_once(forks, open_gate, monkeypatch, capfd):
    # the child leaves by os._exit, which flushes no buffer it copied
    tax, bank, model, feats = shape_case(SIZES, 20)
    stdout = os.fdopen(os.dup(1), "w")  # buffered, unlike capfd's sys.stdout
    monkeypatch.setattr(sys, "stdout", stdout)
    print("before the probe")
    recognize_objects(feats, bank, model, tax)
    stdout.close()
    assert len(forks) == 1
    assert capfd.readouterr().out == "before the probe\n"


def test_the_fork_warning_of_python_3_12_is_not_shown(open_gate, monkeypatch):
    # Python 3.12+ warn after a fork in a process with other OS threads, such as
    # OpenBLAS's; fork_halves checks that no other Python thread runs
    fork = os.fork

    def fork_warning():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork_warning)
    tax, bank, model, feats = shape_case(SIZES, 20)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        got = recognize_objects(feats, bank, model, tax)
    assert shown == []
    assert_same_scores(got, inline(feats, bank, model, tax))
