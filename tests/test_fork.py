"""parallel.fork_pair's two users. recognize_objects probes half of the bank's
verbs in a forked child when two CPUs are usable and the probe is large
enough, and train runs its spatial loop in one from pipeline.FORK_MIN_STEPS
steps on. The inline path is the oracle: the same hits, scores and kept verbs,
or the same model, trace, counters and grad norms, bit for bit, the same
errors and warnings, and no child left behind. A spy on os.fork shows where no
child may start: on one CPU, without os.fork, beside another Python thread, in
a forked child such as a trend seed's, below either gate, and on the package's
small probes."""
import gc
import os
import pickle
import runpy
import signal
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_affordance import probe_cases, shape_case
from test_cli import TINY_DATASET, TINY_TRAIN, TINY_WORLD, run, write_config
from test_pipeline import tiny_setup

from hoicompose import affordance, blas, experiments, nn, parallel, pipeline
from hoicompose.affordance import FORK_MIN_PAIRS, decision_point, recognize, recognize_objects
from hoicompose.experiments import TrendSettings, reproduce_trends
from hoicompose.parallel import fork_pair
from hoicompose.pipeline import StepSampler, TrainConfig, train

DEMO = Path(__file__).resolve().parent.parent / "demos" / "affordance_bank.py"
# 12 verbs x 100 entries; every verb has categories of its own
SIZES = [100] * 12


@pytest.fixture
def open_gate(monkeypatch):
    """Two usable CPUs and no pair minimum: every probe of two verbs or more forks."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(affordance, "FORK_MIN_PAIRS", 1)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def inline(*args, **kwargs):
    """recognize_objects as on one CPU: the oracle."""
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
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
            mock.patch.object(parallel, "usable_cpus", lambda: 2), \
            mock.patch.object(affordance, "FORK_MIN_PAIRS", 0), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = recognize_objects(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
        want = inline(feats, bank, model, tax, hoi_threshold=hoi_t, keep_threshold=keep_t)
    assert fork.call_count == (len(probed) > 1)  # a verb with no categories or no entries is not probed
    assert_same_scores(got, want)


@pytest.mark.parametrize("sizes,cut", [([5, 1, 1, 1, 1, 1], 1), ([1, 1, 1, 1, 1, 5], 5), ([3] * 6, 3)])
def test_the_halves_cost_about_the_same(sizes, cut):
    # each verb has 5 own categories, so costs 6 per entry: the cut leaves the
    # two halves' costs closest; the child's half is the first verbs' columns
    tax, bank, model, feats = shape_case(sizes, 2)
    halves = []

    def spy(child, parent):
        halves.append((child(iter(())), parent(None)))

    with mock.patch.object(parallel, "fork_pair", spy), mock.patch.object(affordance, "FORK_MIN_PAIRS", 1):
        want = recognize_objects(feats, bank, model, tax)
    (first, second), = halves
    assert first.shape == (2, cut)
    assert np.array_equal(first, want.hits[:, :cut]) and np.array_equal(second[:, cut:], want.hits[:, cut:])
    assert not second[:, :cut].any()


# --- where no child starts ---

def test_the_gate_is_the_pair_count(forks, monkeypatch):
    # 12 verbs x 100 entries: 166 objects are 199,200 pairs, 167 are 200,400
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
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
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    want = recognize_objects(feats, bank, model, tax)
    assert len(forks) == 1
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert_same_scores(recognize_objects(feats, bank, model, tax), want)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
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
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    tax, bank, model, feats = overflow_case()
    threads = []
    monkeypatch.setattr(nn, "sigmoid", everywhere(lambda: threads.append(blas.blas_info()["threads"])))
    recognize_objects(feats, bank, model, tax)
    assert threads and set(threads) == {1}


def probe_forks_here(_) -> tuple[int, list]:
    """The children an open-gated probe starts here, and its hits."""
    tax, bank, model, feats = shape_case(SIZES, 20)
    with mock.patch.object(parallel, "usable_cpus", lambda: 2), \
            mock.patch.object(affordance, "FORK_MIN_PAIRS", 1), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        hits = recognize_objects(feats, bank, model, tax).hits
    return fork.call_count, hits.tolist()


def test_a_trend_worker_forks_no_child(forks, open_gate):
    # a trend seed's probe runs in a fork_pair child, beside its caller or its
    # sibling, which already fill the CPUs; the same probe forks here
    (calls, hits), here = fork_pair(probe_forks_here, lambda _: None)
    assert (calls, here) == (0, None)
    assert probe_forks_here(None) == (1, hits)
    assert len(forks) == 2
    assert_reaped(forks)


TOY = {"n_train": 80, "n_test": 40, "n_external": 40, "train": TrainConfig(iterations=10)}
# perfbench's toy warm-up of the trends workload: one seed, in process
WARMUP = {"n_train": 40, "n_test": 20, "n_external": 20, "train": TrainConfig(iterations=5)}


def test_small_probes_fork_no_child(forks, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "FORK_MIN_STEPS", 10**9)  # the demo's 1,200 training steps would fork
    in_seeds = []  # the children forked inside each seed run in this process

    def counted(*args, real=experiments.run_trend_seed):
        before = len(forks)
        try:
            return real(*args)
        finally:
            in_seeds.append(len(forks) - before)

    monkeypatch.setattr(experiments, "run_trend_seed", counted)
    tax, bank, model, feats = shape_case(SIZES, 1)
    recognize(feats[0], bank, model, tax)
    reproduce_trends(TrendSettings(seeds=(0,), **TOY))  # one seed: in process
    reproduce_trends(TrendSettings(seeds=(3,), **WARMUP))
    assert in_seeds == [0, 0] and forks == []
    reproduce_trends(TrendSettings(seeds=(0, 1), **TOY))  # two seed children, which fork nothing
    assert in_seeds == [0, 0] and len(forks) == 2
    forks.clear()
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


def test_fork_pair_recomputes_a_failed_child_and_leaves_a_failed_caller_inline(forks, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    calls = []

    def work(items):
        calls.append(os.getpid())
        if min(items) < 0:
            raise ValueError(f"item {min(items)}")
        return sum(items)

    def sender(items):  # sends each item to the child's feed, then works on them here
        def parent(send):
            for i in items:
                send(i)
            return work(items)
        return parent

    assert fork_pair(lambda feed: work(list(feed)), sender([0, 1])) == (1, 1)
    assert calls == [os.getpid()] and len(forks) == 1
    with pytest.raises(ValueError, match=r"item -1"):  # the child fails, and fails again here on the items sent
        fork_pair(lambda feed: work([*feed, -1]), sender([2]))
    assert calls == [os.getpid()] * 3 and len(forks) == 2
    assert fork_pair(lambda feed: work([0]), sender([-2])) is None  # this side fails: the caller goes inline
    assert len(forks) == 3
    assert_reaped(forks)


def test_a_child_that_dies_before_or_while_sending_is_recomputed(forks, monkeypatch):
    # its result pipe ends empty or inside the pickle; its nonzero status, not
    # the failed read, decides: the child's side runs here, the caller's is kept
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    me, write = os.getpid(), parallel._write

    def half_then_exit(fd, item):
        if os.getpid() == me:
            return write(fd, item)
        data = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
        os.write(fd, data[:len(data) // 2])
        os._exit(1)

    def work(feed):
        return list(range(100)), os.getpid()

    def killed(feed):
        if os.getpid() != me:
            kill_self()
        return work(feed)

    want = ((list(range(100)), me), "here")
    assert fork_pair(killed, lambda send: "here") == want
    monkeypatch.setattr(parallel, "_write", half_then_exit)
    assert fork_pair(work, lambda send: "here") == want
    assert len(forks) == 2
    assert_reaped(forks)


# fork_pair in a fresh interpreter, which has no other child: it returns,
# then this side raises; then reproduce_trends returns, then raises as its
# serial loop (n_external=1 leaves seed 1 no novel object, seed 5 keeps one);
# argv[1] is the source directory
NO_CHILD_LEFT = """
import os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from hoicompose import parallel
from hoicompose.experiments import TrendSettings, reproduce_trends
from hoicompose.pipeline import TrainConfig

parallel.usable_cpus = lambda: 2
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()


def work(i):
    if i < 0:
        raise ValueError(i)
    return np.arange(1 << 17) + i  # 1 MiB: more than a pipe holds


def no_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return "no child"
    return "a child is left"


child, here = parallel.fork_pair(lambda feed: work(0), lambda send: work(1))
print("returned:", no_child())
print(parallel.fork_pair(lambda feed: work(0), lambda send: work(-1)), no_child())
print(int(child[-1]), int(here[-1]), len(forks))

env = dict(os.environ)
toy = {"n_train": 250, "n_test": 60, "n_external": 60, "train": TrainConfig(iterations=10)}
reproduce_trends(TrendSettings(seeds=(0, 1), **toy))
print("trends returned:", no_child(), len(forks))
try:
    reproduce_trends(TrendSettings(seeds=(5, 1), **{**toy, "n_external": 1}))
except ValueError as e:
    print(e, no_child(), len(forks), os.environ == env)
"""


def test_no_child_outlives_a_return_or_a_raise():
    # the child's result is larger than the pipe holds, so the caller must read it before the wait
    src = str(Path(experiments.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_CHILD_LEFT, src], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("returned: no child\nNone no child\n131071 131072 2\ntrends returned: no child 4\n"
                           "seed 1: no novel objects in the external stream no child 6 True\n")


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
    # OpenBLAS's; fork_pair checks that no other Python thread runs
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


# --- train's spatial loop in a child ---

def train_case(iterations: int):
    tax, _, train_set, _, external = tiny_setup()
    return train_set, external, tax, TrainConfig(iterations=iterations, hidden=8, spatial_resolution=4, seed=3)


def train_inline(*args):
    """train as on one CPU: the oracle."""
    with mock.patch.object(parallel, "usable_cpus", lambda: 1):
        return train(*args)


def assert_same_training(got, want):
    for name in ("sp_classifier", "hoi_classifier"):
        assert getattr(got.model, name).flat.tobytes() == getattr(want.model, name).flat.tobytes()
    assert (got.trace, got.counters, got.grad_norms) == (want.trace, want.counters, want.grad_norms)


@pytest.fixture
def open_step_gate(monkeypatch):
    """Two usable CPUs and a step gate of 1: every train of a step or more forks."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "FORK_MIN_STEPS", 1)


def in_child_step(parent: int, action, name="sp_grads"):
    """pipeline.<name>, running action() first in any process but parent, or
    everywhere when parent is None."""
    real = getattr(pipeline, name)

    def wrapped(*args):
        if parent is None or os.getpid() != parent:
            action()
        return real(*args)
    return wrapped


def test_the_step_gate_and_one_child_per_train(forks, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert pipeline.FORK_MIN_STEPS == 100
    below = train(*train_case(99))
    assert forks == []
    case = train_case(100)
    got = [train(*case), train(*case)]
    assert len(forks) == 2
    assert_reaped(forks)
    assert_same_training(below, train_inline(*train_case(99)))
    want = train_inline(*case)
    for result in got:
        assert_same_training(result, want)


def test_one_cpu_no_fork_or_another_thread_trains_inline(forks, open_step_gate, monkeypatch):
    case = train_case(20)
    want = train_inline(*case)
    assert forks == []
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert_same_training(train(*case), want)
    finally:
        release.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    assert_same_training(train(*case), want)
    assert forks == []


def train_forks_here(_) -> tuple[int, bytes]:
    """The children an open-gated train starts here, and its spatial classifier."""
    with mock.patch.object(parallel, "usable_cpus", lambda: 2), mock.patch.object(pipeline, "FORK_MIN_STEPS", 1), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        flat = train(*train_case(20)).model.sp_classifier.flat.tobytes()
    return fork.call_count, flat


def test_a_trend_worker_or_a_forked_child_trains_inline(forks, open_step_gate):
    # a trend seed trains in a fork_pair child: there its train forks nothing
    # and gives the model that a forking train gives here
    (calls, flat), here = fork_pair(train_forks_here, lambda _: None)
    assert (calls, here) == (0, None)
    assert train_forks_here(None) == (1, flat)
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_keeps_nothing_alive_after_it_returns(cpus, open_step_gate, monkeypatch):
    # with the cyclic collector off, the sampler and its matrices go as train
    # returns: no reference cycle holds them until a later collection
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    samplers = []

    class Recorded(StepSampler):
        def __init__(self, *args):
            super().__init__(*args)
            samplers.append(weakref.ref(self))

    monkeypatch.setattr(pipeline, "StepSampler", Recorded)
    gc.disable()
    try:
        train(*train_case(20))
        assert len(samplers) == 1 and samplers[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("cpus", [1, 2])
def test_both_paths_train_on_one_blas_thread(cpus, open_step_gate, monkeypatch, tmp_path):
    # every interaction step appends its thread count to a log: a train's here,
    # and two trend seeds', forked on two CPUs; the caller's count comes back
    if blas.blas_info()["threads"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: there is no thread count to read")
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    log = tmp_path / "threads"

    def record():
        with log.open("a") as f:
            f.write(f"{blas.blas_info()['threads']}\n")

    monkeypatch.setattr(pipeline, "hoi_grads", in_child_step(None, record, "hoi_grads"))
    before = blas.blas_info()["threads"]
    blas._openblas()["set_num_threads"](2)
    try:
        train(*train_case(20))
        reproduce_trends(TrendSettings(seeds=(0, 1), **TOY))
        assert blas.blas_info()["threads"] == 2
    finally:
        blas._openblas()["set_num_threads"](before)
    # two seeds of two trains of 10 steps each
    assert log.read_text().split() == ["1"] * (20 + 2 * 2 * 10)


# --- failures ---

def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("action", [fail, warn, kill_self], ids=["raises", "warns", "dies"])
def test_a_failed_child_is_recomputed_here(action, forks, open_step_gate, monkeypatch):
    case = train_case(20)
    want = train_inline(*case)
    monkeypatch.setattr(pipeline, "sp_grads", in_child_step(os.getpid(), action))
    assert_same_training(train(*case), want)
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("name", ["sp_grads", "hoi_grads"])
def test_an_error_in_either_loop_reaches_the_caller_as_inline(name, forks, open_step_gate, monkeypatch):
    # the loop fails at step 5's plan, in whichever process takes that step
    case, plans = train_case(20), []
    monkeypatch.setattr(pipeline, name, lambda *args, real=getattr(pipeline, name): plans.append(args[2]) or real(*args))
    train_inline(*case)

    def failing(*args, real=getattr(pipeline, name)):
        if np.array_equal(args[2].rows, plans[5].rows):
            raise ValueError(f"{name} failed at step 5")
        return real(*args)

    monkeypatch.setattr(pipeline, name, failing)
    with pytest.raises(ValueError) as want:
        train_inline(*case)
    with pytest.raises(ValueError) as got:
        train(*case)
    assert str(got.value) == str(want.value) == f"{name} failed at step 5"
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_failed_interaction_loop_reruns_the_drawn_plans_inline(forks, open_step_gate, monkeypatch):
    # its first try fails at step 5 of the second window: the windows run here
    # from the first step, on the plans already drawn, and no window is drawn twice
    monkeypatch.setattr(pipeline, "TRAIN_WINDOW", 4)
    case, calls, real = train_case(20), [], pipeline.hoi_grads

    def fails_once(*args):
        calls.append(None)
        if len(calls) == 6:
            raise ValueError("a one-off failure")
        return real(*args)

    want = train_inline(*case)
    monkeypatch.setattr(pipeline, "hoi_grads", fails_once)
    draws = []
    monkeypatch.setattr(StepSampler, "draw", lambda self, *a, real=StepSampler.draw: draws.append(a) or real(self, *a))
    assert_same_training(train(*case), want)
    assert len(calls) == 6 + 20 and len(draws) == 5
    assert len(forks) == 1
    assert_reaped(forks)


def test_a_warning_in_the_spatial_loop_surfaces_as_inline(forks, open_step_gate, monkeypatch):
    # shown every time, each warning of the inline path is shown once: the
    # child fails on its first, and the recomputed loop's are shown here
    case = train_case(20)
    monkeypatch.setattr(pipeline, "sp_grads", in_child_step(None, warn))
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        expected = train_inline(*case)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        assert_same_training(train(*case), expected)
    assert len(got) == len(want) == 20
    assert len(forks) == 1


# hoicompose train in a fresh interpreter with a spatial loop that raises:
# argv[1] is the source directory, argv[2] the usable CPUs, the rest the command line
FAILING_TRAIN = """
import os, sys
sys.path.insert(0, sys.argv[1])
from hoicompose import cli, parallel, pipeline

def sp_grads(*args):
    raise RuntimeError("the spatial loop failed")

pipeline.sp_grads = sp_grads
pipeline.FORK_MIN_STEPS = 1
parallel.usable_cpus = lambda: int(sys.argv[2])
fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or fork()
try:
    code = cli.main(sys.argv[3:])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
        print("a child is left", len(forks), file=sys.stderr)
    except ChildProcessError:
        print("no child", len(forks))
sys.exit(code)
"""


def test_a_failing_spatial_loop_ends_the_command_as_inline(tmp_path):
    src = str(Path(experiments.__file__).resolve().parents[1])
    data = tmp_path / "data"
    gen = write_config(tmp_path / "gen.json", {"world": TINY_WORLD, "dataset": TINY_DATASET,
                                               "split": {"mode": "novel-object"}})
    assert run("gen-data", gen, data) == 0
    cfg = write_config(tmp_path / "train.json", {"data_dir": str(data), "train": TINY_TRAIN})
    ends = {}
    for cpus in (1, 2):
        proc = subprocess.run([sys.executable, "-c", FAILING_TRAIN, src, str(cpus), "train", "--config", cfg,
                               "--out", str(tmp_path / f"out{cpus}")], capture_output=True, text=True, timeout=60)
        ends[cpus] = (proc.returncode, proc.stdout, proc.stderr.strip().splitlines()[-1])
    assert ends[1] == (1, "no child 0\n", "RuntimeError: the spatial loop failed")
    assert ends[2] == (1, "no child 1\n", "RuntimeError: the spatial loop failed")
