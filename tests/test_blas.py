"""hoicompose.blas: the OpenBLAS lookup, and the one-thread pin that train and
predict_dataset run under."""
import numpy as np
import pytest
from test_pipeline import tiny_setup

from hoicompose import blas, nn, parallel
from hoicompose.pipeline import TrainConfig, TrainingDiverged, predict_dataset, train
from hoicompose.synth import gen_dataset, gen_world

needs_openblas = pytest.mark.skipif(not blas._openblas(),
                                    reason="numpy's BLAS is not an OpenBLAS whose thread count can be set")


def threads() -> int:
    return blas._openblas()["get_num_threads"]()


@pytest.fixture
def two_threads():
    """OpenBLAS set to 2 threads through the module, and its count given back after the test."""
    before = threads()
    blas._openblas()["set_num_threads"](2)
    yield
    blas._openblas()["set_num_threads"](before)


def threads_seen(monkeypatch) -> list:
    """The thread count at each nn.mlp_forward and nn.mlp_backward call from now on."""
    seen = []
    for name in ("mlp_forward", "mlp_backward"):
        def spy(*args, real=getattr(nn, name), **kwargs):
            seen.append(threads())
            return real(*args, **kwargs)
        monkeypatch.setattr(nn, name, spy)
    return seen


@needs_openblas
def test_blas_info_names_the_loaded_openblas(two_threads):
    info = blas.blas_info()
    assert set(info) == {"name", "version", "core", "threads"}
    assert isinstance(info["core"], str) and info["core"] and info["threads"] == 2


@needs_openblas
def test_train_and_predict_run_on_one_thread_and_restore_the_callers_count(two_threads, monkeypatch):
    tax, _, train_set, test_set, external = tiny_setup()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spy sees this process's steps
    seen = threads_seen(monkeypatch)
    model = train(train_set, external, tax, TrainConfig(iterations=4, seed=0)).model
    assert len(seen) >= 8 and set(seen) == {1}
    assert threads() == 2
    seen.clear()
    predict_dataset(model, test_set, tax)
    assert seen == [1, 1]
    assert threads() == 2


@needs_openblas
def test_divergence_inside_the_pin_restores_the_callers_count(two_threads):
    # full-width features, as in test_train_divergence_reports_step: at toy widths
    # the loss stays finite
    tax, world = gen_world(seed=0)
    train_set, _, external = gen_dataset(world, tax, None, 40, 5, 10, seed=0)
    with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
        train(train_set, external, tax, TrainConfig(iterations=10, lr=1e160, seed=0))
    assert threads() == 2


@needs_openblas
def test_nested_pins_restore_the_count_each_found(two_threads):
    with blas.one_thread():
        assert threads() == 1
        with blas.one_thread():
            assert threads() == 1
        assert threads() == 1
    assert threads() == 2
    with pytest.raises(ZeroDivisionError), blas.one_thread():
        1 / 0
    assert threads() == 2


def test_without_openblas_the_pin_does_nothing_and_blas_info_says_so(monkeypatch):
    found = blas._openblas()
    before = found["get_num_threads"]() if found else None
    monkeypatch.setattr(blas, "_openblas", lambda: {})
    info = blas.blas_info()
    assert info["core"] is None and info["threads"] is None
    tax, _, train_set, test_set, external = tiny_setup()
    result = train(train_set, external, tax, TrainConfig(iterations=4, seed=0))
    assert [row["step"] for row in result.trace] == [0, 3]
    assert predict_dataset(result.model, test_set, tax).shape == (20, tax.n_categories)
    with blas.one_thread():
        assert (found["get_num_threads"]() if found else None) == before
