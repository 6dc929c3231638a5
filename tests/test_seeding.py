import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoicompose.seeding import instance_rngs, per_instance_rng, stream_seed, substream


def test_substream_deterministic():
    a = substream(42, "data").random(5)
    b = substream(42, "data").random(5)
    np.testing.assert_array_equal(a, b)


def test_substreams_independent_by_name():
    a = substream(42, "data").random(5)
    b = substream(42, "init").random(5)
    assert not np.array_equal(a, b)


def test_substreams_independent_by_seed():
    a = substream(1, "data").random(5)
    b = substream(2, "data").random(5)
    assert not np.array_equal(a, b)


def test_per_instance_order_independent():
    # Drawing instance 7 never depends on whether 0..6 were drawn first.
    direct = per_instance_rng(9, "train", 7).random(3)
    for i in range(7):
        per_instance_rng(9, "train", i).random(100)
    again = per_instance_rng(9, "train", 7).random(3)
    np.testing.assert_array_equal(direct, again)


def test_per_instance_distinct():
    a = per_instance_rng(9, "train", 0).random(3)
    b = per_instance_rng(9, "train", 1).random(3)
    assert not np.array_equal(a, b)


def test_stream_seed_stable():
    assert stream_seed(5, "bank") == stream_seed(5, "bank")
    assert stream_seed(5, "bank") != stream_seed(5, "data")


NAMES = ["train", "test", "external", "", "ünïcødé 名前"]
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**70))
# Row ranges starting at 0, crossing 2**32 - 1 -> 2**32 (where an index gains a
# second 32-bit word) and lying at or above 2**32, up to the largest index.
ROWS = st.one_of(
    st.integers(0, 12).map(lambda n: range(n)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda ab: range(2**32 - ab[0], 2**32 + ab[1])),
    st.tuples(st.integers(2**32, 2**64 - 8), st.integers(0, 6)).map(lambda sn: range(sn[0], sn[0] + sn[1])),
    st.just(range(2**64 - 3, 2**64)),
    st.just(range(2**32 + 2, 2**32 - 3, -2)),
)


def draws(rng):
    # integers(60) draws a 32-bit word and buffers the other half, so a stale
    # buffered word would show in the next row's first integers(60).
    return [rng.integers(60), rng.standard_normal(3).tolist(), rng.random(2).tolist(),
            rng.integers(60), rng.integers(0, 1000, size=3).tolist()]


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from(NAMES), ROWS)
@example(0, "train", range(50))
@example(7, "test", range(50))
@example(2**40, "external", range(50))
def test_instance_rngs_match_per_instance_rng(seed, name, rows):
    rngs = instance_rngs(seed, name, rows)
    for i in rows:
        rng, oracle = next(rngs), per_instance_rng(seed, name, i)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert draws(rng) == draws(oracle)
    assert next(rngs, None) is None


def test_instance_rngs_reuse_one_generator():
    rngs = list(instance_rngs(3, "train", range(3)))
    assert rngs[0] is rngs[1] is rngs[2]
    assert list(instance_rngs(3, "train", range(0))) == []


def error_of(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def test_instance_rngs_refuse_as_the_oracle_does():
    # Refused when called, before any generator is drawn.
    assert error_of(lambda: instance_rngs(-1, "train", range(3))) == \
        error_of(lambda: per_instance_rng(-1, "train", 0)) == \
        error_of(lambda: np.random.SeedSequence([-1]))
    assert error_of(lambda: instance_rngs(0, "train", range(-2, 3))) == \
        error_of(lambda: per_instance_rng(0, "train", -2))
    assert error_of(lambda: instance_rngs(0, "train", range(2**64 - 1, 2**64 + 1))) == \
        "instance index must be below 2**64"
