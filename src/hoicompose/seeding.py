"""Deterministic named RNG streams derived from a single master seed.

Each consumer asks for a stream by name, so adding a new consumer never
shifts the draws of existing ones. Per-instance streams additionally fold
in the instance index, making generation order-independent.
"""
from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np


def _name_key(name: str) -> int:
    """Stable 64-bit key for a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _seed_sequence(master_seed: int, name: str, *index: int) -> np.random.SeedSequence:
    """The SeedSequence of the named stream, or of one instance within it."""
    return np.random.SeedSequence([int(master_seed), _name_key(name), *index])


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream under this master seed."""
    return np.random.default_rng(_seed_sequence(master_seed, name))


def per_instance_rng(master_seed: int, name: str, index: int) -> np.random.Generator:
    """Generator for one instance within a named stream."""
    if index < 0:
        raise ValueError("instance index must be nonnegative")
    return np.random.default_rng(_seed_sequence(master_seed, name, int(index)))


def stream_seed(master_seed: int, name: str) -> int:
    """A plain integer seed derived from the named stream (for APIs that want one)."""
    return int(_seed_sequence(master_seed, name).generate_state(1, dtype=np.uint64)[0])


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants,
# unchanged since numpy 1.17; tests/test_seeding.py compares instance_rngs with
# per_instance_rng, so a change to any of them fails there.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: its 32-bit words, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash of 32-bit words, held in uint64 columns: each call
    mixes in the next of the constants hash_const * mult**k. Products stay below
    2**64 and are masked back to 32 bits, so numpy's uint32 C arithmetic is
    reproduced exactly."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16
    return hashmix


def _pool(entropy: list) -> list[np.ndarray]:
    """SeedSequence's entropy mixing of every row at once: entropy is a list of
    32-bit words, each one column holding that word of every row, and the
    result is the rows' four pool words."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_states(pool: list[np.ndarray]) -> Iterator[tuple[int, int]]:
    """Each row's PCG64 (state, inc): its pool's generate_state(4, uint64), as
    PCG64's constructor draws it, set as pcg64_set_seed does."""
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (words[k] | words[k + 1] << np.uint64(32) for k in range(0, 8, 2))
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi.tolist(), seed_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def instance_rngs(master_seed: int, name: str, rows: range) -> Iterator[np.random.Generator]:
    """The generators of the named stream's instances at rows, in order: the i-th
    yielded generator draws what per_instance_rng(master_seed, name, rows[i])
    draws, bit for bit.

    All rows are seeded in one vectorised pass over SeedSequence's and PCG64's
    seeding arithmetic, and every row reuses one Generator whose state is reset
    for it. So a yielded generator is valid only until the next one is drawn.
    Indexes must lie below 2**64; a negative seed or index is refused as
    per_instance_rng refuses it, when this is called."""
    if rows and min(rows) < 0:
        raise ValueError("instance index must be nonnegative")
    if rows and max(rows) >> 64:
        raise ValueError("instance index must be below 2**64")
    prefix = _words(int(master_seed)) + _words(_name_key(name))
    index = np.arange(rows.start, rows.stop, rows.step, dtype=np.uint64)
    # An index of two 32-bit words lengthens the entropy, so those rows are their own group.
    wide = index > _MASK32
    groups = np.split(index, np.flatnonzero(wide[1:] != wide[:-1]) + 1)
    states = []
    for group in filter(len, groups):
        tail = [group & _MASK32] + ([group >> np.uint64(32)] if group[0] > _MASK32 else [])
        entropy = [np.full(len(group), w, dtype=np.uint64) for w in prefix] + tail
        states.extend(_pcg64_states(_pool(entropy)))
    return _reseeded(states)


def _reseeded(states: list[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """One Generator, set to each PCG64 (state, inc) in turn as a fresh PCG64 holds it."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng
