"""Derived random streams.

Every stochastic routine draws from a counter-based Philox generator keyed by
(master seed, stream tag, item index). Streams derived this way are
statistically independent and do not depend on scheduling, so results are
bit-for-bit reproducible no matter how work is split across workers.

The key of item ``i`` is the one numpy derives from
``SeedSequence(entropy=seed, spawn_key=(stream, i))``. ``derived_rng`` builds
that SeedSequence for a single item. ``path_generators`` computes the keys of
a whole index range in one batched numpy pass of the same hash, bit-identical
to the SeedSequence keys, and re-keys one reused Philox per item, so a path
costs neither a SeedSequence nor a generator construction.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .errors import ConfigError

# Stream tags. Keeping them distinct means e.g. resampling never reuses the
# variates of the walk that produced its input.
STREAM_WALK = 0
STREAM_RESAMPLE = 1
STREAM_BOUNDARY = 2
STREAM_RETURN = 3

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

# numpy encodes a spawn-key word above 32 bits as two words, which the batched
# pass does not reproduce.
MAX_INDEX = MASK32


def derived_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    return np.random.Generator(np.random.Philox(ss))


# Kept, though the package no longer calls it: bench/tracing.py wraps it by name.
def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Generator for one path of a batch; distinct paths get distinct streams."""
    return derived_rng(seed, STREAM_WALK, path_index)


def _hash(value, hash_const: int, mult: int):
    """One SeedSequence hash step; returns (hashed value, next hash constant).

    ``value`` is an int or a uint64 array holding 32-bit words; products are
    reduced mod 2**32, which uint64 wraparound leaves exact.
    """
    next_const = hash_const * mult & MASK32
    value = (value ^ hash_const) * next_const & MASK32
    return value ^ value >> XSHIFT, next_const


def _mix(x, y):
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ result >> XSHIFT


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as numpy splits it."""
    words = [n & MASK32]
    n >>= 32
    while n:
        words.append(n & MASK32)
        n >>= 32
    return words


def philox_keys(seed: int, stream: int, first: int, count: int) -> np.ndarray:
    """Philox keys of items ``first .. first + count - 1`` as a (count, 2) uint64 array.

    Row ``j`` equals ``SeedSequence(seed, spawn_key=(stream, first + j))
    .generate_state(2, np.uint64)``. This transcribes ``mix_entropy`` and
    ``generate_state`` with the item index as an array; only the last spawn
    word varies per item, so all but the final four mixing rounds run on ints.
    """
    seed = operator.index(seed)
    if seed < 0 or first < 0:
        raise ValueError("expected non-negative integer")
    if first + count - 1 > MAX_INDEX:
        raise ConfigError(
            f"item index {first + count - 1} exceeds the stream index limit {MAX_INDEX}"
        )
    index = np.arange(first, first + count, dtype=np.uint64)
    # a spawn key follows, so the run entropy is padded to the pool size
    entropy = _words(seed)
    entropy += [0] * (POOL_SIZE - len(entropy))
    entropy += [stream, index]

    hash_const = INIT_A
    pool = []
    for word in entropy[:POOL_SIZE]:
        value, hash_const = _hash(word, hash_const, MULT_A)
        pool.append(value)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                value, hash_const = _hash(pool[src], hash_const, MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            value, hash_const = _hash(word, hash_const, MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # generate_state(2, uint64): four 32-bit words, paired little-endian
    hash_const = INIT_B
    state = []
    for word in pool:
        value, hash_const = _hash(word, hash_const, MULT_B)
        state.append(value)
    keys = np.empty((len(index), 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << 32
    keys[:, 1] = state[2] | state[3] << 32
    return keys


def path_generators(
    seed: int, stream: int, first: int, count: int
) -> Iterator[np.random.Generator]:
    """Yield the generators of items ``first .. first + count - 1`` in order.

    The generator of item ``i`` draws exactly what ``derived_rng(seed, stream,
    i)`` draws. One Philox is re-keyed per item (counter 0, empty buffer), so
    a yielded generator is valid only until the next one is yielded. Arguments
    are checked and the keys computed on the call, not on the first item.
    """
    return _rekeyed(philox_keys(seed, stream, first, count))


def _rekeyed(keys: np.ndarray) -> Iterator[np.random.Generator]:
    bit_gen = np.random.Philox(0)
    rng = np.random.Generator(bit_gen)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    inner = state["state"]
    for key in keys:
        inner["key"] = key
        bit_gen.state = state
        yield rng
