"""Derived random streams.

Every stochastic routine draws from a counter-based Philox generator keyed by
(master seed, stream tag, item index). Streams derived this way are
statistically independent and do not depend on scheduling, so results are
bit-for-bit reproducible no matter how work is split across workers.

The key of item ``i`` is the one numpy derives from
``SeedSequence(entropy=seed, spawn_key=(stream, i))``. ``derived_rng`` builds
that SeedSequence for a single item. ``philox_keys`` computes the keys of a
whole index range in one batched numpy pass of the same hash, bit-identical to
the SeedSequence keys.

``index_blocks`` is the one draw routine: it turns the keys of any items
into (rows, n) blocks of categorical draws, each block filled in place. The
keys are a range from ``philox_keys``, or rows picked out of one:
``walk._first_returns`` redraws the samples that have not yet returned that
way, from the starts of their own streams. Rows of at most ``HEAD`` uniforms
come from a numpy transcription of Philox4x64-10 and ``Generator.random``,
vectorized over the rows of a block, so a run of short rows never imports
``numpy.random``; a longer row comes from one C Philox re-keyed per item. No
row costs a SeedSequence, and a call builds at most one generator.

Every draw maps uniforms to atom indices through one kernel, ``_categorical``:
index ``searchsorted(cumulative, u, side="right")``, the number of cumulative
weights at or below u. Up to ``COUNT_ATOMS`` atoms it counts those weights
directly, one in-place comparison per weight added as uint8 into the index
block; past them it keeps ``searchsorted``. ``index_blocks``,
``StepMeasure.draw_indices`` and the cylinder resample of
``boundary.stationarity_residual`` all call it.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterator

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

# numpy's Philox4x64-10 constants (numpy/random/src/philox/philox.h): the
# multipliers of lanes 0 and 2, and the Weyl increments of the two key words.
PHILOX_ROUNDS = 10
PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_MULT_LO = PHILOX_MULT & MASK32
_MULT_HI = PHILOX_MULT >> 32

# The longest row drawn by the vectorized pass: four Philox blocks. The pass
# costs about 65 ns per uniform and numpy's C generator about 8, plus a re-key
# of about 1.3 us per row, so a longer row is cheaper drawn whole in C.
HEAD = 16
# Uniforms drawn at a time into a block of rows (one row when a row alone is
# longer), and about the size of the blocks that walks read row by row. The pass
# is mostly per-call overhead at 4096 (about 98 ns per uniform for 6000 rows
# of 16) and levels off from 16384 (66 ns), while a short-paths round's peak
# RSS grows by about 0.5 MiB per doubling past it.
BLOCK = 16384
# The most atoms whose draws count comparisons instead of calling searchsorted.
# In ns a draw on a 2-core x86-64 host (numpy 2.4, blocks of 16384 uniforms,
# best of 40), searchsorted against counting into uint8: 15.9 against 1.5 at 4
# atoms, 23.9 against 2.8 at 12, 48.6 against 15.0 at 64, 57.5 against 30.1 at
# 128 and 65.1 against 59.8 at 255. Counting into uint16 costs more and fell
# behind between 160 and 192 atoms (60.6 against 55.3, 63.7 against 66.3).
COUNT_ATOMS = 128


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


def index_blocks(
    cumulative: np.ndarray, keys: np.ndarray, n: int, rows: int
) -> Iterator[np.ndarray]:
    """Yield the ``n`` categorical draws of each key's stream, as blocks of at most ``rows`` rows.

    ``keys`` is any (count, 2) array of rows of ``philox_keys``. Stacked, the
    blocks' row ``j`` is ``searchsorted(cumulative, derived_rng(seed, stream,
    item).random(n), side="right")`` for the item whose key is ``keys[j]``,
    in the least unsigned dtype that holds the no-op atom
    ``len(cumulative)``: uint8 up to 255 atoms. Each block is filled in
    place by ``_categorical``, about ``BLOCK`` uniforms at a time. ``n`` is
    checked on the call, not on the first block; callers compute ``keys`` on
    the call too, so bad input raises before any draw.
    """
    if n < 1:
        raise ConfigError("need at least one draw per row")
    return _index_blocks(cumulative, keys, n, rows)


def _index_blocks(
    cumulative: np.ndarray, keys: np.ndarray, n: int, rows: int
) -> Iterator[np.ndarray]:
    dtype = np.min_scalar_type(len(cumulative))
    step = max(1, BLOCK // n)
    uniforms = _uniform_rows(n)
    for start in range(0, len(keys), rows):
        chunk = keys[start : start + rows]
        block = np.empty((len(chunk), n), dtype=dtype)
        for first in range(0, len(chunk), step):
            drawn = uniforms(chunk[first : first + step])
            _categorical(cumulative, drawn, block[first : first + step])
        yield block


def _categorical(
    cumulative: np.ndarray, uniforms: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Write ``searchsorted(cumulative, uniforms, side="right")`` into ``out`` and return it.

    ``cumulative`` is non-decreasing and ``out`` an integer array of
    ``uniforms``' shape; by default a new one in the least unsigned dtype
    that holds ``len(cumulative)``, as ``index_blocks`` fills. Up to
    ``COUNT_ATOMS`` weights the index of u is counted as the number of
    weights c with u >= c: each comparison is written in place into one bool
    array, whose uint8 view is added to ``out`` without a cast. Past them it
    is ``searchsorted`` itself.
    """
    if out is None:
        out = np.empty(uniforms.shape, dtype=np.min_scalar_type(len(cumulative)))
    if len(cumulative) > COUNT_ATOMS:
        out[...] = np.searchsorted(cumulative, uniforms, side="right")
        return out
    out.fill(0)
    below = np.empty(uniforms.shape, dtype=bool)
    ones = below.view(np.uint8)
    for edge in cumulative:
        np.greater_equal(uniforms, edge, out=below)
        out += ones
    return out


def _uniform_rows(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function from (rows, 2) Philox keys to the first ``n`` uniforms of each key's stream.

    Row ``j`` of its (rows, n) result equals ``derived_rng(seed, stream,
    item).random(n)`` bit for bit for the item whose key is row ``j``. Up to
    ``HEAD`` uniforms it is ``_head_uniforms``; past it, one C Philox built
    here and re-keyed per row from its state at counter 0 with an empty
    buffer.
    """
    if n <= HEAD:
        return lambda keys: _head_uniforms(keys, n)
    bit_gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state

    def draw(keys: np.ndarray) -> np.ndarray:
        block = np.empty((len(keys), n))
        for key, row in zip(keys, block):
            state["state"]["key"] = key
            bit_gen.state = state
            rng.random(out=row)
        return block

    return draw


def _head_uniforms(keys: np.ndarray, h: int) -> np.ndarray:
    """The first ``h <= HEAD`` uniforms of each key's stream, as a (rows, h) array.

    A transcription of numpy's Philox4x64-10 with ``Generator.random``: the
    stream's k-th block of four words is the Philox bijection of the counter
    (k + 1, 0, 0, 0) under the key, and a uniform is a word's top 53 bits
    times 2**-53. Lanes (0, 2) and (1, 3) are each held as one (2, rows,
    blocks) array, so the two multiplier lanes of a round are one product.
    A round writes into buffers made once per call, as views that swap and
    reverse the lane pairs, so a block of any size allocates nothing per round.
    """
    rows = len(keys)
    blocks = -(-h // 4)
    key = keys.T.reshape(2, rows, 1).copy()
    even = np.zeros((2, rows, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    scratch = [np.empty_like(even) for _ in range(4)]
    for r in range(PHILOX_ROUNDS):
        if r:
            key += PHILOX_BUMP
        hi = _mulhilo(even, *scratch)
        # (x0, x1, x2, x3) -> (hi2 ^ x1 ^ k0, lo2, hi0 ^ x3 ^ k1, lo0)
        odd ^= hi[::-1]
        odd ^= key
        even, odd = odd, even[::-1]
    words = np.empty((rows, blocks, 4), dtype=np.uint64)
    words[..., 0::2] = even.transpose(1, 2, 0)
    words[..., 1::2] = odd.transpose(1, 2, 0)
    words >>= 11
    return words.reshape(rows, 4 * blocks)[:, :h] * (1.0 / 9007199254740992.0)


def _mulhilo(x: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray):
    """High and low 64-bit words of the 128-bit products x * PHILOX_MULT.

    Returns ``hi`` holding the high words and leaves the low words, uint64's
    wrapping product, in ``x``; ``t``, ``u`` and ``v`` are scratch of x's
    shape. The high word is built from 32-bit halves so that no partial sum
    overflows 64 bits.
    """
    np.right_shift(x, 32, out=hi)
    np.bitwise_and(x, MASK32, out=u)
    np.multiply(u, _MULT_LO, out=t)
    t >>= 32
    np.multiply(hi, _MULT_LO, out=v)
    t += v  # t = x_hi * lo + (x_lo * lo >> 32)
    u *= _MULT_HI
    np.bitwise_and(t, MASK32, out=v)
    u += v  # u = (t & MASK32) + x_lo * hi
    u >>= 32
    t >>= 32
    hi *= _MULT_HI
    hi += t
    hi += u
    x *= PHILOX_MULT
    return hi
