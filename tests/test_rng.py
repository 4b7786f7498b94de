"""Batched path draws: exact agreement with per-item SeedSequence streams."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import walkbound
from walkbound import ConfigError, _rng
from walkbound._rng import BLOCK, HEAD, MAX_INDEX, derived_rng, index_blocks, philox_keys
from walkbound.cli import main

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1)
# a categorical law with unequal cells, as a step measure's cumulative weights
CUMULATIVE = np.array([0.1, 0.15, 0.5, 0.7, 0.71, 1.0])


def assert_keys_draw_derived(seed, stream, items, keys, n, rows):
    """``index_blocks`` of ``keys``, and the uniforms behind it, are what each item's stream draws.

    ``keys[j]`` is the key of ``items[j]``; blocks hold ``rows`` rows but the last.
    """
    blocks = list(index_blocks(CUMULATIVE, keys, n, rows))
    assert [len(block) for block in blocks] == [
        min(rows, len(items) - start) for start in range(0, len(items), rows)
    ]
    assert {block.dtype for block in blocks} <= {np.dtype(np.uint8)}
    drawn = [row for block in blocks for row in block.tolist()]
    uniforms = _rng._uniform_rows(n)(keys)
    assert len(drawn) == len(uniforms) == len(items)
    for i, row, indices in zip(items, uniforms, drawn):
        expected = derived_rng(seed, stream, i).random(n)
        np.testing.assert_array_equal(row, expected)
        assert indices == np.searchsorted(CUMULATIVE, expected, side="right").tolist()


def assert_matches_derived(seed, stream, first, count, n, rows=None):
    """As above for the key range of items ``first .. first + count - 1``; one block by default."""
    keys = philox_keys(seed, stream, first, count)
    items = range(first, first + count)
    assert_keys_draw_derived(seed, stream, items, keys, n, rows or count + 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", range(4))
@pytest.mark.parametrize("first", (0, 4095))
def test_generators_draw_what_derived_rng_draws(seed, stream, first):
    # a row of the vectorized pass, and one of the re-keyed C generator
    assert_matches_derived(seed, stream, first, 6, 9)
    assert_matches_derived(seed, stream, first, 6, HEAD + 9)


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence_state(seed):
    keys = philox_keys(seed, 2, 4095, 4)
    for j, key in enumerate(keys):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(2, 4095 + j))
        np.testing.assert_array_equal(key, ss.generate_state(2, np.uint64))


def each_seed_example(test):
    """One explicit example per ``SEEDS`` value, each past ``HEAD`` and across blocks."""
    for stream, seed in enumerate(SEEDS):
        test = example(
            seed=seed, stream=stream % 4, first=MAX_INDEX - 4, count=5, n=HEAD + 1, block=HEAD,
            rows=(1, 3, None)[stream % 3],
        )(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**128 + 1)),
    stream=st.integers(0, 3),
    first=st.integers(0, MAX_INDEX),
    count=st.integers(0, 40),
    # below, at and past HEAD, and lengths that are not whole Philox blocks
    n=st.integers(1, 40),
    # small blocks split a few rows into several draws
    block=st.sampled_from((BLOCK, HEAD, HEAD + 3, 64)),
    # one row a block, three, and every row in one block
    rows=st.sampled_from((1, 3, None)),
)
@each_seed_example
@example(seed=2**64 - 1, stream=0, first=0, count=40, n=HEAD, block=HEAD + 3, rows=3)
def test_generators_match_derived_rng_property(seed, stream, first, count, n, block, rows):
    count = min(count, MAX_INDEX - first + 1)
    with mock.patch.object(_rng, "BLOCK", block):
        assert_matches_derived(seed, stream, first, count, n, rows)


@pytest.mark.parametrize("n", (1, HEAD, 40))
def test_rows_match_across_the_real_block_boundaries(n):
    # one more row than a block of uniforms holds
    assert_matches_derived(3, 0, 11, BLOCK // n + 1, n)


@pytest.mark.parametrize("seed", (0, 2**128 + 1))
def test_rows_from_picked_keys_equal_derived_rng(seed):
    # keys picked out of a range, out of order, as walk._first_returns picks
    # its late rows, draw each item's own stream from its start
    keys = philox_keys(seed, 3, 70, 10)
    items = (79, 70, 73, 74)
    picked = keys[[i - 70 for i in items]]
    # below, at and past HEAD: the vectorized pass, then the re-keyed C Philox
    for n in (HEAD - 3, HEAD, HEAD + 1, 300):
        # two rows of uniforms at a time, so a block of three is filled in two draws
        with mock.patch.object(_rng, "BLOCK", 2 * n):
            for rows in (1, 3, len(items) + 1):
                assert_keys_draw_derived(seed, 3, items, picked, n, rows)


def test_index_blocks_widen_past_255_atoms():
    # the no-op atom len(cumulative) fits uint8 up to 255 atoms; the last
    # atom carries half the weight, so its index is drawn
    for atoms, dtype in ((255, np.uint8), (256, np.uint16)):
        cumulative = np.append(np.linspace(0.5 / (atoms - 1), 0.5, atoms - 1), 1.0)
        keys = philox_keys(1, 0, 0, 40)
        blocks = list(index_blocks(cumulative, keys, 30, 16))
        assert [len(block) for block in blocks] == [16, 16, 8]
        assert {block.dtype for block in blocks} == {np.dtype(dtype)}
        expected = [
            np.searchsorted(cumulative, derived_rng(1, 0, i).random(30), side="right")
            for i in range(40)
        ]
        drawn = np.concatenate(blocks)
        np.testing.assert_array_equal(drawn, expected)
        assert drawn.max() == atoms - 1


def test_last_representable_index_is_exact():
    assert_matches_derived(7, 0, MAX_INDEX, 1, HEAD + 4)


def test_index_past_32_bits_is_refused():
    with pytest.raises(ConfigError, match=str(MAX_INDEX)):
        philox_keys(7, 0, MAX_INDEX - 1, 3)


def test_rows_need_a_draw():
    # on the call, before any block is asked for
    with pytest.raises(ConfigError, match="at least one draw"):
        index_blocks(CUMULATIVE, philox_keys(7, 0, 0, 3), 0, 1)


def test_negative_seed_is_refused_like_seed_sequence():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derived_rng(-1, 0, 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        philox_keys(-1, 0, 0, 1)


def test_cli_negative_seed_exits_two(capsys):
    code = main(["walk", "--config", "fixture:srw-f2", "--seed", "-1",
                 "--n-paths", "2", "--n-steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: expected non-negative integer" in captured.err


def test_short_walk_never_imports_numpy_random():
    script = (
        "import sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from walkbound.cli import main\n"
        "main(['walk', '--config', 'fixture:direct-product', '--n-paths', '50',"
        " '--n-steps', '2', '--format', 'csv', '--seed', '1'])\n"
        "print('eager' if eager else 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(walkbound.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    ).stdout.splitlines()[-1]
    if out == "eager":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert out == "False"
