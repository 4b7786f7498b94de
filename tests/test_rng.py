"""Batched path streams: exact agreement with per-item SeedSequence streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkbound import ConfigError
from walkbound._rng import MAX_INDEX, derived_rng, path_generators, philox_keys
from walkbound.cli import main

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1)


def assert_matches_derived(seed, stream, first, count):
    # draw before the next generator is yielded: one Philox is re-keyed per item
    draws = [rng.random(9) for rng in path_generators(seed, stream, first, count)]
    assert len(draws) == count
    for i, drawn in enumerate(draws, start=first):
        np.testing.assert_array_equal(drawn, derived_rng(seed, stream, i).random(9))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", range(4))
@pytest.mark.parametrize("first", (0, 4095))
def test_generators_draw_what_derived_rng_draws(seed, stream, first):
    assert_matches_derived(seed, stream, first, 6)


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence_state(seed):
    keys = philox_keys(seed, 2, 4095, 4)
    for j, key in enumerate(keys):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(2, 4095 + j))
        np.testing.assert_array_equal(key, ss.generate_state(2, np.uint64))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 3),
    first=st.integers(0, MAX_INDEX - 7),
    count=st.integers(0, 8),
)
def test_generators_match_derived_rng_property(seed, stream, first, count):
    assert_matches_derived(seed, stream, first, count)


def test_last_representable_index_is_exact():
    assert_matches_derived(7, 0, MAX_INDEX, 1)


def test_index_past_32_bits_is_refused():
    with pytest.raises(ConfigError, match=str(MAX_INDEX)):
        path_generators(7, 0, MAX_INDEX - 1, 3)


def test_negative_seed_is_refused_like_seed_sequence():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derived_rng(-1, 0, 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        path_generators(-1, 0, 0, 1)


def test_cli_negative_seed_exits_two(capsys):
    code = main(["walk", "--config", "fixture:srw-f2", "--seed", "-1",
                 "--n-paths", "2", "--n-steps", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: expected non-negative integer" in captured.err
