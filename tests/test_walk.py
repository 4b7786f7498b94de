"""Path sampling, moments, drift, and the entropy pipeline."""

import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walkbound import (
    ActingGroup,
    BudgetError,
    ConfigError,
    ExtElement,
    StepMeasure,
    Word,
    _rng,
    asymptotic_entropy_estimate,
    build_measure,
    drift_estimate,
    element_key,
    entropy_depth_counts,
    entropy_from_counts,
    ext_inverse,
    ext_multiply,
    fixture_names,
    load_fixture,
    merge_batches,
    merge_depth_counts,
    sample_paths,
    walk,
)
from walkbound._rng import HEAD, MAX_INDEX
from oracles import radial_drift_exact


def point_mass_a(rank: int = 2) -> StepMeasure:
    acting = ActingGroup.trivial(rank)
    atom = ExtElement(Word.parse(rank, "a"), acting.identity_part())
    return StepMeasure(acting, [atom], [1.0], check_generation=False)


def srw_f1() -> StepMeasure:
    acting = ActingGroup.trivial(1)
    idp = acting.identity_part()
    atoms = [
        ExtElement(Word.from_letters(1, [1]), idp),
        ExtElement(Word.from_letters(1, [-1]), idp),
    ]
    return StepMeasure(acting, atoms, [0.5, 0.5])


# -- measure validation ------------------------------------------------------------

def test_measure_rejects_bad_weights(srw_measure):
    acting = srw_measure.acting
    atoms = list(srw_measure.atoms)
    with pytest.raises(ConfigError):
        StepMeasure(acting, atoms, [0.5, 0.5, 0.25, -0.25])
    with pytest.raises(ConfigError):
        StepMeasure(acting, atoms, [0.3, 0.3, 0.3, 0.3])


def test_measure_rejects_duplicate_atoms(srw_measure):
    acting = srw_measure.acting
    first = srw_measure.atoms[0]
    with pytest.raises(ConfigError):
        StepMeasure(acting, [first, first], [0.5, 0.5])


def test_generation_check_rejects_one_sided_mass():
    with pytest.raises(ConfigError):
        acting = ActingGroup.trivial(2)
        atom = ExtElement(Word.parse(2, "a"), acting.identity_part())
        StepMeasure(acting, [atom], [1.0])


def test_moment_examples(srw_measure):
    assert srw_measure.entropy() == pytest.approx(math.log(4))
    assert srw_measure.first_moment() == pytest.approx(1.0)
    pm = point_mass_a()
    assert pm.entropy() == 0.0
    assert pm.first_moment() == 1.0
    assert pm.log_moment() == pytest.approx(math.log(2))


# -- sampling ----------------------------------------------------------------------

def test_point_mass_path_is_powers_of_a():
    pm = point_mass_a()
    batch = sample_paths(pm, 5, 1, 5, record_steps=range(6))
    for n in range(6):
        (g,) = batch.positions[n]
        assert g.w == Word.from_letters(2, [1] * n)


def test_single_step_law_matches_measure(srw_measure):
    n = 4000
    batch = sample_paths(srw_measure, 11, n, 1)
    freqs: dict = {}
    for g in batch.positions[1]:
        key = element_key(srw_measure.acting, g)
        freqs[key] = freqs.get(key, 0) + 1 / n
    for atom, weight in zip(srw_measure.atoms, srw_measure.weights):
        key = element_key(srw_measure.acting, atom)
        assert freqs[key] == pytest.approx(weight, abs=0.03)


def test_same_seed_reproduces(srw_measure):
    first = sample_paths(srw_measure, 42, 20, 50)
    second = sample_paths(srw_measure, 42, 20, 50)
    assert first.positions == second.positions
    third = sample_paths(srw_measure, 43, 20, 50)
    assert third.positions != first.positions


def test_chunked_runs_tile_exactly(semidirect_measure):
    whole = sample_paths(semidirect_measure, 9, 30, 40)
    head = sample_paths(semidirect_measure, 9, 18, 40)
    tail = sample_paths(semidirect_measure, 9, 12, 40, first_path=18)
    merged = merge_batches([head, tail])
    assert merged.positions == whole.positions
    assert merged.n_paths == 30


def test_record_steps_and_final(semidirect_measure):
    batch = sample_paths(semidirect_measure, 1, 5, 30, record_steps=(10, 20))
    assert sorted(batch.positions) == [10, 20, 30]


def test_consecutive_increments_lie_in_support(mixed_measure):
    acting = mixed_measure.acting
    support = {element_key(acting, a) for a in mixed_measure.atoms}
    batch = sample_paths(mixed_measure, 8, 3, 20, record_steps=range(21))
    for path in range(3):
        for n in range(20):
            g = batch.positions[n][path]
            h = batch.positions[n + 1][path]
            step = ext_multiply(acting, ext_inverse(acting, g), h)
            assert element_key(acting, step) in support


# -- drift -------------------------------------------------------------------------

def test_point_mass_drift_is_exactly_one():
    batch = sample_paths(point_mass_a(), 0, 10, 25)
    est = drift_estimate(batch)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_srw_drift_matches_radial_chain(srw_measure):
    n_steps = 400
    batch = sample_paths(srw_measure, 17, 500, n_steps)
    est = drift_estimate(batch)
    exact = radial_drift_exact(2, n_steps)
    assert est.value == pytest.approx(exact, abs=4 * est.stderr)


def test_rank_one_walk_has_zero_drift():
    batch = sample_paths(srw_f1(), 23, 300, 400)
    assert drift_estimate(batch).value < 0.1


# -- entropy pipeline --------------------------------------------------------------

def test_entropy_counts_merge_exactly(srw_measure):
    depths = (3, 5)
    whole = entropy_depth_counts(srw_measure, 31, 200, depths)
    parts = [
        entropy_depth_counts(srw_measure, 31, 120, depths),
        entropy_depth_counts(srw_measure, 31, 80, depths, first_path=120),
    ]
    assert merge_depth_counts(parts) == whole


def test_merge_rejects_mismatched_depths(srw_measure):
    a = entropy_depth_counts(srw_measure, 0, 10, (2,))
    b = entropy_depth_counts(srw_measure, 0, 10, (3,))
    with pytest.raises(ConfigError):
        merge_depth_counts([a, b])


def test_point_mass_entropy_is_zero():
    est = asymptotic_entropy_estimate(point_mass_a(), 3, 200, (2, 4))
    assert est.value == pytest.approx(0.0, abs=1e-12)
    for entropy, support in est.per_depth.values():
        assert support == 1
        assert entropy == pytest.approx(0.0, abs=1e-12)


def test_rank_one_entropy_vanishes():
    est = asymptotic_entropy_estimate(srw_f1(), 13, 4000, (6, 10, 14))
    assert abs(est.value) < 0.12


def test_entropy_budget_guard(srw_measure):
    with pytest.raises(BudgetError):
        asymptotic_entropy_estimate(srw_measure, 0, 10**6, (40,), max_cells=1000)


def test_entropy_cell_bound_forms_no_power():
    # 6 ** (10 ** 9) has 778 million digits: the bound compares the depth
    # with the path count's bit length instead
    measure = build_measure(load_fixture("semidirect-linear"))
    start = time.perf_counter()
    assert walk._checked_depths(measure, 10, (10**9,)) == (10**9,)
    assert time.perf_counter() - start < 1.0
    # min(6 ** 2, 10) cells at each of two depths
    assert walk._checked_depths(measure, 10, (1, 2), max_cells=20) == (1, 2)
    with pytest.raises(BudgetError):
        walk._checked_depths(measure, 10, (1, 2), max_cells=19)
    # one atom: a single cell at every depth, however many paths
    assert walk._checked_depths(point_mass_a(), 10**6, (10**9,), max_cells=1) == (10**9,)


def test_entropy_extrapolation_from_counts(srw_measure):
    counts = entropy_depth_counts(srw_measure, 5, 3000, (4, 6, 8))
    est = entropy_from_counts(counts, 3000)
    assert set(est.per_depth) == {4, 6, 8}
    assert 0.3 < est.value < 0.9


# -- the batched route of entropy_depth_counts -------------------------------------

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1)


@functools.lru_cache(maxsize=None)
def fixture_acting(name):
    return build_measure(load_fixture(name)).acting


def nearest_neighbour(acting, weights: dict) -> StepMeasure:
    """One-letter atoms with the identity part on ``acting``, letter -> weight."""
    rank = acting.base_rank
    total = math.fsum(weights.values())
    atoms = [ExtElement(Word(rank, (s,)), acting.identity_part()) for s in weights]
    return StepMeasure(
        acting, atoms, [w / total for w in weights.values()], check_generation=False
    )


@st.composite
def nearest_neighbour_measures(draw):
    rank = draw(st.integers(1, 4), label="rank")
    # the bare free group, or a fixture's acting group of that base rank
    groups = [ActingGroup.trivial(rank)] + [
        fixture_acting(name)
        for name in fixture_names()
        if fixture_acting(name).base_rank == rank
    ]
    acting = draw(st.sampled_from(groups), label="acting")
    alphabet = [s for r in range(1, rank + 1) for s in (r, -r)]
    letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True), label="letters")
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=len(letters), max_size=len(letters)),
        label="weights",
    )
    return nearest_neighbour(acting, dict(zip(letters, weights)))


@settings(max_examples=60, deadline=None)
@given(
    measure=nearest_neighbour_measures(),
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**64)),
    n_paths=st.integers(1, 400),
    depths=st.lists(st.integers(1, HEAD), min_size=1, max_size=5),
    first_path=st.one_of(st.integers(0, 5000), st.just(MAX_INDEX + 1 - 400)),
    block=st.sampled_from((1, 7, 64, 4096)),
)
@example(
    measure=nearest_neighbour(ActingGroup.trivial(2), {1: 1.0, -1: 1.0, 2: 1.0, -2: 1.0}),
    seed=2**64 - 1,
    n_paths=300,
    depths=[16, 3, 16, 8],
    first_path=MAX_INDEX + 1 - 400,
    block=64,
)
def test_batched_depth_counts_equal_stepped(measure, seed, n_paths, depths, first_path, block):
    # the same tables, keys and first-appearance order as StepGraph.advance,
    # for every split of the paths into blocks
    depths = tuple(depths)
    with mock.patch.object(_rng, "BLOCK", block), mock.patch.object(
        walk, "_batched_depth_counts", wraps=walk._batched_depth_counts
    ) as batched_route:
        batched = entropy_depth_counts(measure, seed, n_paths, depths, first_path)
        stepped = walk._stepped_depth_counts(measure, seed, n_paths, depths, first_path)
    batched_route.assert_called_once()
    assert list(batched) == list(stepped)
    for d in batched:
        assert list(batched[d].items()) == list(stepped[d].items())


def test_only_nearest_neighbour_walks_within_head_are_batched(srw_measure, semidirect_measure):
    acting = ActingGroup.trivial(2)
    idp = acting.identity_part()
    lazy = StepMeasure(
        acting,
        [ExtElement(Word(2, letters), idp) for letters in ((), (1,), (-1,), (2,))],
        [0.25] * 4,
        check_generation=False,
    )
    two_letter = StepMeasure(
        acting,
        [ExtElement(Word(2, (1, 2)), idp), ExtElement(Word(2, (-2, -1)), idp)],
        [0.5, 0.5],
        check_generation=False,
    )
    unbatched = [
        (semidirect_measure, (4, 8)),  # twisted: atoms carry acting increments
        (lazy, (4, 8)),  # an atom with no letter
        (two_letter, (4, 8)),  # atoms of two letters
        (srw_measure, (4, HEAD + 1)),  # a row longer than HEAD
    ]
    with mock.patch.object(walk, "_batched_depth_counts", side_effect=AssertionError) as route:
        for measure, depths in unbatched:
            entropy_depth_counts(measure, 3, 20, depths)
        assert route.call_count == 0
        with pytest.raises(AssertionError):
            entropy_depth_counts(srw_measure, 3, 20, (4, HEAD))
