"""The one step kernel against a left fold of ext_multiply over the same draws."""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from walkbound import (
    ActingGroup,
    ExtElement,
    PermKernelSpec,
    StepMeasure,
    Word,
    build_measure,
    element_key,
    ext_identity,
    ext_multiply,
    first_return_sampler,
    fixture_names,
    identity_automorphism,
    in_sublattice,
    load_fixture,
    sample_paths,
    sublattice_spec,
)
from walkbound._rng import STREAM_RETURN, STREAM_WALK, derived_rng
from walkbound.boundary import _endpoint, _Inside, _last_lattice_step
from walkbound.walk import StepGraph

# exponential twists make fold words grow like phi^steps
MAX_STEPS = {"fibonacci": 18}
RETURNING = tuple(
    name for name in fixture_names() if sublattice_spec(load_fixture(name)) is not None
)

seeds = st.integers(min_value=0, max_value=2**64 - 1)
path_indices = st.integers(min_value=0, max_value=2**32 - 1)


@functools.lru_cache(maxsize=None)
def fixture_measure(name):
    return build_measure(load_fixture(name))


def fold(measure, indices):
    """Positions x_0 .. x_n of the walk over ``indices``, by ext_multiply."""
    acting = measure.acting
    x = ext_identity(acting)
    out = [x]
    for i in indices:
        x = ext_multiply(acting, x, measure.atoms[i])
        out.append(x)
    return out


def keys(acting, elements):
    return [element_key(acting, g) for g in elements]


@pytest.mark.parametrize("name", fixture_names())
@settings(max_examples=15, deadline=None)
@given(seed=seeds, path=path_indices, data=st.data())
def test_sample_paths_equal_fold(name, seed, path, data):
    measure = fixture_measure(name)
    n_steps = data.draw(st.integers(1, MAX_STEPS.get(name, 60)), label="n_steps")
    record = data.draw(st.sets(st.integers(0, n_steps), max_size=5), label="record")
    batch = sample_paths(measure, seed, 1, n_steps, record_steps=sorted(record), first_path=path)
    indices = measure.draw_indices(derived_rng(seed, STREAM_WALK, path), n_steps).tolist()
    expected = fold(measure, indices)
    assert batch.record_steps == tuple(sorted(record | {n_steps}))
    acting = measure.acting
    for step in batch.record_steps:
        assert keys(acting, batch.positions[step]) == keys(acting, [expected[step]])


@pytest.mark.parametrize("name", fixture_names())
@settings(max_examples=15, deadline=None)
@given(seed=seeds, path=path_indices, data=st.data())
def test_endpoint_equals_fold(name, seed, path, data):
    measure = fixture_measure(name)
    n_steps = data.draw(st.integers(0, MAX_STEPS.get(name, 60)), label="n_steps")
    indices = measure.draw_indices(derived_rng(seed, STREAM_WALK, path), n_steps).tolist()
    expected = keys(measure.acting, fold(measure, indices)[-1:])
    graph = StepGraph(measure)
    # a second run reuses the edges the first one built
    for _ in range(2):
        stack, part = _endpoint(graph, indices)
        got = ExtElement(Word(measure.acting.base_rank, tuple(stack)), part)
        assert keys(measure.acting, [got]) == expected


def assert_first_returns(measure, spec, seed, n_samples, budget):
    sample = first_return_sampler(
        measure, spec, seed, n_samples, step_budget=budget, failure_ceiling=1.0
    )
    acting = measure.acting
    expected_samples, expected_times = [], []
    for path in range(n_samples):
        indices = measure.draw_indices(derived_rng(seed, STREAM_RETURN, path), budget).tolist()
        positions = fold(measure, indices)
        tau = next(
            (n for n in range(1, budget + 1) if in_sublattice(acting, positions[n], spec)),
            None,
        )
        if tau is not None:
            expected_samples.append(positions[tau])
            expected_times.append(tau)
    assert all(in_sublattice(acting, g, spec) for g in sample.samples)
    assert sample.return_times == tuple(expected_times)
    assert keys(acting, sample.samples) == keys(acting, expected_samples)
    assert sample.failures == n_samples - len(expected_times)


@pytest.mark.parametrize("name", RETURNING)
@settings(max_examples=10, deadline=None)
# budgets past 128 steps draw in more than one block
@given(seed=seeds, budget=st.integers(1, 200))
def test_first_returns_are_first_sublattice_visits(name, seed, budget):
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    assert_first_returns(measure, spec, seed, 12, min(budget, MAX_STEPS.get(name, 60)))


def free_rank3_measure():
    """F_2 x F_3 with every acting generator and its inverse as an atom."""
    acting = ActingGroup("free", (identity_automorphism(2),) * 3, 2)
    one = Word.identity(3)
    atoms = [ExtElement(Word.parse(2, w), one) for w in ("a", "A", "b", "B")]
    atoms += [
        ExtElement(Word.identity(2), Word.generator(3, j, sign))
        for j in (1, 2, 3)
        for sign in (1, -1)
    ]
    return StepMeasure(acting, atoms, [0.1] * 4 + [0.1] * 6, check_generation=False)


permutations = st.permutations(list(range(4))).map(tuple)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, images=st.tuples(permutations, permutations, permutations))
def test_first_returns_to_permutation_kernels(seed, images):
    assert_first_returns(free_rank3_measure(), PermKernelSpec(4, images), seed, 8, 30)


@settings(max_examples=60, deadline=None)
@given(
    images=st.tuples(permutations, permutations, permutations),
    indices=st.lists(st.integers(4, 9), max_size=10),
)
# t2 t3 t1 t2 T3 T1: in the kernel only when letters compose right to left
@example(images=((0, 1, 3, 2), (0, 2, 3, 1), (3, 2, 1, 0)), indices=[6, 8, 4, 6, 9, 5])
def test_lattice_tracker_agrees_with_in_sublattice(images, indices):
    measure = free_rank3_measure()
    spec = PermKernelSpec(4, images)
    positions = fold(measure, indices)
    members = [
        n for n in range(1, len(indices) + 1) if in_sublattice(measure.acting, positions[n], spec)
    ]
    graph = StepGraph(measure)
    assert _last_lattice_step(graph, indices, _Inside(graph, spec)) == (
        members[-1] if members else 0
    )


@pytest.mark.parametrize("name", RETURNING)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, path=path_indices, data=st.data())
def test_moduli_tracker_agrees_with_in_sublattice(name, seed, path, data):
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    n_steps = data.draw(st.integers(0, MAX_STEPS.get(name, 60)), label="n_steps")
    indices = measure.draw_indices(derived_rng(seed, STREAM_WALK, path), n_steps).tolist()
    positions = fold(measure, indices)
    members = [n for n in range(1, n_steps + 1) if in_sublattice(measure.acting, positions[n], spec)]
    graph = StepGraph(measure)
    inside = _Inside(graph, spec)
    # a second path over the same graph reads memoized nodes and built edges
    for _ in range(2):
        assert _last_lattice_step(graph, indices, inside) == (members[-1] if members else 0)
