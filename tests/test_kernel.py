"""The one step kernel against a left fold of ext_multiply over the same draws."""

import functools
import gc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walkbound import (
    ActingGroup,
    ExtElement,
    ModuliSpec,
    PermKernelSpec,
    StepMeasure,
    Word,
    build_measure,
    element_key,
    empirical_hitting_measure,
    entropy_depth_counts,
    ext_identity,
    ext_multiply,
    first_return_sampler,
    fixture_names,
    identity_automorphism,
    in_sublattice,
    inner_automorphism,
    load_fixture,
    parse_config,
    sample_paths,
    sublattice_spec,
    track_convergence,
)
from walkbound._rng import STREAM_RETURN, STREAM_WALK, derived_rng
from walkbound.boundary import _endpoint, _Inside, _last_lattice_step, _resolve_paths
from walkbound.morphisms import _conjugator
from walkbound.walk import StepGraph, _stepped_depth_counts

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


# Every fixture's atoms have free parts of at most one letter. These reuse a
# fixture's acting group with two-letter free parts, with and without an
# acting increment, so that twist_letters substitutes whole words.
TWO_LETTER_ATOMS = {
    "free-acting": (("ab", "1"), ("cA", "1"), ("Ba", "a"), ("ab", "B"), ("cA", "b"), ("1", "A")),
    "fibonacci": (("ab", "0"), ("Ba", "0"), ("ab", "1"), ("Ba", "-1"), ("1", "1"), ("1", "-1")),
}
# Groups whose every twist is inner, so that their walks step in a conjugator
# frame: F_2 ⋊ Z twisted by conjugation with ab (a config no fixture ships),
# Z^2 acting by conjugation with a and with aa, and F_2 by a and by b. The
# atoms move both coordinates at once, so pushed letters u·c(m) and read-out
# positions v·c(p)⁻¹ both cancel.
INNER_AB = parse_config((Path(__file__).parent / "inner-ab.cfg").read_text())
INNER_GROUPS = {
    "inner-lattice": (
        ActingGroup("lattice", (inner_automorphism(2, Word.parse(2, "a")),
                                inner_automorphism(2, Word.parse(2, "aa"))), 2),
        (("a", "0,0"), ("B", "0,0"), ("b", "1,0"), ("ab", "-1,1"), ("1", "0,-1"), ("Ba", "1,1")),
    ),
    "inner-free": (
        ActingGroup("free", (inner_automorphism(2, Word.parse(2, "a")),
                             inner_automorphism(2, Word.parse(2, "b"))), 2),
        (("a", "1"), ("B", "1"), ("b", "a"), ("ab", "B"), ("1", "A"), ("Ba", "ab")),
    ),
}
INNER_CASES = ("inner-ab", *INNER_GROUPS)
KERNEL_CASES = (
    [pytest.param(name, None, id=name) for name in fixture_names()]
    + [
        pytest.param(name, atoms, id=f"{name}-two-letter")
        for name, atoms in TWO_LETTER_ATOMS.items()
    ]
    + [pytest.param(name, None, id=name) for name in INNER_CASES]
)


@functools.lru_cache(maxsize=None)
def case_measure(name, atoms):
    """The fixture's or inner case's measure, or a fixture's acting group under ``atoms``.

    ``atoms`` holds (word, part) pairs.
    """
    if name == "inner-ab":
        return build_measure(INNER_AB)
    if name in INNER_GROUPS:
        acting, atoms = INNER_GROUPS[name]
    elif atoms is None:
        return fixture_measure(name)
    else:
        acting = fixture_measure(name).acting
    elements = [ExtElement(Word.parse(acting.base_rank, w), acting.parse_part(p)) for w, p in atoms]
    return StepMeasure(acting, elements, [1 / len(atoms)] * len(atoms), check_generation=False)


@pytest.mark.parametrize("name, atoms", KERNEL_CASES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, path=path_indices, data=st.data())
def test_sample_paths_equal_fold(name, atoms, seed, path, data):
    measure = case_measure(name, atoms)
    n_steps = data.draw(st.integers(1, MAX_STEPS.get(name, 60)), label="n_steps")
    record = data.draw(st.sets(st.integers(0, n_steps), max_size=5), label="record")
    batch = sample_paths(measure, seed, 1, n_steps, record_steps=sorted(record), first_path=path)
    indices = measure.draw_indices(derived_rng(seed, STREAM_WALK, path), n_steps).tolist()
    expected = fold(measure, indices)
    assert batch.record_steps == tuple(sorted(record | {n_steps}))
    acting = measure.acting
    for step in batch.record_steps:
        assert keys(acting, batch.positions[step]) == keys(acting, [expected[step]])


@pytest.mark.parametrize("name, atoms", KERNEL_CASES)
@settings(max_examples=15, deadline=None)
# room for up to 12 ** 3 + 40 paths below the stream index limit
@given(seed=seeds, path=st.integers(0, 2**32 - 1 - 12**3 - 40), data=st.data())
def test_sample_paths_with_repeating_rows_equal_fold(name, atoms, seed, path, data):
    # more paths than the k ** n distinct rows: sample_paths walks each row once
    measure = case_measure(name, atoms)
    n_steps = data.draw(st.integers(1, 3), label="n_steps")
    n_paths = len(measure) ** n_steps + data.draw(st.integers(1, 40), label="extra")
    record = data.draw(st.sets(st.integers(0, n_steps), max_size=3), label="record")
    batch = sample_paths(measure, seed, n_paths, n_steps, record_steps=sorted(record), first_path=path)
    acting = measure.acting
    folds = {}
    rows = measure.draw_rows(seed, STREAM_WALK, path, n_paths, n_steps)
    for j, idx in enumerate(rows):
        row = tuple(idx)
        if row not in folds:
            folds[row] = fold(measure, idx)
        for step in batch.record_steps:
            assert keys(acting, [batch.positions[step][j]]) == keys(acting, [folds[row][step]])


def test_paths_with_equal_rows_share_one_element():
    measure = fixture_measure("semidirect-mixed")
    n_paths, n_steps = 300, 2
    batch = sample_paths(measure, 5, n_paths, n_steps, record_steps=(1,))
    rows = [tuple(idx) for idx in measure.draw_rows(5, STREAM_WALK, 0, n_paths, n_steps)]
    for step in (1, 2):
        first = {}
        for row, g in zip(rows, batch.positions[step]):
            assert first.setdefault(row, g) is g
        assert len({id(g) for g in batch.positions[step]}) == len(first) <= 6**2
    # past k ** n_steps paths every path walks its own row
    alone = sample_paths(measure, 5, 35, n_steps)
    assert len({id(g) for g in alone.final_positions}) == 35


@pytest.mark.parametrize("name, atoms", KERNEL_CASES)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, path=path_indices, data=st.data())
def test_endpoint_equals_fold(name, atoms, seed, path, data):
    measure = case_measure(name, atoms)
    n_steps = data.draw(st.integers(0, MAX_STEPS.get(name, 60)), label="n_steps")
    indices = measure.draw_indices(derived_rng(seed, STREAM_WALK, path), n_steps).tolist()
    expected = keys(measure.acting, fold(measure, indices)[-1:])
    graph = StepGraph(measure)
    # a second run reuses the edges the first one built
    for _ in range(2):
        stack, node = _endpoint(graph, indices)
        letters = graph.free_letters(stack, node)
        got = ExtElement(Word(measure.acting.base_rank, letters), graph.parts[node])
        assert keys(measure.acting, [got]) == expected


@pytest.mark.parametrize("name, atoms", KERNEL_CASES)
@settings(max_examples=10, deadline=None)
@given(seed=seeds, path=st.integers(0, 2**32 - 9))
def test_stepped_depth_counts_equal_fold(name, atoms, seed, path):
    # the tables' keys, counts and order of first appearance
    measure = case_measure(name, atoms)
    depths = (3, 8)
    counts = _stepped_depth_counts(measure, seed, 8, depths, path)
    expected = {d: {} for d in depths}
    for idx in measure.draw_rows(seed, STREAM_WALK, path, 8, max(depths)):
        positions = fold(measure, idx)
        for d in depths:
            key = element_key(measure.acting, positions[d])
            expected[d][key] = expected[d].get(key, 0) + 1
    assert {d: list(t.items()) for d, t in counts.items()} == {
        d: list(t.items()) for d, t in expected.items()
    }


@pytest.mark.parametrize("name", sorted(TWO_LETTER_ATOMS))
def test_twist_letters_equals_automorphism_image(name):
    acting = fixture_measure(name).acting
    parts = ("aaB", "AbbA") if acting.kind == "free" else ("5", "-4")
    for text in parts:
        p = acting.parse_part(text)
        phi = acting.automorphism_for(p)
        for w, _ in TWO_LETTER_ATOMS[name]:
            word = Word.parse(acting.base_rank, w)
            assert acting.twist_letters(p, word.letters) == phi.apply(word).letters
        # a one-letter atom gets Θ(p)'s own table entry
        assert acting.twist_letters(p, (-1,)) is phi._table[-1]


def assert_first_returns(measure, spec, seed, n_samples, budget):
    sample = first_return_sampler(
        measure, spec, seed, n_samples, step_budget=budget, failure_ceiling=1.0
    )
    acting = measure.acting
    expected_samples, expected_times = [], []
    for path in range(n_samples):
        # each sample's whole budget, drawn from its own stream in one block
        indices = measure.draw_indices(derived_rng(seed, STREAM_RETURN, path), budget).tolist()
        x = ext_identity(acting)
        for tau, i in enumerate(indices, start=1):
            x = ext_multiply(acting, x, measure.atoms[i])
            if in_sublattice(acting, x, spec):
                expected_samples.append(x)
                expected_times.append(tau)
                break
    assert all(in_sublattice(acting, g, spec) for g in sample.samples)
    assert sample.return_times == tuple(expected_times)
    assert keys(acting, sample.samples) == keys(acting, expected_samples)
    assert sample.failures == n_samples - len(expected_times)
    # samples that return to the same position share one element
    shared = {}
    for key, g in zip(keys(acting, sample.samples), sample.samples):
        assert shared.setdefault(key, g) is g
    return sample


@pytest.mark.parametrize("name", RETURNING)
@settings(max_examples=10, deadline=None)
# budgets past 128 steps draw in more than one block
@given(seed=seeds, budget=st.integers(1, 200))
def test_first_returns_are_first_sublattice_visits(name, seed, budget):
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    assert_first_returns(measure, spec, seed, 12, min(budget, MAX_STEPS.get(name, 60)))


def test_first_returns_continue_past_the_head_on_their_own_streams():
    # the first HEAD steps of all samples come in one batch; later steps, here
    # up to 317, continue each sample's own stream in blocks of 128
    name = "lattice-rank2"
    spec = sublattice_spec(load_fixture(name))
    sample = assert_first_returns(fixture_measure(name), spec, 7, 400, 1024)
    assert max(sample.return_times) == 317
    assert sample.failures == 0


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


def test_finished_estimators_leave_no_reference_cycles():
    """A step graph holds node ids, not nodes, so refcounting frees each walk."""
    name = "semidirect-linear"
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    runs = {
        "sample_paths": lambda: sample_paths(measure, 1, 20, 60),
        "entropy_depth_counts": lambda: entropy_depth_counts(measure, 1, 20, (3, 6)),
        "hitting": lambda: empirical_hitting_measure(
            measure, 1, 40, 200, 2, unresolved_ceiling=1.0
        ),
        "hitting-lattice": lambda: empirical_hitting_measure(
            measure, 1, 40, 200, 2, return_lattice=spec, unresolved_ceiling=1.0
        ),
        "track": lambda: track_convergence(measure, 1, 10, 60, 2),
        "first_return": lambda: first_return_sampler(
            measure, spec, 1, 20, failure_ceiling=1.0
        ),
    }
    gc.collect()
    gc.disable()
    try:
        for label, run in runs.items():
            run()
            assert gc.collect() == 0, label
    finally:
        gc.enable()


# -- the conjugator frame of inner twists ---------------------------------------


@st.composite
def reduced_words(draw, rank):
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    word = []
    for s in draw(st.lists(st.sampled_from(letters), max_size=10)):
        if word and word[-1] == -s:
            word.pop()
        else:
            word.append(s)
    return Word(rank, tuple(word))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_conjugator_of_an_inner_automorphism_is_its_conjugator(data):
    rank = data.draw(st.integers(2, 3), label="rank")
    g = data.draw(reduced_words(rank), label="g")
    assert _conjugator(inner_automorphism(rank, g)) == g.letters


def test_only_groups_that_twist_by_inner_automorphisms_get_a_frame():
    assert _conjugator(identity_automorphism(2)) == ()
    assert _conjugator(identity_automorphism(1)) == ()
    # srw-f2 has no twist at all: its graph is untouched
    assert StepGraph(fixture_measure("srw-f2"))._unframe is None
    twisted = ("semidirect-linear", "semidirect-mixed", "lattice-rank2", "free-acting", "fibonacci")
    for name in twisted:
        measure = fixture_measure(name)
        assert measure.acting.conjugators() is None, name
        assert StepGraph(measure)._unframe is None, name
    assert fixture_measure("direct-product").acting.conjugators() == {1: (1,), -1: (-1,)}
    assert case_measure("inner-ab", None).acting.conjugators() == {1: (1, 2), -1: (-2, -1)}
    for name in ("direct-product", *INNER_CASES):
        assert StepGraph(case_measure(name, None))._unframe is not None, name


FRAMED_SPECS = {
    "direct-product": ModuliSpec((2,)),
    "inner-ab": ModuliSpec((2,)),
    "inner-lattice": ModuliSpec((2, 2)),
    "inner-free": PermKernelSpec(2, ((1, 0), (1, 0))),
}


@pytest.mark.parametrize("name", sorted(FRAMED_SPECS))
@settings(max_examples=8, deadline=None)
@given(seed=seeds)
def test_frame_keeps_track_lengths_and_return_keys(name, seed):
    # the twisted route, by Θ(p), is the reference: hide the frame from it
    measure = case_measure(name, None)
    spec = FRAMED_SPECS[name]

    def run():
        trace = track_convergence(measure, seed, 6, 80, 12)
        keys = _resolve_paths(measure, seed, STREAM_WALK, 20, 80, 3, None, spec, 1.0)
        return trace.lengths, keys

    framed_lengths, framed_keys = run()
    with mock.patch.object(ActingGroup, "conjugators", return_value=None):
        assert StepGraph(measure)._unframe is None
        lengths, keys = run()
    assert np.array_equal(framed_lengths, lengths)
    assert framed_keys == keys
