"""The one step kernel against a left fold of ext_multiply over the same draws."""

import functools
import gc
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from walkbound import (
    ActingGroup,
    Automorphism,
    ConfigError,
    ConvergenceError,
    ExtElement,
    ModuliSpec,
    PermKernelSpec,
    Ray,
    StepMeasure,
    Word,
    boundary,
    build_measure,
    element_key,
    empirical_hitting_measure,
    entropy_depth_counts,
    ext_identity,
    ext_multiply,
    first_return_sampler,
    free_reduce,
    fixture_names,
    fixture_text,
    identity_automorphism,
    in_sublattice,
    inner_automorphism,
    load_fixture,
    parse_config,
    sample_paths,
    sublattice_spec,
    track_convergence,
    walk,
)
from walkbound._rng import HEAD, STREAM_RETURN, STREAM_WALK, derived_rng, index_blocks, philox_keys
from walkbound.boundary import _endpoint, _resolve_paths
from walkbound.morphisms import _conjugator
from walkbound.groups import part_in_sublattice
from walkbound.walk import StepGraph, _last_lattice_step, _stepped_depth_counts, _sublattice_mask

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


def drawn_rows(measure, seed, stream, first, count, n):
    """The ``n`` atom indices of items ``first .. first + count - 1``, a list of ints each."""
    item_keys = philox_keys(seed, stream, first, count)
    blocks = index_blocks(measure._cumulative, item_keys, n, count)
    return [row for block in blocks for row in block.tolist()]


# The kernel of F_2 onto the permutations of three points, a by a 3-cycle and
# b by a transposition: free-acting's walk leaves it and comes back.
FREE_KERNEL = PermKernelSpec(3, ((1, 2, 0), (1, 0, 2)))


# Every fixture's atoms have free parts of at most one letter. These reuse a
# fixture's acting group with two-letter free parts, with and without an
# acting increment, so that step-graph edges twist whole words.
TWO_LETTER_ATOMS = {
    "free-acting": (("ab", "1"), ("cA", "1"), ("Ba", "a"), ("ab", "B"), ("cA", "b"), ("1", "A")),
    "fibonacci": (("ab", "0"), ("Ba", "0"), ("ab", "1"), ("Ba", "-1"), ("1", "1"), ("1", "-1")),
}
# free-acting's acting group under increments of one and two letters that
# cancel one another in part or in whole, so that one free part is reached
# along several routes of the acting group's tree.
MULTI_LETTER_ATOMS = {
    "free-acting": (("c", "ab"), ("A", "aB"), ("cb", "Ba"), ("1", "BA"), ("C", "b"), ("a", "A")),
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
    + [
        pytest.param(name, atoms, id=f"{name}-multi-letter")
        for name, atoms in MULTI_LETTER_ATOMS.items()
    ]
    + [pytest.param(name, None, id=name) for name in INNER_CASES]
)


# Over 255 atoms, so that row blocks hold uint16 indices: every letter or
# none under 53 acting parts, on a fixture's acting group. On direct-product
# they take the letter pass, on semidirect-linear the syllable pass, and on
# free-acting the stepped route.
WIDE_CASES = {
    "wide-direct-product": "direct-product",
    "wide-semidirect-linear": "semidirect-linear",
    "wide-free-acting": "free-acting",
}


def wide_measure(name):
    acting = fixture_measure(name).acting
    if acting.kind == "lattice":
        parts = [(m,) for m in range(-26, 27)]
    else:
        # the reduced words of at most three letters over F_2
        letters = (1, -1, 2, -2)
        reduced = [()]
        for w in reduced:
            if len(w) < 3:
                reduced.extend(w + (x,) for x in letters if not w or w[-1] != -x)
        parts = [Word(acting.k, w) for w in reduced]
    rank = acting.base_rank
    words = [Word.identity(rank)] + [Word.generator(rank, j, e) for j in (1, 2) for e in (1, -1)]
    atoms = [ExtElement(w, p) for w in words for p in parts]
    return StepMeasure(acting, atoms, [1 / len(atoms)] * len(atoms), check_generation=False)


@functools.lru_cache(maxsize=None)
def case_measure(name, atoms):
    """The fixture's or inner case's measure, or a fixture's acting group under ``atoms``.

    ``atoms`` holds (word, part) pairs.
    """
    if name == "inner-ab":
        return build_measure(INNER_AB)
    if name in WIDE_CASES:
        return wide_measure(WIDE_CASES[name])
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
    rows = drawn_rows(measure, seed, STREAM_WALK, path, n_paths, n_steps)
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
    rows = [tuple(idx) for idx in drawn_rows(measure, 5, STREAM_WALK, 0, n_paths, n_steps)]
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
        got = ExtElement(Word(measure.acting.base_rank, letters), graph.part(node))
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
    for idx in drawn_rows(measure, seed, STREAM_WALK, path, 8, max(depths)):
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


@pytest.mark.parametrize("name, atoms", KERNEL_CASES)
def test_step_graph_edges_push_each_atom_twisted_by_its_node(name, atoms):
    measure = case_measure(name, atoms)
    acting = measure.acting
    graph = StepGraph(measure)
    for idx in drawn_rows(measure, 11, STREAM_WALK, 0, 8, MAX_STEPS.get(name, 60)):
        graph.advance([], graph.root, idx)
    # Θ(p) and the frame's conjugators from a fresh group
    fresh = ActingGroup(acting.kind, acting.theta, acting.base_rank)
    conjugators = fresh.conjugators() if fresh.k else None
    # atoms whose letters every θ_j fixes push their own word from every node
    untwisted = [
        all(theta.apply(Word.generator(acting.base_rank, abs(s), s)).letters == (s,)
            for theta in acting.theta for s in g.w.letters)
        for g in measure.atoms
    ]
    # one node per part, whatever route reached it, keyed by the part's id
    parts = [graph.part(node) for node in range(len(graph.edges))]
    assert len({acting.part_key(part) for part in parts}) == len(parts)
    assert [acting.part_id(part) for part in parts] == graph._ids
    twisted = 0
    for node, edges in enumerate(graph.edges):
        part = parts[node]
        for i, edge in enumerate(edges):
            if edge is None:
                continue
            letters, succ = edge
            g = measure.atoms[i]
            assert acting.part_key(graph.part(succ)) == acting.part_key(
                acting.part_multiply(part, g.p)
            )
            if conjugators is not None:
                assert letters == tuple(free_reduce(
                    g.w.letters + fresh.conjugator_of(conjugators, g.p)
                ))
            elif untwisted[i]:
                # the atom's own word, shared, and no Θ(p) read for it
                assert letters is g.w.letters
            else:
                twisted += 1
                # the node's Θ(p), cached under its id, is the group's one Θ(p)
                phi = acting._cache[graph._ids[node]]
                assert phi is acting.automorphism_for(part)
                assert phi._table == fresh.automorphism_for(part)._table
                assert letters == fresh.automorphism_for(part).apply(g.w).letters
                if len(g.w) == 1:
                    # a one-letter atom pushes the cached Θ(p)'s table entry itself
                    assert letters is acting.automorphism_for(part)._table[g.w.letters[0]]
    assert twisted or conjugators is not None or all(untwisted)


def test_deep_acting_chains_twist_without_recursion():
    # c·a^N from N steps of (1, a) and one of (c, 1): the node a^N is N
    # acting letters deep, more than the recursion limit, when its Θ is built
    theta = fixture_measure("free-acting").acting.theta
    acting = ActingGroup("free", theta, 3)
    atoms = [
        ExtElement(Word.identity(3), Word.parse(2, "a")),
        ExtElement(Word.parse(3, "c"), Word.identity(2)),
    ]
    measure = StepMeasure(acting, atoms, [0.5, 0.5], check_generation=False)
    n = sys.getrecursionlimit() + 100
    graph = StepGraph(measure)
    stack = []
    node = graph.advance(stack, graph.root, [0] * n + [1])
    assert stack == [3] + [1] * n
    assert graph.part(node).letters == (1,) * n


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
# a sample that returns at HEAD = 16, the head's last step: seed 193 on
# direct-product, fibonacci and semidirect-linear, 31 on lattice-rank2, 773
# on semidirect-mixed; at HEAD + 1, the first step past it: 193 on
# direct-product, 260 on fibonacci and semidirect-linear, 153 on lattice-rank2
@example(seed=193, budget=200)
@example(seed=260, budget=200)
@example(seed=31, budget=200)
@example(seed=153, budget=200)
@example(seed=773, budget=200)
# a budget below HEAD: the head is cut short and nothing continues
@example(seed=193, budget=9)
def test_first_returns_are_first_sublattice_visits(name, seed, budget):
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    assert_first_returns(measure, spec, seed, 12, min(budget, MAX_STEPS.get(name, 60)))


def test_first_returns_continue_past_the_head_on_their_own_streams():
    # the first HEAD steps of all samples come in one batch; the samples that
    # have not returned are redrawn from their own streams' starts, twice as
    # long each time, here up to 512 steps for a return at 317
    name = "lattice-rank2"
    spec = sublattice_spec(load_fixture(name))
    sample = assert_first_returns(fixture_measure(name), spec, 7, 400, 1024)
    assert max(sample.return_times) == 317
    assert sample.failures == 0


@pytest.mark.parametrize("budget", [17, 200])
def test_first_returns_to_a_free_kernel_past_the_head(budget):
    # budgets past HEAD that are not HEAD * 2**k, so the last redraw is cut
    # at the budget. Seed 83 has failures that would return within 32 and
    # 256 steps, and at 200 a return at 168 read off rows of 200 draws
    sample = assert_first_returns(fixture_measure("free-acting"), FREE_KERNEL, 83, 60, budget)
    late = sorted(t for t in sample.return_times if t > HEAD)
    assert (late, sample.failures) == {17: ([17], 6), 200: ([17, 27, 31, 48, 97, 168], 1)}[budget]


def never_returning_measure():
    """semidirect-linear's group, every atom with acting part +1: no return before 10**6 steps."""
    acting = fixture_measure("semidirect-linear").acting
    one = acting.parse_part("1")
    atoms = [ExtElement(Word.parse(2, w), one) for w in ("a", "A", "b", "B")]
    return StepMeasure(acting, atoms, [0.25] * 4, check_generation=False)


def test_first_returns_draw_a_walk_that_never_returns_in_bounded_memory_unwalked():
    # each doubling redraws every sample; a walk would push Θ(p)(b) = a^p·b,
    # p + 1 letters a step, so none may run
    tracemalloc.start()
    try:
        with mock.patch.object(StepGraph, "advance", side_effect=AssertionError("walked")):
            sample = first_return_sampler(
                never_returning_measure(), ModuliSpec((10**6,)), 3, 200,
                step_budget=20_000, failure_ceiling=1.0,
            )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.failures == 200 and sample.return_times == ()
    # a group of about SYLLABLE_CELLS cells is held at a time (under 2 MiB in
    # all), where 200 rows of 20,000 atom indices and their mask take 8 MB
    assert peak < 6 * 2**20


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


def assert_mask_and_last_return(measure, spec, indices, positions):
    """The one-row block of ``indices``: its membership mask and last return, against the fold."""
    members = [in_sublattice(measure.acting, x, spec) for x in positions]
    block = np.array([indices], dtype=np.uint8).reshape(1, len(indices))
    graph = StepGraph(measure)
    assert _sublattice_mask(graph, block, spec).tolist() == [members]
    last = max((n for n in range(1, len(indices) + 1) if members[n]), default=0)
    assert _last_lattice_step(graph, block, spec).tolist() == [last]


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
    assert_mask_and_last_return(measure, spec, indices, positions)


@pytest.mark.parametrize("name", RETURNING)
@settings(max_examples=15, deadline=None)
@given(seed=seeds, path=path_indices, data=st.data())
def test_moduli_tracker_agrees_with_in_sublattice(name, seed, path, data):
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    n_steps = data.draw(st.integers(0, MAX_STEPS.get(name, 60)), label="n_steps")
    indices = measure.draw_indices(derived_rng(seed, STREAM_WALK, path), n_steps).tolist()
    positions = fold(measure, indices)
    assert_mask_and_last_return(measure, spec, indices, positions)


def test_finished_estimators_leave_no_reference_cycles():
    """A step graph holds node ids, not nodes, so refcounting frees each walk.

    Walks run with the collector paused, so a cycle made in one would pile
    up for its whole length. Free acting parts step a tree of ids, the
    exponential twist grows long Θ(p) words, and ``direct-product``'s walks
    keep a conjugator frame.
    """
    name = "semidirect-linear"
    measure = fixture_measure(name)
    spec = sublattice_spec(load_fixture(name))
    free = fixture_measure("free-acting")
    framed = fixture_measure("direct-product")
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
        "free-acting sample_paths": lambda: sample_paths(free, 1, 20, 200),
        "free-acting hitting": lambda: empirical_hitting_measure(
            free, 1, 40, 200, 2, unresolved_ceiling=1.0
        ),
        "fibonacci sample_paths": lambda: sample_paths(fixture_measure("fibonacci"), 1, 8, 30),
        "direct-product sample_paths": lambda: sample_paths(framed, 1, 20, 200),
        "direct-product hitting": lambda: empirical_hitting_measure(
            framed, 1, 40, 200, 2, unresolved_ceiling=1.0
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


def test_collector_is_paused_in_a_walk_and_restored_after_it(monkeypatch):
    """Every estimator leaves the collector as it found it, also when it raises."""
    measure = fixture_measure("free-acting")
    seen = []
    run_one = walk._run_one_path

    def spy(*args):
        seen.append(gc.isenabled())
        return run_one(*args)

    monkeypatch.setattr(walk, "_run_one_path", spy)
    assert gc.isenabled()
    sample_paths(measure, 1, 4, 20)
    assert gc.isenabled() and seen and not any(seen)
    with pytest.raises(ConvergenceError):
        empirical_hitting_measure(measure, 1, 40, 1, 5, unresolved_ceiling=0.0)
    assert gc.isenabled()
    gc.disable()
    try:
        sample_paths(measure, 1, 4, 20)
        with pytest.raises(ConvergenceError):
            empirical_hitting_measure(measure, 1, 40, 1, 5, unresolved_ceiling=0.0)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_collector_pauses_resume_at_the_outermost_exit():
    states = []

    @walk._collector_paused
    def inner():
        states.append(gc.isenabled())

    @walk._collector_paused
    def outer():
        inner()
        states.append(gc.isenabled())
        raise ValueError("outer")

    assert gc.isenabled()
    with pytest.raises(ValueError):
        outer()
    assert states == [False, False]
    assert gc.isenabled()
    assert outer.__wrapped__.__name__ == "outer"


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


# -- the array route: walks whose atoms push fixed words --------------------------


@st.composite
def untwisted_measures(draw, longest=4):
    """Identity-part atoms of 0 to ``longest`` letters on the bare free group of rank 2 or 3."""
    rank = draw(st.integers(2, 3), label="rank")
    acting = ActingGroup.trivial(rank)
    words = draw(st.lists(reduced_words(rank), min_size=1, max_size=6, unique=True), label="words")
    words = [Word(rank, w.letters[:longest]) for w in words]
    atoms = list({w.letters: ExtElement(w, ()) for w in words}.values())
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms)))
    total = sum(weights)
    return StepMeasure(acting, atoms, [w / total for w in weights], check_generation=False)


ARRAY_CASES = ("srw-f2", "direct-product", "inner-ab")
# twists that are not inner and push at most two syllables from every node
SYLLABLE_CASES = ("semidirect-linear", "semidirect-mixed", "lattice-rank2")
ARRAY_SPECS = {
    "srw-f2": None,
    "direct-product": ModuliSpec((2,)),
    "inner-ab": ModuliSpec((2,)),
    "semidirect-linear": ModuliSpec((2,)),
    "semidirect-mixed": ModuliSpec((2,)),
    "lattice-rank2": ModuliSpec((2, 2)),
}
measures_on_the_array_route = st.one_of(
    st.sampled_from(ARRAY_CASES).map(lambda name: case_measure(name, None)),
    untwisted_measures(),
)


def stepped_rows(measure, block, stops):
    """Each row's (stack, acting part) at each stop, stepped by ``advance``.

    The no-op atom ``len(measure)``, which masks steps past a last return,
    is skipped.
    """
    graph = StepGraph(measure)
    out = []
    for idx in block.tolist():
        stack, node, done, snaps = [], graph.root, 0, []
        for stop in stops:
            node = graph.advance(stack, node, [i for i in idx[done:stop] if i < len(measure)])
            done = stop
            snaps.append((tuple(stack), graph.part(node)))
        out.append(snaps)
    return out


@settings(max_examples=40, deadline=None)
@given(measure=measures_on_the_array_route, data=st.data())
@example(measure=case_measure("inner-ab", None), data=None)
def test_array_route_words_and_nodes_equal_advance(measure, data):
    # chunks of one step, of about a third of a row, and one chunk per row;
    # stops at 0 and at n, rows from one to a few thousand
    if data is None:
        rows, n, stops, chunk_rows, seed = 3000, 9, [0, 1, 4, 9], 1, 7
    else:
        rows = data.draw(st.sampled_from((1, 2, 5, 33, 400, 3000)), label="rows")
        n = data.draw(st.integers(1, 40 if rows < 1000 else 8), label="n")
        stops = sorted(data.draw(st.sets(st.integers(0, n)), label="stops") | {n})
        chunk_rows = data.draw(st.sampled_from((1, 3 * rows, rows * n + 1)), label="chunk_rows")
        seed = data.draw(st.integers(0, 2**32), label="seed")
    graph = StepGraph(measure)
    table = walk._fixed_pushes(graph)
    assert table is not None
    block = np.random.default_rng(seed).integers(0, len(measure), (rows, n), dtype=np.uint8)
    with mock.patch.object(walk, "CHUNK_ROWS", chunk_rows):
        words = list(walk._chunked_words(table, block, stops))
    nodes = walk._nodes_at(graph, block, stops)
    expected = stepped_rows(measure, block, stops)
    for r, snaps in enumerate(expected):
        assert [(words[r][j], graph.part(nodes[j][r])) for j in range(len(stops))] == snaps


@pytest.mark.parametrize("name", (*ARRAY_CASES, *SYLLABLE_CASES, "free-acting"))
@settings(max_examples=10, deadline=None)
@given(seed=seeds, data=st.data())
def test_array_route_last_returns_equal_lattice_steps(name, seed, data):
    # the block routine against each row stepped along the graph's edges, its
    # nodes' parts tested one by one; blocks hold the no-op atom
    measure = case_measure(name, None)
    spec = FREE_KERNEL if name == "free-acting" else ARRAY_SPECS[name] or ModuliSpec(())
    n = data.draw(st.integers(1, 60), label="n")
    rows = data.draw(st.integers(1, 50), label="rows")
    block = np.random.default_rng(seed % 2**32).integers(
        0, len(measure) + 1, (rows, n), dtype=np.uint8
    )
    graph = StepGraph(measure)
    expected = []
    for idx in block.tolist():
        node, last = graph.root, 0
        for step, i in enumerate(idx, start=1):
            if i < len(measure):
                node = (graph.edges[node][i] or graph.link(node, i))[1]
            if part_in_sublattice(measure.acting, graph.part(node), spec):
                last = step
        expected.append(last)
    assert _last_lattice_step(graph, block, spec).tolist() == expected


def free_two_letter_measure():
    """F_2 ⋊ F_3 under identity twists; atom acting parts are two-letter words, most with an inverse letter."""
    acting = ActingGroup("free", (identity_automorphism(2),) * 3, 2)
    parts = ("aB", "Ca", "bC", "AB", "cb", "Ac", "bA")
    atoms = [ExtElement(Word.identity(2), Word.parse(3, p)) for p in parts]
    return StepMeasure(acting, atoms, [1 / len(parts)] * len(parts), check_generation=False)


# a 3-cycle and two transpositions of three points: no two images commute
NON_COMMUTING = PermKernelSpec(3, ((1, 2, 0), (1, 0, 2), (0, 2, 1)))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 7), min_size=10, max_size=10), min_size=1, max_size=4))
# aB·AB·bC = aBAC lies in the kernel; composed in the other order it would not
@example(rows=[[0, 3, 2]])
def test_permutation_mask_equals_in_sublattice_of_the_fold(rows):
    # the mask from the identity against in_sublattice of the ext_multiply
    # fold; atom 7 is the no-op atom
    measure = free_two_letter_measure()
    acting = measure.acting
    inside = _sublattice_mask(StepGraph(measure), np.array(rows, dtype=np.uint8), NON_COMMUTING)
    for row, mask in zip(rows, inside.tolist()):
        x = ext_identity(acting)
        expected = [in_sublattice(acting, x, NON_COMMUTING)]
        for i in row:
            if i < len(measure):
                x = ext_multiply(acting, x, measure.atoms[i])
            expected.append(in_sublattice(acting, x, NON_COMMUTING))
        assert mask == expected


@settings(max_examples=25, deadline=None)
@given(measure=measures_on_the_array_route, seed=seeds, data=st.data())
def test_array_route_estimators_equal_advance(measure, seed, data):
    # walk snapshots, resolved hitting keys (at last returns where the case
    # has a sublattice) and track lengths, against the same calls with the
    # array route switched off
    n_paths = data.draw(st.integers(1, 60), label="n_paths")
    n_steps = data.draw(st.integers(1, 80), label="n_steps")
    record = sorted(data.draw(st.sets(st.integers(0, n_steps), max_size=4), label="record"))
    spec = next((s for name, s in ARRAY_SPECS.items() if case_measure(name, None) is measure), None)

    def run():
        batch = sample_paths(measure, seed, n_paths, n_steps, record_steps=record)
        positions = {s: keys(measure.acting, batch.positions[s]) for s in batch.record_steps}
        resolved = _resolve_paths(measure, seed, STREAM_WALK, n_paths, n_steps, 2, None, spec, 1.0)
        lengths = track_convergence(measure, seed, n_paths, n_steps, 9).lengths
        return positions, resolved, lengths

    with mock.patch.object(walk, "_chunked_words", wraps=walk._chunked_words) as arrays:
        positions, resolved, lengths = run()
    repeats = n_steps < n_paths.bit_length() and len(measure) ** n_steps <= n_paths
    assert arrays.call_count >= 1 + (not repeats)
    # no array pass at all: every block steps advance on the rows it drew
    with mock.patch.object(walk, "_fixed_pushes", return_value=None), mock.patch(
        "walkbound.boundary._fixed_pushes", return_value=None
    ), mock.patch.object(walk, "_chunked_syllables", return_value=None):
        stepped = run()
    assert positions == stepped[0]
    assert resolved == stepped[1]
    assert np.array_equal(lengths, stepped[2])


# every route of the walk driver: (the case's sublattice spec, the route)
WALK_ROWS_CASES = {
    # every step lies in the empty moduli spec's sublattice
    "srw-f2": (ModuliSpec(()), "letters"),
    "direct-product": (ModuliSpec((2,)), "letters"),
    "inner-ab": (ModuliSpec((2,)), "letters"),
    "semidirect-linear": (ModuliSpec((2,)), "syllables"),
    "lattice-rank2": (ModuliSpec((2, 2)), "syllables"),
    # an exponential twist: a block with an edge of over two syllables steps advance
    "fibonacci": (ModuliSpec((2,)), "syllables or stepped"),
    # no array pass serves a free acting group: its blocks step advance
    "free-acting": (FREE_KERNEL, "stepped"),
    "wide-direct-product": (ModuliSpec((2,)), "letters"),
    "wide-semidirect-linear": (ModuliSpec((2,)), "syllables"),
    "wide-free-acting": (FREE_KERNEL, "stepped"),
}


@pytest.mark.parametrize("returns", [False, True], ids=["plain", "at-returns"])
@pytest.mark.parametrize("name", sorted(WALK_ROWS_CASES))
@settings(max_examples=10, deadline=None)
@given(seed=seeds, data=st.data())
# 30 rows of 18 steps, and 100 of one step, some of which never return
@example(seed=1, data="long")
@example(seed=1, data="one-step")
def test_array_route_walk_rows_equal_fold(name, returns, seed, data):
    # run_to, and (stack, node) at every stop, against the fold over the
    # same draws: stops at 0 and n, path ranges that start past 0
    spec, route = WALK_ROWS_CASES[name]
    spec = spec if returns else None
    measure = case_measure(name, None)
    if data == "long":
        count, n, first, stops = 30, 18, 5, [0, 7, 18]
    elif data == "one-step":
        count, n, first, stops = 100, 1, 0, [0, 1]
    else:
        count = data.draw(st.integers(1, 30), label="count")
        n = data.draw(st.integers(1, MAX_STEPS.get(name, 60)), label="n")
        first = data.draw(st.integers(0, 2**32 - 1 - count), label="first")
        stops = sorted(data.draw(st.sets(st.integers(0, n)), label="stops") | {0, n})
    graph = StepGraph(measure)
    with mock.patch.object(walk, "_chunked_words", wraps=walk._chunked_words) as letters, \
            mock.patch.object(walk, "_syllable_steps", wraps=walk._syllable_steps) as syllables, \
            mock.patch.object(walk, "_run_one_path", wraps=walk._run_one_path) as one_by_one:
        rows = list(walk._walk_rows(graph, seed, STREAM_WALK, first, count, n, stops, spec))
    acting = measure.acting
    drawn = drawn_rows(measure, seed, STREAM_WALK, first, count, n)
    assert len(rows) == count
    for (run_to, snaps), idx in zip(rows, drawn):
        positions = fold(measure, idx)
        members = [m for m in range(1, n + 1) if in_sublattice(acting, positions[m], spec)] \
            if spec is not None else [n]
        assert run_to == (members[-1] if members else 0)
        assert len(snaps) == len(stops)
        for stop, (stack, node) in zip(stops, snaps):
            assert all(x != -y for x, y in zip(stack, stack[1:]))
            letters_ = graph.free_letters(stack, node)
            got = ExtElement(Word(acting.base_rank, letters_), graph.part(node))
            assert keys(acting, [got]) == keys(acting, [positions[min(stop, run_to)]])
    if data == "one-step" and spec is not None and name != "srw-f2":
        assert any(run_to == 0 for run_to, _ in rows)
    ran = (letters.called, syllables.called, one_by_one.call_count)
    if route == "letters":
        assert ran == (True, False, 0)
    elif route == "syllables":
        assert ran == (False, True, 0)
    elif route == "stepped":
        assert ran == (False, False, count)
    else:
        assert ran in ((False, True, 0), (False, False, count))
        if data == "long":
            assert ran == (False, False, count)


def test_array_route_is_chosen_from_step_data(tmp_path):
    # renamed copies take their originals' routes, read from the step data
    def renamed(name, old, new):
        path = tmp_path / f"{name}.cfg"
        path.write_text(fixture_text(name).replace(old, new))
        return build_measure(parse_config(path.read_text())), sublattice_spec(load_fixture(name))

    def fixture(name):
        return fixture_measure(name), sublattice_spec(load_fixture(name))

    letters, syllables, stepped = "letters", "syllables", "stepped"
    for name, (measure, spec), route in (
        ("srw-f2", fixture("srw-f2"), letters),
        ("renamed direct-product", renamed("direct-product", "conj", "twist"), letters),
        ("inner-ab", (case_measure("inner-ab", None), ModuliSpec((2,))), letters),
        ("semidirect-linear", fixture("semidirect-linear"), syllables),
        ("renamed semidirect-linear", renamed("semidirect-linear", "alpha", "twist"), syllables),
        ("semidirect-mixed", fixture("semidirect-mixed"), syllables),
        ("lattice-rank2", fixture("lattice-rank2"), syllables),
        # an exponential twist, and a free acting group, which no array pass
        # serves: their blocks step advance on the rows they drew
        ("fibonacci", fixture("fibonacci"), stepped),
        ("free-acting", fixture("free-acting"), stepped),
        ("free-acting at returns", (fixture_measure("free-acting"), FREE_KERNEL), stepped),
    ):
        with mock.patch.object(walk, "_chunked_words", wraps=walk._chunked_words) as letter_pass, \
                mock.patch.object(walk, "_syllable_steps", wraps=walk._syllable_steps) as pass_, \
                mock.patch.object(walk, "index_blocks", wraps=walk.index_blocks) as blocks, \
                mock.patch.object(StepGraph, "advance", autospec=True,
                                  side_effect=StepGraph.advance) as advance, \
                mock.patch.object(walk, "_last_lattice_step",
                                  wraps=walk._last_lattice_step) as last_returns:
            sample_paths(measure, 1, 4, 30)
            _resolve_paths(measure, 1, STREAM_WALK, 4, 30, 1, None, spec, 1.0)
        assert letter_pass.call_count == 2 * (route == letters), name
        assert pass_.called == (route == syllables), name
        # every walk draws each row once, a block at a time; a block that
        # steps advance walks each row once, up to its last return
        assert blocks.call_count == 2, name
        assert advance.call_count == 8 * (route == stepped), name
        # once per block of the resolve call, on either acting kind
        assert last_returns.call_count == (spec is not None), name
        with mock.patch("walkbound.boundary._array_lengths") as lengths:
            lengths.return_value = np.zeros((4, 30), dtype=np.int32)
            track_convergence(measure, 1, 4, 30, 3)
        # track's array route takes pushes of at most one letter
        assert lengths.called == (route == letters and name != "inner-ab"), name


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@settings(max_examples=25, deadline=None)
@given(width=st.integers(1, 4), rows=st.integers(1, 9), steps=st.integers(1, 9), data=st.data())
def test_array_route_letter_rows_take_equals_fancy_indexing(dtype, width, rows, steps, data):
    atoms = data.draw(st.integers(1, 254 if dtype is np.uint8 else 600), label="atoms")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    table = rng.integers(-3, 4, size=(atoms + 1, width), dtype=np.int8)
    grid = rng.integers(0, atoms + 1, size=(rows, steps)).astype(dtype)
    expected = table[grid.T].transpose(0, 2, 1).reshape(steps * width, rows)
    np.testing.assert_array_equal(walk._letter_rows(table, grid), expected)


# -- the syllable route: lattice walks whose pushes depend on the acting part ----


@st.composite
def transvection_lattices(draw):
    """A walk on F_r ⋊ Z^k twisted by commuting transvections x ↦ x·y or y·x.

    Atoms: every letter, every unit shift, and a few short words with small
    increments. Two transvections of one generator from both sides push
    three syllables, which sends a block to ``advance``.
    """
    rank = draw(st.integers(2, 3), label="rank")
    k = draw(st.integers(1, 2), label="k")
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    theta = []
    for _ in range(k):
        target = draw(st.integers(1, rank), label="target")
        by = draw(st.sampled_from([s for s in letters if abs(s) != target]), label="by")
        left = draw(st.booleans(), label="left")
        images = [Word(rank, (i,)) for i in range(1, rank + 1)]
        inverses = list(images)
        images[target - 1] = Word(rank, (by, target) if left else (target, by))
        inverses[target - 1] = Word(rank, (-by, target) if left else (target, -by))
        theta.append(Automorphism(rank, tuple(images), tuple(inverses)))
    try:
        acting = ActingGroup("lattice", tuple(theta), rank)
    except ConfigError:
        assume(False)
    zero = (0,) * k
    units = [tuple(s * (i == j) for i in range(k)) for j in range(k) for s in (1, -1)]
    pairs = [((s,), zero) for s in letters] + [((), u) for u in units]
    for w in draw(st.lists(reduced_words(rank), max_size=3), label="words"):
        pairs.append((w.letters[:2], draw(st.sampled_from([zero, *units]), label="part")))
    atoms = list({(w, p): ExtElement(Word(rank, w), p) for w, p in pairs}.values())
    return StepMeasure(acting, atoms, [1 / len(atoms)] * len(atoms), check_generation=False)


syllable_measures = st.one_of(
    st.sampled_from(SYLLABLE_CASES).map(fixture_measure), transvection_lattices()
)


def syllables_of(letters):
    return sum(1 for i, x in enumerate(letters) if not i or x != letters[i - 1])


@settings(max_examples=40, deadline=None)
@given(measure=syllable_measures, data=st.data())
def test_array_route_syllable_words_and_nodes_equal_advance(measure, data):
    # chunks of one step, of about a third of a row, and one chunk per row;
    # stops at 0 and at n; rows hold the no-op atom that masks steps past a
    # last return
    rows = data.draw(st.sampled_from((1, 2, 5, 33, 400)), label="rows")
    n = data.draw(st.integers(1, 40 if rows < 100 else 8), label="n")
    stops = sorted(data.draw(st.sets(st.integers(0, n)), label="stops") | {n})
    chunk_rows = data.draw(st.sampled_from((1, 3 * rows, rows * n + 1)), label="chunk_rows")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    block = np.random.default_rng(seed).integers(0, len(measure) + 1, (rows, n), dtype=np.uint8)
    graph = StepGraph(measure)
    with mock.patch.object(walk, "CHUNK_ROWS", chunk_rows):
        words = walk._chunked_syllables(graph, block, stops)
        words = None if words is None else list(words)
    if words is None:
        # only an edge of more than two syllables sends a block to advance
        assert not any(measure is fixture_measure(name) for name in SYLLABLE_CASES)
        assert any(syllables_of(edge[0]) > 2 for row in graph.edges for edge in row if edge)
        return
    nodes = walk._nodes_at(graph, block, stops)
    for r, snaps in enumerate(stepped_rows(measure, block, stops)):
        assert [(words[r][j], graph.part(nodes[j][r])) for j in range(len(stops))] == snaps


@pytest.mark.parametrize(
    "letters, runs",
    [
        ((1,), (1, 1, 0, 0)),
        ((-2, -2, -2), (-2, 3, 0, 0)),
        ((1, 1, 2), (1, 2, 2, 1)),
        ((-1, 2, 2, 2), (-1, 1, 2, 3)),
        ((1, 2, 1), None),
        ((1, 2, 1, 2), None),
        ((1, 1, 2, 1, 2, 2), None),
        ((1, 2, 3), None),
    ],
)
def test_array_route_two_runs_reads_at_most_two_syllables(letters, runs):
    assert walk._two_runs(letters) == runs


@pytest.mark.parametrize("chunk", ["whole-row", "third-of-a-row", "one-step"])
def test_array_route_syllables_flip_cancel_and_merge_at_junctions(chunk):
    # semidirect-linear: atoms a, A, b, B, shift +1, shift -1; Θ(p)(b) = a^p·b
    measure = fixture_measure("semidirect-linear")
    no_op = len(measure)
    block = np.array(
        [
            # a, then a^-3·b at p = -3: the run a overshoots and flips to A·A,
            # within one chunk or at the junction of the chunks a and a^-3·b
            [0, 5, 5, 5, 2],
            # a·a·b at p = 2, then B·A·A: every syllable cancels, down to the floor
            [4, 4, 2, 3, no_op],
        ],
        dtype=np.uint8,
    )
    chunk_rows = {"whole-row": 1, "third-of-a-row": 3 * 2, "one-step": 2 * 5 + 1}[chunk]
    with mock.patch.object(walk, "CHUNK_ROWS", chunk_rows):
        words = list(walk._chunked_syllables(StepGraph(measure), block, (1, 5)))
    assert words == [[(1,), (-1, -1, 2)], [(), ()]]
    assert words == [[w for w, _ in snaps] for snaps in stepped_rows(measure, block, (1, 5))]


@settings(max_examples=25, deadline=None)
@given(measure=syllable_measures, seed=seeds, data=st.data())
def test_array_route_syllable_estimators_equal_advance(measure, seed, data):
    # walk snapshots and resolved keys, plain and at last returns, against
    # the same blocks stepped by advance, as free acting groups run
    n_paths = data.draw(st.integers(1, 60), label="n_paths")
    n_steps = data.draw(st.integers(1, 80), label="n_steps")
    record = sorted(data.draw(st.sets(st.integers(0, n_steps), max_size=4), label="record"))
    chunk_rows = data.draw(
        st.sampled_from((1, 3 * n_paths, n_paths * n_steps + 1)), label="chunk_rows"
    )
    spec = ModuliSpec((2,) * measure.acting.k)

    def run():
        batch = sample_paths(measure, seed, n_paths, n_steps, record_steps=record)
        positions = {s: keys(measure.acting, batch.positions[s]) for s in batch.record_steps}
        resolve = functools.partial(_resolve_paths, measure, seed, STREAM_WALK, n_paths, n_steps, 2)
        return positions, resolve(None, None, 1.0), resolve(None, spec, 1.0)

    with mock.patch.object(walk, "CHUNK_ROWS", chunk_rows), mock.patch.object(
        walk, "_syllable_steps", wraps=walk._syllable_steps
    ) as syllables:
        arrays = run()
    repeats = n_steps < n_paths.bit_length() and len(measure) ** n_steps <= n_paths
    if any(measure is fixture_measure(name) for name in SYLLABLE_CASES):
        assert syllables.call_count == 3 - repeats
    # no syllable pass: every block steps advance on the rows it drew
    with mock.patch.object(walk, "_chunked_syllables", return_value=None):
        assert arrays == run()


@st.composite
def probe_rays(draw, rank):
    """head·cycle^∞ with a head of at most 3 letters and a cycle of 1 to 3."""
    cycle = list(draw(reduced_words(rank), label="cycle").letters[:3])
    if not cycle:
        cycle = [draw(st.sampled_from([s for i in range(1, rank + 1) for s in (i, -i)]))]
    if len(cycle) > 1 and cycle[-1] == -cycle[0]:
        cycle.pop()
    head = list(draw(reduced_words(rank), label="head").letters[:3])
    while head and head[-1] == -cycle[0]:
        head.pop()
    return Ray(Word(rank, tuple(head)), Word(rank, tuple(cycle)))


ONE_LETTER_CASES = {
    "srw-f2": case_measure("srw-f2", None),
    "direct-product": case_measure("direct-product", None),
    # Z acting by conjugation with a: atom (A, 1) pushes A·a, the empty word
    "empty-push": StepMeasure(
        ActingGroup("lattice", (inner_automorphism(2, Word.parse(2, "a")),), 2),
        [
            ExtElement(Word.parse(2, w), (m,))
            for w, m in (("A", 1), ("1", 1), ("1", -1), ("b", 0), ("B", 0))
        ],
        [0.2] * 5,
        check_generation=False,
    ),
}


# a^∞ and A^∞ are the default probes of a rank-1 walk
RANK_ONE = StepMeasure(
    ActingGroup.trivial(1),
    [ExtElement(Word(1, w), ()) for w in ((1,), (-1,), ())],
    [0.4, 0.4, 0.2],
    check_generation=False,
)


def assert_track_equals_agreement(measure, seed, n_paths, n_steps, depth, probes):
    # the array route takes constant probes only, the defaults among them
    constant = probes is None or all(not r.head and len(r.cycle) == 1 for r in probes)
    with mock.patch("walkbound.boundary._array_lengths", wraps=boundary._array_lengths) as arrays:
        lengths = track_convergence(measure, seed, n_paths, n_steps, depth, probes).lengths
    assert arrays.call_count == constant
    with mock.patch("walkbound.boundary._fixed_pushes", return_value=None):
        stepped = track_convergence(measure, seed, n_paths, n_steps, depth, probes).lengths
    assert np.array_equal(lengths, stepped)


@st.composite
def constant_rays(draw, rank):
    """x^∞ for 2 up to 2·rank distinct letters x."""
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    chosen = draw(st.lists(st.sampled_from(letters), min_size=2, max_size=2 * rank, unique=True))
    return [Ray.constant(rank, x) for x in chosen]


@settings(max_examples=60, deadline=None)
@given(
    measure=st.one_of(
        st.sampled_from([*sorted(ONE_LETTER_CASES), "rank-1"]).map(
            lambda name: ONE_LETTER_CASES.get(name, RANK_ONE)
        ),
        untwisted_measures(longest=1),
    ),
    seed=seeds,
    data=st.data(),
)
def test_array_route_track_lengths_equal_agreement(measure, seed, data):
    # every step's vector agreement against _agreement after advance, for
    # constant and random probe sets and depths above and below the walk's
    # length; only the constant sets take the array route
    rank = measure.acting.base_rank
    probes = data.draw(
        st.one_of(
            constant_rays(rank),
            # distinct points: heads of at most 3 letters, cycles of at most 3
            st.lists(probe_rays(rank), min_size=2, max_size=4,
                     unique_by=lambda ray: ray.prefix(9).letters),
        ),
        label="probes",
    )
    n_paths = data.draw(st.integers(1, 12), label="n_paths")
    n_steps = data.draw(st.integers(1, 60), label="n_steps")
    depth = data.draw(st.integers(1, 40), label="depth")
    assert_track_equals_agreement(measure, seed, n_paths, n_steps, depth, tuple(probes))


@pytest.mark.parametrize("seed", range(1, 4))
def test_array_route_track_lengths_equal_agreement_on_rank_one(seed):
    # the default probes a^∞ and A^∞ cancel a run each: a rank-1 stack is one run
    assert_track_equals_agreement(RANK_ONE, seed, 20, 60, 12, None)


@pytest.mark.parametrize("name", sorted(ONE_LETTER_CASES))
@pytest.mark.parametrize(
    "probes",
    # b·a^∞ and a^∞ share every suffix past b; the other pair shares "Ba",
    # so equal survivors compare the suffixes past both heads
    [("b|a", "1|a"), ("Ba|b", "B|a", "1|b")],
    ids=["shared-suffix", "shared-head"],
)
def test_array_route_track_lengths_equal_agreement_on_rays_with_heads(name, probes):
    # probes with heads take the stepped route, even on a one-letter walk
    probes = tuple(Ray.parse(2, text) for text in probes)
    for seed in range(1, 4):
        assert_track_equals_agreement(ONE_LETTER_CASES[name], seed, 20, 60, 12, probes)


def test_array_route_walk_rows_with_many_twisted_coordinates_equal_fold():
    # F_2 ⋊ Z^12 with every θ_j the transvection b ↦ ba: an edge key holds one
    # mixed-radix digit per coordinate, and 12 of them span more than int64,
    # so the syllable pass refuses the block and it steps advance
    rank, k = 2, 12
    theta = Automorphism(rank, (Word(rank, (1,)), Word(rank, (2, 1))),
                         (Word(rank, (1,)), Word(rank, (2, -1))))
    acting = ActingGroup("lattice", (theta,) * k, rank)
    zero = (0,) * k
    units = [tuple(s * (i == j) for i in range(k)) for j in range(k) for s in (1, -1)]
    pairs = [((s,), zero) for s in (1, -1, 2, -2)] + [((), u) for u in units]
    atoms = [ExtElement(Word(rank, w), p) for w, p in pairs]
    measure = StepMeasure(acting, atoms, [1 / len(atoms)] * len(atoms), check_generation=False)
    count, n, stops = 16, 1000, [0, 400, 1000]
    graph = StepGraph(measure)
    with mock.patch.object(walk, "_run_one_path", wraps=walk._run_one_path) as one_by_one:
        rows = list(walk._walk_rows(graph, 1, STREAM_WALK, 0, count, n, stops))
    assert one_by_one.call_count == count
    for (run_to, snaps), idx in zip(rows, drawn_rows(measure, 1, STREAM_WALK, 0, count, n)):
        positions = fold(measure, idx)
        assert run_to == n
        for stop, (stack, node) in zip(stops, snaps):
            got = ExtElement(Word(rank, graph.free_letters(stack, node)), graph.part(node))
            assert keys(acting, [got]) == keys(acting, [positions[stop]])
