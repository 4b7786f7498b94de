"""Step measures and seeded right-increment random walks on the extensions.

A walk starts at the identity and multiplies i.i.d. increments drawn from a
finitely supported step measure on the right: x_n = h_1 h_2 ... h_n. Paths are
reproducible bit for bit from (seed, path index) regardless of batching or
worker scheduling, because every path owns a counter-derived RNG stream,
keyed bit-identically to ``SeedSequence(seed, spawn_key=(stream, index))``.
Every sampler takes its atom indices from ``_rng.index_blocks``, a block of
paths at once: paths of at most ``_rng.HEAD`` steps in one vectorized Philox
pass, longer paths each from one re-keyed C generator. Uniforms become
indices in ``_rng._categorical``, by counting the cumulative weights at or
below each uniform up to ``_rng.COUNT_ATOMS`` atoms, which is what
``searchsorted(..., side="right")`` gives, and by ``searchsorted`` past them;
``StepMeasure.draw_indices`` calls it too.

Every sampler runs one step kernel, ``StepGraph.advance``, apart from the
array passes below. The free part is a mutable letter stack; the acting
part is an integer node of a step graph that each estimator call builds
lazily over the acting positions its paths visit. ``edges[n][i]`` holds, once
atom i is first taken from node n, the free part of atom i twisted by the
node's accumulated automorphism Θ(p) and the successor id. An atom whose
letters every θ_j fixes (read from the θ_j's images) pushes its own word
from every node, so its edges read no Θ(p). Each node holds its part's id
in the acting group (``ActingGroup.part_id``). A free part's id is a node of
the acting group's tree, and an edge steps the increment's letters through
it, so a new node builds no word. Edges read Θ(p) from the acting group's
cache by the node's id (``ActingGroup.automorphism_at``), where a new
entry is composed from its parent's, so probes and ``ext_multiply`` read
the same object.
A step along a built edge is two list indexes and the junction cancellation:
its cost is the twisted increment length, not the length of the whole word. A
new acting position costs about the length of its twisted images.

When every θ_j is inner (read from its images, ``ActingGroup.conjugators``),
Θ(p) is conjugation by c(p) for a homomorphism c from the acting group into
F_d, and the graph keeps that conjugator frame instead: the stack holds
v = w·c(p), atom (u, m) pushes the same u·c(m) from every node, and
translates are x·ξ = v·ξ. On ``direct-product`` a step then pushes one
letter where Θ(p)(u) has 2|p| + 1. Positions are read back as
w = v·c(p)⁻¹ (``StepGraph.free_letters``) only where a sampler records one.

Short paths repeat: with k atoms there are only k ** n rows of n steps.
When a ``sample_paths`` call has at least as many paths as rows, each
distinct row is walked once and every path that draws it shares its
snapshot elements, which ``PathBatch.gauges_at`` and the CLI's rows then
measure and render once per distinct element (``groups._map_distinct``).

Every other position read goes through one driver, ``_walk_rows``: it
yields each path's (stack, node) at its stops, and picks the route once per
call. Every walk is drawn as (rows, n) index blocks, uint8 up to 255 atoms
(the no-op atom ``len(measure)`` included) and wider past them. Whether the
acting part after each step lies in a finite-index subgroup is one mask over
a block (``_sublattice_mask``): a cumulative sum of the increments tested
against the moduli on a lattice, a composition of each atom's permutation
on a free acting group. Last returns (``_last_lattice_step``) are read off
it, and the steps past a last return are masked with the no-op atom, so
each path is walked once. First returns (``_first_returns``, for
``first_return_sampler``) are read off it too: rows that have not returned
are redrawn from their streams' starts, twice as long each time, and only
the rows that return are walked.
Few long rows are cut into time chunks of about ``CHUNK_ROWS`` chunk rows in
all, each walked from the empty word, and a row's chunk words are merged in
order with junction cancellation. Two array passes serve these blocks,
chosen from the step data:

- the letter pass, ``_masked_steps`` over int8 letters, for atoms that push
  a fixed word from every node (``_fixed_pushes``: identity-part atoms, or
  a conjugator frame over a lattice, where atom (u, m) pushes u·c(m)). A
  step pops or pushes one letter on every row per numpy step; for one-letter
  pushes (``srw-f2``, ``direct-product``) that is one sub-step a step, which
  a syllable pass would not beat;
- the syllable pass, ``_syllable_steps`` over int8 generators and int16 or
  int32 exponents, for a lattice whose twists are not inner: atom (u, m)
  pushes Θ(p)(u), a table lookup on (node, atom) per row block
  (``_syllable_edges``). Linear twists push long words of few runs
  (Θ(p)(b) = a^p·b on ``semidirect-linear``), so each maximal run x^e is
  pushed, merged or cancelled in one sub-step; words are expanded to
  letters only at the stops.

A block that neither pass serves (a free acting group's, or one whose used
edges push more than two syllables, an exponential twist) steps
``_run_one_path`` on the rows it drew, as do the stepped entropy counts.
``track_convergence`` (one-letter fixed pushes, step by step) and
``entropy_depth_counts`` for a nearest-neighbour walk on F_d whose depths
are at most ``HEAD`` use the letter pass on their own; short rows that
repeat stay on ``advance``.
"""

from __future__ import annotations

import functools
import gc
import math
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from ._rng import BLOCK, HEAD, STREAM_WALK, _categorical, index_blocks, philox_keys
from .errors import BudgetError, ConfigError
from .groups import (
    ActingGroup,
    ActingPart,
    ExtElement,
    PermKernelSpec,
    SublatticeSpec,
    _map_distinct,
    _word_permutation,
    ball,
    element_key,
    ext_multiply,
    gauge_length,
    part_in_sublattice,
)
from .words import _reduced_word, free_reduce

__all__ = [
    "StepMeasure",
    "PathBatch",
    "DriftEstimate",
    "EntropyEstimate",
    "sample_paths",
    "merge_batches",
    "drift_estimate",
    "asymptotic_entropy_estimate",
    "entropy_depth_counts",
    "entropy_from_counts",
    "merge_depth_counts",
]

WEIGHT_SUM_TOL = 1e-9


def _collector_paused(fn):
    """``fn`` with the cyclic garbage collector off while it runs.

    Step graphs hold int ids, so a walk makes no reference cycle and
    refcounting frees it; a collection would only rescan the long-lived
    edge lists and Θ cache. The collector is switched off only if it is on
    on entry, and back on when ``fn`` returns or raises, so nested calls
    and callers that have disabled it themselves leave it as they found it.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class StepMeasure:
    """A finitely supported probability measure on an extension group.

    Weights must be positive and sum to 1 within 1e-9, atoms must be pairwise
    distinct. By default the constructor also checks that products of support
    elements reach the whole gauge ball of radius 1; pass
    ``check_generation=False`` for measures that deliberately generate a
    proper subsemigroup (point masses, sub-walk measures).
    """

    __slots__ = ("acting", "atoms", "weights", "_cumulative", "_step_data")

    def __init__(
        self,
        acting: ActingGroup,
        atoms: list[ExtElement] | tuple[ExtElement, ...],
        weights: list[float] | tuple[float, ...],
        *,
        check_generation: bool = True,
    ):
        atoms = tuple(atoms)
        weights = tuple(float(w) for w in weights)
        if len(atoms) != len(weights) or not atoms:
            raise ConfigError("need equally many atoms and weights, at least one")
        for w in weights:
            if not (w > 0.0):
                raise ConfigError(f"weights must be positive, got {w}")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights sum to {total!r}, not 1 within {WEIGHT_SUM_TOL}")
        keys = set()
        for g in atoms:
            if not isinstance(g, ExtElement):
                raise ConfigError(f"atom {g!r} is not an ExtElement")
            if g.w.rank != acting.base_rank:
                raise ConfigError(f"atom {g} has base rank {g.w.rank}, need {acting.base_rank}")
            acting.check_part(g.p)
            key = element_key(acting, g)
            if key in keys:
                raise ConfigError(f"duplicate atom {g}")
            keys.add(key)
        self.acting = acting
        self.atoms = atoms
        self.weights = weights
        # weights that sum past 1 within the tolerance would leave edges above
        # the pinned last one; clamped, the edges stay non-decreasing, as
        # _rng._categorical needs, and no uniform in [0, 1) moves
        cumulative = np.minimum(np.cumsum(np.asarray(weights, dtype=np.float64)), 1.0)
        cumulative[-1] = 1.0
        self._cumulative = cumulative
        # per-atom (free letters, acting increment or None when trivial)
        self._step_data = tuple(
            (g.w.letters, None if acting.part_is_identity(g.p) else g.p) for g in atoms
        )
        if check_generation:
            self._check_generation()

    def _check_generation(self) -> None:
        acting = self.acting
        target = {element_key(acting, g) for g in ball(acting, 1)}
        reached: set = set()
        frontier = list(self.atoms)
        for g in frontier:
            reached.add(element_key(acting, g))
        for _ in range(4):
            if target <= reached:
                return
            nxt = []
            for g in frontier:
                for a in self.atoms:
                    h = ext_multiply(acting, g, a)
                    key = element_key(acting, h)
                    if key not in reached:
                        reached.add(key)
                        nxt.append(h)
            frontier = nxt
        if not target <= reached:
            missing = len(target - reached)
            raise ConfigError(
                f"support does not reach {missing} element(s) of the radius-1 "
                "ball by short products; pass check_generation=False if this measure "
                "is meant to generate a proper subsemigroup"
            )

    def __len__(self) -> int:
        return len(self.atoms)

    def first_moment(self) -> float:
        return math.fsum(w * gauge_length(g) for g, w in zip(self.atoms, self.weights))

    def log_moment(self) -> float:
        return math.fsum(w * math.log1p(gauge_length(g)) for g, w in zip(self.atoms, self.weights))

    def entropy(self) -> float:
        return -math.fsum(w * math.log(w) for w in self.weights)

    def draw_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n atom indices from one pre-drawn uniform block, in ``index_blocks``' dtype."""
        return _categorical(self._cumulative, rng.random(n))

    def __repr__(self) -> str:
        return f"StepMeasure({len(self.atoms)} atoms on {self.acting!r})"

    def __getstate__(self):
        return (self.acting, self.atoms, self.weights)

    def __setstate__(self, state) -> None:
        acting, atoms, weights = state
        self.__init__(acting, atoms, weights, check_generation=False)


class StepGraph:
    """The acting positions one estimator call has visited, as a table.

    Node n is an int, the ``root`` 0 is the identity: ``edges[n][i]`` is None
    until atom i is first taken from n, then (the letters atom i pushes from
    n, successor id). Each node holds its part's id in the acting group
    (``ActingGroup.part_id``): a lattice part itself, or a free part's id in
    the acting group's tree, which an edge steps by the increment's letters
    (``ActingGroup.step_id``), so a new node builds no word; ``part`` reads
    the part back. Ids hold no references, so no graph is a reference cycle,
    and the estimators that build one run with the collector paused
    (``_collector_paused``).
    Built lazily per call, nothing stored on the measure; each edge is built
    once. An atom whose letters every θ_j fixes pushes its own word from
    every node.

    Without a frame the stack holds the free part w of the position (w, p),
    and atom (u, m) pushes Θ(p)(u), for a one-letter atom Θ(p)'s own table
    entry, with Θ(p) read from the acting group's cache by the node's id.
    When the group twists and every θ_j is inner, the graph has a
    conjugator frame c (``ActingGroup.conjugators``) with Θ(p) conjugation by
    c(p). The stack then holds v = w·c(p), and atom (u, m) pushes u·c(m) from
    every node, since w·Θ(p)(u)·c(p·m) = v·u·c(m). ``free_letters`` reads w
    back; probes translate as x·ξ = v·ξ, since Θ(p)(ξ) = c(p)·ξ on rays, so
    ``probe_part`` is the identity and no Θ(p) is built.
    """

    __slots__ = (
        "measure", "acting", "root", "edges", "_ids", "_nodes", "_parts", "_untwisted",
        "_conjugators", "_framed", "_unframe",
    )

    def __init__(self, measure: StepMeasure):
        self.measure = measure
        acting = self.acting = measure.acting
        self.edges: list[list] = []
        # per node its part's id, each id's node, and the parts read back
        self._ids: list = []
        self._nodes: dict = {}
        self._parts: dict = {}
        # per atom, whether every θ_j fixes each of its letters, read from
        # the θ_j's images: then it pushes its own word from every node
        fixed = {s for s in range(-acting.base_rank, acting.base_rank + 1)
                 if s and all(theta._table[s] == (s,) for theta in acting.theta)}
        self._untwisted = [fixed.issuperset(letters) for letters, _ in measure._step_data]
        # with a frame: each atom's letters u·c(m), and c(p)⁻¹ of each node once read
        self._conjugators = acting.conjugators() if acting.k else None
        self._framed = self._unframe = None
        if self._conjugators is not None:
            self._framed = tuple(
                tuple(free_reduce(g.w.letters + acting.conjugator_of(self._conjugators, g.p)))
                for g in measure.atoms
            )
            self._unframe = {}
        self.root = self._node(acting.part_id(acting.identity_part()))

    def _node(self, pid) -> int:
        """The node of the part at id ``pid`` (``ActingGroup.part_id``), added on first use."""
        node = self._nodes.get(pid)
        if node is None:
            node = self._nodes[pid] = len(self.edges)
            self._ids.append(pid)
            self.edges.append([None] * len(self.measure.atoms))
        return node

    def part(self, node: int):
        """The acting part of ``node``, read back from its id once."""
        part = self._parts.get(node)
        if part is None:
            part = self._parts[node] = self.acting.part_at(self._ids[node])
        return part

    def link(self, node: int, i: int) -> tuple:
        """Build and return edge i of ``node``: (pushed letters, successor id).

        The letters are Θ(p)'s image of the atom's word; a one-letter atom
        pushes Θ(p)'s table entry itself. An atom whose letters every θ_j
        fixes pushes its own word, with no Θ(p) read.
        """
        letters, increment = self.measure._step_data[i]
        pid = self._ids[node]
        if self._framed is not None:
            letters = self._framed[i]
        elif not self._untwisted[i]:
            phi = self.acting.automorphism_at(pid)
            if len(letters) == 1:
                letters = phi._table[letters[0]]
            else:
                letters = tuple(phi.apply_letters(letters))
        succ = node
        if increment is not None:
            succ = self._node(self.acting.step_id(pid, increment))
        edge = self.edges[node][i] = (letters, succ)
        return edge

    def free_letters(self, stack: list[int], node: int) -> tuple[int, ...]:
        """The reduced free part w of the position (stack, node): w = v·c(p)⁻¹ in a frame."""
        if self._unframe is None:
            return tuple(stack)
        tail = self._unframe.get(node)
        if tail is None:
            # c is a homomorphism: c(p)⁻¹ = c(p⁻¹)
            inverse = self.acting.part_inverse(self.part(node))
            tail = self._unframe[node] = self.acting.conjugator_of(self._conjugators, inverse)
        n = len(stack)
        k = 0
        while k < len(tail) and k < n and stack[n - 1 - k] == -tail[k]:
            k += 1
        return tuple(stack[: n - k]) + tail[k:]

    def probe_part(self, node: int):
        """The part p' with x·ξ = stack·Θ(p')(ξ) for the position x at (stack, node)."""
        if self._unframe is None:
            return self.part(node)
        return self.part(self.root)

    def advance(self, stack: list[int], node: int, indices: Sequence[int]) -> int:
        """Right-multiply the position (stack, node) by the atoms at ``indices``.

        ``stack`` holds the reduced free part and is updated in place; the
        returned id is the new acting position. Pass Python ints (a row of an
        ``_rng.index_blocks`` block read through ``tolist``): numpy scalars
        index lists slowly.
        """
        edges = self.edges
        link = self.link
        for i in indices:
            letters, node = edges[node][i] or link(node, i)
            if not letters:
                continue
            if stack and stack[-1] == -letters[0]:
                stack.pop()
                j = 1
                m = len(letters)
                while j < m and stack and stack[-1] == -letters[j]:
                    stack.pop()
                    j += 1
                stack.extend(letters[j:])
            else:
                stack.extend(letters)
        return node


@dataclass(frozen=True)
class PathBatch:
    """Snapshots of a batch of walk paths at the recorded steps.

    ``positions[n]`` holds one element per path: the position after n steps.
    The final step is always recorded. Paths with equal atom rows may share
    one element object.
    """

    acting: ActingGroup
    seed: int
    n_paths: int
    n_steps: int
    record_steps: tuple[int, ...]
    positions: dict[int, tuple[ExtElement, ...]]
    first_path: int = 0

    @property
    def final_positions(self) -> tuple[ExtElement, ...]:
        return self.positions[self.n_steps]

    def gauges_at(self, step: int) -> np.ndarray:
        return np.array(_map_distinct(gauge_length, self.positions[step]), dtype=np.float64)


def _run_one_path(
    graph: StepGraph,
    idx: list[int],
    n_steps: int,
    stops: Sequence[int],
) -> list[tuple[tuple[int, ...], int]]:
    """(reduced stack, node) of one path at each of the ascending ``stops``.

    ``idx`` holds at least ``n_steps`` atom indices; the path walks the
    first ``n_steps`` of them, and a stop past ``n_steps`` reads the position
    after them.
    """
    stack: list[int] = []
    node = graph.root
    out = []
    done = 0
    for stop in stops:
        stop = min(stop, n_steps)
        node = graph.advance(stack, node, idx[done:stop])
        done = stop
        out.append((tuple(stack), node))
    return out


# -- the array route: walks whose every atom pushes a fixed word -----------------

# Chunk rows one masked pass aims to cover: below it each numpy call steps
# too few rows to pay for itself, above it merging chunk words costs more.
CHUNK_ROWS = 2048
# Atom indices per row block, held as uint8 up to 255 atoms (the pass holds
# a few int8 arrays of about the same size).
BLOCK_CELLS = 1 << 20
# Atom indices per row block of a walk on the syllable pass, which holds
# about 30 bytes a cell beside the block at its peak.
SYLLABLE_CELLS = 1 << 18
# Cells per slice of rows whose acting parts are summed at once.
RETURN_CELLS = 8192
# Column 0 of every row of words: below every word, and neither a letter
# nor the inverse of one (no base rank reaches 127), so nothing pops it.
FLOOR = 127


def _fixed_pushes(graph: StepGraph) -> np.ndarray | None:
    """The word each atom pushes from every node, as an (atoms + 1, width) int8 table.

    Words are padded with 0, a no-op, and the last row, all 0, is the no-op
    atom. A push is the same from every node when every atom has the
    identity part (the walk never leaves the root), or in a conjugator frame
    over a lattice, where atom (u, m) pushes u·c(m) and the acting part is
    the sum of the increments. Else, or when letters would not fit the int8
    arrays, None: a lattice walk then takes the syllable pass
    (``_walk_rows``), any other walk steps ``advance``.
    """
    measure = graph.measure
    if all(increment is None for _, increment in measure._step_data):
        words = [letters for letters, _ in measure._step_data]
    elif graph._framed is not None and graph.acting.kind == "lattice":
        words = graph._framed
    else:
        return None
    if graph.acting.base_rank >= FLOOR:
        return None
    table = np.zeros((len(words) + 1, max(1, *map(len, words))), dtype=np.int8)
    for i, letters in enumerate(words):
        table[i, : len(letters)] = letters
    return table


def _letter_rows(table: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The letters of a (rows, steps) index grid as a (steps · width, rows) int8 array."""
    rows, steps = grid.shape
    return table.take(grid.T, axis=0).transpose(0, 2, 1).reshape(steps * table.shape[1], rows)


def _empty_words(rows: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, width) int8 empty words, column 0 ``FLOOR``, and the flat index of each row's top."""
    words = np.zeros((rows, width), dtype=np.int8)
    words[:, 0] = FLOOR
    return words, np.arange(0, rows * width, width)


def _masked_steps(flat: np.ndarray, top: np.ndarray, letters: np.ndarray, width: int):
    """Right-multiply every row's word by its letters; a generator.

    ``flat`` holds the rows' words, each starting with a ``FLOOR`` cell and
    0 past its last letter, and ``top`` (updated in place) the flat index of
    each row's last letter. ``letters`` is (sub-steps, rows) int8. Each
    sub-step pops the rows whose last letter is the inverse of theirs,
    zeroing the popped cell, and pushes on the others, except where the
    letter is 0, a no-op that writes 0 above the top. So a row stays 0 past
    its word. Letter by letter equals ``advance``'s junction cancellation,
    since each pushed word is reduced. Yields after every ``width``
    sub-steps (one atom). Inverses and no-op masks are made a sub-step at a
    time, so a pass holds no array the size of ``letters`` beside it.
    """
    padded = not letters.all()
    done = 0
    for x in letters:
        pop = flat[top] == -x
        push = ~pop
        cell = top + push
        flat[cell] = x * push
        if padded:
            pop |= x == 0
        np.subtract(cell, pop, out=top)
        done += 1
        if done == width:
            done = 0
            yield


def _spans(rows: int, n: int, stops: Sequence[int]) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Time chunks of ``rows`` rows of n steps: (longest, [(start, end)], chunks before each stop).

    A row is cut so that one masked pass covers about ``CHUNK_ROWS`` chunk
    rows; chunk boundaries fall on the ascending ``stops``, the last n.
    """
    size = max(1, -(-n // -(-CHUNK_ROWS // rows)))
    spans: list[tuple[int, int]] = []
    ends: list[int] = []
    for stop in stops:
        done = spans[-1][1] if spans else 0
        while done < stop:
            spans.append((done, min(done + size, stop)))
            done = spans[-1][1]
        ends.append(len(spans))
    return size, spans, ends


def _chunked_words(
    table: np.ndarray, block: np.ndarray, stops: Sequence[int]
) -> Iterator[list[tuple[int, ...]]]:
    """Each row's reduced words at the ascending ``stops``, the last n; a generator.

    ``block`` is (rows, n) atom indices. A row is cut into time chunks
    (``_spans``); chunks shorter than the longest are padded with the no-op
    atom. Each chunk is walked from the empty word by ``_masked_steps``, then
    a row's chunk words are merged in order, cancelling at each junction.
    """
    rows, n = block.shape
    size, spans, ends = _spans(rows, n, stops)
    width, chunks = table.shape[1], len(spans)
    # chunk row r · chunks + j holds span j of row r, padded with no-ops
    letters = np.zeros((size * width, rows * chunks), dtype=np.int8)
    for j, (start, end) in enumerate(spans):
        letters[: (end - start) * width, j::chunks] = _letter_rows(table, block[:, start:end])
    words, top = _empty_words(rows * chunks, len(letters) + 2)
    base = top.copy()
    for _ in _masked_steps(words.reshape(-1), top, letters, len(letters)):
        pass
    del letters  # the merge below holds only the words
    lengths = (top - base).tolist()
    chunk = 0
    for row in words[:, 1:].reshape(rows, -1):
        # the row's chunk words in order: rows are 0 past their words
        cells = row[row != 0].tolist()
        stack: list[int] = []
        snaps = []
        done = pos = 0
        for end in ends:
            while done < end:
                m = lengths[chunk]
                chunk += 1
                done += 1
                j = 0
                while j < m and stack and stack[-1] == -cells[pos + j]:
                    stack.pop()
                    j += 1
                stack.extend(cells[pos + j : pos + m])
                pos += m
            snaps.append(tuple(stack))
        yield snaps


# -- the syllable route: lattice walks whose pushes depend on the acting part ------
#
# A syllable is a maximal run x^e of one generator x >= 1, e a nonzero signed
# exponent; a reduced word is a sequence of syllables of alternating
# generators. Pushing x^e onto a word whose last syllable is x^f leaves
# x^(e+f), which pops when e + f = 0 and flips its letter when the sign
# changes; pushing onto any other generator appends. Pushing a reduced word
# syllable by syllable so reduces it exactly as ``advance`` does letter by
# letter.


def _two_runs(letters: tuple[int, ...]) -> tuple[int, int, int, int] | None:
    """(x, n, y, m) with a nonempty reduced word x^n·y^m (m = y = 0 for one run), or None."""
    first = letters[0]
    n = letters.count(first)
    if n == len(letters):
        return first, n, 0, 0
    last = letters[-1]
    m = letters.count(last)
    # with only two letters present, the first `last` at n puts every `first` before it
    if first != last and n + m == len(letters) and letters.index(last) == n:
        return first, n, last, m
    return None


def _pushed_digits(column: np.ndarray, block: np.ndarray, pushing: np.ndarray) -> np.ndarray:
    """Per step in ``pushing``, row-major, the sum of ``column`` over the row's steps before it.

    A slice of rows at a time keeps the int32 sums small beside the block.
    """
    rows, n = block.shape
    step = max(1, RETURN_CELLS // n)
    out = []
    for start in range(0, rows, step):
        steps = column[block[start : start + step]]
        before = np.cumsum(steps, axis=1, dtype=np.int32)
        before -= steps
        out.append(before.compress(pushing[start : start + step].reshape(-1)))
    return np.concatenate(out)


def _syllable_edges(
    graph: StepGraph, block: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The steps of ``block`` that push letters, and the syllables of the edges they take.

    ``block`` holds (rows, n) atom indices of a lattice walk, the no-op atom
    ``len(measure)`` included. Step t of a row pushes Θ(p)(u) for its atom
    (u, m), p the sum of the increments before t. Since the θ_j commute,
    Θ(p)(u) does not depend on p_j when θ_j fixes u, so an edge is keyed
    by the atom and the other coordinates only. Returns (pushing, found,
    gens, exps): ``pushing`` is the (rows, n) mask of steps whose atom has
    a nonempty word, ``found`` their edge ids in row-major order, counted
    from 1 in key order, and ``gens`` and ``exps`` the int8 generators and
    int32 signed exponents of each id's syllables, (ids + 1, 2) each and 0
    past an edge's last syllable. None when a used edge pushes more than
    two syllables (an exponential twist, say), checked edge by edge so that
    no edge is built past the first such one, and when the keys would not
    fit int64 (many twisted coordinates, each spanning many values).
    """
    measure = graph.measure
    k = graph.acting.k
    atoms = len(measure) + 1
    words = [letters for letters, _ in measure._step_data]
    pushing = np.array([bool(w) for w in words] + [False])[block]
    atom = block.compress(pushing.reshape(-1))
    # (coordinate, lowest value, span, atoms whose word θ_j moves) and each
    # step's offset from the lowest value, 0 for the other atoms
    corners = []
    digits = []
    scale = atoms
    for j, theta in enumerate(graph.acting.theta):
        column = np.zeros(atoms, dtype=np.int32)
        for i, increment in _increments(graph):
            column[i] = increment[j]
        moves = np.array([bool(w) and tuple(theta.apply_letters(w)) != w for w in words] + [False])
        if not (column.any() and moves.any()):
            continue
        digit = _pushed_digits(column, block, pushing)
        low = int(digit.min(initial=0))
        digit -= low
        span = int(digit.max(initial=0)) + 1
        digit *= moves[atom]
        corners.append((j, low, span, moves))
        digits.append(digit)
        scale *= span
        if scale > np.iinfo(np.int64).max:
            return None
    # key = atom + atoms · (the mixed-radix digits); dense ids when few keys
    dtype = np.int32 if scale <= block.size else np.int64
    keys = atom.astype(dtype)
    weight = atoms
    for (_, _, span, _), digit in zip(corners, digits):
        keys += np.multiply(digit, weight, dtype=dtype)
        weight *= span
    del atom, digits
    if scale <= block.size:
        seen = np.zeros(scale, dtype=bool)
        seen[keys] = True
        used = np.flatnonzero(seen)
        lookup = np.zeros(scale, dtype=np.int32)
        lookup[used] = np.arange(1, len(used) + 1, dtype=np.int32)
        found = lookup[keys]
    else:
        used, found = np.unique(keys, return_inverse=True)
        found = found.astype(np.int32) + 1
    del keys
    # a coordinate an edge does not depend on reads 0
    used_atoms = used % atoms
    rest = used // atoms
    coordinates = [[0] * len(used)] * k
    for j, low, span, moves in corners:
        coordinates[j] = np.where(moves[used_atoms], rest % span + low, 0).tolist()
        rest //= span
    edges = graph.edges
    link = graph.link
    node_of = graph._node
    runs = [(0, 0, 0, 0)]
    parts = zip(*coordinates) if k else [()] * len(used)
    for i, part in zip(used_atoms.tolist(), parts):
        node = node_of(part)
        edge = _two_runs((edges[node][i] or link(node, i))[0])
        if edge is None:
            return None
        runs.append(edge)
    x, n, y, m = np.fromiter(chain.from_iterable(runs), np.int64, 4 * len(runs)).reshape(-1, 4).T
    gens = np.stack((np.abs(x), np.abs(y)), axis=1).astype(np.int8)
    exps = np.stack((np.copysign(n, x), np.copysign(m, y)), axis=1).astype(np.int32)
    return pushing, found, gens, exps


def _syllable_steps(
    gens: np.ndarray, exps: np.ndarray, top: np.ndarray, pushed: np.ndarray, powers: np.ndarray
) -> None:
    """Right-multiply every row's syllable word by its syllables.

    ``gens`` and ``exps`` hold the rows' words flat, each starting with a
    ``FLOOR`` cell, and ``top`` (updated in place) the flat index of each
    row's last syllable. A cell past the top has exponent 0; its generator
    is stale. ``pushed`` and ``powers`` are (sub-steps, rows) generators and
    exponents, 0 for a no-op. Each sub-step merges a syllable into the top
    one of the same generator, popping it when the exponents cancel, and
    pushes it on any other generator; a no-op writes exponent 0 above the
    top.
    """
    for x, e in zip(pushed, powers):
        cell = top + (gens[top] != x)
        power = exps[cell] + e
        gens[cell] = x
        exps[cell] = power
        np.subtract(cell, power == 0, out=top)


def _syllable_stream(
    graph: StepGraph, block: np.ndarray, spans: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray] | None:
    """The syllables each time chunk of ``block`` pushes, as (depth, chunk rows) arrays.

    Chunk row r · chunks + j holds span j of row r: the generators and
    exponents of its steps' syllables (``_syllable_edges``) in step order
    with no gaps, then zeros. Exponents are int16 when a chunk's syllables
    cannot sum past it, else int32. None when a used edge pushes more than
    two syllables.
    """
    edges = _syllable_edges(graph, block)
    if edges is None:
        return None
    pushing, found, gens, exps = edges
    del edges
    rows = len(pushing)
    columns = rows * len(spans)
    # the pushing steps of chunk row c start at column_first[c], their
    # syllables at taken[column_first[c]]
    column_first = np.zeros(columns + 1, dtype=np.int64)
    steps = np.add.reduceat(pushing, [start for start, _ in spans], axis=1, dtype=np.int64)
    np.cumsum(steps.reshape(-1), out=column_first[1:])
    del pushing, steps
    second = (gens[:, 1] != 0)[found]
    taken = np.arange(len(found) + 1, dtype=np.int32)
    taken[1:] += np.cumsum(second, dtype=np.int32)
    per_column = np.diff(taken[column_first])
    depth = int(per_column.max())
    # each syllable's cell in the flat (edges, 2) tables: every pushed word
    # is nonempty, so a step's first syllable is its own
    cells = np.empty(taken[-1], dtype=np.int32)
    cells[taken[:-1]] = 2 * found
    second = np.flatnonzero(second)
    cells[taken[second] + 1] = 2 * found[second] + 1
    del found, second, taken
    exps_type = np.int16 if int(np.abs(exps).max()) * depth < 1 << 15 else np.int32
    # the pass reads a sub-step's syllables of every chunk row contiguously
    filled = np.arange(depth) < per_column[:, None]
    pushed = np.zeros((depth, columns), dtype=np.int8)
    pushed.T[filled] = gens.reshape(-1)[cells]
    powers = np.zeros((depth, columns), dtype=exps_type)
    powers.T[filled] = exps.reshape(-1)[cells]
    return pushed, powers


def _merged_chunks(
    g: list[int], e: list[int], lengths: list[int], rows: int, ends: list[int]
) -> tuple[list[int], list[int], list[tuple[int, int]], list[int], int]:
    """Each row's chunk words merged in order, at every stop, as ranges of the flat words.

    ``g`` and ``e`` hold every chunk word's syllables, chunk after chunk,
    and ``lengths`` each chunk's syllable count; a row has ``ends[-1]``
    chunks, ``ends[i]`` of them before stop i. Each stop's word is a list
    of [start, end) ranges of the flat syllables, some exponents changed
    where a junction merged two syllables. Returns (the ranges' starts,
    their ends, (syllable index in the stops' words laid end to end, its
    exponent) of every changed exponent, the number of ranges of each stop,
    the number of syllables of all stops).
    """
    starts: list[int] = []
    finals: list[int] = []
    changed: list[tuple[int, int]] = []
    sizes: list[int] = []
    total = chunk = pos = 0
    for _ in range(rows):
        # the stack's ranges, and the exponents junctions changed by position
        lo: list[int] = []
        hi: list[int] = []
        merged: dict[int, int] = {}
        size = done = 0
        for end in ends:
            for m in lengths[chunk + done : chunk + end]:
                j = 0
                while j < m and size:
                    last = hi[-1] - 1
                    if g[last] != g[pos + j]:
                        break
                    power = merged.pop(size - 1, e[last]) + e[pos + j]
                    j += 1
                    if power:
                        merged[size - 1] = power
                        break
                    size -= 1
                    if lo[-1] == last:
                        lo.pop()
                        hi.pop()
                    else:
                        hi[-1] = last
                if j < m:
                    lo.append(pos + j)
                    hi.append(pos + m)
                    size += m - j
                pos += m
            done = end
            starts += lo
            finals += hi
            changed.extend((total + at, power) for at, power in merged.items())
            sizes.append(len(lo))
            total += size
        chunk += done
    return starts, finals, changed, sizes, total


def _chunked_syllables(
    graph: StepGraph, block: np.ndarray, stops: Sequence[int]
) -> Iterator[list[tuple[int, ...]]] | None:
    """Each row's reduced words at the ascending ``stops``, the last n, or None.

    ``block`` holds (rows, n) atom indices. None when the walk is not on a
    lattice, or when a used edge pushes more than two syllables
    (``_syllable_edges``). Rows are cut into time chunks (``_spans``), each
    chunk's syllables are walked from the empty word by ``_syllable_steps``,
    a row's chunk words are merged in order as syllables
    (``_merged_chunks``), and only the stops' words are expanded to letters.
    """
    if graph.acting.kind != "lattice" or graph.acting.base_rank >= FLOOR:
        return None
    rows, n = block.shape
    _, spans, ends = _spans(rows, n, stops)
    stream = _syllable_stream(graph, block, spans)
    if stream is None:
        return None
    pushed, powers = stream
    del stream
    depth, columns = pushed.shape
    words, top = _empty_words(columns, depth + 2)
    power = np.zeros(words.shape, dtype=powers.dtype)
    base = top.copy()
    _syllable_steps(words.reshape(-1), power.reshape(-1), top, pushed, powers)
    del pushed, powers
    body = power[:, 1:] != 0
    flat_g = words[:, 1:][body]
    flat_e = power[:, 1:][body]
    del words, power, body
    starts, finals, changed, sizes, total = _merged_chunks(
        flat_g.tolist(), flat_e.tolist(), (top - base).tolist(), rows, ends
    )
    # gather the stops' syllables, then expand them to int8 letters
    starts_a = np.array(starts, dtype=np.int32)
    spans_a = np.array(finals, dtype=np.int32) - starts_a
    first = np.cumsum(spans_a, dtype=np.int32) - spans_a
    cells = np.repeat(starts_a - first, spans_a) + np.arange(total, dtype=np.int32)
    syllables = flat_g[cells]
    powers_a = flat_e[cells].astype(np.int32)
    del flat_g, flat_e, cells
    for at, p in changed:
        powers_a[at] = p
    runs = np.abs(powers_a)
    letters = np.repeat(np.where(powers_a > 0, syllables, -syllables), runs)
    del syllables, powers_a
    # a stop's letters start at the cumulative runs of its first syllable
    firsts = np.concatenate((first, [total]))[np.cumsum([0, *sizes])]
    bounds = np.concatenate(([0], np.cumsum(runs)))[firsts].tolist()
    return _unpacked_rows(letters, bounds, len(ends))


def _unpacked_rows(letters: np.ndarray, bounds: list[int], stops: int) -> Iterator[list]:
    """Each row's ``stops`` words, word i the int8 ``letters[bounds[i]:bounds[i + 1]]``.

    Unpacked a row at a time, so a caller that drops each row's words never
    holds a block's words as tuples.
    """
    for first in range(0, len(bounds) - 1, stops):
        yield [
            struct.unpack_from(f"{bounds[i + 1] - bounds[i]}b", letters, bounds[i])
            for i in range(first, first + stops)
        ]


def _increments(graph: StepGraph) -> list[tuple[int, ActingPart]]:
    """(atom index, acting increment) of every atom whose acting part is not the identity."""
    return [(i, p) for i, (_, p) in enumerate(graph.measure._step_data) if p is not None]


def _nodes_at(graph: StepGraph, block: np.ndarray, stops: Sequence[int]) -> list[list[int]]:
    """The step-graph node of each row at each of the ascending ``stops``.

    The acting part is the sum of the row's lattice increments, counted per
    atom between stops; without increments every row stays at the root.
    """
    moving = _increments(graph)
    if not moving:
        return [[graph.root] * len(block)] * len(stops)
    totals = np.zeros((len(block), graph.acting.k), dtype=np.int64)
    out = []
    start = 0
    for stop in stops:
        segment = block[:, start:stop]
        for i, increment in moving:
            totals += np.count_nonzero(segment == i, axis=1)[:, None] * np.array(increment)
        start = stop
        out.append([graph._node(tuple(part)) for part in totals.tolist()])
    return out


def _sublattice_mask(graph: StepGraph, block: np.ndarray, spec: SublatticeSpec) -> np.ndarray:
    """Whether the acting part after each step of ``block`` lies in the subgroup of ``spec``.

    ``block`` holds (rows, n) atom indices, the no-op atom ``len(measure)``
    included, walked from the identity. Returns a (rows, n + 1) bool mask
    whose column t reads the part after t steps, column 0 the identity's
    (always inside). On a lattice the part is the cumulative sum of the
    increments, tested against the moduli a slice of rows at a time. On a
    free acting group each row carries the permutation of its part, and a
    step composes the atom's (``groups._word_permutation``) on the right,
    p·q ↦ perm_p[perm_q], one gather per step.
    """
    rows, n = block.shape
    if isinstance(spec, PermKernelSpec):
        degree = spec.degree
        identity = np.arange(degree)
        table = np.tile(identity, (len(graph.measure) + 1, 1))
        for i, increment in _increments(graph):
            table[i] = _word_permutation(increment, spec)
        perms = np.empty((n + 1, rows, degree), dtype=np.min_scalar_type(degree))
        perms[0] = identity
        flat = perms.reshape(-1)
        # step t + 1 of row r reads row r's permutation after t steps at the atom's cells
        cells = table[block.T]
        cells += np.arange(0, n * rows * degree, degree).reshape(n, rows, 1)
        for t, source in enumerate(cells, start=1):
            perms[t] = flat[source]
        return (perms == identity).all(axis=2).T
    inside = np.ones((rows, n + 1), dtype=bool)
    columns = np.zeros((len(spec.moduli), len(graph.measure) + 1), dtype=np.int64)
    for i, increment in _increments(graph):
        columns[:, i] = increment
    # a slice of rows at a time keeps the int64 sums small beside the block
    step = max(1, RETURN_CELLS // max(n, 1))
    for first in range(0, rows, step):
        part = block[first : first + step]
        for column, modulus in zip(columns, spec.moduli):
            inside[first : first + step, 1:] &= np.cumsum(column[part], axis=1) % modulus == 0
    return inside


def _last_lattice_step(graph: StepGraph, block: np.ndarray, spec: SublatticeSpec) -> np.ndarray:
    """Per row of ``block``, the last step n >= 1 whose acting part lies in the subgroup, else 0."""
    # reversed, column 0 (the identity, always inside) comes last: a row with no return reads 0
    inside = _sublattice_mask(graph, block, spec)[:, ::-1]
    return block.shape[1] - inside.argmax(axis=1)


def _first_returns(
    graph: StepGraph, spec: SublatticeSpec, seed: int, stream: int, count: int, budget: int
) -> Iterator[tuple[list[int], list[list[int]]]]:
    """The items of ``0 .. count - 1`` that return, with their rows up to the first return.

    Yields (items, rows) a group of rows at a time: each item with its atom
    indices cut at its first return, the least t >= 1 whose acting part
    lies in the subgroup of ``spec``, read off ``_sublattice_mask`` within
    ``budget`` steps. An item with none is not yielded. Items come in the
    order their returns are found. Every item's row is drawn
    ``min(budget, HEAD)`` long first. The rows with no return yet are
    redrawn from the start of their own streams, twice as long each time up
    to ``budget``: ``_rng.index_blocks`` draws them from their keys picked
    out of ``philox_keys``, so each row is what ``derived_rng(seed, stream,
    item)`` draws; a row that never returns costs about 2 * budget draws
    and no walk. Rows are drawn and masked in blocks of at most
    ``SYLLABLE_CELLS`` cells.
    """
    keys = philox_keys(seed, stream, 0, count)
    cumulative = graph.measure._cumulative
    pending = np.arange(count)
    length = 0
    while pending.size and length < budget:
        length = min(budget, 2 * length or HEAD)
        late = []
        done = 0
        rows = max(1, SYLLABLE_CELLS // length)
        for block in index_blocks(cumulative, keys[pending], length, rows):
            items = pending[done : done + len(block)]
            done += len(block)
            inside = _sublattice_mask(graph, block, spec)
            inside[:, 0] = False  # tau >= 1: the start is no return
            taus = inside.argmax(axis=1)
            hits = np.flatnonzero(taus)
            cut = taus[hits]
            # the returned rows' steps up to tau, as one flat list
            steps = block[hits][np.arange(length) < cut[:, None]].tolist()
            ends = np.cumsum(cut).tolist()
            yield items[hits].tolist(), [steps[end - tau : end] for end, tau in zip(ends, cut.tolist())]
            late.append(items[taus == 0])
        pending = np.concatenate(late)


def _walk_rows(
    graph: StepGraph,
    seed: int,
    stream: int,
    first: int,
    count: int,
    n_steps: int,
    stops: Sequence[int],
    spec: SublatticeSpec | None = None,
) -> Iterator[tuple[int, list[tuple[tuple[int, ...], int]]]]:
    """(run_to, [(reduced stack, node) at each stop]) of each path, in path order.

    The one driver of position reads, for paths ``first .. first + count - 1``
    of ``stream`` at the ascending ``stops``, the last ``n_steps``.
    ``run_to`` is ``n_steps``, or with a sublattice ``spec`` the last step
    whose acting part lies in it (0 for none, ``_last_lattice_step``); a
    stop past it reads the position after ``run_to`` steps, so each path is
    walked once. Rows are drawn as index blocks, and the steps past
    ``run_to`` masked with the no-op atom. The route is chosen here, once
    per call: fixed pushes take the letter pass, other lattice walks the
    syllable pass, and a block that neither serves (a free acting group's,
    or one the syllable pass refuses) steps ``_run_one_path`` on its rows.
    """
    if spec is not None:
        # a spec that does not match the acting group raises before any draw
        part_in_sublattice(graph.acting, graph.part(graph.root), spec)
    table = _fixed_pushes(graph)
    rows = max(1, (BLOCK_CELLS if table is not None else SYLLABLE_CELLS) // n_steps)
    keys = philox_keys(seed, stream, first, count)
    for block in index_blocks(graph.measure._cumulative, keys, n_steps, rows):
        run_to = [n_steps] * len(block)
        if spec is not None:
            last = _last_lattice_step(graph, block, spec)
            block = np.where(np.arange(n_steps) < last[:, None], block, len(graph.measure))
            run_to = last.tolist()
        if table is not None:
            words = _chunked_words(table, block, stops)
        else:
            words = _chunked_syllables(graph, block, stops)
        if words is None:
            for idx, stop in zip(block.tolist(), run_to):
                yield stop, _run_one_path(graph, idx, stop, stops)
            continue
        nodes = _nodes_at(graph, block, stops)
        for r, (stop, snaps) in enumerate(zip(run_to, words)):
            yield stop, [(stack, at[r]) for stack, at in zip(snaps, nodes)]


@_collector_paused
def sample_paths(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    n_steps: int,
    record_steps: tuple[int, ...] | list[int] | None = None,
    first_path: int = 0,
) -> PathBatch:
    """Simulate ``n_paths`` independent paths of ``n_steps`` right increments.

    ``record_steps`` selects which step counts to snapshot (the final step is
    always included). ``first_path`` offsets the per-path RNG streams so that
    disjoint ranges simulated separately merge into the same batch. When
    there are no more distinct rows (|support| ** n_steps) than paths, each
    distinct row is walked once and its paths share the same snapshots.
    Otherwise every path is read through the walk driver (``_walk_rows``).
    A snapshot's free part is read back from the stack at its node
    (``StepGraph.free_letters``), w = v·c(p)⁻¹ in a frame.
    """
    if n_paths < 1 or n_steps < 1:
        raise ConfigError("need n_paths >= 1 and n_steps >= 1")
    if record_steps is None:
        record = {n_steps}
    else:
        record = {int(s) for s in record_steps}
        record.add(n_steps)
        if any(s < 0 or s > n_steps for s in record):
            raise ConfigError(f"record steps {sorted(record)} outside 0..{n_steps}")
    steps = sorted(record)
    graph = StepGraph(measure)
    rank = measure.acting.base_rank

    def elements(snaps: list[tuple[tuple[int, ...], int]]) -> list[ExtElement]:
        return [
            ExtElement(_reduced_word(rank, graph.free_letters(stack, node)), graph.part(node))
            for stack, node in snaps
        ]

    # With two or more atoms, k ** n_steps <= n_paths needs n_steps below
    # n_paths' bit length; testing that first keeps the power a small int.
    if n_steps < n_paths.bit_length() and len(measure) ** n_steps <= n_paths:
        walked: dict[tuple[int, ...], list[ExtElement]] = {}
        rows = []
        keys = philox_keys(seed, STREAM_WALK, first_path, n_paths)
        for block in index_blocks(measure._cumulative, keys, n_steps, BLOCK // n_steps):
            for idx in block.tolist():
                row = tuple(idx)
                snaps = walked.get(row)
                if snaps is None:
                    snaps = walked[row] = elements(_run_one_path(graph, idx, n_steps, steps))
                rows.append(snaps)
    else:
        paths = _walk_rows(graph, seed, STREAM_WALK, first_path, n_paths, n_steps, steps)
        rows = [elements(snaps) for _, snaps in paths]
    return PathBatch(
        acting=measure.acting,
        seed=seed,
        n_paths=n_paths,
        n_steps=n_steps,
        record_steps=tuple(steps),
        positions=dict(zip(steps, zip(*rows))),
        first_path=first_path,
    )


def merge_batches(parts: list[PathBatch]) -> PathBatch:
    """Concatenate batches produced from consecutive path ranges."""
    if not parts:
        raise ConfigError("nothing to merge")
    parts = sorted(parts, key=lambda b: b.first_path)
    head = parts[0]
    offset = head.first_path
    for b in parts:
        if (
            b.seed != head.seed
            or b.n_steps != head.n_steps
            or b.record_steps != head.record_steps
            or b.first_path != offset
        ):
            raise ConfigError("batches do not tile a contiguous path range")
        offset += b.n_paths
    positions = {
        s: tuple(g for b in parts for g in b.positions[s]) for s in head.record_steps
    }
    return PathBatch(
        acting=head.acting,
        seed=head.seed,
        n_paths=sum(b.n_paths for b in parts),
        n_steps=head.n_steps,
        record_steps=head.record_steps,
        positions=positions,
        first_path=head.first_path,
    )


@dataclass(frozen=True)
class DriftEstimate:
    value: float
    stderr: float
    n_paths: int
    n_steps: int


def drift_estimate(batch: PathBatch) -> DriftEstimate:
    """Mean gauge length per step at the final recorded step."""
    vals = batch.gauges_at(batch.n_steps) / batch.n_steps
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return DriftEstimate(value, stderr, batch.n_paths, batch.n_steps)


@dataclass(frozen=True)
class EntropyEstimate:
    """Extrapolated entropy per step with per-depth diagnostics.

    ``per_depth`` maps each depth n to (plug-in entropy with Miller-Madow
    correction, observed support size). ``coverage_flag`` is set when any
    depth shows more than one occupied cell per five samples, in which case
    the plug-in value is likely biased low even after correction.
    """

    value: float
    per_depth: dict[int, tuple[float, int]]
    n_paths: int
    coverage_flag: bool


def _plug_in_entropy(counts: dict, n: int) -> tuple[float, int]:
    freqs = np.fromiter(counts.values(), dtype=np.float64, count=len(counts)) / n
    h = float(-(freqs * np.log(freqs)).sum())
    support = len(counts)
    return h + (support - 1) / (2.0 * n), support


def entropy_depth_counts(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    depths: tuple[int, ...],
    first_path: int = 0,
) -> dict[int, dict]:
    """Occupancy counts of the walk's position at each depth, streamed.

    Only counts are kept, never the elements themselves: a table per depth
    maps (free letters, ``part_key`` of the acting part) to its count, in
    order of first appearance. ``first_path`` offsets the per-path streams,
    so disjoint ranges drawn by different workers tile into exactly the
    single-process tabulation. A nearest-neighbour walk on F_d whose depths
    are at most ``HEAD`` is walked a block of paths at a time
    (``_batched_depth_counts``); every other walk steps ``StepGraph.advance``.
    """
    if n_paths < 1 or not depths or min(depths) < 1:
        raise ConfigError("need n_paths >= 1 and at least one depth, all >= 1")
    letters = _single_letters(measure)
    if letters is not None and max(depths) <= HEAD:
        return _batched_depth_counts(measure, letters, seed, n_paths, depths, first_path)
    return _stepped_depth_counts(measure, seed, n_paths, depths, first_path)


def _single_letters(measure: StepMeasure) -> np.ndarray | None:
    """Each atom's one letter, when every atom is one letter with the identity part."""
    if any(increment is not None or len(w) != 1 for w, increment in measure._step_data):
        return None
    return np.array([w[0] for w, _ in measure._step_data], dtype=np.int8)


# the letters of a cell of length n, as a tuple of signed ints
_UNPACK = tuple(struct.Struct(f"{n}b").unpack for n in range(HEAD + 1))


def _batched_depth_counts(
    measure: StepMeasure,
    letters: np.ndarray,
    seed: int,
    n_paths: int,
    depths: tuple[int, ...],
    first_path: int,
) -> dict[int, dict]:
    """``entropy_depth_counts`` of a nearest-neighbour walk, a block of paths at a time.

    A block's words step ``_masked_steps``, which leaves every row 0 past
    its word. A depth's cells are then its first columns as bytes (trailing
    zeros dropped), counted in path order by ``Counter``; each distinct cell
    is decoded once, so the tables equal the stepped route's.
    """
    ascending = sorted(set(depths))
    n_steps = ascending[-1]
    cells: dict[int, Counter] = {d: Counter() for d in ascending}
    keys = philox_keys(seed, STREAM_WALK, first_path, n_paths)
    for idx in index_blocks(measure._cumulative, keys, n_steps, BLOCK // n_steps):
        words, top = _empty_words(len(idx), n_steps + 2)
        # take, not fancy indexing: numpy casts a uint8 index block on a slow
        # path there, and take's rows are contiguous for the pass
        steps = _masked_steps(words.reshape(-1), top, letters.take(idx.T), 1)
        done = 0
        for d in ascending:
            for _ in range(done, d):
                next(steps)
            done = d
            prefixes = np.ascontiguousarray(words[:, 1 : d + 1])
            cells[d].update(prefixes.view(f"S{d}").ravel().tolist())
    identity = measure.acting.part_key(measure.acting.identity_part())
    decoded = {}
    for d in ascending:
        table = cells.pop(d)
        decoded[d] = {(_UNPACK[len(cell)](cell), identity): c for cell, c in table.items()}
    return {d: decoded[d] for d in depths}


@_collector_paused
def _stepped_depth_counts(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    depths: tuple[int, ...],
    first_path: int,
) -> dict[int, dict]:
    """``entropy_depth_counts`` of any walk, path by path through ``_run_one_path``."""
    part_key = measure.acting.part_key
    graph = StepGraph(measure)
    n_steps = max(depths)
    ascending = sorted(set(depths))
    counts: dict[int, dict] = {d: {} for d in depths}
    tables = [counts[d] for d in ascending]
    keys = philox_keys(seed, STREAM_WALK, first_path, n_paths)
    for block in index_blocks(measure._cumulative, keys, n_steps, max(1, BLOCK // n_steps)):
        for idx in block.tolist():
            for table, (stack, node) in zip(tables, _run_one_path(graph, idx, n_steps, ascending)):
                key = (graph.free_letters(stack, node), part_key(graph.part(node)))
                table[key] = table.get(key, 0) + 1
    return counts


def merge_depth_counts(parts: Sequence[dict[int, dict]]) -> dict[int, dict]:
    """Sum occupancy tables produced by ``entropy_depth_counts``."""
    if not parts:
        raise ConfigError("nothing to merge")
    merged: dict[int, dict] = {d: dict(table) for d, table in parts[0].items()}
    for part in parts[1:]:
        if set(part) != set(merged):
            raise ConfigError("depth tables disagree; counts are not mergeable")
        for d, table in part.items():
            target = merged[d]
            for key, c in table.items():
                target[key] = target.get(key, 0) + c
    return merged


def entropy_from_counts(
    counts: dict[int, dict],
    n_paths: int,
) -> EntropyEstimate:
    """Finish the rate estimate from tabulated occupancy counts."""
    depths = sorted(counts)
    per_depth: dict[int, tuple[float, int]] = {}
    xs, ys = [], []
    coverage_flag = False
    for d in depths:
        h, support = _plug_in_entropy(counts[d], n_paths)
        per_depth[d] = (h, support)
        if support > n_paths / 5:
            coverage_flag = True
        xs.append(1.0 / d)
        ys.append(h / d)
    if len(depths) == 1:
        value = ys[0]
    else:
        _, value = np.polyfit(np.array(xs), np.array(ys), 1)
    return EntropyEstimate(float(value), per_depth, n_paths, coverage_flag)


_MAX_CELLS = 20_000_000


def _checked_depths(
    measure: StepMeasure,
    n_paths: int,
    depths: Sequence[int],
    max_cells: int = _MAX_CELLS,
) -> tuple[int, ...]:
    """The sorted distinct depths of an entropy run, within its cell budget.

    Each depth's occupancy table holds at most min(|support|^depth, n_paths)
    cells, so the budget is checked on the total path count, before any path
    is walked or split over workers.
    """
    depths = tuple(sorted(set(int(d) for d in depths)))
    if not depths or depths[0] < 1:
        raise ConfigError("need at least one positive depth")
    # with two or more atoms, k ** depth exceeds n_paths from n_paths' bit
    # length on; below it the power is a small int
    k, deepest = len(measure), depths[-1]
    cells = n_paths if k > 1 and deepest >= n_paths.bit_length() else min(k**deepest, n_paths)
    if cells * len(depths) > max_cells:
        raise BudgetError(
            f"plug-in tabulation would exceed {max_cells} cells; lower the depths"
        )
    return depths


def asymptotic_entropy_estimate(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    depths: tuple[int, ...] | list[int],
    max_cells: int = _MAX_CELLS,
) -> EntropyEstimate:
    """Estimate the entropy rate by plug-in entropies extrapolated in 1/n.

    The position distribution at each requested depth is tabulated over all
    paths (streaming, only occupancy counts are kept), the plug-in entropy
    gets the Miller-Madow correction, and a least squares line through
    (1/n, H_n/n) reports its intercept as the rate. The coverage flag warns
    when the deepest table is too thinly occupied for the correction to be
    trusted; more paths are the remedy.
    """
    depths = _checked_depths(measure, n_paths, depths, max_cells)
    counts = entropy_depth_counts(measure, seed, n_paths, depths)
    return entropy_from_counts(counts, n_paths)
