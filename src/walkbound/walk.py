"""Step measures and seeded right-increment random walks on the extensions.

A walk starts at the identity and multiplies i.i.d. increments drawn from a
finitely supported step measure on the right: x_n = h_1 h_2 ... h_n. Paths are
reproducible bit for bit from (seed, path index) regardless of batching or
worker scheduling, because every path owns a counter-derived RNG stream,
keyed bit-identically to ``SeedSequence(seed, spawn_key=(stream, index))``.
Samplers take their atom indices from ``StepMeasure.draw_rows`` (the array
route below from ``index_blocks``), a block of paths at once: paths of at
most ``_rng.HEAD`` steps in one vectorized Philox pass, longer paths each
from one re-keyed C generator.

Every sampler runs one step kernel, ``StepGraph.advance``, apart from the
one array route below. The free part is a mutable letter stack; the acting
part is an integer node of a step graph that each estimator call builds
lazily over the acting positions its paths visit. ``edges[n][i]`` holds, once
atom i is first taken from node n, the free part of atom i twisted by the
node's accumulated automorphism (``ActingGroup.twist_letters``, computed once
per edge) and the successor id.
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

The array route serves walks whose atoms push a fixed word from every node
(``_fixed_pushes``, read from the step data): atoms that all have the
identity part, and a conjugator frame over a lattice, where the acting part
is the sum of the increments. Rows are int8 words, a row block at a time,
and one pass of ``_masked_steps`` pops or pushes one letter on every row per
numpy step. Few long rows are cut into time chunks, walked from the empty
word in one pass of about ``CHUNK_ROWS`` chunk rows, and merged per row
with junction cancellation (``_chunked_words``). ``sample_paths`` reads its
snapshots there, w = v·c(p)⁻¹ only at the recorded steps; ``boundary``'s
resolve routine (``_fixed_ends``, last returns from the cumulative sum of
the increments, so each path is walked once) and ``track_convergence``
(one-letter pushes, step by step) run on it too, and so does
``entropy_depth_counts`` for a nearest-neighbour walk on F_d whose depths
are at most ``HEAD``. Twisted non-inner measures, free acting groups,
first returns and short rows that repeat stay on ``advance``.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._rng import HEAD, STREAM_WALK, draw_rows, index_blocks
from .errors import BudgetError, ConfigError
from .groups import (
    ActingGroup,
    ExtElement,
    _map_distinct,
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


class StepMeasure:
    """A finitely supported probability measure on an extension group.

    Weights must be positive and sum to 1 within 1e-9, atoms must be pairwise
    distinct. By default the constructor also checks that products of support
    elements reach the whole gauge ball of radius ``generation_radius``; pass
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
        generation_radius: int = 1,
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
        cumulative = np.cumsum(np.asarray(weights, dtype=np.float64))
        cumulative[-1] = 1.0
        self._cumulative = cumulative
        # per-atom (free letters, acting increment or None when trivial)
        self._step_data = tuple(
            (g.w.letters, None if acting.part_is_identity(g.p) else g.p) for g in atoms
        )
        if check_generation:
            self._check_generation(generation_radius)

    def _check_generation(self, radius: int) -> None:
        acting = self.acting
        target = {element_key(acting, g) for g in ball(acting, radius)}
        reached: set = set()
        frontier = list(self.atoms)
        for g in frontier:
            reached.add(element_key(acting, g))
        rounds = 2 * radius + 2
        for _ in range(rounds):
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
                f"support does not reach {missing} element(s) of the radius-{radius} "
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
        """n atom indices from one pre-drawn uniform block."""
        return np.searchsorted(self._cumulative, rng.random(n), side="right")

    def draw_rows(
        self, seed: int, stream: int, first: int, count: int, n: int
    ) -> Iterator[list[int]]:
        """The ``n`` atom indices of items ``first .. first + count - 1``, a list each.

        Item ``j`` draws what ``draw_indices(derived_rng(seed, stream, j), n)``
        draws, a block of items at a time (see ``_rng.draw_rows``).
        """
        return draw_rows(self._cumulative, seed, stream, first, count, n)

    def index_blocks(
        self, seed: int, stream: int, first: int, count: int, n: int
    ) -> Iterator[np.ndarray]:
        """The rows of ``draw_rows`` as (rows, n) index arrays, a block of items each."""
        return index_blocks(self._cumulative, seed, stream, first, count, n)

    def __repr__(self) -> str:
        return f"StepMeasure({len(self.atoms)} atoms on {self.acting!r})"

    def __getstate__(self):
        return (self.acting, self.atoms, self.weights)

    def __setstate__(self, state) -> None:
        acting, atoms, weights = state
        self.__init__(acting, atoms, weights, check_generation=False)


class StepGraph:
    """The acting positions one estimator call has visited, as a table.

    Node n is an int, the ``root`` 0 is the identity: ``parts[n]`` is its
    acting part, and ``edges[n][i]`` is None until atom i is first taken from
    n, then (the letters atom i pushes from n, successor id). Ids hold no
    references, so no graph is a reference cycle. Built lazily per call,
    nothing stored on the measure or acting group; each edge is built once.

    Without a frame the stack holds the free part w of the position (w, p),
    and atom (u, m) pushes Θ(p)(u), for a one-letter atom Θ(p)'s own table
    entry. When the group twists and every θ_j is inner, the graph has a
    conjugator frame c (``ActingGroup.conjugators``) with Θ(p) conjugation by
    c(p). The stack then holds v = w·c(p), and atom (u, m) pushes u·c(m) from
    every node, since w·Θ(p)(u)·c(p·m) = v·u·c(m). ``free_letters`` reads w
    back; probes translate as x·ξ = v·ξ, since Θ(p)(ξ) = c(p)·ξ on rays, so
    ``probe_part`` is the identity and no Θ(p) is built.
    """

    __slots__ = (
        "measure", "acting", "root", "parts", "edges", "_ids", "_conjugators", "_framed",
        "_unframe",
    )

    def __init__(self, measure: StepMeasure):
        self.measure = measure
        acting = self.acting = measure.acting
        self.parts: list = []
        self.edges: list[list] = []
        self._ids: dict = {}
        # with a frame: each atom's letters u·c(m), and c(p)⁻¹ of each node
        self._conjugators = acting.conjugators() if acting.k else None
        self._framed = self._unframe = None
        if self._conjugators is not None:
            self._framed = tuple(
                tuple(free_reduce(g.w.letters + acting.conjugator_of(self._conjugators, g.p)))
                for g in measure.atoms
            )
            self._unframe = []
        self.root = self._node(acting.identity_part())

    def _node(self, part) -> int:
        key = self.acting.part_key(part)
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.parts)
            self.parts.append(part)
            self.edges.append([None] * len(self.measure.atoms))
            if self._unframe is not None:
                # c is a homomorphism: c(p)⁻¹ = c(p⁻¹)
                inverse = self.acting.part_inverse(part)
                self._unframe.append(self.acting.conjugator_of(self._conjugators, inverse))
        return node

    def link(self, node: int, i: int) -> tuple:
        """Build and return edge i of ``node``: (pushed letters, successor id)."""
        letters, increment = self.measure._step_data[i]
        part = self.parts[node]
        if self._framed is not None:
            letters = self._framed[i]
        elif letters:
            letters = self.acting.twist_letters(part, letters)
        succ = node
        if increment is not None:
            succ = self._node(self.acting.part_multiply(part, increment))
        edge = self.edges[node][i] = (letters, succ)
        return edge

    def free_letters(self, stack: list[int], node: int) -> tuple[int, ...]:
        """The reduced free part w of the position (stack, node): w = v·c(p)⁻¹ in a frame."""
        if self._unframe is None:
            return tuple(stack)
        tail = self._unframe[node]
        n = len(stack)
        k = 0
        while k < len(tail) and k < n and stack[n - 1 - k] == -tail[k]:
            k += 1
        return tuple(stack[: n - k]) + tail[k:]

    def probe_part(self, node: int):
        """The part p' with x·ξ = stack·Θ(p')(ξ) for the position x at (stack, node)."""
        if self._unframe is None:
            return self.parts[node]
        return self.parts[self.root]

    def advance(self, stack: list[int], node: int, indices: Sequence[int]) -> int:
        """Right-multiply the position (stack, node) by the atoms at ``indices``.

        ``stack`` holds the reduced free part and is updated in place; the
        returned id is the new acting position. Pass Python ints (a row of
        ``StepMeasure.draw_rows``): numpy scalars index lists slowly.
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
    record: list[int],
) -> dict[int, ExtElement]:
    """Positions of one path at the ascending ``record`` steps.

    ``idx`` holds the path's ``n_steps`` atom indices.
    """
    rank = graph.acting.base_rank
    stack: list[int] = []
    node = graph.root
    snaps: dict[int, ExtElement] = {}
    done = 0
    for step in record:
        node = graph.advance(stack, node, idx[done:step])
        done = step
        snaps[step] = ExtElement(
            _reduced_word(rank, graph.free_letters(stack, node)), graph.parts[node]
        )
    return snaps


# -- the array route: walks whose every atom pushes a fixed word -----------------

# Chunk rows one masked pass aims to cover: below it each numpy call steps
# too few rows to pay for itself, above it merging chunk words costs more.
CHUNK_ROWS = 2048
# Atom indices per row block, held as uint8 (the pass holds a few int8
# arrays of about the same size).
BLOCK_CELLS = 1 << 20
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
    the sum of the increments. Else, or when letters or atom indices would
    not fit the int8 and uint8 arrays, None: such walks step ``advance``.
    """
    measure = graph.measure
    if all(increment is None for _, increment in measure._step_data):
        words = [letters for letters, _ in measure._step_data]
    elif graph._framed is not None and graph.acting.kind == "lattice":
        words = graph._framed
    else:
        return None
    if len(words) > 255 or graph.acting.base_rank >= FLOOR:
        return None
    table = np.zeros((len(words) + 1, max(1, *map(len, words))), dtype=np.int8)
    for i, letters in enumerate(words):
        table[i, : len(letters)] = letters
    return table


def _row_blocks(
    measure: StepMeasure, seed: int, stream: int, first: int, count: int, n: int, rows: int
) -> Iterator[np.ndarray]:
    """The rows of ``index_blocks`` as uint8 arrays of about ``rows`` rows each.

    The pieces of a block are let go before it is yielded, so a consumer
    holds it once.
    """
    held: list[np.ndarray] = []
    done = 0
    for block in measure.index_blocks(seed, stream, first, count, n):
        held.append(block.astype(np.uint8))
        done += len(block)
        if sum(map(len, held)) >= rows or done == count:
            block = np.concatenate(held)
            held.clear()
            yield block


def _letter_rows(table: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The letters of a (rows, steps) index grid as a (steps · width, rows) int8 array."""
    rows, steps = grid.shape
    return table[grid.T].transpose(0, 2, 1).reshape(steps * table.shape[1], rows)


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


def _chunked_words(
    table: np.ndarray, block: np.ndarray, stops: Sequence[int]
) -> Iterator[list[tuple[int, ...]]]:
    """Each row's reduced words at the ascending ``stops``, the last n; a generator.

    ``block`` is (rows, n) atom indices. A row is cut into time chunks so
    that one pass of ``_masked_steps`` covers about ``CHUNK_ROWS`` chunk rows;
    chunk boundaries fall on the stops, and chunks shorter than the longest
    are padded with the no-op atom. Each chunk is walked from the empty word,
    then a row's chunk words are merged in order, cancelling at each junction.
    """
    rows, n = block.shape
    size = max(1, -(-n // -(-CHUNK_ROWS // rows)))
    spans: list[tuple[int, int]] = []
    ends: list[int] = []
    for stop in stops:
        done = spans[-1][1] if spans else 0
        while done < stop:
            spans.append((done, min(done + size, stop)))
            done = spans[-1][1]
        ends.append(len(spans))
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


def _increments(graph: StepGraph) -> list[tuple[int, tuple[int, ...]]]:
    """(atom index, lattice increment) of every atom whose acting part is not the identity."""
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


def _last_returns(graph: StepGraph, block: np.ndarray, spec) -> np.ndarray:
    """Per row, the last step n >= 1 whose acting part lies in the sublattice, else 0.

    A lattice part is read from the cumulative sum of each coordinate's
    increments; with none the part is the root's at every step, whose
    membership ``part_in_sublattice`` decides.
    """
    rows, n = block.shape
    member = part_in_sublattice(graph.acting, graph.parts[graph.root], spec)
    moving = _increments(graph)
    if not moving:
        return np.full(rows, n if member else 0)
    columns = np.zeros((len(spec.moduli), len(graph.measure) + 1), dtype=np.int64)
    for i, increment in moving:
        columns[:, i] = increment
    out = np.empty(rows, dtype=np.int64)
    # a slice of rows at a time keeps the int64 sums small beside the block
    step = max(1, RETURN_CELLS // n)
    for start in range(0, rows, step):
        part = block[start : start + step]
        inside = np.ones(part.shape, dtype=bool)
        for column, modulus in zip(columns, spec.moduli):
            inside &= np.cumsum(column[part], axis=1) % modulus == 0
        last = n - np.argmax(inside[:, ::-1], axis=1)
        out[start : start + step] = np.where(inside.any(axis=1), last, 0)
    return out


def _fixed_ends(
    graph: StepGraph,
    table: np.ndarray,
    seed: int,
    stream: int,
    count: int,
    n_steps: int,
    spec,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(run_to, the reduced stack after run_to steps) of each path, in path order.

    ``run_to`` is ``n_steps``, or with a sublattice spec the last return
    (``_last_returns``); steps past it are masked with the no-op atom, so
    each path is walked once.
    """
    if spec is not None:
        # a spec that does not match the acting group raises before any draw
        part_in_sublattice(graph.acting, graph.parts[graph.root], spec)
    no_op = np.uint8(len(table) - 1)
    rows = max(1, BLOCK_CELLS // n_steps)
    for block in _row_blocks(graph.measure, seed, stream, 0, count, n_steps, rows):
        run_to = np.full(len(block), n_steps)
        if spec is not None:
            run_to = _last_returns(graph, block, spec)
            block = np.where(np.arange(n_steps) < run_to[:, None], block, no_op)
        words = _chunked_words(table, block, (n_steps,))
        for stop, (stack,) in zip(run_to.tolist(), words):
            yield stop, stack


def _sample_fixed(
    graph: StepGraph,
    table: np.ndarray,
    seed: int,
    n_paths: int,
    n_steps: int,
    steps: list[int],
    first_path: int,
    per_step: dict[int, list[ExtElement]],
) -> None:
    """``sample_paths``' snapshots by the array route, appended to ``per_step``.

    A snapshot's free part is read back from the stack at its node
    (``StepGraph.free_letters``), w = v·c(p)⁻¹ in a frame.
    """
    rank = graph.acting.base_rank
    rows = max(1, BLOCK_CELLS // n_steps)
    for block in _row_blocks(graph.measure, seed, STREAM_WALK, first_path, n_paths, n_steps, rows):
        nodes = _nodes_at(graph, block, steps)
        for r, words in enumerate(_chunked_words(table, block, steps)):
            for step, letters, at in zip(steps, words, nodes):
                letters = graph.free_letters(letters, at[r])
                per_step[step].append(ExtElement(_reduced_word(rank, letters), graph.parts[at[r]]))


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
    Otherwise a walk whose atoms push fixed words (``_fixed_pushes``) takes
    the array route.
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
    per_step: dict[int, list[ExtElement]] = {s: [] for s in steps}
    # With two or more atoms, k ** n_steps <= n_paths needs n_steps below
    # n_paths' bit length; testing that first keeps the power a small int.
    repeats = n_steps < n_paths.bit_length() and len(measure) ** n_steps <= n_paths
    table = None if repeats else _fixed_pushes(graph)
    if table is not None:
        _sample_fixed(graph, table, seed, n_paths, n_steps, steps, first_path, per_step)
    else:
        walked: dict[tuple[int, ...], dict[int, ExtElement]] = {}
        for idx in measure.draw_rows(seed, STREAM_WALK, first_path, n_paths, n_steps):
            if repeats:
                row = tuple(idx)
                snaps = walked.get(row)
                if snaps is None:
                    snaps = walked[row] = _run_one_path(graph, idx, n_steps, steps)
            else:
                snaps = _run_one_path(graph, idx, n_steps, steps)
            for s, g in snaps.items():
                per_step[s].append(g)
    return PathBatch(
        acting=measure.acting,
        seed=seed,
        n_paths=n_paths,
        n_steps=n_steps,
        record_steps=tuple(steps),
        positions={s: tuple(v) for s, v in per_step.items()},
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
    for idx in measure.index_blocks(seed, STREAM_WALK, first_path, n_paths, n_steps):
        words, top = _empty_words(len(idx), n_steps + 2)
        steps = _masked_steps(words.reshape(-1), top, letters[idx.T], 1)
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


def _stepped_depth_counts(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    depths: tuple[int, ...],
    first_path: int,
) -> dict[int, dict]:
    """``entropy_depth_counts`` of any walk, path by path through ``StepGraph.advance``."""
    part_key = measure.acting.part_key
    graph = StepGraph(measure)
    n_steps = max(depths)
    ascending = sorted(set(depths))
    counts: dict[int, dict] = {d: {} for d in depths}
    for idx in measure.draw_rows(seed, STREAM_WALK, first_path, n_paths, n_steps):
        stack: list[int] = []
        node = graph.root
        done = 0
        for d in ascending:
            node = graph.advance(stack, node, idx[done:d])
            done = d
            key = (graph.free_letters(stack, node), part_key(graph.parts[node]))
            table = counts[d]
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
    support_bound = len(measure) ** depths[-1]
    if min(support_bound, n_paths) * len(depths) > max_cells:
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
