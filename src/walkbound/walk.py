"""Step measures and seeded right-increment random walks on the extensions.

A walk starts at the identity and multiplies i.i.d. increments drawn from a
finitely supported step measure on the right: x_n = h_1 h_2 ... h_n. Paths are
reproducible bit for bit from (seed, path index) regardless of batching or
worker scheduling, because every path owns a counter-derived RNG stream,
keyed bit-identically to ``SeedSequence(seed, spawn_key=(stream, index))``.
Samplers take their atom indices from ``StepMeasure.draw_rows``, a block of
paths at once: paths of at most ``_rng.HEAD`` steps in one vectorized Philox
pass, longer paths each from one re-keyed C generator.

Every sampler runs one step kernel, ``StepGraph.advance``, apart from the
one batched route below. The free part is a mutable letter stack; the acting
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

``entropy_depth_counts`` walks a nearest-neighbour walk on F_d (every atom
one letter with the identity acting part) whose depths are at most ``HEAD``
as arrays, a block of ``StepMeasure.index_blocks`` at a time: a step is a
masked pop or push on every row at once. Per step that pass costs a few
numpy calls per block, which rows of thousands of steps do not amortize, so
longer rows, twisted measures and every other sampler stay on ``advance``.
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

    A block's words are a (rows, steps + 1) int8 array whose column 0 is 0,
    below every word, and ``top`` holds the flat index of each row's last
    letter. A step pops where the row's last letter is the inverse of the
    step's, else pushes; a popped cell is zeroed, so a row is 0 past its
    word. A depth's cells are then its first columns as bytes (trailing
    zeros dropped), counted in path order by ``Counter``; each distinct cell
    is decoded once, so the tables equal the stepped route's.
    """
    ascending = sorted(set(depths))
    n_steps = ascending[-1]
    width = n_steps + 1
    cells: dict[int, Counter] = {d: Counter() for d in ascending}
    for idx in measure.index_blocks(seed, STREAM_WALK, first_path, n_paths, n_steps):
        steps = letters[idx.T]
        inverses = -steps
        words = np.zeros((len(idx), width), dtype=np.int8)
        flat = words.reshape(-1)
        top = np.arange(0, words.size, width)
        done = 0
        for d in ascending:
            for t in range(done, d):
                pop = flat[top] == inverses[t]
                push = ~pop
                pos = top + push
                flat[pos] = steps[t] * push
                top = pos - pop
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
