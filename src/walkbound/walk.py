"""Step measures and seeded right-increment random walks on the extensions.

A walk starts at the identity and multiplies i.i.d. increments drawn from a
finitely supported step measure on the right: x_n = h_1 h_2 ... h_n. Paths are
reproducible bit for bit from (seed, path index) regardless of batching or
worker scheduling, because every path owns a counter-derived RNG stream. The
stream keys of a path range are computed in one batched pass, bit-identical to
``SeedSequence(seed, spawn_key=(stream, index))`` (see ``_rng``).

Every sampler runs one step kernel, ``StepGraph.advance``. The free part is a
mutable letter stack; the acting part is a node of a step graph that each
estimator call builds lazily over the acting positions its paths visit. Slot i
of a node holds, once first traversed, the free part of atom i twisted by the
node's accumulated automorphism (``ActingGroup.twist_letters``, computed once
per edge) and the successor node. A step along a built edge is one list index,
the junction cancellation and a pointer move: its cost is the twisted
increment length, not the length of the whole word. A new acting position
costs about the length of its twisted images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import STREAM_WALK, path_generators
from .errors import BudgetError, ConfigError
from .groups import (
    ActingGroup,
    ExtElement,
    ball,
    element_key,
    ext_multiply,
    gauge_length,
)
from .words import _reduced_word

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

    def __repr__(self) -> str:
        return f"StepMeasure({len(self.atoms)} atoms on {self.acting!r})"

    def __getstate__(self):
        return (self.acting, self.atoms, self.weights)

    def __setstate__(self, state) -> None:
        acting, atoms, weights = state
        self.__init__(acting, atoms, weights, check_generation=False)


class _Node:
    """One acting position of a step graph.

    ``edges[i]`` is None until atom i is first taken from here, then the pair
    (free part of atom i twisted by Θ(part), successor node).
    """

    __slots__ = ("part", "edges")

    def __init__(self, part, n_atoms: int):
        self.part = part
        self.edges: list = [None] * n_atoms


class StepGraph:
    """The acting positions one estimator call has visited, linked by atom.

    Built lazily and kept only for the call that builds it: nothing is stored
    on the measure or the acting group, so what is pickled for worker
    processes does not grow with the walk. Each edge is built once, on its
    first traversal; for a one-letter atom it holds Θ(p)'s own table entry.
    """

    __slots__ = ("measure", "acting", "root", "_nodes", "_twisted")

    def __init__(self, measure: StepMeasure):
        self.measure = measure
        self.acting = measure.acting
        self._nodes: dict = {}
        self._twisted = self.acting.k > 0
        self.root = self._node(self.acting.identity_part())

    def _node(self, part) -> _Node:
        key = self.acting.part_key(part)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = _Node(part, len(self.measure.atoms))
        return node

    def _link(self, node: _Node, i: int) -> tuple:
        letters, increment = self.measure._step_data[i]
        if letters and self._twisted:
            letters = self.acting.twist_letters(node.part, letters)
        succ = node
        if increment is not None:
            succ = self._node(self.acting.part_multiply(node.part, increment))
        edge = node.edges[i] = (letters, succ)
        return edge

    def advance(self, stack: list[int], node: _Node, indices: Sequence[int]) -> _Node:
        """Right-multiply the position (stack, node) by the atoms at ``indices``.

        ``stack`` holds the reduced free part and is updated in place; the
        returned node is the new acting position. Pass Python ints
        (``draw_indices(...).tolist()``): numpy scalars index lists slowly.
        """
        link = self._link
        for i in indices:
            letters, node = node.edges[i] or link(node, i)
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
    The final step is always recorded.
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
        return np.array([gauge_length(g) for g in self.positions[step]], dtype=np.float64)


def _run_one_path(
    graph: StepGraph,
    rng: np.random.Generator,
    n_steps: int,
    record: list[int],
) -> dict[int, ExtElement]:
    """Positions of one path of ``n_steps`` steps at the ascending ``record`` steps."""
    idx = graph.measure.draw_indices(rng, n_steps).tolist()
    rank = graph.acting.base_rank
    stack: list[int] = []
    node = graph.root
    snaps: dict[int, ExtElement] = {}
    done = 0
    for step in record:
        node = graph.advance(stack, node, idx[done:step])
        done = step
        snaps[step] = ExtElement(_reduced_word(rank, tuple(stack)), node.part)
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
    disjoint ranges simulated separately merge into the same batch.
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
    for rng in path_generators(seed, STREAM_WALK, first_path, n_paths):
        snaps = _run_one_path(graph, rng, n_steps, steps)
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

    Only counts are kept, never the elements themselves. ``first_path``
    offsets the per-path streams, so disjoint ranges drawn by different
    workers tile into exactly the single-process tabulation.
    """
    if n_paths < 1 or not depths or min(depths) < 1:
        raise ConfigError("need n_paths >= 1 and at least one depth, all >= 1")
    part_key = measure.acting.part_key
    graph = StepGraph(measure)
    n_steps = max(depths)
    ascending = sorted(set(depths))
    counts: dict[int, dict] = {d: {} for d in depths}
    for rng in path_generators(seed, STREAM_WALK, first_path, n_paths):
        idx = measure.draw_indices(rng, n_steps).tolist()
        stack: list[int] = []
        node = graph.root
        done = 0
        for d in ascending:
            node = graph.advance(stack, node, idx[done:d])
            done = d
            key = (tuple(stack), part_key(node.part))
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


def asymptotic_entropy_estimate(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    depths: tuple[int, ...] | list[int],
    max_cells: int = 20_000_000,
) -> EntropyEstimate:
    """Estimate the entropy rate by plug-in entropies extrapolated in 1/n.

    The position distribution at each requested depth is tabulated over all
    paths (streaming, only occupancy counts are kept), the plug-in entropy
    gets the Miller-Madow correction, and a least squares line through
    (1/n, H_n/n) reports its intercept as the rate. The coverage flag warns
    when the deepest table is too thinly occupied for the correction to be
    trusted; more paths are the remedy.
    """
    depths = tuple(sorted(set(int(d) for d in depths)))
    if not depths or depths[0] < 1:
        raise ConfigError("need at least one positive depth")
    support_bound = len(measure) ** depths[-1]
    if min(support_bound, n_paths) * len(depths) > max_cells:
        raise BudgetError(
            f"plug-in tabulation would exceed {max_cells} cells; lower the depths"
        )
    counts = entropy_depth_counts(measure, seed, n_paths, depths)
    return entropy_from_counts(counts, n_paths)
