"""Boundary action, empirical hitting measures, stationarity, convergence.

The boundary of the free part is approximated through probe rays: the
direction a walk converges to is read off as the common prefix, to a fixed
depth, of the translates {x_n . xi} over a small probe set. Estimators report
the fraction of paths whose prefix never stabilizes instead of guessing.

Walk positions reuse the per-path counter RNG streams of the walk module, so
a hitting run and a path batch with the same seed traverse identical paths.
Boundary-sample draws and stationarity resampling use separate stream tags.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._rng import (
    BLOCK, STREAM_BOUNDARY, STREAM_RESAMPLE, STREAM_RETURN, STREAM_WALK, derived_rng, index_blocks,
    philox_keys,
)
from .errors import BudgetError, ConfigError, ConvergenceError
from .groups import (
    ActingGroup,
    ExtElement,
    SublatticeSpec,
    _map_distinct,
    gauge_length,
    part_in_sublattice,
)
from .morphisms import _ray_image
from .walk import (  # _last_lattice_step stays bound here for bench/tracing.py
    BLOCK_CELLS,
    StepGraph,
    StepMeasure,
    _collector_paused,
    _empty_words,
    _first_returns,
    _fixed_pushes,
    _last_lattice_step,
    _letter_rows,
    _masked_steps,
    _walk_rows,
)
from .words import Ray, Word, _reduced_word

__all__ = [
    "CylinderDistribution",
    "HittingEstimate",
    "ConvergenceTrace",
    "FirstReturnSample",
    "act_on_ray",
    "default_probes",
    "empirical_hitting_measure",
    "extend_to_ray",
    "first_return_sampler",
    "sample_boundary_rays",
    "stationarity_residual",
    "track_convergence",
]

FREQ_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CylinderDistribution:
    """Frequencies over the reduced words of one fixed length.

    Keys are letter tuples of length ``depth``; missing keys carry frequency
    zero. Frequencies must sum to 1 within 1e-9.
    """

    rank: int
    depth: int
    table: dict[tuple[int, ...], float]
    sample_count: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        total = 0.0
        for key, freq in self.table.items():
            if len(key) != self.depth:
                raise ConfigError(f"cylinder {key} has length {len(key)}, need {self.depth}")
            Word(self.rank, key)
            if freq < 0.0:
                raise ConfigError(f"negative frequency {freq} for {key}")
            total += freq
        if abs(total - 1.0) > FREQ_SUM_TOL:
            raise ConfigError(f"frequencies sum to {total!r}, not 1 within {FREQ_SUM_TOL}")

    @classmethod
    def from_counts(cls, rank: int, depth: int, counts: dict) -> "CylinderDistribution":
        n = sum(counts.values())
        if n <= 0:
            raise ConfigError("no samples to tabulate")
        table = {key: c / n for key, c in counts.items()}
        return cls(rank, depth, table, n)

    def frequency(self, prefix: Word | tuple[int, ...]) -> float:
        key = prefix.letters if isinstance(prefix, Word) else tuple(prefix)
        return self.table.get(key, 0.0)

    def marginalize(self, depth: int) -> "CylinderDistribution":
        """Sum frequencies over extensions down to a shallower depth."""
        if not (0 <= depth <= self.depth):
            raise ConfigError(f"cannot marginalize depth {self.depth} to {depth}")
        out: dict[tuple[int, ...], float] = {}
        for key, freq in self.table.items():
            short = key[:depth]
            out[short] = out.get(short, 0.0) + freq
        return CylinderDistribution(self.rank, depth, out, self.sample_count)

    def tv_distance(self, other: "CylinderDistribution") -> float:
        if self.rank != other.rank or self.depth != other.depth:
            raise ConfigError("distributions live on different cylinder sets")
        keys = set(self.table) | set(other.table)
        return 0.5 * math.fsum(
            abs(self.table.get(k, 0.0) - other.table.get(k, 0.0)) for k in keys
        )

    def max_frequency(self) -> float:
        return max(self.table.values(), default=0.0)


def extend_to_ray(prefix: Word) -> Ray:
    """Extend a cylinder prefix to a ray inside the same cylinder.

    The last letter repeats forever; that continuation never cancels. An
    empty prefix extends along the first generator.
    """
    if not prefix:
        return Ray.constant(prefix.rank, 1)
    return Ray(prefix, Word(prefix.rank, (prefix.letters[-1],)))


def default_probes(rank: int) -> tuple[Ray, Ray]:
    """Two distinct constant probe rays."""
    if rank >= 2:
        return (Ray.constant(rank, 1), Ray.constant(rank, 2))
    return (Ray.constant(rank, 1), Ray.constant(rank, -1))


def _checked_probes(rank: int, probes: tuple[Ray, ...] | None) -> tuple[Ray, ...]:
    """``default_probes`` when None, else at least two pairwise distinct rays."""
    if probes is None:
        return default_probes(rank)
    if len(probes) < 2 or len(set(probes)) != len(probes):
        raise ConfigError("need at least two pairwise distinct probe rays")
    if any(r.rank != rank for r in probes):
        raise ConfigError(f"probe rays must have the walk's base rank {rank}")
    return tuple(probes)


class _RayImages:
    """Prefixes of the exact images Theta(p)(ray), cached per (p, ray index).

    The rays are an estimator's probes or a harmonic evaluation's boundary
    samples. Theta(p) maps an eventually periodic ray to another one
    (``morphisms._ray_image``); an identity part keeps the ray itself.
    ``of(part)`` looks the part up once and returns its entry, (Theta(p),
    None for the identity part, and a list of each ray's prefix or None),
    which a step's scans and translations share: Theta(p) is read from the
    acting group once per entry. ``at_least`` returns an entry's cached
    letter tuple for one ray, holding at least the requested number of
    letters; callers index into it rather than taking copies. A miss builds
    the image and keeps a prefix of it twice the requested length (16
    letters at least), so a prefix grown step by step is rebuilt a
    logarithmic number of times. Nothing is cut from the image before
    cancellation, so every letter served is exact.
    """

    __slots__ = ("acting", "rays", "_cache")

    def __init__(self, acting: ActingGroup, rays: tuple[Ray, ...]):
        self.acting = acting
        self.rays = rays
        self._cache: dict[tuple, tuple] = {}

    def of(self, part) -> tuple:
        key = self.acting.part_key(part)
        entry = self._cache.get(key)
        if entry is None:
            acting = self.acting
            phi = None if acting.part_is_identity(part) else acting.automorphism_for(part)
            entry = self._cache[key] = (phi, [None] * len(self.rays))
        return entry

    def at_least(self, entry: tuple, ray_idx: int, length: int) -> tuple[int, ...]:
        phi, prefixes = entry
        cached = prefixes[ray_idx]
        if cached is None or len(cached) < length:
            image = self.rays[ray_idx]
            if phi is not None:
                image = _ray_image(phi, image)
            cached = prefixes[ray_idx] = image.prefix(max(2 * length, 16)).letters
        return cached


def _cancelled(
    w: list[int] | tuple[int, ...], images: _RayImages, entry: tuple, ray_idx: int
) -> int:
    """How many leading letters of Theta(part)(ray) the tail of w cancels.

    ``entry`` is ``images.of(part)``. Reads the cached prefix, and one twice
    as long only when the scan reaches its end. The count stays short however
    long w is: w . Theta(p)(ray) equals Theta(p)(u . ray) with
    u = Theta(p)^-1(w), and by bounded cancellation Theta(p) cancels at most
    a constant more than the images of the few letters u and the ray cancel.
    Over the probe translations of the benchmark's ``boundary`` workload
    (seed 1), |w| has median 174 and maximum 832, the count median 0 and
    maximum 71.
    """
    n = len(w)
    img = images.at_least(entry, ray_idx, 1)
    c = 0
    while c < n and w[n - 1 - c] == -img[c]:
        c += 1
        if c == len(img):
            img = images.at_least(entry, ray_idx, 2 * c)
    return c


def _translate_prefix(
    w: list[int] | tuple[int, ...],
    images: _RayImages,
    entry: tuple,
    ray_idx: int,
    depth: int,
) -> tuple[int, ...]:
    """First ``depth`` letters of w . Theta(part)(ray); every translation runs here.

    ``entry`` is ``images.of(part)``. The last c letters of w cancel the
    first c image letters (``_cancelled``); the result is the surviving
    letters of w, then image letters from c on, c + depth - (|w| - c) image
    letters in all when fewer than ``depth`` letters of w survive. The image
    is exact, so the result is the true prefix of the translate for every
    part and ray.
    """
    c = _cancelled(w, images, entry, ray_idx)
    surviving = len(w) - c
    if surviving >= depth:
        return tuple(w[:depth])
    need = c + depth - surviving
    return tuple(w[:surviving]) + images.at_least(entry, ray_idx, need)[c:need]


def act_on_ray(acting: ActingGroup, g: ExtElement, r: Ray, depth: int) -> Word:
    """First ``depth`` letters of w . Theta(p)(r) for g = (w, p), exactly."""
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    if r.rank != acting.base_rank or g.w.rank != acting.base_rank:
        raise ConfigError("ray and element must live over the acting group's base rank")
    images = _RayImages(acting, (r,))
    prefix = _translate_prefix(g.w.letters, images, images.of(g.p), 0, depth)
    return Word(acting.base_rank, prefix)


def _agreement(w: list[int], images: _RayImages, entry: tuple, depth: int) -> int:
    """How many leading letters, at most ``depth``, all probe translates of (w, part) share.

    ``entry`` is ``images.of(part)``. When no probe cancels more than
    |w| - depth letters of w, every translate starts with w's first
    ``depth`` letters, and no translate is built.
    """
    probes = range(len(images.rays))
    keep = len(w) - depth
    # a loop, not all() over a generator: track calls this once per step
    for q in probes:
        if _cancelled(w, images, entry, q) > keep:
            break
    else:
        return depth
    first = _translate_prefix(w, images, entry, 0, depth)
    agree = depth
    for q in probes[1:]:
        t = _translate_prefix(w, images, entry, q, depth)
        d = 0
        while d < agree and t[d] == first[d]:
            d += 1
        agree = d
    return agree


# -- walk endpoints ----------------------------------------------------------------
#
# Every position an estimator resolves, x_n or its position at the last
# return to the sublattice, is read through the one walk driver
# ``walk._walk_rows``, which picks the route (letter pass, syllable pass, or
# ``advance`` on drawn rows) once per call.


# Kept, though the package no longer calls it: bench/tracing.py wraps it by name.
def _endpoint(graph: StepGraph, indices: list[int]) -> tuple[list[int], int]:
    """Run the walk over pre-drawn atom indices; returns the end's (stack, node)."""
    stack: list[int] = []
    node = graph.advance(stack, graph.root, indices)
    return stack, node


@dataclass(frozen=True)
class HittingEstimate:
    """Empirical distribution of walk directions over depth-k cylinders."""

    distribution: CylinderDistribution
    unresolved_fraction: float
    resolved_count: int
    n_paths: int


def _check_ceiling(name: str, ceiling: float) -> None:
    """Reject a ceiling that is not a fraction in [0, 1]; NaN is none."""
    if not 0 <= ceiling <= 1:
        raise ConfigError(f"{name} must lie in [0, 1], got {ceiling}")


@_collector_paused
def _resolve_paths(
    measure: StepMeasure,
    seed: int,
    stream: int,
    n_paths: int,
    n_steps: int,
    depth: int,
    probes: tuple[Ray, ...] | None,
    return_lattice: SublatticeSpec | None,
    unresolved_ceiling: float,
) -> list[tuple[int, ...] | None]:
    """Per path of ``stream``: the resolved depth-prefix letters, or None.

    The one route of hitting and boundary samples: it validates the sizes and
    probes, walks every path, resolves it by ``_agreement`` and raises a
    convergence error when the unresolved fraction exceeds the ceiling.
    """
    if depth < 1 or n_paths < 1 or n_steps < 1:
        raise ConfigError("need depth, n_paths, n_steps all >= 1")
    _check_ceiling("unresolved ceiling", unresolved_ceiling)
    probes = _checked_probes(measure.acting.base_rank, probes)
    images = _RayImages(measure.acting, probes)
    graph = StepGraph(measure)
    out: list[tuple[int, ...] | None] = []
    misses = 0
    ends = _walk_rows(graph, seed, stream, 0, n_paths, n_steps, (n_steps,), return_lattice)
    for run_to, ((stack, node),) in ends:
        key = None
        if run_to:
            entry = images.of(graph.probe_part(node))
            if _agreement(stack, images, entry, depth) == depth:
                key = _translate_prefix(stack, images, entry, 0, depth)
        misses += key is None
        out.append(key)
    if misses / n_paths > unresolved_ceiling:
        raise ConvergenceError(
            f"{misses / n_paths:.1%} of paths left unresolved at depth {depth} "
            f"after {n_steps} steps (ceiling {unresolved_ceiling:.1%}); "
            "run longer or lower the depth"
        )
    return out


def empirical_hitting_measure(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    n_steps: int,
    depth: int,
    probes: tuple[Ray, ...] | None = None,
    return_lattice: SublatticeSpec | None = None,
    unresolved_ceiling: float = 0.05,
) -> HittingEstimate:
    """Tabulate walk directions over depth-k cylinders.

    Each path contributes its terminal position (or, with ``return_lattice``,
    the last position whose acting part lies in the sublattice); the position
    is resolved to a cylinder when every translated probe agrees on the first
    ``depth`` letters. Raises a convergence error when the unresolved
    fraction exceeds the ceiling, or when no path resolves.
    """
    resolved = _resolve_paths(
        measure, seed, STREAM_WALK, n_paths, n_steps, depth, probes, return_lattice,
        unresolved_ceiling,
    )
    counts = Counter(key for key in resolved if key is not None)
    hits = sum(counts.values())
    if not hits:
        # a ceiling of 1 lets every path stay unresolved; nothing is left to tabulate
        raise ConvergenceError(
            f"no path resolved at depth {depth} after {n_steps} steps; "
            "run longer or lower the depth"
        )
    distribution = CylinderDistribution.from_counts(measure.acting.base_rank, depth, counts)
    return HittingEstimate(distribution, (n_paths - hits) / n_paths, hits, n_paths)


def sample_boundary_rays(
    measure: StepMeasure,
    seed: int,
    n_samples: int,
    depth: int,
    n_steps: int,
    probes: tuple[Ray, ...] | None = None,
    return_lattice: SublatticeSpec | None = None,
    unresolved_ceiling: float = 0.05,
) -> list[Ray]:
    """Independent boundary samples as rays, one per resolved path.

    Draws its own stream, so the rays are independent of any hitting run or
    path batch with the same seed. Unresolved paths are dropped; exceeding
    the ceiling raises.
    """
    resolved = _resolve_paths(
        measure, seed, STREAM_BOUNDARY, n_samples, n_steps, depth, probes, return_lattice,
        unresolved_ceiling,
    )
    rank = measure.acting.base_rank
    return [extend_to_ray(Word(rank, key)) for key in resolved if key is not None]


def stationarity_residual(
    measure: StepMeasure,
    distribution: CylinderDistribution,
    seed: int,
    n_resample: int,
    compare_depth: int | None = None,
) -> float:
    """Total-variation gap between a cylinder law and its one-step pushforward.

    Draws (g, xi) independently with g from the step measure and xi from the
    cylinder law extended to rays, re-tabulates g . xi at ``compare_depth``
    (the law's own depth by default), and returns the TV distance against the
    law marginalized to that depth. The push of each (atom, cylinder) pair is
    deterministic and memoized, so resampling is a pair of categorical draws.

    Materialize the law a couple of letters deeper than the comparison depth:
    the periodic extension only represents the conditional law beyond the
    drawn prefix, so any letter the action can pull across the comparison
    boundary must come from real data, not from the extension.
    """
    if n_resample < 1:
        raise ConfigError("need n_resample >= 1")
    acting = measure.acting
    if distribution.rank != acting.base_rank:
        raise ConfigError("distribution rank does not match the acting group")
    depth = distribution.depth if compare_depth is None else int(compare_depth)
    if not (1 <= depth <= distribution.depth):
        raise ConfigError(f"compare depth must be in 1..{distribution.depth}")
    cyl_keys = sorted(distribution.table)
    cyl_freqs = np.array([distribution.table[k] for k in cyl_keys], dtype=np.float64)
    cyl_cum = np.cumsum(cyl_freqs)
    cyl_cum[-1] = max(cyl_cum[-1], 1.0)
    rays = tuple(extend_to_ray(Word(acting.base_rank, k)) for k in cyl_keys)

    base_table = (
        distribution.table
        if depth == distribution.depth
        else distribution.marginalize(depth).table
    )
    cell_index = {k: i for i, k in enumerate(sorted(base_table))}

    def cell_of(key: tuple[int, ...]) -> int:
        return cell_index.setdefault(key, len(cell_index))

    images = _RayImages(acting, rays)
    pushed = np.empty((len(measure.atoms), len(cyl_keys)), dtype=np.int64)
    for a, atom in enumerate(measure.atoms):
        entry = images.of(atom.p)
        for c in range(len(rays)):
            pushed[a, c] = cell_of(_translate_prefix(atom.w.letters, images, entry, c, depth))

    rng = derived_rng(seed, STREAM_RESAMPLE)
    atom_draw = measure.draw_indices(rng, n_resample)
    cyl_draw = np.searchsorted(cyl_cum, rng.random(n_resample), side="right")
    cells = pushed[atom_draw, cyl_draw]
    counts = np.bincount(cells, minlength=len(cell_index)).astype(np.float64)
    counts /= n_resample
    base = np.zeros(len(cell_index), dtype=np.float64)
    for k, freq in base_table.items():
        base[cell_index[k]] = freq
    return float(0.5 * np.abs(base - counts).sum())


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-path, per-step common-prefix lengths of the translated probes.

    ``lengths[i, j]`` is the agreement depth after step j+1 of path i,
    truncated at the tracking depth.
    """

    probes: tuple[Ray, ...]
    depth: int
    lengths: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return int(self.lengths.shape[0])

    @property
    def n_steps(self) -> int:
        return int(self.lengths.shape[1])

    def final_lengths(self) -> np.ndarray:
        return self.lengths[:, -1]

    def median_final_length(self) -> float:
        return float(np.median(self.final_lengths()))

    def monotone_fraction(self, burn_in: int) -> float:
        """Fraction of paths nondecreasing from step ``burn_in`` onward."""
        if not (1 <= burn_in <= self.n_steps):
            raise ConfigError(f"burn_in must be in 1..{self.n_steps}")
        window = self.lengths[:, burn_in - 1 :]
        ok = np.all(np.diff(window.astype(np.int64), axis=1) >= 0, axis=1)
        return float(ok.mean())

    def resolved_fraction(self, at_depth: int) -> float:
        """Fraction of paths whose final agreement reaches ``at_depth``."""
        return float((self.final_lengths() >= at_depth).mean())


@_collector_paused
def track_convergence(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    n_steps: int,
    depth: int,
    probes: tuple[Ray, ...] | None = None,
) -> ConvergenceTrace:
    """Record how far the translated probes agree after every step.

    Each step's length is ``_agreement``'s, the rule by which hitting
    resolves a path, so a path of the same seed whose final length reaches
    ``depth`` is one that hitting resolves. A walk whose atoms push fixed
    words of at most one letter computes it for a block of paths at once
    (``_array_lengths``); every other walk calls ``_agreement`` after each
    ``advance``. Longer pushes stay there: each letter of width costs every
    array step one more masked step and cell update, and at a few dozen
    paths that loses to ``advance``.
    """
    if depth < 1 or n_paths < 1 or n_steps < 1:
        raise ConfigError("need depth, n_paths, n_steps all >= 1")
    probes = _checked_probes(measure.acting.base_rank, probes)
    graph = StepGraph(measure)
    table = _fixed_pushes(graph)
    if table is not None and table.shape[1] == 1:
        lengths = _array_lengths(graph, table, seed, n_paths, n_steps, depth, probes)
        return ConvergenceTrace(probes, depth, lengths, seed)
    images = _RayImages(measure.acting, probes)
    # images.of(graph.probe_part(node)) of each node id
    entries: list[tuple] = []
    lengths = np.zeros((n_paths, n_steps), dtype=np.int32)
    keys = philox_keys(seed, STREAM_WALK, 0, n_paths)
    done = 0
    for block in index_blocks(measure._cumulative, keys, n_steps, max(1, BLOCK // n_steps)):
        for row, idx in zip(lengths[done:], block.tolist()):
            stack: list[int] = []
            node = graph.root
            for n, i in enumerate(idx):
                node = graph.advance(stack, node, (i,))
                try:
                    entry = entries[node]
                except IndexError:
                    new = range(len(entries), len(graph.edges))
                    entries.extend(images.of(graph.probe_part(m)) for m in new)
                    entry = entries[node]
                row[n] = _agreement(stack, images, entry, depth)
        done += len(block)
    return ConvergenceTrace(probes, depth, lengths, seed)


class _ProbeSuffixes:
    """Every suffix of the probes, numbered probe by probe, for ``_array_lengths``.

    State ``first[q] + j`` is the suffix ξ_q[j:] of probe q, for j below
    |head| + |cycle|; one letter on from the last state is the state at
    |head|. ``inverse[s]`` is the inverse of state s's first letter, and
    ``successor[s]`` the state one letter on (None when every state is its
    own successor, as for constant rays). ``lcp[q - 1][a, b]`` is the common
    prefix length, capped at ``depth``, of state a of probe 0 and state b of
    probe q, relative to each probe's first state.
    """

    def __init__(self, probes: tuple[Ray, ...], depth: int):
        inverse: list[int] = []
        successor: list[int] = []
        self.first: list[int] = []
        self.heads = [len(ray.head.letters) for ray in probes]
        self.periods = [len(ray.cycle.letters) for ray in probes]
        for ray, head, period in zip(probes, self.heads, self.periods):
            start = len(inverse)
            self.first.append(start)
            for j in range(head + period):
                inverse.append(-ray.letter(j))
                successor.append(start + (j + 1 if j + 1 < head + period else head))
        self.inverse = np.array(inverse, dtype=np.int8)
        self.successor = None if successor == list(range(len(successor))) else np.array(successor)

        def lcp(b: Ray, i: int, j: int) -> int:
            d = 0
            while d < depth and probes[0].letter(i + d) == b.letter(j + d):
                d += 1
            return d

        states = [head + period for head, period in zip(self.heads, self.periods)]
        self.lcp = [
            np.array([[lcp(ray, i, j) for j in range(n)] for i in range(states[0])])
            for ray, n in zip(probes[1:], states[1:])
        ]

    def after(self, q: int, cancelled: np.ndarray):
        """The state of probe q (relative to its first) ``cancelled`` letters in."""
        head, period = self.heads[q], self.periods[q]
        if period == 1 and not head:
            return 0
        cycled = head + (cancelled - head) % period
        return np.where(cancelled < head, cancelled, cycled) if head else cycled


def _array_lengths(
    graph: StepGraph,
    table: np.ndarray,
    seed: int,
    n_paths: int,
    n_steps: int,
    depth: int,
    probes: tuple[Ray, ...],
) -> np.ndarray:
    """``track_convergence``'s lengths of a walk that pushes one fixed letter or none per atom.

    A block of paths steps ``walk._masked_steps``. A probe translates by the
    stack v itself (``StepGraph.probe_part`` is the identity), so
    v·ξ_q = v[:s_q]·ξ_q[c_q:] with c_q = LCP(v⁻¹, ξ_q) and s_q = |v| − c_q.
    Each stack cell i keeps, for every probe suffix state j,
    L_j = LCP(v[:i]⁻¹, ξ[j:]); a push of x sets L_j ← [−x = ξ[j]]·(1 + L_{j+1})
    in the new top cell. The top cell is recomputed after every step, which
    leaves it as it was when the step popped or did nothing. Translates 0
    and q then agree on min(s_0, s_q) letters when s_0 ≠ s_q (the next
    letters are one of v's and the first uncancelled ray letter, which differ
    since the ray is reduced), else on s_0 plus the common prefix of
    ξ_0[c_0:] and ξ_q[c_q:]; the agreement is the least of these over q ≥ 1,
    capped at ``depth``, as ``_agreement`` computes it.
    """
    suffixes = _ProbeSuffixes(probes, depth)
    inverse, successor, first = suffixes.inverse, suffixes.successor, suffixes.first
    cells = n_steps + 2
    states = len(inverse)
    # about 4 · BLOCK_CELLS bytes of int8 words and int32 suffix LCPs a block
    rows = max(1, 4 * BLOCK_CELLS // (cells * (1 + 4 * states)))
    lengths = np.empty((n_paths, n_steps), dtype=np.int32)
    done = 0
    keys = philox_keys(seed, STREAM_WALK, 0, n_paths)
    for block in index_blocks(graph.measure._cumulative, keys, n_steps, rows):
        words, top = _empty_words(len(block), cells)
        base = top.copy()
        flat = words.reshape(-1)
        # a floor cell's values are recomputed as 0: FLOOR matches no state
        suffix_lcp = np.zeros((flat.size, states), dtype=np.int32)
        trace = np.empty((n_steps, len(block)), dtype=np.int32)
        for t, _ in enumerate(_masked_steps(flat, top, _letter_rows(table, block), 1)):
            cancelled = suffix_lcp[top - 1]
            if successor is not None:
                cancelled = cancelled[:, successor]
            cancelled += 1
            cancelled *= flat[top][:, None] == inverse
            suffix_lcp[top] = cancelled
            if states != len(first):
                cancelled = cancelled[:, first]
            size = top - base
            if (size - cancelled.max(axis=1)).min() >= depth:
                trace[t] = depth
                continue
            c0 = cancelled[:, 0]
            s0 = size - c0
            state0 = suffixes.after(0, c0)
            agree = np.full(len(block), depth)
            for q in range(1, len(first)):
                cq = cancelled[:, q]
                sq = size - cq
                tail = s0 + suffixes.lcp[q - 1][state0, suffixes.after(q, cq)]
                np.minimum(agree, np.where(s0 != sq, np.minimum(s0, sq), tail), out=agree)
            trace[t] = agree
        lengths[done : done + len(block)] = trace.T
        done += len(block)
    return lengths


@dataclass(frozen=True)
class FirstReturnSample:
    """Positions of a walk at its first visit back to F x L, with wait times.

    Samples that return to the same position share one element object.
    """

    samples: tuple[ExtElement, ...]
    return_times: tuple[int, ...]
    failures: int
    step_budget: int

    @property
    def n_requested(self) -> int:
        return len(self.samples) + self.failures

    @property
    def failure_fraction(self) -> float:
        return self.failures / self.n_requested if self.n_requested else 0.0

    def mean_return_time(self) -> float | None:
        """The mean return time, None when no sample returned."""
        return float(np.mean(self.return_times)) if self.return_times else None

    def mean_gauge(self) -> float | None:
        """The mean gauge of the returned positions, None when no sample returned."""
        if not self.samples:
            return None
        return float(np.mean(_map_distinct(gauge_length, self.samples)))


@_collector_paused
def first_return_sampler(
    measure: StepMeasure,
    sublattice: SublatticeSpec,
    seed: int,
    n_samples: int,
    step_budget: int = 1024,
    failure_ceiling: float = 0.05,
) -> FirstReturnSample:
    """Sample x_tau at tau = min(n >= 1 : acting part of x_n in the sublattice).

    Each sample runs an independent walk until it lands in the sublattice or
    the step budget runs out; budget exhaustion is counted per sample and the
    whole call fails only when the failure fraction exceeds the ceiling.
    ``walk._first_returns`` reads tau off the samples' membership masks,
    redrawing the samples that have not returned from the start of their
    streams, twice as long each time; only the samples that return are
    walked, once each, up to tau. At the default budget no sample goes past
    the first ``HEAD`` steps on ``semidirect-mixed``, and about 1.3% of them
    do on ``lattice-rank2``.
    """
    if n_samples < 1 or step_budget < 1:
        raise ConfigError("need n_samples >= 1 and step_budget >= 1")
    _check_ceiling("failure ceiling", failure_ceiling)
    graph = StepGraph(measure)
    # a spec that does not match the acting group raises before any draw
    part_in_sublattice(measure.acting, graph.part(graph.root), sublattice)
    rank = measure.acting.base_rank
    # one element per distinct returned position (node, stack)
    returned: dict[tuple, ExtElement] = {}
    # per sample, its position and tau: None and 0 for a sample that does not return
    found: list[ExtElement | None] = [None] * n_samples
    taus = [0] * n_samples
    blocks = _first_returns(graph, sublattice, seed, STREAM_RETURN, n_samples, step_budget)
    for items, rows in blocks:
        for index, idx in zip(items, rows):
            stack: list[int] = []
            node = graph.advance(stack, graph.root, idx)
            key = (node, tuple(stack))
            g = returned.get(key)
            if g is None:
                w = _reduced_word(rank, graph.free_letters(stack, node))
                g = returned[key] = ExtElement(w, graph.part(node))
            found[index] = g
            taus[index] = len(idx)
    times = tuple(filter(None, taus))
    samples = tuple(g for g in found if g is not None)
    result = FirstReturnSample(samples, times, n_samples - len(times), step_budget)
    if result.failure_fraction > failure_ceiling:
        raise BudgetError(
            f"{result.failure_fraction:.1%} of samples failed to return within "
            f"{step_budget} steps (ceiling {failure_ceiling:.1%})"
        )
    return result
