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
from dataclasses import dataclass

import numpy as np

from ._rng import (
    STREAM_BOUNDARY,
    STREAM_RESAMPLE,
    STREAM_RETURN,
    STREAM_WALK,
    derived_rng,
    path_generators,
)
from .errors import BudgetError, ConfigError, ConvergenceError, TruncationError
from .groups import (
    ActingGroup,
    ExtElement,
    ModuliSpec,
    PermKernelSpec,
    SublatticeSpec,
    gauge_length,
)
from .morphisms import boundary_apply, default_margin
from .walk import StepMeasure
from .words import Ray, Word

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


class _RayImages:
    """Lazily materialized prefixes of Theta(p)(probe), cached per (p, probe).

    ``at_least`` returns the cached letter tuple, guaranteed to hold at least
    the requested number of letters; callers index into it rather than taking
    copies. The truncation margin escalates (doubling, a few rounds) when the
    default is too small for a heavily cancelling automorphism, so estimators
    see a truncation error only when escalation is exhausted.
    """

    __slots__ = ("acting", "probes", "_cache")

    def __init__(self, acting: ActingGroup, probes: tuple[Ray, ...]):
        self.acting = acting
        self.probes = probes
        self._cache: dict[tuple, tuple[int, ...]] = {}

    def at_least(self, part, probe_idx: int, length: int) -> tuple[int, ...]:
        key = (self.acting.part_key(part), probe_idx)
        cached = self._cache.get(key)
        if cached is None or len(cached) < length:
            want = max(2 * length, 64)
            ray = self.probes[probe_idx]
            if self.acting.part_is_identity(part):
                cached = tuple(ray.letter(i) for i in range(want))
            else:
                phi = self.acting.automorphism_for(part)
                margin = default_margin(phi)
                last_error: TruncationError | None = None
                for _ in range(4):
                    try:
                        cached = boundary_apply(phi, ray, want, margin).letters
                        last_error = None
                        break
                    except TruncationError as exc:
                        last_error = exc
                        margin *= 2
                if last_error is not None:
                    raise last_error
            self._cache[key] = cached
        return cached


def _translate_prefix(
    w: list[int] | tuple[int, ...],
    images: _RayImages,
    part,
    probe_idx: int,
    depth: int,
) -> tuple[int, ...]:
    """First ``depth`` letters of w . Theta(part)(probe)."""
    n = len(w)
    img = images.at_least(part, probe_idx, depth + n)
    c = 0
    while c < n and w[n - 1 - c] == -img[c]:
        c += 1
    surviving = n - c
    if surviving >= depth:
        return tuple(w[:depth])
    return tuple(w[:surviving]) + img[c : c + depth - surviving]


def act_on_ray(
    acting: ActingGroup,
    g: ExtElement,
    r: Ray,
    depth: int,
    margin: int | None = None,
) -> Word:
    """First ``depth`` letters of w . Theta(p)(r) for g = (w, p)."""
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    if r.rank != acting.base_rank or g.w.rank != acting.base_rank:
        raise ConfigError("ray and element must live over the acting group's base rank")
    w = g.w.letters
    n = len(w)
    inner = depth + n
    if acting.part_is_identity(g.p):
        img = tuple(r.letter(i) for i in range(inner))
    else:
        phi = acting.automorphism_for(g.p)
        if margin is None:
            margin = default_margin(phi)
        img = boundary_apply(phi, r, inner, margin).letters
    c = 0
    while c < n and w[n - 1 - c] == -img[c]:
        c += 1
    surviving = n - c
    if surviving >= depth:
        return Word(acting.base_rank, w[:depth])
    return Word(acting.base_rank, w[:surviving] + img[c : c + depth - surviving])


# -- shared walk-endpoint machinery ---------------------------------------------


def _last_lattice_step(
    measure: StepMeasure,
    idx: np.ndarray,
    spec: SublatticeSpec,
) -> int:
    """Last step n >= 1 whose acting part lies in the sublattice, else 0."""
    acting = measure.acting
    if isinstance(spec, ModuliSpec):
        if acting.kind != "lattice" or len(spec.moduli) != acting.k:
            raise ConfigError("moduli spec does not match the acting group")
        incs = np.zeros((len(measure.atoms), acting.k), dtype=np.int64)
        for i, g in enumerate(measure.atoms):
            incs[i] = g.p
        path = np.cumsum(incs[idx], axis=0)
        moduli = np.asarray(spec.moduli, dtype=np.int64)
        member = np.all(path % moduli == 0, axis=1)
        hits = np.nonzero(member)[0]
        return int(hits[-1]) + 1 if len(hits) else 0
    if isinstance(spec, PermKernelSpec):
        if acting.kind != "free" or len(spec.images) != acting.k:
            raise ConfigError("permutation spec does not match the acting group")
        atom_perms = [_word_permutation(g.p, spec) for g in measure.atoms]
        identity = tuple(range(spec.degree))
        perm = identity
        last = 0
        for n, i in enumerate(idx, start=1):
            q = atom_perms[i]
            if q is not None:
                perm = tuple(perm[x] for x in q)
            if perm == identity:
                last = n
        return last
    raise ConfigError(f"unknown sublattice spec {spec!r}")


def _word_permutation(p: Word, spec: PermKernelSpec):
    perm = list(range(spec.degree))
    moved = False
    for s in p.letters:
        img = spec.images[abs(s) - 1]
        if s < 0:
            inv = [0] * spec.degree
            for a, b in enumerate(img):
                inv[b] = a
            img = tuple(inv)
        perm = [perm[x] for x in img]
        moved = True
    return tuple(perm) if moved else None


def _endpoint(measure: StepMeasure, idx: np.ndarray, n_steps: int):
    """Run the walk over pre-drawn atom indices; returns (letters, part)."""
    acting = measure.acting
    step_data = measure._step_data
    trivial = acting.k == 0
    twist = acting.twist_letters
    part_mult = acting.part_multiply
    stack: list[int] = []
    part = acting.identity_part()
    for i in idx[:n_steps]:
        letters, increment = step_data[i]
        if letters:
            if not trivial:
                letters = twist(part, letters)
            j = 0
            m = len(letters)
            while j < m and stack and stack[-1] == -letters[j]:
                stack.pop()
                j += 1
            stack.extend(letters[j:])
        if increment is not None:
            part = part_mult(part, increment)
    return stack, part


@dataclass(frozen=True)
class HittingEstimate:
    """Empirical distribution of walk directions over depth-k cylinders."""

    distribution: CylinderDistribution
    unresolved_fraction: float
    resolved_count: int
    n_paths: int


def _resolve_paths(
    measure: StepMeasure,
    seed: int,
    stream: int,
    n_paths: int,
    n_steps: int,
    depth: int,
    probes: tuple[Ray, ...],
    return_lattice: SublatticeSpec | None,
):
    """Per path: the resolved depth-prefix letters, or None."""
    acting = measure.acting
    images = _RayImages(acting, probes)
    out: list[tuple[int, ...] | None] = []
    for rng in path_generators(seed, stream, 0, n_paths):
        idx = measure.draw_indices(rng, n_steps)
        run_to = n_steps
        if return_lattice is not None:
            run_to = _last_lattice_step(measure, idx, return_lattice)
            if run_to == 0:
                out.append(None)
                continue
        stack, part = _endpoint(measure, idx, run_to)
        try:
            first = _translate_prefix(stack, images, part, 0, depth)
            agreed = all(
                _translate_prefix(stack, images, part, i, depth) == first
                for i in range(1, len(probes))
            )
        except TruncationError:
            out.append(None)
            continue
        out.append(first if agreed else None)
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
    fraction exceeds the ceiling.
    """
    if depth < 1 or n_paths < 1 or n_steps < 1:
        raise ConfigError("need depth, n_paths, n_steps all >= 1")
    if probes is None:
        probes = default_probes(measure.acting.base_rank)
    if len(probes) < 2 or len(set(probes)) != len(probes):
        raise ConfigError("need at least two pairwise distinct probe rays")
    resolved = _resolve_paths(
        measure, seed, STREAM_WALK, n_paths, n_steps, depth, probes, return_lattice
    )
    counts: dict[tuple[int, ...], int] = {}
    misses = 0
    for key in resolved:
        if key is None:
            misses += 1
        else:
            counts[key] = counts.get(key, 0) + 1
    unresolved_fraction = misses / n_paths
    if unresolved_fraction > unresolved_ceiling:
        raise ConvergenceError(
            f"{unresolved_fraction:.1%} of paths left unresolved at depth {depth} "
            f"after {n_steps} steps (ceiling {unresolved_ceiling:.1%}); "
            "run longer or lower the depth"
        )
    distribution = CylinderDistribution.from_counts(measure.acting.base_rank, depth, counts)
    return HittingEstimate(distribution, unresolved_fraction, n_paths - misses, n_paths)


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
    if probes is None:
        probes = default_probes(measure.acting.base_rank)
    resolved = _resolve_paths(
        measure, seed, STREAM_BOUNDARY, n_samples, n_steps, depth, probes, return_lattice
    )
    misses = sum(1 for key in resolved if key is None)
    if misses / n_samples > unresolved_ceiling:
        raise ConvergenceError(
            f"{misses / n_samples:.1%} of boundary samples unresolved "
            f"(ceiling {unresolved_ceiling:.1%})"
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
    rays = [extend_to_ray(Word(acting.base_rank, k)) for k in cyl_keys]

    base_table = (
        distribution.table
        if depth == distribution.depth
        else distribution.marginalize(depth).table
    )
    cell_index: dict[tuple[int, ...], int] = {}
    for k in sorted(base_table):
        cell_index[k] = len(cell_index)

    def cell_of(key: tuple[int, ...]) -> int:
        got = cell_index.get(key)
        if got is None:
            got = len(cell_index)
            cell_index[key] = got
        return got

    pushed = np.empty((len(measure.atoms), len(cyl_keys)), dtype=np.int64)
    for a, atom in enumerate(measure.atoms):
        for c, ray in enumerate(rays):
            img = act_on_ray(acting, atom, ray, depth)
            pushed[a, c] = cell_of(img.letters)

    rng = derived_rng(seed, STREAM_RESAMPLE)
    atom_cum = measure._cumulative
    atom_draw = np.searchsorted(atom_cum, rng.random(n_resample), side="right")
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
    truncation_events: int
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


def track_convergence(
    measure: StepMeasure,
    seed: int,
    n_paths: int,
    n_steps: int,
    depth: int,
    probes: tuple[Ray, ...] | None = None,
) -> ConvergenceTrace:
    """Record how far the translated probes agree after every step.

    A step whose translation overflows its truncation margin records length 0
    for that step and is counted, not raised.
    """
    if depth < 1 or n_paths < 1 or n_steps < 1:
        raise ConfigError("need depth, n_paths, n_steps all >= 1")
    acting = measure.acting
    if probes is None:
        probes = default_probes(acting.base_rank)
    if len(probes) < 2 or len(set(probes)) != len(probes):
        raise ConfigError("need at least two pairwise distinct probe rays")
    images = _RayImages(acting, probes)
    step_data = measure._step_data
    trivial = acting.k == 0
    twist = acting.twist_letters
    part_mult = acting.part_multiply
    n_probes = len(probes)
    lengths = np.zeros((n_paths, n_steps), dtype=np.int32)
    truncations = 0
    for p_idx, rng in enumerate(path_generators(seed, STREAM_WALK, 0, n_paths)):
        idx = measure.draw_indices(rng, n_steps)
        stack: list[int] = []
        part = acting.identity_part()
        row = lengths[p_idx]
        for n, i in enumerate(idx):
            letters, increment = step_data[i]
            if letters:
                if not trivial:
                    letters = twist(part, letters)
                j = 0
                m = len(letters)
                while j < m and stack and stack[-1] == -letters[j]:
                    stack.pop()
                    j += 1
                stack.extend(letters[j:])
            if increment is not None:
                part = part_mult(part, increment)
            w_len = len(stack)
            try:
                surviving = []
                for q in range(n_probes):
                    img = images.at_least(part, q, min(w_len, depth) + 1)
                    c = 0
                    while c < w_len and stack[w_len - 1 - c] == -img[c]:
                        if c + 1 >= len(img):
                            img = images.at_least(part, q, w_len + depth)
                        c += 1
                    surviving.append(w_len - c)
                if min(surviving) >= depth:
                    row[n] = depth
                    continue
                translates = [
                    _translate_prefix(stack, images, part, q, depth)
                    for q in range(n_probes)
                ]
            except TruncationError:
                truncations += 1
                row[n] = 0
                continue
            first = translates[0]
            agree = depth
            for t in translates[1:]:
                d = 0
                while d < agree and t[d] == first[d]:
                    d += 1
                agree = d
            row[n] = agree
    return ConvergenceTrace(tuple(probes), depth, lengths, truncations, seed)


@dataclass(frozen=True)
class FirstReturnSample:
    """Positions of a walk at its first visit back to F x L, with wait times."""

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

    def mean_return_time(self) -> float:
        return float(np.mean(self.return_times)) if self.return_times else math.nan

    def mean_gauge(self) -> float:
        if not self.samples:
            return math.nan
        return float(np.mean([gauge_length(g) for g in self.samples]))


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
    """
    if n_samples < 1 or step_budget < 1:
        raise ConfigError("need n_samples >= 1 and step_budget >= 1")
    acting = measure.acting
    if isinstance(sublattice, ModuliSpec):
        if acting.kind != "lattice" or len(sublattice.moduli) != acting.k:
            raise ConfigError("moduli spec does not match the acting group")
        moduli = sublattice.moduli
        atom_perms = None
        identity_perm = None
    elif isinstance(sublattice, PermKernelSpec):
        if acting.kind != "free" or len(sublattice.images) != acting.k:
            raise ConfigError("permutation spec does not match the acting group")
        moduli = None
        atom_perms = [_word_permutation(g.p, sublattice) for g in measure.atoms]
        identity_perm = tuple(range(sublattice.degree))
    else:
        raise ConfigError(f"unknown sublattice spec {sublattice!r}")
    step_data = measure._step_data
    trivial = acting.k == 0
    twist = acting.twist_letters
    part_mult = acting.part_multiply
    rank = acting.base_rank
    samples: list[ExtElement] = []
    times: list[int] = []
    failures = 0
    block = min(step_budget, 128)
    for rng in path_generators(seed, STREAM_RETURN, 0, n_samples):
        stack: list[int] = []
        part = acting.identity_part()
        perm = identity_perm if atom_perms is not None else None
        n = 0
        found = False
        while n < step_budget and not found:
            idx = measure.draw_indices(rng, min(block, step_budget - n))
            for i in idx:
                n += 1
                letters, increment = step_data[i]
                if letters:
                    if not trivial:
                        letters = twist(part, letters)
                    j = 0
                    m = len(letters)
                    while j < m and stack and stack[-1] == -letters[j]:
                        stack.pop()
                        j += 1
                    stack.extend(letters[j:])
                if increment is not None:
                    part = part_mult(part, increment)
                if moduli is not None:
                    member = all(a % m == 0 for a, m in zip(part, moduli))
                else:
                    q = atom_perms[i]
                    if q is not None:
                        perm = tuple(perm[x] for x in q)
                    member = perm == identity_perm
                if member:
                    samples.append(ExtElement(Word(rank, tuple(stack)), part))
                    times.append(n)
                    found = True
                    break
        if not found:
            failures += 1
    result = FirstReturnSample(tuple(samples), tuple(times), failures, step_budget)
    if result.failure_fraction > failure_ceiling:
        raise BudgetError(
            f"{result.failure_fraction:.1%} of samples failed to return within "
            f"{step_budget} steps (ceiling {failure_ceiling:.1%})"
        )
    return result
