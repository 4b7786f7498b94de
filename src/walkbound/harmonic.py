"""Boundary functions, the Poisson transform, and harmonicity checks.

A bounded function on the boundary that depends on finitely many leading
letters is a ``CylinderFunction``. Averaging it against translated boundary
samples turns it into a function on the group; this module evaluates that
transform by Monte Carlo and measures how far the result is from satisfying
the mean-value equation f(g) = sum_h mu(h) f(g*h).

Evaluations share one fixed list of boundary rays. The harmonicity residual
is computed per sample as a weighted difference, so the estimate and its
standard error come from genuinely correlated evaluations rather than from
independent runs whose noise would swamp the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .boundary import _RayImages, _translate_prefix
from .errors import ConfigError
from .groups import ActingGroup, ExtElement, element_key, ext_multiply
from .walk import StepMeasure
from .words import Ray, Word

__all__ = [
    "CylinderFunction",
    "HarmonicityReport",
    "PoissonValue",
    "harmonicity_residual",
    "poisson_eval",
]

VALUE_TOL = 1e-12


@dataclass(frozen=True)
class CylinderFunction:
    """A function on boundary rays determined by the first ``depth`` letters.

    ``table`` maps reduced length-``depth`` letter tuples to values; rays
    whose prefix is not listed take the value 0. ``sup_bound`` is the declared
    uniform bound, checked against every stored value; values and bound are
    finite, so every estimate built from them is too.
    """

    rank: int
    depth: int
    table: Mapping[tuple[int, ...], float]
    sup_bound: float

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError("cylinder functions need depth >= 1")
        object.__setattr__(self, "table", dict(self.table))
        if not all(map(math.isfinite, self.table.values())):
            raise ConfigError("function values must be finite")
        if not 0 <= self.sup_bound < math.inf:
            raise ConfigError(f"sup bound must be finite and nonnegative, got {self.sup_bound}")
        for key, value in self.table.items():
            try:
                word = Word(self.rank, key)
            except ValueError as exc:
                raise ConfigError(f"bad table key {key!r}: {exc}") from exc
            if len(word) != self.depth:
                raise ConfigError(
                    f"table key {word} has length {len(word)}, expected {self.depth}"
                )
            if abs(value) > self.sup_bound + VALUE_TOL:
                raise ConfigError(
                    f"value {value} at {word} exceeds the sup bound {self.sup_bound}"
                )

    @classmethod
    def indicator(cls, prefix: Word) -> "CylinderFunction":
        """The indicator of the cylinder of rays extending ``prefix``."""
        if not prefix:
            raise ConfigError("the empty prefix has no cylinder indicator")
        return cls(prefix.rank, len(prefix), {prefix.letters: 1.0}, 1.0)

    @classmethod
    def constant(cls, rank: int, depth: int, value: float) -> "CylinderFunction":
        table = {}
        stack = [()]
        while stack:
            partial = stack.pop()
            if len(partial) == depth:
                table[partial] = value
                continue
            for s in range(-rank, rank + 1):
                if s == 0 or (partial and s == -partial[-1]):
                    continue
                stack.append(partial + (s,))
        return cls(rank, depth, table, abs(value))

    def value(self, prefix_letters: tuple[int, ...]) -> float:
        """The value on any ray whose leading letters start as given."""
        if len(prefix_letters) < self.depth:
            raise ConfigError(
                f"need at least {self.depth} letters, got {len(prefix_letters)}"
            )
        return self.table.get(prefix_letters[: self.depth], 0.0)

    def value_on_ray(self, ray: Ray) -> float:
        return self.table.get(ray.prefix(self.depth).letters, 0.0)

    def __add__(self, other: "CylinderFunction") -> "CylinderFunction":
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        if (self.rank, self.depth) != (other.rank, other.depth):
            raise ConfigError("can only add cylinder functions of equal rank and depth")
        table = dict(self.table)
        for key, value in other.table.items():
            table[key] = table.get(key, 0.0) + value
        return CylinderFunction(
            self.rank, self.depth, table, self.sup_bound + other.sup_bound
        )

    def scale(self, factor: float) -> "CylinderFunction":
        table = {k: factor * v for k, v in self.table.items()}
        return CylinderFunction(self.rank, self.depth, table, abs(factor) * self.sup_bound)


@dataclass(frozen=True)
class PoissonValue:
    """A Monte Carlo evaluation of a boundary average, with its noise scale."""

    value: float
    stderr: float
    n_samples: int


def _distinct_rays(acting: ActingGroup, rays: Sequence[Ray]) -> tuple[_RayImages, np.ndarray]:
    """Images of the distinct rays, and each sample's index among them."""
    index: dict[Ray, int] = {}
    sample_index = np.array([index.setdefault(ray, len(index)) for ray in rays], dtype=np.intp)
    return _RayImages(acting, tuple(index)), sample_index


def _translated_values(
    images: _RayImages,
    fn: CylinderFunction,
    g: ExtElement,
    sample_index: np.ndarray,
) -> np.ndarray:
    """Per-sample values F(g . xi); distinct rays are evaluated once."""
    w = g.w.letters
    entry = images.of(g.p)
    distinct = [
        fn.value(_translate_prefix(w, images, entry, i, fn.depth)) for i in range(len(images.rays))
    ]
    return np.array(distinct, dtype=np.float64)[sample_index]


def _check_samples(acting: ActingGroup, fn: CylinderFunction, rays: Sequence[Ray]) -> None:
    if fn.rank != acting.base_rank:
        raise ConfigError("function rank does not match the acting group")
    if not rays:
        raise ConfigError("need at least one boundary sample")


def poisson_eval(
    acting: ActingGroup,
    fn: CylinderFunction,
    g: ExtElement,
    rays: Sequence[Ray],
) -> PoissonValue:
    """Average F(g . xi) over boundary samples xi.

    At the identity this is the plain mean of F under the sampled law. The
    returned standard error treats the rays as i.i.d. draws; pass the same
    list to related evaluations so their errors correlate and cancel.
    """
    _check_samples(acting, fn, rays)
    images, sample_index = _distinct_rays(acting, rays)
    values = _translated_values(images, fn, g, sample_index)
    n = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return PoissonValue(mean, stderr, n)


@dataclass(frozen=True)
class HarmonicityReport:
    """Mean-value residuals of a Poisson evaluation over a set of elements.

    ``residuals[i]`` is the triple (value, correlated stderr, combined stderr)
    for f(g_i) - sum_h mu(h) f(g_i * h). The value and the correlated stderr
    come from per-sample differences over shared rays; the combined stderr
    propagates the individual evaluations' stderrs as if independent, which
    overstates the noise of the difference and so gives a conservative unit.
    """

    elements: tuple[ExtElement, ...]
    residuals: tuple[tuple[float, float, float], ...]
    n_samples: int

    @property
    def max_residual(self) -> float:
        return max(abs(value) for value, _, _ in self.residuals)

    @property
    def max_residual_se(self) -> float:
        """The largest residual in units of its combined standard error.

        NaN from fewer than two samples, which give no residual a finite
        standard error: every ratio would read 0.
        """
        if self.n_samples < 2:
            return math.nan
        worst = 0.0
        for value, _, combined in self.residuals:
            if value == 0.0:
                continue
            if combined == 0.0:
                return float("inf")
            worst = max(worst, abs(value) / combined)
        return worst


def harmonicity_residual(
    measure: StepMeasure,
    fn: CylinderFunction,
    rays: Sequence[Ray],
    test_set: Sequence[ExtElement],
) -> HarmonicityReport:
    """Check the mean-value equation on a set of group elements.

    Each residual is estimated as the sample mean of
    sum_h mu(h) * (F(g . xi) - F(g*h . xi)), which vanishes identically for
    constant F no matter how the weights round, and whose standard error
    reflects the correlation between f(g) and its translates.
    """
    acting = measure.acting
    _check_samples(acting, fn, rays)
    if not test_set:
        raise ConfigError("need at least one test element")
    images, sample_index = _distinct_rays(acting, rays)
    translate_cache: dict[object, np.ndarray] = {}

    def values_at(g: ExtElement) -> np.ndarray:
        key = element_key(acting, g)
        got = translate_cache.get(key)
        if got is None:
            got = _translated_values(images, fn, g, sample_index)
            translate_cache[key] = got
        return got

    residuals = []
    weights = measure.weights
    n = len(rays)
    root_n = math.sqrt(n)

    def se(values: np.ndarray) -> float:
        return float(values.std(ddof=1) / root_n) if n > 1 else float("inf")

    for g in test_set:
        base = values_at(g)
        delta = np.zeros_like(base)
        combined_var = se(base) ** 2
        for atom, weight in zip(measure.atoms, weights):
            translated = values_at(ext_multiply(acting, g, atom))
            delta += weight * (base - translated)
            combined_var += (weight * se(translated)) ** 2
        residuals.append((float(delta.mean()), se(delta), math.sqrt(combined_var)))
    return HarmonicityReport(tuple(test_set), tuple(residuals), len(rays))
