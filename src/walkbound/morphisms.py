"""Free-group automorphisms as generator-image tables.

An automorphism is stored as a letter table: the image of every generator and
of every inverse generator, as a reduced letter tuple. A user-built
automorphism also carries a user-supplied table for its inverse. Inverting a
free-group automorphism algorithmically is out of scope, but verifying a
claimed inverse is cheap: both compositions must fix every generator, and the
constructor checks this exactly.

Composition and powers substitute whole images: the table of f∘g maps each
letter s to f's table applied to g's image of s, which cancels only at the
junctions between f's images and extends the rest. Where g's image of s is
one letter, the new entry is f's own tuple, shared rather than copied. The
inverse of a composition is built only when it is first read
(``inverse_images``, ``apply_inverse``, ``inverse``), by one rule: from the
inverses of its two operands, (f∘g)⁻¹ = g⁻¹∘f⁻¹. The generator images become
``Word``s only when ``images`` is read, since the walk and the boundary
action read neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError, InconclusiveGrowthError
from .words import MAX_RANK, Ray, Word, _conjugator_length, _reduced_word, free_reduce

__all__ = [
    "Automorphism",
    "GrowthReport",
    "identity_automorphism",
    "inner_automorphism",
    "classify_growth",
    "boundary_apply",
    "DEFAULT_FIT_GAP",
]

# Minimum R² separation between the two growth fits before a verdict is
# issued. At 30 iterations a one-letter-per-iterate automorphism separates the
# fits by about 0.10, so the threshold sits below that with room to spare.
DEFAULT_FIT_GAP = 0.08

# The most letters ``classify_growth`` may build for one iterate's table, 256
# MiB of list slots: with the previous table, a run stays under about 0.8 GiB.
# ``fibonacci`` reaches 35 iterations (about 400 MiB peak) and stops at 36.
GROWTH_LETTERS = 1 << 25


def _apply_table(table, letters) -> list[int]:
    """Reduced word of the images of ``letters`` under a letter table.

    Every image is reduced and so is the word built so far, so only the
    junction can cancel: pop the letters it cancels and extend by the rest.
    """
    out: list[int] = []
    pop = out.pop
    extend = out.extend
    for s in letters:
        image = table[s]
        k, n = 0, len(image)
        while k < n and out and out[-1] == -image[k]:
            pop()
            k += 1
        extend(image[k:] if k else image)
    return out


def _substitute(table, images) -> dict:
    """The table s ↦ ``table`` applied to ``images[s]``, for every key of ``images``.

    A one-letter image maps to ``table``'s own entry, shared.
    """
    return {
        s: table[image[0]] if len(image) == 1 else tuple(_apply_table(table, image))
        for s, image in images.items()
    }


class Automorphism:
    """An automorphism of the rank-``d`` free group, with verified inverse.

    ``images[i-1]`` is the image of generator ``i``; ``inverse_images[i-1]``
    the image of generator ``i`` under the declared inverse. ``_table`` maps
    every signed letter to its image. ``_images`` holds ``images``, or None
    until it is first read. ``_inv_table`` is the inverse's table, or None
    while it is deferred; then ``_operands`` is the pair (f, g) with
    self = f∘g, and the table is built from theirs on first use
    (``_inverse_table``).
    """

    __slots__ = ("rank", "_images", "_table", "_inv_table", "_operands")

    def __init__(
        self,
        rank: int,
        images: tuple[Word, ...],
        inverse_images: tuple[Word, ...],
        *,
        _verified: bool = False,
    ):
        images = tuple(images)
        inverse_images = tuple(inverse_images)
        if len(images) != rank or len(inverse_images) != rank:
            raise ValueError(f"need exactly {rank} images and inverse images")
        for w in images + inverse_images:
            if not isinstance(w, Word) or w.rank != rank:
                raise ValueError("image words must all have the declared rank")
        self.rank = rank
        self._images = images
        self._table = _letter_table(images)
        self._inv_table = _letter_table(inverse_images)
        self._operands = None
        if not _verified:
            self._verify_inverse()

    @classmethod
    def _from_tables(cls, rank: int, table: dict, inv_table: dict | None = None, operands=None):
        """An automorphism from a table of reduced images, with no checks.

        Its ``images`` are built from the table when first read. Without
        ``inv_table``, ``operands`` must be the pair (f, g) it was composed
        from.
        """
        phi = object.__new__(cls)
        phi.rank = rank
        phi._images = None
        phi._table = table
        phi._inv_table = inv_table
        phi._operands = operands
        return phi

    def _verify_inverse(self) -> None:
        for i in range(1, self.rank + 1):
            target = (i,)
            fwd = _apply_table(self._table, self._inv_table[i])
            if tuple(fwd) != target:
                raise ValueError(
                    f"inverse table rejected: images∘inverse moves generator {i}"
                )
            bwd = _apply_table(self._inv_table, self._table[i])
            if tuple(bwd) != target:
                raise ValueError(
                    f"inverse table rejected: inverse∘images moves generator {i}"
                )

    def _inverse_table(self) -> dict:
        """The inverse's letter table, built on first use as g⁻¹∘f⁻¹ for self = f∘g.

        One substitution when both operands' inverse tables are built
        (reading a cache's entries in order of insertion meets each chain
        Θ(q)∘θ so); otherwise the operands' tables are built first, down the
        chain.
        """
        if self._inv_table is None:
            # an explicit stack, since a chain Θ(p) = Θ(prefix)∘θ is as deep
            # as p is long; each table built releases its operands
            todo = [self]
            while todo:
                phi = todo[-1]
                if phi._inv_table is not None:
                    todo.pop()
                    continue
                f, g = phi._operands
                waiting = [x for x in (f, g) if x._inv_table is None]
                if waiting:
                    todo.extend(waiting)
                    continue
                # (f∘g)^-1 = g^-1 ∘ f^-1
                phi._inv_table = _substitute(g._inv_table, f._inv_table)
                phi._operands = None
                todo.pop()
        return self._inv_table

    @property
    def images(self) -> tuple[Word, ...]:
        images = self._images
        if images is None:
            table = self._table
            images = self._images = tuple(
                _reduced_word(self.rank, table[i]) for i in range(1, self.rank + 1)
            )
        return images

    @property
    def inverse_images(self) -> tuple[Word, ...]:
        table = self._inverse_table()
        return tuple(_reduced_word(self.rank, table[i]) for i in range(1, self.rank + 1))

    @classmethod
    def parse(
        cls,
        rank: int,
        images: Sequence[str],
        inverse_images: Sequence[str],
    ) -> "Automorphism":
        return cls(
            rank,
            tuple(Word.parse(rank, s) for s in images),
            tuple(Word.parse(rank, s) for s in inverse_images),
        )

    # -- application ---------------------------------------------------------

    def apply(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {w.rank}")
        return _reduced_word(self.rank, tuple(_apply_table(self._table, w.letters)))

    __call__ = apply

    def apply_inverse(self, w: Word) -> Word:
        if w.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {w.rank}")
        return _reduced_word(self.rank, tuple(_apply_table(self._inverse_table(), w.letters)))

    def apply_letters(self, letters: tuple[int, ...]) -> list[int]:
        """Reduced image of a raw letter sequence; internal fast path."""
        return _apply_table(self._table, letters)

    # -- algebra -------------------------------------------------------------

    def inverse(self) -> "Automorphism":
        return Automorphism._from_tables(self.rank, self._inverse_table(), self._table)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """``self ∘ other``: apply ``other`` first.

        The table substitutes ``self``'s images into each of ``other``'s, for
        both signs of every letter, so composing a long automorphism after a
        short one costs about the length of the result. The inverse is
        deferred: it is built from the operands' inverses when first read,
        and until then the result keeps both operands alive.
        """
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        table = _substitute(self._table, other._table)
        return Automorphism._from_tables(self.rank, table, operands=(self, other))

    def power(self, k: int) -> "Automorphism":
        """φ^k, built as φ^(k−1)∘φ (powers of φ commute), inverse included."""
        base = self if k >= 0 else self.inverse()
        forward, backward = base._table, base._inverse_table()
        table = inv_table = _identity_table(self.rank)
        for _ in range(abs(k)):
            table = _substitute(table, forward)
            inv_table = _substitute(inv_table, backward)
        return Automorphism._from_tables(self.rank, table, inv_table)

    def is_identity(self) -> bool:
        return all(w.letters == (i + 1,) for i, w in enumerate(self.images))

    @property
    def max_image_length(self) -> int:
        return max(len(w) for w in self.images + self.inverse_images)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        # automorphisms agree iff they agree on generators
        return self.rank == other.rank and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    def __repr__(self) -> str:
        imgs = ", ".join(f"{i+1}->{w}" for i, w in enumerate(self.images))
        return f"Automorphism({self.rank}: {imgs})"


def _letter_table(images: tuple[Word, ...]) -> dict[int, tuple[int, ...]]:
    table: dict[int, tuple[int, ...]] = {}
    for i, w in enumerate(images, start=1):
        table[i] = w.letters
        table[-i] = tuple(-s for s in reversed(w.letters))
    return table


def _identity_table(rank: int) -> dict[int, tuple[int, ...]]:
    return {s: (s,) for i in range(1, rank + 1) for s in (i, -i)}


def identity_automorphism(rank: int) -> Automorphism:
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in [1, {MAX_RANK}], got {rank}")
    table = _identity_table(rank)
    return Automorphism._from_tables(rank, table, table)


def inner_automorphism(rank: int, g: Word) -> Automorphism:
    """Conjugation x ↦ g·x·g^-1."""
    images = tuple(Word(rank, (i,)).conjugate(g) for i in range(1, rank + 1))
    g_inv = g.inverse()
    inverse_images = tuple(Word(rank, (i,)).conjugate(g_inv) for i in range(1, rank + 1))
    return Automorphism(rank, images, inverse_images, _verified=True)


def _conjugator(phi: Automorphism) -> tuple[int, ...] | None:
    """The reduced letters of g with φ(x) = g·x·g⁻¹ for every x, else None.

    Read from φ's images alone. φ(a) = c·a·c⁻¹ with c its conjugator, and
    the centralizer of a is ⟨a⟩, so g = c·a^k; at rank 2 and up k is the
    one with a^k·b·a⁻ᵏ = c⁻¹·φ(b)·c (F_d is centerless, so g is unique).
    Every generator's image is then checked against g. At rank 1 the only
    inner automorphism is the identity, with g = 1.
    """
    table = phi._table
    image = table[1]
    lo = _conjugator_length(image)
    if image[lo : len(image) - lo] != (1,):
        return None
    g = list(image[:lo])
    if phi.rank > 1:
        c_inv = [-s for s in reversed(g)]
        y = free_reduce(c_inv + list(table[2]) + g)
        k = _conjugator_length(y)
        if k:
            g += [y[0]] * k
    g_inv = [-s for s in reversed(g)]
    for i in range(1, phi.rank + 1):
        if tuple(free_reduce(g + [i] + g_inv)) != table[i]:
            return None
    return tuple(g)


# -- growth classification ----------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Verdict on how generator images grow under iteration.

    ``per_generator_lengths[i][m]`` is the cyclically reduced length of the
    m-th iterate of generator i+1, for m = 0..iterations_used. Cyclically
    reduced lengths are used because growth is a property of the outer class:
    conjugation noise must not change the verdict.
    """

    kind: str  # "Polynomial" | "Exponential"
    degree_estimate: int | None
    rate_estimate: float | None  # nats per iteration
    iterations_used: int
    per_generator_lengths: tuple[tuple[int, ...], ...]
    r2_polynomial: float | None = None
    r2_exponential: float | None = None


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Fit y = a + b·x; return (slope, intercept, r²)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0:
        return 0.0, my, 0.0
    slope = sxy / sxx
    intercept = my - slope * mx
    if syy == 0.0:
        # constant data: a flat line fits perfectly
        return slope, intercept, 1.0
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, 1.0 - ss_res / syy


def classify_growth(
    phi: Automorphism, max_iter: int, fit_gap: float = DEFAULT_FIT_GAP
) -> GrowthReport:
    """Decide between polynomial and exponential growth of iterated images.

    Records cyclically reduced lengths of φ^m(xᵢ) for m = 0..max_iter. The
    table of φ^m is built by substituting the table of φ^(m−1) into φ's own
    images, φ^m(s) = φ^(m−1)(φ(s)), only for the letters that the generators'
    images reach; so each iterate costs about its length, never a pass
    letter by letter over the previous iterate. It then fits log-length
    against log m (polynomial model) and against m (exponential model) by
    least squares over the whole range. The better R² wins; parameter
    estimates (rounded degree, rate in nats) come from the tail half of the
    range where the asymptotic behaviour dominates. If the two R² values are
    within ``fit_gap`` the classifier refuses to guess and raises
    :class:`InconclusiveGrowthError`. An iterate that could hold more than
    ``GROWTH_LETTERS`` new letters (the sum of its images' lengths before
    cancellation) raises :class:`BudgetError` before it is built.
    """
    if max_iter < 8:
        raise ValueError("max_iter must be >= 8")
    rank = phi.rank
    # the letters that the generators' images reach: only these are tabled
    reach = list(range(1, rank + 1))
    for s in reach:
        for t in phi._table[s]:
            if t not in reach:
                reach.append(t)
    images = {s: phi._table[s] for s in reach}
    table = {s: [s] for s in reach}
    lengths: list[list[int]] = [[1] for _ in range(rank)]
    for m in range(1, max_iter + 1):
        sizes = {s: len(letters) for s, letters in table.items()}
        bound = sum(sizes[t] for image in images.values() if len(image) > 1 for t in image)
        if bound > GROWTH_LETTERS:
            raise BudgetError(
                f"iterate {m} of the growth table could hold {bound} letters, past the "
                f"budget of {GROWTH_LETTERS}; lower the iteration count"
            )
        # φ^m(s) = φ^(m-1)(φ(s)); a one-letter image shares its entry
        table = {
            s: table[image[0]] if len(image) == 1 else _apply_table(table, image)
            for s, image in images.items()
        }
        for i, row in enumerate(lengths, start=1):
            row.append(len(table[i]) - 2 * _conjugator_length(table[i]))
    per_gen = tuple(tuple(row) for row in lengths)

    envelope = [max(row[m] for row in lengths) for m in range(max_iter + 1)]
    tail_start = max(1, max_iter // 2)

    # bounded growth: the envelope stops moving entirely
    tail_vals = envelope[tail_start:]
    if max(tail_vals) == min(tail_vals):
        return GrowthReport(
            kind="Polynomial",
            degree_estimate=0,
            rate_estimate=None,
            iterations_used=max_iter,
            per_generator_lengths=per_gen,
        )

    ms = list(range(1, max_iter + 1))
    ys = [math.log(envelope[m]) for m in ms]
    log_ms = [math.log(m) for m in ms]
    _, _, r2_poly = _least_squares(log_ms, ys)
    _, _, r2_exp = _least_squares(ms, ys)

    tail = [(m, y) for m, y in zip(ms, ys) if m >= tail_start]
    poly_slope, _, _ = _least_squares([math.log(m) for m, _ in tail], [y for _, y in tail])
    exp_slope, _, _ = _least_squares([float(m) for m, _ in tail], [y for _, y in tail])

    poly_fit = {"r2": r2_poly, "degree": round(poly_slope), "tail_slope": poly_slope}
    exp_fit = {"r2": r2_exp, "rate": exp_slope}

    if abs(r2_poly - r2_exp) < fit_gap:
        raise InconclusiveGrowthError(
            f"growth fits are inseparable (R² {r2_poly:.4f} vs {r2_exp:.4f}, "
            f"gap < {fit_gap}); increase max_iter",
            polynomial_fit=poly_fit,
            exponential_fit=exp_fit,
        )

    if r2_exp > r2_poly and exp_slope > 0:
        return GrowthReport(
            kind="Exponential",
            degree_estimate=None,
            rate_estimate=exp_slope,
            iterations_used=max_iter,
            per_generator_lengths=per_gen,
            r2_polynomial=r2_poly,
            r2_exponential=r2_exp,
        )
    return GrowthReport(
        kind="Polynomial",
        degree_estimate=max(0, round(poly_slope)),
        rate_estimate=None,
        iterations_used=max_iter,
        per_generator_lengths=per_gen,
        r2_polynomial=r2_poly,
        r2_exponential=r2_exp,
    )


# -- boundary action -----------------------------------------------------------


def _ray_image(phi: Automorphism, r: Ray) -> Ray:
    """φ applied to the boundary point of ``r``, exactly, as another ray.

    With φ(cycle) = c·core·c⁻¹, core cyclically reduced (as
    ``Word.cyclic_reduce`` splits it), φ(head·cycleⁿ) = X·coreⁿ·c⁻¹ for
    X = φ(head)·c, and coreⁿ·c⁻¹ is reduced. So φ(r) = X·core^∞, where the
    tail of X may cancel against core^∞; cancelling k letters rotates the
    core by k. No prefix is cut, so no cancellation can be misread.
    """
    image = phi.apply_letters(r.cycle.letters)
    lo = _conjugator_length(image)
    core = tuple(image[lo : len(image) - lo])
    x = phi.apply_letters(r.head.letters)
    for s in image[:lo]:
        if x and x[-1] == -s:
            x.pop()
        else:
            x.append(s)
    k = 0
    while x and x[-1] == -core[k % len(core)]:
        x.pop()
        k += 1
    k %= len(core)
    return Ray(_reduced_word(phi.rank, tuple(x)), _reduced_word(phi.rank, core[k:] + core[:k]))


def boundary_apply(phi: Automorphism, r: Ray, depth: int) -> Word:
    """First ``depth`` letters of φ applied to the boundary point of ``r``.

    Exact for every φ and every ray: the image is built as a ray
    (``_ray_image``), never by applying φ to a cut prefix. Kept public though
    the estimators call ``_ray_image`` directly: it is that routine's checked
    public form, and bench/tracing.py wraps it by name.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if phi.rank != r.rank:
        raise ValueError(f"rank mismatch: {phi.rank} vs {r.rank}")
    return _ray_image(phi, r).prefix(depth)
