"""Independent reference computations for the test suite.

Everything here is derived from first principles: exact Markov chains over
the rationals, radial birth-death dynamics, spectral radii of integer
matrices, and brute-force enumeration. None of it calls the estimators under
test, so agreement is evidence rather than tautology. The two exceptions are
noted inline: the convolution oracle enumerates support pairs but reuses the
group multiplication, and the sampling helpers reuse the walk sampler, both
of which have their own unit suites.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from walkbound import StepMeasure, element_key, ext_identity, ext_multiply


def radial_drift_exact(rank: int, n_steps: int) -> float:
    """E[|X_n|]/n for the simple random walk, via the radial birth-death chain.

    From length 0 every generator increases length; from length r >= 1 one
    generator of 2*rank cancels and the rest extend.
    """
    up = (2 * rank - 1) / (2 * rank)
    down = 1.0 - up
    probs = np.zeros(n_steps + 1)
    probs[0] = 1.0
    for _ in range(n_steps):
        nxt = np.zeros_like(probs)
        nxt[2:] += probs[1:-1] * up
        nxt[:-1] += probs[1:] * down
        nxt[1] += probs[0]
        probs = nxt
    return float((probs * np.arange(n_steps + 1)).sum()) / n_steps


def reduced_words(rank: int, length: int) -> Iterator[tuple[int, ...]]:
    """All reduced words of exactly the given length, as letter tuples."""
    alphabet = [i for i in range(-rank, rank + 1) if i != 0]
    if length == 0:
        yield ()
        return
    stack: list[tuple[int, ...]] = [(a,) for a in alphabet]
    while stack:
        word = stack.pop()
        if len(word) == length:
            yield word
            continue
        stack.extend(word + (a,) for a in alphabet if a != -word[-1])


def markov_cylinder_mass(rank: int, letters: tuple[int, ...]) -> Fraction:
    """Hitting mass of one cylinder under the nearest-neighbour Markov law.

    First letter uniform over 2*rank, each further letter uniform over the
    2*rank - 1 non-inverse successors.
    """
    if not letters:
        return Fraction(1)
    mass = Fraction(1, 2 * rank)
    return mass * Fraction(1, 2 * rank - 1) ** (len(letters) - 1)


def markov_cylinder_table(rank: int, depth: int) -> dict[tuple[int, ...], Fraction]:
    return {w: markov_cylinder_mass(rank, w) for w in reduced_words(rank, depth)}


def _reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def translated_indicator_value(
    rank: int, g: tuple[int, ...], prefix: tuple[int, ...]
) -> Fraction:
    """Exact value of the harmonic extension of a cylinder indicator.

    Computes P(g . xi starts with the prefix) for xi distributed by the
    Markov hitting law, by enumerating cylinders deep enough that the
    translate's leading letters are fully determined: depth len(prefix) +
    len(g) leaves at least len(prefix) letters after worst-case cancellation.
    """
    depth = len(prefix) + len(g)
    total = Fraction(0)
    for w in reduced_words(rank, depth):
        image = _reduce(g + w)
        if image[: len(prefix)] == prefix:
            total += markov_cylinder_mass(rank, w)
    return total


def tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(k, 0)) - float(q.get(k, 0))) for k in keys)


def fibonacci_rate() -> float:
    """Growth rate of the substitution a -> ab, b -> a in nats per iteration."""
    eigenvalues = np.linalg.eigvals(np.array([[1, 1], [1, 0]], dtype=float))
    return float(np.log(max(abs(eigenvalues))))


def srw_entropy_rate(rank: int) -> float:
    """Asymptotic entropy of the simple random walk on the free group.

    Escape at rate (rank-1)/rank through a boundary whose Markov measure
    branches (2*rank - 1)-fold per letter gives drift times log(2*rank - 1).
    """
    return (rank - 1) / rank * math.log(2 * rank - 1)


def convolution_law(measure: StepMeasure) -> dict[tuple, float]:
    """Exact law of the two-step position, enumerated over support pairs.

    Reuses the group multiplication (tested separately); the enumeration
    itself is the independent route against the Monte Carlo sampler.
    """
    acting = measure.acting
    law: dict[tuple, float] = {}
    for g, wg in zip(measure.atoms, measure.weights):
        for h, wh in zip(measure.atoms, measure.weights):
            key = element_key(acting, ext_multiply(acting, g, h))
            law[key] = law.get(key, 0.0) + wg * wh
    return law


def two_state_parity_split(word_mass: float) -> float:
    """P(first step stays in the even-shift subgroup) for a one-shift walk.

    Word moves keep the acting part, shift moves flip parity; the first step
    lies in the subgroup exactly when it is a word move.
    """
    return word_mass


def identity_law(measure: StepMeasure) -> dict[tuple, float]:
    key = element_key(measure.acting, ext_identity(measure.acting))
    return {key: 1.0}


def eager_image(acting, part, ray, length: int) -> tuple[int, ...] | None:
    """The first ``length`` letters of Theta(part)(ray), by the margin route.

    Applies Theta(part) (``Automorphism.apply_letters`` alone) to ever longer
    prefixes of the ray: the guard zone past ``length`` doubles until a
    doubling changes nothing. That is evidence, not proof, that the cut no
    longer reaches the first ``length`` letters; None when no two successive
    guard zones agree within twelve doublings.
    """
    if length == 0:
        return ()
    if acting.part_is_identity(part):
        return ray.prefix(length).letters
    phi = acting.automorphism_for(part)
    margin = 2 * phi.max_image_length + 2 * length
    last = None
    for _ in range(12):
        image = phi.apply_letters(ray.prefix(length + margin).letters)
        got = tuple(image[:length]) if len(image) >= length else None
        if got is not None and got == last:
            return got
        last = got
        margin *= 2
    return None


# -- nearest-neighbour walks on F_d: Dynkin–Malyutov ------------------------------
#
# ``weights`` maps each signed letter x to μ′(x), with no mass on the identity.
# ``direct-product`` is such a walk in disguise: its twist is conjugation by a,
# so π(w, n) = w·aⁿ maps F_2 ⋊ Z onto F_2, and (w, n)·ξ = π(w, n)·ξ on ∂F_2.
# Its hitting law is therefore ν of μ′ = π_*μ: the atoms (a, 0) and (1, 1)
# both project to a, so a and A get 0.225 + 0.05 each, b and B 0.225 each.
DIRECT_PRODUCT_PROJECTION = {1: 0.275, -1: 0.275, 2: 0.225, -2: 0.225}


def dynkin_malyutov(weights: dict[int, float], max_iter: int = 100_000) -> dict[int, float]:
    """q_x, the probability that the walk ever visits the letter x.

    The minimal solution of q_x = μ′(x) + q_x · Σ_{y≠x} μ′(y)·q_{y⁻¹} (reach x
    in one step, or step to y ≠ x, come back and then reach x), found by
    iterating from q = 0 until no value moves.
    """
    q = {x: 0.0 for x in weights}
    for _ in range(max_iter):
        nxt = {
            x: weights[x] + q[x] * sum(weights[y] * q[-y] for y in weights if y != x)
            for x in weights
        }
        if all(abs(nxt[x] - q[x]) <= 1e-16 for x in q):
            return nxt
        q = nxt
    raise RuntimeError("Dynkin–Malyutov iteration did not settle")


def nn_cylinder_mass(q: dict[int, float], letters: tuple[int, ...]) -> float:
    """ν(C(x₁…x_k)), the hitting mass of a cylinder.

    ν(C(x₁…x_k)) = q_{x₁}⋯q_{x_{k−1}} · q_{x_k}(1 − q_{x_k⁻¹}) / (1 − q_{x_k}q_{x_k⁻¹}).
    From x₁…x_{k−1}, reached with probability q_{x₁}⋯q_{x_{k−1}}, the limit
    lies in C(x₁…x_k) with the probability ν(C(x_k)) that it starts with x_k
    from the identity; that one solves α = q_x·((1 − q_{x⁻¹}) + q_{x⁻¹}·α).
    """
    if not letters:
        return 1.0
    last = letters[-1]
    mass = q[last] * (1 - q[-last]) / (1 - q[last] * q[-last])
    for x in letters[:-1]:
        mass *= q[x]
    return mass


def nn_cylinder_table(q: dict[int, float], rank: int, depth: int) -> dict[tuple[int, ...], float]:
    return {w: nn_cylinder_mass(q, w) for w in reduced_words(rank, depth)}


def nn_drift(weights: dict[int, float], q: dict[int, float]) -> float:
    """ℓ = Σ_x μ′(x)·(1 − 2ν(C(x⁻¹))), for a symmetric μ′.

    A step x shortens the word exactly when its last letter is x⁻¹; for a
    symmetric μ′ the last letter's limit law is ν's first-letter law.
    """
    return math.fsum(w * (1 - 2 * nn_cylinder_mass(q, (-x,))) for x, w in weights.items())


def nn_entropy_rate(weights: dict[int, float], q: dict[int, float]) -> float:
    """h = Σ_x μ′(x)·[ν(C(x⁻¹))·log q_{x⁻¹} − (1 − ν(C(x⁻¹)))·log q_x].

    The Furstenberg entropy Σ_x μ′(x) ∫ log (d xν/dν) d(xν): the Martin
    kernel dxν/dν is 1/q_x on C(x) and q_{x⁻¹} elsewhere, and xν gives C(x)
    the mass 1 − ν(C(x⁻¹)).
    """
    total = []
    for x, w in weights.items():
        back = nn_cylinder_mass(q, (-x,))
        total.append(w * (back * math.log(q[-x]) - (1 - back) * math.log(q[x])))
    return math.fsum(total)
