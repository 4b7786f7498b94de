"""Automorphisms: application, composition, growth, boundary action."""

import time

import pytest
from hypothesis import given, strategies as st

from walkbound import (
    Automorphism,
    BudgetError,
    InconclusiveGrowthError,
    Ray,
    Word,
    boundary_apply,
    cancellation_bound,
    classify_growth,
    fixture_names,
    free_reduce,
    identity_automorphism,
    inner_automorphism,
    load_fixture,
    named_automorphisms,
    morphisms,
)
from walkbound.cli import main
from oracles import fibonacci_rate


def shift_rank3() -> Automorphism:
    # a fixed, b fixed, c picks up one a per application
    return Automorphism.parse(3, ["a", "b", "ca"], ["a", "b", "cA"])


def fibonacci() -> Automorphism:
    return Automorphism.parse(2, ["ab", "a"], ["b", "Ba"])


def linear_rank2() -> Automorphism:
    return Automorphism.parse(2, ["a", "ab"], ["a", "Ab"])


letters_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(bool), max_size=10
)


def test_identity_fixes_everything():
    ident = identity_automorphism(3)
    for text in ["1", "a", "cab", "ACb"]:
        u = Word.parse(3, text)
        assert ident.apply(u) == u
    assert ident.is_identity()


def test_constructor_verifies_inverse():
    with pytest.raises(ValueError):
        Automorphism.parse(2, ["ab", "a"], ["a", "b"])  # not the inverse


def test_compose_and_power():
    alpha = shift_rank3()
    c = Word.parse(3, "c")
    assert alpha.compose(alpha).apply(c) == Word.parse(3, "caa")
    assert alpha.power(2).apply(c) == Word.parse(3, "caa")
    assert alpha.power(0).is_identity()
    assert alpha.compose(alpha.inverse()).is_identity()
    minus = alpha.power(-1)
    assert minus.apply(c) == alpha.inverse().apply(c) == Word.parse(3, "cA")


@given(letters_st, letters_st)
def test_apply_is_homomorphism(xs, ys):
    phi = fibonacci()
    u, v = Word.from_letters(2, xs), Word.from_letters(2, ys)
    assert phi.apply(u * v) == phi.apply(u) * phi.apply(v)


@given(letters_st)
def test_inverse_round_trip(xs):
    phi = fibonacci()
    u = Word.from_letters(2, xs)
    assert phi.apply_inverse(phi.apply(u)) == u


def test_inner_automorphism_conjugates():
    inner = inner_automorphism(2, Word.parse(2, "a"))
    b = Word.parse(2, "b")
    assert inner.apply(b) == Word.parse(2, "abA")
    assert inner.apply(Word.parse(2, "a")) == Word.parse(2, "a")


# -- growth classification --------------------------------------------------------

def test_identity_is_polynomial_degree_zero():
    report = classify_growth(identity_automorphism(2), 30)
    assert report.kind == "Polynomial"
    assert report.degree_estimate == 0


def test_linear_twists_are_polynomial_degree_one():
    for phi in (shift_rank3(), linear_rank2()):
        report = classify_growth(phi, 30)
        assert report.kind == "Polynomial"
        assert report.degree_estimate == 1
        assert report.rate_estimate is None


def test_fibonacci_is_exponential_with_golden_rate():
    report = classify_growth(fibonacci(), 30)
    assert report.kind == "Exponential"
    assert report.rate_estimate == pytest.approx(fibonacci_rate(), abs=0.05)
    assert report.degree_estimate is None


def test_growth_verdict_is_outer_invariant():
    phi = linear_rank2()
    conjugated = inner_automorphism(2, Word.parse(2, "ba")).compose(phi)
    plain = classify_growth(phi, 30)
    twisted = classify_growth(conjugated, 30)
    assert (plain.kind, plain.degree_estimate) == (twisted.kind, twisted.degree_estimate)


def test_huge_fit_gap_refuses_to_classify():
    with pytest.raises(InconclusiveGrowthError):
        classify_growth(fibonacci(), 30, fit_gap=1.0)


def test_growth_stops_at_its_letter_budget(monkeypatch, capsys):
    # fibonacci's iterate m holds F(m+2) + F(m+1) letters: iterate 15 could
    # hold 987 + 610, iterate 16 1597 + 987
    monkeypatch.setattr(morphisms, "GROWTH_LETTERS", 987 + 610)
    assert classify_growth(fibonacci(), 15).kind == "Exponential"
    with pytest.raises(BudgetError, match="iterate 16 of the growth table could hold 2584"):
        classify_growth(fibonacci(), 16)
    assert main(["growth", "--config", "fixture:fibonacci", "--iterations", "27"]) == 4
    assert "past the budget of 1597" in capsys.readouterr().err


def test_classification_speed_budget():
    start = time.monotonic()
    for phi in (shift_rank3(), fibonacci(), identity_automorphism(2)):
        classify_growth(phi, 30)
    assert time.monotonic() - start < 5.0


# -- cancellation bounds ----------------------------------------------------------

def test_cancellation_bound_golden_values():
    # recorded from the exhaustive search itself; the search is its own oracle
    assert cancellation_bound(shift_rank3(), 3).value == 1
    assert cancellation_bound(fibonacci(), 4).value == 1
    assert cancellation_bound(identity_automorphism(2), 4).value == 0


@given(letters_st, letters_st)
def test_cancellation_bound_bounds_observed_cancellation(xs, ys):
    phi = fibonacci()
    u, v = Word.from_letters(2, xs), Word.from_letters(2, ys)
    if u and v and u.letters[-1] != -v.letters[0]:
        observed = len(phi.apply(u)) + len(phi.apply(v)) - len(phi.apply(u * v))
        assert observed <= 2 * cancellation_bound(phi, 4).value


# -- boundary action --------------------------------------------------------------

def test_boundary_apply_examples():
    inner = inner_automorphism(2, Word.parse(2, "a"))
    assert boundary_apply(inner, Ray.parse(2, "1|b"), 3) == Word.parse(2, "abb")

    alpha = shift_rank3()
    assert boundary_apply(alpha, Ray.constant(3, 3), 4) == Word.parse(3, "caca")

    ident = identity_automorphism(2)
    r = Ray.parse(2, "ab|a")
    assert boundary_apply(ident, r, 5) == r.prefix(5)

    # (a, AAAb) maps (aab)^oo to (Ab)^oo; a cut prefix with a guard zone of
    # twice the longest image splits a block and ends in a instead of A
    back = linear_rank2().power(-3)
    got = boundary_apply(back, Ray.parse(2, "1|aab"), 15)
    assert got == Word.parse(2, "AbAbAbAbAbAbAbA")


def test_boundary_apply_prefixes_extend_each_other():
    # the image of (ab)^oo is (aba)^oo, whatever depth is asked for
    phi = fibonacci()
    ray = Ray.parse(2, "1|ab")
    assert boundary_apply(phi, ray, 6) == Word.parse(2, "abaaba")
    for depth in (7, 9, 13, 200):
        assert boundary_apply(phi, ray, depth).prefix(6) == Word.parse(2, "abaaba")


def test_boundary_apply_exact_on_shrinking_ray():
    # the inverse substitution maps each ab to a, halving (ab)^oo into a^oo;
    # a prefix cut with no guard zone would starve depth 4
    shrinking = fibonacci().inverse()
    assert boundary_apply(shrinking, Ray.parse(2, "1|ab"), 4) == Word.parse(2, "aaaa")
    # the image of the head, Bab, ends in a letter that the image of the
    # cycle, (Ba)^oo, cancels: ba . b^oo maps to Ba . (aB)^oo
    got = boundary_apply(shrinking, Ray.parse(2, "ba|b"), 6)
    assert got == Word.parse(2, "BaaBaB")


# -- substitution against letter-by-letter references ----------------------------

def letter_by_letter(phi: Automorphism, letters) -> tuple[int, ...]:
    """φ(letters) from the image Words, reduced one image letter at a time."""
    images = {}
    for i, w in enumerate(phi.images, start=1):
        images[i] = w.letters
        images[-i] = w.inverse().letters
    return tuple(free_reduce(t for s in letters for t in images[s]))


def growth_cases() -> list:
    cases = [
        pytest.param(phi, id=f"{fixture}-{name}")
        for fixture in fixture_names()
        for name, phi in named_automorphisms(load_fixture(fixture)).items()
    ]
    # inner automorphisms put inverse letters into every image
    for label, phi in (("fibonacci", fibonacci()), ("linear", linear_rank2())):
        for g in ("bA", "Ab"):
            inner = inner_automorphism(2, Word.parse(2, g))
            cases.append(pytest.param(inner.compose(phi), id=f"{g}-conjugated-{label}"))
    inner = inner_automorphism(3, Word.parse(3, "Cb"))
    cases.append(pytest.param(inner.compose(shift_rank3()), id="Cb-conjugated-shift"))
    return cases


def test_power_equals_repeated_letter_by_letter_images():
    for phi in (fibonacci(), linear_rank2(), shift_rank3()):
        for k in range(-12, 13):
            base = phi if k >= 0 else phi.inverse()
            power = phi.power(k)
            for i in range(1, phi.rank + 1):
                expected = (i,)
                for _ in range(abs(k)):
                    expected = letter_by_letter(base, expected)
                assert power.images[i - 1].letters == expected
            # the inverse comes with the power, not from a chain of deferrals
            assert power._operands is None
            assert power.inverse_images == phi.power(-k).images
            assert power.compose(phi.power(-k)).is_identity()


@pytest.mark.parametrize("phi", growth_cases())
def test_growth_lengths_equal_letter_by_letter_iterates(phi):
    # a zero fit gap never refuses a verdict; only the lengths are compared
    lengths = classify_growth(phi, 30, fit_gap=0.0).per_generator_lengths
    for i in range(1, phi.rank + 1):
        current = (i,)
        row = [1]
        for _ in range(30):
            current = letter_by_letter(phi, current)
            lo = 0
            while len(current) - 2 * lo >= 2 and current[lo] == -current[-1 - lo]:
                lo += 1
            row.append(len(current) - 2 * lo)
        assert lengths[i - 1] == tuple(row)
