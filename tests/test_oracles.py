"""Frozen expected values for the reference computations in oracles.py.

Each constant below was derived by hand or by an exact method stated next to
it; the tests pin the oracles so any later edit that changes them fails loudly
before it can silently re-anchor the estimator tests.
"""

from fractions import Fraction

import pytest

from walkbound import element_key, ext_identity, fixture_names, load_fixture, build_measure
from oracles import (
    DIRECT_PRODUCT_PROJECTION,
    _reduce,
    convolution_law,
    dynkin_malyutov,
    fibonacci_rate,
    markov_cylinder_mass,
    markov_cylinder_table,
    nn_cylinder_mass,
    nn_cylinder_table,
    nn_drift,
    nn_entropy_rate,
    radial_drift_exact,
    reduced_words,
    srw_entropy_rate,
    translated_indicator_value,
    tv_distance,
)


def test_radial_drift_limit_values():
    # limit is (rank-1)/rank; finite-n values computed by the DP, frozen here
    assert radial_drift_exact(2, 5000) == pytest.approx(0.50015, abs=1e-9)
    assert radial_drift_exact(2, 200) == pytest.approx(0.503749999999, abs=1e-9)
    assert radial_drift_exact(3, 200) == pytest.approx(0.66875, abs=1e-9)


def test_reduced_word_counts():
    # 2d choices for the first letter, 2d-1 for each later one
    for rank, length, expected in [(2, 1, 4), (2, 2, 12), (2, 3, 36), (3, 2, 30)]:
        assert sum(1 for _ in reduced_words(rank, length)) == expected
    assert list(reduced_words(2, 0)) == [()]


def test_markov_cylinder_masses():
    assert markov_cylinder_mass(2, (1,)) == Fraction(1, 4)
    assert markov_cylinder_mass(2, (1, 2)) == Fraction(1, 12)
    table = markov_cylinder_table(2, 2)
    assert len(table) == 12
    assert sum(table.values()) == 1


def test_translated_indicator_frozen_values():
    # harmonic extension of the indicator of cylinder(a) under SRW on F2,
    # by exact pushforward of the Markov law; all values hand-checked via
    # the mean-value equation: f(e) = (f(a)+f(A)+f(b)+f(B))/4
    a, A, b, B = (1,), (-1,), (2,), (-2,)
    assert translated_indicator_value(2, (), a) == Fraction(1, 4)
    assert translated_indicator_value(2, a, a) == Fraction(3, 4)
    for g in (A, b, B):
        assert translated_indicator_value(2, g, a) == Fraction(1, 12)
    for g in ((1, 1), (1, 2), (1, -2)):
        assert translated_indicator_value(2, g, a) == Fraction(11, 12)
    mean = sum(translated_indicator_value(2, g, a) for g in (a, A, b, B)) / 4
    assert mean == translated_indicator_value(2, (), a)


def test_reduce_helper():
    assert _reduce((1, -1)) == ()
    assert _reduce((1, 2, -2, 1)) == (1, 1)
    assert _reduce(()) == ()


def test_growth_rate_constants():
    assert fibonacci_rate() == pytest.approx(0.4812118250596035, abs=1e-12)
    assert srw_entropy_rate(2) == pytest.approx(0.5493061443340548, abs=1e-12)


def test_convolution_law_on_srw(srw_measure):
    law = convolution_law(srw_measure)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    acting = srw_measure.acting
    identity = element_key(acting, ext_identity(acting))
    # four cancelling pairs of sixteen; each reduced two-letter word one pair
    assert law[identity] == pytest.approx(0.25, abs=1e-12)
    assert len(law) == 13
    two_letter = [k for k in law if k != identity]
    assert all(law[k] == pytest.approx(1 / 16, abs=1e-12) for k in two_letter)


def test_convolution_law_every_fixture_normalizes():
    for name in fixture_names():
        law = convolution_law(build_measure(load_fixture(name)))
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for w in law.values())


def test_tv_distance_basics():
    assert tv_distance({"x": 1.0}, {"x": 1.0}) == 0.0
    assert tv_distance({"x": 1.0}, {"y": 1.0}) == 1.0
    assert tv_distance({"x": 0.5, "y": 0.5}, {"x": 1.0}) == pytest.approx(0.5)


@pytest.mark.parametrize("rank", [2, 3])
def test_dynkin_malyutov_reduces_to_the_simple_random_walk(rank):
    uniform = {s: 1 / (2 * rank) for i in range(1, rank + 1) for s in (i, -i)}
    q = dynkin_malyutov(uniform)
    assert all(v == pytest.approx(1 / (2 * rank - 1), abs=1e-12) for v in q.values())
    for depth in (1, 2, 3):
        markov = markov_cylinder_table(rank, depth)
        table = nn_cylinder_table(q, rank, depth)
        assert table.keys() == markov.keys()
        assert all(table[w] == pytest.approx(float(markov[w]), abs=1e-12) for w in table)
    assert nn_drift(uniform, q) == pytest.approx((rank - 1) / rank, abs=1e-12)
    assert nn_entropy_rate(uniform, q) == pytest.approx(srw_entropy_rate(rank), abs=1e-12)


def test_dynkin_malyutov_direct_product_values():
    # the projection of direct-product onto F_2 (see oracles.py)
    weights = DIRECT_PRODUCT_PROJECTION
    q = dynkin_malyutov(weights)
    assert q[1] == q[-1] == pytest.approx(0.3606, abs=5e-5)
    assert q[2] == q[-2] == pytest.approx(0.3071, abs=5e-5)
    # q is a fixed point of its own equation
    for x, w in weights.items():
        rest = sum(weights[y] * q[-y] for y in weights if y != x)
        assert q[x] == pytest.approx(w + q[x] * rest, abs=1e-14)
    assert nn_cylinder_mass(q, (1,)) == pytest.approx(0.2650, abs=5e-5)
    assert nn_cylinder_mass(q, (2,)) == pytest.approx(0.2350, abs=5e-5)
    assert nn_cylinder_mass(q, (1, 2)) == pytest.approx(q[1] * nn_cylinder_mass(q, (2,)))
    for depth in (1, 2, 3):
        assert sum(nn_cylinder_table(q, 2, depth).values()) == pytest.approx(1.0, abs=1e-12)
    assert nn_drift(weights, q) == pytest.approx(0.4970, abs=5e-5)
    assert nn_entropy_rate(weights, q) == pytest.approx(0.5452, abs=5e-5)
