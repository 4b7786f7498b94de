"""Reduced words, rays, and their arithmetic."""

import pytest
from hypothesis import given, strategies as st

from walkbound import Ray, Word, common_prefix_length, free_reduce
from walkbound.words import _reduced_word


def w(text: str, rank: int = 2) -> Word:
    return Word.parse(rank, text)


# -- strategies -------------------------------------------------------------------

letters_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(bool), min_size=0, max_size=12
)


@st.composite
def words(draw, rank: int = 2, max_len: int = 10):
    return Word.from_letters(rank, draw(letters_st))


# -- construction and parsing -----------------------------------------------------

def test_parse_str_round_trip():
    for text in ["1", "a", "ab", "aBa", "bbbA"]:
        assert str(w(text)) == text


def test_parse_rejects_unreduced_and_junk():
    with pytest.raises(ValueError):
        w("aA")
    with pytest.raises(ValueError):
        w("c")  # outside rank 2
    with pytest.raises(ValueError):
        w("a b")
    with pytest.raises(ValueError):
        Word(2, (1, -1))


@pytest.mark.parametrize("letters", [(1, -1), (2, 1, -1), (3,), (0,), (-3, 1), (1.0,)])
def test_word_constructor_still_checks_letters(letters):
    with pytest.raises(ValueError):
        Word(2, letters)


@given(words())
def test_unchecked_kernel_word_equals_checked(u):
    fast = _reduced_word(u.rank, u.letters)
    assert fast == u and hash(fast) == hash(u) and str(fast) == str(u)


def test_rank_bounds():
    with pytest.raises(ValueError):
        Word.identity(0)
    with pytest.raises(ValueError):
        Word.identity(27)
    assert str(Word.generator(26, 26)) == "z"


def test_from_letters_reduces():
    assert Word.from_letters(2, [1, 2, -2, -1]) == Word.identity(2)
    assert Word.from_letters(2, [1, 2, -2, 1]).letters == (1, 1)


@given(words())
def test_str_parse_inverts(u):
    assert Word.parse(2, str(u)) == u


# -- multiplication ---------------------------------------------------------------

def test_mul_junction_cases():
    assert w("ab") * w("Ba") == w("aa")
    assert w("a") * w("a") == w("aa")
    assert w("ab") * w("ab").inverse() == Word.identity(2)


@given(words(), words(), words())
def test_mul_associative(u, v, x):
    assert (u * v) * x == u * (v * x)


@given(words())
def test_inverse_cancels(u):
    assert u * u.inverse() == Word.identity(2)
    assert u.inverse().inverse() == u


def test_inverse_examples():
    assert w("ab").inverse() == w("BA")
    assert Word.identity(2).inverse() == Word.identity(2)
    assert w("A").inverse() == w("a")


# -- cyclic reduction -------------------------------------------------------------

def test_cyclic_reduce_examples():
    core, conj = w("baB").cyclic_reduce()
    assert (core, conj) == (w("a"), w("b"))
    core, conj = w("ab").cyclic_reduce()
    assert (core, conj) == (w("ab"), Word.identity(2))
    core, conj = w("baaB").cyclic_reduce()
    assert (core, conj) == (w("aa"), w("b"))


@given(words())
def test_cyclic_reduce_reassembles(u):
    core, conj = u.cyclic_reduce()
    assert core.is_cyclically_reduced()
    assert core.conjugate(conj) == u


# -- prefixes ---------------------------------------------------------------------

def test_common_prefix_length_examples():
    assert common_prefix_length(w("aba"), w("abb")) == 2
    assert common_prefix_length(w("ab"), w("ab")) == 2
    assert common_prefix_length(w("a"), w("b")) == 0


@given(words())
def test_common_prefix_of_self_is_length(u):
    assert common_prefix_length(u, u) == len(u)


def test_prefix_and_starts_with():
    assert w("aba").prefix(2) == w("ab")
    assert w("aba").prefix(0) == Word.identity(2)
    assert w("aba").starts_with(w("ab"))
    assert not w("aba").starts_with(w("bb"))
    with pytest.raises(ValueError):
        w("a").prefix(-1)


# -- free reduction ---------------------------------------------------------------

def naive_reduce(seq):
    items = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(items) - 1):
            if items[i] == -items[i + 1]:
                del items[i : i + 2]
                changed = True
                break
    return items


@given(st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=14))
def test_free_reduce_matches_naive_scan(seq):
    assert free_reduce(seq) == naive_reduce(seq)


# -- rays -------------------------------------------------------------------------

def test_ray_prefix_examples():
    assert Ray.parse(2, "1|ab").prefix(3) == w("aba")
    assert Ray.parse(2, "1|ab").prefix(0) == Word.identity(2)
    assert Ray.parse(2, "a|b").prefix(4) == w("abbb")


def test_ray_letter_is_eventually_periodic():
    r = Ray.parse(2, "ab|ba")
    head, cycle = r.head.letters, r.cycle.letters
    for i in range(12):
        expected = head[i] if i < len(head) else cycle[(i - len(head)) % len(cycle)]
        assert r.letter(i) == expected


def test_ray_validation():
    with pytest.raises(ValueError):
        Ray(w("a"), Word.identity(2))  # empty cycle
    with pytest.raises(ValueError):
        Ray(w("a"), w("Ab"))  # junction cancels
    with pytest.raises(ValueError):
        Ray(w("a"), w("aBA"))  # cycle not cyclically reduced
    with pytest.raises(ValueError):
        Ray.parse(2, "ab")  # missing separator


def test_ray_round_trip_and_constant():
    for text in ["1|b", "a|b", "ab|ba"]:
        assert str(Ray.parse(2, text)) == text
    assert Ray.constant(2, -1).prefix(3) == w("AAA")


def test_words_and_rays_hashable():
    assert len({w("a"), w("a"), w("b")}) == 2
    assert len({Ray.parse(2, "1|a"), Ray.parse(2, "1|a")}) == 1
