"""Extension-group arithmetic across all three acting kinds."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from walkbound import (
    ActingGroup,
    Automorphism,
    ConfigError,
    ExtElement,
    ModuliSpec,
    StepMeasure,
    Word,
    ball,
    build_acting_group,
    element_key,
    ext_identity,
    ext_inverse,
    ext_multiply,
    free_reduce,
    gauge_length,
    in_sublattice,
    build_measure,
    load_fixture,
    sample_paths,
    standard_generators,
)
from walkbound import morphisms, words
from walkbound.cli import main


def acting_for(name: str):
    return build_acting_group(load_fixture(name))


ACTING_NAMES = ["srw-f2", "semidirect-linear", "lattice-rank2", "free-acting"]


def elements_strategy(acting):
    gens = standard_generators(acting)

    def fold(indices):
        g = ext_identity(acting)
        for i in indices:
            g = ext_multiply(acting, g, gens[i])
        return g

    return st.lists(
        st.integers(min_value=0, max_value=len(gens) - 1), max_size=8
    ).map(fold)


# -- pinned small products ---------------------------------------------------------

def test_semidirect_twist_product():
    acting = acting_for("semidirect-linear")
    a1 = ExtElement(Word.parse(2, "a"), (1,))
    b0 = ExtElement(Word.parse(2, "b"), (0,))
    got = ext_multiply(acting, a1, b0)
    assert got == ExtElement(Word.parse(2, "aab"), (1,))


def test_shift_moves_cancel():
    acting = acting_for("semidirect-linear")
    up = ExtElement(Word.identity(2), (1,))
    down = ExtElement(Word.identity(2), (-1,))
    assert ext_multiply(acting, up, down) == ext_identity(acting)


def test_zero_shift_embeds_free_group():
    acting = acting_for("semidirect-linear")
    w = ExtElement(Word.parse(2, "ab"), (0,))
    v = ExtElement(Word.parse(2, "Ba"), (0,))
    assert ext_multiply(acting, w, v) == ExtElement(Word.parse(2, "aa"), (0,))


def test_inverse_examples():
    acting = acting_for("semidirect-linear")
    b1 = ExtElement(Word.parse(2, "b"), (1,))
    assert ext_inverse(acting, b1) == ExtElement(Word.parse(2, "Ba"), (-1,))
    w0 = ExtElement(Word.parse(2, "ab"), (0,))
    assert ext_inverse(acting, w0) == ExtElement(Word.parse(2, "BA"), (0,))
    assert ext_inverse(acting, ext_identity(acting)) == ext_identity(acting)


def test_gauge_length_examples():
    z_acting = acting_for("semidirect-linear")
    assert gauge_length(ExtElement(Word.parse(2, "ab"), (2,))) == 4
    assert gauge_length(ext_identity(z_acting)) == 0
    z2 = acting_for("lattice-rank2")
    assert gauge_length(ExtElement(Word.identity(4), (1, -2))) == 3
    free = acting_for("free-acting")
    assert gauge_length(ExtElement(Word.identity(2), Word.parse(2, "ab"))) == 2


def test_sublattice_membership():
    z_acting = acting_for("semidirect-linear")
    even = ModuliSpec((2,))
    assert in_sublattice(z_acting, ExtElement(Word.parse(2, "a"), (2,)), even)
    assert not in_sublattice(z_acting, ExtElement(Word.parse(2, "a"), (1,)), even)
    assert in_sublattice(z_acting, ext_identity(z_acting), even)
    z2 = acting_for("lattice-rank2")
    spec = ModuliSpec((2, 3))
    assert in_sublattice(z2, ExtElement(Word.identity(4), (2, 3)), spec)
    assert not in_sublattice(z2, ExtElement(Word.identity(4), (1, 3)), spec)


def test_moduli_spec_validation():
    with pytest.raises(ConfigError):
        ModuliSpec((0,))
    z_acting = acting_for("semidirect-linear")
    with pytest.raises(ConfigError):
        in_sublattice(z_acting, ext_identity(z_acting), ModuliSpec((2, 2)))


# -- algebraic laws, all acting kinds ----------------------------------------------

@pytest.mark.parametrize("name", ACTING_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multiplication_associative(name, data):
    acting = acting_for(name)
    elems = elements_strategy(acting)
    g, h, k = data.draw(elems), data.draw(elems), data.draw(elems)
    left = ext_multiply(acting, ext_multiply(acting, g, h), k)
    right = ext_multiply(acting, g, ext_multiply(acting, h, k))
    assert left == right


@pytest.mark.parametrize("name", ACTING_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_law(name, data):
    acting = acting_for(name)
    g = data.draw(elements_strategy(acting))
    assert ext_multiply(acting, g, ext_inverse(acting, g)) == ext_identity(acting)
    assert ext_multiply(acting, ext_inverse(acting, g), g) == ext_identity(acting)


@pytest.mark.parametrize("name", ["semidirect-linear", "lattice-rank2", "free-acting"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_acting_projection_is_homomorphism(name, data):
    acting = acting_for(name)
    elems = elements_strategy(acting)
    g, h = data.draw(elems), data.draw(elems)
    product = ext_multiply(acting, g, h)
    assert product.p == acting.part_multiply(g.p, h.p)


@pytest.mark.parametrize("name", ACTING_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_element_key_separates(name, data):
    acting = acting_for(name)
    elems = elements_strategy(acting)
    g, h = data.draw(elems), data.draw(elems)
    assert (element_key(acting, g) == element_key(acting, h)) == (g == h)


# -- generator enumeration ---------------------------------------------------------

def test_standard_generator_counts():
    assert len(standard_generators(acting_for("srw-f2"))) == 4
    assert len(standard_generators(acting_for("semidirect-linear"))) == 6
    assert len(standard_generators(acting_for("lattice-rank2"))) == 12
    assert len(standard_generators(acting_for("free-acting"))) == 10


def test_ball_radius_one_is_generators_plus_identity():
    for name in ACTING_NAMES:
        acting = acting_for(name)
        b1 = ball(acting, 1)
        assert len(b1) == len(standard_generators(acting)) + 1
        assert ext_identity(acting) in b1


def test_ball_radius_two_srw():
    acting = acting_for("srw-f2")
    # 1 + 4 + 4*3 reduced two-letter words
    assert len(ball(acting, 2)) == 17


def test_part_text_round_trip():
    for name, text in [
        ("semidirect-linear", "3"),
        ("lattice-rank2", "1,-2"),
        ("free-acting", "ab"),
    ]:
        acting = acting_for(name)
        assert acting.format_part(acting.parse_part(text)) == text


# -- accumulated automorphisms -----------------------------------------------------

def test_automorphism_for_rechecks_no_letters(monkeypatch):
    acting = acting_for("fibonacci")
    calls = []
    check = words._check_letters

    def counting_check(rank, letters):
        calls.append(len(letters))
        check(rank, letters)

    monkeypatch.setattr(words, "_check_letters", counting_check)
    phi = acting.automorphism_for((20,))
    assert len(phi.images[0]) > 10000
    assert calls == []


def folded_twist(acting, part) -> list[Word]:
    """Θ(p) on the generators, applying the θ_j of p one at a time, last first."""
    if acting.kind == "lattice":
        letters = [(j + 1) * (1 if a > 0 else -1) for j, a in enumerate(part) for _ in range(abs(a))]
    else:
        letters = list(part.letters)
    images = [Word(acting.base_rank, (i,)) for i in range(1, acting.base_rank + 1)]
    for s in reversed(letters):
        theta = acting.theta[abs(s) - 1]
        images = [theta.apply(w) if s > 0 else theta.apply_inverse(w) for w in images]
    return images


@pytest.mark.parametrize(
    "name, texts",
    [
        ("fibonacci", ["12", "-7", "1", "15", "-12"]),
        ("semidirect-linear", ["5", "-4"]),
        ("lattice-rank2", ["3,-2", "-1,4"]),
        ("free-acting", ["abAB", "BBa", "aab", "abABaabbABBAbaBAbbab"]),
    ],
)
def test_composed_automorphisms_equal_checked_ones(name, texts):
    acting = acting_for(name)
    for text in texts:
        part = acting.parse_part(text)
        phi = acting.automorphism_for(part)
        # parsing checks every letter and the constructor verifies the inverse
        checked = Automorphism.parse(
            acting.base_rank,
            [str(w) for w in phi.images],
            [str(w) for w in phi.inverse_images],
        )
        assert checked == phi
        assert checked.inverse_images == phi.inverse_images
        assert list(phi.images) == folded_twist(acting, part)


def random_parts(acting, draw) -> list:
    """A few acting parts of length at most 12, drawn for ``acting``'s kind."""
    if acting.kind == "free":
        letters = st.sampled_from([s for j in range(1, acting.k + 1) for s in (j, -j)])
        words = st.lists(letters, max_size=12).map(lambda w: Word(acting.k, tuple(free_reduce(w))))
        return draw(st.lists(words, min_size=1, max_size=6))
    # a signed unit per step keeps the ℓ¹ norm at most 12
    unit = st.tuples(st.integers(0, acting.k - 1), st.sampled_from([1, -1]))

    def vector(steps):
        v = [0] * acting.k
        for j, sign in steps:
            v[j] += sign
        return tuple(v)

    parts = st.lists(unit, max_size=12).map(vector)
    return draw(st.lists(parts, min_size=1, max_size=6))


@pytest.mark.parametrize(
    "name",
    ["fibonacci", "semidirect-linear", "semidirect-mixed", "direct-product",
     "lattice-rank2", "free-acting"],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_served_inverse_is_the_twist_of_the_inverse_part(name, data):
    # Θ(p)⁻¹ = Θ(p⁻¹) whatever order the cached Θ(p) are built and their
    # inverses read in, and reading an inverse never grows the cache
    acting = acting_for(name)
    parts = random_parts(acting, data.draw)
    twists = [acting.automorphism_for(part) for part in parts]
    order = data.draw(st.permutations(range(len(parts))))
    reference = acting_for(name)
    for i in order:
        cached = len(acting._cache)
        expected = reference.automorphism_for(acting.part_inverse(parts[i])).images
        assert twists[i].inverse_images == expected
        assert len(acting._cache) == cached


@pytest.mark.parametrize("name, text", [("fibonacci", "12"), ("free-acting", "abABaabbABBA")])
def test_cached_inverses_read_in_order_take_one_step_each(monkeypatch, name, text):
    # Θ(p) = Θ(q)∘θ with q the parent of p's id, and the cache holds each
    # parent before its children, so reading the cache's inverses in order
    # substitutes once per composed entry and composes nothing
    acting = acting_for(name)
    acting.automorphism_for(acting.parse_part(text))
    # a walk reaches more parts, some of them again after cancelling
    fixture = build_measure(load_fixture(name))
    measure = StepMeasure(acting, fixture.atoms, fixture.weights, check_generation=False)
    sample_paths(measure, 3, 20, 40)
    position = {id(phi): n for n, phi in enumerate(acting._cache.values())}
    composed = 0
    for pid, phi in acting._cache.items():
        if phi._operands is None:
            continue
        composed += 1
        parent = phi._operands[0]
        assert position[id(parent)] < position[id(phi)]
        if acting.kind == "free":
            assert parent is acting._cache[acting._parent[pid]]
    assert composed > len(text)
    composes, substituted = [], []
    compose = Automorphism.compose
    substitute = morphisms._substitute

    def spy_compose(phi, other):
        composes.append(phi)
        return compose(phi, other)

    def spy_substitute(table, images):
        substituted.append(images)
        return substitute(table, images)

    monkeypatch.setattr(Automorphism, "compose", spy_compose)
    monkeypatch.setattr(morphisms, "_substitute", spy_substitute)
    inverses = {pid: phi.inverse_images for pid, phi in acting._cache.items()}
    assert composes == []
    assert len(substituted) == composed
    monkeypatch.undo()
    reference = acting_for(name)
    for pid, images in inverses.items():
        part = acting.part_at(pid)
        assert reference.automorphism_for(acting.part_inverse(part)).images == images


def test_pickled_acting_group_starts_an_empty_tree():
    # the tree and the cache stay behind; the far side rebuilds equal twists
    acting = acting_for("free-acting")
    parts = [acting.parse_part(text) for text in ("abABaabbABBA", "abAb", "BBa")]
    twists = [acting.automorphism_for(part) for part in parts]
    assert len(acting._parent) > 1 and acting._children and acting._cache
    clone = pickle.loads(pickle.dumps(acting))
    assert clone == acting
    assert (clone._cache, clone._children, clone._parent, clone._last) == ({}, {}, [0], [0])
    for part, phi in zip(parts, twists):
        assert clone.automorphism_for(part) == phi
        assert clone.automorphism_for(part)._table == phi._table
        assert clone.part_at(clone.part_id(part)) == part


def test_free_part_ids_step_through_one_tree():
    # equal parts share an id whatever route reaches them, and a letter that
    # cancels the last one steps back to the parent
    acting = acting_for("free-acting")
    parse = acting.parse_part
    ab = acting.part_id(parse("ab"))
    assert acting.part_id(parse("1")) == 0
    assert acting.step_id(acting.part_id(parse("a")), parse("b")) == ab
    assert acting.step_id(acting.part_id(parse("aB")), parse("bb")) == ab
    assert acting.step_id(acting.part_id(parse("abA")), parse("a")) == ab
    assert acting.step_id(ab, parse("BA")) == 0
    assert acting.step_id(ab, parse("B")) == acting.part_id(parse("a"))
    assert acting._parent[ab] == acting.part_id(parse("a")) and acting._last[ab] == 2
    for text in ("1", "a", "b", "ab", "aB", "Ba", "abABaabbABBA"):
        pid = acting.part_id(parse(text))
        assert acting.part_at(pid) == parse(text)
        assert acting.automorphism_at(pid) is acting.automorphism_for(parse(text))
        assert acting.automorphism_at(pid)._table == acting_for("free-acting").automorphism_for(
            parse(text)
        )._table
    # ids are never remade: one per distinct prefix met
    assert len(acting._parent) == len(acting._children) + 1


@pytest.mark.parametrize("name, text", [("fibonacci", "9"), ("free-acting", "abABaabbABBA")])
def test_inverse_without_its_acting_group_comes_from_the_operands(name, text):
    acting = acting_for(name)
    part = acting.parse_part(text)
    expected = acting_for(name).automorphism_for(acting.part_inverse(part)).images
    phi = acting.automorphism_for(part)
    prefix = phi._operands[0]
    del acting
    assert phi.inverse_images == expected
    assert prefix._inv_table is not None


TWIST_PARTS = {
    "fibonacci": ["6", "-5"],
    "semidirect-linear": ["3", "-2"],
    "semidirect-mixed": ["2", "-3"],
    "lattice-rank2": ["2,-1", "-1,3"],
    "direct-product": ["2", "-2"],
    "free-acting": ["abA", "BBa"],
}


def substitution_cases() -> list:
    """Each twisted fixture's θ_j and some composed Θ(p), with their inverses."""
    cases = []
    for name, texts in TWIST_PARTS.items():
        acting = acting_for(name)
        phis = list(acting.theta)
        phis += [acting.automorphism_for(acting.parse_part(text)) for text in texts]
        cases += [f for phi in phis for f in (phi, phi.inverse())]
    return cases


SUBSTITUTION_CASES = substitution_cases()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_table_equals_reduced_concatenated_images(data):
    phi = data.draw(st.sampled_from(SUBSTITUTION_CASES))
    letters = data.draw(
        st.lists(st.integers(min_value=-phi.rank, max_value=phi.rank).filter(bool), max_size=12)
    )
    concatenated = [t for s in letters for t in phi._table[s]]
    assert morphisms._apply_table(phi._table, letters) == free_reduce(concatenated)


def test_walks_build_no_inverse_of_an_accumulated_automorphism(monkeypatch, capsys):
    built, composed = [], []
    inverse_table = Automorphism._inverse_table
    compose = Automorphism.compose

    def spy_inverse_table(phi):
        if phi._inv_table is None:
            built.append(phi)
        return inverse_table(phi)

    def spy_compose(phi, other):
        composed.append(phi)
        return compose(phi, other)

    monkeypatch.setattr(Automorphism, "_inverse_table", spy_inverse_table)
    monkeypatch.setattr(Automorphism, "compose", spy_compose)
    for name in ("free-acting", "fibonacci"):
        composed.clear()
        argv = ["walk", "--config", f"fixture:{name}", "--seed", "3",
                "--n-paths", "20", "--n-steps", "60"]
        assert main(argv) == 0
        assert composed, name
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--config", "fixture:free-acting", "--n-paths", "20", "--n-steps", "300"],
        ["hitting", "--config", "fixture:free-acting", "--n-paths", "40", "--n-steps", "200"],
        ["hitting", "--config", "fixture:fibonacci", "--depth", "2", "--n-paths", "40",
         "--n-steps", "40"],
    ],
    ids=["walk-free-acting", "hitting-free-acting", "hitting-fibonacci"],
)
def test_a_command_builds_each_twist_once(argv, monkeypatch, capsys):
    # Every composed automorphism must be the one the acting group caches
    # for some part, and every table substitution one such composition: a
    # Θ(p) built twice (or kept apart from the cache) breaks one or the other.
    caches, composed, substituted = [], [], []
    start_caches = ActingGroup._start_caches
    from_tables = Automorphism._from_tables.__func__
    substitute = morphisms._substitute

    def spy_start_caches(acting):
        start_caches(acting)
        caches.append(acting._cache)

    def spy_from_tables(cls, rank, table, inv_table=None, operands=None):
        phi = from_tables(cls, rank, table, inv_table, operands)
        if operands is not None:
            composed.append(phi)
        return phi

    def spy_substitute(table, images):
        substituted.append(images)
        return substitute(table, images)

    monkeypatch.setattr(ActingGroup, "_start_caches", spy_start_caches)
    monkeypatch.setattr(Automorphism, "_from_tables", classmethod(spy_from_tables))
    monkeypatch.setattr(morphisms, "_substitute", spy_substitute)
    assert main([*argv, "--seed", "5"]) == 0
    cached = {id(phi) for cache in caches for phi in cache.values()}
    assert composed
    assert all(id(phi) in cached for phi in composed)
    assert len(substituted) == len(composed)
