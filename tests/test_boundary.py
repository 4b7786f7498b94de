"""Boundary action, hitting measures, convergence traces, first returns."""

import functools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from walkbound import (
    ActingGroup,
    BudgetError,
    ConfigError,
    ConvergenceError,
    CylinderDistribution,
    ExtElement,
    ModuliSpec,
    PermKernelSpec,
    Ray,
    StepMeasure,
    Word,
    act_on_ray,
    boundary_apply,
    build_acting_group,
    build_measure,
    empirical_hitting_measure,
    extend_to_ray,
    first_return_sampler,
    fixture_names,
    gauge_length,
    in_sublattice,
    load_fixture,
    sample_boundary_rays,
    sample_paths,
    stationarity_residual,
    sublattice_spec,
    track_convergence,
)
from walkbound import boundary, walk
from walkbound._rng import STREAM_WALK
from walkbound.boundary import _RayImages, _translate_prefix, default_probes
from oracles import (
    DIRECT_PRODUCT_PROJECTION,
    dynkin_malyutov,
    eager_image,
    markov_cylinder_table,
    nn_cylinder_table,
    tv_distance,
)


def trivial_point_mass(word_text: str, rank: int = 2) -> StepMeasure:
    acting = ActingGroup.trivial(rank)
    atom = ExtElement(Word.parse(rank, word_text), acting.identity_part())
    return StepMeasure(acting, [atom], [1.0], check_generation=False)


# -- boundary action ---------------------------------------------------------------

def test_act_on_ray_examples(srw_measure, semidirect_measure):
    acting = srw_measure.acting
    a0 = ExtElement(Word.parse(2, "a"), acting.identity_part())
    assert act_on_ray(acting, a0, Ray.parse(2, "1|b"), 3) == Word.parse(2, "abb")
    ident = ExtElement(Word.identity(2), acting.identity_part())
    ray = Ray.parse(2, "ab|a")
    assert act_on_ray(acting, ident, ray, 4) == ray.prefix(4)

    z_acting = semidirect_measure.acting
    shift = ExtElement(Word.identity(2), (1,))
    assert act_on_ray(z_acting, shift, Ray.parse(2, "1|b"), 4) == Word.parse(2, "abab")
    # Theta(t^-3) = (a, AAAb) maps (aab)^oo to (Ab)^oo; a cut prefix with a
    # fixed guard zone splits a block and reads the fifteenth letter as a
    back = ExtElement(Word.identity(2), (-3,))
    got = act_on_ray(z_acting, back, Ray.parse(2, "1|aab"), 15)
    assert got == Word.parse(2, "AbAbAbAbAbAbAbA")
    # Theta(t^-1) = (a, Ab) halves (ab)^oo into b^oo, past any guard zone
    # that does not scale with the prefix read
    halve = ExtElement(Word.identity(2), (-1,))
    assert act_on_ray(z_acting, halve, Ray.parse(2, "1|ab"), 3) == Word.parse(2, "bbb")
    # Theta(t^20) on fibonacci: images of about 10^4 letters per generator,
    # which a cut prefix with a guard zone would multiply by its length
    fib = fixture_acting("fibonacci")
    far = ExtElement(Word.identity(2), (20,))
    assert act_on_ray(fib, far, Ray.constant(2, 1), 5) == Word.parse(2, "abaab")


def test_extend_to_ray_stays_in_cylinder():
    prefix = Word.parse(2, "abb")
    ray = extend_to_ray(prefix)
    assert ray.prefix(3) == prefix
    assert ray.prefix(6) == Word.parse(2, "abbbbb")
    assert extend_to_ray(Word.identity(2)).prefix(2) == Word.parse(2, "aa")


TWISTED = tuple(name for name in fixture_names() if name != "srw-f2")
# exponential twists grow images like phi^|p|
PART_RADIUS = {"fibonacci": 6}


@functools.lru_cache(maxsize=None)
def fixture_acting(name):
    return build_measure(load_fixture(name)).acting


def draw_part(data, acting, radius):
    if acting.kind == "lattice":
        return tuple(data.draw(st.integers(-radius, radius)) for _ in range(acting.k))
    letters = data.draw(st.lists(st.sampled_from([1, -1, 2, -2][: 2 * acting.k]), max_size=radius))
    return Word.from_letters(acting.k, letters)


def draw_word(data, rank, max_size=12):
    letters = st.integers(-rank, rank).filter(bool)
    return Word.from_letters(rank, data.draw(st.lists(letters, max_size=max_size)))


def draw_ray(data, rank):
    head = draw_word(data, rank, 6)
    cycle = draw_word(data, rank, 3)
    assume(cycle and cycle.is_cyclically_reduced())
    assume(not head or head.letters[-1] != -cycle.letters[0])
    return Ray(head, cycle)


def shrunk_ray(acting, part, ray):
    """A ray whose cycle Theta(part) maps onto a conjugate of ``ray``'s cycle.

    Theta(part) shrinks it by the stretch factor of its inverse, which is
    where a cut through the ray is most likely to be cancelled across.
    """
    inverse = tuple(-a for a in part) if acting.kind == "lattice" else part.inverse()
    core, _ = acting.automorphism_for(inverse).apply(ray.cycle).cyclic_reduce()
    return Ray(Word.identity(ray.rank), core)


@pytest.mark.parametrize("name", TWISTED)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_translate_prefix_equals_eager_reference(name, data):
    acting = fixture_acting(name)
    rank = acting.base_rank
    part = draw_part(data, acting, PART_RADIUS.get(name, 12))
    drawn = draw_ray(data, rank)
    rays = (*default_probes(rank), drawn, shrunk_ray(acting, part, drawn))
    ray_idx = data.draw(st.integers(0, len(rays) - 1), label="ray")
    depth = data.draw(st.integers(1, 8), label="depth")
    # a word that cancels `cancel` letters of the image, often past the
    # prefix a first fetch keeps, behind a random head
    cancel = data.draw(st.integers(0, 200), label="cancel")
    image = eager_image(acting, part, rays[ray_idx], cancel)
    assume(image is not None)
    long_word = Word.from_letters(
        rank, draw_word(data, rank).letters + tuple(-s for s in reversed(image))
    )
    images = _RayImages(acting, rays)
    for w in (draw_word(data, rank), long_word, draw_word(data, rank, 80)):
        ref = eager_image(acting, part, rays[ray_idx], depth + len(w))
        if ref is None:
            continue
        entry = images.of(part)
        got = _translate_prefix(w.letters, images, entry, ray_idx, depth)
        assert got == (w * Word(rank, ref)).letters[:depth]


@pytest.mark.parametrize("part, text", [((-3,), "A|BAA"), ((3,), "Ba|aaB")])
def test_translate_prefix_never_misreads_a_shrunken_image(part, text):
    # Theta(t^-3) = (a, AAAb) shrinks (BAA)^oo to (Ba)^oo, and Theta(t^3)
    # shrinks (aaB)^oo: a cut through such a ray can fall inside a block
    # that the rest of the ray cancels, and the image letters next to the
    # cut come out wrong. Words that cancel up to 143 image letters read up
    # to the last letters of served prefixes: every answer must be right
    acting = fixture_acting("semidirect-linear")
    ray = Ray.parse(2, text)
    image = eager_image(acting, part, ray, 160)
    for cancel in range(144):
        w = tuple(-s for s in reversed(image[:cancel]))
        for depth in (1, 3, 8):
            images = _RayImages(acting, (ray,))
            got = _translate_prefix(w, images, images.of(part), 0, depth)
            assert got == image[cancel : cancel + depth]


@pytest.mark.parametrize("name", TWISTED)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_action_equals_eager_reference(name, data):
    # the exact image against the margin route, wherever the latter answers:
    # boundary_apply, and act_on_ray at (1, p) and at (w, p)
    acting = fixture_acting(name)
    rank = acting.base_rank
    part = draw_part(data, acting, PART_RADIUS.get(name, 12))
    drawn = draw_ray(data, rank)
    ray = data.draw(st.sampled_from([drawn, shrunk_ray(acting, part, drawn)]), label="ray")
    depth = data.draw(st.integers(1, 40), label="depth")
    w = draw_word(data, rank, 40)
    ref = eager_image(acting, part, ray, depth + len(w))
    assume(ref is not None)
    assert boundary_apply(acting.automorphism_for(part), ray, depth).letters == ref[:depth]
    twist = ExtElement(Word.identity(rank), part)
    assert act_on_ray(acting, twist, ray, depth).letters == ref[:depth]
    translate = act_on_ray(acting, ExtElement(w, part), ray, depth)
    assert translate.letters == (w * Word(rank, ref)).letters[:depth]


# -- cylinder distributions --------------------------------------------------------

def test_distribution_from_counts_and_frequency():
    counts = {(1,): 3, (2,): 1}
    dist = CylinderDistribution.from_counts(2, 1, counts)
    assert dist.frequency(Word.parse(2, "a")) == pytest.approx(0.75)
    assert dist.frequency(Word.parse(2, "B")) == 0.0
    assert dist.max_frequency() == pytest.approx(0.75)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from([w for w in markov_cylinder_table(2, 2)]),
        st.integers(min_value=1, max_value=50),
        min_size=1,
    )
)
def test_marginalize_aggregates_children(counts):
    dist = CylinderDistribution.from_counts(2, 2, counts)
    coarse = dist.marginalize(1)
    for letters, freq in coarse.table.items():
        children = sum(f for k, f in dist.table.items() if k[:1] == letters)
        assert freq == pytest.approx(children)


def test_tv_distance_properties():
    table = markov_cylinder_table(2, 1)
    uniform = CylinderDistribution(2, 1, {k: float(v) for k, v in table.items()}, 1)
    assert uniform.tv_distance(uniform) == 0.0
    point = CylinderDistribution(2, 1, {(1,): 1.0}, 1)
    assert uniform.tv_distance(point) == pytest.approx(0.75)
    with pytest.raises(ConfigError):
        uniform.tv_distance(CylinderDistribution(2, 2, {(1, 2): 1.0}, 1))


# -- empirical hitting measures ------------------------------------------------------

def test_srw_depth_one_is_nearly_uniform(srw_measure):
    est = empirical_hitting_measure(srw_measure, 21, 2000, 300, 1)
    assert est.unresolved_fraction == 0.0
    for freq in est.distribution.table.values():
        assert freq == pytest.approx(0.25, abs=0.05)


def test_srw_depth_two_matches_markov_oracle(srw_measure):
    est = empirical_hitting_measure(srw_measure, 22, 3000, 400, 2)
    exact = {k: float(v) for k, v in markov_cylinder_table(2, 2).items()}
    assert tv_distance(est.distribution.table, exact) < 0.05


def test_point_mass_hits_single_cylinder():
    est = empirical_hitting_measure(trivial_point_mass("a"), 0, 10, 50, 3)
    assert est.distribution.table == {(1, 1, 1): 1.0}


def test_nonatomicity_proxy_masses_decay(srw_measure):
    # Markov oracle: max depth-k mass is (1/4)(1/3)^(k-1)
    for depth in (1, 2, 3):
        est = empirical_hitting_measure(srw_measure, 23, 4000, 400, depth)
        bound = 0.25 * (1 / 3) ** (depth - 1)
        assert est.distribution.max_frequency() <= bound + 0.05


def test_unresolved_walk_hits_ceiling():
    cfg = load_fixture("semidirect-linear")
    acting = build_acting_group(cfg)
    stuck = StepMeasure(
        acting,
        [ExtElement(Word.identity(2), (1,)), ExtElement(Word.identity(2), (-1,))],
        [0.5, 0.5],
        check_generation=False,
    )
    with pytest.raises(ConvergenceError):
        empirical_hitting_measure(stuck, 1, 50, 30, 1)


def test_sample_boundary_rays_resolved_prefixes(srw_measure):
    rays = sample_boundary_rays(srw_measure, 3, 40, 2, 200)
    assert len(rays) == 40
    assert all(len(r.prefix(2)) == 2 for r in rays)


@pytest.mark.parametrize("n_samples, depth, n_steps", [(0, 2, 50), (40, 0, 50), (40, 2, 0)])
def test_sample_boundary_rays_rejects_empty_sizes(srw_measure, n_samples, depth, n_steps):
    with pytest.raises(ConfigError):
        sample_boundary_rays(srw_measure, 3, n_samples, depth, n_steps)


def no_paths(*args):
    raise AssertionError("a path was walked")


PROBED = {
    "hitting": lambda m, probes: empirical_hitting_measure(m, 3, 10, 50, 2, probes=probes),
    "rays": lambda m, probes: sample_boundary_rays(m, 3, 10, 2, 50, probes=probes),
    "track": lambda m, probes: track_convergence(m, 3, 10, 50, 2, probes=probes),
}


@pytest.mark.parametrize(
    "probes, message",
    [
        ((Ray.constant(2, 1),), "two pairwise distinct"),
        ((Ray.constant(2, 1),) * 2, "two pairwise distinct"),
        ((Ray.constant(3, 1), Ray.constant(3, 3)), "base rank 2"),
    ],
    ids=["one-probe", "repeated-probe", "wrong-rank"],
)
@pytest.mark.parametrize("estimator", sorted(PROBED))
def test_estimators_reject_bad_probes(monkeypatch, srw_measure, estimator, probes, message):
    # every walk draws from _rng.index_blocks; track's two routes draw in boundary
    monkeypatch.setattr(walk, "index_blocks", no_paths)
    monkeypatch.setattr(boundary, "index_blocks", no_paths)
    with pytest.raises(ConfigError, match=message):
        PROBED[estimator](srw_measure, probes)
    # the patched routines are the ones a valid call draws its paths from
    with pytest.raises(AssertionError, match="a path was walked"):
        PROBED[estimator](srw_measure, None)


def common_prefix_length(words, depth: int) -> int:
    first = words[0].letters
    return min(
        next((d for d in range(depth) if w.letters[d] != first[d]), depth) for w in words[1:]
    )


@pytest.mark.parametrize("name", fixture_names())
def test_hitting_and_track_agree_path_by_path(name):
    # hitting takes the no-translation shortcut whenever it can; the full
    # translation of every probe (act_on_ray) on the same endpoints must
    # resolve the same paths to the same cylinders, with track's final lengths
    measure = build_measure(load_fixture(name))
    acting = measure.acting
    probes = default_probes(acting.base_rank)
    n_paths, n_steps, depth = 40, 15, 3
    for seed in (1, 2, 3):
        keys = boundary._resolve_paths(
            measure, seed, STREAM_WALK, n_paths, n_steps, depth, None, None, 1.0
        )
        est = empirical_hitting_measure(measure, seed, n_paths, n_steps, depth, unresolved_ceiling=1.0)
        final = track_convergence(measure, seed, n_paths, n_steps, depth).final_lengths()
        ends = sample_paths(measure, seed, n_paths, n_steps).final_positions
        assert est.resolved_count == (final >= depth).sum()
        expected = {}
        for key, length, g in zip(keys, final, ends):
            translates = [act_on_ray(acting, g, r, depth) for r in probes]
            agree = common_prefix_length(translates, depth)
            assert length == agree
            assert key == (translates[0].letters if agree == depth else None)
            if key is not None:
                expected[key] = expected.get(key, 0) + 1
        assert est.distribution.table == {k: c / est.resolved_count for k, c in expected.items()}


# -- stationarity ------------------------------------------------------------------

def test_point_mass_on_point_law_residual_is_zero():
    pm = trivial_point_mass("a")
    law = CylinderDistribution(2, 3, {(1, 1, 1): 1.0}, 1)
    assert stationarity_residual(pm, law, 7, 500) == 0.0


def test_point_mass_push_detects_nonstationarity():
    pm = trivial_point_mass("b")
    table = {k: float(v) for k, v in markov_cylinder_table(2, 1).items()}
    uniform = CylinderDistribution(2, 1, table, 1)
    assert stationarity_residual(pm, uniform, 7, 4000) >= 0.5


def test_compare_depth_validation(srw_measure):
    law = CylinderDistribution(2, 2, {(1, 2): 1.0}, 1)
    with pytest.raises(ConfigError):
        stationarity_residual(srw_measure, law, 0, 100, compare_depth=3)
    with pytest.raises(ConfigError):
        stationarity_residual(srw_measure, law, 0, 0)


def test_srw_stationarity_residual_small(srw_measure):
    est = empirical_hitting_measure(srw_measure, 29, 4000, 400, 4)
    residual = stationarity_residual(srw_measure, est.distribution, 29, 4000, compare_depth=2)
    assert residual < 0.06


# -- convergence tracking ------------------------------------------------------------

def test_deterministic_path_tracks_its_own_prefix():
    pm = trivial_point_mass("a")
    probes = (Ray.parse(2, "1|b"), Ray.parse(2, "B|a"))
    trace = track_convergence(pm, 0, 1, 10, 12, probes=probes)
    for j in range(10):
        assert trace.lengths[0, j] == j + 1


def test_identity_point_mass_never_converges():
    acting = ActingGroup.trivial(2)
    idle = StepMeasure(
        acting,
        [ExtElement(Word.identity(2), acting.identity_part())],
        [1.0],
        check_generation=False,
    )
    trace = track_convergence(idle, 0, 3, 15, 5)
    assert trace.lengths.max() == 0
    assert trace.median_final_length() == 0.0


def test_srw_median_final_length_scales_with_drift(srw_measure):
    trace = track_convergence(srw_measure, 19, 100, 1000, 600)
    assert trace.median_final_length() >= 0.4 * 1000
    assert trace.resolved_fraction(1) == 1.0


# -- first returns -----------------------------------------------------------------

def test_returns_satisfy_parity_exactly(mixed_measure):
    even = ModuliSpec((2,))
    sample = first_return_sampler(mixed_measure, even, 13, 300)
    acting = mixed_measure.acting
    assert all(in_sublattice(acting, g, even) for g in sample.samples)
    assert all(t >= 1 for t in sample.return_times)
    gauges = [gauge_length(g) for g in sample.samples]
    assert sample.mean_gauge() == sum(gauges) / len(gauges)
    assert sample.mean_return_time() == sum(sample.return_times) / 300


def test_no_returns_have_no_means(mixed_measure):
    sample = first_return_sampler(
        mixed_measure, ModuliSpec((2,)), 16, 1, step_budget=1, failure_ceiling=1.0
    )
    assert sample.samples == () and sample.failures == 1
    assert sample.mean_gauge() is None
    assert sample.mean_return_time() is None


def test_pure_word_walk_returns_immediately(srw_measure):
    cfg = load_fixture("semidirect-linear")
    acting = build_acting_group(cfg)
    words_only = StepMeasure(
        acting,
        [ExtElement(a.w, (0,)) for a in srw_measure.atoms],
        list(srw_measure.weights),
        check_generation=False,
    )
    sample = first_return_sampler(words_only, ModuliSpec((2,)), 5, 200)
    assert set(sample.return_times) == {1}
    assert sample.failure_fraction == 0.0


def test_shift_dominated_walk_exhausts_budget(mixed_measure):
    with pytest.raises(BudgetError):
        first_return_sampler(mixed_measure, ModuliSpec((2,)), 5, 300, step_budget=1)


@pytest.mark.parametrize(
    "name, spec, message",
    [
        ("srw-f2", ModuliSpec((2,)), "moduli spec"),
        ("lattice-rank2", ModuliSpec((2,)), "moduli spec"),
        ("semidirect-mixed", PermKernelSpec(2, ((1, 0),)), "permutation spec"),
        ("free-acting", ModuliSpec((2, 2)), "moduli spec"),
    ],
)
def test_mismatched_sublattice_spec_raises_before_any_path(monkeypatch, name, spec, message):
    measure = build_measure(load_fixture(name))
    # every walk draws from _rng.index_blocks, first returns from picked keys
    monkeypatch.setattr(walk, "index_blocks", no_paths)
    match = f"{message} does not match the acting group"
    with pytest.raises(ConfigError, match=match):
        empirical_hitting_measure(measure, 1, 10, 10, 1, return_lattice=spec)
    with pytest.raises(ConfigError, match=match):
        first_return_sampler(measure, spec, 1, 10)
    # the patched routines are the ones valid calls draw their paths from
    with pytest.raises(AssertionError, match="a path was walked"):
        empirical_hitting_measure(measure, 1, 10, 10, 1)
    own = sublattice_spec(load_fixture("semidirect-mixed"))
    with pytest.raises(AssertionError, match="a path was walked"):
        first_return_sampler(build_measure(load_fixture("semidirect-mixed")), own, 1, 10)


CEILINGED = {
    "hitting": lambda m, c: empirical_hitting_measure(m, 1, 10, 10, 1, unresolved_ceiling=c),
    "rays": lambda m, c: sample_boundary_rays(m, 1, 10, 1, 10, unresolved_ceiling=c),
    "first-return": lambda m, c: first_return_sampler(m, ModuliSpec((2,)), 1, 10, failure_ceiling=c),
}


@pytest.mark.parametrize("ceiling", [-1.0, -0.01, 1.5, math.inf, math.nan])
@pytest.mark.parametrize("estimator", sorted(CEILINGED))
def test_ceilings_outside_the_unit_interval_raise_before_any_path(
    monkeypatch, mixed_measure, estimator, ceiling
):
    # every walk draws from _rng.index_blocks, first returns from picked keys
    monkeypatch.setattr(walk, "index_blocks", no_paths)
    with pytest.raises(ConfigError, match=r"ceiling must lie in \[0, 1\]"):
        CEILINGED[estimator](mixed_measure, ceiling)
    # both ends are ceilings, and the patched routine is the one they walk from
    for edge in (0.0, 1.0):
        with pytest.raises(AssertionError, match="a path was walked"):
            CEILINGED[estimator](mixed_measure, edge)


def dynkin_malyutov_z_scores(estimate) -> tuple[dict, dict]:
    """Each depth-2 cell's z against direct-product's exact law ν and against srw-f2's."""
    n = estimate.resolved_count
    table = estimate.distribution.table

    def z_scores(law):
        return {
            w: (table.get(w, 0.0) - p) / math.sqrt(p * (1 - p) / n) for w, p in law.items()
        }

    exact = z_scores(nn_cylinder_table(dynkin_malyutov(DIRECT_PRODUCT_PROJECTION), 2, 2))
    srw = z_scores({w: float(p) for w, p in markov_cylinder_table(2, 2).items()})
    assert set(table) <= set(exact)
    return exact, srw


def test_direct_product_hitting_matches_the_dynkin_malyutov_law(product_measure):
    # direct-product's walk projects onto a nearest-neighbour walk on F_2 with
    # the same hitting law (see oracles.py). 20,000 paths put the exact law
    # within 3 standard errors in every depth-2 cell, and the simple random
    # walk's law, at TV 0.030 from it, past 3 in some cell. Seed fixed before
    # the first run.
    estimate = empirical_hitting_measure(product_measure, 1616, 20000, 400, 2)
    exact, srw = dynkin_malyutov_z_scores(estimate)
    assert estimate.resolved_count >= 19900
    assert max(abs(z) for z in exact.values()) <= 3.0, exact
    assert max(abs(z) for z in srw.values()) > 3.0, srw


def test_direct_product_hitting_at_returns_matches_the_dynkin_malyutov_law(product_measure):
    # read at its last return to the even acting parts, each path still
    # heads for the point its projection converges to, so the law is ν
    # again; the size is the terminal test's. Seed fixed before the first run.
    estimate = empirical_hitting_measure(
        product_measure, 1717, 20000, 400, 2, return_lattice=ModuliSpec((2,))
    )
    exact, srw = dynkin_malyutov_z_scores(estimate)
    assert max(abs(z) for z in exact.values()) <= 3.0, exact
    assert max(abs(z) for z in srw.values()) > 3.0, srw
