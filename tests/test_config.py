"""Parsing, validation, and round-tripping of run configurations."""

import pytest

from walkbound import (
    ConfigError,
    build_acting_group,
    build_measure,
    emit_config,
    fixture_names,
    load_fixture,
    named_automorphisms,
    parse_config,
    sublattice_spec,
)

MINIMAL = """
group.rank = 2
measure.atom.1.word = a
measure.atom.1.weight = 0.5
measure.atom.2.word = A
measure.atom.2.weight = 0.5
"""


def test_parse_minimal_defaults():
    config = parse_config(MINIMAL)
    assert config.rank == 2
    assert config.acting == "none"
    assert config.autos == ()
    assert config.theta == ()
    assert config.check_generation is True
    assert config.moduli is None
    assert config.params == ()
    # omitted parts normalize to the identity spelling
    assert config.atoms == (("a", "0", 0.5), ("A", "0", 0.5))


def test_parse_ignores_comments_and_blank_lines():
    noisy = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
    assert parse_config(noisy) == parse_config(MINIMAL)


def test_emit_parse_roundtrip_on_all_fixtures():
    for name in fixture_names():
        config = load_fixture(name)
        assert parse_config(emit_config(config)) == config


def test_emit_is_canonical():
    config = parse_config(MINIMAL)
    text = emit_config(config)
    assert text.endswith("\n")
    assert "group.acting = none" in text
    assert "measure.atom.1.part = 0" in text
    # integral weights print without an exponent or trailing digits
    assert "measure.atom.1.weight = 0.5" in text


def test_run_params_are_collected_and_queried():
    config = parse_config(MINIMAL + "run.n_paths = 2000\nrun.seed = 7\n")
    assert config.param("n_paths") == 2000.0
    assert config.param("seed") == 7.0
    assert config.param("missing") is None
    assert config.param("missing", 3.5) == 3.5


def test_integral_run_values_stay_exact_ints():
    config = parse_config(
        MINIMAL
        + "run.seed = 6148914691236517205\n"
        + "run.n_paths = 2000.0\n"
        + "run.unresolved_ceiling = 0.05\n"
    )
    seed, n_paths, ceiling = (config.param(k) for k in ("seed", "n_paths", "unresolved_ceiling"))
    assert (type(seed), seed) == (int, 6148914691236517205)
    assert (type(n_paths), n_paths) == (int, 2000)
    assert (type(ceiling), ceiling) == (float, 0.05)
    assert parse_config(emit_config(config)) == config


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda t: t + "group.rank = 2\n", "duplicate key"),
        (lambda t: t.replace("group.rank = 2\n", ""), "missing group.rank"),
        (lambda t: t.replace("group.rank = 2", "group.rank = two"), "bad group.rank"),
        (lambda t: t + "group.acting = q\n", "unknown acting group"),
        (lambda t: t + "group.acting = z^0\n", "bad acting group"),
        (lambda t: t + "group.acting = free:x\n", "bad acting group"),
        (lambda t: t + "bogus.key = 1\n", "unknown config key"),
        (lambda t: t + "run.depth = deep\n", "bad numeric value"),
        (lambda t: t + "no equals sign here\n", "expected 'key = value'"),
        (lambda t: t + "measure.atom.1.part =\n", "empty key or value"),
        (lambda t: t + "measure.check_generation = maybe\n", "must be true or false"),
        (lambda t: t + "sublattice.moduli = 2,x\n", "bad sublattice.moduli"),
        (lambda t: t + "theta = alpha\n", "unknown automorphism"),
    ],
)
def test_parse_rejects_malformed_text(mangle, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(mangle(MINIMAL))


def test_atom_indices_must_be_contiguous_from_one():
    gapped = MINIMAL.replace("measure.atom.2", "measure.atom.3")
    with pytest.raises(ConfigError, match="atom indices"):
        parse_config(gapped)


def test_atom_needs_word_and_weight():
    with pytest.raises(ConfigError, match="needs word and weight"):
        parse_config(
            "group.rank = 2\nmeasure.atom.1.word = a\nmeasure.atom.1.part = 0\n"
        )


def test_atom_rejects_bad_word_and_weight():
    with pytest.raises(ConfigError, match="atom 1"):
        parse_config(MINIMAL.replace("measure.atom.1.word = a", "measure.atom.1.word = aA"))
    with pytest.raises(ConfigError, match="bad weight"):
        parse_config(MINIMAL.replace("measure.atom.1.weight = 0.5", "measure.atom.1.weight = half"))


def test_no_atoms_is_an_error():
    with pytest.raises(ConfigError, match="no measure atoms"):
        parse_config("group.rank = 2\n")


def test_automorphism_needs_both_image_tables():
    text = MINIMAL + "auto.phi.images = a, ab\n"
    with pytest.raises(ConfigError, match="needs images and inverses"):
        parse_config(text)


def test_automorphism_tables_must_invert_each_other():
    text = MINIMAL + "auto.phi.images = a, ab\nauto.phi.inverses = a, ab\n"
    with pytest.raises(ConfigError, match="phi"):
        parse_config(text)


def test_theta_count_must_match_acting_rank():
    text = (
        MINIMAL
        + "group.acting = z^2\n"
        + "auto.phi.images = a, ab\nauto.phi.inverses = a, Ab\n"
        + "theta = phi\n"
    )
    with pytest.raises(ConfigError, match="acting group needs 2"):
        parse_config(text)


def test_lattice_part_length_is_checked():
    text = MINIMAL.replace(
        "measure.atom.1.weight", "measure.atom.1.part = 1,2\nmeasure.atom.1.weight"
    )
    with pytest.raises(ConfigError, match="trivial acting group"):
        parse_config(text)


def test_build_acting_group_kinds():
    assert build_acting_group(load_fixture("srw-f2")).kind == "lattice"
    assert build_acting_group(load_fixture("srw-f2")).k == 0
    linear = build_acting_group(load_fixture("semidirect-linear"))
    assert (linear.kind, linear.k) == ("lattice", 1)
    free = build_acting_group(load_fixture("free-acting"))
    assert (free.kind, free.k) == ("free", 2)
    lattice = build_acting_group(load_fixture("lattice-rank2"))
    assert (lattice.kind, lattice.k) == ("lattice", 2)


def test_build_measure_matches_config_atoms():
    config = load_fixture("srw-f2")
    measure = build_measure(config)
    assert len(measure.atoms) == 4
    assert measure.weights == (0.25, 0.25, 0.25, 0.25)
    assert {str(g.w) for g in measure.atoms} == {"a", "A", "b", "B"}


def test_build_measure_accepts_prebuilt_acting_group():
    config = load_fixture("semidirect-linear")
    acting = build_acting_group(config)
    measure = build_measure(config, acting)
    assert measure.acting is acting


def test_named_automorphisms_apply_as_configured():
    table = named_automorphisms(load_fixture("fibonacci"))
    assert set(table) == {"phi"}
    phi = table["phi"]
    assert str(phi.images[0]) == "ab"
    assert str(phi.images[1]) == "a"


def test_sublattice_spec_reads_moduli():
    assert sublattice_spec(load_fixture("srw-f2")) is None
    spec = sublattice_spec(load_fixture("direct-product"))
    assert spec is not None
    assert spec.moduli == (2,)
    assert sublattice_spec(load_fixture("lattice-rank2")).moduli == (2, 2)
