"""End-to-end command-line behavior, run in process through main()."""

import hashlib
import json

import pytest

from walkbound.cli import main

SHIFT_ONLY = """
group.rank = 2
group.acting = z
auto.id.images = a, b
auto.id.inverses = a, b
theta = id
measure.check_generation = false
measure.atom.1.word = 1
measure.atom.1.part = 1
measure.atom.1.weight = 0.5
measure.atom.2.word = 1
measure.atom.2.part = -1
measure.atom.2.weight = 0.5
"""


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_walk_reports_drift(capsys):
    payload = run_json(
        capsys,
        ["walk", "--config", "fixture:srw-f2", "--seed", "3",
         "--n-paths", "200", "--n-steps", "400"],
    )
    assert payload["command"] == "walk"
    assert payload["seed"] == 3
    assert 0.4 < payload["drift"] < 0.6
    assert payload["drift_stderr"] > 0.0


def test_walk_csv_reruns_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "walk.csv"
    argv = ["walk", "--config", "fixture:srw-f2", "--seed", "11",
            "--n-paths", "40", "--n-steps", "60", "--format", "csv",
            "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "path_id,step,w,p,gauge_length"
    assert len(lines) == 41


def test_walk_worker_count_does_not_change_output(tmp_path, capsys):
    base = ["walk", "--config", "fixture:semidirect-linear", "--seed", "5",
            "--n-paths", "30", "--n-steps", "50", "--format", "csv"]
    solo = tmp_path / "w1.csv"
    pair = tmp_path / "w2.csv"
    assert main(base + ["--out", str(solo), "--workers", "1"]) == 0
    assert main(base + ["--out", str(pair), "--workers", "2"]) == 0
    assert solo.read_bytes() == pair.read_bytes()


def test_walk_recorded_steps_appear_in_csv(capsys):
    argv = ["walk", "--config", "fixture:srw-f2", "--seed", "2",
            "--n-paths", "5", "--n-steps", "20", "--record", "0,5",
            "--format", "csv"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    steps = {int(r.split(",")[1]) for r in rows}
    assert {0, 5} <= steps


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["moments", "--config", str(tmp_path / "nope.cfg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_unknown_fixture_exits_two(capsys):
    assert main(["moments", "--config", "fixture:bogus"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_bad_config_exits_two_and_leaves_no_output(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "group.rank = 2\n"
        "measure.atom.1.word = a\n"
        "measure.atom.1.weight = 0.9\n",
        encoding="utf-8",
    )
    out = tmp_path / "never.json"
    code = main(["moments", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_bad_env_seed_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("WALKBOUND_SEED", "not-a-number")
    code = main(["moments", "--config", "fixture:srw-f2"])
    assert code == 2
    assert "WALKBOUND_SEED" in capsys.readouterr().err


def test_seed_priority_flag_env_config(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text(
        "group.rank = 2\n"
        "measure.atom.1.word = a\n"
        "measure.atom.1.weight = 0.5\n"
        "measure.atom.2.word = A\n"
        "measure.atom.2.weight = 0.5\n"
        "measure.check_generation = false\n"
        "run.seed = 5\n",
        encoding="utf-8",
    )
    argv = ["walk", "--config", str(cfg), "--n-paths", "2", "--n-steps", "2"]

    monkeypatch.setenv("WALKBOUND_SEED", "7")
    assert run_json(capsys, argv + ["--seed", "9"])["seed"] == 9
    assert run_json(capsys, argv)["seed"] == 7
    monkeypatch.delenv("WALKBOUND_SEED")
    assert run_json(capsys, argv)["seed"] == 5

    bare = tmp_path / "unseeded.cfg"
    bare.write_text(
        cfg.read_text(encoding="utf-8").replace("run.seed = 5\n", ""),
        encoding="utf-8",
    )
    argv_bare = ["walk", "--config", str(bare), "--n-paths", "2", "--n-steps", "2"]
    assert run_json(capsys, argv_bare)["seed"] == 0


def test_unresolved_walk_exits_three(tmp_path, capsys):
    cfg = tmp_path / "shift.cfg"
    cfg.write_text(SHIFT_ONLY, encoding="utf-8")
    code = main(["hitting", "--config", str(cfg), "--seed", "1",
                 "--n-paths", "50", "--n-steps", "40", "--depth", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_exhausted_return_budget_exits_four(capsys):
    code = main(["first-return", "--config", "fixture:semidirect-mixed",
                 "--seed", "1", "--n-samples", "200", "--step-budget", "1"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_hitting_at_returns_requires_moduli(capsys):
    code = main(["hitting", "--config", "fixture:srw-f2", "--at-returns"])
    assert code == 2
    assert "sublattice.moduli" in capsys.readouterr().err


def test_hitting_table_is_normalized(capsys):
    payload = run_json(
        capsys,
        ["hitting", "--config", "fixture:srw-f2", "--seed", "4",
         "--n-paths", "400", "--n-steps", "200", "--depth", "1"],
    )
    assert payload["cells"] == 4
    assert abs(sum(payload["table"].values()) - 1.0) < 1e-9


def test_stationarity_reports_residual(capsys):
    payload = run_json(
        capsys,
        ["stationarity", "--config", "fixture:srw-f2", "--seed", "8",
         "--n-paths", "2000", "--n-steps", "200", "--depth", "1",
         "--pad", "2", "--n-resample", "2000"],
    )
    assert payload["depth"] == 1
    assert payload["source_depth"] == 3
    assert 0.0 <= payload["residual"] < 0.15


def test_track_csv_lists_final_lengths(capsys):
    argv = ["track", "--config", "fixture:direct-product", "--seed", "6",
            "--n-paths", "20", "--n-steps", "80", "--depth", "12",
            "--burn-in", "10", "--format", "csv"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path_id,final_length"
    assert len(lines) == 21


def test_growth_classifies_configured_twists(capsys):
    payload = run_json(
        capsys, ["growth", "--config", "fixture:free-acting", "--seed", "0"]
    )
    assert set(payload["reports"]) == {"alpha", "beta"}
    for report in payload["reports"].values():
        assert report["kind"] == "Polynomial"
        assert report["degree_estimate"] == 1
        assert report["rate_estimate"] is None


def test_growth_needs_automorphisms(capsys):
    assert main(["growth", "--config", "fixture:srw-f2"]) == 2
    assert "no automorphisms" in capsys.readouterr().err


def test_moments_csv_holds_key_value_rows(capsys):
    argv = ["moments", "--config", "fixture:srw-f2", "--format", "csv"]
    assert main(argv) == 0
    rows = dict(
        line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:]
    )
    assert rows["atoms"] == "4"
    assert abs(float(rows["first_moment"]) - 1.0) < 1e-12


def test_entropy_rate_workers_match(capsys):
    argv = ["entropy-rate", "--config", "fixture:srw-f2", "--seed", "9",
            "--n-paths", "3000", "--depths", "4,6"]
    solo = run_json(capsys, argv + ["--workers", "1"])
    pair = run_json(capsys, argv + ["--workers", "2"])
    assert solo == pair
    assert solo["per_depth"]["4"]["support"] > 1
    assert 0.2 < solo["value"] < 0.9


def test_first_return_reports_parity_time(capsys):
    payload = run_json(
        capsys,
        ["first-return", "--config", "fixture:semidirect-mixed", "--seed", "3",
         "--n-samples", "2000"],
    )
    assert payload["returned"] == 2000
    assert abs(payload["p_tau_1"] - 0.5) < 0.05
    assert payload["mean_return_time"] >= 1.0


def test_tree_liminf_constant_sequence(capsys):
    payload = run_json(
        capsys,
        ["tree-liminf", "--config", "fixture:srw-f2",
         "--vertices", "b,b,b,b", "--horizon", "10"],
    )
    assert payload["kind"] == "vertex"
    assert payload["vertex"] == "b"


def test_tree_liminf_marching_sequence_is_a_ray(capsys):
    payload = run_json(
        capsys,
        ["tree-liminf", "--config", "fixture:srw-f2",
         "--vertices", "b,bb,bbb,bbbb,bbbbb,bbbbbb,bbbbbbb,bbbbbbbb",
         "--horizon", "3"],
    )
    assert payload["kind"] == "ray"
    assert len(payload["path"]) == 4


def test_tree_strips_profile(capsys):
    payload = run_json(
        capsys,
        ["tree-strips", "--config", "fixture:srw-f2",
         "--from-vertex", "B", "--to-vertex", "b", "--k-max", "4"],
    )
    assert len(payload["counts"]) == 4
    assert payload["size"] >= 2
    assert payload["bound_holds"] is True


def test_poisson_with_function_file(tmp_path, capsys):
    fn = tmp_path / "indicator.csv"
    fn.write_text("cylinder,value\na,1.0\nA,0\nb,0\nB,0\n", encoding="utf-8")
    payload = run_json(
        capsys,
        ["poisson", "--config", "fixture:srw-f2", "--seed", "12",
         "--function", str(fn), "--n-samples", "2000", "--n-steps", "400"],
    )
    assert payload["function_depth"] == 1
    assert abs(payload["value_at_identity"] - 0.25) < 0.05
    assert payload["test_elements"] == 17


def test_poisson_rejects_mixed_length_cylinders(tmp_path, capsys):
    fn = tmp_path / "mixed.csv"
    fn.write_text("a,1.0\nab,0.5\n", encoding="utf-8")
    code = main(["poisson", "--config", "fixture:srw-f2", "--function", str(fn)])
    assert code == 2
    assert "mixed lengths" in capsys.readouterr().err


def test_poisson_rejects_too_shallow_sampling(capsys):
    code = main(["poisson", "--config", "fixture:srw-f2", "--depth", "0",
                 "--n-samples", "10", "--n-steps", "10"])
    assert code == 2
    assert "shallower" in capsys.readouterr().err


# sha256 of stdout for one small run of each sampling command. The digests
# were recorded before path streams were keyed in one batched pass; any change
# to a stream, a step kernel or an output format shows up here.
GOLDEN_DIGESTS = (
    pytest.param(
        "walk --config fixture:semidirect-linear --seed 6148914691236517205 "
        "--n-paths 300 --n-steps 12 --record 0,10 --format csv",
        "68e3089f6335c9210f59daef713f5fc97c1c1a00bdf0aca4df31c9a93f4ea3b7",
        id="walk-csv",
    ),
    pytest.param(
        "entropy-rate --config fixture:srw-f2 --seed 9 --n-paths 3000 --depths 3,5",
        "4c4a2460d105ae5521d4f3701b6b2b58542c15b47070a8d0bdb9c17275a08aa0",
        id="entropy-rate",
    ),
    pytest.param(
        "first-return --config fixture:semidirect-mixed --seed 3 --n-samples 1000 "
        "--format csv",
        "d0f6f3fb8d39e42d47fbaffa6478b7b355bd5a011b646999a71a30d5ddc42fb0",
        id="first-return",
    ),
    pytest.param(
        "hitting --config fixture:semidirect-linear --seed 4 --n-paths 200 "
        "--n-steps 60 --depth 2",
        "6539c9f9ed8f6f7f7a57b61a8170aee56cbf05c2564f51fc321d50f9e2cdd6a7",
        id="hitting",
    ),
    pytest.param(
        "hitting --config fixture:direct-product --at-returns --seed 4 "
        "--n-paths 200 --n-steps 60 --depth 2",
        "0757e7b5db5466b4443c511cb193062ac9ccf68cc44b1ae2f42cc09a50f158bb",
        id="hitting-at-returns",
    ),
    pytest.param(
        "stationarity --config fixture:srw-f2 --seed 8 --n-paths 500 --n-steps 60 "
        "--depth 1 --pad 2 --n-resample 500",
        "28fec1c61bd56baa5d4719fa27fbe28c3178c8b5e761b99da4a79212e304dcad",
        id="stationarity",
    ),
    pytest.param(
        "track --config fixture:direct-product --seed 6 --n-paths 60 --n-steps 20 "
        "--depth 10 --burn-in 5 --format csv",
        "6b7d2750dbf3e22dbe71888a91e0b6aa52a86498ccc298906dbea889bc7cddd2",
        id="track",
    ),
    pytest.param(
        "poisson --config fixture:srw-f2 --seed 12 --n-samples 200 --n-steps 100",
        "3d0a2fe9db0dac9cbfc5e827cdb94b1954b944f2bc869527238259730f953e65",
        id="poisson",
    ),
)


@pytest.mark.parametrize("line, digest", GOLDEN_DIGESTS)
def test_seeded_output_matches_golden_digest(capsys, line, digest):
    assert main(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
