"""End-to-end command-line behavior, run in process through main()."""

import concurrent.futures
import gc
import hashlib
import json
import os
from pathlib import Path

import pytest

from walkbound import cli, fixture_names, parse_config, walk
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


def test_two_step_walk_worker_count_does_not_change_output(tmp_path):
    # more paths than rows: each worker walks its chunk's distinct rows once
    base = ["walk", "--config", "fixture:lattice-rank2", "--seed", "15",
            "--n-paths", "1501", "--n-steps", "2", "--record", "1", "--format", "csv"]
    solo = tmp_path / "w1.csv"
    pair = tmp_path / "w2.csv"
    assert main(base + ["--out", str(solo), "--workers", "1"]) == 0
    assert main(base + ["--out", str(pair), "--workers", "2"]) == 0
    assert solo.read_bytes() == pair.read_bytes()
    assert len(solo.read_bytes().decode().splitlines()) == 1 + 2 * 1501


EVERY_COMMAND = [
    ["walk", "--n-paths", "3", "--n-steps", "5"],
    ["hitting", "--n-paths", "3", "--n-steps", "5"],
    ["stationarity", "--n-paths", "3", "--n-steps", "5"],
    ["track", "--n-paths", "3", "--n-steps", "5"],
    ["growth"],
    ["moments"],
    ["entropy-rate", "--n-paths", "3"],
    ["first-return", "--n-samples", "3"],
    ["tree-liminf", "--vertices", "a,ab"],
    ["tree-strips", "--from-vertex", "a", "--to-vertex", "b"],
    ["poisson", "--n-samples", "3", "--n-steps", "5"],
]


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_workers_below_one_exit_two(monkeypatch, capsys, argv, workers):
    def fail(*args, **kwargs):
        raise AssertionError("the config was read before --workers was checked")

    monkeypatch.setattr(cli, "_load_config", fail)
    code = main([argv[0], "--config", "fixture:srw-f2", *argv[1:], "--workers", workers])
    assert code == 2
    assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err


def test_more_workers_than_paths_run_one_chunk_per_path(capsys):
    argv = ["walk", "--config", "fixture:srw-f2", "--seed", "4", "--n-paths", "3",
            "--n-steps", "5"]
    assert cli._split_counts(3, 4) == [(0, 1), (1, 1), (2, 1)]
    solo = run_json(capsys, argv + ["--workers", "1"])
    assert run_json(capsys, argv + ["--workers", "4"]) == solo


def test_pool_processes_are_capped_at_usable_cpus(monkeypatch, capsys):
    # more workers than CPUs queue their chunks on one process per CPU; the
    # fake pool records its size and runs every chunk in this process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["walk", "--config", "fixture:srw-f2", "--seed", "4", "--n-paths", "40",
            "--n-steps", "5", "--format", "csv"]
    outputs = []
    for workers in ("1", "40"):
        assert main(argv + ["--workers", workers]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert sizes == [2]
    assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)


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


@pytest.mark.parametrize("target", ["missing-dir/x.json", "a-dir"])
def test_unwritable_out_exits_two_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys, target):
    """The path is checked before the command runs, so a long run is not wasted."""

    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._COMMANDS, "moments", (never, "never runs"))
    (tmp_path / "a-dir").mkdir()
    code = main(["moments", "--config", "fixture:srw-f2", "--out", str(tmp_path / target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot write output" in captured.err
    assert not list(tmp_path.rglob("*.tmp.*"))
    assert not (tmp_path / "missing-dir").exists()


@pytest.mark.parametrize("target", ["missing-dir/x.json", "a-dir"])
def test_failed_output_write_leaves_no_temp_file(tmp_path, target):
    """A path that turns unwritable after the early check still fails cleanly."""
    (tmp_path / "a-dir").mkdir()
    with pytest.raises(cli.ConfigError, match="cannot write output"):
        cli._write_output(str(tmp_path / target), "{}\n")
    assert not list(tmp_path.rglob("*.tmp.*"))
    assert not (tmp_path / "missing-dir").exists()


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


@pytest.mark.parametrize(
    "line, message",
    [
        ("run.n_paths = 2.5", "run.n_paths must be an integer, got 2.5"),
        ("run.seed = 1.7", "run.seed must be an integer, got 1.7"),
    ],
    ids=["n-paths", "seed"],
)
def test_non_integral_run_integer_exits_two(tmp_path, capsys, line, message):
    cfg = tmp_path / "fractional.cfg"
    cfg.write_text(SHIFT_ONLY + line + "\n", encoding="utf-8")
    assert main(["walk", "--config", str(cfg), "--n-steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_config_seed_keeps_all_64_bits(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text(SHIFT_ONLY + "run.seed = 6148914691236517205\n", encoding="utf-8")
    argv = ["walk", "--config", str(cfg), "--n-paths", "2", "--n-steps", "3"]
    assert run_json(capsys, argv)["seed"] == 6148914691236517205


# the flags a command needs besides its numeric options
REQUIRED_FLAGS = {
    "tree-liminf": ["--vertices", "a"],
    "tree-strips": ["--from-vertex", "a", "--to-vertex", "b"],
}


@pytest.mark.parametrize(
    "command, option",
    [
        pytest.param(command, option, id=command + option.flag)
        for command, options in cli._OPTIONS.items()
        for option in options
    ],
)
def test_option_reads_config_and_its_flag_wins(command, option):
    if isinstance(option.default, int):
        from_config, from_flag = option.default + 7, option.default + 11
    else:
        from_config, from_flag = 0.125, 0.375
    config = parse_config(SHIFT_ONLY + f"run.{option.config_key} = {from_config}\n")
    argv = [command, "--config", "unread", *REQUIRED_FLAGS.get(command, [])]
    for extra, expected in (
        ([], from_config),
        ([option.flag, str(from_flag)], from_flag),
    ):
        args = cli._build_parser().parse_args(argv + extra)
        cli._resolve_options(args, config)
        value = getattr(args, option.dest)
        assert value == expected
        assert type(value) is type(option.default)
    args = cli._build_parser().parse_args(argv)
    cli._resolve_options(args, parse_config(SHIFT_ONLY))
    assert getattr(args, option.dest) == option.default


def test_ceiling_reads_a_different_key_per_command():
    keys = {
        command: option.config_key
        for command, options in cli._OPTIONS.items()
        for option in options
        if option.flag == "--ceiling"
    }
    assert keys == {"hitting": "unresolved_ceiling", "first-return": "failure_ceiling"}


def test_config_run_values_reach_the_command(tmp_path, capsys):
    cfg = tmp_path / "sized.cfg"
    cfg.write_text(SHIFT_ONLY + "run.n_paths = 3\nrun.n_steps = 4.0\n", encoding="utf-8")
    payload = run_json(capsys, ["walk", "--config", str(cfg)])
    assert (payload["n_paths"], payload["n_steps"]) == (3, 4)
    payload = run_json(capsys, ["walk", "--config", str(cfg), "--n-paths", "5"])
    assert (payload["n_paths"], payload["n_steps"]) == (5, 4)


def test_misspelt_run_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(SHIFT_ONLY + "run.n_path = 3\n", encoding="utf-8")
    assert main(["walk", "--config", str(cfg), "--n-steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config key run.n_path" in captured.err


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_run_key_is_read(capsys, name):
    assert main(["moments", "--config", f"fixture:{name}"]) == 0
    capsys.readouterr()


def test_parser_is_built_once_and_a_call_leaves_only_json_garbage(capsys):
    cli._build_parser.cache_clear()
    argv = ["moments", "--config", "fixture:srw-f2"]
    payload = run_json(capsys, argv)
    run_json(capsys, argv)
    assert cli._build_parser.cache_info().misses == 1
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        from_main = gc.collect()
        json.dumps(payload, indent=2, sort_keys=True)
        from_dumps = gc.collect()
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert from_main <= from_dumps


def test_unresolved_walk_exits_three(tmp_path, capsys):
    cfg = tmp_path / "shift.cfg"
    cfg.write_text(SHIFT_ONLY, encoding="utf-8")
    code = main(["hitting", "--config", str(cfg), "--seed", "1",
                 "--n-paths", "50", "--n-steps", "40", "--depth", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_collector_is_restored_after_a_command(capsys):
    assert gc.isenabled()
    assert main(["walk", "--config", "fixture:free-acting", "--n-paths", "4",
                 "--n-steps", "20"]) == 0
    assert gc.isenabled()
    assert main(["hitting", "--config", "fixture:free-acting", "--n-paths", "5",
                 "--n-steps", "1", "--depth", "5", "--ceiling", "0"]) == 3
    assert gc.isenabled()
    capsys.readouterr()


def test_hitting_with_no_resolved_path_exits_three(capsys):
    # a ceiling of 1 admits every path unresolved; one step never resolves depth 5
    code = main(["hitting", "--config", "fixture:srw-f2", "--n-paths", "5", "--n-steps", "1",
                 "--depth", "5", "--ceiling", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "no path resolved at depth 5 after 1 steps" in captured.err


def test_exhausted_return_budget_exits_four(capsys):
    code = main(["first-return", "--config", "fixture:semidirect-mixed",
                 "--seed", "1", "--n-samples", "200", "--step-budget", "1"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["hitting", "--config", "fixture:srw-f2", "--ceiling", "-1"],
        ["hitting", "--config", "fixture:srw-f2", "--ceiling", "nan"],
        ["first-return", "--config", "fixture:semidirect-mixed", "--ceiling", "nan"],
        ["first-return", "--config", "fixture:semidirect-mixed", "--ceiling", "1.5"],
    ],
    ids=["hitting-negative", "hitting-nan", "first-return-nan", "first-return-above-one"],
)
def test_ceiling_outside_the_unit_interval_exits_two(monkeypatch, capsys, argv):
    def no_paths(*args):
        raise AssertionError("a path was walked")

    # every walk draws from _rng.index_blocks, first returns from picked keys
    monkeypatch.setattr(walk, "index_blocks", no_paths)
    assert main([*argv, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ceiling must lie in [0, 1]" in captured.err


@pytest.mark.parametrize("source", ["--seed", "WALKBOUND_SEED", "run.seed"])
@pytest.mark.parametrize("command", ["walk", "moments"])
def test_negative_seed_exits_two_naming_its_source(tmp_path, monkeypatch, capsys, command, source):
    cfg = tmp_path / "shift.cfg"
    cfg.write_text(SHIFT_ONLY + ("run.seed = -2\n" if source == "run.seed" else ""), encoding="utf-8")
    argv = [command, "--config", str(cfg)]
    if source == "--seed":
        argv += ["--seed", "-2"]
    elif source == "WALKBOUND_SEED":
        monkeypatch.setenv("WALKBOUND_SEED", "-2")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: expected non-negative integer seed from {source}, got -2" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy-rate", "--n-paths", "0"],
        ["entropy-rate", "--n-paths", "-5"],
        ["poisson", "--n-samples", "0"],
        ["poisson", "--n-steps", "0"],
    ],
    ids=["entropy-rate-zero", "entropy-rate-negative", "poisson-zero", "poisson-zero-steps"],
)
def test_empty_sample_counts_exit_two(capsys, argv):
    code = main([*argv, "--config", "fixture:srw-f2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert ">= 1" in captured.err


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


def test_track_json_reports_no_truncation(capsys):
    payload = run_json(
        capsys,
        ["track", "--config", "fixture:srw-f2", "--seed", "19", "--n-paths", "20",
         "--n-steps", "200", "--depth", "120", "--burn-in", "10"],
    )
    assert payload["truncation_events"] == 0
    assert payload["median_final_length"] >= 0.4 * 200


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "burn_in must be in 1..100"),
        (["--burn-in", "0"], "burn_in must be in 1..100"),
        (["--burn-in", "10", "--resolve-depth", "0"], "resolve_depth must be in 1..12"),
        (["--burn-in", "10", "--resolve-depth", "99"], "resolve_depth must be in 1..12"),
    ],
    ids=["default-burn-in", "zero-burn-in", "zero-resolve-depth", "deep-resolve-depth"],
)
def test_track_rejects_windows_before_simulating(monkeypatch, capsys, extra, message):
    def no_simulation(*args, **kwargs):
        raise AssertionError("track_convergence ran")

    monkeypatch.setattr(cli, "track_convergence", no_simulation)
    argv = ["track", "--config", "fixture:direct-product", "--seed", "1",
            "--n-paths", "32", "--n-steps", "100", "--depth", "12", *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


# a nearest-neighbour walk on F_3 with unequal weights
NEAREST_NEIGHBOUR_F3 = "group.rank = 3\ngroup.acting = none\n" + "".join(
    f"measure.atom.{i}.word = {w}\nmeasure.atom.{i}.part = 0\nmeasure.atom.{i}.weight = {p}\n"
    for i, (w, p) in enumerate(
        (("a", 0.3), ("A", 0.1), ("b", 0.2), ("B", 0.15), ("c", 0.15), ("C", 0.1)), start=1
    )
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_batched_entropy_rate_worker_count_does_not_change_output(tmp_path, fmt):
    # depths within HEAD: every worker walks its chunk on the batched route
    cfg = tmp_path / "nn.cfg"
    cfg.write_text(NEAREST_NEIGHBOUR_F3, encoding="utf-8")
    base = ["entropy-rate", "--config", str(cfg), "--seed", "2026", "--n-paths", "5001",
            "--depths", "16,5,9", "--format", fmt]
    solo = tmp_path / "e1"
    pair = tmp_path / "e2"
    assert main(base + ["--out", str(solo), "--workers", "1"]) == 0
    assert main(base + ["--out", str(pair), "--workers", "2"]) == 0
    assert solo.read_bytes() == pair.read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_entropy_rate_past_the_cell_budget_exits_four_before_walking(
    monkeypatch, capsys, workers
):
    def refuse(*args, **kwargs):
        raise AssertionError("a path was walked or a pool started")

    # the stepped and the batched route's draws, and the pool _fan_out imports
    monkeypatch.setattr(walk, "index_blocks", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    code = main(["entropy-rate", "--config", "fixture:srw-f2", "--seed", "1",
                 "--n-paths", "7000000", "--workers", workers])
    assert code == 4
    assert "would exceed 20000000 cells" in capsys.readouterr().err
    # the patched names are the ones a run within the budget reaches
    with pytest.raises(AssertionError, match="a path was walked or a pool started"):
        main(["entropy-rate", "--config", "fixture:srw-f2", "--seed", "1",
              "--n-paths", "70", "--workers", workers])


def test_first_return_reports_parity_time(capsys):
    payload = run_json(
        capsys,
        ["first-return", "--config", "fixture:semidirect-mixed", "--seed", "3",
         "--n-samples", "2000"],
    )
    assert payload["returned"] == 2000
    assert abs(payload["p_tau_1"] - 0.5) < 0.05
    assert payload["mean_return_time"] >= 1.0


def test_first_return_without_returns_prints_valid_json(capsys):
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    argv = ["first-return", "--config", "fixture:direct-product", "--step-budget", "1",
            "--ceiling", "1.0", "--n-samples", "1", "--seed", "16"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert payload["returned"] == 0
    assert payload["mean_gauge"] is None
    assert payload["mean_return_time"] is None


@pytest.mark.parametrize(
    "argv, message",
    [
        (["first-return", "--config", "fixture:free-acting"],
         "first-return on a free acting group needs a permutation kernel, which no config key "
         "builds (PermKernelSpec is library-only)"),
        (["hitting", "--config", "fixture:free-acting", "--at-returns"],
         "--at-returns on a free acting group needs a permutation kernel, which no config key "
         "builds (PermKernelSpec is library-only)"),
        (["first-return", "--config", "fixture:srw-f2"],
         "first-return needs sublattice.moduli in the config"),
        (["hitting", "--config", "fixture:srw-f2", "--at-returns"],
         "--at-returns needs sublattice.moduli in the config"),
    ],
    ids=["first-return-free", "at-returns-free", "first-return-lattice", "at-returns-lattice"],
)
def test_returns_without_a_config_sublattice_exit_two(capsys, argv, message):
    # moduli never apply to a free acting group: the message names what is missing
    assert main([*argv, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"error: {message}"


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_poisson_rejects_non_finite_function_values(tmp_path, capsys, value):
    # json.dumps would print NaN or Infinity, which is not JSON
    fn = tmp_path / "nonfinite.csv"
    fn.write_text(f"a,{value}\nA,0\n", encoding="utf-8")
    code = main(["poisson", "--config", "fixture:srw-f2", "--function", str(fn),
                 "--n-samples", "10", "--n-steps", "10"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_poisson_prints_strict_json_from_one_ray(capsys):
    # one resolved ray has no standard error, and no residual a ratio to it
    code = main(["poisson", "--config", "fixture:srw-f2", "--n-samples", "1",
                 "--n-steps", "50", "--seed", "1", "--radius", "1"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out, parse_constant=reject_constant)
    assert payload["n_rays"] == 1
    assert payload["stderr_at_identity"] is None
    assert payload["max_residual_se"] is None
    assert payload["max_residual"] == 0.25


def test_poisson_csv_leaves_undefined_stderrs_empty(capsys):
    code = main(["poisson", "--config", "fixture:srw-f2", "--n-samples", "1",
                 "--n-steps", "50", "--seed", "1", "--radius", "1", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "element_w,element_p,residual,stderr_correlated,stderr_combined"
    assert lines[2] == "a,0,0.25,,"
    assert all(line.endswith(",,") for line in lines[1:])


def test_poisson_from_two_rays_keeps_its_numbers(capsys):
    code = main(["poisson", "--config", "fixture:srw-f2", "--n-samples", "2",
                 "--n-steps", "50", "--seed", "1", "--radius", "1"])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert code == 0 and payload["n_rays"] == 2
    assert isinstance(payload["stderr_at_identity"], float)
    assert isinstance(payload["max_residual_se"], float)


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
    # recorded before the five step loops became one kernel over a step graph
    pytest.param(
        "walk --config fixture:srw-f2 --seed 21 --n-paths 40 --n-steps 300",
        "f39433a5b2567c52ba041fd0dd79438c83ed2541f5413a9fb8cb7ae82ea965d9",
        id="walk-json-srw-f2",
    ),
    pytest.param(
        "walk --config fixture:semidirect-linear --seed 22 --n-paths 30 --n-steps 300",
        "dce1efa07a1de3f081b24a4263ca0e0d1ace3995a41deb0159ec4bb424e1dd31",
        id="walk-json-semidirect-linear",
    ),
    pytest.param(
        "walk --config fixture:direct-product --seed 23 --n-paths 30 --n-steps 300",
        "8efcc5ae00c2038e62a150599bfcb10c1f8be960aadefdda19591bbd1c26d369",
        id="walk-json-direct-product",
    ),
    pytest.param(
        "walk --config fixture:lattice-rank2 --seed 24 --n-paths 30 --n-steps 300",
        "6f383dca65979d4198b41d5dffbfb122f0324d29fe8c2c6f609ecc13289dfed4",
        id="walk-json-lattice-rank2",
    ),
    pytest.param(
        "walk --config fixture:free-acting --seed 25 --n-paths 20 --n-steps 120 "
        "--record 0,60 --format csv",
        "3bc09c4aaa3316565d1b78ced8c1384955ce823ceeb23710dcdbf831a18bc018",
        id="walk-csv-free-acting",
    ),
    pytest.param(
        "walk --config fixture:fibonacci --seed 26 --n-paths 40 --n-steps 12 "
        "--record 5 --format csv",
        "2358e7bc9e859232d4cc7511e4ed7540f644bc752b1bbdb64cf9af8a0ea1d5d5",
        id="walk-csv-fibonacci",
    ),
    # recorded before ray images were read lazily: twisted translations, and
    # on fibonacci walk words that cancel up to 163 letters of a probe image
    pytest.param(
        "poisson --config fixture:semidirect-linear --seed 13 --n-samples 100 "
        "--n-steps 100",
        "b4c70608e8246f68f6929dec7cb551062fb411b4584f6629c35149e20f3d0da2",
        id="poisson-semidirect-linear",
    ),
    pytest.param(
        "stationarity --config fixture:semidirect-linear --seed 14 --n-paths 200 "
        "--n-steps 100 --n-resample 500",
        "d15acd17c73758c21319f6eebd3c7f2b4d080b591b88c8540b96fcf07f2d5df3",
        id="stationarity-semidirect-linear",
    ),
    pytest.param(
        "hitting --config fixture:fibonacci --seed 20 --depth 2 --n-paths 100 "
        "--n-steps 30",
        "d531cd03185fcb47a91bac903e16c6b8ad06300055a475dc5758879dbf5fe788",
        id="hitting-fibonacci",
    ),
    # recorded before sublattice membership was memoized per step-graph node
    pytest.param(
        "hitting --config fixture:lattice-rank2 --at-returns --seed 31 --n-paths 200 "
        "--n-steps 150 --depth 2",
        "b1bfc1fbec9087e94ef08ce6465f644cf371ac7fa2bc9065304c312560cfbb79",
        id="hitting-at-returns-lattice-rank2",
    ),
    pytest.param(
        "hitting --config fixture:fibonacci --at-returns --seed 32 --n-paths 60 "
        "--n-steps 30 --depth 2",
        "10171de218e97918e2bebde220435efb3917714c451e98ea580a63c87fc75b2a",
        id="hitting-at-returns-fibonacci",
    ),
    # recorded before twists and growth iterates were built by substituting
    # whole image tables
    pytest.param(
        "growth --config fixture:fibonacci --iterations 27",
        "f2aefcd17a71b6c0203f2158d7fc7c1bfbacb39c72fc2e7c0b09e5c3523c49d6",
        id="growth-fibonacci",
    ),
    pytest.param(
        "growth --config fixture:free-acting",
        "6f1fd3e45fd9515678a9a8ba0fc3c54e3ea58ba4911de7aef7e259989bda13a1",
        id="growth-free-acting",
    ),
    pytest.param(
        "walk --config fixture:free-acting --n-paths 64 --n-steps 800 --seed 7",
        "10e15d5ebdccb4183572353ab7d6bfe1c61899f62a78f8d46d0075e681ff12f8",
        id="walk-json-free-acting",
    ),
    # recorded before the option table replaced per-command flag parsing, one
    # row for each command and format no digest above covered
    pytest.param(
        "moments --config fixture:semidirect-mixed",
        "cd2f7adbf93cb57758bebb33758740e79c08190eb04f202b1ad811b9cabb6c3b",
        id="moments-json",
    ),
    pytest.param(
        "moments --config fixture:lattice-rank2 --format csv",
        "c61ac9128bfd3a6d4b5e071ae6b7d69ed47897452a9dce5b8f5a441c94d6c242",
        id="moments-csv",
    ),
    pytest.param(
        "growth --config fixture:free-acting --format csv",
        "f7db4b6d92d87705de299fd6bcaebaeda8855f99dfdfc81b1ee6b79acd3eb2b9",
        id="growth-csv",
    ),
    pytest.param(
        "hitting --config fixture:semidirect-linear --seed 4 --n-paths 200 --n-steps 60 "
        "--depth 2 --format csv",
        "3d260c3260bde79723ab93d8273d482eee2a3fd1b6893ab3d6c784762ad5b6ac",
        id="hitting-csv",
    ),
    pytest.param(
        "stationarity --config fixture:srw-f2 --seed 8 --n-paths 500 --n-steps 60 "
        "--depth 1 --pad 2 --n-resample 500 --format csv",
        "1f98fc0578355ad9c2895c717f7f7d9d0e09087de6c07850c1333c6e3dd8c4b8",
        id="stationarity-csv",
    ),
    pytest.param(
        "track --config fixture:direct-product --seed 6 --n-paths 60 --n-steps 20 "
        "--depth 10 --burn-in 5",
        "6c1359a0290194a87aab0117540eaa1ba3d37313f8ee1ea506aaceff7c1e2f8e",
        id="track-json",
    ),
    pytest.param(
        "entropy-rate --config fixture:srw-f2 --seed 9 --n-paths 3000 --depths 3,5 "
        "--format csv",
        "e46b15b1ced717a05d94eec6df01494ddf509eba12f245beb39129c39cf6a924",
        id="entropy-rate-csv",
    ),
    pytest.param(
        "first-return --config fixture:semidirect-mixed --seed 3 --n-samples 1000",
        "c3112a2d2f2c79dab524b2fad6154626b333ed9509276974d13f0af32ce5cbf4",
        id="first-return-json",
    ),
    pytest.param(
        "poisson --config fixture:srw-f2 --seed 12 --n-samples 200 --n-steps 100 "
        "--format csv",
        "a4cb2276e60bfd555d015b2c970e3781daae600beec89ceb1081b0adfbd89eec",
        id="poisson-csv",
    ),
    pytest.param(
        "tree-liminf --config fixture:srw-f2 --vertices b,bb,bbb,bbbb,bbbbb,bbbbbb "
        "--horizon 3",
        "08cc859b2cd9b89aa01cfed4fe8977d424bee0ae04ac89bd2e24effb0d401523",
        id="tree-liminf-json",
    ),
    pytest.param(
        "tree-liminf --config fixture:srw-f2 --base a --vertices "
        "ab,abb,abbb,abbbb,abbbbb --horizon 4 --format csv",
        "1d0b128a03b66c366eed9a33fa8f9f75db8f5835476b23d11dedfc351e9b0365",
        id="tree-liminf-csv",
    ),
    pytest.param(
        "tree-strips --config fixture:srw-f2 --from-vertex B --to-vertex b --k-max 4",
        "463cc54d0845232628e298bd126013b6debd642bd3f18b790b343702b6944363",
        id="tree-strips-json",
    ),
    pytest.param(
        "tree-strips --config fixture:lattice-rank2 --from-vertex aB --to-vertex ba "
        "--k-max 6 --format csv",
        "e3d348d93f5f7b62b5ee9bd48b287ff4817a5e68402a16c25849ddbefaabe1d0",
        id="tree-strips-csv",
    ),
    # recorded before paths with equal atom rows shared their snapshots and
    # each distinct element was rendered once: two-step walks with more paths
    # than rows, a recorded JSON walk, and first returns past HEAD
    *(
        pytest.param(
            f"walk --config fixture:{name} --seed {seed} --n-paths 500 --n-steps 2 "
            "--format csv",
            digest,
            id=f"walk-two-step-{name}",
        )
        for name, seed, digest in (
            ("direct-product", 40,
             "f826d1734533883e2162c62e1b1dbb758a463df2425d8acfb0870996e7a3f3b0"),
            ("fibonacci", 41,
             "ccb1522d9fef55cb400a52a0a26a5de0ca495948b9fa736f865a53865cb3cfcf"),
            ("free-acting", 42,
             "43a3ccfac628980eab158b374773aaa1f35c98450919ddb8c24e4425db84e189"),
            ("lattice-rank2", 43,
             "4e01c51d558db6578c5b88b3bef30fc57b07178509ed223b1b0951dbc73bfdb8"),
            ("semidirect-linear", 44,
             "51a9b3c611c122dcb2c4b76e2f6b0dcad129eb913212db4d9b449655a0d3abba"),
            ("semidirect-mixed", 45,
             "f5d76d3734e6dee919f138753bd70698ad562f11bb38a685a4f6e2105749c9d8"),
            ("srw-f2", 46,
             "bc773148799d64b6d003e153d61348861960e83defbd45aa9ed6d3fcf2d45b32"),
        )
    ),
    pytest.param(
        "walk --config fixture:lattice-rank2 --seed 47 --n-paths 400 --n-steps 2 "
        "--record 1,2",
        "24ed53b54f4fa1d2f44c31375460f56d34aa2ab17cf242ce793f942c4824d10d",
        id="walk-json-two-step-record",
    ),
    pytest.param(
        "first-return --config fixture:semidirect-mixed --seed 48 --n-samples 1500 "
        "--format csv",
        "403af8c1967ce74b02139845b6e20424b72bbc0a2bb5417ca0612e26f38430fb",
        id="first-return-csv-semidirect-mixed",
    ),
    pytest.param(
        # 18 of these samples return after more than HEAD steps
        "first-return --config fixture:lattice-rank2 --seed 49 --n-samples 1500 "
        "--format csv",
        "df9850ffc88772988c1a33614bb2451ec98794a25fe3d990628777b1ec4a3280",
        id="first-return-csv-lattice-rank2",
    ),
    # recorded before walks on inner twists stepped in a conjugator frame:
    # the direct-product routes no digest above covered
    pytest.param(
        "entropy-rate --config fixture:direct-product --seed 50 --n-paths 3000 --depths 4,8",
        "d199a7caa85f6229f767415d1999d0dcc272ec8ab635e9bc0228508e2dd79917",
        id="entropy-rate-direct-product",
    ),
    pytest.param(
        "first-return --config fixture:direct-product --seed 51 --n-samples 1500 "
        "--format csv",
        "021588d627770ea6a6086e481640a0bb794214bb8dbbfc89c8e2846796f5ede7",
        id="first-return-csv-direct-product",
    ),
    pytest.param(
        "walk --config fixture:direct-product --seed 52 --n-paths 40 --n-steps 300 "
        "--record 0,150 --format csv",
        "5ac66c088ea30379f38d4c2cfefda90f10d55a1445b4a839bfccd4a280a70549",
        id="walk-csv-record-direct-product",
    ),
    pytest.param(
        "stationarity --config fixture:direct-product --seed 53 --n-paths 300 "
        "--n-steps 200 --n-resample 1000",
        "96028c060012c2c4d1f38495ece47c146a046eedc5990744bb1d5d12a2ff58d9",
        id="stationarity-direct-product",
    ),
    pytest.param(
        "poisson --config fixture:direct-product --seed 54 --n-samples 150 --n-steps 200",
        "3d5ddcf57586168c0c27eb723884b44b5795c79082ed445c6aeef958a7f04c55",
        id="poisson-direct-product",
    ),
    # recorded before walks whose atoms push fixed words ran as arrays:
    # track at depth 56 over 1000 steps, and over 60 steps where the final
    # lengths differ; hitting at last returns; long and recorded walks; on
    # srw-f2, direct-product and tests/inner-ab.cfg (framed pushes of 2-4
    # letters)
    pytest.param(
        "track --config fixture:srw-f2 --seed 60 --n-paths 32 --n-steps 1000 "
        "--depth 56",
        "9cca141738c18a61ca27d0c5b4baadda5a2c3d36256288319b864b060bd26491",
        id="track-json-srw-f2",
    ),
    pytest.param(
        "track --config fixture:srw-f2 --seed 60 --n-paths 32 --n-steps 1000 "
        "--depth 56 --format csv",
        "ea614811e665f243807dc6cbab8de22b0cf70693da05b6705a4398e48f3b6849",
        id="track-csv-srw-f2",
    ),
    pytest.param(
        "track --config fixture:direct-product --seed 61 --n-paths 32 --n-steps "
        "1000 --depth 56",
        "58e0ca990e82b809a509ef6f885f550a8e508ddf082d381a6cf3cca409478082",
        id="track-json-direct-product",
    ),
    pytest.param(
        "track --config fixture:direct-product --seed 61 --n-paths 32 --n-steps "
        "1000 --depth 56 --format csv",
        "ea614811e665f243807dc6cbab8de22b0cf70693da05b6705a4398e48f3b6849",
        id="track-csv-direct-product",
    ),
    pytest.param(
        "track --config tests/inner-ab.cfg --seed 62 --n-paths 32 --n-steps 1000 "
        "--depth 56",
        "5064c87290f53480c7ae78a664e30d1da05407469a8cddee74eb0cc863419395",
        id="track-json-inner-ab",
    ),
    pytest.param(
        "track --config tests/inner-ab.cfg --seed 62 --n-paths 32 --n-steps 1000 "
        "--depth 56 --format csv",
        "ea614811e665f243807dc6cbab8de22b0cf70693da05b6705a4398e48f3b6849",
        id="track-csv-inner-ab",
    ),
    pytest.param(
        "track --config fixture:direct-product --seed 61 --n-paths 32 --n-steps "
        "60 --depth 56 --burn-in 10 --format csv",
        "70339a159983ac966e3aa0d02ff075a2203aea939e4a14387fa9f29725c60f15",
        id="track-csv-short-direct-product",
    ),
    pytest.param(
        "track --config tests/inner-ab.cfg --seed 62 --n-paths 32 --n-steps 60 "
        "--depth 56 --burn-in 1 --format csv",
        "18383f6ec905cc2c703824bece49fb1399fcabe108e816cdfe4cb49f3644ece1",
        id="track-csv-short-inner-ab",
    ),
    pytest.param(
        "hitting --config fixture:direct-product --at-returns --seed 63 --n-paths "
        "300 --n-steps 200 --depth 2",
        "1ce434800e1ba7ff76d1b885073278a7c676e16d2f05ef9a36dd6de3922defb2",
        id="hitting-at-returns-direct-product",
    ),
    pytest.param(
        "hitting --config tests/inner-ab.cfg --at-returns --seed 64 --n-paths 300 "
        "--n-steps 300 --depth 2",
        "6798ff24ea2f3d5a442b9e55b733a4b9062657bfeef1205799384f70ac995df2",
        id="hitting-at-returns-inner-ab",
    ),
    pytest.param(
        "hitting --config fixture:srw-f2 --seed 67 --n-paths 300 --n-steps 300 "
        "--depth 3 --format csv",
        "9b3a17c520608179402c206d11233ee9ef97dd85452d481a8b15e0b861cc26f0",
        id="hitting-csv-srw-f2",
    ),
    pytest.param(
        "walk --config fixture:srw-f2 --seed 65 --n-paths 48 --n-steps 3000",
        "67e019c066d9b0223d89652e3f2baf9bb9df5ecb1f2518801f30de6e27b457a0",
        id="walk-json-long-srw-f2",
    ),
    pytest.param(
        "walk --config fixture:direct-product --seed 66 --n-paths 40 --n-steps "
        "300 --record 0,17,150,300 --format csv",
        "b95a885af30243b57ef6aea56d3bf4affb9a4a1e414d7e70ed37ae41df6f6d27",
        id="walk-csv-records-direct-product",
    ),
    pytest.param(
        "walk --config tests/inner-ab.cfg --seed 68 --n-paths 30 --n-steps 300 "
        "--record 0,1,150 --format csv",
        "531fc63c74308e1184077a9b72c2daf84a24459263b33cd9e0de36e617fd27bb",
        id="walk-csv-records-inner-ab",
    ),
    pytest.param(
        "poisson --config tests/inner-ab.cfg --seed 69 --n-samples 150 --n-steps "
        "200",
        "a1446eb2810bca88cf363583e7cbd9065bfb5300a79313f3f9a2b0b5d015aae9",
        id="poisson-inner-ab",
    ),
    # recorded before linearly twisted lattice walks were walked as syllable
    # arrays: pushes that depend on the acting position, at the benchmark's
    # long-walks and boundary sizes
    pytest.param(
        "walk --config fixture:semidirect-linear --seed 70 --n-paths 48 --n-steps 3000",
        "b0d97fd8e09aee9d6ccb9aff507661fc6a7b6194eccd1f3a71f9d8fbcaa6f78e",
        id="walk-json-long-semidirect-linear",
    ),
    pytest.param(
        "walk --config fixture:semidirect-linear --seed 71 --n-paths 48 --n-steps 3000 "
        "--record 0,1,999,2000 --format csv",
        "8c9ec3d4163e3ef65da3faecf13c076615f71610cb01e7ebcbf2991db8f60535",
        id="walk-csv-long-semidirect-linear",
    ),
    pytest.param(
        "walk --config fixture:semidirect-linear --seed 71 --n-paths 48 --n-steps 3000 "
        "--record 0,1,999,2000 --format csv --workers 2",
        "8c9ec3d4163e3ef65da3faecf13c076615f71610cb01e7ebcbf2991db8f60535",
        id="walk-csv-long-semidirect-linear-workers-2",
    ),
    pytest.param(
        "walk --config fixture:lattice-rank2 --seed 72 --n-paths 48 --n-steps 3000",
        "1a2aaa6783fe1c1fe61d699521d09f1d3008a516074136a31375e10981101656",
        id="walk-json-long-lattice-rank2",
    ),
    pytest.param(
        "walk --config fixture:lattice-rank2 --seed 73 --n-paths 48 --n-steps 3000 "
        "--record 0,7,1500 --format csv",
        "739496af2f9d05a59717e5c9bfea973e5b9243f65af36dcfabfa5bb3975d7674",
        id="walk-csv-long-lattice-rank2",
    ),
    pytest.param(
        "hitting --config fixture:semidirect-linear --seed 74 --depth 5 --n-paths 300 "
        "--n-steps 300",
        "b0720d14eedb8deac565d393863866c2040a101de6550668462ff58e7605efbf",
        id="hitting-depth-5-semidirect-linear",
    ),
    pytest.param(
        "hitting --config fixture:semidirect-mixed --at-returns --seed 75 --n-paths 300 "
        "--n-steps 300",
        "606b1953ab44625bf96fc4194daaf7026f9434579285b31162c36e082203f6d6",
        id="hitting-at-returns-semidirect-mixed",
    ),
    pytest.param(
        "stationarity --config fixture:semidirect-linear --seed 76 --n-paths 300 "
        "--n-steps 300 --n-resample 10000",
        "02944ee8a54fbe19b0facdd7b6bdeffd9da3c48fadfdcce59ee8e538eebae0d4",
        id="stationarity-long-semidirect-linear",
    ),
    pytest.param(
        "poisson --config fixture:semidirect-linear --seed 77 --n-samples 150 --n-steps 300",
        "7c40f6cfb798591c9e92a0c2405aac717cae87594edfd17b406d223c928efee0",
        id="poisson-long-semidirect-linear",
    ),
    # recorded before every position read went through walk._walk_rows, when
    # a free acting group's rows were drawn one by one: stepped depth counts,
    # and a fibonacci block that steps advance with several stops
    pytest.param(
        "hitting --config fixture:free-acting --seed 80 --n-paths 200 --n-steps 120 --depth 2",
        "1e353bf87920b75a9f9fe89d71cbc5d841620afd49d5732b7911573ca563f294",
        id="hitting-free-acting",
    ),
    pytest.param(
        "poisson --config fixture:free-acting --seed 81 --n-samples 100 --n-steps 120",
        "e71324b1851919a768d55b00b5b50de3d7ef9bd1eb97693e96500c536a458dcf",
        id="poisson-free-acting",
    ),
    pytest.param(
        "entropy-rate --config fixture:semidirect-linear --seed 82 --n-paths 2000 --depths 4,8",
        "d041abc6d29c1fe08db1c35bb155801fb5c603eaaf60e6c785d0e86a01e07520",
        id="entropy-rate-semidirect-linear",
    ),
    pytest.param(
        "walk --config fixture:fibonacci --seed 83 --n-paths 60 --n-steps 20 "
        "--record 0,3,11 --format csv",
        "8c83b930a06816334745893c7441423c24775e44b753023bce66419e9454e862",
        id="walk-csv-records-fibonacci",
    ),
    # recorded before the samples that had not returned after HEAD steps were
    # redrawn, twice as long each time, from their streams' starts: at budget
    # 200, 6 samples return past HEAD and 12 fail; at 17, 18 fail
    pytest.param(
        "first-return --config fixture:lattice-rank2 --seed 49 --n-samples 1500 "
        "--step-budget 200 --ceiling 1",
        "c4fb85d63b9dbc18d7aeb4a85c2cf4b8af9cd7e0389625ef9681f6efe75af774",
        id="first-return-json-budget-200",
    ),
    pytest.param(
        "first-return --config fixture:lattice-rank2 --seed 49 --n-samples 1500 "
        "--step-budget 200 --ceiling 1 --format csv",
        "87f246f769ac5545457c7cad058ec7d2fe3cb730d9c29277f806a261a0796364",
        id="first-return-csv-budget-200",
    ),
    pytest.param(
        "first-return --config fixture:lattice-rank2 --seed 49 --n-samples 1500 "
        "--step-budget 17 --ceiling 1 --format csv",
        "443aacd797b2bc4a64c436c6ebbe9bd8fd97c5d90ac34c33df8c78c3f743cc9a",
        id="first-return-csv-budget-17",
    ),
)


@pytest.mark.parametrize("line, digest", GOLDEN_DIGESTS)
def test_seeded_output_matches_golden_digest(capsys, monkeypatch, line, digest):
    # configs such as tests/inner-ab.cfg are named from the repository root
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert main(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
