"""Batch command-line front end.

One config (a file path or ``fixture:NAME``) plus one subcommand per run;
results go to stdout or, with ``--out``, to a file written atomically, whose
path is checked before the command runs. Exit codes: 0 success, 2
configuration problems, 3 convergence or resolution failures, 4 exhausted
sampling budgets, 5 truncation overflow (reserved: the boundary action is
exact and cannot raise it).

The seed is resolved in priority order: ``--seed`` flag, the
``WALKBOUND_SEED`` environment variable, the config's ``run.seed``, else 0.
``--workers`` (at least 1, in every command) parallelizes the path-sampling
commands (walk, entropy-rate); results are identical for every worker count
because path streams are keyed by absolute path index.

Every numeric option is one row of ``_OPTIONS``. Its value is the flag's,
else the config's ``run.<key>``, else the row's default; an integer option
takes only an integral ``run.*`` value. The parser is built from that table
once per process. A ``run.*`` key that no option of any command reads, other
than ``run.seed``, is a configuration error.

A call runs with the cyclic garbage collector paused, as every walk does
(``walk._collector_paused``): a command makes no reference cycles beyond the
few that ``json.dumps`` leaves, so the walk's step data is freed by
refcounting when the call returns, where a collection while the command
formats its output would scan all of it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections.abc import Iterable
from typing import NamedTuple

from .boundary import (
    empirical_hitting_measure,
    first_return_sampler,
    sample_boundary_rays,
    stationarity_residual,
    track_convergence,
)
from .config import (
    RunConfig,
    build_acting_group,
    build_measure,
    named_automorphisms,
    parse_config,
    sublattice_spec,
)
from .errors import (
    BudgetError,
    ConfigError,
    ConvergenceError,
    TruncationError,
    WalkboundError,
)
from .fixtures import fixture_text
from .groups import ModuliSpec, _map_distinct, ball, ext_identity, gauge_length
from .harmonic import CylinderFunction, harmonicity_residual, poisson_eval
from .morphisms import classify_growth
from .tree import (
    build_tree,
    liminf_observers,
    strip_exit_points,
    strip_growth_profile,
)
from .walk import (
    StepMeasure,
    _checked_depths,
    _collector_paused,
    drift_estimate,
    entropy_depth_counts,
    entropy_from_counts,
    merge_batches,
    merge_depth_counts,
    sample_paths,
)
from .words import Word

__all__ = ["main"]


class _Option(NamedTuple):
    """One numeric option of one command.

    Its value is the flag's, else the config's ``run.<config_key>``, else
    ``default``; the default's type is the option's type.
    """

    flag: str
    default: int | float
    help: str = ""
    key: str = ""  # the run.* key, where it is not the flag's name

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")

    @property
    def config_key(self) -> str:
        return self.key or self.dest


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built from ``_OPTIONS`` once per process."""
    parser = argparse.ArgumentParser(
        prog="walkbound",
        description="Random walks on free-group extensions and their boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="config path or fixture:NAME")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
    common.add_argument("--out", default=None, help="output file (atomic write)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--workers", type=int, default=1, help="parallel workers")

    subs = {}
    for name, (_, help_text) in _COMMANDS.items():
        p = subs[name] = sub.add_parser(name, parents=[common], help=help_text)
        for opt in _OPTIONS[name]:
            note = f"{opt.help}; " if opt.help else ""
            p.add_argument(
                opt.flag,
                type=type(opt.default),
                help=f"{note}default {opt.default}, config run.{opt.config_key}",
            )
    subs["walk"].add_argument("--record", help="comma list of steps to snapshot")
    subs["hitting"].add_argument(
        "--at-returns",
        action="store_true",
        help="subsample at first returns to the configured sublattice",
    )
    subs["entropy-rate"].add_argument("--depths", help="comma list, e.g. 8,12,16")
    subs["tree-liminf"].add_argument("--base", default="1", help="base vertex word")
    subs["tree-liminf"].add_argument(
        "--vertices", required=True, help="comma list of vertex words"
    )
    subs["tree-strips"].add_argument("--from-vertex", required=True, help="strip endpoint word")
    subs["tree-strips"].add_argument("--to-vertex", required=True, help="strip endpoint word")
    subs["poisson"].add_argument("--function", help="CSV of cylinder,value rows")
    return parser


def _load_config(spec: str) -> RunConfig:
    if spec.startswith("fixture:"):
        return parse_config(fixture_text(spec[len("fixture:"):]))
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {spec!r}: {exc}") from exc
    return parse_config(text)


def _resolve_seed(args: argparse.Namespace, config: RunConfig) -> int:
    """The first seed set of ``--seed``, ``WALKBOUND_SEED`` and ``run.seed``, else 0.

    A negative seed is rejected with its source named.
    """
    env = os.environ.get("WALKBOUND_SEED")
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        try:
            seed, source = int(env), "WALKBOUND_SEED"
        except ValueError as exc:
            raise ConfigError(f"WALKBOUND_SEED must be an integer, got {env!r}") from exc
    else:
        seed, source = _run_value(config, "seed", 0), "run.seed"
    if seed < 0:
        raise ConfigError(f"expected non-negative integer seed from {source}, got {seed}")
    return seed


def _run_value(config: RunConfig, key: str, default: int | float) -> int | float:
    """The config's ``run.<key>``, else ``default``, as the default's type."""
    value = config.param(key)
    if value is None:
        return default
    if isinstance(default, float):
        return float(value)
    if not isinstance(value, int):
        raise ConfigError(f"run.{key} must be an integer, got {value!r}")
    return value


def _resolve_options(args: argparse.Namespace, config: RunConfig) -> None:
    """Fill each numeric option the command line left unset.

    A ``run.*`` key that no command's option reads, other than ``seed``, is
    rejected, so a misspelt key cannot fall back to a default unnoticed.
    """
    known = {"seed"} | {opt.config_key for rows in _OPTIONS.values() for opt in rows}
    for key, _ in config.params:
        if key not in known:
            raise ConfigError(f"unknown config key run.{key}: no command reads it")
    for opt in _OPTIONS[args.command]:
        if getattr(args, opt.dest) is None:
            setattr(args, opt.dest, _run_value(config, opt.config_key, opt.default))


def _check_output(out_path: str | None) -> None:
    """Reject, before the command runs, an ``--out`` path that is a directory or lies in none."""
    if out_path is None:
        return
    if os.path.isdir(out_path):
        raise ConfigError(f"cannot write output {out_path!r}: it is a directory")
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write output {out_path!r}: no directory {parent!r}")


def _write_output(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = f"{out_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        # a missing directory, or a directory at out_path: leave no temp file
        if os.path.exists(tmp):
            os.remove(tmp)
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


# What a command returns: its JSON payload, its CSV header and its CSV rows.
# The rows are lazy, so they are built only when ``--format csv`` prints them.
_Output = tuple[dict, list[str], Iterable]


def _csv_text(header: list[str], rows: Iterable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _kv_rows(payload: dict) -> _Output:
    """A payload whose CSV form is one key,value row per key."""
    return payload, ["key", "value"], ([key, payload[key]] for key in sorted(payload))


def _split_counts(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (first, count) chunks tiling range(total)."""
    workers = max(1, min(workers, total))
    base, extra = divmod(total, workers)
    chunks = []
    first = 0
    for i in range(workers):
        count = base + (1 if i < extra else 0)
        chunks.append((first, count))
        first += count
    return chunks


def _fan_out(workers: int, sample, merge, measure, seed: int, n_paths: int, *args):
    """``sample(measure, seed, n_paths, *args)``, split over worker processes.

    Each worker samples one contiguous chunk of paths (``first_path``) and
    ``merge`` joins the parts; path streams are keyed by absolute index, so
    the result does not depend on the split. One chunk runs in this process,
    without importing the pool (about 20 ms of a fresh process's start).
    """
    chunks = _split_counts(n_paths, workers)
    if len(chunks) == 1:
        return sample(measure, seed, n_paths, *args)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(sample, measure, seed, count, *args, first_path=first)
            for first, count in chunks
        ]
        return merge([f.result() for f in futures])


# -- commands -------------------------------------------------------------------


def _cmd_walk(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    acting = measure.acting
    if args.record is not None:
        record = tuple(int(x) for x in args.record.split(","))
    else:
        record = (args.n_steps,)
    batch = _fan_out(
        args.workers, sample_paths, merge_batches, measure, seed,
        args.n_paths, args.n_steps, record,
    )
    drift = drift_estimate(batch)
    payload = {
        "command": "walk",
        "seed": seed,
        "n_paths": args.n_paths,
        "n_steps": args.n_steps,
        "drift": drift.value,
        "drift_stderr": drift.stderr,
    }

    def cells(g):
        return str(g.w), acting.format_part(g.p), gauge_length(g)

    rows = (
        [batch.first_path + i, step, *row]
        for step in sorted(batch.positions)
        for i, row in enumerate(_map_distinct(cells, batch.positions[step]))
    )
    return payload, ["path_id", "step", "w", "p", "gauge_length"], rows


def _return_spec(config: RunConfig, measure: StepMeasure, needed_by: str) -> ModuliSpec:
    """The config's sublattice, which ``needed_by`` reads returns to."""
    if measure.acting.kind == "free":
        raise ConfigError(
            f"{needed_by} on a free acting group needs a permutation kernel, which no "
            "config key builds (PermKernelSpec is library-only)"
        )
    lattice = sublattice_spec(config)
    if lattice is None:
        raise ConfigError(f"{needed_by} needs sublattice.moduli in the config")
    return lattice


def _cmd_hitting(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    lattice = _return_spec(config, measure, "--at-returns") if args.at_returns else None
    estimate = empirical_hitting_measure(
        measure,
        seed,
        args.n_paths,
        args.n_steps,
        args.depth,
        return_lattice=lattice,
        unresolved_ceiling=args.ceiling,
    )
    dist = estimate.distribution
    table = {
        str(Word(dist.rank, key)): freq for key, freq in sorted(dist.table.items())
    }
    payload = {
        "command": "hitting",
        "seed": seed,
        "depth": args.depth,
        "n_paths": args.n_paths,
        "resolved_count": estimate.resolved_count,
        "unresolved_fraction": estimate.unresolved_fraction,
        "cells": len(table),
        "table": table,
    }
    return payload, ["cylinder", "frequency"], table.items()


def _cmd_stationarity(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    source_depth = args.depth + args.pad
    estimate = empirical_hitting_measure(measure, seed, args.n_paths, args.n_steps, source_depth)
    residual = stationarity_residual(
        measure, estimate.distribution, seed, args.n_resample, compare_depth=args.depth
    )
    return _kv_rows(
        {
            "command": "stationarity",
            "seed": seed,
            "depth": args.depth,
            "source_depth": source_depth,
            "n_paths": args.n_paths,
            "n_resample": args.n_resample,
            "unresolved_fraction": estimate.unresolved_fraction,
            "residual": residual,
        }
    )


def _cmd_track(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    if not 1 <= args.burn_in <= args.n_steps:
        raise ConfigError(f"burn_in must be in 1..{args.n_steps}")
    if not 1 <= args.resolve_depth <= args.depth:
        raise ConfigError(f"resolve_depth must be in 1..{args.depth}")
    trace = track_convergence(measure, seed, args.n_paths, args.n_steps, args.depth)
    payload = {
        "command": "track",
        "seed": seed,
        "n_paths": args.n_paths,
        "n_steps": args.n_steps,
        "depth": args.depth,
        "burn_in": args.burn_in,
        "monotone_fraction": trace.monotone_fraction(args.burn_in),
        "median_final_length": trace.median_final_length(),
        "resolved_fraction": trace.resolved_fraction(args.resolve_depth),
        # the boundary action is exact, so no translation is ever truncated
        "truncation_events": 0,
    }
    rows = enumerate(map(int, trace.final_lengths()))
    return payload, ["path_id", "final_length"], rows


def _cmd_growth(args, config: RunConfig, seed: int) -> _Output:
    autos = named_automorphisms(config)
    if not autos:
        raise ConfigError("the config defines no automorphisms to classify")
    reports = {}
    for name in sorted(autos):
        report = classify_growth(autos[name], args.iterations)
        reports[name] = {
            "kind": report.kind,
            "degree_estimate": report.degree_estimate,
            "rate_estimate": report.rate_estimate,
            "iterations_used": report.iterations_used,
            "r2_polynomial": report.r2_polynomial,
            "r2_exponential": report.r2_exponential,
        }
    payload = {"command": "growth", "iterations": args.iterations, "reports": reports}
    rows = (
        [name, rep["kind"], rep["degree_estimate"], rep["rate_estimate"]]
        for name, rep in reports.items()
    )
    return payload, ["name", "kind", "degree", "rate"], rows


def _cmd_moments(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    return _kv_rows(
        {
            "command": "moments",
            "atoms": len(measure),
            "first_moment": measure.first_moment(),
            "log_moment": measure.log_moment(),
            "entropy": measure.entropy(),
        }
    )


def _cmd_entropy_rate(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    depths = (8, 12, 16) if args.depths is None else args.depths.split(",")
    depths = _checked_depths(measure, args.n_paths, depths)
    counts = _fan_out(
        args.workers, entropy_depth_counts, merge_depth_counts, measure, seed, args.n_paths, depths
    )
    estimate = entropy_from_counts(counts, args.n_paths)
    payload = {
        "command": "entropy-rate",
        "seed": seed,
        "n_paths": args.n_paths,
        "value": estimate.value,
        "coverage_flag": estimate.coverage_flag,
        "per_depth": {
            str(d): {"entropy": h, "support": support}
            for d, (h, support) in estimate.per_depth.items()
        },
    }
    rows = (
        [d, h, support] for d, (h, support) in sorted(estimate.per_depth.items())
    )
    return payload, ["depth", "entropy", "support"], rows


def _cmd_first_return(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    acting = measure.acting
    lattice = _return_spec(config, measure, "first-return")
    sample = first_return_sampler(
        measure,
        lattice,
        seed,
        args.n_samples,
        step_budget=args.step_budget,
        failure_ceiling=args.ceiling,
    )
    times = sample.return_times
    payload = {
        "command": "first-return",
        "seed": seed,
        "n_samples": args.n_samples,
        "returned": len(times),
        "failure_fraction": sample.failure_fraction,
        "mean_return_time": sample.mean_return_time(),
        "mean_gauge": sample.mean_gauge(),
        "p_tau_1": sum(1 for t in times if t == 1) / len(times) if times else 0.0,
    }

    def rows():
        parts = _map_distinct(lambda g: (str(g.w), acting.format_part(g.p)), sample.samples)
        for i, ((w, p), t) in enumerate(zip(parts, times)):
            yield [i, t, w, p]

    return payload, ["sample_id", "return_time", "w", "p"], rows()


def _cmd_tree_liminf(args, config: RunConfig, seed: int) -> _Output:
    tree = build_tree(config.rank)
    base = tree.vertex(Word.parse(config.rank, args.base))
    sequence = [
        tree.vertex(Word.parse(config.rank, text.strip()))
        for text in args.vertices.split(",")
    ]
    result = liminf_observers(tree, base, sequence, args.horizon)
    payload = {
        "command": "tree-liminf",
        "kind": result.kind,
        "vertex": str(result.vertex.rep) if result.vertex is not None else None,
        "path": [str(v.rep) for v in result.path],
        "prefix_lengths": list(result.prefix_lengths),
        "horizon": args.horizon,
    }
    return payload, ["position", "vertex"], enumerate(payload["path"])


def _cmd_tree_strips(args, config: RunConfig, seed: int) -> _Output:
    tree = build_tree(config.rank)
    v_from = tree.vertex(Word.parse(config.rank, args.from_vertex))
    v_to = tree.vertex(Word.parse(config.rank, args.to_vertex))
    strip = strip_exit_points(tree, v_from, v_to)
    profile = strip_growth_profile(strip, args.k_max)
    payload = {
        "command": "tree-strips",
        "size": len(strip),
        "counts": list(profile.counts),
        "a_fit": profile.a_fit,
        "b_fit": profile.b_fit,
        "max_residual": profile.max_residual,
        "bound_holds": profile.bound_holds(),
    }
    return payload, ["k", "count"], enumerate(profile.counts, start=1)


def _load_cylinder_function(path: str, rank: int) -> CylinderFunction:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read function file {path!r}: {exc}") from exc
    rows = [row for row in reader if row]
    if rows and [cell.strip().lower() for cell in rows[0]] == ["cylinder", "value"]:
        rows = rows[1:]
    if not rows:
        raise ConfigError(f"function file {path!r} has no rows")
    table = {}
    for row in rows:
        if len(row) != 2:
            raise ConfigError(f"function row {row!r} is not cylinder,value")
        word = Word.parse(rank, row[0].strip())
        table[word.letters] = float(row[1])
    depths = {len(key) for key in table}
    if len(depths) != 1:
        raise ConfigError(f"cylinder words have mixed lengths {sorted(depths)}")
    sup = max(abs(v) for v in table.values())
    return CylinderFunction(rank, depths.pop(), table, sup)


def _cmd_poisson(args, config: RunConfig, seed: int) -> _Output:
    measure = build_measure(config)
    acting = measure.acting
    if args.function is not None:
        fn = _load_cylinder_function(args.function, config.rank)
    else:
        fn = CylinderFunction.indicator(Word(config.rank, (1,)))
    if args.depth < fn.depth:
        raise ConfigError(
            f"sample depth {args.depth} is shallower than the function depth {fn.depth}"
        )
    rays = sample_boundary_rays(measure, seed, args.n_samples, args.depth, args.n_steps)
    at_identity = poisson_eval(acting, fn, ext_identity(acting), rays)
    test_set = ball(acting, args.radius)
    report = harmonicity_residual(measure, fn, rays, test_set)
    payload = {
        "command": "poisson",
        "seed": seed,
        "n_rays": len(rays),
        "function_depth": fn.depth,
        "value_at_identity": at_identity.value,
        "stderr_at_identity": at_identity.stderr,
        "test_elements": len(test_set),
        "max_residual": report.max_residual,
        "max_residual_se": report.max_residual_se,
    }
    rows = (
        [str(g.w), acting.format_part(g.p), value, corr, comb]
        for g, (value, corr, comb) in zip(report.elements, report.residuals)
    )
    header = ["element_w", "element_p", "residual", "stderr_correlated", "stderr_combined"]
    return payload, header, rows


# One row per command: its function and its help line.
_COMMANDS = {
    "walk": (_cmd_walk, "sample paths, estimate drift"),
    "hitting": (_cmd_hitting, "empirical boundary law"),
    "stationarity": (_cmd_stationarity, "pushforward residual"),
    "track": (_cmd_track, "prefix convergence trace"),
    "growth": (_cmd_growth, "classify the config twists"),
    "moments": (_cmd_moments, "step-measure summaries"),
    "entropy-rate": (_cmd_entropy_rate, "entropy per step"),
    "first-return": (_cmd_first_return, "sublattice returns"),
    "tree-liminf": (_cmd_tree_liminf, "observers-topology limit"),
    "tree-strips": (_cmd_tree_strips, "strip growth profile"),
    "poisson": (_cmd_poisson, "harmonic evaluation"),
}

# Every numeric option of every command, declared once: the parser's flags,
# their help and the value each command reads all come from these rows.
_OPTIONS = {
    "walk": (_Option("--n-paths", 1000), _Option("--n-steps", 1000)),
    "hitting": (
        _Option("--n-paths", 20000),
        _Option("--n-steps", 2000),
        _Option("--depth", 2),
        _Option("--ceiling", 0.05, "unresolved ceiling", "unresolved_ceiling"),
    ),
    "stationarity": (
        _Option("--n-paths", 20000),
        _Option("--n-steps", 2000),
        _Option("--depth", 3, "comparison depth"),
        _Option("--pad", 2, "extra letters of source material beyond the comparison depth"),
        _Option("--n-resample", 20000),
    ),
    "track": (
        _Option("--n-paths", 500),
        _Option("--n-steps", 2000),
        _Option("--depth", 56, "tracking cap"),
        _Option("--burn-in", 200),
        _Option("--resolve-depth", 1),
    ),
    "growth": (_Option("--iterations", 30),),
    "moments": (),
    "entropy-rate": (_Option("--n-paths", 100000),),
    "first-return": (
        _Option("--n-samples", 10000),
        _Option("--step-budget", 1024),
        _Option("--ceiling", 0.05, "failure ceiling", "failure_ceiling"),
    ),
    "tree-liminf": (_Option("--horizon", 30),),
    "tree-strips": (_Option("--k-max", 12),),
    "poisson": (
        _Option("--n-samples", 20000),
        _Option("--n-steps", 2000),
        _Option("--depth", 5, "boundary sample depth"),
        _Option("--radius", 2, "test-set ball radius"),
    ),
}


@_collector_paused
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        _check_output(args.out)
        config = _load_config(args.config)
        seed = _resolve_seed(args, config)
        _resolve_options(args, config)
        payload, header, rows = _COMMANDS[args.command][0](args, config, seed)
        if args.format == "csv":
            text = _csv_text(header, rows)
        else:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_output(args.out, text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except WalkboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
