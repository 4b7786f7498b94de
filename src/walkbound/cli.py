"""Batch command-line front end.

One config (a file path or ``fixture:NAME``) plus one subcommand per run;
results go to stdout or, with ``--out``, to a file written atomically. Exit
codes: 0 success, 2 configuration problems, 3 convergence or resolution
failures, 4 exhausted sampling budgets, 5 truncation overflow (reserved: the
boundary action is exact and cannot raise it).

The seed is resolved in priority order: ``--seed`` flag, the
``WALKBOUND_SEED`` environment variable, the config's ``run.seed``, else 0.
``--workers`` (at least 1, in every command) parallelizes the path-sampling
commands (walk, entropy-rate); results are identical for every worker count
because path streams are keyed by absolute path index.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

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
from .groups import ball, ext_identity, gauge_length
from .harmonic import CylinderFunction, harmonicity_residual, poisson_eval
from .morphisms import classify_growth
from .tree import (
    build_tree,
    liminf_observers,
    strip_exit_points,
    strip_growth_profile,
)
from .walk import (
    drift_estimate,
    entropy_depth_counts,
    entropy_from_counts,
    merge_batches,
    merge_depth_counts,
    sample_paths,
)
from .words import Word

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("walk", parents=[common], help="sample paths, estimate drift")
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--record", default=None, help="comma list of steps to snapshot")

    p = sub.add_parser("hitting", parents=[common], help="empirical boundary law")
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--ceiling", type=float, default=None, help="unresolved ceiling")
    p.add_argument(
        "--at-returns",
        action="store_true",
        help="subsample at first returns to the configured sublattice",
    )

    p = sub.add_parser("stationarity", parents=[common], help="pushforward residual")
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--depth", type=int, default=None, help="comparison depth")
    p.add_argument(
        "--pad",
        type=int,
        default=None,
        help="extra letters of source material beyond the comparison depth",
    )
    p.add_argument("--n-resample", type=int, default=None)

    p = sub.add_parser("track", parents=[common], help="prefix convergence trace")
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--depth", type=int, default=None, help="tracking cap")
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--resolve-depth", type=int, default=None)

    p = sub.add_parser("growth", parents=[common], help="classify the config twists")
    p.add_argument("--iterations", type=int, default=None)

    p = sub.add_parser("moments", parents=[common], help="step-measure summaries")

    p = sub.add_parser("entropy-rate", parents=[common], help="entropy per step")
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--depths", default=None, help="comma list, e.g. 8,12,16")

    p = sub.add_parser("first-return", parents=[common], help="sublattice returns")
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--step-budget", type=int, default=None)
    p.add_argument("--ceiling", type=float, default=None, help="failure ceiling")

    p = sub.add_parser("tree-liminf", parents=[common], help="observers-topology limit")
    p.add_argument("--base", default="1", help="base vertex word")
    p.add_argument("--vertices", required=True, help="comma list of vertex words")
    p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("tree-strips", parents=[common], help="strip growth profile")
    p.add_argument("--from-vertex", required=True, help="strip endpoint word")
    p.add_argument("--to-vertex", required=True, help="strip endpoint word")
    p.add_argument("--k-max", type=int, default=None)

    p = sub.add_parser("poisson", parents=[common], help="harmonic evaluation")
    p.add_argument("--function", default=None, help="CSV of cylinder,value rows")
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--depth", type=int, default=None, help="boundary sample depth")
    p.add_argument("--radius", type=int, default=None, help="test-set ball radius")

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
    if args.seed is not None:
        return args.seed
    env = os.environ.get("WALKBOUND_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"WALKBOUND_SEED must be an integer, got {env!r}") from exc
    from_config = config.param("seed")
    if from_config is not None:
        return int(from_config)
    return 0


def _pick(flag_value, config: RunConfig, name: str, default):
    """Flag beats config run.* beats the built-in default."""
    if flag_value is not None:
        return flag_value
    from_config = config.param(name)
    if from_config is not None:
        if isinstance(default, int):
            return int(from_config)
        return from_config
    return default


def _write_output(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = f"{out_path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, out_path)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _kv_csv(payload: dict) -> str:
    rows = [[key, payload[key]] for key in sorted(payload)]
    return _csv_text(["key", "value"], rows)


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
    the result does not depend on the split. One chunk runs in this process.
    """
    chunks = _split_counts(n_paths, workers)
    if len(chunks) == 1:
        return sample(measure, seed, n_paths, *args)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            pool.submit(sample, measure, seed, count, *args, first_path=first)
            for first, count in chunks
        ]
        return merge([f.result() for f in futures])


# -- commands -------------------------------------------------------------------


def _cmd_walk(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    acting = measure.acting
    n_paths = _pick(args.n_paths, config, "n_paths", 1000)
    n_steps = _pick(args.n_steps, config, "n_steps", 1000)
    if args.record is not None:
        record = tuple(int(x) for x in args.record.split(","))
    else:
        record = (n_steps,)
    batch = _fan_out(
        args.workers, sample_paths, merge_batches, measure, seed, n_paths, n_steps, record
    )
    drift = drift_estimate(batch)
    payload = {
        "command": "walk",
        "seed": seed,
        "n_paths": n_paths,
        "n_steps": n_steps,
        "drift": drift.value,
        "drift_stderr": drift.stderr,
    }
    if args.format != "csv":
        # final words run to thousands of letters; format them only when printed
        return _json_text(payload), ""
    rows = []
    for step in sorted(batch.positions):
        for i, g in enumerate(batch.positions[step]):
            rows.append(
                [
                    batch.first_path + i,
                    step,
                    str(g.w),
                    acting.format_part(g.p),
                    gauge_length(g),
                ]
            )
    csv_out = _csv_text(["path_id", "step", "w", "p", "gauge_length"], rows)
    return _json_text(payload), csv_out


def _cmd_hitting(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    n_paths = _pick(args.n_paths, config, "n_paths", 20000)
    n_steps = _pick(args.n_steps, config, "n_steps", 2000)
    depth = _pick(args.depth, config, "depth", 2)
    ceiling = _pick(args.ceiling, config, "unresolved_ceiling", 0.05)
    lattice = None
    if args.at_returns:
        lattice = sublattice_spec(config)
        if lattice is None:
            raise ConfigError("--at-returns needs sublattice.moduli in the config")
    estimate = empirical_hitting_measure(
        measure,
        seed,
        n_paths,
        n_steps,
        depth,
        return_lattice=lattice,
        unresolved_ceiling=ceiling,
    )
    dist = estimate.distribution
    table = {
        str(Word(dist.rank, key)): freq for key, freq in sorted(dist.table.items())
    }
    payload = {
        "command": "hitting",
        "seed": seed,
        "depth": depth,
        "n_paths": n_paths,
        "resolved_count": estimate.resolved_count,
        "unresolved_fraction": estimate.unresolved_fraction,
        "cells": len(table),
        "table": table,
    }
    rows = [[cyl, freq] for cyl, freq in table.items()]
    return _json_text(payload), _csv_text(["cylinder", "frequency"], rows)


def _cmd_stationarity(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    depth = _pick(args.depth, config, "depth", 3)
    pad = _pick(args.pad, config, "pad", 2)
    n_paths = _pick(args.n_paths, config, "n_paths", 20000)
    n_steps = _pick(args.n_steps, config, "n_steps", 2000)
    n_resample = _pick(args.n_resample, config, "n_resample", 20000)
    estimate = empirical_hitting_measure(measure, seed, n_paths, n_steps, depth + pad)
    residual = stationarity_residual(
        measure, estimate.distribution, seed, n_resample, compare_depth=depth
    )
    payload = {
        "command": "stationarity",
        "seed": seed,
        "depth": depth,
        "source_depth": depth + pad,
        "n_paths": n_paths,
        "n_resample": n_resample,
        "unresolved_fraction": estimate.unresolved_fraction,
        "residual": residual,
    }
    return _json_text(payload), _kv_csv(payload)


def _cmd_track(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    n_paths = _pick(args.n_paths, config, "n_paths", 500)
    n_steps = _pick(args.n_steps, config, "n_steps", 2000)
    depth = _pick(args.depth, config, "depth", 56)
    burn_in = _pick(args.burn_in, config, "burn_in", 200)
    resolve_depth = _pick(args.resolve_depth, config, "resolve_depth", 1)
    if not 1 <= burn_in <= n_steps:
        raise ConfigError(f"burn_in must be in 1..{n_steps}")
    if not 1 <= resolve_depth <= depth:
        raise ConfigError(f"resolve_depth must be in 1..{depth}")
    trace = track_convergence(measure, seed, n_paths, n_steps, depth)
    payload = {
        "command": "track",
        "seed": seed,
        "n_paths": n_paths,
        "n_steps": n_steps,
        "depth": depth,
        "burn_in": burn_in,
        "monotone_fraction": trace.monotone_fraction(burn_in),
        "median_final_length": trace.median_final_length(),
        "resolved_fraction": trace.resolved_fraction(resolve_depth),
        "truncation_events": trace.truncation_events,
    }
    rows = [[i, int(x)] for i, x in enumerate(trace.final_lengths())]
    return _json_text(payload), _csv_text(["path_id", "final_length"], rows)


def _cmd_growth(args, config: RunConfig, seed: int) -> tuple[str, str]:
    iterations = _pick(args.iterations, config, "iterations", 30)
    autos = named_automorphisms(config)
    if not autos:
        raise ConfigError("the config defines no automorphisms to classify")
    reports = {}
    for name in sorted(autos):
        report = classify_growth(autos[name], iterations)
        reports[name] = {
            "kind": report.kind,
            "degree_estimate": report.degree_estimate,
            "rate_estimate": report.rate_estimate,
            "iterations_used": report.iterations_used,
            "r2_polynomial": report.r2_polynomial,
            "r2_exponential": report.r2_exponential,
        }
    payload = {"command": "growth", "iterations": iterations, "reports": reports}
    rows = [
        [name, rep["kind"], rep["degree_estimate"], rep["rate_estimate"]]
        for name, rep in sorted(reports.items())
    ]
    return _json_text(payload), _csv_text(["name", "kind", "degree", "rate"], rows)


def _cmd_moments(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    payload = {
        "command": "moments",
        "atoms": len(measure),
        "first_moment": measure.first_moment(),
        "log_moment": measure.log_moment(),
        "entropy": measure.entropy(),
    }
    return _json_text(payload), _kv_csv(payload)


def _cmd_entropy_rate(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    n_paths = _pick(args.n_paths, config, "n_paths", 100000)
    if args.depths is not None:
        depths = tuple(int(x) for x in args.depths.split(","))
    else:
        depths = (8, 12, 16)
    depths = tuple(sorted(set(depths)))
    if not depths or depths[0] < 1:
        raise ConfigError("need at least one positive depth")
    counts = _fan_out(
        args.workers, entropy_depth_counts, merge_depth_counts, measure, seed, n_paths, depths
    )
    estimate = entropy_from_counts(counts, n_paths)
    payload = {
        "command": "entropy-rate",
        "seed": seed,
        "n_paths": n_paths,
        "value": estimate.value,
        "coverage_flag": estimate.coverage_flag,
        "per_depth": {
            str(d): {"entropy": h, "support": support}
            for d, (h, support) in estimate.per_depth.items()
        },
    }
    rows = [
        [d, h, support]
        for d, (h, support) in sorted(estimate.per_depth.items())
    ]
    return _json_text(payload), _csv_text(["depth", "entropy", "support"], rows)


def _cmd_first_return(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    acting = measure.acting
    lattice = sublattice_spec(config)
    if lattice is None:
        raise ConfigError("first-return needs sublattice.moduli in the config")
    n_samples = _pick(args.n_samples, config, "n_samples", 10000)
    step_budget = _pick(args.step_budget, config, "step_budget", 1024)
    ceiling = _pick(args.ceiling, config, "failure_ceiling", 0.05)
    sample = first_return_sampler(
        measure,
        lattice,
        seed,
        n_samples,
        step_budget=step_budget,
        failure_ceiling=ceiling,
    )
    times = sample.return_times
    payload = {
        "command": "first-return",
        "seed": seed,
        "n_samples": n_samples,
        "returned": len(times),
        "failure_fraction": sample.failure_fraction,
        "mean_return_time": sample.mean_return_time(),
        "mean_gauge": sample.mean_gauge(),
        "p_tau_1": sum(1 for t in times if t == 1) / len(times) if times else 0.0,
    }
    rows = [
        [i, t, str(g.w), acting.format_part(g.p)]
        for i, (g, t) in enumerate(zip(sample.samples, times))
    ]
    return _json_text(payload), _csv_text(["sample_id", "return_time", "w", "p"], rows)


def _cmd_tree_liminf(args, config: RunConfig, seed: int) -> tuple[str, str]:
    tree = build_tree(config.rank)
    base = tree.vertex(Word.parse(config.rank, args.base))
    horizon = _pick(args.horizon, config, "horizon", 30)
    sequence = [
        tree.vertex(Word.parse(config.rank, text.strip()))
        for text in args.vertices.split(",")
    ]
    result = liminf_observers(tree, base, sequence, horizon)
    payload = {
        "command": "tree-liminf",
        "kind": result.kind,
        "vertex": str(result.vertex.rep) if result.vertex is not None else None,
        "path": [str(v.rep) for v in result.path],
        "prefix_lengths": list(result.prefix_lengths),
        "horizon": horizon,
    }
    rows = [[i, str(v.rep)] for i, v in enumerate(result.path)]
    return _json_text(payload), _csv_text(["position", "vertex"], rows)


def _cmd_tree_strips(args, config: RunConfig, seed: int) -> tuple[str, str]:
    tree = build_tree(config.rank)
    v_from = tree.vertex(Word.parse(config.rank, args.from_vertex))
    v_to = tree.vertex(Word.parse(config.rank, args.to_vertex))
    k_max = _pick(args.k_max, config, "k_max", 12)
    strip = strip_exit_points(tree, v_from, v_to)
    profile = strip_growth_profile(strip, k_max)
    payload = {
        "command": "tree-strips",
        "size": len(strip),
        "counts": list(profile.counts),
        "a_fit": profile.a_fit,
        "b_fit": profile.b_fit,
        "max_residual": profile.max_residual,
        "bound_holds": profile.bound_holds(),
    }
    rows = [[k, c] for k, c in enumerate(profile.counts, start=1)]
    return _json_text(payload), _csv_text(["k", "count"], rows)


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


def _cmd_poisson(args, config: RunConfig, seed: int) -> tuple[str, str]:
    measure = build_measure(config)
    acting = measure.acting
    n_samples = _pick(args.n_samples, config, "n_samples", 20000)
    n_steps = _pick(args.n_steps, config, "n_steps", 2000)
    depth = _pick(args.depth, config, "depth", 5)
    radius = _pick(args.radius, config, "radius", 2)
    if args.function is not None:
        fn = _load_cylinder_function(args.function, config.rank)
    else:
        fn = CylinderFunction.indicator(Word(config.rank, (1,)))
    if depth < fn.depth:
        raise ConfigError(
            f"sample depth {depth} is shallower than the function depth {fn.depth}"
        )
    rays = sample_boundary_rays(measure, seed, n_samples, depth, n_steps)
    at_identity = poisson_eval(acting, fn, ext_identity(acting), rays)
    test_set = ball(acting, radius)
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
    rows = [
        [str(g.w), acting.format_part(g.p), value, corr, comb]
        for g, (value, corr, comb) in zip(report.elements, report.residuals)
    ]
    csv_out = _csv_text(
        ["element_w", "element_p", "residual", "stderr_correlated", "stderr_combined"],
        rows,
    )
    return _json_text(payload), csv_out


_COMMANDS = {
    "walk": _cmd_walk,
    "hitting": _cmd_hitting,
    "stationarity": _cmd_stationarity,
    "track": _cmd_track,
    "growth": _cmd_growth,
    "moments": _cmd_moments,
    "entropy-rate": _cmd_entropy_rate,
    "first-return": _cmd_first_return,
    "tree-liminf": _cmd_tree_liminf,
    "tree-strips": _cmd_tree_strips,
    "poisson": _cmd_poisson,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        config = _load_config(args.config)
        seed = _resolve_seed(args, config)
        json_out, csv_out = _COMMANDS[args.command](args, config, seed)
        _write_output(args.out, csv_out if args.format == "csv" else json_out)
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
