"""Run every workload and print the end-to-end metrics side by side.

    python3 bench/summary.py [--seeds N] [--write-baseline]

For each workload, ``run.py`` runs untraced once per seed (seeds 1 to N,
default 1) and once traced at seed 1, each for ``run_seconds`` from
``BENCHMARK.json`` and each in its own process. The table shows, per
workload, the median over seeds of ``setup_s``, ``wall_s``, ``cpu_s`` and
``peak_rss_mib``, ``error_rate`` (failed over attempted operations of all
runs) and the traced run's ``trace.overhead_s``; with more than one seed it
adds each metric's quartile distance over its median, the spread that the
benchmark's bounds are set against. ``--write-baseline`` writes the same
figures, with every run's values, the traced run's per-layer metrics and
the provenance, to ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
TRACED_SEED = 1
PROVENANCE_KEYS = ("git_commit", "source_sha256", "python", "numpy", "nproc", "affinity")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    provenance = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def aggregate(values: list[float]) -> dict:
    median = statistics.median(values)
    entry = {"median": median, "runs": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / median)
    return entry


def measure(workload: str, seeds: list[int], seconds: int) -> dict:
    runs = [(seed, *run(workload, seed, seconds, 0)) for seed in seeds]
    traced, _ = run(workload, TRACED_SEED, seconds, 1)
    units = {k: v["unit"] for k, v in runs[0][1]["metrics"].items()}
    end_to_end = {
        name: {"unit": unit, **aggregate([r["metrics"][name]["value"] for _, r, _ in runs])}
        for name, unit in units.items()
    }
    results = [r for _, r, _ in runs] + [traced]
    return {
        "seeds": seeds,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "load_1min_range": [min(p["load_1min_start"] for _, _, p in runs),
                            max(p["load_1min_end"] for _, _, p in runs)],
        "end_to_end": end_to_end,
        "traced_run": {
            "seed": TRACED_SEED,
            "correct": traced["correct"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        },
        "provenance": {k: runs[0][2][k] for k in PROVENANCE_KEYS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1, help="untraced runs per workload, seeds 1..N")
    parser.add_argument("--write-baseline", action="store_true", help=f"write {BASELINE.name}")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(1, args.seeds + 1))

    print(f"{args.seeds} untraced run(s) per workload (median shown), one traced run, "
          f"{seconds} s each")
    workloads = {}
    for name in WORKLOADS:
        w = workloads[name] = measure(name, seeds, seconds)
        cells = [f"{m} {e['median']:.4f} {e['unit']}"
                 + (f" (spread {e['iqr_over_median']:.3f})" if "iqr_over_median" in e else "")
                 for m, e in w["end_to_end"].items()]
        cells.append(f"error_rate {w['failed'] / w['attempted']:.4g} ratio")
        cells.append(f"trace.overhead_s {w['traced_run']['per_layer']['trace.overhead_s']:.4f} s")
        print(f"{name:<14}" + "  ".join(cells), flush=True)

    if args.write_baseline:
        provenance = next(iter(workloads.values()))["provenance"]
        for w in workloads.values():
            del w["provenance"]
        doc = {
            "description": (
                f"Baseline of the walkbound benchmark, written by bench/summary.py --seeds "
                f"{args.seeds} --write-baseline: {args.seeds} untraced runs per workload (seeds "
                f"1-{args.seeds}, {seconds} s each) and one traced run per workload (seed "
                f"{TRACED_SEED}). End-to-end values are the median and quartiles of the "
                f"untraced runs."
            ),
            "provenance": provenance,
            "workloads": workloads,
        }
        BASELINE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(w["failed"] == 0 for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
