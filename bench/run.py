"""The walkbound benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs building. One run
repeats *rounds* of the workload (see ``workloads.py``), each in a fresh
child process and each with the same seeded commands, until ``--seconds``
have passed and at least ``MEASURED_ROUNDS`` rounds have run. The metrics
come from the first ``MEASURED_ROUNDS`` rounds only, so every run, on any
commit, measures the same number of rounds; later rounds serve the
determinism check. Afterwards, outside the timed loop, it

* checks every output (``checks.py``) and requires every round to give the
  same bytes for every command;
* runs the ``walk`` and ``entropy-rate`` commands at ``--workers 2``, which
  must give the same bytes as ``--workers 1``;
* if some measured rounds failed, starts children that only set up, until
  ``setup_s`` has ``MEASURED_ROUNDS`` samples.

With ``--trace 0`` the result holds the end-to-end metrics, the timed ones
scaled by the host's speed during the run (``host_probe``); with
``--trace 1`` every other round runs traced (``tracing.py``) and the result
holds the per-layer metrics, means per traced round, and the tracing
overhead, taken over the first ``TRACE_MEASURED_ROUNDS`` rounds of each
kind. Human-readable lines come first; the last line of standard output is
the JSON result. Each child runs under an address-space and CPU-time
limit and a wall-clock ceiling, so a runaway command fails its operation
instead of the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SPLIT_INVARIANT, WORKLOADS, fixture_of, option

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
TRACE_DIR = ROOT / ".bench_trace"

AS_BYTES = 2 << 30  # address-space ceiling per child
CPU_SECONDS = 120  # CPU-time ceiling per child
CHILD_WALL_S = 60.0  # wall-clock ceiling per child
LOOP_CAP_S = 100.0  # no new round starts after this; the run ends within 180 s
RUN_CAP_S = 160.0
MEASURED_ROUNDS = 12  # untraced rounds that give the end-to-end metrics
# host_probe() is as long as a typical command, so that the fastest of its
# MEASURED_ROUNDS runs sees the host as the fastest round of a command does
PROBE_LOOPS = 800_000
# host_probe()'s usual fastest time in a run on the 2-core Xeon VM the bounds
# were set on; the timed metrics are scaled to a host where it takes this long
PROBE_REF_S = 0.135
TRACE_MEASURED_ROUNDS = 4  # traced and untraced rounds that give trace.overhead_s
COMMANDS = ("walk", "entropy-rate", "first-return", "track", "hitting", "stationarity", "poisson", "growth")


@dataclass
class Child:
    t_spawn: float
    records: list[dict]
    returncode: int | None
    stderr: str
    killed: bool

    def setup_s(self) -> float | None:
        ready = [r["t_ready"] for r in self.records if r["kind"] == "setup"]
        return ready[0] - self.t_spawn if ready else None

    def ops(self) -> dict[int, dict]:
        return {r["i"]: r for r in self.records if r["kind"] == "op"}

    def end(self) -> dict | None:
        ends = [r for r in self.records if r["kind"] == "end"]
        return ends[0] if ends else None


@dataclass
class Round:
    index: int
    traced: bool
    child: Child
    n_commands: int
    complete: bool = field(init=False)

    def __post_init__(self) -> None:
        ops = self.child.ops()
        self.complete = self.child.end() is not None and all(
            i in ops and ops[i]["error"] is None for i in range(self.n_commands)
        )

    def total(self, key: str) -> float:
        return sum(op[key] for op in self.child.ops().values())

    def peak_rss_mib(self) -> float:
        return self.child.end()["maxrss_kib"] / 1024.0


def run_child(request: dict, timeout: float) -> Child:
    """Start ``child.py``, wait for it (killing its group at the ceiling)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("WALKBOUND_SEED", None)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    killed = False
    try:
        out, err = proc.communicate(json.dumps(request), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        killed = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return Child(t_spawn, records, proc.returncode, err, killed)


def request(fixtures, commands, *, trace=False, spans=None, round_index=0) -> dict:
    return {
        "fixtures": list(fixtures),
        "commands": commands,
        "trace": trace,
        "spans": spans,
        "round": round_index,
        "as_bytes": AS_BYTES,
        "cpu_seconds": CPU_SECONDS,
    }


def provenance(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "walkbound").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
    }


def requested_work(commands) -> dict[str, int]:
    """Paths and steps the command list asks for, per round."""
    work = {"walk.paths": 0, "walk.steps": 0, "boundary.paths": 0}
    for argv in commands:
        if argv[0] == "walk":
            n = int(option(argv, "--n-paths"))
            work["walk.paths"] += n
            work["walk.steps"] += n * int(option(argv, "--n-steps"))
        elif argv[0] == "entropy-rate":
            n = int(option(argv, "--n-paths"))
            work["walk.paths"] += n
            work["walk.steps"] += n * max(int(d) for d in option(argv, "--depths").split(","))
        elif argv[0] in ("hitting", "stationarity", "track"):
            work["boundary.paths"] += int(option(argv, "--n-paths"))
        elif argv[0] in ("poisson", "first-return"):
            work["boundary.paths"] += int(option(argv, "--n-samples"))
    return work


def layer_metrics(stats: dict, counts: dict, outputs: int, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as means per traced round."""
    from tracing import layer_of

    def calls(name):
        return stats.get(name, [0] * 5)[0] / rounds

    def incl(name):
        return stats.get(name, [0] * 5)[1] / rounds

    def self_s(*names):
        return sum(stats.get(n, [0] * 5)[2] for n in names) / rounds

    def span_self(name):
        return stats.get(name, [0] * 5)[3] / rounds

    def layer(name):
        return sum(s[2] for n, s in stats.items() if layer_of(n) == name) / rounds

    def count(key):
        return counts.get(key, 0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    streams = calls("_rng.derived_rng")
    steps = count("walk.steps")
    twist_calls = calls("groups.ActingGroup.twist_letters")
    apply = ("morphisms.Automorphism.apply", "morphisms.Automorphism.apply_inverse",
             "morphisms.Automorphism.apply_letters")
    act = ("boundary.act_on_ray", "boundary.act_on_ray.from_harmonic")
    m = {
        "config.parse_s": (incl("config.parse_config"), "s"),
        "config.build_measure_s": (incl("config.build_measure"), "s"),
        "config.self_s": (layer("config"), "s"),
        "rng.streams": (streams, "count"),
        "rng.self_s": (layer("_rng"), "s"),
        "rng.us_per_stream": (1e6 * ratio(layer("_rng"), streams), "us"),
        "walk.paths": (count("walk.paths"), "count"),
        "walk.steps": (steps, "count"),
        "walk.draw_s": (incl("walk.StepMeasure.draw_indices"), "s"),
        "walk.self_s": (layer("walk"), "s"),
        "walk.ns_per_step": (
            1e9 * ratio(span_self("walk._run_one_path") + span_self("walk.entropy_depth_counts"), steps),
            "ns",
        ),
        "groups.twist.calls": (twist_calls, "count"),
        "groups.twist.misses": (count("groups.twist.misses"), "count"),
        "groups.twist.hit_ratio": (1.0 - ratio(count("groups.twist.misses"), twist_calls) if twist_calls else 0.0, "ratio"),
        "groups.twist.self_s": (self_s("groups.ActingGroup.twist_letters"), "s"),
        "groups.twist.cache_letters": (count("groups.twist.cache_letters"), "letters"),
        "groups.aut.calls": (calls("groups.ActingGroup.automorphism_for"), "count"),
        "groups.aut.misses": (count("groups.aut.misses"), "count"),
        "groups.aut.self_s": (self_s("groups.ActingGroup.automorphism_for"), "s"),
        "groups.aut.cache_letters": (count("groups.aut.cache_letters"), "letters"),
        "groups.part_multiply.self_s": (self_s("groups.ActingGroup.part_multiply"), "s"),
        "groups.self_s": (layer("groups"), "s"),
        "morphisms.apply.calls": (sum(calls(n) for n in apply), "count"),
        "morphisms.apply.letters_out": (count("morphisms.apply.letters_out"), "letters"),
        "morphisms.apply.self_s": (self_s(*apply), "s"),
        "morphisms.compose.calls": (calls("morphisms.Automorphism.compose"), "count"),
        "morphisms.compose.self_s": (self_s("morphisms.Automorphism.compose"), "s"),
        "morphisms.boundary_apply.calls": (calls("morphisms.boundary_apply"), "count"),
        "morphisms.boundary_apply.self_s": (self_s("morphisms.boundary_apply"), "s"),
        "morphisms.truncations": (stats.get("morphisms.boundary_apply", [0] * 5)[4] / rounds, "count"),
        "morphisms.classify_growth_s": (incl("morphisms.classify_growth"), "s"),
        "morphisms.self_s": (layer("morphisms"), "s"),
        "words.constructed": (calls("words.Word.__post_init__"), "count"),
        "words.mul.calls": (calls("words.Word.__mul__"), "count"),
        "words.self_s": (layer("words"), "s"),
        "boundary.paths": (count("boundary.paths"), "count"),
        "boundary.resolved_ratio": (
            ratio(count("boundary.resolve.resolved"), count("boundary.resolve.attempted")),
            "ratio",
        ),
        "boundary.self_s": (layer("boundary"), "s"),
        "boundary.act_on_ray.calls": (sum(calls(n) for n in act), "count"),
        "boundary.act_on_ray.self_s": (self_s(*act), "s"),
        "boundary.stationarity_s": (incl("boundary.stationarity_residual"), "s"),
        "boundary.track_s": (incl("boundary.track_convergence"), "s"),
        "boundary.first_return_s": (incl("boundary.first_return_sampler"), "s"),
        "harmonic.poisson_eval.calls": (calls("harmonic.poisson_eval"), "count"),
        "harmonic.translations": (calls("boundary.act_on_ray.from_harmonic"), "count"),
        "harmonic.self_s": (layer("harmonic"), "s"),
    }
    for command in COMMANDS:
        m[f"cli.{command}_s"] = (incl(f"cli.{command}"), "s")
    m["cli.self_s"] = (layer("cli"), "s")
    m["cli.output_bytes"] = (outputs / rounds, "bytes")
    return m


def best(rounds: list[Round], key: str) -> float:
    """Sum over commands of each command's fastest round.

    The caller passes a fixed number of rounds: a minimum over more draws is
    lower, so a count that grew with speed would favour faster code.

    Rounds repeat identical work, so the spread between them is the host's:
    on a shared 2-core VM the same Python loop runs up to 1.5x slower for
    seconds to minutes at a time, which moves a median over a run's rounds
    by 30% from run to run. Each command's fastest round is the least
    disturbed measurement of it.
    """
    ops = [rd.child.ops() for rd in rounds]
    return sum(min(o[i][key] for o in ops) for i in range(rounds[0].n_commands))


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that runs none of walkbound's code.

    The parent runs it between rounds, when no child is alive, so only the
    host's speed moves it: the program under test cannot.
    """
    t = time.perf_counter()
    d = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        d[i & 1023] = (i, acc)
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t


def spread(values: list[float]) -> str:
    if not values:
        return "no samples"
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/walkbound/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a walkbound checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import Checker

    t0 = time.monotonic()
    load_start = os.getloadavg()[0]
    workload = WORKLOADS[args.workload]
    commands = workload.seeded(args.seed)
    trace = bool(args.trace)
    spans_path = None
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"{workload.name}.spans.tsv"
        spans_path.write_text("round\top\tname\tstart\tend\tspan\tparent\n")

    # -- timed loop: every round repeats the same commands in a fresh child ------
    rounds: list[Round] = []
    probes: list[float] = []  # one per round, taken after it
    deadline = t0 + args.seconds
    min_rounds = 2 * TRACE_MEASURED_ROUNDS if trace else MEASURED_ROUNDS
    while len(rounds) < min_rounds or time.monotonic() < deadline:
        if time.monotonic() - t0 > LOOP_CAP_S:
            break
        r = len(rounds)
        traced = trace and r % 2 == 0
        child = run_child(
            request(workload.fixtures, commands, trace=traced,
                    spans=str(spans_path) if traced else None, round_index=r),
            min(CHILD_WALL_S, RUN_CAP_S - (time.monotonic() - t0)),
        )
        rounds.append(Round(r, traced, child, len(commands)))
        probes.append(host_probe())
    loop_s = time.monotonic() - t0

    # -- untimed: more set-up samples, the worker-split run -----------------------
    setups = [s for rd in rounds if not rd.traced and (s := rd.child.setup_s()) is not None]
    setups = setups[:MEASURED_ROUNDS]
    while not trace and len(setups) < MEASURED_ROUNDS and time.monotonic() - t0 < LOOP_CAP_S + 20:
        s = run_child(request(workload.fixtures, []), 30).setup_s()
        if s is not None:
            setups.append(s)
    split_of = [i for i, argv in enumerate(commands) if argv[0] in SPLIT_INVARIANT]
    split_ops = run_child(
        request(workload.fixtures, [[*commands[i], "--workers", "2"] for i in split_of]),
        min(CHILD_WALL_S, RUN_CAP_S - (time.monotonic() - t0)),
    ).ops() if split_of else {}

    # -- correctness: checks, determinism across rounds, worker split -------------
    checker = Checker()
    attempted = failed = 0
    failures: list[str] = []
    output_bytes = 0
    reference: dict[int, tuple] = {}  # position -> (exit code, output, verdict) of its first run

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        if len(failures) < 10:
            failures.append(message)

    for rd in rounds:
        ops = rd.child.ops()
        for i, argv in enumerate(commands):
            attempted += 1
            op = ops.get(i)
            label = f"round {rd.index} {' '.join(argv)}"
            if op is None:
                why = "killed at the wall-clock ceiling" if rd.child.killed else (
                    f"child exited {rd.child.returncode}: {rd.child.stderr.strip()[-300:]}")
                fail(f"{label}: no result ({why})")
                continue
            if op["error"] is not None:
                fail(f"{label}: raised {op['error'].strip().splitlines()[-1]}")
                continue
            if rd.traced:
                output_bytes += len(op["out"])
            if i not in reference:
                reference[i] = (op["rc"], op["out"], checker.check(argv, op["rc"], op["out"]))
            if (op["rc"], op["out"]) != reference[i][:2]:
                reason = "exit code or output differs from an earlier round with the same seed"
            else:
                reason = reference[i][2]
            if reason is not None:
                fail(f"{label}: {reason}")
    for j, i in enumerate(split_of):
        attempted += 1
        op = split_ops.get(j)
        label = f"{' '.join(commands[i])} --workers 2"
        if op is None or op["error"] is not None or op["rc"] != 0:
            fail(f"{label}: did not complete")
        elif i not in reference or op["out"] != reference[i][1]:
            fail(f"{label}: output differs from --workers 1")

    # -- metrics ------------------------------------------------------------------
    plain = [rd for rd in rounds if not rd.traced and rd.complete][:MEASURED_ROUNDS]
    if not plain:
        print("error: no round completed; nothing to measure", file=sys.stderr)
        for message in failures:
            print(f"  FAILED {message}", file=sys.stderr)
        return 1
    walls = [rd.total("wall_s") for rd in plain]
    prov = provenance(args.seed)
    prov["load_1min_start"] = load_start
    prov["load_1min_end"] = os.getloadavg()[0]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)} ({len(plain)} untraced complete measured)  loop {loop_s:.1f} s  "
          f"total {time.monotonic() - t0:.1f} s")
    print(f"  why: {workload.why}")
    work = requested_work(commands)
    print("  requested per round: " + ", ".join(f"{k}={v}" for k, v in work.items()))
    print(f"  operations: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4g}")
    for message in failures:
        print(f"  FAILED {message}")

    if not trace:
        values = {
            "setup_s": (statistics.median(setups), setups, "s", "median over child starts"),
            "wall_s": (best(plain, "wall_s"), walls, "s", "sum of per-command best rounds"),
            "cpu_s": (best(plain, "cpu_s"), [rd.total("cpu_s") for rd in plain], "s",
                      "sum of per-command best rounds"),
            "peak_rss_mib": (statistics.median(rss := [rd.peak_rss_mib() for rd in plain]), rss,
                             "MiB", "median over rounds"),
        }
        ops = [rd.child.ops() for rd in plain]
        print("  best wall per command: " + " ".join(
            f"{commands[i][0]}:{fixture_of(commands[i])}={min(o[i]['wall_s'] for o in ops):.4f}"
            for i in range(len(commands))))
        probe = min(probes[rd.index] for rd in plain)
        factor = PROBE_REF_S / probe
        print(f"  host probe: fastest {probe:.5f} s of {len(plain)}; "
              f"setup_s, wall_s and cpu_s are measured x {factor:.4f} "
              f"(reference {PROBE_REF_S} s)")
        print(f"    samples: {' '.join(f'{probes[rd.index]:.4f}' for rd in plain)}")
        metrics = {}
        for name, (value, samples, unit, how) in values.items():
            if unit == "s":
                how = f"{how}, measured {value:.4f} s"
                value *= factor
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<14} {value:10.4f} {unit:<4} {how}; per sample {spread(samples)}")
            print(f"    samples: {' '.join(f'{v:.4f}' for v in samples)}")
    else:
        traced = [rd for rd in rounds if rd.traced and rd.complete and rd.child.end().get("stats")]
        stats: dict = {}
        counts: dict = {}
        mismatch = 0.0
        for rd in traced:
            end = rd.child.end()
            for name, row in end["stats"].items():
                acc = stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
                for k, v in enumerate(row):
                    acc[k] += v
            for key, v in end["counts"].items():
                counts[key] = counts.get(key, 0) + v
            mismatch = max([mismatch] + [op.get("self_sum_error_s", 0.0) for op in rd.child.ops().values()])
        n = max(len(traced), 1)
        layers = layer_metrics(stats, counts, output_bytes, n)
        first = TRACE_MEASURED_ROUNDS
        traced_walls = [rd.total("wall_s") for rd in traced[:first]]
        walls = walls[:first]
        overhead = best(traced[:first], "wall_s") - best(plain[:first], "wall_s") if traced else float("nan")
        layers["trace.overhead_s"] = (overhead, "s")
        print(f"  traced rounds {len(traced)}; traced wall_s {spread(traced_walls)}; "
              f"untraced wall_s {spread(walls)}; overhead {overhead:.4f} s")
        print(f"  per operation, |sum of layer self times - traced time| <= {mismatch:.3g} s")
        print("  boundary.self_s includes the private step-kernel copies in boundary "
              "(_endpoint, the loops of track_convergence and first_return_sampler)")
        if spans_path is not None:
            print(f"  spans: {spans_path.relative_to(ROOT)}")
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}

    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
