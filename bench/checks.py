"""Correctness checks on every command output the benchmark produces.

A command passes when it exits 0, its output parses, the structural
invariants hold (cylinder frequencies sum to 1, unresolved and failure
fractions stay under their ceilings, first-return samples lie in the
sublattice) and, where an exact answer is known, the estimate agrees with
the exact oracles of ``tests/oracles.py``, which are imported, never edited.

Every statistical tolerance comes from the estimator's own sampling error at
the benchmark's size, never from a gate's constant:

* an estimate with a standard error ``se`` may miss its exact value by at
  most ``Z`` standard errors;
* an empirical law over ``n`` samples may be at most ``tv_bound(law, n)``
  from its exact law in total variation. ``0.5 * sum(sqrt(p(1-p)/n))`` bounds
  the expected distance, and since one sample moves the distance by at most
  ``1/n``, McDiarmid's inequality puts the chance of exceeding the bound
  below ``DELTA``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import fixture_of, option

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import (  # noqa: E402
    convolution_law,
    markov_cylinder_table,
    radial_drift_exact,
    srw_entropy_rate,
    two_state_parity_split,
)
from walkbound import Word, build_measure, load_fixture  # noqa: E402

Z = 6.0
DELTA = 1e-9
FREQ_SUM_TOL = 1e-9
DEFAULT_CEILING = 0.05  # the CLI's default unresolved and failure ceilings


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def within(value: float, exact: float, se: float, what: str) -> None:
    require(
        abs(value - exact) <= Z * se,
        f"{what} {value:.6g} is {abs(value - exact) / se if se else math.inf:.1f} SE "
        f"from the exact {exact:.6g} (se {se:.3g}, limit {Z:g} SE)",
    )


def tv_bound(law: dict, n: int) -> float:
    spread = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in law.values())
    return spread + math.sqrt(math.log(1.0 / DELTA) / (2.0 * n))


def tv(empirical: dict, law: dict) -> float:
    keys = set(empirical) | set(law)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - float(law.get(k, 0.0))) for k in keys)


def radial_law(rank: int, n_steps: int) -> np.ndarray:
    """P(|X_n| = r) for the simple random walk on F_rank.

    The same birth-death chain as ``oracles.radial_drift_exact``; the
    checker confirms the two agree on the mean before using the law.
    """
    up = (2 * rank - 1) / (2 * rank)
    probs = np.zeros(n_steps + 1)
    probs[0] = 1.0
    for _ in range(n_steps):
        nxt = np.zeros_like(probs)
        nxt[2:] += probs[1:-1] * up
        nxt[:-1] += probs[1:] * (1.0 - up)
        nxt[1] += probs[0]
        probs = nxt
    mean = float((probs * np.arange(n_steps + 1)).sum()) / n_steps
    require(abs(mean - radial_drift_exact(rank, n_steps)) < 1e-12, "radial law disagrees with the oracle")
    return probs


def entropy_rate_expectation(rank: int, n_paths: int, depths: tuple[int, ...]) -> tuple[float, float]:
    """Exact mean and a standard-error bound of the CLI's entropy-rate value
    for the simple random walk at this sample size.

    At benchmark sizes the deep tables are thinly occupied, so the plug-in
    entropies sit well below ``depth * srw_entropy_rate``; the oracle is only
    approached as ``n_paths`` grows. The mean is therefore taken over the
    estimator itself: every reduced word of length r is equally likely, so
    the expected Miller-Madow plug-in entropy is a sum of binomial
    expectations. The standard error of each depth's entropy is the
    delta-method sd(log p(X_d)) / sqrt(n); the intercept's error is bounded
    by adding those with the absolute least-squares weights.
    """
    n = n_paths
    lg_n = math.lgamma(n + 1)
    means, ses = [], []
    for d in depths:
        law = radial_law(rank, d)
        plug_in = support = info = info2 = 0.0
        for r, mass in enumerate(law):
            if mass <= 0.0:
                continue
            cells = 1 if r == 0 else 2 * rank * (2 * rank - 1) ** (r - 1)
            q = mass / cells
            m = n * q
            k = np.arange(1, min(n, int(m + 12 * math.sqrt(m) + 12)) + 1, dtype=np.float64)
            lgk = np.array([math.lgamma(x + 1) + math.lgamma(n - x + 1) for x in k])
            pmf = np.exp(lg_n - lgk + k * math.log(q) + (n - k) * math.log1p(-q))
            f = k / n
            plug_in += cells * float(np.sum(pmf * -f * np.log(f)))
            support += cells * -math.expm1(n * math.log1p(-q))
            info += mass * -math.log(q)
            info2 += mass * math.log(q) ** 2
        means.append(plug_in + (support - 1.0) / (2.0 * n))
        ses.append(math.sqrt(max(info2 - info**2, 0.0) / n))
    xs = [1.0 / d for d in depths]
    if len(depths) == 1:
        weights = [1.0]
    else:
        xbar = sum(xs) / len(xs)
        sxx = sum((x - xbar) ** 2 for x in xs)
        weights = [1.0 / len(xs) - xbar * (x - xbar) / sxx for x in xs]
    expected = sum(w * h / d for w, h, d in zip(weights, means, depths))
    se = sum(abs(w) * s / d for w, s, d in zip(weights, ses, depths))
    return expected, se


class Checker:
    """Checks outputs; exact laws are computed once per fixture and size."""

    def __init__(self) -> None:
        self._measures: dict = {}
        self._memo: dict = {}

    def measure(self, fixture: str):
        if fixture not in self._measures:
            cfg = load_fixture(fixture)
            self._measures[fixture] = (cfg, build_measure(cfg))
        return self._measures[fixture]

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def check(self, argv: list[str], rc: int | None, out: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        try:
            require(rc == 0, f"exit code {rc}")
            command = argv[0]
            if option(argv, "--format") == "csv":
                rows = list(csv.reader(io.StringIO(out)))
                require(len(rows) >= 1, "empty CSV output")
                payload = {"header": rows[0], "rows": rows[1:]}
            else:
                payload = json.loads(out)
                require(payload.get("command") == command, "JSON names another command")
                if "seed" in payload:
                    require(str(payload["seed"]) == option(argv, "--seed"), "JSON reports another seed")
            getattr(self, "_" + command.replace("-", "_"))(argv, fixture_of(argv), payload)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"
        return None

    # -- per command --------------------------------------------------------------

    def _walk(self, argv, fixture, payload) -> None:
        n_paths = int(option(argv, "--n-paths"))
        n_steps = int(option(argv, "--n-steps"))
        exact_drift = self.memo(("drift", n_steps), lambda: radial_drift_exact(2, n_steps))
        if "rows" not in payload:
            require(payload["n_paths"] == n_paths and payload["n_steps"] == n_steps, "sizes differ")
            if fixture == "srw-f2":
                within(payload["drift"], exact_drift, payload["drift_stderr"], "srw-f2 drift")
            return
        require(payload["header"] == ["path_id", "step", "w", "p", "gauge_length"], "bad CSV header")
        rows = payload["rows"]
        require(len(rows) == n_paths, f"{len(rows)} rows for {n_paths} paths")
        cfg, measure = self.measure(fixture)
        acting = measure.acting
        counts: dict = {}
        for row in rows:
            require(int(row[1]) == n_steps, "row at an unrequested step")
            key = (
                Word.parse(cfg.rank, row[2]).letters,
                acting.part_key(acting.parse_part(row[3])),
            )
            counts[key] = counts.get(key, 0) + 1
        if fixture == "srw-f2":
            drift = np.array([int(row[4]) for row in rows], dtype=np.float64) / n_steps
            se = float(drift.std(ddof=1) / math.sqrt(len(drift)))
            within(float(drift.mean()), exact_drift, se, "srw-f2 drift")
        if n_steps == 2:
            law = self.memo(("convolution", fixture), lambda: convolution_law(measure))
            outside = set(counts) - set(law)
            require(not outside, f"{len(outside)} two-step positions outside the convolution support")
            empirical = {k: c / n_paths for k, c in counts.items()}
            distance, bound = tv(empirical, law), tv_bound(law, n_paths)
            require(
                distance <= bound,
                f"{fixture} two-step law is {distance:.4f} from the convolution (bound {bound:.4f})",
            )

    def _entropy_rate(self, argv, fixture, payload) -> None:
        depths = tuple(sorted({int(d) for d in option(argv, "--depths").split(",")}))
        n_paths = int(option(argv, "--n-paths"))
        require(payload["n_paths"] == n_paths, "sizes differ")
        require(sorted(int(d) for d in payload["per_depth"]) == list(depths), "depths differ")
        if fixture != "srw-f2":
            return
        expected, se = self.memo(
            ("entropy", n_paths, depths), lambda: entropy_rate_expectation(2, n_paths, depths)
        )
        value = payload["value"]
        within(value, expected, se, "srw-f2 entropy rate")
        require(
            value <= srw_entropy_rate(2) + Z * se,
            f"entropy rate {value:.4f} above the exact rate {srw_entropy_rate(2):.4f}",
        )

    def _first_return(self, argv, fixture, payload) -> None:
        require(payload["header"] == ["sample_id", "return_time", "w", "p"], "bad CSV header")
        rows = payload["rows"]
        n_samples = int(option(argv, "--n-samples"))
        budget = int(option(argv, "--step-budget") or 1024)
        cfg, measure = self.measure(fixture)
        acting = measure.acting
        failures = n_samples - len(rows)
        require(failures / n_samples <= DEFAULT_CEILING, f"failure fraction {failures / n_samples:.3f}")
        for row in rows:
            part = acting.parse_part(row[3])
            require(
                all(a % m == 0 for a, m in zip(part, cfg.moduli)),
                f"sample {row[0]} at acting part {row[3]} is outside the sublattice",
            )
            require(1 <= int(row[1]) <= budget, f"return time {row[1]} outside 1..{budget}")
        if fixture == "semidirect-mixed":
            word_mass = sum(
                w for g, w in zip(measure.atoms, measure.weights) if acting.part_is_identity(g.p)
            )
            p1 = two_state_parity_split(word_mass)
            hits = sum(1 for row in rows if row[1] == "1") / len(rows)
            within(hits, p1, math.sqrt(p1 * (1.0 - p1) / len(rows)), "P(tau = 1)")

    def _hitting(self, argv, fixture, payload) -> None:
        depth = int(option(argv, "--depth"))
        n_paths = int(option(argv, "--n-paths"))
        ceiling = float(option(argv, "--ceiling") or DEFAULT_CEILING)
        table = payload["table"]
        _check_law(table, depth)
        unresolved = payload["unresolved_fraction"]
        require(unresolved <= ceiling, f"unresolved fraction {unresolved} above {ceiling}")
        require(
            payload["resolved_count"] == round(n_paths * (1.0 - unresolved)),
            "resolved count disagrees with the unresolved fraction",
        )
        if fixture == "srw-f2":
            law = {
                str(Word(2, k)): float(v)
                for k, v in self.memo(("markov", depth), lambda: markov_cylinder_table(2, depth)).items()
            }
            distance, bound = tv(table, law), tv_bound(law, payload["resolved_count"])
            require(distance <= bound, f"hitting law {distance:.4f} from exact (bound {bound:.4f})")

    def _stationarity(self, argv, fixture, payload) -> None:
        require(payload["unresolved_fraction"] <= DEFAULT_CEILING, "unresolved fraction above ceiling")
        require(0.0 <= payload["residual"] <= 1.0, "residual is not a total-variation distance")

    def _track(self, argv, fixture, payload) -> None:
        for key in ("monotone_fraction", "resolved_fraction"):
            require(0.0 <= payload[key] <= 1.0, f"{key} outside [0, 1]")
        require(payload["n_paths"] == int(option(argv, "--n-paths")), "sizes differ")

    def _poisson(self, argv, fixture, payload) -> None:
        n_samples = int(option(argv, "--n-samples"))
        require(
            payload["n_rays"] >= n_samples * (1.0 - DEFAULT_CEILING),
            f"only {payload['n_rays']} of {n_samples} boundary samples resolved",
        )
        if fixture == "srw-f2":
            # the default function is the indicator of the cylinder of "a"
            mass = float(self.memo(("markov", 1), lambda: markov_cylinder_table(2, 1))[(1,)])
            within(payload["value_at_identity"], mass, payload["stderr_at_identity"], "f(identity)")

    def _growth(self, argv, fixture, payload) -> None:
        if fixture == "fibonacci":
            report = payload["reports"]["phi"]
            require(report["kind"] == "Exponential", f"fibonacci twist classified {report['kind']}")


def _check_law(table: dict, depth: int) -> None:
    require(table, "empty cylinder table")
    require(all(len(key) == depth for key in table), "cylinder of the wrong depth")
    require(all(freq >= 0.0 for freq in table.values()), "negative frequency")
    total = math.fsum(table.values())
    require(abs(total - 1.0) <= FREQ_SUM_TOL, f"cylinder frequencies sum to {total!r}")
