"""The benchmark's workloads: fixed lists of ``walkbound`` CLI commands.

Each workload is a closed loop with one client: its commands run one after
another, through ``walkbound.cli.main``, in a fresh child process, always
with ``--workers 1``. One pass over the list is a *round*. Every command
gets its own seed, derived from the workload seed and the command's
position, so the same workload seed gives the same inputs, and every round
of a run repeats exactly the same commands.

Sizes are chosen so that one round takes one to two seconds on a 2-core
x86-64 host, which leaves room for the twelve measured rounds in one run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

FIXTURES = (
    "direct-product",
    "fibonacci",
    "free-acting",
    "lattice-rank2",
    "semidirect-linear",
    "semidirect-mixed",
    "srw-f2",
)

# Commands whose output the README promises is identical for every
# worker count; the benchmark checks that promise at --workers 2.
SPLIT_INVARIANT = ("walk", "entropy-rate")


def derive_seed(seed: int, position: int) -> int:
    """A 63-bit command seed keyed by (workload seed, position in the list)."""
    digest = hashlib.sha256(f"walkbound-bench:{seed}:{position}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def option(argv: list[str] | tuple[str, ...], flag: str) -> str | None:
    """Value following ``flag`` in an argument list, or None."""
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def fixture_of(argv: list[str] | tuple[str, ...]) -> str:
    return option(argv, "--config").removeprefix("fixture:")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]

    @property
    def fixtures(self) -> tuple[str, ...]:
        return tuple(sorted({fixture_of(cmd) for cmd in self.commands}))

    def seeded(self, seed: int) -> list[list[str]]:
        return [
            [*cmd, "--seed", str(derive_seed(seed, i))]
            for i, cmd in enumerate(self.commands)
        ]


def _commands(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-paths",
            "many 2- to 16-step paths: per-path stream setup in _rng dominates, "
            "the step kernel and the twist cache do almost nothing",
            _commands(
                # the gate-10 shape: two-step paths on every fixture
                *(
                    f"walk --config fixture:{name} --n-paths 1500 --n-steps 2 --format csv"
                    for name in FIXTURES
                ),
                # the gate-5 shape
                "entropy-rate --config fixture:srw-f2 --n-paths 6000 --depths 8,12,16",
                # mean return time 2 steps
                "first-return --config fixture:semidirect-mixed --n-samples 3000 --format csv",
            ),
        ),
        Workload(
            "long-walks",
            "48 paths of 3000 steps per walk: the step kernel in walk and "
            "twist-cache hits in groups dominate, stream setup is negligible",
            _commands(
                "walk --config fixture:srw-f2 --n-paths 48 --n-steps 3000",
                "walk --config fixture:semidirect-linear --n-paths 48 --n-steps 3000",
                "walk --config fixture:direct-product --n-paths 48 --n-steps 3000",
                "walk --config fixture:lattice-rank2 --n-paths 48 --n-steps 3000",
                "track --config fixture:direct-product --n-paths 32 --n-steps 1000",
            ),
        ),
        Workload(
            "boundary",
            "paths of a few hundred steps resolved to boundary cylinders: probe "
            "resolution, boundary_apply and harmonic translation dominate",
            _commands(
                "hitting --config fixture:semidirect-linear --depth 5 --n-paths 300 --n-steps 300",
                "hitting --config fixture:direct-product --at-returns --depth 2 "
                "--n-paths 300 --n-steps 200",
                "stationarity --config fixture:semidirect-linear --n-paths 300 "
                "--n-steps 300 --n-resample 10000",
                "poisson --config fixture:srw-f2 --n-samples 300 --n-steps 300",
                "poisson --config fixture:semidirect-linear --n-samples 150 --n-steps 300",
            ),
        ),
        Workload(
            "twist-growth",
            "twists that keep growing: twist-cache misses, Automorphism.compose "
            "and long stored words dominate time and memory",
            _commands(
                # transient free acting part: about one cache miss per five steps
                "walk --config fixture:free-acting --n-paths 64 --n-steps 800",
                # exponential twist; many short paths keep the cost steady
                # across seeds, where a few long ones swing by 3x. At 30
                # steps under 1% of hitting paths stay unresolved, against
                # the 5% ceiling; at 20 steps some seeds breach it
                "walk --config fixture:fibonacci --n-paths 300 --n-steps 50",
                "growth --config fixture:fibonacci --iterations 27",
                "hitting --config fixture:fibonacci --depth 2 --n-paths 150 --n-steps 30",
            ),
        ),
    )
}
