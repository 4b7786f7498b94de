"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.py`` wraps package functions and methods by name from
outside the package. A name renamed or deleted in ``src/walkbound`` would
only fail a traced benchmark run; here it fails the test suite. The module
is loaded from its file; one test installs it around two small commands,
since the counters it reads after each operation (the acting group's caches,
the automorphisms' images) would otherwise also fail only in a traced run.
"""

import importlib.util
from pathlib import Path

from walkbound import cli, walk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_traced_function_resolves():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.FUNCTIONS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_every_traced_method_resolves():
    missing = [
        f"{cls.__name__}.{attr}"
        for _, cls, attr, _ in tracing.METHODS
        if not callable(cls.__dict__.get(attr))
    ]
    assert missing == []


def test_traced_commands_complete(capsys):
    tracer = tracing.Tracer()
    original = walk.sample_paths
    tracer.install()
    try:
        commands = (
            "walk --config fixture:free-acting --n-paths 8 --n-steps 100 --seed 1",
            "hitting --config fixture:fibonacci --depth 2 --n-paths 20 --n-steps 30 --seed 1",
        )
        codes = [
            tracer.run_op(i, f"cli.{argv[0]}", cli.main, argv)[0]
            for i, argv in enumerate(command.split() for command in commands)
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert tracer.counts["groups.aut.misses"] > 0
    assert walk.sample_paths is original
