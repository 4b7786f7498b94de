"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.py`` wraps package functions and methods by name from
outside the package. A name renamed or deleted in ``src/walkbound`` would
only fail a traced benchmark run; here it fails the test suite. The module
is loaded from its file and nothing is installed.
"""

import importlib.util
from pathlib import Path

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
