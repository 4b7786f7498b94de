"""Tracing for the benchmark's traced runs, installed from outside the package.

``install`` replaces public functions of ``walkbound``'s modules by timing
wrappers, in every module that holds a binding to them, so names bound by
``from ... import`` are covered too (``walk.path_rng``, ``boundary.derived_rng``,
``cli.sample_paths`` and so on). No source file of the package changes.

Two kinds of wrapper share one call stack:

* spans, around functions that run once per command or once per path: each
  call is recorded as (operation, name, start, end, span id, parent span id)
  in memory and written out when the run ends;
* counters, around functions that run on every step (twisting, acting-part
  products, word construction and products, automorphism application):
  only calls and times are accumulated, never one record per call.

Every wrapper charges its duration to the frame that called it, so a
function's *self* time excludes every traced callee, and the self times of
all functions called during an operation add up to the operation's time.
``span_self`` excludes only child spans, so a kernel's span-self time still
holds the per-step counters it ran.
"""

from __future__ import annotations

import functools
import inspect
import time

import walkbound
from walkbound import (
    _rng,
    boundary,
    cli,
    config,
    groups,
    harmonic,
    morphisms,
    walk,
    words,
)
from walkbound.errors import TruncationError

MODULES = (_rng, boundary, cli, config, groups, harmonic, morphisms, walk, words, walkbound)

# (module, attribute, record a span per call?)
FUNCTIONS = (
    (config, "parse_config", True),
    (config, "build_measure", True),
    (config, "build_acting_group", True),
    (config, "named_automorphisms", True),
    (config, "sublattice_spec", True),
    (_rng, "derived_rng", True),
    (_rng, "path_rng", True),
    (walk, "sample_paths", True),
    (walk, "_run_one_path", True),
    (walk, "entropy_depth_counts", True),
    (walk, "entropy_from_counts", True),
    (walk, "drift_estimate", True),
    (groups, "ball", True),
    (groups, "ext_multiply", False),
    (morphisms, "boundary_apply", False),
    (morphisms, "classify_growth", True),
    (boundary, "empirical_hitting_measure", True),
    (boundary, "sample_boundary_rays", True),
    (boundary, "_resolve_paths", True),
    (boundary, "_endpoint", True),
    (boundary, "_last_lattice_step", True),
    (boundary, "_translate_prefix", False),
    (boundary, "act_on_ray", False),
    (boundary, "stationarity_residual", True),
    (boundary, "track_convergence", True),
    (boundary, "first_return_sampler", True),
    (harmonic, "poisson_eval", True),
    (harmonic, "harmonicity_residual", True),
    (harmonic, "_translated_values", False),
)

METHODS = (
    (walk, walk.StepMeasure, "draw_indices", True),
    (groups, groups.ActingGroup, "twist_letters", False),
    (groups, groups.ActingGroup, "automorphism_for", False),
    (groups, groups.ActingGroup, "part_multiply", False),
    (morphisms, morphisms.Automorphism, "apply", False),
    (morphisms, morphisms.Automorphism, "apply_inverse", False),
    (morphisms, morphisms.Automorphism, "apply_letters", False),
    (morphisms, morphisms.Automorphism, "compose", False),
    (words, words.Word, "__post_init__", False),
    (words, words.Word, "__mul__", False),
    (boundary, boundary._RayImages, "at_least", False),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Call stack, per-function totals, span records and per-operation counts.

    ``stats[name]`` is ``[calls, inclusive_s, self_s, span_self_s, errors]``.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = [[0.0, 0.0, 0]]  # sentinel frame
        self._next_span = 1
        self._acting: list = []
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn, name: str, record: bool, post=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent[2]
            # frame: [time in traced callees, time in callee spans, span id]
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, TruncationError):
                    stats[4] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                stats[3] += dur - frame[1]
                parent[0] += dur
                if record:
                    parent[1] += dur
                    spans.append((tracer.op, name, start, end, span_id, parent[2]))
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function in every module that binds it."""
        posts = _post_hooks(self)
        for module, attr, record in FUNCTIONS:
            original = getattr(module, attr)
            name = f"{_short(module)}.{attr}"
            wrapper = self.wrap(original, name, record, posts.get(name))
            for holder in MODULES:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        if holder is harmonic and name == "boundary.act_on_ray":
                            # harmonic's translations, kept apart so they can be counted
                            value = self.wrap(original, "boundary.act_on_ray.from_harmonic", False)
                            self._replace(holder, key, value)
                        else:
                            self._replace(holder, key, wrapper)
        for module, cls, attr, record in METHODS:
            name = f"{_short(module)}.{cls.__name__}.{attr}"
            self._replace(cls, attr, self.wrap(cls.__dict__[attr], name, record, posts.get(name)))
        self._replace(
            groups.ActingGroup,
            "__init__",
            functools.wraps(groups.ActingGroup.__init__)(self._register_acting(groups.ActingGroup.__init__)),
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _register_acting(self, init):
        acting = self._acting

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            acting.append(obj)

        return __init__

    # -- operations -------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def run_op(self, op: int, name: str, fn, *args):
        """Run ``fn(*args)`` as operation ``op``, rooted in a span ``name``.

        Returns (result, traced seconds, |sum of self times - traced seconds|).
        Acting groups created during the operation are kept alive until it
        ends, so their cache sizes can be read: a cache starts empty, so its
        final size is the operation's misses.
        """
        self.op = op
        self._acting.clear()
        before = sum(s[2] for s in self.stats.values())
        root = self.wrap(fn, name, True)
        result = root(*args)
        traced = self.spans[-1][3] - self.spans[-1][2]
        after = sum(s[2] for s in self.stats.values())
        for g in self._acting:
            self.count("groups.twist.misses", len(g._twist_cache))
            self.count("groups.twist.cache_letters", sum(len(v) for v in g._twist_cache.values()))
            self.count("groups.aut.misses", len(g._cache))
            self.count(
                "groups.aut.cache_letters",
                sum(len(w) for phi in g._cache.values() for w in phi.images + phi.inverse_images),
            )
        self._acting.clear()
        return result, traced, abs((after - before) - traced)

    def write_spans(self, path: str, round_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for op, name, start, end, span_id, parent in self.spans:
                fh.write(f"{round_index}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{span_id}\t{parent}\n")


def _post_hooks(tracer: Tracer) -> dict:
    """Per-function counters read from arguments and results."""

    def bound(name: str):
        fn = _find(name)
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments

    def letters_out(key):
        return lambda args, kwargs, result: tracer.count(key, len(result))

    run_one = bound("walk._run_one_path")
    entropy = bound("walk.entropy_depth_counts")
    resolve = bound("boundary._resolve_paths")
    track = bound("boundary.track_convergence")
    first_return = bound("boundary.first_return_sampler")

    def on_run_one(args, kwargs, result):
        tracer.count("walk.paths")
        tracer.count("walk.steps", run_one(args, kwargs)["n_steps"])

    def on_entropy(args, kwargs, result):
        a = entropy(args, kwargs)
        tracer.count("walk.paths", a["n_paths"])
        tracer.count("walk.steps", a["n_paths"] * max(a["depths"]))

    def on_resolve(args, kwargs, result):
        tracer.count("boundary.paths", resolve(args, kwargs)["n_paths"])
        tracer.count("boundary.resolve.attempted", len(result))
        tracer.count("boundary.resolve.resolved", sum(1 for key in result if key is not None))

    return {
        "walk._run_one_path": on_run_one,
        "walk.entropy_depth_counts": on_entropy,
        "boundary._resolve_paths": on_resolve,
        "boundary.track_convergence": lambda a, k, r: tracer.count(
            "boundary.paths", track(a, k)["n_paths"]
        ),
        "boundary.first_return_sampler": lambda a, k, r: tracer.count(
            "boundary.paths", first_return(a, k)["n_samples"]
        ),
        "morphisms.Automorphism.apply": letters_out("morphisms.apply.letters_out"),
        "morphisms.Automorphism.apply_inverse": letters_out("morphisms.apply.letters_out"),
        "morphisms.Automorphism.apply_letters": letters_out("morphisms.apply.letters_out"),
    }


def _find(name: str):
    module, attr = name.split(".", 1)
    return getattr(getattr(walkbound, module), attr)
