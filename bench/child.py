"""One round of a workload, in a fresh process: set up, then run each command.

Reads a JSON request on stdin::

    {"fixtures": [...], "commands": [[argv...], ...], "trace": false,
     "spans": null | "path", "round": 0, "as_bytes": N, "cpu_seconds": N}

and writes one JSON line per event on stdout: ``setup`` when the first
command is about to start, ``op`` after each command (exit code, wall and
CPU seconds, the command's output), and ``end`` with the peak resident set.
A command that raises is reported as failed and the round goes on. The
resource limits are set before anything is imported, so a command that runs
away in time or memory fails inside this process and nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _emit(record: dict) -> None:
    sys.__stdout__.write(json.dumps(record) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    request = json.load(sys.stdin)
    resource.setrlimit(resource.RLIMIT_AS, (request["as_bytes"], request["as_bytes"]))
    cpu = request["cpu_seconds"]
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 5))
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    from walkbound import cli, config, fixtures

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for name in request["fixtures"]:
        config.build_measure(config.parse_config(fixtures.fixture_text(name)))
    _emit({"kind": "setup", "t_ready": time.monotonic()})

    for i, argv in enumerate(request["commands"]):
        buf = io.StringIO()
        record = {"kind": "op", "i": i, "rc": None, "error": None}
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    record["rc"] = cli.main(argv)
                else:
                    rc, traced, mismatch = tracer.run_op(i, f"cli.{argv[0]}", cli.main, argv)
                    record.update(rc=rc, traced_s=traced, self_sum_error_s=mismatch)
        except Exception:  # the round goes on; the parent counts the failure
            record["error"] = traceback.format_exc(limit=3)
        record["cpu_s"] = time.process_time() - cpu0
        record["wall_s"] = time.perf_counter() - wall0
        record["out"] = buf.getvalue()
        _emit(record)

    end = {"kind": "end", "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        end["stats"] = tracer.stats
        end["counts"] = tracer.counts
        if request["spans"]:
            tracer.write_spans(request["spans"], request["round"])
    _emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
