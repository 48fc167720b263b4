"""Fresh-interpreter children of the benchmark.

    python3 perfbench/probe.py setup WORKLOAD SEED
        Time ``import steersmc`` plus building the workload's model and
        parsing its plan; print ``{"import_s": .., "setup_s": ..}``.

    python3 perfbench/probe.py trace-cli SPANS.npz -- ARGS...
        Run ``steersmc.cli.main(ARGS)`` traced, as one ``steersmc run``
        process would, and save its spans and counters. The import of
        ``steersmc.cli`` is recorded as the span ``cli.import``.

Both expect ``src`` on ``PYTHONPATH``. Nothing imports ``steersmc`` or
``numpy`` before the timer starts.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import tracer as tracing
import workloads


def setup(workload: str, seed: int) -> None:
    t0 = perf_counter()
    import steersmc  # noqa: F401

    t1 = perf_counter()
    if workload == "cli_suite":
        workloads.cli_setup()
    else:
        workloads.build_in_process(workload, seed)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def trace_cli(spans_path: str, argv: list[str]) -> int:
    t0 = perf_counter()
    import steersmc.cli

    t1 = perf_counter()
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    tracer.add_span(tracing.IMPORT_SPAN, t0, t1)
    tracer.install()
    try:
        code = steersmc.cli.main(argv)
    finally:
        tracer.restore()
        tracer.end_op()
    import numpy as np

    np.savez(spans_path, counters=json.dumps(tracer.counters), **tracer.arrays())
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif mode == "trace-cli":
        if sys.argv[3] != "--":
            raise SystemExit("usage: probe.py trace-cli SPANS.npz -- ARGS...")
        sys.exit(trace_cli(sys.argv[2], sys.argv[4:]))
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")
