#!/usr/bin/env python3
"""Count the model table calls of one seed-0 benchmark operation.

    python3 path/to/next_table_calls.py [WORKLOAD ...]

Run from the root of a checkout: its ``src/steersmc`` and
``perfbench/workloads.py`` are imported from there, so the same script
counts any tree it is run in. For each in-process workload (all three
by default) it builds the seed-0 input as the benchmark does, wraps
``TokenModel.next_table`` and ``NgramModel.next_table``, runs one
``run_inference`` operation and prints ``WORKLOAD CALLS``. The
benchmark's tracer hooks ``next_distribution``, which the step
interpreter no longer calls, so it does not see these calls. Report
only: it checks nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import steersmc  # noqa: E402
import workloads  # noqa: E402
from steersmc.models import NgramModel, TokenModel  # noqa: E402


def calls_per_operation(workload: str) -> int:
    inp = workloads.build_in_process(workload, 0)
    calls = []
    for cls in (TokenModel, NgramModel):
        def counted(self, *args, _call=cls.__dict__["next_table"], **kwargs):
            calls.append(None)
            return _call(self, *args, **kwargs)

        cls.next_table = counted
    steersmc.run_inference(inp.plan, inp.models, inp.config)
    return len(calls)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.IN_PROCESS:
        print(name, calls_per_operation(name))
