#!/usr/bin/env python3
"""Count the model table calls, draw calls and uniforms of one seed-0
benchmark operation.

    python3 path/to/next_table_calls.py [WORKLOAD ...]

Run from the root of a checkout: its ``src/steersmc`` and
``perfbench/workloads.py`` are imported from there, so the same script
counts any tree it is run in. For each in-process workload (all three
by default) it builds the seed-0 input as the benchmark does, wraps
``TokenModel.next_table``, ``NgramModel.next_table``,
``steering._Pass.draw`` and ``steering.uniform_block``, the uniform
function the step interpreter calls, runs one ``run_inference``
operation and prints ``WORKLOAD CALLS DRAWS CELLS``: the
``next_table`` calls, the ``_Pass.draw`` calls and the uniform cells
mixed. The benchmark's tracer hooks
``next_distribution``, which the step interpreter no longer calls, so
it does not see these calls. Report only: it checks nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import steersmc  # noqa: E402
import workloads  # noqa: E402
from steersmc import steering  # noqa: E402
from steersmc.models import NgramModel, TokenModel  # noqa: E402


def counted(owner, name: str, tally: list, size=lambda out: 1) -> None:
    """Wrap ``owner.name`` so that each call adds ``size(result)`` to
    ``tally[0]``."""
    call = owner.__dict__[name]

    def wrapper(*args, **kwargs):
        out = call(*args, **kwargs)
        tally[0] += size(out)
        return out

    setattr(owner, name, wrapper)


def counts_per_operation(workload: str) -> tuple[int, int, int]:
    inp = workloads.build_in_process(workload, 0)
    tables, draws, cells = [0], [0], [0]
    for cls in (TokenModel, NgramModel):
        counted(cls, "next_table", tables)
    counted(steering._Pass, "draw", draws)
    counted(steering, "uniform_block", cells, lambda out: out.size)
    steersmc.run_inference(inp.plan, inp.models, inp.config)
    return tables[0], draws[0], cells[0]


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.IN_PROCESS:
        print(name, *counts_per_operation(name))
