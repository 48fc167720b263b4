"""CPU-speed calibration for the benchmark's timings.

The speed of a small shared host drifts. On a 2-vCPU KVM guest the
same steersmc operation was seen to run up to 1.6x slower for minutes
at a time, which is wider than any useful regression bound. So the
benchmark times a fixed reference kernel after every round and
rescales all of a run's timings to the speed at which the kernel takes
``REFERENCE_S``:

    reported = measured * (REFERENCE_S / median(kernel_seconds)) ** EXPONENT

The kernel does no steersmc work and does not change with the program,
so a change to the program moves the rescaled times by the same share
as the raw ones. It has two parts, each timed as the fastest of three
passes so that a cold cache or a short burst of interference does not
count, and combined by their geometric mean:

- compute: set and array building over a small vocabulary with a
  Python loop over NumPy floats, and greedy string matching with dict
  lookups;
- heap: copying and mutating 4096 small objects with list fields, as
  particle cloning does.

The operations slow down less than the kernel when the host slows, so
the correction is damped by ``EXPONENT``. On a 4-minute trace of the
three in-process workloads that crossed a 1.6x change in host speed,
the spread of 20-second medians was 29-35% unscaled, 17-20% with
exponent 1 and 10-11% with 0.75.

The kernel runs in the benchmark's own process, so it rescales only
operations run there. ``cli_suite``, whose operations are dominated
by process start-up, is rescaled the same way, with the same
exponent, by a reference process instead: a fresh interpreter that
imports NumPy and the standard modules steersmc's start-up imports,
but not steersmc (``process_seconds``), to the speed at which it
takes ``REFERENCE_PROCESS_S``. Over eight 22-second ``cli_suite``
runs it cut the spread of the run medians from 14% to 4.5%; the
in-process kernel cut it only to 11%, and an interpreter that imports
NumPy alone to 9%. The set-up probes are not rescaled: neither the
kernel nor the reference process narrowed their spread (five runs:
10-12% unscaled, 11-16% rescaled by the reference process).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REFERENCE_S = 0.01
REFERENCE_PROCESS_S = 0.2
EXPONENT = 0.75

_REFERENCE_IMPORTS = "import argparse, dataclasses, json, numpy"

_VOCAB = tuple(chr(33 + i) for i in range(88))
_BY_TEXT = {t: i for i, t in enumerate(_VOCAB)}
_PROBS = np.linspace(1.0, 2.0, len(_VOCAB))
_PROBS /= _PROBS.sum()
_TEXT = "".join(_VOCAB[(i * 7) % 88] for i in range(400))
_HEAP_ITEMS = 4096


class _Item:
    __slots__ = ("tokens", "text", "weight", "hints")

    def __init__(self, tokens: list[int], text: str, weight: float, hints: list[str]):
        self.tokens = tokens
        self.text = text
        self.weight = weight
        self.hints = hints

    def copy(self) -> "_Item":
        return _Item(list(self.tokens), self.text, self.weight, list(self.hints))


def _masks_and_draws(reps: int) -> float:
    total = 0.0
    for r in range(reps):
        allowed = frozenset(i for i, t in enumerate(_VOCAB) if t.isalpha() or t in "!?")
        ids = np.fromiter(sorted(allowed), dtype=np.intp, count=len(allowed))
        sub = _PROBS[ids]
        target = (r % 97) / 97.0 * float(sub.sum())
        acc = 0.0
        for p in sub:
            acc += p
            if acc > target:
                break
        total += acc
    return total


def _encode(reps: int) -> int:
    count = 0
    for _ in range(reps):
        longest = max(len(t) for t in _VOCAB if t)
        i = 0
        while i < len(_TEXT):
            for span in range(min(longest, len(_TEXT) - i), 0, -1):
                if _BY_TEXT.get(_TEXT[i:i + span]) is not None:
                    count += 1
                    i += span
                    break
            else:
                i += 1
    return count


def _compute_pass() -> float:
    t0 = perf_counter()
    _masks_and_draws(150)
    _encode(5)
    return perf_counter() - t0


# Kept between passes, so that after the first pass the copies reuse the
# memory the kernel itself freed, whatever the program did before.
_heap = [_Item(list(range(i % 12)), "x" * (i % 12), 0.0, []) for i in range(_HEAP_ITEMS)]


def _heap_pass() -> float:
    global _heap
    t0 = perf_counter()
    for _ in range(2):
        _heap = [_heap[(i * 2654435761) % _HEAP_ITEMS].copy() for i in range(_HEAP_ITEMS)]
        for it in _heap:
            it.tokens.append(3)
            it.text += "y"
            if len(it.tokens) > 12:
                it.tokens = it.tokens[-4:]
                it.text = it.text[-4:]
    return perf_counter() - t0


def kernel_seconds() -> float:
    """Seconds the reference kernel takes now (see the module docstring)."""
    compute = min(_compute_pass() for _ in range(3))
    heap = min(_heap_pass() for _ in range(3))
    return (compute * heap) ** 0.5


def process_seconds() -> float:
    """Wall seconds of the reference process (see the module docstring)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _REFERENCE_IMPORTS], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return perf_counter() - t0


def scale(samples: list[float], reference_s: float) -> float:
    """Factor from measured seconds to reference-speed seconds, given
    samples of a reference that takes ``reference_s`` at that speed."""
    return (reference_s / statistics.median(samples)) ** EXPONENT
