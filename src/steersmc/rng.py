"""Deterministic counter-based random streams.

Every random draw in an inference run is a pure function of
``(seed, stream path, draw index)``, so results do not depend on thread
scheduling or on how work is split across workers. Streams are derived
by hashing a path of labels (e.g. seed, particle slot, step index) into
a 64-bit key; the i-th value of a stream is a SplitMix64-style mix of
``key + (i + 1) * GOLDEN``.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)

# Cells ``draw_rows`` compares at once: in one block, a 512-particle run
# over 88 tokens peaked about 0.45 MB higher than with a draw per row;
# in blocks of this size, about 0.2 MB.
DRAW_CELLS = 16384


def _mix(z: int) -> int:
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _hasher(seed: int, path) -> "hashlib.blake2b":
    """BLAKE2b over the canonical encoding of a seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=False))
    for part in path:
        if isinstance(part, str):
            raw = part.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        else:
            h.update(b"i" + int(part).to_bytes(8, "little", signed=True))
    return h


def derive_key(seed: int, *path: int | str) -> int:
    """Derive a 64-bit stream key from a seed and a path of labels.

    Uses BLAKE2b over a canonical encoding, so distinct paths give
    independent keys and the mapping is stable across platforms.
    """
    return int.from_bytes(_hasher(seed, path).digest(), "little")


def derive_keys(seed: int, label: str, n: int) -> np.ndarray:
    """``derive_key(seed, label, i)`` for every i < n, as a uint64 array:
    the prefix (seed, label) is hashed once and copied for each index."""
    prefix = _hasher(seed, (label,))
    digests = []
    for i in range(n):
        h = prefix.copy()
        h.update(b"i" + i.to_bytes(8, "little", signed=True))
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


def mix64(z: np.ndarray) -> np.ndarray:
    """``_mix`` element-wise over a uint64 array, wrapping modulo 2**64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def step_keys(slot_keys: np.ndarray, t: int) -> np.ndarray:
    """Step ``t``'s stream keys for particles with these slot keys (a
    uint64 array): ``_mix(slot_key + t * GOLDEN)`` element-wise, in one
    pass. ``t * GOLDEN`` is reduced as a Python int, which a NumPy scalar
    product would overflow."""
    return mix64(slot_keys + np.uint64(t * _GOLDEN & _MASK64))


def uniforms_at(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The uniform each stream draws next, element-wise: the stream with
    key ``keys[i]`` that has made ``counters[i]`` draws (both uint64
    arrays) yields ``out[i]``, bit for bit what ``RandomStream.uniform``
    returns. The counter arithmetic wraps modulo 2**64, as ``_mix`` does.
    """
    z = mix64(keys + (counters + np.uint64(1)) * np.uint64(_GOLDEN))
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2_53


def draw_indices(probs: np.ndarray, total: float, u: np.ndarray) -> np.ndarray:
    """One index per uniform in ``u``, drawn proportional to ``probs``, a
    1-D float array of nonnegative weights summing to ``total``.

    Zero-probability entries are never selected. Each pick is the first
    index whose running sum exceeds ``u * total``; the sequential
    ``cumsum`` adds exactly what a scalar walk adds, and a zero entry
    never raises it, so the first such index is positive. A target at
    the top of the cumulative range falls back to the last positive
    index; all-zero weights raise ValueError. The targets are searched
    in ascending order, which ``searchsorted`` walks faster than
    unsorted ones, and each pick is put back at its target's place.
    """
    order = np.argsort(u)
    picks = np.empty(u.size, dtype=np.intp)
    picks[order] = probs.cumsum().searchsorted(u[order] * total, "right")
    over = picks >= probs.size
    if over.any():
        positive = np.flatnonzero(probs > 0.0)
        if positive.size == 0:
            raise ValueError("choice over all-zero weights")
        picks[over] = positive[-1]
    return picks


def draw_rows(table: np.ndarray, totals: np.ndarray, rows: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """``draw_indices`` for many rows at once: draw i takes uniform
    ``u[i]`` from row ``rows[i]`` of ``table``, a 2-D float array of
    nonnegative weights whose row r sums to ``totals[r]``, and equals
    ``draw_indices(table[rows[i]], totals[rows[i]], u[i:i + 1])`` bit for
    bit.

    Each pick counts the running sums of its row that are at most its
    target, which is what ``searchsorted(..., "right")`` returns on a
    nondecreasing row, over ``DRAW_CELLS`` cells at a time. A single
    row, and a target past its row's last running sum, go to
    ``draw_indices``.
    """
    if len(table) == 1:
        return draw_indices(table[0], totals[0], u)
    cums, targets = table.cumsum(axis=1), u * totals[rows]
    picks = np.empty(len(rows), dtype=np.intp)
    step = max(1, DRAW_CELLS // table.shape[1])
    for lo in range(0, len(rows), step):
        hi = lo + step
        picks[lo:hi] = np.count_nonzero(cums[rows[lo:hi]] <= targets[lo:hi, None], axis=1)
    for i in np.flatnonzero(picks >= table.shape[1]).tolist():
        picks[i] = draw_indices(table[rows[i]], totals[rows[i]], u[i:i + 1])[0]
    return picks


class RandomStream:
    """A stateless-by-construction uniform stream over a derived key.

    The stream holds only a draw counter; value ``i`` is always the same
    for the same key, which makes every consumer replayable.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int, *path: int | str):
        self.key = derive_key(seed, *path)
        self.counter = 0

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        value = _mix(self.key + (self.counter + 1) * _GOLDEN)
        self.counter += 1
        return (value >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """Vector of the next ``n`` uniform draws in [0, 1)."""
        counters = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return uniforms_at(np.full(n, self.key, dtype=np.uint64), counters)

    def choice(self, probs) -> int:
        """Draw an index proportional to ``probs``, a 1-D float array of
        nonnegative weights (see ``draw_indices``)."""
        u = np.array([self.uniform()])
        return int(draw_indices(probs, float(probs.sum()), u)[0])

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        span = high - low
        return low + int(self.uniform() * span)
