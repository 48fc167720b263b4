from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steersmc import RandomStream, derive_key
from steersmc.rng import derive_keys, draw_indices, uniform_block

# The largest value RandomStream.uniform can return.
TOP_UNIFORM = 1.0 - 2.0 ** -53


def reference_choice(u: float, probs) -> int:
    """Scalar walk over ``probs`` for the uniform draw ``u``: the first
    positive index whose running sum exceeds ``u * sum``, else the last
    positive index."""
    target = u * float(np.sum(probs))
    acc = 0.0
    last_positive = -1
    for i, p in enumerate(probs):
        if p > 0.0:
            last_positive = i
            acc += p
            if acc > target:
                return i
    if last_positive < 0:
        raise ValueError("choice over all-zero weights")
    return last_positive


class _Pinned(RandomStream):
    """A stream whose every uniform draw is ``u``."""

    __slots__ = ("u",)

    def __init__(self, u: float):
        super().__init__(0)
        self.u = u

    def uniform(self) -> float:
        return self.u


weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e150)),
    min_size=1, max_size=120)
uniforms = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                     st.just(0.0), st.just(TOP_UNIFORM))


@settings(max_examples=400, deadline=None)
@given(values=weights, u=uniforms, normalize=st.booleans())
@example(values=[0.0, 0.0, 2.5, 0.0], u=TOP_UNIFORM, normalize=False)
@example(values=[1e16] + [1.0] * 15, u=TOP_UNIFORM, normalize=False)
def test_choice_matches_the_scalar_walk(values, u, normalize):
    probs = np.array(values)
    if normalize and probs.sum() > 0.0:
        probs = probs / probs.sum()
    try:
        want = reference_choice(u, probs)
    except ValueError:
        with pytest.raises(ValueError):
            _Pinned(u).choice(probs)
        return
    got = _Pinned(u).choice(probs)
    assert got == want
    assert probs[got] > 0.0


def unsorted_draw_indices(probs, total, u):
    """``draw_indices`` searching its targets in the order given."""
    picks = probs.cumsum().searchsorted(u * total, "right")
    over = picks >= probs.size
    if over.any():
        positive = np.flatnonzero(probs > 0.0)
        if positive.size == 0:
            raise ValueError("choice over all-zero weights")
        picks[over] = positive[-1]
    return picks


@settings(max_examples=300, deadline=None)
@given(values=weights, us=st.lists(uniforms, min_size=1, max_size=200),
       normalize=st.booleans())
@example(values=[0.0, 0.0, 2.5, 0.0], us=[TOP_UNIFORM, 0.0, 0.7, TOP_UNIFORM, 0.1],
         normalize=False)
@example(values=[1e16] + [1.0] * 15 + [0.0], us=[0.3, TOP_UNIFORM, 0.0, TOP_UNIFORM],
         normalize=False)
@example(values=[0.0, 0.0], us=[0.5, 0.2], normalize=False)
def test_draw_indices_equals_the_unsorted_search(values, us, normalize):
    """Searching the targets sorted and scattering the picks back gives
    every pick of the search in the order given, zero weights, top of
    range and all-zero errors included."""
    probs, u = np.array(values), np.array(us)
    if normalize and probs.sum() > 0.0:
        probs = probs / probs.sum()
    total = float(probs.sum())
    try:
        want = unsorted_draw_indices(probs, total, u)
    except ValueError:
        with pytest.raises(ValueError, match="all-zero"):
            draw_indices(probs, total, u)
        return
    got = draw_indices(probs, total, u)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert (probs[got] > 0.0).all()


@settings(max_examples=100, deadline=None)
@given(values=weights, seed=st.integers(min_value=0, max_value=2 ** 32))
def test_choice_consumes_one_draw_like_the_walk(values, seed):
    probs = np.array(values)
    stream = RandomStream(seed, "choice")
    u = RandomStream(seed, "choice").uniform()
    try:
        want = reference_choice(u, probs)
    except ValueError:
        return
    assert stream.choice(probs) == want
    assert stream.counter == 1


def test_top_of_range_falls_back_to_the_last_positive_index():
    # Sequentially, every 1.0 is lost against 1e16; the pairwise sum keeps
    # them, so the target can lie above the last running sum.
    probs = np.array([1e16] + [1.0] * 15 + [0.0])
    assert probs.sum() > probs.cumsum()[-1]
    assert TOP_UNIFORM * float(probs.sum()) >= probs.cumsum()[-1]
    assert _Pinned(TOP_UNIFORM).choice(probs) == 15 == reference_choice(TOP_UNIFORM, probs)


def test_single_positive_entry_is_always_drawn():
    probs = np.zeros(9)
    probs[4] = 0.3
    for u in (0.0, 0.5, TOP_UNIFORM):
        assert _Pinned(u).choice(probs) == 4
    stream = RandomStream(3, "single")
    assert all(stream.choice(probs) == 4 for _ in range(50))


@pytest.mark.parametrize("size", [1, 5, 88])
def test_all_zero_weights_raise(size):
    with pytest.raises(ValueError):
        RandomStream(1).choice(np.zeros(size))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_slot_keys_from_one_prefix_equal_derive_key(seed):
    keys = derive_keys(seed, "particle", 300)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [derive_key(seed, "particle", i) for i in range(300)]
    assert derive_keys(seed, "particle", 0).tolist() == []


def test_uniform_block_reads_each_stream_from_its_own_counter():
    """Row i of a block holds stream i's next uniforms from its own
    counter on, bit for bit what ``RandomStream.uniform`` returns there,
    the counters wrapping at 2**64."""
    keys = [derive_key(1, "slot", 0), derive_key(1, "slot", 1), 0]
    starts = [0, 5, 2 ** 64 - 2]
    block = uniform_block(np.array(keys, dtype=np.uint64), np.array(starts, dtype=np.uint64),
                          4)
    assert block.shape == (3, 4)
    for key, start, row in zip(keys, starts, block.tolist()):
        stream = RandomStream(0)
        stream.key, stream.counter = key, start
        assert row == [stream.uniform() for _ in range(4)]
