from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steersmc import RandomStream, derive_key
from steersmc.rng import derive_keys

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
