"""Stream exactness of :class:`NumpyDraws`' pre-drawn window.

The Python emitters read per-record uniforms and hot-block integers
from a window over pre-drawn raw PCG64 outputs, and bulk draws from the
settled generator.  Any interleaving of those calls must return the
values, and leave the bit-generator state (carried 32-bit half-word
included), that the same calls on a plain ``default_rng(seed)`` do.  A
numpy release that changes PCG64's double conversion or its bounded
integer algorithm fails here first, rather than as an unexplained
trace-fingerprint diff.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.workloads.reference import _BATCH, NumpyDraws

_RANGES = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=(1 << 32) - 1),
    st.sampled_from([1, 2, (1 << 31) + 1, (1 << 32) - 1]),
)

_OPS = st.one_of(
    # Read ``take`` doubles from a window peeked ``take + extra`` wide
    # (at most one batch); wide reads cross batch boundaries.
    st.tuples(
        st.just("window"),
        st.one_of(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=_BATCH - 7),
        ),
        st.integers(min_value=0, max_value=7),
    ),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("below"), _RANGES),
    st.tuples(
        st.just("integers"),
        st.integers(min_value=1, max_value=1 << 40),
        st.integers(min_value=0, max_value=9),
    ),
    st.tuples(st.just("random"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("normal"), st.integers(min_value=0, max_value=9)),
)


def _apply(context: NumpyDraws, op) -> list:
    kind = op[0]
    if kind == "window":
        _, take, extra = op
        u, i = context.peek(take + extra)
        context.consume(i + take)
        return u[i:i + take]
    if kind == "uniform":
        return [context.uniform()]
    if kind == "below":
        return [context.below(op[1])]
    if kind == "integers":
        return context.rng.integers(0, op[1], size=op[2]).tolist()
    if kind == "random":
        return context.rng.random(op[1]).tolist()
    return context.rng.normal(size=op[1]).tolist()


def _reference(rng: np.random.Generator, op) -> list:
    kind = op[0]
    if kind == "window":
        return rng.random(op[1]).tolist()
    if kind == "uniform":
        return [rng.random()]
    if kind == "below":
        return [int(rng.integers(0, op[1]))]
    if kind == "integers":
        return rng.integers(0, op[1], size=op[2]).tolist()
    if kind == "random":
        return rng.random(op[1]).tolist()
    return rng.normal(size=op[1]).tolist()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    ops=st.lists(_OPS, max_size=40),
)
def test_window_and_bulk_draws_match_a_plain_generator(seed, ops):
    context = NumpyDraws(seed)
    reference = np.random.default_rng(seed)
    for op in ops:
        assert _apply(context, op) == _reference(reference, op), op
    assert context.rng.bit_generator.state == reference.bit_generator.state


def test_below_carries_the_half_word_across_bulk_draws():
    # An odd-sized bounded draw leaves PCG64 holding a 32-bit half-word;
    # the window must serve it to the next below() before any fresh draw.
    context = NumpyDraws(3)
    reference = np.random.default_rng(3)
    context.rng.integers(0, 100, size=3)
    reference.integers(0, 100, size=3)
    assert reference.bit_generator.state["has_uint32"] == 1
    assert [context.below(100) for _ in range(5)] == [
        int(reference.integers(0, 100)) for _ in range(5)
    ]
    assert context.rng.bit_generator.state == reference.bit_generator.state
