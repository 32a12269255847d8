"""The library's bulk draws against ``numpy.random.default_rng``.

:class:`~repro.workloads.compiled.NativeDraws` calls numpy's own
distributions (``libnpyrandom``) over a PCG64 the library steps, so
every ``integers``, ``normal`` and ``random`` fill, and the generator
state it leaves (the ``next_uint32`` half-word carry included), must be
NumPy's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.library import load
from repro.workloads.base import GeneratorContext

pytestmark = pytest.mark.skipif(
    load() is None, reason="compiled library unavailable (no C compiler)"
)


def _context(seed: int) -> GeneratorContext:
    context = GeneratorContext(
        seed=seed, hot_blocks=1, structure_blocks=1, scan_blocks=1,
        noise_blocks=1,
    )
    assert context.native
    return context


def _assert_same_state(context: GeneratorContext, rng) -> None:
    want = rng.bit_generator.state
    got = context.draws.gen.rng
    assert (got.state_hi << 64 | got.state_lo) == want["state"]["state"]
    assert (got.inc_hi << 64 | got.inc_lo) == want["state"]["inc"]
    assert (got.has_half, got.half) == (want["has_uint32"], want["uinteger"])


@pytest.mark.parametrize("n", [
    1, 2, 7, 300, 2**31 + 1, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40,
    2**63 - 1,
])
@pytest.mark.parametrize("size", [0, 1, 3, 1000])
def test_integers(n, size):
    context, rng = _context(n), np.random.default_rng(n)
    for _ in range(3):
        assert context.draws.integers(n, size).tolist() == (
            rng.integers(0, n, size=size).tolist()
        )
    _assert_same_state(context, rng)


def test_integers_reject_an_empty_range():
    with pytest.raises(ValueError):
        _context(1).draws.integers(0, 5)


@pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (2.0794, 1.5),
                                        (-3.0, 0.25)])
def test_normal_reaches_the_ziggurat_tail(loc, scale):
    """200,000 draws take every ziggurat path: the fast path, the wedges
    (an ``exp`` each) and the tail beyond 3.654 (``log1p``)."""
    context, rng = _context(3), np.random.default_rng(3)
    got = context.draws.normal(loc, scale, 200_000).tolist()
    want = rng.normal(loc, scale, size=200_000)
    assert got == want.tolist()
    assert (np.abs((want - loc) / scale) > 3.6542).sum() > 10
    _assert_same_state(context, rng)


@pytest.mark.parametrize("size", [0, 1, 5, 4097])
def test_random(size):
    context, rng = _context(size), np.random.default_rng(size)
    assert context.draws.random(size).tolist() == rng.random(size).tolist()
    _assert_same_state(context, rng)


_OPS = st.one_of(
    st.tuples(st.just("integers"),
              st.one_of(st.integers(1, 300), st.integers(1, 1 << 40)),
              st.integers(0, 9)),
    st.tuples(st.just("random"), st.integers(0, 9)),
    st.tuples(st.just("normal"), st.integers(0, 9)),
)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63), ops=st.lists(_OPS, max_size=30))
def test_interleaved_fills_match_a_plain_generator(seed, ops):
    context, rng = _context(seed), np.random.default_rng(seed)
    for kind, *args in ops:
        if kind == "integers":
            n, size = args
            got = context.draws.integers(n, size).tolist()
            want = rng.integers(0, n, size=size).tolist()
        elif kind == "random":
            got = context.draws.random(args[0]).tolist()
            want = rng.random(args[0]).tolist()
        else:
            got = context.draws.normal(0.5, 2.0, args[0]).tolist()
            want = rng.normal(0.5, 2.0, size=args[0]).tolist()
        assert got == want, (kind, args)
    _assert_same_state(context, rng)
