"""The Python reference emitters' randomness: ``numpy.random``.

When the compiled library is unavailable (no C compiler, or no
``libnpyrandom.a``), a :class:`~repro.workloads.base.GeneratorContext`
draws from a :class:`NumpyDraws`: ``numpy.random.default_rng(seed)``,
which makes the same bulk draws the library does
(:class:`~repro.workloads.compiled.NativeDraws`), plus a window of
pre-drawn uniforms the Python emitters read record by record.
"""

from __future__ import annotations

from array import array

import numpy as np

#: Raw 64-bit draws per refill of a :class:`NumpyDraws` window.
_BATCH = 4096
#: PCG64's ``next_double`` maps the top 53 bits of a raw draw to [0, 1).
_DOUBLE_SCALE = 1.0 / (1 << 53)
_UINT32_MASK = 0xFFFFFFFF


class NumpyDraws:
    """``default_rng(seed)`` with a window over its raw stream.

    Per-record draws come from a window over one pre-drawn stream of raw
    PCG64 outputs, fetched ``_BATCH`` at a time: :meth:`peek` and
    :meth:`consume` serve the doubles ``rng.random()`` would return,
    :meth:`below` the integers ``rng.integers(0, n)`` would.  Bulk draws
    go through :attr:`rng`, which first settles the generator to exactly
    the state the consumed draws leave.  Every trace is therefore the
    one a per-call ``default_rng(seed)`` consumer would emit.
    """

    def __init__(self, seed: int) -> None:
        self._generator = np.random.default_rng(seed)
        self._bit_generator = self._generator.bit_generator
        #: Generator state at the window's first raw draw (None: no
        #: window; the generator itself is exact).
        self._anchor: "dict | None" = None
        #: Raw draws between the anchor and index 0 of the window.
        self._anchor_offset = 0
        self._raw = np.empty(0, dtype=np.uint64)
        self._uniforms: list[float] = []
        self._pos = 0
        #: PCG64's half-word pair: ``uinteger`` (the last upper half
        #: drawn) and ``has_uint32`` (whether it is still unread).
        self._half = 0
        self._has_half = False

    @property
    def rng(self) -> np.random.Generator:
        """The generator, settled to the window's consumed position.

        For bulk draws only: the state goes back to the anchor, advances
        past the consumed raw draws and gets the carried half-word back,
        and the unread rest of the window is dropped.  Fetch it anew for
        each bulk draw; a generator held across window reads is stale.
        """
        anchor = self._anchor
        if anchor is not None:
            bit_generator = self._bit_generator
            bit_generator.state = anchor
            bit_generator.advance(self._anchor_offset + self._pos)
            state = bit_generator.state
            state["has_uint32"] = int(self._has_half)
            state["uinteger"] = self._half
            bit_generator.state = state
            self._anchor = None
            self._raw = self._raw[:0]
            self._uniforms = []
            self._pos = 0
        return self._generator

    def integers(self, n: int, size: int) -> array:
        """``rng.integers(0, n, size)``."""
        return array("q", self.rng.integers(0, n, size=size).tobytes())

    def normal(self, loc: float, scale: float, size: int) -> array:
        """``rng.normal(loc, scale, size)``."""
        return array("d", self.rng.normal(loc, scale, size=size).tobytes())

    def random(self, size: int) -> array:
        """``rng.random(size)``."""
        return array("d", self.rng.random(size).tobytes())

    def peek(self, n: int) -> "tuple[list[float], int]":
        """The window of uniform doubles and its next unread index.

        At least ``n`` doubles follow the index; a caller reads what it
        needs and hands the index past the last one to :meth:`consume`.
        """
        if self._pos + n > len(self._uniforms):
            self._refill(n)
        return self._uniforms, self._pos

    def consume(self, end: int) -> None:
        """Mark the window read up to (not including) index ``end``."""
        self._pos = end

    def uniform(self) -> float:
        """One double, as ``rng.random()`` returns it."""
        pos = self._pos
        if pos >= len(self._uniforms):
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return self._uniforms[pos]

    def _refill(self, n: int) -> None:
        """Append one raw batch to the unread rest of the window."""
        if n > _BATCH:
            raise ValueError(f"a window serves at most {_BATCH} draws")
        bit_generator = self._bit_generator
        if self._anchor is None:
            self._anchor = state = bit_generator.state
            self._anchor_offset = 0
            self._half = state["uinteger"]
            self._has_half = bool(state["has_uint32"])
        pos = self._pos
        raw = bit_generator.random_raw(_BATCH)
        self._anchor_offset += pos
        self._raw = np.concatenate((self._raw[pos:], raw))
        self._uniforms = (
            self._uniforms[pos:] + ((raw >> 11) * _DOUBLE_SCALE).tolist()
        )
        self._pos = 0

    def _next_uint32(self) -> int:
        """PCG64's ``next_uint32``: the carried half-word, else the low
        half of a fresh raw draw (carrying its high half)."""
        if self._anchor is None:
            # Opening the window reads the generator's half-word.
            self._refill(1)
        if self._has_half:
            self._has_half = False
            return self._half
        if self._pos >= len(self._uniforms):
            self._refill(1)
        raw = int(self._raw[self._pos])
        self._pos += 1
        self._half = raw >> 32
        self._has_half = True
        return raw & _UINT32_MASK

    def below(self, n: int) -> int:
        """An integer in ``[0, n)``, as ``rng.integers(0, n)`` draws it.

        numpy serves ranges below 2**32 with Lemire's multiply-shift
        over 32-bit draws, redrawing only the biased low products; a
        one-value range draws nothing.
        """
        if not 1 <= n < 1 << 32:
            raise ValueError("below() serves ranges of 1 to 2**32 - 1")
        if n == 1:
            return 0
        product = self._next_uint32() * n
        if product & _UINT32_MASK < n:
            threshold = ((1 << 32) - n) % n
            while product & _UINT32_MASK < threshold:
                product = self._next_uint32() * n
        return product >> 32
