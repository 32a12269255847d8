"""Building blocks shared by all synthetic trace generators.

The generators compose four kinds of activity, mirroring how the paper
characterizes its workloads:

* **stream** — a traversal of a recurring data structure (the temporal
  streams an address-correlating prefetcher learns),
* **scan** — a contiguous sweep a stride prefetcher covers,
* **noise** — visit-once references (hash probes, buffer churn) that no
  prefetcher can learn,
* **hot** — a small cache-resident set that generates on-chip hits.

:class:`StreamPool` owns the recurring structures and their Zipf-skewed
popularity; the skew produces the smooth reuse-distance spectrum behind
the paper's Figure 5 (left).

Which emitter runs: each generator's per-record loop runs compiled
(:mod:`repro.workloads.compiled`) whenever the library
:mod:`repro.sim.library` builds loads, and in Python, the reference,
when it does not (no C compiler; the loader warns once).  Both read the
same draws from the :class:`GeneratorContext` and give the same traces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.workloads import compiled
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class ActivityMix:
    """Relative weights of the four activity kinds."""

    stream: float = 1.0
    scan: float = 0.0
    noise: float = 0.0
    hot: float = 0.0

    def __post_init__(self) -> None:
        weights = (self.stream, self.scan, self.noise, self.hot)
        if any(w < 0 for w in weights):
            raise ValueError("activity weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("at least one activity weight must be positive")

    def probabilities(self) -> np.ndarray:
        weights = np.array(
            [self.stream, self.scan, self.noise, self.hot], dtype=float
        )
        return weights / weights.sum()


#: Activity indices matching :meth:`ActivityMix.probabilities` order.
ACTIVITY_STREAM, ACTIVITY_SCAN, ACTIVITY_NOISE, ACTIVITY_HOT = range(4)


#: Raw 64-bit draws per refill of a :class:`GeneratorContext` window.
_BATCH = 4096
#: PCG64's ``next_double`` maps the top 53 bits of a raw draw to [0, 1).
_DOUBLE_SCALE = 1.0 / (1 << 53)
_UINT32_MASK = 0xFFFFFFFF


class GeneratorContext:
    """Seeded randomness plus the block-address layout of one workload.

    The application's physical space is carved into disjoint regions so
    activities never alias each other accidentally:

    ``[0, hot) | [hot, hot+structures) | scans | noise``

    Per-record draws come from a window over one pre-drawn stream of raw
    PCG64 outputs, fetched ``_BATCH`` at a time: :meth:`peek` and
    :meth:`consume` serve the doubles ``rng.random()`` would return,
    :meth:`below` the integers ``rng.integers(0, n)`` would.  Bulk draws
    go through :attr:`rng`, which first settles the generator to exactly
    the state the consumed draws leave.  Every trace is therefore the
    one a per-call ``default_rng(seed)`` consumer would emit.

    Two sets of emitters read these draws.  Whenever the compiled
    library loads (:func:`repro.workloads.compiled.library`), the
    per-record loops run in C: :meth:`hand_over` gives them the settled
    generator state and the cursors, and :meth:`take_back` continues
    from where they stop.  Otherwise the Python emitters, the reference
    the compiled ones are tested against, read the window themselves.
    """

    def __init__(
        self,
        seed: int,
        hot_blocks: int,
        structure_blocks: int,
        scan_blocks: int,
        noise_blocks: int,
    ) -> None:
        for label, count in (
            ("hot", hot_blocks),
            ("structure", structure_blocks),
            ("scan", scan_blocks),
            ("noise", noise_blocks),
        ):
            if count < 0:
                raise ValueError(f"{label}_blocks must be non-negative")
        self._generator = np.random.default_rng(seed)
        self._bit_generator = self._generator.bit_generator
        # The window's double conversion and half-word carry are PCG64's.
        if type(self._bit_generator) is not np.random.PCG64:
            raise TypeError(
                "GeneratorContext needs a PCG64 bit generator, got "
                f"{type(self._bit_generator).__name__}"
            )
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
        self.hot_base = 0
        self.hot_blocks = hot_blocks
        self.structure_base = hot_blocks
        self.structure_blocks = structure_blocks
        self.scan_base = self.structure_base + structure_blocks
        self.scan_blocks = scan_blocks
        self.noise_base = self.scan_base + scan_blocks
        self.noise_blocks = noise_blocks
        self._noise_cursor = 0
        # Visit-once noise must look like hash probes / buffer churn:
        # unique addresses with no spatial pattern a stride prefetcher
        # could learn.  A multiplicative permutation over the largest
        # power of two inside the region gives scattered, non-repeating
        # draws.
        if noise_blocks > 0:
            self.noise_span = 1 << (noise_blocks.bit_length() - 1)
        else:
            self.noise_span = 0
        self._scan_cursor = 0

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

    def hand_over(self) -> "tuple[dict, int, int]":
        """The settled bit-generator state (a fresh dict, half-word
        carry included) and the scan and noise cursors: everything a
        compiled emitter continues the trace from."""
        state = self.rng.bit_generator.state
        return state, self._scan_cursor, self._noise_cursor

    def take_back(
        self, state: dict, scan_cursor: int, noise_cursor: int
    ) -> None:
        """Continue from where a compiled emitter stopped, given the
        state and cursors it left (the inverse of :meth:`hand_over`)."""
        self.rng.bit_generator.state = state
        self._scan_cursor = scan_cursor
        self._noise_cursor = noise_cursor

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

    @property
    def total_blocks(self) -> int:
        return self.noise_base + self.noise_blocks

    def alloc_stream(self, length: int) -> np.ndarray:
        """Draw ``length`` distinct pseudo-random structure blocks.

        Addresses are scattered (pointer-chasing layout) so the baseline
        stride prefetcher cannot cover them.
        """
        return self.alloc_streams([length])[0]

    def alloc_streams(self, lengths) -> "list[np.ndarray]":
        """:meth:`alloc_stream` for each of ``lengths``, in one draw
        (views into :meth:`alloc_flat`'s array)."""
        return _split(*self.alloc_flat(lengths))

    def alloc_flat(self, lengths) -> "tuple[np.ndarray, np.ndarray]":
        """The structures of :meth:`alloc_streams` back to back, and
        their ``len(lengths) + 1`` start offsets.

        Each structure over-draws ``2 * length + 8`` blocks and keeps the
        first ``length`` distinct ones in draw order.  One bulk draw
        split per structure yields the values (and leaves the state)
        that one draw per structure would.

        Raises ValueError when a structure's draw holds fewer than
        ``length`` distinct blocks (a structure region too small).
        """
        lengths = [int(n) for n in lengths]
        if any(n <= 0 for n in lengths):
            raise ValueError("stream length must be positive")
        if self.structure_blocks == 0:
            raise ValueError("no structure region configured")
        draw = self.rng.integers(
            0, self.structure_blocks, size=sum(2 * n + 8 for n in lengths)
        )
        lib = compiled.library(self)
        if lib is not None:
            blocks, done = compiled.first_distinct(
                lib, draw, lengths, self.structure_blocks,
                self.structure_base,
            )
        else:
            values = draw.tolist()
            kept: list[int] = []
            done = start = 0
            for n in lengths:
                end = start + 2 * n + 8
                distinct = list(dict.fromkeys(values[start:end]))
                if len(distinct) < n:
                    break
                kept.extend(distinct[:n])
                start = end
                done += 1
            blocks = np.array(kept, dtype=np.int64) + self.structure_base
        if done < len(lengths):
            n = lengths[done]
            start = sum(2 * m + 8 for m in lengths[:done])
            found = len(set(draw[start:start + 2 * n + 8].tolist()))
            raise ValueError(
                f"structure region of {self.structure_blocks} blocks "
                f"gave {found} distinct blocks for a {n}-block stream"
            )
        starts = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        return blocks, starts

    def next_noise(self) -> int:
        """A scattered visit-once address (wraps after region exhaustion).

        The mapping from cursor to offset is a composition of bijections
        (odd multiply, xor-shift, odd multiply) over the power-of-two
        span, so draws never repeat within a pass *and* consecutive draws
        have no affine structure a stride detector could latch onto.
        """
        if self.noise_blocks == 0:
            raise ValueError("no noise region configured")
        mask = self.noise_span - 1
        mixed = (self._noise_cursor * 0x9E3779B1) & mask
        mixed ^= mixed >> 7
        mixed = (mixed * 0x85EBCA6B) & mask
        self._noise_cursor = (self._noise_cursor + 1) % self.noise_span
        return self.noise_base + mixed

    def next_scan_run(self, length: int) -> np.ndarray:
        """A contiguous run of scan addresses (stride-prefetcher food)."""
        if self.scan_blocks == 0:
            raise ValueError("no scan region configured")
        if length <= 0:
            raise ValueError("scan run length must be positive")
        start = self._scan_cursor
        offsets = (start + np.arange(length)) % self.scan_blocks
        self._scan_cursor = (start + length) % self.scan_blocks
        return (offsets + self.scan_base).astype(np.int64)

    def hot_block(self) -> int:
        """A block from the small cache-resident hot set."""
        if self.hot_blocks == 0:
            raise ValueError("no hot region configured")
        return self.below(self.hot_blocks) + self.hot_base


def _split(blocks: np.ndarray, starts: np.ndarray) -> "list[np.ndarray]":
    """Views of ``blocks`` between consecutive ``starts``."""
    bounds = starts.tolist()
    return [blocks[a:b] for a, b in zip(bounds, bounds[1:])]


class StreamPool:
    """Recurring temporal streams with Zipf-skewed popularity.

    Stream lengths are log-normal: the paper observes stream lengths from
    two to hundreds of misses with roughly half of commercial *streamed
    blocks* coming from streams of ten or more (Fig. 6 left).  A log-normal
    body with a moderate sigma reproduces that weighted distribution.
    """

    def __init__(
        self,
        context: GeneratorContext,
        count: int,
        median_length: float,
        sigma: float,
        zipf_alpha: float,
        max_length: int = 4096,
    ) -> None:
        if count <= 0:
            raise ValueError("stream count must be positive")
        if median_length < 2:
            raise ValueError("median_length must be at least 2")
        if max_length < 2:
            raise ValueError("max_length must be at least 2")
        lengths = np.exp(
            context.rng.normal(np.log(median_length), sigma, size=count)
        )
        lengths = np.clip(np.round(lengths), 2, max_length).astype(int)
        #: Every structure back to back, and their start offsets.
        self.blocks, self.starts = context.alloc_flat(lengths)
        self.streams = _split(self.blocks, self.starts)
        ranks = np.arange(1, count + 1, dtype=float)
        weights = ranks ** (-zipf_alpha)
        #: Cumulative pick probabilities (what :meth:`pick` bisects).
        self.popularity = np.cumsum(weights / weights.sum())
        self._cumulative = self.popularity.tolist()
        self._context = context

    def __len__(self) -> int:
        return len(self.streams)

    def pick(self) -> np.ndarray:
        """Sample one stream according to the popularity distribution."""
        # bisect_left is ``np.searchsorted``'s default (left) side.
        index = bisect_left(self._cumulative, self._context.uniform())
        return self.streams[min(index, len(self.streams) - 1)]

    def total_blocks(self) -> int:
        return len(self.blocks)

    def length_distribution(self) -> np.ndarray:
        return np.diff(self.starts)


class TraceGenerator(ABC):
    """Interface all workload generators implement."""

    #: Human-readable workload name (overridden per instance).
    name: str = "workload"

    @abstractmethod
    def generate(
        self, cores: int, records_per_core: int, seed: int
    ) -> Trace:
        """Produce a trace with ``records_per_core`` accesses per core."""

    @staticmethod
    def _assemble(
        name: str,
        columns: "list[tuple[np.ndarray, ...]]",
        working_set_blocks: int,
        warmup_fraction: float,
    ) -> Trace:
        """A trace from each core's ``(blocks, work, dep, write)``."""
        return Trace(
            name=name,
            blocks=[c[0] for c in columns],
            work=[c[1] for c in columns],
            dep=[c[2] for c in columns],
            write=[c[3] for c in columns],
            working_set_blocks=working_set_blocks,
            warmup_fraction=warmup_fraction,
        )
