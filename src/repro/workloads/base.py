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

Which emitter runs: each generator's draws and per-record loop run
compiled (:mod:`repro.workloads.compiled`) whenever the library
:mod:`repro.sim.library` builds loads, and in Python, the reference,
when it does not (no C compiler or no ``libnpyrandom.a``; the loader
warns once), drawing from ``numpy.random``
(:mod:`repro.workloads.reference`).  The set-up both share (pool
lengths, popularity, activity CDFs, structure draws) is computed here
with ``math`` and lists from the context's bulk draws, so both give the
same traces, and the compiled path imports no NumPy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from types import SimpleNamespace

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

    def probabilities(self) -> "list[float]":
        weights = [self.stream, self.scan, self.noise, self.hot]
        total = pairwise_sum(weights)
        return [weight / total for weight in weights]

    def cdf(self) -> "list[float]":
        """The normalized cumulative activity probabilities: bisecting
        it consumes exactly one uniform draw and picks exactly the index
        ``rng.choice(4, p=...)`` would."""
        cdf = list(accumulate(self.probabilities()))
        return [value / cdf[-1] for value in cdf]


#: Activity indices matching :meth:`ActivityMix.probabilities` order.
ACTIVITY_STREAM, ACTIVITY_SCAN, ACTIVITY_NOISE, ACTIVITY_HOT = range(4)


def pairwise_sum(values: "list[float]", start: int = 0,
                 count: "int | None" = None) -> float:
    """``numpy.sum`` of ``values[start:start + count]``, rounding for
    rounding: NumPy's pairwise summation (eight running sums over
    blocks of up to 128, halved recursively above that)."""
    if count is None:
        count = len(values) - start
    if count < 8:
        total = 0.0
        for value in values[start:start + count]:
            total += value
        return total
    if count <= 128:
        sums = values[start:start + 8]
        end = start + count - count % 8
        for base in range(start + 8, end, 8):
            for k in range(8):
                sums[k] += values[base + k]
        total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + (
            (sums[4] + sums[5]) + (sums[6] + sums[7])
        )
        for value in values[end:start + count]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return pairwise_sum(values, start, half) + pairwise_sum(
        values, start + half, count - half
    )


class GeneratorContext:
    """Seeded randomness plus the block-address layout of one workload.

    The application's physical space is carved into disjoint regions so
    activities never alias each other accidentally:

    ``[0, hot) | [hot, hot+structures) | scans | noise``

    :attr:`draws` is the context's randomness, seeded as
    ``numpy.random.default_rng(seed)``: the library's PCG64
    (:class:`~repro.workloads.compiled.NativeDraws`) whenever the
    library serves the context (:func:`repro.workloads.compiled.library`),
    and ``numpy.random`` with a window of pre-drawn uniforms
    (:class:`~repro.workloads.reference.NumpyDraws`) otherwise.  Both make
    the same bulk draws (``integers``, ``normal``, ``random``) and the
    same per-record ones (``uniform``, ``below``); the per-record loops
    run in C on the first, and in the Python emitters, which also read
    the window (``peek``, ``consume``), on the second.  The scan and
    noise cursors (``_cursors``) are kept once, in the library's context
    on the first, so the per-record helpers here and the compiled loops
    continue one another on either backend.
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
        self.hot_base = 0
        self.hot_blocks = hot_blocks
        self.structure_base = hot_blocks
        self.structure_blocks = structure_blocks
        self.scan_base = self.structure_base + structure_blocks
        self.scan_blocks = scan_blocks
        self.noise_base = self.scan_base + scan_blocks
        self.noise_blocks = noise_blocks
        # Visit-once noise must look like hash probes / buffer churn:
        # unique addresses with no spatial pattern a stride prefetcher
        # could learn.  A multiplicative permutation over the largest
        # power of two inside the region gives scattered, non-repeating
        # draws.
        if noise_blocks > 0:
            self.noise_span = 1 << (noise_blocks.bit_length() - 1)
        else:
            self.noise_span = 0
        lib = compiled.library(self)
        if lib is not None:
            self.draws = compiled.NativeDraws(lib, self, seed)
            self._cursors = self.draws.gen
        else:
            from repro.workloads.reference import NumpyDraws

            self.draws = NumpyDraws(seed)
            self._cursors = SimpleNamespace(scan_cursor=0, noise_cursor=0)

    @property
    def native(self) -> bool:
        """Whether the library draws for this context (and runs its
        emitters' loops)."""
        return isinstance(self.draws, compiled.NativeDraws)

    @property
    def total_blocks(self) -> int:
        return self.noise_base + self.noise_blocks

    def alloc_stream(self, length: int) -> array:
        """Draw ``length`` distinct pseudo-random structure blocks.

        Addresses are scattered (pointer-chasing layout) so the baseline
        stride prefetcher cannot cover them.
        """
        return self.alloc_streams([length])[0]

    def alloc_streams(self, lengths) -> "list[array]":
        """:meth:`alloc_stream` for each of ``lengths``, in one draw
        (slices of :meth:`alloc_flat`'s array)."""
        return _split(*self.alloc_flat(lengths))

    def alloc_flat(self, lengths) -> "tuple[array, array]":
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
        draw = self.draws.integers(
            self.structure_blocks, sum(2 * n + 8 for n in lengths)
        )
        if self.native:
            blocks, done = compiled.first_distinct(
                self.draws.lib, draw, lengths, self.structure_blocks,
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
            base = self.structure_base
            blocks = array("q", [block + base for block in kept])
        if done < len(lengths):
            n = lengths[done]
            start = sum(2 * m + 8 for m in lengths[:done])
            found = len(set(draw[start:start + 2 * n + 8].tolist()))
            raise ValueError(
                f"structure region of {self.structure_blocks} blocks "
                f"gave {found} distinct blocks for a {n}-block stream"
            )
        return blocks, array("q", accumulate(lengths, initial=0))

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
        cursors = self._cursors
        mixed = (cursors.noise_cursor * 0x9E3779B1) & mask
        mixed ^= mixed >> 7
        mixed = (mixed * 0x85EBCA6B) & mask
        cursors.noise_cursor = (cursors.noise_cursor + 1) % self.noise_span
        return self.noise_base + mixed

    def next_scan_run(self, length: int) -> "list[int]":
        """A contiguous run of scan addresses (stride-prefetcher food)."""
        blocks, base = self.scan_blocks, self.scan_base
        if blocks == 0:
            raise ValueError("no scan region configured")
        if length <= 0:
            raise ValueError("scan run length must be positive")
        cursors = self._cursors
        start = cursors.scan_cursor
        cursors.scan_cursor = (start + length) % blocks
        return [base + (start + i) % blocks for i in range(length)]

    def hot_block(self) -> int:
        """A block from the small cache-resident hot set."""
        if self.hot_blocks == 0:
            raise ValueError("no hot region configured")
        return self.draws.below(self.hot_blocks) + self.hot_base


def _split(blocks: array, starts: array) -> "list[array]":
    """Slices of ``blocks`` between consecutive ``starts``."""
    return [blocks[a:b] for a, b in zip(starts, starts[1:])]


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
        # exp(x) of a draw past log(max_length) clips to max_length; the
        # cap keeps math.exp from overflowing where NumPy's gives inf.
        cap = math.log(max_length) + 1.0
        draws = context.draws.normal(math.log(median_length), sigma, count)
        lengths = [
            min(max(round(math.exp(min(x, cap))), 2), max_length)
            for x in draws
        ]
        #: Every structure back to back, and their start offsets.
        self.blocks, self.starts = context.alloc_flat(lengths)
        self.streams = _split(self.blocks, self.starts)
        weights = [float(rank) ** -zipf_alpha for rank in range(1, count + 1)]
        total = pairwise_sum(weights)
        #: Cumulative pick probabilities (what :meth:`pick` bisects).
        self.popularity = array(
            "d", accumulate(weight / total for weight in weights)
        )
        self._draws = context.draws

    def __len__(self) -> int:
        return len(self.streams)

    def pick(self) -> array:
        """Sample one stream according to the popularity distribution."""
        # bisect_left is ``np.searchsorted``'s default (left) side.
        index = bisect_left(self.popularity, self._draws.uniform())
        return self.streams[min(index, len(self.streams) - 1)]

    def total_blocks(self) -> int:
        return len(self.blocks)

    def length_distribution(self) -> "list[int]":
        starts = self.starts
        return [b - a for a, b in zip(starts, starts[1:])]


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
        columns: "list[tuple]",
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
