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
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.workloads.trace import Trace, TraceBuilder


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


class GeneratorContext:
    """Seeded randomness plus the block-address layout of one workload.

    The application's physical space is carved into disjoint regions so
    activities never alias each other accidentally:

    ``[0, hot) | [hot, hot+structures) | scans | noise``
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
        self.rng = np.random.default_rng(seed)
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
            self._noise_span = 1 << (noise_blocks.bit_length() - 1)
        else:
            self._noise_span = 0
        self._scan_cursor = 0

    @property
    def total_blocks(self) -> int:
        return self.noise_base + self.noise_blocks

    def alloc_stream(self, length: int) -> np.ndarray:
        """Draw ``length`` distinct pseudo-random structure blocks.

        Addresses are scattered (pointer-chasing layout) so the baseline
        stride prefetcher cannot cover them.
        """
        if length <= 0:
            raise ValueError("stream length must be positive")
        if self.structure_blocks == 0:
            raise ValueError("no structure region configured")
        # Over-draw and deduplicate to guarantee distinct addresses while
        # preserving draw order.
        draw = self.rng.integers(
            0, self.structure_blocks, size=2 * length + 8
        )
        _, first_positions = np.unique(draw, return_index=True)
        ordered = draw[np.sort(first_positions)][:length]
        return (ordered + self.structure_base).astype(np.int64)

    def next_noise(self) -> int:
        """A scattered visit-once address (wraps after region exhaustion).

        The mapping from cursor to offset is a composition of bijections
        (odd multiply, xor-shift, odd multiply) over the power-of-two
        span, so draws never repeat within a pass *and* consecutive draws
        have no affine structure a stride detector could latch onto.
        """
        if self.noise_blocks == 0:
            raise ValueError("no noise region configured")
        mask = self._noise_span - 1
        mixed = (self._noise_cursor * 0x9E3779B1) & mask
        mixed ^= mixed >> 7
        mixed = (mixed * 0x85EBCA6B) & mask
        self._noise_cursor = (self._noise_cursor + 1) % self._noise_span
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
        return int(self.rng.integers(0, self.hot_blocks)) + self.hot_base


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
        rng = context.rng
        lengths = np.exp(
            rng.normal(np.log(median_length), sigma, size=count)
        )
        lengths = np.clip(np.round(lengths), 2, max_length).astype(int)
        self.streams = [context.alloc_stream(int(n)) for n in lengths]
        ranks = np.arange(1, count + 1, dtype=float)
        weights = ranks ** (-zipf_alpha)
        self._cumulative = np.cumsum(weights / weights.sum())
        self._rng = rng

    def __len__(self) -> int:
        return len(self.streams)

    def pick(self) -> np.ndarray:
        """Sample one stream according to the popularity distribution."""
        u = self._rng.random()
        index = int(np.searchsorted(self._cumulative, u))
        return self.streams[min(index, len(self.streams) - 1)]

    def total_blocks(self) -> int:
        return int(sum(len(s) for s in self.streams))

    def length_distribution(self) -> np.ndarray:
        return np.array([len(s) for s in self.streams])


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
    def _work_cycles(rng: np.random.Generator, mean: float) -> float:
        """Jittered compute-cycle cost for one record (+-50 %)."""
        return mean * (0.5 + rng.random())

    @staticmethod
    def _assemble(
        name: str,
        builders: list[TraceBuilder],
        working_set_blocks: int,
        warmup_fraction: float,
    ) -> Trace:
        columns = [b.freeze() for b in builders]
        return Trace(
            name=name,
            blocks=[c[0] for c in columns],
            work=[c[1] for c in columns],
            dep=[c[2] for c in columns],
            write=[c[3] for c in columns],
            working_set_blocks=working_set_blocks,
            warmup_fraction=warmup_fraction,
        )
