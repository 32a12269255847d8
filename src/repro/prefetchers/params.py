"""Fixed prefetcher parameters, apart from the models: the Python
prefetchers and the compiled kernel's builder (:mod:`repro.sim.native`)
both read them here, so the kernel is built from configuration alone.
"""

from __future__ import annotations

from repro.memory.config import DramConfig

#: The base system's stride prefetcher (paper Table 1: "32-entry
#: buffer, max 16 distinct strides"): regions tracked and buffer blocks
#: per core, blocks run ahead per confirmed stride, repeats confirming
#: a stride, and blocks per aligned region (64 blocks = 4 KB pages).
STRIDE_TRACKER_ENTRIES = 16
STRIDE_BUFFER_BLOCKS = 32
STRIDE_DEGREE = 4
STRIDE_CONFIRM_THRESHOLD = 2
STRIDE_REGION_BLOCKS = 64
STRIDE_REGION_SHIFT = STRIDE_REGION_BLOCKS.bit_length() - 1

#: The stride prefetcher stops running ahead, and a temporal prefetcher
#: drops prefetches, once the channel's low-priority backlog exceeds
#: this many device accesses (bounded prefetch queue).
STRIDE_BACKLOG_ACCESSES = 4.0
TEMPORAL_BACKLOG_ACCESSES = 8.0


def backlog_limit(accesses: float, dram: DramConfig) -> float:
    """The backlog bound of ``accesses`` device accesses, in cycles."""
    return accesses * dram.access_latency_cycles
