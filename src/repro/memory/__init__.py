"""Memory-hierarchy substrate: caches, MSHRs, DRAM, traffic, CMP wiring.

This subpackage implements the simulated machine the STMS prefetcher runs
on: set-associative LRU caches, miss-status holding registers, a
bandwidth-regulated DRAM channel with two priority classes (demand
traffic beats meta-data traffic), per-category traffic accounting, and
the four-core CMP hierarchy of the paper's Table 1.
"""

from repro.memory.address import (
    BLOCK_BYTES,
    AddressSpace,
    block_of,
    block_to_address,
)
from repro.memory.cache import Cache, CacheConfig, AccessResult
from repro.memory.dram import DramChannel, DramConfig, Priority
from repro.memory.hierarchy import CmpConfig, CmpHierarchy, HierarchyEvent
from repro.memory.mshr import MshrFile
from repro.memory.traffic import TrafficCategory, TrafficMeter

__all__ = [
    "BLOCK_BYTES",
    "AddressSpace",
    "block_of",
    "block_to_address",
    "Cache",
    "CacheConfig",
    "AccessResult",
    "DramChannel",
    "DramConfig",
    "Priority",
    "CmpConfig",
    "CmpHierarchy",
    "HierarchyEvent",
    "MshrFile",
    "TrafficCategory",
    "TrafficMeter",
]
