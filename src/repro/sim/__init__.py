"""Trace-driven simulation engine, timing model, metrics, and runners.

The engine replays per-core traces through the CMP hierarchy with a
limited-overlap timing model: cores advance local clocks, dependent
off-chip misses stall, independent ones overlap, and all DRAM traffic —
demand, write-back, prefetch fills, and STMS meta-data — shares one
bandwidth-regulated channel with demand priority.

Import names from the defining submodules: the package re-exports
nothing, so importing one submodule does not load its siblings.
"""
