"""Memory-hierarchy substrate: caches, MSHRs, DRAM, traffic, CMP wiring.

This subpackage implements the simulated machine the STMS prefetcher runs
on: set-associative LRU caches, miss-status holding registers, a
bandwidth-regulated DRAM channel with two priority classes (demand
traffic beats meta-data traffic), per-category traffic accounting, and
the four-core CMP hierarchy of the paper's Table 1.

Import names from the defining submodules: the package re-exports
nothing, so importing one submodule does not load its siblings.
"""
