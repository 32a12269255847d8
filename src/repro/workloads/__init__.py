"""Synthetic workload suite standing in for the paper's trace inputs.

The paper drives its evaluation with full-system traces of commercial
servers (TPC-C on Oracle and DB2, SPECweb99 on Apache and Zeus, TPC-H
queries) and scientific codes (em3d, ocean, moldyn).  Those traces cannot
be redistributed, so this subpackage synthesizes per-core memory-access
traces that match the *statistics that drive temporal prefetching*:

* recurring temporal streams with the paper's heavy-tailed length
  distribution (half of commercial streamed blocks from streams >= ~10),
* a spectrum of reuse distances (commercial) vs. iteration-periodic reuse
  (scientific),
* visit-once scan behaviour for DSS,
* dependence structure yielding the paper's Table 2 MLP values.

Import names from the defining submodules: the package re-exports
nothing, so importing one submodule does not load its siblings.
"""
