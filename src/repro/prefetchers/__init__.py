"""Prefetcher implementations: the base system's stride prefetcher and the
address-correlating baselines STMS is compared against.

* :mod:`repro.prefetchers.stride` — the stride prefetcher present in the
  paper's base system (all coverage is reported in excess of it).
* :mod:`repro.prefetchers.markov` — pair-wise correlation (Markov)
  prefetcher from the background discussion.
* :mod:`repro.prefetchers.ideal_tms` — idealized temporal memory streaming
  with "magic" on-chip meta-data (zero-latency, unbounded), optionally
  entry-capped for Figure 1 (left).
* :mod:`repro.prefetchers.fixed_depth` — single-table design with a fixed
  prefetch depth (EBCP/ULMT-style), for Figure 6 (right).
* :mod:`repro.prefetchers.traffic_models` — analytic overhead-traffic
  models of ULMT, EBCP, and TSE for Figure 1 (right).

Import names from the defining submodules: the package re-exports
nothing, so importing one submodule does not load its siblings.
"""
