"""Sampled Temporal Memory Streaming (STMS) — the paper's contribution.

The subpackage implements the three mechanisms that make off-chip
prefetcher meta-data practical:

* :mod:`repro.core.index_table` — a hardware-managed, bucketized hash
  table in main memory whose buckets fit one 64-byte memory block
  (12 entries, in-bucket LRU), giving single-access lookup.
* :mod:`repro.core.sampling` — probabilistic update: index-table writes
  are applied with a configurable sampling probability, trading a small
  coverage loss for a proportional bandwidth reduction.
* :mod:`repro.core.history_buffer` — per-core circular miss logs with
  packed block-granularity writes and end-of-stream annotations; split
  from the index so one lookup can feed arbitrarily long streams.

:class:`repro.core.stms.StmsPrefetcher` wires these together with the
on-chip bucket buffer (:mod:`repro.core.bucket_buffer`) and per-core
stream engines (:mod:`repro.core.stream_engine`).

Import names from the defining submodules: the package re-exports
nothing, so importing one submodule does not load its siblings.
"""
