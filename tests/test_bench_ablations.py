"""Ablations of STMS design choices at the ``bench`` scale (beyond the
paper's figures).

Each ablation isolates one mechanism of the design:

* stream-end annotation (Section 4.5) — accuracy / erroneous traffic;
* the on-chip bucket buffer (Section 4.3) — index-traffic absorption;
* realistic truncated index tags vs. full tags — aliasing cost;
* pair-wise (Markov) correlation vs. temporal streaming — lookahead.
"""

import pytest

from repro.sim.runner import (
    PrefetcherKind,
    make_stms_config,
    run_trace,
)
from repro.workloads.suite import generate

pytestmark = pytest.mark.slow

WORKLOAD = "oltp-db2"
SCALE = "bench"


@pytest.fixture(scope="module")
def trace():
    return generate(WORKLOAD, scale=SCALE, cores=4, seed=7)


def run_stms(trace, **overrides):
    return run_trace(
        trace, PrefetcherKind.STMS, scale=SCALE,
        stms_config=make_stms_config(SCALE, cores=4, **overrides),
    )


def test_ablation_stream_end_annotation(trace):
    """Without end-of-stream marks, streaming runs past boundaries and
    wastes bandwidth on erroneous prefetches (paper Section 4.5)."""
    with_marks = run_stms(trace)
    without_marks = run_stms(trace, annotate_stream_ends=False)
    assert with_marks.prefetcher_stats.accuracy >= (
        without_marks.prefetcher_stats.accuracy - 0.02
    )
    # Coverage must not be sacrificed for the accuracy gain.
    assert with_marks.coverage.coverage >= (
        0.9 * without_marks.coverage.coverage
    )


def test_ablation_bucket_buffer(trace):
    """The 8 KB bucket buffer absorbs index traffic between lookup,
    update, and write-back; shrinking it to one bucket exposes every
    access to memory."""
    normal = run_stms(trace)
    tiny = run_stms(trace, bucket_buffer_entries=1)
    normal_index_traffic = (
        normal.traffic.update_index + normal.traffic.lookup_streams
    )
    tiny_index_traffic = (
        tiny.traffic.update_index + tiny.traffic.lookup_streams
    )
    assert tiny_index_traffic > normal_index_traffic


def test_ablation_tag_truncation(trace):
    """Truncated 16-bit tags (the packed hardware format) may alias, but
    coverage must stay close to the full-tag configuration."""
    full_tags = run_stms(trace)
    packed_tags = run_stms(trace, tag_bits=16)
    assert packed_tags.coverage.coverage >= (
        0.8 * full_tags.coverage.coverage
    )


def test_ablation_markov_vs_temporal(trace):
    """Pair-wise correlation predicts only one miss ahead, so even with
    magic on-chip tables it cannot hide a full memory latency per
    prediction; temporal streaming's long lookahead turns coverage into
    *fully covered* misses.  (Both run with on-chip meta-data here —
    ideal TMS vs. Markov — the paper's Section 2 contrast.)"""
    markov = run_trace(trace, PrefetcherKind.MARKOV, scale=SCALE)
    ideal = run_trace(trace, PrefetcherKind.IDEAL_TMS, scale=SCALE)
    baseline = run_trace(trace, PrefetcherKind.BASELINE, scale=SCALE)
    # Streaming hides the latency of covered misses; pair-wise
    # prediction leaves most covered misses only partially hidden.
    markov_full_share = markov.coverage.full_coverage / max(
        markov.coverage.coverage, 1e-9
    )
    ideal_full_share = ideal.coverage.full_coverage / max(
        ideal.coverage.coverage, 1e-9
    )
    assert ideal_full_share >= markov_full_share
    assert ideal.speedup_over(baseline) >= markov.speedup_over(baseline)


def test_ablation_lookahead(trace):
    """Deeper lookahead hides more latency (more fully-covered misses)."""
    shallow = run_stms(trace, lookahead=2)
    deep = run_stms(trace, lookahead=16)
    assert deep.coverage.full_coverage >= shallow.coverage.full_coverage
