"""Index-table organizations at the ``bench`` scale (paper §4.3/§5.4).

Drives the bucketized (STMS), chained, and open-address organizations
with the index event stream of a real workload — a lookup on every
off-chip read miss and a sampled update after it — and verifies the
paper's conclusion: alternatives are either less storage efficient or
pay extra lookup accesses (latency) for their coverage.
"""

import numpy as np
import pytest

from repro.core.history_buffer import HistoryPointer
from repro.core.index_variants import compare_organizations
from repro.sim.engine import SimConfig, Simulator
from repro.sim.runner import make_sim_config
from repro.workloads.suite import generate

pytestmark = pytest.mark.slow

WORKLOAD = "oltp-db2"
SCALE = "bench"
SAMPLING = 0.125


def _index_event_stream():
    """Lookup+sampled-update events from the workload's miss sequence."""
    trace = generate(WORKLOAD, scale=SCALE, cores=4, seed=7)
    base = make_sim_config(SCALE)
    config = SimConfig(
        cmp=base.cmp, dram=base.dram, timing=base.timing,
        use_stride=base.use_stride, collect_miss_log=True,
    )
    result = Simulator(config).run(trace, None, "baseline")
    rng = np.random.default_rng(3)
    events = []
    sequence = 0
    for core, log in enumerate(result.miss_log):
        for block in log:
            events.append(("lookup", block, None))
            if rng.random() < SAMPLING:
                events.append(
                    ("update", block,
                     HistoryPointer(core=core, sequence=sequence))
                )
            sequence += 1
    return events


def test_index_organizations():
    results = compare_organizations(_index_event_stream(), buckets=2048)
    by_name = {r.name: r for r in results}
    bucketized = by_name["bucketized (STMS)"]
    chained = by_name["chained buckets"]
    open_address = by_name["open addressing"]

    # Paper §5.4: the bucketized table is searched with a single access.
    assert bucketized.accesses_per_lookup == 1.0
    # Chained buckets keep more entries but pay extra lookup accesses
    # and unbounded storage.
    assert chained.accesses_per_lookup >= 1.0
    assert chained.storage_bytes >= bucketized.storage_bytes
    # Open addressing walks probe groups on misses.
    assert open_address.accesses_per_lookup >= 1.0
