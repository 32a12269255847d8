"""``SessionStats``: the declared counters and their worker folding.

A worker process reports ``stats.since(before)``; the parent folds it
with ``stats.add``.  Persistence and ``cache stats`` iterate the same
fields, so these two methods are the whole contract.
"""

import dataclasses

import pytest

from repro.obs import SessionStats

FIELDS = [field.name for field in dataclasses.fields(SessionStats)]


def test_counters_start_at_zero():
    stats = SessionStats()
    assert FIELDS
    assert all(getattr(stats, name) == 0 for name in FIELDS)
    assert all(field.type == "int" for field in dataclasses.fields(stats))


def test_since_names_every_counter():
    before = SessionStats()
    after = dataclasses.replace(before, sim_misses=3, store_writes=5)
    deltas = after.since(before)
    assert list(deltas) == FIELDS
    assert {name: delta for name, delta in deltas.items() if delta} == {
        "sim_misses": 3, "store_writes": 5,
    }


def test_since_an_equal_snapshot_is_all_zero():
    stats = SessionStats(sim_records=1234, shm_exports=2)
    assert set(stats.since(dataclasses.replace(stats)).values()) == {0}


def test_folding_worker_deltas_sums_them():
    """Two workers' increases fold into the parent's running totals."""
    parent = SessionStats(sim_misses=1, sweep_cells=4)
    workers = []
    for cells in (3, 5):
        start = SessionStats(trace_hits=7)
        done = dataclasses.replace(
            start, sweep_cells=cells, sim_misses=cells
        )
        workers.append(done.since(start))
    for deltas in workers:
        parent.add(deltas)
    assert parent == SessionStats(sim_misses=9, sweep_cells=12)


def test_add_of_an_empty_report_changes_nothing():
    stats = SessionStats(bundle_skips=2)
    stats.add({})
    assert stats == SessionStats(bundle_skips=2)


def test_add_rejects_an_undeclared_counter():
    """A counter a worker reports must be declared here, or the fold
    fails instead of growing an attribute persistence never writes."""
    stats = SessionStats()
    with pytest.raises(AttributeError, match="no_such_counter"):
        stats.add({"no_such_counter": 1})
