"""Concurrency hardening of the artifact store.

One store directory is shared by the parallel runner's worker
processes and by concurrent CLI runs.  These tests pin two bugs that
sharing makes real:

* ``bump_counters`` was an unlocked read-modify-write — concurrent
  writers silently lost increments.  The multi-process stress test
  asserts exact conservation under N concurrent callers.
* Orphaned ``.tmp-*`` files from crashed writers were invisible to
  ``entries()`` and therefore never collected — they accumulated
  forever and evaded the size cap.  The sweep tests assert the
  age-gated reclaim from ``gc()`` and ``clear()``.
"""

import json
import multiprocessing
import os
import time

from repro.sim.session import SimSession
from repro.sim.store import ArtifactStore

BUMPS_PER_WRITER = 25
WRITERS = 4


def _hammer_counters(root: str, bumps: int, barrier) -> None:
    """One writer process: open the store, bump counters ``bumps`` times."""
    store = ArtifactStore(root)
    barrier.wait()  # maximize overlap: all writers start together
    for index in range(bumps):
        # Mixed single/batched bumps: both go through the same RMW.
        if index % 2:
            store.bump_counter("stress", 1)
        else:
            store.bump_counters({"stress": 1, "stress_pairs": 1})


def test_bump_counters_multiprocess_conservation(tmp_path):
    """N concurrent writer processes lose zero increments."""
    root = str(tmp_path / "store")
    ArtifactStore(root)  # settle schema stamping before the race
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(WRITERS)
    workers = [
        context.Process(
            target=_hammer_counters, args=(root, BUMPS_PER_WRITER, barrier)
        )
        for _ in range(WRITERS)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    counters = ArtifactStore(root).counters()
    assert counters["stress"] == WRITERS * BUMPS_PER_WRITER
    assert counters["stress_pairs"] == WRITERS * (
        BUMPS_PER_WRITER - BUMPS_PER_WRITER // 2
    )


def test_bump_counters_zero_deltas_write_nothing(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    store.bump_counters({"a": 0, "b": 0})
    assert not os.path.exists(os.path.join(store.root, "counters.json"))


def test_counter_lock_is_not_a_store_entry(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    store.bump_counter("a")
    assert os.path.exists(os.path.join(store.root, "counters.lock"))
    assert store.entries() == []
    assert store.total_bytes() == 0


# ----------------------------------------------------------------------
# Stale-temp sweeping.
# ----------------------------------------------------------------------


def _plant_temp(directory: str, name: str, age_seconds: float) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as handle:
        handle.write(b"orphan")
    stamp = time.time() - age_seconds
    os.utime(path, (stamp, stamp))
    return path


def test_gc_sweeps_stale_temps_but_keeps_live_ones(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    session = SimSession(enabled=True, store=store)
    stale_trace = _plant_temp(store.root + "/traces", ".tmp-dead", 7200)
    stale_result = _plant_temp(store.root + "/results", ".tmp-gone", 7200)
    live = _plant_temp(store.root + "/traces", ".tmp-live", 10)
    # Invisible to the entry listing (that's the bug: they never aged
    # out), so only the sweep can reclaim them.
    assert store.entries() == []
    swept = store.gc(max_bytes=1 << 30)
    assert swept == 0  # nothing *evicted* — the cap is huge
    assert not os.path.exists(stale_trace)
    assert not os.path.exists(stale_result)
    assert os.path.exists(live)
    assert session.stats.stale_temps_swept == 2
    session.persist_counters()
    assert store.counters()["stale_temps_swept"] == 2


def test_clear_sweeps_stale_temps(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    session = SimSession(enabled=True, store=store)
    stale = _plant_temp(store.root + "/results", ".tmp-x", 7200)
    store.clear()
    assert not os.path.exists(stale)
    session.persist_counters()
    assert store.counters()["stale_temps_swept"] == 1


def test_sweep_default_gate_spares_young_temps(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    path = _plant_temp(store.root + "/traces", ".tmp-y", 120)
    assert store.sweep_stale_temps() == 0  # default 1h gate: too young
    assert os.path.exists(path)


def test_sweep_explicit_age_argument(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    _plant_temp(store.root + "/results", ".tmp-z", 30)
    assert store.sweep_stale_temps(max_age_seconds=10) == 1


def test_counters_survive_sweep_and_are_valid_json(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    session = SimSession(enabled=True, store=store)
    store.bump_counters({"existing": 5})
    _plant_temp(store.root + "/traces", ".tmp-a", 7200)
    store.gc(max_bytes=1 << 30)
    session.persist_counters()
    with open(os.path.join(store.root, "counters.json"), "rb") as handle:
        raw = json.load(handle)
    assert raw == {"existing": 5, "stale_temps_swept": 1}
