"""The shared-memory trace plane module (`repro.sim.shm`).

Export/attach round-trips (columns, trace fields, fingerprints) and
segment cleanup, the atexit backstop included.  The runner does not use
the plane (its cell shards inherit the parent's trace by fork); the
module stays while the benchmark harness pins it, and so do these
tests.  The scheduling cases live in `test_runner.py`.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.sim import shm
from repro.sim.shm import TracePlane, attach
from repro.workloads.trace import Trace


def _segments() -> "set[str]":
    return set(glob.glob("/dev/shm/psm_*"))


def _mix_trace() -> Trace:
    """A tiny hand-built trace exercising every metadata field."""
    rng = np.random.default_rng(3)
    cores = 2
    return Trace(
        name="mix:a+b",
        blocks=[
            rng.integers(0, 512, size=97, dtype=np.int64)
            for _ in range(cores)
        ],
        work=[
            rng.random(97).astype(np.float32) * 4 for _ in range(cores)
        ],
        dep=[rng.random(97) < 0.5 for _ in range(cores)],
        write=[rng.random(97) < 0.2 for _ in range(cores)],
        working_set_blocks=512,
        warmup_fraction=0.25,
        core_workloads=["a", "b"],
        core_warmup=[0.25, 0.5],
        core_rates=[1.0, 0.5],
        core_priorities=["high", "low"],
    )


# ----------------------------------------------------------------------
# Export / attach round-trip.
# ----------------------------------------------------------------------


def test_export_attach_round_trip():
    trace = _mix_trace()
    before = _segments()
    with TracePlane() as plane:
        payload = plane.export(trace)
        assert payload is not None
        assert payload.total_bytes > 0
        copy = attach(payload)
        assert copy is not None
        assert copy.fingerprint() == trace.fingerprint()
        assert copy.name == trace.name
        assert copy.core_workloads == trace.core_workloads
        assert copy.core_warmup == trace.core_warmup
        assert copy.core_rates == trace.core_rates
        assert copy.core_priorities == trace.core_priorities
        for core in range(trace.cores):
            np.testing.assert_array_equal(
                copy.blocks[core], trace.blocks[core]
            )
            np.testing.assert_array_equal(
                copy.work[core], trace.work[core]
            )
            np.testing.assert_array_equal(copy.dep[core], trace.dep[core])
            np.testing.assert_array_equal(
                copy.write[core], trace.write[core]
            )
            assert copy.blocks[core].dtype == np.asarray(
                trace.blocks[core]
            ).dtype
            # Zero-copy views are read-only.
            with pytest.raises((ValueError, RuntimeError)):
                copy.blocks[core][0] = 1
    # Plane closed: nothing new in /dev/shm, registry empty.
    assert _segments() <= before
    assert shm._OWNED == {}


def test_attach_after_close_degrades_to_none():
    trace = _mix_trace()
    with TracePlane() as plane:
        payload = plane.export(trace)
    assert attach(payload) is None


def test_export_without_shared_memory_module(monkeypatch):
    monkeypatch.setattr(shm, "_shared_memory", None)
    with TracePlane() as plane:
        assert plane.export(_mix_trace()) is None


def test_atexit_sweep_releases_owned_segments():
    plane = TracePlane()
    payload = plane.export(_mix_trace())
    assert payload is not None
    assert payload.segment in shm._OWNED
    shm._sweep_owned()
    assert shm._OWNED == {}
    assert attach(payload) is None
    plane.close()  # idempotent after the sweep
