"""Shared fixtures: small deterministic traces and machine components."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.config import DramConfig
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.memory.hierarchy import CmpConfig
from repro.sim.engine import SimConfig, _RunState
from repro.sim.metrics import check_invariants
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    """Keep the suite hermetic: never read a developer's (or CI's)
    artifact store or cache switches through the environment, and send
    the CLI's default store location to a per-test directory so bare
    ``repro run``-style invocations cannot touch ``~/.cache``.  Tests
    that exercise the disk tier pass an ArtifactStore explicitly."""
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    monkeypatch.delenv("REPRO_STORE_MAX_MB", raising=False)
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_SHM", raising=False)
    fallback = str(tmp_path / "default-store")
    monkeypatch.setattr(
        "repro.cli.default_store_dir", lambda: fallback
    )


@pytest.fixture(autouse=True)
def _invariants_after_every_simulation(monkeypatch: pytest.MonkeyPatch):
    """Hold every simulation the suite runs to the conservation oracle.

    The scalar, batch and kernel run states all inherit
    ``_RunState.result``, so wrapping it runs
    :func:`~repro.sim.metrics.check_invariants` after each finished
    run, whichever engine, runner path or worker process produced it
    (forked workers inherit the wrapper).
    """
    result = _RunState.result

    def checked(state, label):
        finished = result(state, label)
        check_invariants(state, finished)
        return finished

    monkeypatch.setattr(_RunState, "result", checked)


@pytest.fixture
def dram() -> DramChannel:
    return DramChannel(DramConfig())


@pytest.fixture
def traffic() -> TrafficMeter:
    return TrafficMeter()


@pytest.fixture
def tiny_cmp_config() -> CmpConfig:
    """A miniature hierarchy: 1 KB L1s, 8 KB shared L2."""
    return CmpConfig(
        cores=2,
        l1_size_bytes=1024,
        l1_ways=2,
        l1_victim_blocks=4,
        l2_size_bytes=8192,
        l2_ways=4,
        l2_banks=4,
        l2_mshrs=16,
    )


@pytest.fixture
def tiny_sim_config(tiny_cmp_config: CmpConfig) -> SimConfig:
    return SimConfig(cmp=tiny_cmp_config)


def make_trace(
    per_core_blocks: "list[list[int]]",
    work: float = 50.0,
    dep: bool = True,
    write: bool = False,
    name: str = "synthetic",
    warmup_fraction: float = 0.0,
) -> Trace:
    """Build a trace from explicit per-core block sequences."""
    blocks = [np.asarray(seq, dtype=np.int64) for seq in per_core_blocks]
    return Trace(
        name=name,
        blocks=blocks,
        work=[np.full(len(b), work, dtype=np.float32) for b in blocks],
        dep=[np.full(len(b), dep, dtype=bool) for b in blocks],
        write=[np.full(len(b), write, dtype=bool) for b in blocks],
        working_set_blocks=int(
            max((int(b.max()) + 1 for b in blocks if len(b)), default=0)
        ),
        warmup_fraction=warmup_fraction,
    )


def repeating_sequence(
    length: int, repeats: int, seed: int = 0, span: int = 1_000_000
) -> "list[int]":
    """A distinct random block sequence repeated several times."""
    rng = np.random.default_rng(seed)
    base = rng.permutation(span)[:length].astype(np.int64)
    return list(np.tile(base, repeats))
