"""Sweep engine: every cell of one trace's grid in one invocation.

Every sweep experiment (fig7's sampling sweep, the mix-contention
L2 x DRAM grid, fig5's metadata sweeps) simulates many configurations of
the *same trace*.  :func:`run_sweep` acquires that trace once (a cold
generation costs ~2.5 s per recipe at bench scale), serves the cells
the session tiers already hold, and simulates the rest one after the
other on the one trace.  Nothing per record is precomputed: the
compiled kernel hashes each STMS miss to its index bucket and tag as
the miss happens.

What is *not* shared is the simulated machine state: the cells of a
sweep observe genuinely different cache, stream-engine, and DRAM
histories (a different sampling probability changes index contents,
hence streams, hence timing), so per-cell dynamic state cannot be
merged without changing results.  Every cell stays bit-identical to the
scalar reference engine — pinned by the sweep cases in
``tests/sim/test_engine_differential.py``.

A cell run on the scalar engine (``REPRO_SIM_ENGINE=scalar``) is
counted in ``SessionStats.sweep_fallbacks`` instead of
``sweep_cells``, so a run that left the fast engines shows in
``repro cache stats``.  Results land in the session/store under the
existing per-cell keys: warm hits and single-cell fetches keep working
unchanged.  The runner sends every trace group through here, a
one-cell group included (a sweep of one).
"""

from __future__ import annotations

from repro.sim.config import resolve_engine
from repro.sim.results import SimResult
from repro.sim.session import SimSession, get_session


def run_sweep(
    jobs: "list",
    session: "SimSession | None" = None,
) -> "list[SimResult]":
    """Run a group of jobs sharing one trace as one sweep invocation.

    All ``jobs`` must share a ``trace_key()`` (the runner groups them
    before calling).  Cached cells are served from the session tiers
    exactly as :func:`repro.sim.runner.run_job` would serve them; only
    the cells that actually need simulating are counted as a sweep
    invocation, so a warm grid costs no simulation at all.
    """
    from repro.sim.runner import _job_configs, job_result_key, make_factory

    if session is None:
        session = get_session()
    if not jobs:
        return []
    first = jobs[0]
    trace = session.trace(
        first.workload,
        scale=first.scale,
        cores=first.cores,
        seed=first.seed,
        records_per_core=first.records_per_core,
    )
    fingerprint = trace.fingerprint()
    results: "list[SimResult | None]" = [None] * len(jobs)
    # Each cell's configs and result key are built once: the probe
    # looks the key up, and a miss simulates under the same key.
    pending: "list[tuple]" = []
    for index, job in enumerate(jobs):
        configs = _job_configs(job, trace.cores)
        key = job_result_key(job, fingerprint, trace.cores, configs)
        cached = session.lookup_result(key)
        if cached is not None:
            results[index] = cached
        else:
            pending.append((index, configs, key))
    if not pending:
        return results  # type: ignore[return-value]

    cells = 0
    fallbacks = 0
    for index, (sim_config, stms_config), key in pending:
        job = jobs[index]
        if resolve_engine(sim_config.engine) == "scalar":
            fallbacks += 1
        else:
            cells += 1
        results[index] = session.simulate(
            trace,
            sim_config,
            temporal_key=None,  # the key stands for it
            temporal_factory=make_factory(
                job.kind, stms_config, **dict(job.factory_options)
            ),
            label=job.kind.value,
            key=key,
        )

    session.stats.sweep_invocations += 1
    session.stats.sweep_cells += cells
    session.stats.sweep_fallbacks += fallbacks
    return results  # type: ignore[return-value]
