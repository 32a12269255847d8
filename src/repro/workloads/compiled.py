"""The compiled trace emitters: the generators' per-record loops in C.

The commercial and DSS activity loops, the scientific iteration loop
and :meth:`~repro.workloads.base.GeneratorContext.alloc_streams`'
first-n-distinct pass run in the emitter section of the library
:mod:`repro.sim.library` builds (``kernel.c``), writing each core's
``blocks``, ``work``, ``dep`` and ``write`` columns straight into NumPy
arrays.  The C loops draw from the context's own PCG64 stream: the
settled generator state, half-word carry included, goes across before
a call and comes back after it, so the Python reference emitters and
these produce the same traces bit for bit
(``tests/workloads/test_compiled_emitters.py``).  Every bulk NumPy draw
(pool lengths, structure draws, dependence flags, perturbation masks)
stays in Python.

:func:`library` decides which emitters run: the compiled ones whenever
the library loads, the Python ones (after the loader's one-time
warning) when it does not.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.library import Activities, Columns, GenContext, Iteration, load

if TYPE_CHECKING:
    from repro.workloads.base import GeneratorContext, StreamPool

_U64 = (1 << 64) - 1


def library(context: "GeneratorContext") -> "ctypes.CDLL | None":
    """The library when it serves ``context``; None: use the Python
    emitters.

    The C loops assume every address region is populated (a Python
    emitter raises ValueError only when it first draws from an empty
    one), so a context with an empty region stays on the reference.
    """
    if not (
        0 < context.hot_blocks < 1 << 32
        and context.scan_blocks > 0
        and context.noise_blocks > 0
    ):
        return None
    return load()


def empty_columns(capacity: int) -> "tuple[np.ndarray, ...]":
    """Uninitialized ``(blocks, work, dep, write)`` columns for
    ``capacity`` records."""
    return (
        np.empty(capacity, dtype=np.int64),
        np.empty(capacity, dtype=np.float32),
        np.empty(capacity, dtype=bool),
        np.empty(capacity, dtype=bool),
    )


def _columns(arrays: "tuple[np.ndarray, ...]", at: int) -> Columns:
    blocks, work, dep, write = arrays
    return Columns(
        blocks=blocks.ctypes.data, work=work.ctypes.data,
        dep=dep.ctypes.data, write=write.ctypes.data, at=at,
    )


def _hand_over(context: "GeneratorContext") -> "tuple[GenContext, dict]":
    """The context's settled state, as the C loops read it."""
    state, scan_cursor, noise_cursor = context.hand_over()
    lcg = state["state"]
    return GenContext(
        state_lo=lcg["state"] & _U64, state_hi=lcg["state"] >> 64,
        inc_lo=lcg["inc"] & _U64, inc_hi=lcg["inc"] >> 64,
        has_half=state["has_uint32"], half=state["uinteger"],
        hot_base=context.hot_base, hot_blocks=context.hot_blocks,
        scan_base=context.scan_base, scan_blocks=context.scan_blocks,
        scan_cursor=scan_cursor,
        noise_base=context.noise_base, noise_span=context.noise_span,
        noise_cursor=noise_cursor,
    ), state


def _take_back(
    context: "GeneratorContext", gen: GenContext, state: dict
) -> None:
    """Continue ``context`` from where the C loops left ``gen``."""
    state["state"] = {
        "state": gen.state_hi << 64 | gen.state_lo,
        "inc": gen.inc_hi << 64 | gen.inc_lo,
    }
    state["has_uint32"] = gen.has_half
    state["uinteger"] = gen.half
    context.take_back(state, gen.scan_cursor, gen.noise_cursor)


def emit_activities(
    lib: ctypes.CDLL,
    context: "GeneratorContext",
    pool: "StreamPool",
    activity_cdf: "list[float]",
    cores: int,
    records_per_core: int,
    **loop: "float | int",
) -> "list[tuple[np.ndarray, ...]]":
    """Each core's columns from the activity loop the commercial and
    DSS generators share; ``loop`` sets the rest of
    :class:`~repro.sim.library.Activities` by field name."""
    activities = Activities(
        activity_cdf=(ctypes.c_double * 4)(*activity_cdf),
        stream_blocks=pool.blocks.ctypes.data,
        stream_starts=pool.starts.ctypes.data,
        popularity=pool.popularity.ctypes.data,
        streams=len(pool),
        **loop,
    )
    # The last activity a core starts below records_per_core may run
    # past it by a whole traversal (a noise record after every block),
    # scan run or hot run.
    longest = int(np.diff(pool.starts).max())
    capacity = records_per_core - 1 + max(
        2 * longest, activities.scan_run, activities.hot_run, 1
    )
    gen, state = _hand_over(context)
    columns = []
    for _ in range(cores):
        arrays = empty_columns(capacity)
        count = lib.repro_emit_activities(
            ctypes.byref(gen), ctypes.byref(activities),
            ctypes.byref(_columns(arrays, 0)), records_per_core,
        )
        columns.append(tuple(array[:count] for array in arrays))
    _take_back(context, gen, state)
    return columns


def emit_iteration(
    lib: ctypes.CDLL,
    context: "GeneratorContext",
    iteration: np.ndarray,
    dep_flags: np.ndarray,
    arrays: "tuple[np.ndarray, ...]",
    at: int,
    **loop: "float | int",
) -> int:
    """Append one scientific iteration to ``arrays`` from index ``at``
    on; ``loop`` sets the rest of :class:`~repro.sim.library.Iteration`
    by field name.  Returns the new record count."""
    iteration = np.ascontiguousarray(iteration, dtype=np.int64)
    dep_flags = np.ascontiguousarray(dep_flags, dtype=bool)
    # The loop writes unchecked: a visit-once record may follow every
    # block, then come the sweeps.
    if len(dep_flags) != len(iteration) or any(
        len(array) < at + 2 * len(iteration) + loop["sweep_blocks"]
        for array in arrays
    ):
        raise ValueError("iteration does not fit the columns")
    spec = Iteration(
        blocks=iteration.ctypes.data, dep=dep_flags.ctypes.data,
        length=len(iteration), **loop,
    )
    gen, state = _hand_over(context)
    count = lib.repro_emit_iteration(
        ctypes.byref(gen), ctypes.byref(spec),
        ctypes.byref(_columns(arrays, at)),
    )
    _take_back(context, gen, state)
    return count


def first_distinct(
    lib: ctypes.CDLL,
    draw: np.ndarray,
    lengths: "list[int]",
    domain: int,
    base: int,
) -> "tuple[np.ndarray, int]":
    """The kept blocks of :meth:`GeneratorContext.alloc_streams`, back
    to back, and the number of structures completed (fewer than
    ``len(lengths)`` when one's draw held too few distinct values)."""
    draw = np.ascontiguousarray(draw, dtype=np.int64)
    counts = np.asarray(lengths, dtype=np.int64)
    seen = np.zeros(domain, dtype=np.uint8)
    out = np.empty(int(counts.sum()), dtype=np.int64)
    done = lib.repro_first_distinct(
        draw.ctypes.data, counts.ctypes.data, len(counts),
        seen.ctypes.data, base, out.ctypes.data,
    )
    return out, done
