"""The compiled trace emitters: the generators' draws and per-record
loops in C.

Whenever the library :mod:`repro.sim.library` builds loads, a
:class:`~repro.workloads.base.GeneratorContext` draws from a
:class:`NativeDraws`: a PCG64 the library steps, seeded as
``numpy.random.default_rng(seed)`` seeds its own.  The set-up's bulk
draws (pool lengths, structure draws, dependence flags, perturbation
masks) call numpy's own distributions on it, and the commercial and DSS
activity loops, the scientific iteration loop and
:meth:`~repro.workloads.base.GeneratorContext.alloc_streams`' first-n-
distinct pass run on it too, writing each core's ``blocks``, ``work``,
``dep`` and ``write`` columns straight into ``array.array`` and
``bytearray`` buffers.  No NumPy is imported, and no generator state
crosses between Python and C.  The Python reference emitters draw from
``numpy.random`` instead (:mod:`repro.workloads.reference`) and produce
the same traces bit for bit (``tests/workloads/test_compiled_emitters.py``).

:func:`library` decides which emitters run: the compiled ones whenever
the library loads, the Python ones (after the loader's one-time
warning) when it does not.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import TYPE_CHECKING

from repro.sim.library import (
    Activities,
    Columns,
    GenContext,
    Iteration,
    Pcg64,
    address,
    load,
)

if TYPE_CHECKING:
    from repro.workloads.base import GeneratorContext, StreamPool


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


class NativeDraws:
    """A context's randomness in the library: its PCG64, address layout
    and cursors (one :class:`~repro.sim.library.GenContext`), and the
    draws ``numpy.random.Generator`` would make from it: in bulk, and
    one at a time for the per-record helpers the Python emitters
    share."""

    def __init__(
        self, lib: ctypes.CDLL, context: "GeneratorContext", seed: int
    ) -> None:
        self.lib = lib
        self.gen = GenContext(
            rng=Pcg64.seeded(seed),
            hot_base=context.hot_base, hot_blocks=context.hot_blocks,
            scan_base=context.scan_base, scan_blocks=context.scan_blocks,
            noise_base=context.noise_base, noise_span=context.noise_span,
        )
        self._rng = ctypes.byref(self.gen.rng)

    def integers(self, n: int, size: int) -> array:
        """``rng.integers(0, n, size)``."""
        if n < 1:
            raise ValueError(f"integers() needs a range of 1 or more, got {n}")
        out = array("q", bytes(8 * size))
        self.lib.repro_gen_integers(self._rng, n, size, address(out))
        return out

    def normal(self, loc: float, scale: float, size: int) -> array:
        """``rng.normal(loc, scale, size)``."""
        out = array("d", bytes(8 * size))
        self.lib.repro_gen_normal(self._rng, loc, scale, size, address(out))
        return out

    def random(self, size: int) -> array:
        """``rng.random(size)``."""
        out = array("d", bytes(8 * size))
        self.lib.repro_gen_random(self._rng, size, address(out))
        return out

    def uniform(self) -> float:
        """``rng.random()``."""
        return self.random(1)[0]

    def below(self, n: int) -> int:
        """``rng.integers(0, n)``."""
        return self.integers(n, 1)[0]


def empty_columns(capacity: int) -> "tuple":
    """Zeroed ``(blocks, work, dep, write)`` columns for ``capacity``
    records: int64 and float32 arrays, and bool bytes."""
    return (
        array("q", bytes(8 * capacity)),
        array("f", bytes(4 * capacity)),
        bytearray(capacity),
        bytearray(capacity),
    )


def _columns(arrays: tuple, at: int) -> Columns:
    blocks, work, dep, write = arrays
    return Columns(
        blocks=address(blocks), work=address(work), dep=address(dep),
        write=address(write), at=at,
    )


def truncate(arrays: tuple, count: int) -> tuple:
    """``arrays`` cut to their first ``count`` records, in place."""
    for column in arrays:
        del column[count:]
    return arrays


def emit_activities(
    context: "GeneratorContext",
    pool: "StreamPool",
    activity_cdf: "list[float]",
    cores: int,
    records_per_core: int,
    **loop: "float | int",
) -> "list[tuple]":
    """Each core's columns from the activity loop the commercial and
    DSS generators share; ``loop`` sets the rest of
    :class:`~repro.sim.library.Activities` by field name."""
    draws = context.draws
    activities = Activities(
        activity_cdf=(ctypes.c_double * 4)(*activity_cdf),
        stream_blocks=address(pool.blocks),
        stream_starts=address(pool.starts),
        popularity=address(pool.popularity),
        streams=len(pool),
        **loop,
    )
    # The last activity a core starts below records_per_core may run
    # past it by a whole traversal (a noise record after every block),
    # scan run or hot run.
    longest = max(pool.length_distribution())
    capacity = records_per_core - 1 + max(
        2 * longest, activities.scan_run, activities.hot_run, 1
    )
    columns = []
    for _ in range(cores):
        arrays = empty_columns(capacity)
        count = draws.lib.repro_emit_activities(
            ctypes.byref(draws.gen), ctypes.byref(activities),
            ctypes.byref(_columns(arrays, 0)), records_per_core,
        )
        columns.append(truncate(arrays, count))
    return columns


def emit_iteration(
    context: "GeneratorContext",
    iteration: array,
    dep_flags: bytearray,
    arrays: tuple,
    at: int,
    **loop: "float | int",
) -> int:
    """Append one scientific iteration to ``arrays`` from index ``at``
    on; ``loop`` sets the rest of :class:`~repro.sim.library.Iteration`
    by field name.  Returns the new record count."""
    draws = context.draws
    # The loop writes unchecked: a visit-once record may follow every
    # block, then come the sweeps.
    if len(dep_flags) != len(iteration) or any(
        len(column) < at + 2 * len(iteration) + loop["sweep_blocks"]
        for column in arrays
    ):
        raise ValueError("iteration does not fit the columns")
    spec = Iteration(
        blocks=address(iteration), dep=address(dep_flags),
        length=len(iteration), **loop,
    )
    return draws.lib.repro_emit_iteration(
        ctypes.byref(draws.gen), ctypes.byref(spec),
        ctypes.byref(_columns(arrays, at)),
    )


def first_distinct(
    lib: ctypes.CDLL,
    draw: array,
    lengths: "list[int]",
    domain: int,
    base: int,
) -> "tuple[array, int]":
    """The kept blocks of :meth:`GeneratorContext.alloc_streams`, back
    to back, and the number of structures completed (fewer than
    ``len(lengths)`` when one's draw held too few distinct values)."""
    counts = array("q", lengths)
    seen = bytearray(domain)
    out = array("q", bytes(8 * sum(lengths)))
    done = lib.repro_first_distinct(
        address(draw), address(counts), len(counts), address(seen), base,
        address(out),
    )
    return out, done
