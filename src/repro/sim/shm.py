"""Zero-copy shared-memory trace plane for the parallel runner.

Without the plane the parent ships a
:class:`~repro.sim.store.TraceRef` and every worker re-reads the trace
file from disk (or regenerates the trace outright).  For the two-level
scheduler — which fans the *cells* of one trace's grid across many
workers — that re-read multiplies with the worker count while the
underlying bytes are identical everywhere.

This module separates the data plane from the compute plane: the parent
exports a trace's columns into one
``multiprocessing.shared_memory`` segment per sharded trace group.
Workers attach the segment and build **read-only ndarray views** over
it — zero bytes copied, however many shards the grid splits into.

Ownership and cleanup are strict, because leaked ``/dev/shm`` segments
outlive the process:

* :class:`TracePlane` is a context manager owning every segment of one
  runner fan-out; *every* exit path of the ``with`` block — normal
  completion, a worker exception propagating, the platform-degradation
  serial fallback — unlinks them.
* A module-level ``atexit`` sweep unlinks anything still registered if
  the process dies inside the block.
* Workers only ever *attach*; they never create or unlink.

``REPRO_SHM=off`` (or ``0``) disables the plane entirely (workers fall back to
the TraceRef pickle path); export failures (an exhausted or missing
``/dev/shm``) degrade to the same fallback silently.  The plane is a
pure transport: attached traces carry the parent-computed fingerprint,
so cache keys — and therefore every per-cell result — are bit-identical
with or without it.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass

from repro.envknobs import shm_plane_enabled

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without shm support
    _shared_memory = None  # type: ignore[assignment]


def shm_enabled() -> bool:
    """Whether the runner exports the trace plane into shared memory
    (``REPRO_SHM``, parsed by :func:`repro.envknobs.shm_plane_enabled`)."""
    if _shared_memory is None:  # pragma: no cover - platform dependent
        return False
    return shm_plane_enabled()


#: Segment offsets are aligned for safe typed views.
_ALIGN = 8


@dataclass(frozen=True)
class ArraySpec:
    """Location of one ndarray inside a segment (picklable)."""

    dtype: str
    shape: "tuple[int, ...]"
    offset: int


@dataclass(frozen=True)
class TracePayload:
    """Picklable description of one exported trace segment.

    Workers rebuild the trace from this without touching the segment
    bytes: ``columns`` lists one spec per ``Trace.columns()`` array.
    ``meta`` carries the trace's non-column fields
    (``Trace.metadata()``) and ``fingerprint`` its parent-computed
    content fingerprint, so the attach side never re-hashes the columns.
    """

    segment: str
    total_bytes: int
    meta: dict
    fingerprint: str
    columns: "tuple[ArraySpec, ...]"


#: Segments created by this process and not yet unlinked, by name.
_OWNED: "dict[str, object]" = {}


def _release(name: str) -> None:
    """Close and unlink one owned segment (idempotent, error-tolerant)."""
    segment = _OWNED.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - defensive
        pass
    try:
        segment.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - defensive
        pass


def _sweep_owned() -> None:
    """atexit backstop: unlink every segment still owned."""
    for name in list(_OWNED):
        _release(name)


atexit.register(_sweep_owned)


class TracePlane:
    """Owns the shared-memory segments of one runner fan-out.

    Use as a context manager around the whole pool lifetime — submit,
    collection, and any fallback re-run — so segments live exactly as
    long as workers can attach them and are unlinked on every exit
    path.  The module ``atexit`` sweep catches a process dying inside
    the block.
    """

    def __init__(self) -> None:
        self._names: "list[str]" = []

    def __enter__(self) -> "TracePlane":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Unlink every segment this plane created."""
        for name in self._names:
            _release(name)
        self._names.clear()

    def export(self, trace) -> "TracePayload | None":
        """Export one trace's columns to a segment.

        Returns the picklable payload workers attach from, or ``None``
        when shared memory is unavailable or the export fails — the
        caller falls back to the TraceRef path.
        """
        if _shared_memory is None:  # pragma: no cover - platform dependent
            return None
        from repro.workloads.trace import column_dtype

        arrays = trace.columns()
        columns: "list[ArraySpec]" = []
        offset = 0
        for array in arrays:
            columns.append(
                ArraySpec(column_dtype(array)[0], (len(array),), offset)
            )
            offset += -(-memoryview(array).nbytes // _ALIGN) * _ALIGN
        try:
            segment = _shared_memory.SharedMemory(
                create=True, size=max(offset, 1)
            )
        except (OSError, ValueError):
            return None
        for spec, array in zip(columns, arrays):
            data = memoryview(array).cast("B")
            segment.buf[spec.offset:spec.offset + len(data)] = data
        _OWNED[segment.name] = segment
        self._names.append(segment.name)
        return TracePayload(
            segment=segment.name,
            total_bytes=offset,
            meta=trace.metadata(),
            fingerprint=trace.fingerprint(),
            columns=tuple(columns),
        )


def attach(payload: TracePayload):
    """Attach a payload read-only: the trace, or None.

    The returned trace's columns are zero-copy views into the segment
    (writes are rejected); the trace object keeps the
    ``SharedMemory`` handle alive for as long as it is referenced.  A
    vanished or unreadable segment returns ``None`` and the caller
    falls back to the TraceRef path.
    """
    if _shared_memory is None:  # pragma: no cover - platform dependent
        return None
    # NumPy columns, only here: a read-only slice of the segment does
    # not cover its buffer, so ``library.address`` could not find it.
    import numpy as np

    from repro.workloads.trace import Trace

    try:
        segment = _shared_memory.SharedMemory(name=payload.segment)
    except (OSError, ValueError, FileNotFoundError):
        return None

    def view(spec: ArraySpec) -> np.ndarray:
        array = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        array.flags.writeable = False
        return array

    trace = Trace.from_columns(
        payload.meta, [view(spec) for spec in payload.columns]
    )
    trace._fingerprint = payload.fingerprint
    # The views borrow the segment's buffer: pin the handle on the
    # trace so the mapping survives as long as any consumer does.
    trace._shm = segment
    return trace
