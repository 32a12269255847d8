"""Shared-memory trace plane: export a trace's columns, attach them.

The parent exports a trace's columns into one
``multiprocessing.shared_memory`` segment, and another process attaches
the segment and builds **read-only ndarray views** over it — zero bytes
copied.  Attached traces carry the exporter's fingerprint, so cache
keys are the same as the original's.

Nothing in ``src/`` uses the plane: the runner's cell shards inherit
the parent's trace when the pool forks, which costs nothing.  The
module stays only because the benchmark harness pins it
(``perfbench/tracing.py`` wraps :meth:`TracePlane.export` and
:func:`attach`, and ``perfbench/run.py`` reads the ``shm_exports`` and
``shm_attaches`` counters); it goes with the next change to that
harness.

Ownership and cleanup are strict, because leaked ``/dev/shm`` segments
outlive the process:

* :class:`TracePlane` is a context manager owning every segment it
  exports; every exit path of the ``with`` block unlinks them.
* A module-level ``atexit`` sweep unlinks anything still registered if
  the process dies inside the block.
* Attaching processes never create or unlink.

An export failure (an exhausted or missing ``/dev/shm``) returns None.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without shm support
    _shared_memory = None  # type: ignore[assignment]


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
    """Owns the shared-memory segments it exports.

    Use as a context manager around everything that attaches them, so
    segments live exactly as long as they can be attached and are
    unlinked on every exit path.  The module ``atexit`` sweep catches a process dying inside
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

        Returns the picklable payload to attach from, or ``None`` when
        shared memory is unavailable or the export fails.
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
    vanished or unreadable segment returns ``None``.
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
