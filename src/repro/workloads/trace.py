"""Trace container: per-core memory-access streams.

A :class:`Trace` stores, for each core, four parallel columns:

``blocks``
    Physical block numbers accessed (L1-level demand references; the
    simulated hierarchy does its own filtering).
``work``
    Compute cycles the core spends *before* issuing each access.  This
    aggregates instruction execution and L1-resident activity between the
    interesting references so the timing model doesn't simulate them
    individually.
``dep``
    True when the access is on the program's critical dependence chain
    (e.g. a pointer dereference feeding the next address): a dependent
    off-chip miss stalls the core until the data arrives, an independent
    one overlaps.  Memory-level parallelism emerges from this structure.
``write``
    True for stores (dirty fills, write-back traffic).

A column is any C-contiguous buffer of its element type.  Generated
and mix traces hold ``array.array`` columns (``q`` int64 blocks, ``f``
float32 work) and ``bytearray`` bool columns, and a loaded trace holds
one read-only ``memoryview`` of such a buffer per column, so none of
them needs NumPy.  Whatever its buffer, a column's NumPy dtype
(:func:`column_dtype`) and bytes are what its trace's fingerprint
hashes and its trace file stores.
"""

from __future__ import annotations

import copy
import hashlib
import sys
from array import array
from dataclasses import dataclass, field, fields

#: The per-core column lists, in the order each core's arrays are
#: hashed, stored and shared; every other :class:`Trace` field is
#: metadata (:data:`METADATA`).
COLUMNS = ("blocks", "work", "dep", "write")

_ORDER = "<" if sys.byteorder == "little" else ">"
#: NumPy's dtype name and type string of each ``memoryview.format`` a
#: buffer column has (``B``: a ``bytearray`` of bools).
_FORMATS = {
    "q": ("int64", _ORDER + "i8"),
    "f": ("float32", _ORDER + "f4"),
    "B": ("bool", "|b1"),
}
#: The buffer format of each NumPy type string in :data:`_FORMATS`.
_FORMAT_OF = {string: code for code, (_, string) in _FORMATS.items()}


def column_dtype(column) -> "tuple[str, str]":
    """NumPy's dtype name and type string (``str(dtype)``,
    ``dtype.str``) of ``column``'s elements."""
    dtype = getattr(column, "dtype", None)
    if dtype is not None:
        return str(dtype), dtype.str
    return _FORMATS[memoryview(column).format]


def new_column(type_string: str, length: int):
    """A zeroed ``array.array`` (``bytearray`` for bools) of ``length``
    elements of the type string ``type_string``; KeyError for others."""
    code = _FORMAT_OF[type_string]
    if code == "B":
        return bytearray(length)
    return array(code, [0]) * length


def as_numpy(column):
    """``column`` as a NumPy array of its dtype: itself, or a view of a
    buffer column (read-only when the buffer is)."""
    import numpy as np

    if isinstance(column, np.ndarray):
        return column
    return np.frombuffer(column, dtype=column_dtype(column)[0])


@dataclass
class TraceStats:
    """Summary statistics of a trace (for reports and sanity tests)."""

    records: int
    cores: int
    distinct_blocks: int
    dependent_fraction: float
    write_fraction: float
    mean_work: float


@dataclass
class Trace:
    """Per-core access streams plus generator metadata."""

    name: str
    blocks: list = field(default_factory=list)
    work: list = field(default_factory=list)
    dep: list = field(default_factory=list)
    write: list = field(default_factory=list)
    #: Number of distinct application blocks the generator drew from.
    working_set_blocks: int = 0
    #: Fraction of records the engine should treat as warm-up (not
    #: measured), so predictors and caches start from realistic state.
    warmup_fraction: float = 0.25
    #: Per-core workload identity for multiprogrammed mixes (None for a
    #: homogeneous trace: every core runs ``name``).
    core_workloads: "list[str] | None" = None
    #: Per-core warm-up fractions for mixes whose component workloads
    #: warm differently (None: ``warmup_fraction`` applies to all cores).
    core_warmup: "list[float] | None" = None
    #: Per-core rate weights of asymmetric mixes (None: every core runs
    #: at full rate).  The rate is already baked into the ``work``
    #: columns at generation time (a core at rate ``r`` has its compute
    #: stretched by ``1/r``); the list is carried for reporting.
    core_rates: "list[float] | None" = None
    #: Per-core DRAM demand-priority classes ("high"/"low"; None: every
    #: core issues demand fetches at the normal high priority).  The
    #: engines read this to arbitrate the shared channel.
    core_priorities: "list[str] | None" = None

    def __post_init__(self) -> None:
        if len({len(getattr(self, name)) for name in COLUMNS}) != 1:
            raise ValueError("per-core column lists have mismatched lengths")
        for core in range(len(self.blocks)):
            if len({len(getattr(self, name)[core]) for name in COLUMNS}) != 1:
                raise ValueError(f"core {core}: column arrays differ in size")
        for name in METADATA:
            per_core = getattr(self, name)
            if name.startswith("core_") and per_core is not None and (
                len(per_core) != len(self.blocks)
            ):
                raise ValueError(f"{name} must list one entry per core")

    @property
    def cores(self) -> int:
        return len(self.blocks)

    @property
    def records(self) -> int:
        return sum(len(b) for b in self.blocks)

    def core_records(self, core: int) -> int:
        return len(self.blocks[core])

    def warmup_records(self, core: int) -> int:
        """Number of leading records on ``core`` that are warm-up only."""
        fraction = (
            self.core_warmup[core]
            if self.core_warmup is not None
            else self.warmup_fraction
        )
        return int(len(self.blocks[core]) * fraction)

    def workload_of(self, core: int) -> str:
        """The workload running on ``core`` (the trace name if uniform)."""
        if self.core_workloads is not None:
            return self.core_workloads[core]
        return self.name

    def core_rate_of(self, core: int) -> float:
        """Rate weight of ``core`` (1.0 unless an asymmetric mix set it)."""
        if self.core_rates is not None:
            return self.core_rates[core]
        return 1.0

    def core_priority_of(self, core: int) -> "str | None":
        """DRAM demand-priority class of ``core`` (None = default high)."""
        if self.core_priorities is not None:
            return self.core_priorities[core]
        return None

    def metadata(self) -> dict:
        """The non-column fields by name, per-core lists copied: what a
        trace file's header carries beside the columns."""
        return {name: copy.copy(getattr(self, name)) for name in METADATA}

    def columns(self) -> list:
        """Every column array: core by core, each core's in
        :data:`COLUMNS` order."""
        return [
            getattr(self, name)[core]
            for core in range(self.cores)
            for name in COLUMNS
        ]

    @classmethod
    def from_columns(cls, metadata: dict, columns: list) -> "Trace":
        """Rebuild a trace from :meth:`metadata` and :meth:`columns`
        output.  The columns may be views of buffers the caller keeps
        alive (a shared-memory segment's)."""
        return cls(**metadata, **{
            name: list(columns[i::len(COLUMNS)])
            for i, name in enumerate(COLUMNS)
        })

    def fingerprint(self) -> str:
        """Content hash of the trace (arrays + metadata), cached.

        Traces are treated as immutable once generated; the digest is
        computed once and stored on the instance.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.name.encode())
        digest.update(str(self.warmup_fraction).encode())
        digest.update(str(self.working_set_blocks).encode())
        for per_core in (self.core_workloads, self.core_warmup,
                         self.core_rates, self.core_priorities):
            if per_core is not None:
                digest.update(repr(tuple(per_core)).encode())
        for column in self.columns():
            digest.update(column_dtype(column)[0].encode())
            digest.update(column)
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def stats(self) -> TraceStats:
        """Compute summary statistics across all cores."""
        import numpy as np

        if self.records == 0:
            return TraceStats(0, self.cores, 0, 0.0, 0.0, 0.0)
        all_blocks, all_work, all_dep, all_write = (
            np.concatenate([as_numpy(c) for c in getattr(self, name)])
            for name in COLUMNS
        )
        return TraceStats(
            records=self.records,
            cores=self.cores,
            distinct_blocks=int(np.unique(all_blocks).size),
            dependent_fraction=float(all_dep.mean()),
            write_fraction=float(all_write.mean()),
            mean_work=float(all_work.mean()),
        )

    def sliced(self, max_records_per_core: int) -> "Trace":
        """Return a truncated copy (used to shrink traces for tests)."""
        if max_records_per_core <= 0:
            raise ValueError("max_records_per_core must be positive")
        return Trace.from_columns(
            self.metadata(),
            [column[:max_records_per_core] for column in self.columns()],
        )

    def save(self, path: str) -> None:
        """Write the trace to ``path`` atomically, as a trace file: a
        header plus the raw columns
        (:func:`repro.sim.store.write_trace_file`)."""
        from repro.sim.store import write_trace_file

        write_trace_file(
            path,
            self.metadata(),
            self.fingerprint(),
            self.columns(),
        )

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace written by :meth:`save`; each column is a
        read-only view of its own buffer, read from the file.

        Raises ValueError when the stored fingerprint does not match
        the loaded columns, and KeyError when it is missing.
        """
        from repro.sim.store import read_trace_file

        metadata, fingerprint, columns = read_trace_file(path)
        trace = cls.from_columns(metadata, columns)
        if fingerprint != trace.fingerprint():
            raise ValueError(f"{path}: fingerprint does not match the columns")
        return trace


#: The :class:`Trace` fields that are not columns, in declaration order.
METADATA = tuple(f.name for f in fields(Trace) if f.name not in COLUMNS)


class TraceBuilder:
    """Accumulates one core's records in Python lists, then freezes them.

    The Python reference emitters append record-by-record (the compiled
    ones write their column buffers directly); :meth:`freeze` converts
    to the compact columns stored inside :class:`Trace`, the types the
    compiled emitters write.
    """

    def __init__(self) -> None:
        self._blocks: list[int] = []
        self._work: list[float] = []
        self._dep: list[bool] = []
        self._write: list[bool] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def add(
        self,
        block: int,
        work: float,
        dep: bool = True,
        write: bool = False,
    ) -> None:
        """Append one access record."""
        self._blocks.append(block)
        self._work.append(work)
        self._dep.append(dep)
        self._write.append(write)

    def extend(
        self,
        blocks: "list[int]",
        work: float,
        dep: bool = True,
        write: bool = False,
    ) -> None:
        """Append a run of accesses sharing the same attributes."""
        n = len(blocks)
        self._blocks.extend(blocks)
        self._work.extend([work] * n)
        self._dep.extend([dep] * n)
        self._write.extend([write] * n)

    def freeze(self) -> "tuple[array, array, bytearray, bytearray]":
        """Return the four columns: int64 blocks, float32 work, bool
        dep and write."""
        return (
            array("q", self._blocks),
            array("f", self._work),
            bytearray(self._dep),
            bytearray(self._write),
        )
