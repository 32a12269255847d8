"""Trace container: per-core memory-access streams.

A :class:`Trace` stores, for each core, four parallel numpy arrays:

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
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import dataclass, field

import numpy as np

#: The raw (not ``.npy``) member :meth:`Trace.save` appends to its
#: archive: the trace's fingerprint, so a reader can key results by it
#: without loading the arrays (``ArtifactStore.load_trace_fingerprint``).
FINGERPRINT_MEMBER = "fingerprint"


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
    blocks: list[np.ndarray] = field(default_factory=list)
    work: list[np.ndarray] = field(default_factory=list)
    dep: list[np.ndarray] = field(default_factory=list)
    write: list[np.ndarray] = field(default_factory=list)
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
        lengths = {len(self.blocks), len(self.work), len(self.dep),
                   len(self.write)}
        if len(lengths) != 1:
            raise ValueError("per-core column lists have mismatched lengths")
        for core in range(len(self.blocks)):
            n = len(self.blocks[core])
            if not (len(self.work[core]) == len(self.dep[core])
                    == len(self.write[core]) == n):
                raise ValueError(f"core {core}: column arrays differ in size")
        for label, per_core in (
            ("core_workloads", self.core_workloads),
            ("core_warmup", self.core_warmup),
            ("core_rates", self.core_rates),
            ("core_priorities", self.core_priorities),
        ):
            if per_core is not None and len(per_core) != len(self.blocks):
                raise ValueError(f"{label} must list one entry per core")

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
        for core in range(self.cores):
            for column in (self.blocks, self.work, self.dep, self.write):
                array = np.asarray(column[core])
                digest.update(str(array.dtype).encode())
                digest.update(array.tobytes())
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def stats(self) -> TraceStats:
        """Compute summary statistics across all cores."""
        if self.records == 0:
            return TraceStats(0, self.cores, 0, 0.0, 0.0, 0.0)
        all_blocks = np.concatenate(self.blocks)
        all_dep = np.concatenate(self.dep)
        all_write = np.concatenate(self.write)
        all_work = np.concatenate(self.work)
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
        return Trace(
            name=self.name,
            blocks=[b[:max_records_per_core] for b in self.blocks],
            work=[w[:max_records_per_core] for w in self.work],
            dep=[d[:max_records_per_core] for d in self.dep],
            write=[w[:max_records_per_core] for w in self.write],
            working_set_blocks=self.working_set_blocks,
            warmup_fraction=self.warmup_fraction,
            core_workloads=(
                list(self.core_workloads)
                if self.core_workloads is not None
                else None
            ),
            core_warmup=(
                list(self.core_warmup)
                if self.core_warmup is not None
                else None
            ),
            core_rates=(
                list(self.core_rates)
                if self.core_rates is not None
                else None
            ),
            core_priorities=(
                list(self.core_priorities)
                if self.core_priorities is not None
                else None
            ),
        )

    def export_meta(self) -> "tuple[tuple[str, object], ...]":
        """Scalar and per-core metadata as a picklable tuple.

        The shared-memory trace plane ships this beside the raw column
        buffers; :meth:`from_buffers` is the inverse.  Column arrays are
        deliberately absent — they travel out-of-band (zero-copy).
        """
        def _frozen(values):
            return None if values is None else tuple(values)

        return (
            ("name", self.name),
            ("working_set_blocks", self.working_set_blocks),
            ("warmup_fraction", self.warmup_fraction),
            ("core_workloads", _frozen(self.core_workloads)),
            ("core_warmup", _frozen(self.core_warmup)),
            ("core_rates", _frozen(self.core_rates)),
            ("core_priorities", _frozen(self.core_priorities)),
        )

    @classmethod
    def from_buffers(
        cls,
        meta: "tuple[tuple[str, object], ...]",
        blocks: "list[np.ndarray]",
        work: "list[np.ndarray]",
        dep: "list[np.ndarray]",
        write: "list[np.ndarray]",
    ) -> "Trace":
        """Rebuild a trace around externally-owned column buffers.

        ``meta`` is :meth:`export_meta`'s output; the column arrays may
        be views into a shared-memory segment (the caller keeps the
        backing mapping alive — the plane pins the segment handle on
        the returned instance).
        """
        fields_ = dict(meta)

        def _thawed(values):
            return None if values is None else list(values)

        return cls(
            name=fields_["name"],
            blocks=list(blocks),
            work=list(work),
            dep=list(dep),
            write=list(write),
            working_set_blocks=fields_["working_set_blocks"],
            warmup_fraction=fields_["warmup_fraction"],
            core_workloads=_thawed(fields_["core_workloads"]),
            core_warmup=_thawed(fields_["core_warmup"]),
            core_rates=_thawed(fields_["core_rates"]),
            core_priorities=_thawed(fields_["core_priorities"]),
        )

    def save(self, path: str) -> None:
        """Persist the trace as an ``.npz`` archive.

        Uncompressed: trace columns deflate poorly (random block
        numbers), and the compressor dominated cold-store runs.  The
        fingerprint goes last, as the raw :data:`FINGERPRINT_MEMBER`
        (``np.load`` lists it but never parses it).
        """
        payload: dict[str, np.ndarray] = {
            "meta_name": np.array([self.name]),
            "meta_working_set": np.array([self.working_set_blocks]),
            "meta_warmup": np.array([self.warmup_fraction]),
            "meta_cores": np.array([self.cores]),
        }
        if self.core_workloads is not None:
            payload["meta_core_workloads"] = np.array(self.core_workloads)
        if self.core_warmup is not None:
            payload["meta_core_warmup"] = np.array(
                self.core_warmup, dtype=np.float64
            )
        if self.core_rates is not None:
            payload["meta_core_rates"] = np.array(
                self.core_rates, dtype=np.float64
            )
        if self.core_priorities is not None:
            payload["meta_core_priorities"] = np.array(
                self.core_priorities
            )
        for core in range(self.cores):
            payload[f"blocks_{core}"] = self.blocks[core]
            payload[f"work_{core}"] = self.work[core]
            payload[f"dep_{core}"] = self.dep[core]
            payload[f"write_{core}"] = self.write[core]
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr(FINGERPRINT_MEMBER, self.fingerprint())

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace previously written by :meth:`save`.

        Raises ValueError when the stored fingerprint does not match
        the loaded arrays, and KeyError when it is missing.
        """
        with open(path, "rb") as handle:
            data = np.load(io.BytesIO(handle.read()), allow_pickle=False)
        cores = int(data["meta_cores"][0])
        files = set(data.files)
        core_workloads = (
            [str(w) for w in data["meta_core_workloads"]]
            if "meta_core_workloads" in files
            else None
        )
        core_warmup = (
            [float(f) for f in data["meta_core_warmup"]]
            if "meta_core_warmup" in files
            else None
        )
        core_rates = (
            [float(f) for f in data["meta_core_rates"]]
            if "meta_core_rates" in files
            else None
        )
        core_priorities = (
            [str(p) for p in data["meta_core_priorities"]]
            if "meta_core_priorities" in files
            else None
        )
        trace = cls(
            name=str(data["meta_name"][0]),
            blocks=[data[f"blocks_{c}"] for c in range(cores)],
            work=[data[f"work_{c}"] for c in range(cores)],
            dep=[data[f"dep_{c}"] for c in range(cores)],
            write=[data[f"write_{c}"] for c in range(cores)],
            working_set_blocks=int(data["meta_working_set"][0]),
            warmup_fraction=float(data["meta_warmup"][0]),
            core_workloads=core_workloads,
            core_warmup=core_warmup,
            core_rates=core_rates,
            core_priorities=core_priorities,
        )
        if data[FINGERPRINT_MEMBER].decode() != trace.fingerprint():
            raise ValueError(f"{path}: fingerprint does not match the arrays")
        return trace


class TraceBuilder:
    """Accumulates one core's records in Python lists, then freezes them.

    The Python reference emitters append record-by-record (the compiled
    ones write NumPy columns directly); :meth:`freeze` converts to the
    compact numpy representation stored inside :class:`Trace`.
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
        blocks: "np.ndarray | list[int]",
        work: float,
        dep: bool = True,
        write: bool = False,
    ) -> None:
        """Append a run of accesses sharing the same attributes."""
        n = len(blocks)
        self._blocks.extend(np.asarray(blocks).tolist())
        self._work.extend([work] * n)
        self._dep.extend([dep] * n)
        self._write.extend([write] * n)

    def freeze(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return the four column arrays."""
        return (
            np.asarray(self._blocks, dtype=np.int64),
            np.asarray(self._work, dtype=np.float32),
            np.asarray(self._dep, dtype=bool),
            np.asarray(self._write, dtype=bool),
        )
