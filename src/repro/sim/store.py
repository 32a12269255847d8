"""Content-addressed on-disk artifact store: the persistent cache tier.

:class:`~repro.sim.session.SimSession` memoizes traces and results only
within a process; this module gives those artifacts a *lifecycle* that
crosses process boundaries — admission (write-through from the session),
persistence (atomic renames into a content-addressed layout), retrieval
(corruption-tolerant reads that degrade to recompute), and eviction
(LRU size-capped GC).  The same store directory is shared by pool
workers, successive CLI invocations, and CI jobs, so the second run of
any figure is served from disk instead of re-simulated.

Layout under the store root::

    schema.json              format stamp; a mismatch invalidates the store
    traces/<digest>.trace    ``Trace.save`` files, keyed by recipe hash: a
                             JSON header (metadata, fingerprint, column
                             dtypes and lengths), then the raw columns
    results/<digest>.json    versioned ``SimResult`` records
    estimates/<digest>.json  budgeted sampled-sweep aggregates, stamped
                             ``kind: "sampled-estimate"`` so a
                             statistical estimate can never be mistaken
                             for an exact result; nothing writes them
                             since the sampled sweeps were removed, and
                             listing, counting and GC still cover them

Keys are digests of the session's existing content keys (trace recipes
and ``trace fingerprint + full machine/prefetcher configuration``), so
an entry written by any process is valid in every other.  Every read
path tolerates torn, truncated, or stale entries: a bad file is dropped
and the caller recomputes — the store can never make a result wrong,
only slower.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

try:  # POSIX advisory locking for the persistent-counter interlock.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.memory.config import TrafficBreakdown
from repro.obs import SessionStats
from repro.prefetchers.stats import PrefetcherStats
from repro.sim.results import CoverageCounts, SimResult

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.workloads.trace import Trace

#: Bump whenever the on-disk format of entries changes **or** the
#: simulator's behavior changes such that previously persisted results
#: are no longer what a fresh run would produce (engine fixes,
#: timing-model changes, trace-generator changes...).  The version is
#: part of every content digest, so a bump orphans all old entries;
#: stores whose root stamp differs are additionally cleared on open.
#: v2: traces carry per-core workload/warm-up metadata and results
#: carry per-core coverage/records/cycles/MLP (multiprogrammed mixes).
#: v3: traces carry per-core rate/priority metadata (asymmetric mixes)
#: and results carry the per-core per-category DRAM traffic attribution
#: (``core_traffic_bytes``).
#: v4: traces carry their fingerprint, which a warm run reads instead of
#: the arrays (:meth:`ArtifactStore.load_trace_fingerprint`).
#: v5: traces are ``.trace`` files (:func:`write_trace_file`), not npz.
SCHEMA_VERSION = 5

_SCHEMA_FILE = "schema.json"
_COUNTERS_FILE = "counters.json"
_COUNTERS_LOCK_FILE = "counters.lock"
_TMP_PREFIX = ".tmp-"

#: Temp files from crashed writers older than this are swept by
#: :meth:`ArtifactStore.sweep_stale_temps` (``gc``/``clear`` call it).
#: The age gate keeps a *live* writer's in-flight temp file safe from a
#: concurrent sweep.
_STALE_TEMP_SECONDS = 3600.0

#: Whether a malformed ``REPRO_STORE_MAX_MB`` has warned in this process
#: (:meth:`ArtifactStore._max_bytes_from_env`; tests reset it).
_MAX_MB_WARNED = False

#: Errors that mean "this entry is unreadable", as opposed to bugs.
#: ``FileNotFoundError`` is handled separately (a plain miss).
_CORRUPT_ERRORS = (
    OSError,
    ValueError,  # includes json.JSONDecodeError and short trace files
    KeyError,
    TypeError,
)


def default_store_dir() -> str:
    """``$REPRO_STORE_DIR``, else a per-user cache directory."""
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-stms")


def key_digest(domain: str, key: object) -> str:
    """Stable content digest of a cache key.

    ``key`` must be a tree of primitives (what ``session._freeze``
    produces): its ``repr`` is then deterministic across processes,
    unlike ``hash()`` which is salted per interpreter.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{domain}:{SCHEMA_VERSION}".encode())
    digest.update(b"\x00")
    digest.update(repr(key).encode())
    return digest.hexdigest()


def trace_digest(trace_key: object) -> str:
    """Digest of a trace generation recipe (``SimJob.trace_key()``)."""
    return key_digest("trace", trace_key)


def result_digest(result_key: object) -> str:
    """Digest of a full simulation key (fingerprint + configuration)."""
    return key_digest("result", result_key)


def estimate_digest(estimate_key: object) -> str:
    """Digest of a sampled-estimate key (experiment + grid + budget).

    Distinct from :func:`result_digest` on purpose: a budgeted estimate
    is an *aggregate* over sampled exact cells, so it must never share
    an address space with exact per-cell records.
    """
    return key_digest("estimate", estimate_key)


@dataclass(frozen=True)
class TraceRef:
    """A shippable reference to a persisted trace (hash + path).

    Nothing in ``src/`` ships one any more: a pool worker reads its
    trace through ``SimSession.trace``.  It, :func:`load_trace_ref` and
    :meth:`ArtifactStore.trace_ref` stay only because the benchmark
    harness pins them (``perfbench/tracing.py`` wraps
    :func:`load_trace_ref`); they go with the next change to that
    harness.
    """

    digest: str
    path: str


def load_trace_ref(ref: TraceRef) -> "Trace | None":
    """Resolve a :class:`TraceRef`, tolerating missing/corrupt files."""
    return _read_entry(ref.path, _load_trace)


def _load_trace(path: str) -> "Trace":
    from repro.workloads.trace import Trace

    return Trace.load(path)


def _load_json(path: str) -> object:
    with open(path, "rb") as handle:
        return json.load(handle)


def _read_entry(path: str, read, drop=None):
    """``read(path)``; None on a miss, and None for an unreadable entry,
    which is handed to ``drop`` when one is given.  A read refreshes the
    entry's recency, so LRU GC never evicts what a run is using (the
    traces the parallel workers are handed references to among them)."""
    try:
        value = read(path)
    except FileNotFoundError:
        return None
    except _CORRUPT_ERRORS:
        if drop is not None:
            drop(path)
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    return value


def atomic_write(path: str, chunks: "Iterable[object]") -> None:
    """Write ``chunks`` (bytes-like objects) to ``path`` via temp file +
    rename, so no reader ever sees a partial file."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=_TMP_PREFIX
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# The trace file.
# ----------------------------------------------------------------------

#: A trace file pads its header and every column to this many bytes.
_TRACE_ALIGN = 8


def write_trace_file(
    path: str, metadata: dict, fingerprint: str, columns: list
) -> None:
    """Write a trace file atomically.

    The layout: the header's length as 8 little-endian bytes; a JSON
    header holding ``metadata``, ``fingerprint`` and one ``[dtype,
    length]`` per column, space-padded to 8 bytes; then each column's
    raw bytes, zero-padded to 8.  ``columns`` are a trace's columns,
    streamed to the file without being joined first.
    """
    from repro.workloads.trace import column_dtype

    header = json.dumps(
        {
            "trace": metadata,
            "fingerprint": fingerprint,
            "columns": [
                [column_dtype(column)[1], len(column)] for column in columns
            ],
        },
        default=_json_default,
    ).encode()
    header += b" " * (-len(header) % _TRACE_ALIGN)

    def chunks():
        yield len(header).to_bytes(8, "little")
        yield header
        for column in columns:
            yield column
            yield bytes(-memoryview(column).nbytes % _TRACE_ALIGN)

    atomic_write(path, chunks())


def _read_header(handle) -> dict:
    """The JSON header of an open trace file; leaves ``handle`` at the
    first column."""
    prefix = handle.read(8)
    size = int.from_bytes(prefix, "little")
    if len(prefix) != 8 or 8 + size > os.fstat(handle.fileno()).st_size:
        raise ValueError("truncated trace header")
    header = json.loads(handle.read(size))
    if not isinstance(header, dict):
        raise ValueError("trace header is not a JSON object")
    return header


def read_trace_header(path: str) -> dict:
    """A trace file's header alone (``"trace"`` metadata, ``"fingerprint"``
    and ``"columns"``), read without NumPy and without the columns."""
    with open(path, "rb") as handle:
        return _read_header(handle)


def read_trace_file(path: str) -> "tuple[dict, str, list]":
    """A trace file's metadata, fingerprint and columns: each column
    read, past its padding, into a buffer of its own (the type
    generation makes), as a read-only view of it.  Raises ValueError
    when the file's size disagrees with the columns its header lists.
    """
    from repro.workloads.trace import new_column

    with open(path, "rb") as handle:
        header = _read_header(handle)
        left = os.fstat(handle.fileno()).st_size - handle.tell()
        columns = []
        for dtype, length in header["columns"]:
            size = memoryview(new_column(dtype, 1)).nbytes * length
            left -= size + -size % _TRACE_ALIGN
            if left < 0:
                break
            column = new_column(dtype, length)
            if handle.readinto(column) != size:
                raise ValueError("trace file shrank while being read")
            handle.seek(-size % _TRACE_ALIGN, os.SEEK_CUR)
            columns.append(memoryview(column).toreadonly())
    if left:
        raise ValueError("trace file size does not match its columns")
    return header["trace"], header["fingerprint"], columns


# ----------------------------------------------------------------------
# SimResult (de)serialization.
# ----------------------------------------------------------------------


def _json_default(value: object) -> object:
    """A NumPy scalar as JSON; anything else raises TypeError, without
    importing NumPy (no NumPy scalar exists before it loads)."""
    np = sys.modules.get("numpy")
    if np is None:
        raise TypeError(f"not JSON-serializable: {type(value).__name__}")
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def encode_result(result: SimResult) -> dict:
    """Serialize a :class:`SimResult` into plain JSON types (its fields,
    by name; the record's writer converts NumPy scalars).

    The output equals ``dataclasses.asdict(result)``, built without its
    deep copy of every leaf value.  Floats survive a JSON round trip
    exactly (shortest-repr encoding), so a decoded record compares
    equal to the freshly computed one — the store-vs-recompute
    equivalence tests rely on this.
    """
    return _plain(result)


def _plain(value: object) -> object:
    """``value`` with each dataclass turned into a dict of its fields
    by name, and each list and dict copied, all the way down."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if hasattr(type(value), "__dataclass_fields__"):
        return {
            f.name: _plain(getattr(value, f.name)) for f in fields(value)
        }
    return value


def decode_result(payload: dict) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`encode_result` output."""
    if set(payload) != {f.name for f in fields(SimResult)}:
        raise KeyError("the record's fields are not SimResult's")

    def nested(kind, value):
        return None if value is None else kind(**value)

    core_coverage = payload["core_coverage"]
    return SimResult(**dict(
        payload,
        coverage=CoverageCounts(**payload["coverage"]),
        traffic=nested(TrafficBreakdown, payload["traffic"]),
        prefetcher_stats=nested(PrefetcherStats, payload["prefetcher_stats"]),
        core_coverage=None
        if core_coverage is None
        else [CoverageCounts(**counts) for counts in core_coverage],
    ))


# ----------------------------------------------------------------------
# The store.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreEntry:
    """One persisted artifact, as listed by :meth:`ArtifactStore.entries`."""

    kind: str  # "trace" | "result" | "estimate"
    digest: str
    path: str
    size_bytes: int
    mtime: float


class ArtifactStore:
    """Content-addressed artifact directory with LRU size-capped GC.

    All writes are atomic (temp file + ``os.replace``), so concurrent
    writers of the same key cannot produce a torn entry — the last
    complete write wins.  Reads refresh an entry's mtime, which is the
    recency signal :meth:`gc` evicts by.

    The handle counts its events into ``stats``, the
    :class:`~repro.obs.SessionStats` of the session that attached it.
    """

    def __init__(
        self,
        root: str,
        max_bytes: "int | None" = None,
        stats: "SessionStats | None" = None,
    ) -> None:
        self.root = os.path.abspath(root)
        self.stats = stats if stats is not None else SessionStats()
        if max_bytes is None:
            max_bytes = self._max_bytes_from_env()
        self.max_bytes = max_bytes
        #: Running size estimate so capped stores don't rescan the
        #: whole directory on every write (may over-count overwrites;
        #: drift only triggers GC early, never lets the cap slip).
        self._running_total: "int | None" = None
        self._traces_dir = os.path.join(self.root, "traces")
        self._results_dir = os.path.join(self.root, "results")
        self._estimates_dir = os.path.join(self.root, "estimates")
        os.makedirs(self._traces_dir, exist_ok=True)
        os.makedirs(self._results_dir, exist_ok=True)
        os.makedirs(self._estimates_dir, exist_ok=True)
        self._check_schema()

    @classmethod
    def from_env(cls) -> "ArtifactStore | None":
        """A store at ``$REPRO_STORE_DIR``, or None when unset."""
        root = os.environ.get("REPRO_STORE_DIR")
        if not root:
            return None
        try:
            return cls(root)
        except OSError:
            return None

    @staticmethod
    def _max_bytes_from_env() -> "int | None":
        """The ``REPRO_STORE_MAX_MB`` cap in bytes; None when the knob
        is unset or empty (``REPRO_STORE_MAX_MB= cmd`` clears it).

        A value that is not a finite number above 0 warns once per
        process and leaves the store uncapped: ``nan`` and ``inf``
        would break the open, and a cap of ``0`` or below would evict
        every entry right after it is written.
        """
        global _MAX_MB_WARNED
        raw = os.environ.get("REPRO_STORE_MAX_MB")
        if not raw:
            return None
        try:
            megabytes = float(raw)
        except ValueError:
            megabytes = math.nan
        if math.isfinite(megabytes) and megabytes > 0:
            return int(megabytes * 1024 * 1024)
        if not _MAX_MB_WARNED:
            _MAX_MB_WARNED = True
            warnings.warn(
                f"invalid REPRO_STORE_MAX_MB={raw!r} (expected a finite "
                "positive number); using no cap",
                RuntimeWarning,
                stacklevel=3,
            )
        return None

    # ------------------------------------------------------------------
    # Schema stamping.
    # ------------------------------------------------------------------

    def _schema_path(self) -> str:
        return os.path.join(self.root, _SCHEMA_FILE)

    def _check_schema(self) -> None:
        """Validate the store's format stamp; invalidate on mismatch."""
        try:
            stamp = _load_json(self._schema_path())
        except _CORRUPT_ERRORS:  # a missing stamp included
            stamp = None
        if isinstance(stamp, dict) and stamp.get("schema") == SCHEMA_VERSION:
            return
        if self.entries():
            # Files written under another (or unknown) format, whatever
            # their names: drop them all rather than risk misinterpreting
            # old bytes.
            self.clear()
            self.stats.store_schema_invalidations += 1
        atomic_write(
            self._schema_path(),
            (json.dumps({"schema": SCHEMA_VERSION}).encode(),),
        )

    # ------------------------------------------------------------------
    # Paths.
    # ------------------------------------------------------------------

    def trace_path(self, digest: str) -> str:
        return os.path.join(self._traces_dir, f"{digest}.trace")

    def result_path(self, digest: str) -> str:
        return os.path.join(self._results_dir, f"{digest}.json")

    def trace_ref(self, digest: str) -> TraceRef:
        return TraceRef(digest=digest, path=self.trace_path(digest))

    def _drop(self, path: str) -> None:
        self.stats.store_corrupt_drops += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Traces.
    # ------------------------------------------------------------------

    def load_trace(self, digest: str) -> "Trace | None":
        """Read a persisted trace; None on miss or unreadable entry."""
        return _read_entry(self.trace_path(digest), _load_trace, self._drop)

    def load_trace_fingerprint(self, digest: str) -> "str | None":
        """The fingerprint stored in a persisted trace's header, read
        without its columns; None on miss, and None for an unreadable
        entry, which is dropped."""
        return _read_entry(
            self.trace_path(digest),
            lambda path: read_trace_header(path)["fingerprint"],
            self._drop,
        )

    def save_trace(self, digest: str, trace: Trace) -> bool:
        """Persist a trace atomically; False on I/O failure."""
        path = self.trace_path(digest)
        try:
            trace.save(path)
        except OSError:
            self.stats.store_write_errors += 1
            return False
        self.stats.store_writes += 1
        self._auto_gc(path)
        return True

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def _write_record(self, path: str, record: dict) -> bool:
        """Persist a JSON ``record`` atomically; False on I/O failure."""
        try:
            payload = json.dumps(record, default=_json_default).encode()
            atomic_write(path, (payload,))
        except OSError:
            self.stats.store_write_errors += 1
            return False
        self.stats.store_writes += 1
        self._auto_gc(path)
        return True

    def _read_record(
        self, path: str, kind: str, valid=lambda record: True
    ) -> "dict | None":
        """Read a JSON record of ``kind``; None on miss.  An unreadable
        entry is dropped; so is one of another schema or kind, or one
        ``valid`` rejects, which also counts as a schema invalidation."""
        record = _read_entry(path, _load_json, self._drop)
        if record is None:
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != SCHEMA_VERSION
            or record.get("kind") != kind
            or not valid(record)
        ):
            self._drop(path)
            self.stats.store_schema_invalidations += 1
            return None
        return record

    def load_result(self, digest: str) -> "SimResult | None":
        """Read a persisted result; None on miss, corruption, or a
        schema-version mismatch (stale entries invalidate themselves)."""
        path = self.result_path(digest)
        record = self._read_record(path, "sim-result")
        if record is None:
            return None
        try:
            return decode_result(record["payload"])
        except _CORRUPT_ERRORS:
            self._drop(path)
            return None

    def save_result(self, digest: str, result: SimResult) -> bool:
        """Persist a result atomically; False on I/O failure."""
        return self._write_record(
            self.result_path(digest),
            {
                "schema": SCHEMA_VERSION,
                "kind": "sim-result",
                "workload": result.workload,
                "prefetcher": result.prefetcher,
                "payload": encode_result(result),
            },
        )

    # ------------------------------------------------------------------
    # Sampled-estimate records.
    # ------------------------------------------------------------------

    def estimate_path(self, digest: str) -> str:
        return os.path.join(self._estimates_dir, f"{digest}.json")

    def save_estimate(self, digest: str, payload: dict) -> bool:
        """Persist a budgeted sampled-sweep estimate atomically.

        Estimates are stamped ``kind: "sampled-estimate"`` (with a
        ``sampled: true`` marker inside the record) so a statistical
        aggregate can never be mistaken for an exact ``sim-result`` —
        the two kinds live in separate directories *and* separate
        digest domains (:func:`estimate_digest`).  No driver writes
        estimates any more; this and :meth:`load_estimate` remain
        because the benchmark's tracing wraps them by name.
        """
        return self._write_record(
            self.estimate_path(digest),
            {
                "schema": SCHEMA_VERSION,
                "kind": "sampled-estimate",
                "sampled": True,
                "payload": payload,
            },
        )

    def load_estimate(self, digest: str) -> "dict | None":
        """Read a sampled-estimate payload; None on miss/corruption."""
        record = self._read_record(
            self.estimate_path(digest),
            "sampled-estimate",
            lambda record: record.get("sampled")
            and isinstance(record.get("payload"), dict),
        )
        return None if record is None else record["payload"]

    # ------------------------------------------------------------------
    # Introspection and garbage collection.
    # ------------------------------------------------------------------

    def entries(self) -> "list[StoreEntry]":
        """All persisted artifacts, oldest (least recently used) first:
        every file in the kind directories but in-flight temps, so a
        file another format left behind is listed (and cleared) too."""
        found: "list[StoreEntry]" = []
        for kind, directory in (
            ("trace", self._traces_dir),
            ("result", self._results_dir),
            ("estimate", self._estimates_dir),
        ):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if name.startswith(_TMP_PREFIX):
                    continue
                path = os.path.join(directory, name)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                found.append(
                    StoreEntry(
                        kind=kind,
                        digest=name.partition(".")[0],
                        path=path,
                        size_bytes=status.st_size,
                        mtime=status.st_mtime,
                    )
                )
        found.sort(key=lambda entry: entry.mtime)
        return found

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def gc(self, max_bytes: "int | None" = None) -> int:
        """Evict least-recently-used entries until under ``max_bytes``.

        Returns the number of entries evicted.  Orphaned temp files are
        swept first (age-gated; see :meth:`sweep_stale_temps`) — they
        evade the size accounting, so eviction alone could never
        reclaim them.  With no cap configured and none given, nothing
        further happens.
        """
        self.sweep_stale_temps()
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            return 0
        entries = self.entries()
        total = sum(entry.size_bytes for entry in entries)
        evicted = 0
        for entry in entries:  # oldest first
            if total <= cap:
                break
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            total -= entry.size_bytes
            evicted += 1
        self.stats.store_evictions += evicted
        self._running_total = total  # exact again after a full scan
        return evicted

    def _auto_gc(self, written_path: str) -> None:
        """Enforce the size cap after a write, rescanning only when the
        running estimate says the cap may actually be exceeded."""
        if self.max_bytes is None:
            return
        try:
            added = os.stat(written_path).st_size
        except OSError:
            added = 0
        if self._running_total is None:
            self._running_total = self.total_bytes()
        else:
            self._running_total += added
        if self._running_total > self.max_bytes:
            self.gc(self.max_bytes)

    # ------------------------------------------------------------------
    # Persistent operational counters.
    # ------------------------------------------------------------------

    def _counters_path(self) -> str:
        return os.path.join(self.root, _COUNTERS_FILE)

    @contextlib.contextmanager
    def _counters_lock(self):
        """Advisory exclusive lock serializing counter read-modify-writes.

        Taken on a *sidecar* file (``counters.lock``), never on the
        counters file itself: the data file is replaced atomically on
        every write, and a lock held on a replaced inode would not
        exclude the next writer.  Only the counter RMW takes this lock —
        artifact reads/writes stay lock-free (they are atomic renames
        and need no interlock).  Yields False (and degrades to the old
        best-effort behaviour) where ``fcntl`` or the lock file are
        unavailable.
        """
        if fcntl is None:
            yield False
            return
        try:
            fd = os.open(
                os.path.join(self.root, _COUNTERS_LOCK_FILE),
                os.O_CREAT | os.O_RDWR,
                0o644,
            )
        except OSError:
            yield False
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield True
        finally:
            os.close(fd)  # releases the flock

    def counters(self) -> "dict[str, int]":
        """Store-lifetime counters, keyed by ``SessionStats`` field.

        Unlike :attr:`stats` these survive the process: they live in a
        ``counters.json`` beside the schema stamp, so ``cache stats``
        can report behaviour accumulated across CLI runs and CI jobs.
        :meth:`~repro.sim.session.SimSession.persist_counters` is what
        adds a run's counts.
        """
        try:
            with open(self._counters_path(), "rb") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            return {}
        except _CORRUPT_ERRORS:
            return {}
        if not isinstance(raw, dict):
            return {}
        return {
            str(key): int(value)
            for key, value in raw.items()
            if isinstance(value, (int, float))
        }

    def bump_counter(self, name: str, delta: int = 1) -> None:
        """Increment a persistent counter under the counter interlock."""
        self.bump_counters({name: delta})

    def bump_counters(self, deltas: "dict[str, int]") -> None:
        """Increment several persistent counters in one locked write.

        The whole read-modify-write holds the advisory counter lock, so
        concurrent writers — parallel CLI runs and sessions sharing one
        store — serialize and never lose increments.  Zero deltas are
        skipped.
        """
        deltas = {name: d for name, d in deltas.items() if d}
        if not deltas:
            return
        with self._counters_lock():
            counters = self.counters()
            for name, delta in deltas.items():
                counters[name] = counters.get(name, 0) + delta
            try:
                atomic_write(
                    self._counters_path(),
                    (json.dumps(counters, sort_keys=True).encode(),),
                )
            except OSError:
                self.stats.store_write_errors += 1

    # ------------------------------------------------------------------
    # Stale-temp sweeping and whole-store clearing.
    # ------------------------------------------------------------------

    def sweep_stale_temps(
        self, max_age_seconds: float = _STALE_TEMP_SECONDS
    ) -> int:
        """Remove orphaned ``.tmp-*`` files from crashed writers.

        Temp files are invisible to :meth:`entries` (and therefore to
        :meth:`gc`, :meth:`total_bytes`, and the size cap), so a writer
        that died between ``mkstemp`` and ``os.replace`` used to leak
        its temp forever.  This sweep — invoked from :meth:`gc` and
        :meth:`clear` — unlinks temps older than the age gate
        (``max_age_seconds``, default 1h); younger ones are
        presumed to belong to a live in-flight writer and survive.
        Swept files are counted in ``stats.stale_temps_swept``, which
        ``cache gc`` persists so accumulation is observable in
        ``cache stats``.
        """
        cutoff = time.time() - max_age_seconds
        swept = 0
        for directory in (
            self.root,
            self._traces_dir,
            self._results_dir,
            self._estimates_dir,
        ):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                if not name.startswith(_TMP_PREFIX):
                    continue
                path = os.path.join(directory, name)
                try:
                    if os.stat(path).st_mtime >= cutoff:
                        continue
                    os.unlink(path)
                except OSError:
                    continue
                swept += 1
        self.stats.stale_temps_swept += swept
        return swept

    def clear(self) -> int:
        """Remove every entry (the store directory itself survives).

        Stale temp files are swept too (age-gated, so a concurrent
        writer's in-flight temp survives); they do not count toward the
        returned entry total.
        """
        removed = 0
        for entry in self.entries():
            try:
                os.unlink(entry.path)
            except OSError:
                continue
            removed += 1
        self.sweep_stale_temps()
        self._running_total = 0
        return removed

    def describe(self) -> dict:
        """Summary used by ``repro cache stats`` (and tests)."""
        entries = self.entries()
        traces = [e for e in entries if e.kind == "trace"]
        results = [e for e in entries if e.kind == "result"]
        estimates = [e for e in entries if e.kind == "estimate"]
        return {
            "root": self.root,
            "schema": SCHEMA_VERSION,
            "traces": len(traces),
            "trace_bytes": sum(e.size_bytes for e in traces),
            "results": len(results),
            "result_bytes": sum(e.size_bytes for e in results),
            "estimates": len(estimates),
            "estimate_bytes": sum(e.size_bytes for e in estimates),
            "total_bytes": sum(e.size_bytes for e in entries),
            "max_bytes": self.max_bytes,
            "counters": self.counters(),
            "age_seconds": (
                time.time() - min(e.mtime for e in entries)
                if entries
                else 0.0
            ),
        }
