"""The compiled library (``kernel.c``): its C layouts, build and loader.

One C source holds three things: the event kernel behind baseline and
STMS cells (:mod:`repro.sim.native` drives it), the trace emitters'
per-record loops and the generators' bulk draws
(:mod:`repro.workloads.compiled` drives them).  This module builds,
caches and loads that library and mirrors its structs with ctypes, and
imports neither NumPy nor a simulator model, so a run that generates
its traces and simulates in the library loads neither.

Randomness: the library steps its own PCG64s (:class:`Pcg64`, seeded
from :mod:`repro.seeding`): the generators' and the STMS sampler's.
The bulk draws (``integers``, ``normal``, ``random``) call numpy's own
distributions from its C API, the static archive
``numpy/random/lib/libnpyrandom.a`` that NumPy ships, over a
``bitgen_t`` on that PCG64, so every draw is the one
``numpy.random.default_rng`` makes.  :func:`npyrandom` finds the
archive from NumPy's import spec without importing NumPy.  The kernel
includes the ``bitgen_t`` and the prototypes from the headers that
ship beside that archive (``numpy/random/distributions.h``, which
includes ``Python.h``; :func:`_includes`), so a NumPy whose layout or
signatures differ fails the build instead of drawing wrong values.

Build: the library compiles once per machine with the system ``cc``
(``-O2 -ffp-contract=off``, no fast-math, so float arithmetic rounds
exactly as Python's), against NumPy's and Python's include
directories, linked with the archive and ``-lm``, into
``$XDG_CACHE_HOME/repro-kernels`` (default
``~/.cache/repro-kernels``), keyed by a digest of the source, the
flags, the compiler file ``cc`` resolves to and the archive (each by
its real path, size and modification time), so finding a cached
library starts no process and a NumPy upgrade rebuilds it.  The cache
sits outside the artifact store, so cold runs against a fresh store
reuse it.  Concurrent builders serialize on a lock file and publish
with atomic renames; a library that no longer matches its recorded
digest is rebuilt, and one whose struct layouts differ from the
mirrors here is not loaded.  Without a compiler or the archive, or
after a failed build, :func:`load` warns once and returns None:
baseline and STMS cells then run in the Python batched engine and
traces come from the Python emitters, with identical results.
"""

from __future__ import annotations

import ctypes
import fcntl
import functools
import hashlib
import importlib.util
import os
import shutil
import subprocess
import warnings
from pathlib import Path

from repro.seeding import pcg64_state

SOURCE = Path(__file__).with_name("kernel.c")
#: ``-Werror=incompatible-pointer-types``: a ``bitgen_t`` callback whose
#: type differs from the linked NumPy's header fails the build.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC",
         "-Werror=incompatible-pointer-types")

_I = ctypes.c_int64
_F = ctypes.c_double
_P = ctypes.c_void_p
_U64 = (1 << 64) - 1


class Pcg64(ctypes.Structure):
    """Mirror of the kernel's ``Pcg64``: ``numpy.random.PCG64``'s LCG and
    its ``next_uint32`` carried half-word."""

    _fields_ = [
        (name, ctypes.c_uint64)
        for name in ("state_lo", "state_hi", "inc_lo", "inc_hi")
    ] + [("has_half", _I), ("half", ctypes.c_uint64)]

    @classmethod
    def seeded(cls, seed: int) -> "Pcg64":
        """The generator ``numpy.random.PCG64(seed)`` starts as."""
        state, inc = pcg64_state(seed)
        return cls(
            state_lo=state & _U64, state_hi=state >> 64,
            inc_lo=inc & _U64, inc_hi=inc >> 64,
        )


class Machine(ctypes.Structure):
    """Mirror of the kernel's ``Machine`` struct (same order and types)."""

    _fields_ = [
        (name, kind)
        for names, kind in (
            (
                "cores l1_cores l1_sets l1_ways victim_capacity l2_sets "
                "l2_ways mshr_capacity miss_window measuring use_stride "
                "track_mlp collect_miss_log tracker_entries "
                "stride_buffer_blocks stride_degree confirm_threshold "
                "region_shift work_f64",
                _I,
            ),
            (
                "t_l1_hit t_victim_hit t_l2_dep t_l2_indep t_stride_dep "
                "t_stride_indep t_miss_overhead dram_transfer dram_latency "
                "stride_backlog_limit",
                _F,
            ),
            (
                "blocks work dep write low_priority limits clocks "
                "cursors l1_tags l1_dirty l1_count l1_stats victim_blocks "
                "victim_dirty victim_count victim_hits l2_tags l2_dirty "
                "l2_count l2_stats mshr_blocks mshr_complete mshr_waiters "
                "mshr_stats",
                _P,
            ),
            ("mshr_count", _I),
            ("window window_count", _P),
            (
                "dram_busy_high dram_busy_all dram_busy_cycles "
                "dram_queue_cycles",
                _F,
            ),
            ("dram_requests dram_high dram_low", _I),
            (
                "tracker tracker_count sbuf_blocks sbuf_times sbuf_count "
                "stride_stats",
                _P,
            ),
            ("demand_accesses off_chip_reads measured_records", _I),
            (
                "traffic core_traffic coverage core_coverage mlp mlp_count "
                "miss_log miss_log_base miss_log_count",
                _P,
            ),
            (
                "stms history_capacity bucket_entries "
                "bucket_buffer_capacity prefetch_buffer_blocks lookahead "
                "queue_capacity refill_threshold annotate sample_mode "
                "issued_capacity",
                _I,
            ),
            ("t_pf_dep t_pf_indep pf_backlog_limit", _F),
            ("index_mask tag_mask", _I),
            ("coin_rng", Pcg64),
            ("sample_probability", _F),
            (
                "pf_stats stms_counters sampler index_tags index_ptrs "
                "index_count index_stats hist_blocks hist_marks "
                "hist_pend_blocks hist_pend_marks hist_pend_count hist_head "
                "hist_stats bb_buckets bb_dirty bb_core",
                _P,
            ),
            ("bb_count", _I),
            (
                "bb_stats engines queues issued pbuf pbuf_count bb_member "
                "pbuf_inflight pbuf_filter",
                _P,
            ),
        )
        for name in names.split()
    ]


class Queued(ctypes.Structure):
    """Mirror of the kernel's ``Queued``, field for field as
    QueuedAddress."""

    _fields_ = [
        ("source_core", _I), ("sequence", _I), ("block", _I),
        ("marked", ctypes.c_bool), ("ready_at", _F),
    ]


class Prefetched(ctypes.Structure):
    """Mirror of the kernel's ``Prefetched``, field for field as
    PrefetchedBlock."""

    _fields_ = [
        ("block", _I), ("issued_at", _F), ("arrival", _F), ("stream", _I),
    ]


class Engine(ctypes.Structure):
    """Mirror of the kernel's ``Engine``, field for field as
    StreamEngine."""

    _fields_ = [(name, _I) for name in (
        "serial active source_core next_fetch_sequence consumed_count "
        "queue_head queue_count issued_count has_paused has_last"
    ).split()] + [("paused_at", Queued), ("last_consumed", Queued)]


#: Fields per row of the kernel's counter arrays (its ``ST_COUNT``,
#: ``SS_*``, ``PF_*``... enums), each row in the field order of the
#: Python counter class it mirrors: CacheStats, MshrStats, StrideStats,
#: CoverageCounts, PrefetcherStats, StmsCounters, the sampler's flips
#: and acceptances, IndexStats, HistoryStats and BucketBufferStats.
COUNTERS = {
    "l1_stats": 6, "l2_stats": 6, "mshr_stats": 4, "stride_stats": 5,
    "coverage": 4, "core_coverage": 4, "pf_stats": 7, "stms_counters": 5,
    "sampler": 2, "index_stats": 6, "hist_stats": 6, "bb_stats": 4,
}
#: What the kernel's ``repro_kernel_abi`` returns for these layouts.
ABI = (
    ctypes.sizeof(Machine) | ctypes.sizeof(Engine) << 16
    | ctypes.sizeof(Queued) << 32 | ctypes.sizeof(Prefetched) << 48
)


class GenContext(ctypes.Structure):
    """Mirror of the emitters' ``GenContext`` struct: a
    :class:`~repro.workloads.base.GeneratorContext`'s generator, and its
    address layout and cursors."""

    _fields_ = [("rng", Pcg64)] + [
        (name, _I)
        for name in (
            "hot_base hot_blocks scan_base scan_blocks scan_cursor "
            "noise_base noise_span noise_cursor"
        ).split()
    ]


class Activities(ctypes.Structure):
    """Mirror of ``Activities``: a commercial or DSS activity loop."""

    _fields_ = [
        ("activity_cdf", _F * 4),
        ("stream_blocks", _P),
        ("stream_starts", _P),
        ("popularity", _P),
    ] + [
        (name, kind)
        for names, kind in (
            ("streams interleave hot_writes scan_run hot_run", _I),
            (
                "work_mean scan_work hot_work stream_dep_p noise_dep_p "
                "write_p interleave_noise_p truncate_p",
                _F,
            ),
        )
        for name in names.split()
    ]


class Iteration(ctypes.Structure):
    """Mirror of ``Iteration``: one scientific iteration."""

    _fields_ = [("blocks", _P), ("dep", _P)] + [
        (name, kind)
        for names, kind in (
            ("length sweep_blocks sweep_run", _I),
            ("work_mean sweep_work write_p noise_p", _F),
        )
        for name in names.split()
    ]


class Columns(ctypes.Structure):
    """Mirror of ``Columns``: one core's output columns and fill mark."""

    _fields_ = [
        ("blocks", _P), ("work", _P), ("dep", _P), ("write", _P), ("at", _I),
    ]


#: What the library's ``repro_emit_abi`` returns for these layouts.
EMIT_ABI = (
    ctypes.sizeof(GenContext) | ctypes.sizeof(Activities) << 16
    | ctypes.sizeof(Iteration) << 32 | ctypes.sizeof(Columns) << 48
)


def address(buffer) -> int:
    """The address of a contiguous buffer's first byte (0 when empty):
    a writable buffer's, a read-only view's through the writable buffer
    it covers whole (a loaded column), or a NumPy array's (a column
    attached from the shared-memory plane)."""
    interface = getattr(buffer, "__array_interface__", None)
    if interface is not None:
        return interface["data"][0]
    if isinstance(buffer, memoryview) and buffer.readonly:
        if buffer.nbytes != memoryview(buffer.obj).nbytes:
            raise ValueError("a read-only view of part of a buffer")
        buffer = buffer.obj
    if not len(buffer):
        return 0
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


class KernelUnavailable(RuntimeError):
    """The kernel could not be built or loaded on this machine."""


def cache_dir() -> Path:
    """Per-user directory the built kernel is cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def npyrandom() -> "Path | None":
    """NumPy's static ``libnpyrandom.a`` (its random C API), found from
    NumPy's import spec without importing it; None when absent."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for location in spec.submodule_search_locations:
        archive = Path(location, "random", "lib", "libnpyrandom.a")
        if archive.is_file():
            return archive
    return None


def _includes(archive: Path) -> "list[str]":
    """``-I`` options for the random C headers that ship with
    ``archive``'s NumPy (``numpy/random/distributions.h`` includes
    ``Python.h``), so the kernel compiles against that NumPy's own
    ``bitgen_t`` and prototypes."""
    import sysconfig

    root = archive.parents[2]
    for core in ("_core", "core"):
        include = root / core / "include"
        if (include / "numpy" / "random" / "distributions.h").is_file():
            return ["-I", str(include), "-I", sysconfig.get_paths()["include"]]
    raise KernelUnavailable(f"no numpy/random headers beside {archive}")


def _library_path(directory: Path) -> "tuple[Path, str, Path]":
    """Cache path of the kernel built by this machine's ``cc`` against
    NumPy's ``libnpyrandom.a``; the compiler and the archive.

    The compiler and the archive are identified by the files they
    resolve to, with their sizes and modification times: an upgraded or
    swapped compiler or NumPy gets a new key, and no process is started
    to tell.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise KernelUnavailable("no C compiler ('cc') on PATH")
    archive = npyrandom()
    if archive is None:
        raise KernelUnavailable("NumPy's libnpyrandom.a not found")
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    digest.update(b"\0")
    digest.update(" ".join(FLAGS).encode())
    for path in (cc, archive):
        real = os.path.realpath(path)
        info = os.stat(real)
        digest.update(b"\0")
        digest.update(f"{real} {info.st_size} {info.st_mtime_ns}".encode())
    return directory / f"kernel-{digest.hexdigest()[:16]}.so", cc, archive


def _digest_path(path: Path) -> Path:
    return path.with_suffix(".sha256")


def _open(path: Path) -> "ctypes.CDLL | None":
    """Load a built library; None when it is missing or damaged.

    The library must match the digest recorded when it was built:
    ``dlopen`` of a truncated library can fault (SIGBUS) rather than
    fail, so a damaged file must never reach it.
    """
    try:
        expected = _digest_path(path).read_text()
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None
    if actual != expected:
        return None
    try:
        lib = ctypes.CDLL(str(path))
        abis = (lib.repro_kernel_abi, lib.repro_emit_abi)
        entries = (lib.repro_kernel_run, lib.repro_kernel_reset,
                   lib.repro_kernel_finalize)
        emitters = (lib.repro_emit_activities, lib.repro_emit_iteration)
        distinct = lib.repro_first_distinct
        draws = (lib.repro_gen_integers, lib.repro_gen_normal,
                 lib.repro_gen_random)
    except (OSError, AttributeError):
        return None
    for abi, expected in zip(abis, (ABI, EMIT_ABI)):
        abi.argtypes = []
        abi.restype = ctypes.c_int64
        if abi() != expected:
            return None
    run, reset, finalize = entries
    run.argtypes = reset.argtypes = [ctypes.POINTER(Machine)]
    finalize.argtypes = [ctypes.POINTER(Machine), ctypes.c_double]
    run.restype = ctypes.c_int64
    reset.restype = finalize.restype = None
    activities, iteration = emitters
    activities.argtypes = [
        ctypes.POINTER(GenContext), ctypes.POINTER(Activities),
        ctypes.POINTER(Columns), _I,
    ]
    iteration.argtypes = [
        ctypes.POINTER(GenContext), ctypes.POINTER(Iteration),
        ctypes.POINTER(Columns),
    ]
    distinct.argtypes = [_P, _P, _I, _P, _I, _P]
    activities.restype = iteration.restype = distinct.restype = _I
    integers, normal, uniform = draws
    rng = ctypes.POINTER(Pcg64)
    integers.argtypes = [rng, _I, _I, _P]
    normal.argtypes = [rng, _F, _F, _I, _P]
    uniform.argtypes = [rng, _I, _P]
    integers.restype = normal.restype = uniform.restype = None
    return lib


def _compile(cc: str, archive: Path, path: Path) -> None:
    """Compile the kernel, linked against ``archive``, to ``path``;
    publish it and its digest by atomic renames of private temp
    files."""
    digest_path = _digest_path(path)
    temps = [
        target.with_name(f".{target.name}.{os.getpid()}.tmp")
        for target in (path, digest_path)
    ]
    try:
        built = subprocess.run(
            [cc, *FLAGS, *_includes(archive), "-o", str(temps[0]),
             str(SOURCE), str(archive), "-lm"],
            capture_output=True,
            text=True,
        )
        if built.returncode != 0:
            raise KernelUnavailable(
                f"cc failed ({built.returncode}): {built.stderr.strip()}"
            )
        temps[1].write_text(
            hashlib.sha256(temps[0].read_bytes()).hexdigest()
        )
        os.replace(temps[0], path)
        os.replace(temps[1], digest_path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def build(directory: "Path | None" = None) -> ctypes.CDLL:
    """Load the kernel from ``directory``, building it there if needed.

    A missing or damaged library is rebuilt under an exclusive lock, so
    concurrent callers compile once and every caller loads the same
    published file.
    """
    directory = cache_dir() if directory is None else directory
    directory.mkdir(parents=True, exist_ok=True)
    path, cc, archive = _library_path(directory)
    lib = _open(path)
    if lib is None:
        with open(path.with_suffix(".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            # Another process may have published it while we waited.
            lib = _open(path)
            if lib is None:
                _compile(cc, archive, path)
                lib = _open(path)
    if lib is None:
        raise KernelUnavailable(f"built kernel {path} does not load")
    return lib


@functools.cache
def load() -> "ctypes.CDLL | None":
    """The process's library, or None (warned once) when unavailable."""
    try:
        return build()
    except (KernelUnavailable, OSError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"compiled event kernel unavailable ({exc}); baseline and "
            f"STMS cells fall back to the Python batched engine, and "
            f"traces to the Python emitters",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
