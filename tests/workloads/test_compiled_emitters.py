"""The compiled trace emitters against their Python reference.

Whenever the compiled library loads, the generators' per-record loops
run in C (:mod:`repro.workloads.compiled`); the Python emitters are the
reference they must match column for column.  Each case here generates
a trace both ways, the reference by making :func:`compiled.library`
decline, and compares every column array and the fingerprint.  The
pinned fingerprints (``test_emitter_roundtrip.py``) hold the compiled
path to the literal traces; this suite covers the families, presets,
seeds, core counts and mixes the pins leave out, the generator state a
compiled loop leaves, and the no-compiler and no-archive fallbacks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.mix_contention import DEFAULT_MIXES
from repro.sim import library
from repro.sim.library import load
from repro.workloads import compiled
from repro.workloads.base import GeneratorContext, StreamPool
from repro.workloads.commercial import CommercialGenerator
from repro.workloads.reference import NumpyDraws
from repro.workloads.scales import get_scale
from repro.workloads.suite import FIGURE_ORDER, generate, get_spec
from repro.workloads.trace import as_numpy, column_dtype
from tests.workloads.test_emitter_roundtrip import BENCH_FAMILY_PINS

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src")


@pytest.fixture
def library_loaded():
    """Skip where the library does not load (no C compiler): both
    paths would then be the Python emitters."""
    if load() is None:
        pytest.skip("compiled library unavailable (no C compiler)")


needs_library = pytest.mark.usefixtures("library_loaded")


SEEDS = (7, 8, 11)
CORES = (1, 2, 4)


def _reference(monkeypatch, name: str, **kwargs):
    """The trace the Python emitters generate."""
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "library", lambda context: None)
        return generate(name, **kwargs)


def _assert_same(monkeypatch, name: str, **kwargs) -> None:
    fast = generate(name, **kwargs)
    reference = _reference(monkeypatch, name, **kwargs)
    assert fast.cores == reference.cores
    for column in ("blocks", "work", "dep", "write"):
        for core, (got, want) in enumerate(
            zip(getattr(fast, column), getattr(reference, column))
        ):
            assert type(got) is type(want), (column, core)
            assert column_dtype(got) == column_dtype(want), (column, core)
            assert np.array_equal(as_numpy(got), as_numpy(want)), (
                column, core)
    assert fast.fingerprint() == reference.fingerprint()


@needs_library
@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIGURE_ORDER)
def test_test_scale_matches_reference(monkeypatch, name, seed, cores):
    _assert_same(monkeypatch, name, scale="test", cores=cores, seed=seed)


@needs_library
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIGURE_ORDER)
def test_demo_scale_matches_reference(monkeypatch, name, seed):
    _assert_same(monkeypatch, name, scale="demo", cores=2, seed=seed)


@needs_library
@pytest.mark.slow
@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FIGURE_ORDER)
def test_bench_scale_matches_reference(monkeypatch, name, seed, cores):
    _assert_same(monkeypatch, name, scale="bench", cores=cores, seed=seed)


@needs_library
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", DEFAULT_MIXES)
def test_default_mixes_match_reference(monkeypatch, spec, seed):
    _assert_same(monkeypatch, spec, scale="test", cores=4, seed=seed)


def _straddling_traversal_start(monkeypatch) -> int:
    """A core length at which web-apache's reference emitter starts a
    traversal that refills the raw window part way through."""
    peeks = []
    starts = []
    peek = NumpyDraws.peek
    traverse = CommercialGenerator._emit_traversal

    def counted_peek(draws, n):
        peeks.append(n)
        return peek(draws, n)

    def watched_traverse(generator, builder, pool, context):
        before, length = len(peeks), len(builder)
        traverse(generator, builder, pool, context)
        # The first peek opens the traversal; a second one refilled.
        if len(peeks) - before > 1:
            starts.append(length)

    with monkeypatch.context() as patch:
        patch.setattr(compiled, "library", lambda context: None)
        patch.setattr(NumpyDraws, "peek", counted_peek)
        patch.setattr(CommercialGenerator, "_emit_traversal",
                      watched_traverse)
        generate("web-apache", scale="test", cores=1, seed=7)
    assert starts, "no traversal straddled a window refill"
    return starts[0]


@needs_library
def test_final_traversal_straddling_a_refill_matches(monkeypatch):
    """The traversal that ends the core straddles a window refill."""
    start = _straddling_traversal_start(monkeypatch)
    _assert_same(monkeypatch, "web-apache", scale="test", cores=1, seed=7,
                 records_per_core=start + 1)


@needs_library
def test_compiled_loop_leaves_the_generator_where_python_does(monkeypatch):
    """A compiled activity loop leaves the context's generator (half-word
    carry included) and cursors where the Python loop leaves them, so
    the draws after it agree too."""
    generator = get_spec("oltp-db2").generator(get_scale("test"))
    params = generator.params

    def context_and_pool():
        context = GeneratorContext(
            seed=11, hot_blocks=params.hot_blocks,
            structure_blocks=params.structure_blocks,
            scan_blocks=params.scan_blocks, noise_blocks=params.noise_blocks,
        )
        pool = StreamPool(
            context, count=params.pool_streams,
            median_length=params.stream_median, sigma=params.stream_sigma,
            zipf_alpha=params.zipf_alpha,
        )
        # Leave an unread upper half-word for the loop to start from.
        context.draws.integers(7, 1)
        return context, pool

    cdf = params.mix.cdf()
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "library", lambda context: None)
        context, pool = context_and_pool()
    assert not context.native
    assert context.draws.rng.bit_generator.state["has_uint32"] == 1
    reference = generator._emit_core(pool, context, cdf, 2_000).freeze()
    want = context.draws.rng.bit_generator.state
    cursors = context._cursors
    want_cursors = (cursors.scan_cursor, cursors.noise_cursor)
    want_next = context.draws.integers(1 << 20, 9).tolist()
    context, pool = context_and_pool()
    assert context.native
    [got] = compiled.emit_activities(
        context, pool, cdf, 1, 2_000,
        interleave=1, hot_writes=1, scan_run=params.scan_run,
        hot_run=params.hot_run, work_mean=params.work_cycles,
        scan_work=params.work_cycles * 0.5,
        hot_work=params.work_cycles * 0.3,
        stream_dep_p=params.stream_dep_p, noise_dep_p=params.noise_dep_p,
        write_p=params.write_p,
        interleave_noise_p=params.interleave_noise_p,
        truncate_p=params.truncate_p,
    )
    for got_column, want_column in zip(got, reference):
        assert got_column == want_column
    gen = context.draws.gen
    assert (gen.rng.state_hi << 64 | gen.rng.state_lo) == (
        want["state"]["state"]
    )
    assert (gen.rng.has_half, gen.rng.half) == (
        want["has_uint32"], want["uinteger"]
    )
    assert (gen.scan_cursor, gen.noise_cursor) == want_cursors
    assert context.draws.integers(1 << 20, 9).tolist() == want_next


def test_no_library_warns_once_and_keeps_the_fingerprints(tmp_path):
    """Without a C compiler the Python emitters run, after one warning,
    and generate the pinned traces."""
    empty = tmp_path / "bin"
    empty.mkdir()
    code = """
import json, warnings
from repro.workloads.suite import generate
names = %r
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    prints = {name: generate(name, scale="test", cores=4, seed=7)
              .fingerprint() for name in names}
print(json.dumps({
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "fingerprints": prints,
}))
""" % (list(BENCH_FAMILY_PINS),)
    env = dict(os.environ, PYTHONPATH=SRC, PATH=str(empty),
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(report["warnings"]) == 1
    assert "compiled event kernel unavailable" in report["warnings"][0]
    assert "Python emitters" in report["warnings"][0]
    assert report["fingerprints"] == BENCH_FAMILY_PINS


@pytest.mark.skipif(shutil.which("cc") is None,
                    reason="without a compiler the archive is never sought")
def test_no_npyrandom_archive_warns_once_and_keeps_the_fingerprints(
    monkeypatch, tmp_path
):
    """Where NumPy ships no ``libnpyrandom.a`` the library does not
    build: generation warns once, runs the Python emitters, and gives
    the fig7 recipes' pinned fingerprints."""
    import warnings

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(library, "npyrandom", lambda: None)
    load.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prints = {
                name: generate(name, scale="test", cores=4, seed=7)
                .fingerprint()
                for name in BENCH_FAMILY_PINS
            }
    finally:
        load.cache_clear()
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1, messages
    assert "libnpyrandom.a" in messages[0]
    assert "Python emitters" in messages[0]
    assert prints == BENCH_FAMILY_PINS
