"""Tests for multiprogrammed mix recipes and trace generation."""

from array import array

import numpy as np
import pytest

from repro.experiments.mix_contention import DEFAULT_MIXES
from repro.workloads.mix import (
    MAX_RATE,
    MAX_SLICES,
    MIN_RATE,
    MixRecipe,
    _interleave_round_robin,
    _stretch,
    core_seed,
    generate_mix,
)
from repro.workloads.scales import MIX_PRESETS, is_mix
from repro.workloads.suite import generate
from repro.workloads.trace import Trace, as_numpy


class TestMixRecipe:
    def test_parse_plain_components(self):
        recipe = MixRecipe.parse("mix:oltp-db2+dss-db2")
        assert recipe.components == ("oltp-db2", "dss-db2")

    def test_parse_repeat_shorthand(self):
        recipe = MixRecipe.parse("mix:2xoltp-db2+2xdss-db2")
        assert recipe.components == (
            "oltp-db2", "oltp-db2", "dss-db2", "dss-db2",
        )

    def test_parse_preset(self):
        recipe = MixRecipe.parse("mix-oltp-dss")
        assert recipe.components == ("oltp-db2", "dss-db2")

    def test_every_preset_parses(self):
        for name in MIX_PRESETS:
            assert is_mix(name)
            MixRecipe.parse(name)

    def test_canonical_name_is_spelling_independent(self):
        assert (
            MixRecipe.parse("mix:oltp-db2+oltp-db2").name
            == MixRecipe.parse("mix:2xoltp-db2").name
        )

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError, match="unknown workload"):
            MixRecipe.parse("mix:oltp-db2+not-a-workload")

    def test_rejects_non_mix_spec(self):
        with pytest.raises(ValueError, match="not a mix spec"):
            MixRecipe.parse("oltp-db2")

    def test_rejects_empty_component(self):
        with pytest.raises(ValueError, match="bad mix component"):
            MixRecipe.parse("mix:oltp-db2++dss-db2")

    def test_rejects_empty_mix(self):
        with pytest.raises(ValueError):
            MixRecipe(components=())

    def test_assignment_cycles_round_robin(self):
        recipe = MixRecipe.parse("mix:oltp-db2+dss-db2")
        assert recipe.assign(4) == (
            "oltp-db2", "dss-db2", "oltp-db2", "dss-db2",
        )
        assert recipe.assign(1) == ("oltp-db2",)

    def test_core_seed_distinct_per_core(self):
        seeds = {core_seed(7, core) for core in range(8)}
        assert len(seeds) == 8
        assert core_seed(7, 0) == core_seed(7, 0)


class TestGenerateMix:
    def _small(self, spec="mix:oltp-db2+dss-db2", **overrides):
        options = dict(
            scale="test", cores=2, seed=7, records_per_core=400
        )
        options.update(overrides)
        return generate_mix(spec, **options)

    def test_per_core_identity_and_warmup(self):
        trace = self._small()
        assert trace.core_workloads == ["oltp-db2", "dss-db2"]
        assert len(trace.core_warmup) == 2
        assert trace.workload_of(0) == "oltp-db2"
        assert trace.name == "mix:oltp-db2+dss-db2"

    def test_address_spaces_disjoint(self):
        trace = self._small(spec="mix:web-apache+sci-ocean")
        lo = [int(as_numpy(b).min()) for b in trace.blocks]
        hi = [int(as_numpy(b).max()) for b in trace.blocks]
        assert hi[0] < lo[1] or hi[1] < lo[0]
        assert max(hi) < trace.working_set_blocks

    def test_deterministic(self):
        a = self._small()
        b = self._small()
        assert a.fingerprint() == b.fingerprint()

    def test_same_workload_cores_are_independent_instances(self):
        trace = self._small(spec="mix:2xoltp-db2")
        # Disjoint address spaces aside, the *relative* sequences must
        # differ too (per-core RNG streams, not replicas).
        relative = [as_numpy(b) - as_numpy(b).min() for b in trace.blocks]
        assert not np.array_equal(relative[0], relative[1])

    def test_suite_generate_dispatches_mixes(self):
        via_suite = generate(
            "mix:oltp-db2+dss-db2",
            scale="test",
            cores=2,
            seed=7,
            records_per_core=400,
        )
        assert via_suite.core_workloads == ["oltp-db2", "dss-db2"]

    def test_component_records_follow_specs(self):
        # Without an override, each core's length follows its component
        # workload (records_bias makes sci-em3d traces longer).
        trace = generate_mix(
            "mix:oltp-db2+sci-em3d", scale="test", cores=2, seed=7
        )
        assert trace.core_records(1) > trace.core_records(0)

    def test_round_trip_preserves_mix_metadata(self, tmp_path):
        trace = self._small()
        path = str(tmp_path / "mix.trace")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.core_workloads == trace.core_workloads
        assert loaded.core_warmup == trace.core_warmup
        assert loaded.fingerprint() == trace.fingerprint()
        assert [loaded.warmup_records(c) for c in range(2)] == [
            trace.warmup_records(c) for c in range(2)
        ]

    def test_sliced_preserves_mix_metadata(self):
        trace = self._small()
        cut = trace.sliced(100)
        assert cut.core_workloads == trace.core_workloads
        assert cut.core_warmup == trace.core_warmup
        assert cut.core_records(0) == 100


class TestAsymmetricMix:
    def _asym(self, spec="mix:oltp-db2*2+dss-db2@0.5!low", **overrides):
        options = dict(
            scale="test", cores=2, seed=7, records_per_core=400
        )
        options.update(overrides)
        return generate_mix(spec, **options)

    def test_metadata_recorded(self):
        trace = self._asym()
        assert trace.core_workloads == ["oltp-db2*2", "dss-db2@0.5!low"]
        assert trace.core_rates == [1.0, 0.5]
        assert trace.core_priorities == ["high", "low"]
        assert trace.core_rate_of(1) == 0.5
        assert trace.core_priority_of(1) == "low"

    def test_symmetric_recipes_record_no_asymmetric_metadata(self):
        trace = generate_mix(
            "mix:oltp-db2+dss-db2", scale="test", cores=2, seed=7,
            records_per_core=400,
        )
        assert trace.core_rates is None
        assert trace.core_priorities is None
        assert trace.core_rate_of(0) == 1.0
        assert trace.core_priority_of(0) is None

    def test_time_slices_interleave_independent_instances(self):
        sliced = self._asym(spec="mix:oltp-db2*2+dss-db2")
        single = generate_mix(
            "mix:oltp-db2+dss-db2", scale="test", cores=2, seed=7,
            records_per_core=400,
        )
        # Two instances roughly double the core's records (instance
        # lengths vary slightly with the seed), and slice 0 — which
        # reuses the unsliced instance's seed — contributes every other
        # record at the front of the interleave.
        assert sliced.core_records(0) >= int(
            1.8 * single.core_records(0)
        )
        assert np.array_equal(
            sliced.blocks[0][0::2][:50], single.blocks[0][:50]
        )

    def test_rate_stretches_compute(self):
        slow = self._asym(spec="mix:oltp-db2+dss-db2@0.5")
        fast = generate_mix(
            "mix:oltp-db2+dss-db2", scale="test", cores=2, seed=7,
            records_per_core=400,
        )
        assert np.array_equal(
            slow.work[1], fast.work[1] / np.float32(0.5)
        )
        assert np.array_equal(slow.work[0], fast.work[0])

    def test_round_trip_preserves_asymmetric_metadata(self, tmp_path):
        trace = self._asym()
        path = str(tmp_path / "asym.trace")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.core_rates == trace.core_rates
        assert loaded.core_priorities == trace.core_priorities
        assert loaded.fingerprint() == trace.fingerprint()

    def test_sliced_preserves_asymmetric_metadata(self):
        trace = self._asym()
        cut = trace.sliced(100)
        assert cut.core_rates == trace.core_rates
        assert cut.core_priorities == trace.core_priorities

    def test_fingerprint_distinguishes_priorities(self):
        low = self._asym(spec="mix:oltp-db2+dss-db2!low")
        high = self._asym(spec="mix:oltp-db2+dss-db2")
        # Identical columns (priority does not touch generation), but
        # the scheduling metadata must separate the cache entries.
        assert np.array_equal(low.blocks[1], high.blocks[1])
        assert low.fingerprint() != high.fingerprint()

    def test_low_priority_core_demands_queue_behind_others(self):
        from repro.memory.config import Priority
        from repro.sim.engine import _RunState
        from repro.sim.runner import make_sim_config

        trace = self._asym()
        state = _RunState(make_sim_config("test"), trace, None)
        assert state.demand_priority == [Priority.HIGH, Priority.LOW]


class TestMixStoreIntegration:
    def test_recipe_key_spelling_independent(self):
        from repro.sim.session import trace_recipe_key
        from repro.workloads.suite import get_scale

        preset = get_scale("test")
        assert trace_recipe_key(
            "mix:2xoltp-db2", preset, 2, 7, None
        ) == trace_recipe_key("mix:oltp-db2+oltp-db2", preset, 2, 7, None)
        assert trace_recipe_key(
            "mix-oltp-dss", preset, 2, 7, None
        ) == trace_recipe_key("mix:oltp-db2+dss-db2", preset, 2, 7, None)

    def test_mix_trace_round_trips_through_store(self, tmp_path):
        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        warm = SimSession(enabled=True, store=store)
        first = warm.trace(
            "mix:oltp-db2+dss-db2", scale="test", cores=2, seed=7,
            records_per_core=400,
        )
        assert warm.stats.trace_misses == 1

        cold = SimSession(enabled=True, store=store)
        second = cold.trace(
            "mix-oltp-dss", scale="test", cores=2, seed=7,
            records_per_core=400,
        )
        assert cold.stats.trace_misses == 0
        assert cold.stats.trace_store_hits == 1
        assert first.fingerprint() == second.fingerprint()
        assert second.core_workloads == first.core_workloads


def _argsort_interleave(instances):
    """The round-robin merge as a stable sort: record ``k`` of instance
    ``i`` (of ``n``) sorts at key ``k * n + i``."""
    n = len(instances)
    keys = np.concatenate([
        np.arange(len(columns[0]), dtype=np.int64) * n + i
        for i, columns in enumerate(instances)
    ])
    order = np.argsort(keys, kind="stable")
    return [
        np.concatenate([as_numpy(columns[c]) for columns in instances])[order]
        for c in range(4)
    ]


def _instance(rng, length):
    """Random columns of every type a trace holds: int64 blocks, float32
    work, bool dep and write."""
    return [
        array("q", rng.integers(-(1 << 40), 1 << 40, length).tolist()),
        array("f", rng.random(length, dtype=np.float32).tobytes()),
        bytearray((rng.random(length) < 0.5).tobytes()),
        bytearray((rng.random(length) < 0.2).tobytes()),
    ]


class TestAssemblyParity:
    """Mixes assemble in buffers as a NumPy argsort and float32 division
    would: the merge, the rate scaling and the traces themselves."""

    @pytest.mark.parametrize("count", range(1, MAX_SLICES + 1))
    @pytest.mark.parametrize("trial", range(4))
    def test_interleave_is_the_stable_argsort_order(self, count, trial):
        rng = np.random.default_rng(count * 10 + trial)
        # Unequal lengths, ties among them, and empty instances.
        lengths = rng.choice([0, 1, 2, 7, 7, 30, 61], size=count).tolist()
        if trial == 0:
            lengths[-1] = 0
        instances = [_instance(rng, length) for length in lengths]
        merged = _interleave_round_robin(instances)
        want = _argsort_interleave(instances)
        assert [type(c) for c in merged] == [array, array, bytearray,
                                            bytearray]
        for got, expected in zip(merged, want):
            assert as_numpy(got).dtype == expected.dtype
            assert np.array_equal(as_numpy(got), expected)

    def test_interleave_of_only_empty_instances_is_empty(self):
        rng = np.random.default_rng(0)
        merged = _interleave_round_robin([_instance(rng, 0)] * 3)
        assert [len(column) for column in merged] == [0] * 4

    def test_stretch_is_float32_division_at_every_rate(self):
        rng = np.random.default_rng(5)
        work = np.concatenate([
            rng.random(2000, dtype=np.float32) * np.float32(400),
            rng.integers(0, 1 << 24, 500).astype(np.float32),
            np.array([0.0, 1.0, 3.0, 1e-30, 3.4e38], dtype=np.float32),
        ])
        column = array("f", work.tobytes())
        grid = np.geomspace(MIN_RATE, MAX_RATE, 241)
        rates = sorted({float(f"{rate:g}") for rate in grid})
        rates = [rate for rate in rates if MIN_RATE <= rate <= MAX_RATE]
        assert MIN_RATE in rates and MAX_RATE in rates
        for rate in rates:
            got = as_numpy(_stretch(column, rate))
            with np.errstate(over="ignore"):
                want = work / np.float32(rate)
            assert got.tobytes() == want.tobytes(), rate

    #: ``generate_mix(spec, "test", cores=4, seed).fingerprint()`` as
    #: NumPy assembled them (offset, argsort interleave, float32 rate).
    FINGERPRINTS = {
        ("mix:oltp-db2+dss-db2", 7): "df93e65d2a528abc504ff9b48c1edc8c",
        ("mix:oltp-db2+dss-db2", 8): "7756ac774d692e87ab5d2b609b7c9f62",
        ("mix:web-apache+sci-em3d", 7): "c8cff8100aa6506324b0de446059e629",
        ("mix:web-apache+sci-em3d", 8): "dfcaf9261dbe26d979a3e7b9c2b2fa0f",
        ("mix:oltp-db2+web-zeus", 7): "a3b6a4f98beab2a9c148d1c7fd7f3f7f",
        ("mix:oltp-db2+web-zeus", 8): "b2c8a9d95b50ecbb40c3eaf185a5f463",
        ("mix:oltp-db2*2+dss-db2@0.5!low", 7):
            "dcc6691bf6ca50db12b421e9e25d6082",
        ("mix:oltp-db2*2+dss-db2@0.5!low", 8):
            "0670db12ea7c007ea650f1f656abc220",
        ("mix-oltp-dss", 7): "df93e65d2a528abc504ff9b48c1edc8c",
        ("mix-oltp-dss", 8): "7756ac774d692e87ab5d2b609b7c9f62",
        ("mix-web-sci", 7): "c8cff8100aa6506324b0de446059e629",
        ("mix-web-sci", 8): "dfcaf9261dbe26d979a3e7b9c2b2fa0f",
        ("mix-commercial", 7): "a3b6a4f98beab2a9c148d1c7fd7f3f7f",
        ("mix-commercial", 8): "b2c8a9d95b50ecbb40c3eaf185a5f463",
        ("mix-hetero", 7): "11de4adb14993428ecb340c33bd5fc51",
        ("mix-hetero", 8): "aaf2f285bd774a937ee01b0a684e668c",
        ("mix:oltp-db2*3+sci-em3d*2@0.37", 7):
            "a0085fba13781e4b20353b41151dc16b",
        ("mix:oltp-db2*3+sci-em3d*2@0.37", 8):
            "ca235039d8ce76733c2097d91ebdf6bd",
        ("mix:web-zeus*2@2.5!low+dss-db2*4", 7):
            "6e4b7590f4d5c15262c65a281794fa53",
        ("mix:web-zeus*2@2.5!low+dss-db2*4", 8):
            "c11c7d43e5f60aaa37612d8d5399c0e1",
    }

    def test_pinned_fingerprints_cover_every_default_and_preset(self):
        specs = {spec for spec, _ in self.FINGERPRINTS}
        assert set(DEFAULT_MIXES) | set(MIX_PRESETS) <= specs

    @pytest.mark.parametrize("spec,seed", sorted(FINGERPRINTS))
    def test_fingerprint_is_pinned(self, spec, seed):
        trace = generate_mix(spec, scale="test", cores=4, seed=seed)
        assert trace.fingerprint() == self.FINGERPRINTS[spec, seed]
