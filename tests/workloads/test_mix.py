"""Tests for multiprogrammed mix recipes and trace generation."""

import numpy as np
import pytest

from repro.workloads.mix import MixRecipe, core_seed, generate_mix
from repro.workloads.scales import MIX_PRESETS, is_mix
from repro.workloads.suite import generate
from repro.workloads.trace import Trace


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
        lo = [int(b.min()) for b in trace.blocks]
        hi = [int(b.max()) for b in trace.blocks]
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
        relative = [b - b.min() for b in trace.blocks]
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
