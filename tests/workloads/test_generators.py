"""Unit tests for the three workload generators."""

import numpy as np
import pytest

from repro.workloads.commercial import CommercialGenerator, CommercialParams
from repro.workloads.dss import DssGenerator, DssParams
from repro.workloads.scientific import ScientificGenerator, ScientificParams


SMALL_COMMERCIAL = CommercialParams(
    pool_streams=50,
    noise_blocks=20_000,
    scan_blocks=8_000,
    structure_blocks=15_000,
)
SMALL_DSS = DssParams(
    pool_streams=20,
    noise_blocks=20_000,
    scan_blocks=20_000,
    structure_blocks=4_000,
)
SMALL_SCI = ScientificParams(iteration_blocks=500, noise_blocks=512)


class TestCommercialGenerator:
    def test_record_counts(self):
        generator = CommercialGenerator("c", SMALL_COMMERCIAL)
        trace = generator.generate(cores=2, records_per_core=1500, seed=3)
        assert trace.cores == 2
        assert all(
            trace.core_records(core) >= 1500 for core in range(2)
        )

    def test_deterministic_for_seed(self):
        generator = CommercialGenerator("c", SMALL_COMMERCIAL)
        a = generator.generate(cores=1, records_per_core=800, seed=5)
        b = generator.generate(cores=1, records_per_core=800, seed=5)
        np.testing.assert_array_equal(a.blocks[0], b.blocks[0])

    def test_seed_changes_trace(self):
        generator = CommercialGenerator("c", SMALL_COMMERCIAL)
        a = generator.generate(cores=1, records_per_core=800, seed=5)
        b = generator.generate(cores=1, records_per_core=800, seed=6)
        assert not np.array_equal(a.blocks[0], b.blocks[0])

    def test_addresses_within_working_set(self):
        generator = CommercialGenerator("c", SMALL_COMMERCIAL)
        trace = generator.generate(cores=1, records_per_core=1500, seed=1)
        assert max(trace.blocks[0]) < trace.working_set_blocks
        assert min(trace.blocks[0]) >= 0

    def test_streams_recur(self):
        generator = CommercialGenerator("c", SMALL_COMMERCIAL)
        trace = generator.generate(cores=1, records_per_core=3000, seed=1)
        blocks = trace.blocks[0]
        unique, counts = np.unique(blocks, return_counts=True)
        # A meaningful fraction of structure blocks must repeat.
        assert (counts >= 2).sum() > 100

    def test_scaled_shrinks_footprint(self):
        scaled = SMALL_COMMERCIAL.scaled(0.5)
        assert scaled.pool_streams == 25
        assert scaled.noise_blocks == 10_000
        with pytest.raises(ValueError):
            SMALL_COMMERCIAL.scaled(0)

    def test_rejects_bad_arguments(self):
        generator = CommercialGenerator("c", SMALL_COMMERCIAL)
        with pytest.raises(ValueError):
            generator.generate(cores=0, records_per_core=100, seed=1)


class TestDssGenerator:
    def test_scan_dominated(self):
        generator = DssGenerator("d", SMALL_DSS)
        trace = generator.generate(cores=1, records_per_core=3000, seed=2)
        blocks = np.asarray(trace.blocks[0])
        context_scan_base = (
            SMALL_DSS.hot_blocks + SMALL_DSS.structure_blocks
        )
        scan_end = context_scan_base + SMALL_DSS.scan_blocks
        in_scan = (
            (blocks >= context_scan_base) & (blocks < scan_end)
        ).mean()
        assert in_scan > 0.4

    def test_mostly_visit_once(self):
        generator = DssGenerator("d", SMALL_DSS)
        trace = generator.generate(cores=1, records_per_core=3000, seed=2)
        unique, counts = np.unique(trace.blocks[0], return_counts=True)
        # Most distinct blocks appear exactly once (scans + noise).
        assert (counts == 1).mean() > 0.6

    def test_deterministic(self):
        generator = DssGenerator("d", SMALL_DSS)
        a = generator.generate(cores=1, records_per_core=500, seed=7)
        b = generator.generate(cores=1, records_per_core=500, seed=7)
        np.testing.assert_array_equal(a.blocks[0], b.blocks[0])


class TestScientificGenerator:
    def test_iterations_repeat(self):
        generator = ScientificGenerator("s", SMALL_SCI)
        trace = generator.generate(cores=1, records_per_core=1600, seed=4)
        blocks = trace.blocks[0]
        # The same iteration blocks recur (minus noise/perturbation).
        unique, counts = np.unique(blocks, return_counts=True)
        assert (counts >= 2).sum() > 400

    def test_cores_get_mostly_private_partitions(self):
        generator = ScientificGenerator("s", SMALL_SCI)
        trace = generator.generate(cores=2, records_per_core=600, seed=4)
        # SPMD partitions share some boundary blocks (em3d's "remote"
        # edges) but each core's iteration must be mostly its own.
        a = set(trace.blocks[0][:500].tolist())
        b = set(trace.blocks[1][:500].tolist())
        assert len(a & b) < 0.6 * len(a)

    def test_perturbation_changes_iterations(self):
        params = ScientificParams(
            iteration_blocks=400, perturb_p=0.05, noise_blocks=512
        )
        generator = ScientificGenerator("s", params)
        trace = generator.generate(cores=1, records_per_core=1300, seed=4)
        first = set(trace.blocks[0][:400].tolist())
        third = set(trace.blocks[0][800:1200].tolist())
        assert first != third

    def test_warmup_covers_at_least_one_iteration(self):
        generator = ScientificGenerator("s", SMALL_SCI)
        trace = generator.generate(cores=1, records_per_core=2000, seed=4)
        assert trace.warmup_records(0) >= 500

    def test_sweeps_are_strided(self):
        params = ScientificParams(
            iteration_blocks=200, sweep_blocks=300, noise_blocks=512,
            noise_p=0.0,
        )
        generator = ScientificGenerator("s", params)
        trace = generator.generate(cores=1, records_per_core=600, seed=4)
        blocks = trace.blocks[0]
        diffs = np.diff(blocks)
        assert (diffs == 1).sum() > 200
