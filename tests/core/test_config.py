"""Unit tests for the STMS configuration object."""

import pytest

from repro.core.config import (
    HISTORY_ENTRY_BYTES,
    INDEX_ENTRY_BYTES,
    StmsConfig,
)
from repro.memory.config import BLOCK_BYTES


class TestValidation:
    def test_defaults_valid(self):
        config = StmsConfig()
        assert config.cores == 4
        assert config.sampling_probability == 0.125
        assert config.bucket_entries == 12

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cores", 0),
            ("history_entries", 0),
            ("index_buckets", 100),  # not a power of two
            ("bucket_entries", 0),
            ("sampling_probability", 1.5),
            ("sampling_probability", -0.1),
            ("bucket_buffer_entries", 0),
            ("prefetch_buffer_blocks", 0),
            ("lookahead", 0),
            ("address_queue_entries", 0),
            ("tag_bits", 0),
            ("tag_bits", 64),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            StmsConfig(**{field: value})

    def test_refill_threshold_bounded_by_queue(self):
        with pytest.raises(ValueError):
            StmsConfig(address_queue_entries=8, queue_refill_threshold=9)


class TestDerivedStorage:
    def test_history_bytes(self):
        config = StmsConfig(cores=4, history_entries=1200)
        assert config.history_bytes_per_core == 1200 * HISTORY_ENTRY_BYTES
        assert config.history_bytes_total == 4 * 1200 * HISTORY_ENTRY_BYTES

    def test_index_bytes_one_block_per_bucket(self):
        config = StmsConfig(index_buckets=2048)
        assert config.index_bytes == 2048 * BLOCK_BYTES

    def test_on_chip_budget_components(self):
        config = StmsConfig(
            cores=4,
            prefetch_buffer_blocks=32,
            address_queue_entries=24,
            bucket_buffer_entries=128,
        )
        expected = (
            4 * 32 * BLOCK_BYTES
            + 4 * 24 * INDEX_ENTRY_BYTES
            + 128 * BLOCK_BYTES
        )
        assert config.on_chip_bytes == expected

    def test_paper_scale_budgets(self):
        """At paper-like parameters the on-chip budget is ~16 KB while
        meta-data is tens of MB."""
        config = StmsConfig(
            cores=4,
            history_entries=6_710_886,  # ~32 MB aggregate at 5 B/entry
            index_buckets=262_144,      # 16 MB of 64-B buckets
        )
        assert config.on_chip_bytes < 20 * 1024
        assert config.metadata_bytes > 40 * 1024 * 1024


class TestCopyHelpers:
    def test_with_sampling(self):
        config = StmsConfig().with_sampling(0.5)
        assert config.sampling_probability == 0.5
        assert config.history_entries == StmsConfig().history_entries

    def test_with_history(self):
        assert StmsConfig().with_history(4096).history_entries == 4096

    def test_with_index(self):
        assert StmsConfig().with_index(512).index_buckets == 512

    def test_annotation_flag(self):
        config = StmsConfig(annotate_stream_ends=False)
        assert not config.annotate_stream_ends
