"""Unit tests for block/address arithmetic and meta-data regions."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.address import (
    AddressSpace,
    Region,
    align_down,
    align_up,
    block_of,
    block_offset,
    block_to_address,
)
from repro.memory.config import BLOCK_BYTES, is_power_of_two


class TestBlockArithmetic:
    def test_block_of_start_of_block(self):
        assert block_of(0) == 0
        assert block_of(BLOCK_BYTES) == 1

    def test_block_of_mid_block(self):
        assert block_of(BLOCK_BYTES + 1) == 1
        assert block_of(2 * BLOCK_BYTES - 1) == 1

    def test_block_to_address_round_trip(self):
        for block in (0, 1, 17, 12345):
            assert block_of(block_to_address(block)) == block

    def test_block_of_rejects_negative(self):
        with pytest.raises(ValueError):
            block_of(-1)

    def test_block_to_address_rejects_negative(self):
        with pytest.raises(ValueError):
            block_to_address(-5)

    def test_block_offset(self):
        assert block_offset(0) == 0
        assert block_offset(BLOCK_BYTES + 7) == 7

    @given(st.integers(min_value=0, max_value=2**50))
    def test_block_decomposition_is_lossless(self, address):
        assert (
            block_to_address(block_of(address)) + block_offset(address)
            == address
        )


class TestAlignment:
    def test_align_up_exact(self):
        assert align_up(128, 64) == 128

    def test_align_up_rounds(self):
        assert align_up(129, 64) == 192

    def test_align_down(self):
        assert align_down(129, 64) == 128

    def test_align_rejects_bad_alignment(self):
        with pytest.raises(ValueError):
            align_up(10, 0)
        with pytest.raises(ValueError):
            align_down(10, -1)

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-8)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**6))
    def test_align_up_ge_value(self, value, alignment):
        aligned = align_up(value, alignment)
        assert aligned >= value
        assert aligned % alignment == 0
        assert aligned - value < alignment


class TestRegion:
    def test_basic_properties(self):
        region = Region(base=0, size=640)
        assert region.end == 640
        assert region.blocks == 10

    def test_contains(self):
        region = Region(base=64, size=128)
        assert region.contains(64)
        assert region.contains(191)
        assert not region.contains(63)
        assert not region.contains(192)

    def test_block_at(self):
        region = Region(base=128, size=256)
        assert region.block_at(0) == 2
        assert region.block_at(3) == 5
        with pytest.raises(IndexError):
            region.block_at(4)

    def test_rejects_unaligned_base(self):
        with pytest.raises(ValueError):
            Region(base=7, size=64)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Region(base=0, size=0)


class TestAddressSpace:
    def test_reserve_carves_from_top(self):
        space = AddressSpace(1024 * BLOCK_BYTES)
        region = space.reserve(64 * BLOCK_BYTES)
        assert region.end == 1024 * BLOCK_BYTES
        assert space.application_bytes == 960 * BLOCK_BYTES

    def test_multiple_reservations_stack_downward(self):
        space = AddressSpace(1024 * BLOCK_BYTES)
        first = space.reserve(BLOCK_BYTES)
        second = space.reserve(BLOCK_BYTES)
        assert second.end == first.base
        assert len(space.regions) == 2

    def test_metadata_block_classification(self):
        space = AddressSpace(1024 * BLOCK_BYTES)
        space.reserve(4 * BLOCK_BYTES)
        assert space.is_metadata_block(1023)
        assert space.is_metadata_block(1020)
        assert not space.is_metadata_block(1019)

    def test_reserve_exhaustion(self):
        space = AddressSpace(4 * BLOCK_BYTES)
        space.reserve(3 * BLOCK_BYTES)
        with pytest.raises(MemoryError):
            space.reserve(2 * BLOCK_BYTES)

    def test_size_rounded_to_blocks(self):
        space = AddressSpace(10 * BLOCK_BYTES + 13)
        assert space.total_bytes == 10 * BLOCK_BYTES

    def test_rejects_tiny_space(self):
        with pytest.raises(ValueError):
            AddressSpace(BLOCK_BYTES - 1)

    def test_reserve_rounds_up(self):
        space = AddressSpace(16 * BLOCK_BYTES)
        region = space.reserve(BLOCK_BYTES + 1)
        assert region.size == 2 * BLOCK_BYTES
