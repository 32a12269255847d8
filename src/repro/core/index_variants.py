"""Alternative index-table organizations (paper Sections 4.3 / 5.4).

The paper reports: "We examined many possible structures (e.g.,
red-black trees, open address hash tables, direct-mapped tables),
however these structures have unacceptable latency, bandwidth, or
storage characteristics" and "we performed an extensive analysis of
alternative organizations for the index table (e.g., open address
hashing, larger hash bucket chains, tree structures), and found that
these organizations were either less storage efficient or sacrificed
additional coverage due to increased lookup latency."

This module implements two of those rejected organizations with the same
interface as the single-block bucketized table, each reporting how many
*memory-block accesses* its operations require, so the design-space
trade can be measured rather than asserted:

* :class:`ChainedIndexTable` — buckets overflow into linked chains of
  64-byte blocks: never loses an entry, but a lookup may walk several
  blocks (extra round trips before prefetching can start).
* :class:`OpenAddressIndexTable` — one entry per 12-slot probe group,
  linear probing across groups: simple, but clustering makes both the
  probe length and the displacement behaviour degrade as load rises.

The bucketized design caps every lookup at exactly one block access by
sacrificing old entries (in-bucket LRU) — the paper's choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.codec import INDEX_ENTRIES_PER_BUCKET
from repro.core.history_buffer import HistoryPointer
from repro.core.index_table import _HASH_MULTIPLIER
from repro.memory.config import BLOCK_BYTES


@dataclass
class VariantStats:
    """Access accounting shared by all index organizations."""

    lookups: int = 0
    hits: int = 0
    #: Memory-block reads performed across all lookups.
    lookup_block_accesses: int = 0
    updates: int = 0
    #: Memory-block accesses performed across all updates (read+write).
    update_block_accesses: int = 0
    dropped_entries: int = 0

    @property
    def accesses_per_lookup(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.lookup_block_accesses / self.lookups

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class ChainedIndexTable:
    """Hash table whose buckets chain extra 64-byte blocks on overflow.

    Storage grows without bound (no aging), and a lookup touching a long
    chain pays one memory access per block walked — the latency the
    split-table STMS design cannot afford before its first prefetch.
    """

    def __init__(self, buckets: int) -> None:
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        self.buckets = buckets
        self.stats = VariantStats()
        # Each bucket: list of blocks; each block: up to 12 entries of
        # (address, pointer), newest block first.
        self._table: list[list[list[tuple[int, HistoryPointer]]]] = [
            [] for _ in range(buckets)
        ]

    def _bucket_of(self, block: int) -> int:
        return ((block * _HASH_MULTIPLIER) >> 11) % self.buckets

    def lookup(self, block: int) -> "HistoryPointer | None":
        self.stats.lookups += 1
        chain = self._table[self._bucket_of(block)]
        for chain_block in chain:
            self.stats.lookup_block_accesses += 1
            for address, pointer in chain_block:
                if address == block:
                    self.stats.hits += 1
                    return pointer
        if not chain:
            # An empty bucket still costs the initial block read.
            self.stats.lookup_block_accesses += 1
        return None

    def update(self, block: int, pointer: HistoryPointer) -> None:
        self.stats.updates += 1
        chain = self._table[self._bucket_of(block)]
        for depth, chain_block in enumerate(chain):
            self.stats.update_block_accesses += 1
            for i, (address, _) in enumerate(chain_block):
                if address == block:
                    chain_block[i] = (block, pointer)
                    self.stats.update_block_accesses += 1  # write back
                    return
        # Append to the newest block, or grow the chain.
        if chain and len(chain[0]) < INDEX_ENTRIES_PER_BUCKET:
            chain[0].append((block, pointer))
        else:
            chain.insert(0, [(block, pointer)])
        self.stats.update_block_accesses += 1  # write of modified block

    @property
    def storage_bytes(self) -> int:
        blocks = sum(
            max(1, len(chain)) for chain in self._table
        )
        return blocks * BLOCK_BYTES

    def max_chain_blocks(self) -> int:
        return max((len(chain) for chain in self._table), default=0)


class OpenAddressIndexTable:
    """Linear-probing open-address table over 12-entry probe groups.

    Bounded storage like the bucketized design, but displacement is
    global: when the probed neighbourhood is full, the *oldest entry in
    the final probe group* is overwritten, and failed lookups walk the
    full probe window.
    """

    def __init__(self, groups: int, probe_limit: int = 4) -> None:
        if groups <= 0:
            raise ValueError("groups must be positive")
        if probe_limit <= 0:
            raise ValueError("probe_limit must be positive")
        self.groups = groups
        self.probe_limit = probe_limit
        self.stats = VariantStats()
        self._table: list[list[tuple[int, HistoryPointer]]] = [
            [] for _ in range(groups)
        ]

    def _group_of(self, block: int) -> int:
        return ((block * _HASH_MULTIPLIER) >> 11) % self.groups

    def lookup(self, block: int) -> "HistoryPointer | None":
        self.stats.lookups += 1
        start = self._group_of(block)
        for probe in range(self.probe_limit):
            group = self._table[(start + probe) % self.groups]
            self.stats.lookup_block_accesses += 1
            for address, pointer in group:
                if address == block:
                    self.stats.hits += 1
                    return pointer
            if len(group) < INDEX_ENTRIES_PER_BUCKET:
                # An unfull group terminates the probe sequence.
                return None
        return None

    def update(self, block: int, pointer: HistoryPointer) -> None:
        self.stats.updates += 1
        start = self._group_of(block)
        for probe in range(self.probe_limit):
            index = (start + probe) % self.groups
            group = self._table[index]
            self.stats.update_block_accesses += 1
            for i, (address, _) in enumerate(group):
                if address == block:
                    group[i] = (block, pointer)
                    self.stats.update_block_accesses += 1
                    return
            if len(group) < INDEX_ENTRIES_PER_BUCKET:
                group.append((block, pointer))
                self.stats.update_block_accesses += 1
                return
        # Neighbourhood full: overwrite the oldest entry in the final
        # probed group (an approximation of global displacement).
        final = self._table[(start + self.probe_limit - 1) % self.groups]
        final.pop(0)
        final.append((block, pointer))
        self.stats.dropped_entries += 1
        self.stats.update_block_accesses += 1

    @property
    def storage_bytes(self) -> int:
        return self.groups * BLOCK_BYTES


@dataclass
class OrganizationComparison:
    """Result of driving several organizations with one event stream."""

    name: str
    accesses_per_lookup: float
    hit_rate: float
    storage_bytes: int
    dropped_entries: int = 0
    extra: dict = field(default_factory=dict)


def compare_organizations(
    events: "list[tuple[str, int, HistoryPointer | None]]",
    buckets: int,
) -> "list[OrganizationComparison]":
    """Drive bucketized / chained / open-address tables with one event
    stream (``("lookup", block, None)`` / ``("update", block, ptr)``).

    Returns per-organization access and storage statistics — the
    quantitative basis of the paper's §5.4 organization choice.
    """
    from repro.core.index_table import IndexTable

    bucketized = IndexTable(buckets=buckets)
    chained = ChainedIndexTable(buckets=buckets)
    open_address = OpenAddressIndexTable(groups=buckets)

    bucketized_lookups = 0
    bucketized_hits = 0
    for kind, block, pointer in events:
        if kind == "lookup":
            bucketized_lookups += 1
            if bucketized.lookup(block) is not None:
                bucketized_hits += 1
            chained.lookup(block)
            open_address.lookup(block)
        elif kind == "update":
            assert pointer is not None
            bucketized.update(block, pointer)
            chained.update(block, pointer)
            open_address.update(block, pointer)
        else:
            raise ValueError(f"unknown event kind {kind!r}")

    return [
        OrganizationComparison(
            name="bucketized (STMS)",
            accesses_per_lookup=1.0,
            hit_rate=(
                bucketized_hits / bucketized_lookups
                if bucketized_lookups
                else 0.0
            ),
            storage_bytes=buckets * BLOCK_BYTES,
            dropped_entries=bucketized.stats.replacements,
        ),
        OrganizationComparison(
            name="chained buckets",
            accesses_per_lookup=chained.stats.accesses_per_lookup,
            hit_rate=chained.stats.hit_rate,
            storage_bytes=chained.storage_bytes,
            extra={"max_chain_blocks": chained.max_chain_blocks()},
        ),
        OrganizationComparison(
            name="open addressing",
            accesses_per_lookup=open_address.stats.accesses_per_lookup,
            hit_rate=open_address.stats.hit_rate,
            storage_bytes=open_address.storage_bytes,
            dropped_entries=open_address.stats.dropped_entries,
        ),
    ]
