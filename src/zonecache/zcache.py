"""Log-structured region cache.

Items are packed into a RAM buffer one region wide; full buffers are flushed
to the backing store with a single large write. The store lends each
region address its own buffer, the same one every time (the FTL's bytes
at that address, or the zone store's one buffer for it), with what faults
it in: `fault_in(start, length)` while some of it was never faulted in,
else None. The cache calls it `FAULT_STEP` (256 KiB) at a time as the
fill's end passes the faulted-in mark, so no single op pays for more than
a step and a region's unfilled tail is never touched. A buffer lent with
None was faulted in by the fill that first wrote it: that fill stopped
less than one item short of the region's end, so while no item is larger
than a step, and regions are whole steps or less than one, its steps
reached the end (a larger item could leave a tail that faults in a page
at a time on a later fill).

Flushed region ids live in two OrderedDicts, `main` and the tail-side
`vop`, each most recent first (the head is the first entry), which
eviction policies operate on:

  FIFO  insertion order, no movement on hit
  LRU   hit moves the region to the head
  ZLRU  LRU plus a tail-side "virtual over-provisioning" (vop) partition:
        regions there are marked evictable yet stay readable, hits promote
        them back, and a reorder pass sinks regions whose zones look like
        upcoming GC victims toward the evictable tail

Eviction is region-granular top-down (list tail), while the drop filter
gives GC a bottom-up path: regions in a victim zone that the policy deems
evictable are dropped in place instead of being migrated.

A region's state is where its id is held, and it is held in one place:
`_buffered` while it accepts items, `main` or `vop` once flushed, and
`free_slots` otherwise. `index` maps each live key to its region, offset
and size, and `keys[rid]` is the set of a region's live keys, so teardown
unindexes them. The cache runs on one thread, and GC calls the drop filter
between cache operations, so an eviction always completes before anything
else sees the region. The cache checks its settings once, in `__init__`,
and keeps them and its counters as plain attributes.
"""

from collections import Counter, OrderedDict
from enum import Enum

from . import errors
from .zstorage import DropVerb

MIB = 1024 * 1024
FAULT_STEP = 256 * 1024  # region buffer bytes faulted in ahead of the fill at a time


class Policy(Enum):
    FIFO = "fifo"
    LRU = "lru"
    ZLRU = "zlru"


class RegionCache:
    """Cache engine over a region store (zoned or FTL-backed)."""

    def __init__(self, store, capacity_regions, region_size=16 * MIB,
                 policy=Policy.ZLRU, vop_ratio=1.0, reorder_enabled=True):
        if capacity_regions < 1:
            raise errors.InvalidConfig("cache_capacity_regions must be >= 1")
        if region_size < 1:
            raise errors.InvalidConfig("region_size must be >= 1")
        if not 0.0 <= vop_ratio <= 1.0:
            raise errors.InvalidConfig("vop_ratio must be in [0, 1]")
        self.store = store
        self.capacity_regions = capacity_regions
        self.region_size = region_size
        self.policy = policy
        self.vop_ratio = vop_ratio
        self.reorder_enabled = reorder_enabled
        self.free_slots = list(range(capacity_regions))
        self.free_slots.reverse()  # pop() yields lowest id first
        self.main = OrderedDict()  # region ids, most recent first
        self.vop = OrderedDict()
        self.index = {}  # key -> (region id, offset, size)
        self.keys = [set() for _ in range(capacity_regions)]
        self._buffer = None  # the buffered region's, lent by the store
        self._buffered = None  # region id currently accepting items
        self._fill = 0  # bytes used in the buffer
        self._fault_in = None  # the buffer's fault-in, from the store
        self._faulted = 0  # bytes of the buffer faulted in, from its start
        self.hit_count = 0
        self.miss_count = 0
        self.inserted_bytes = 0
        self.flushed_count = 0
        self.evicted_region_count = 0
        self.dropped_region_count = 0

    def vaddr(self, rid) -> int:
        return rid * self.region_size

    # -- eviction list maintenance ----------------------------------------------

    def _rebalance(self):
        # single direction: demote the main tail until vop holds its
        # share, vop_ratio of the listed regions; only ZLRU keeps a vop
        if self.policy is not Policy.ZLRU:
            return
        main, vop, ratio = self.main, self.vop, self.vop_ratio
        while main and len(vop) < int(ratio * (len(main) + len(vop))):
            rid = main.popitem()[0]
            vop[rid] = None
            vop.move_to_end(rid, last=False)

    def zlru_reorder(self) -> int:
        """Sink vop regions whose zone is a likely GC victim to the vop tail.

        A zone is a candidate when it holds strictly fewer main-partition
        regions than the average over zones holding any listed region.
        Relative order among moved regions is preserved. Returns move count.
        """
        if not self.reorder_enabled or not self.main or not self.vop:
            return 0  # an empty main averages 0; an empty vop has nothing to sink
        zone = {rid: self.store.zone_of(self.vaddr(rid))
                for ids in (self.main, self.vop) for rid in ids}
        main_count = Counter(zone[rid] for rid in self.main)
        average = len(self.main) / len(set(zone.values()))
        moved = [rid for rid in self.vop if main_count[zone[rid]] < average]
        for rid in moved:  # head-first re-append keeps relative order
            self.vop.move_to_end(rid)
        return len(moved)

    # -- buffer and flush -------------------------------------------------------

    def _alloc_buffer(self):
        if not self.free_slots:
            self.evict_one()
        self._buffered = self.free_slots.pop()
        self._buffer, self._fault_in = self.store.region_buffer(
            self.vaddr(self._buffered))
        self._fill = 0
        self._faulted = 0 if self._fault_in else self.region_size

    def _flush(self):
        rid = self._buffered
        # fixed-width write, tail padding included; the store keeps the
        # buffer, and the next region is filled in its own
        self.store.write_region(self.vaddr(rid), self._buffer)
        self._buffer = None
        self.main[rid] = None
        self.main.move_to_end(rid, last=False)
        self._rebalance()
        self.flushed_count += 1
        self._buffered = None
        if self.policy is Policy.ZLRU:
            self.zlru_reorder()

    # -- cache interface -------------------------------------------------------

    def insert(self, key, value):
        size = len(value)
        if size > self.region_size:
            raise errors.ItemTooLarge(
                f"{size} bytes exceeds region size {self.region_size}")
        if self._buffered is None:
            self._alloc_buffer()
        elif self._fill + size > self.region_size:
            self._flush()
            self._alloc_buffer()
        offset = self._fill
        fill = self._fill = offset + size
        while self._faulted < fill:
            step = min(FAULT_STEP, self.region_size - self._faulted)
            self._fault_in(self._faulted, step)
            self._faulted += step
        self._buffer[offset:fill] = value
        rid, index, keys = self._buffered, self.index, self.keys
        old = index.get(key)
        if old is not None:
            # superseded copy: it is no longer live in its old region
            keys[old[0]].discard(key)
        keys[rid].add(key)
        index[key] = (rid, offset, size)
        self.inserted_bytes += size

    def lookup(self, key):
        entry = self.index.get(key)
        if entry is None:
            self.miss_count += 1
            return None
        rid, offset, size = entry
        if rid == self._buffered:
            data = bytes(self._buffer[offset:offset + size])
        else:  # teardown unindexes a region's keys, so it is flushed
            data = self.store.read_region(rid * self.region_size, offset, size)
            if self.policy is not Policy.FIFO:
                main, vop = self.main, self.vop
                if rid in vop:
                    del vop[rid]
                    main[rid] = None
                    main.move_to_end(rid, last=False)
                    self._rebalance()  # demotes main tail into vop head
                else:
                    main.move_to_end(rid, last=False)
        self.hit_count += 1
        return data

    def evict_one(self) -> int:
        """Top-down eviction of the least valuable flushed region: the vop
        tail, which only ZLRU fills, else the main tail."""
        ids = self.vop or self.main
        if not ids:
            raise errors.NothingToEvict("no flushed region to evict")
        rid = next(reversed(ids))
        self._teardown(rid, invalidate=True)
        self.evicted_region_count += 1
        return rid

    def _teardown(self, rid, invalidate):
        for key in self.keys[rid]:
            del self.index[key]
        self.keys[rid].clear()
        if invalidate:
            self.store.invalidate_region(self.vaddr(rid))
        del (self.vop if rid in self.vop else self.main)[rid]
        self.free_slots.append(rid)
        self._rebalance()

    def zdrop_filter(self, region_virtual_address) -> DropVerb:
        """Bottom-up eviction decision for one region in a GC victim zone.

        The store asks only about regions mapped in the victim, and each
        belongs to a flushed cache region. Evictable (vop) regions are torn
        down and dropped in place, and the store unmaps them after we
        return; the rest migrate.
        """
        rid = region_virtual_address // self.region_size
        if rid in self.vop:
            self._teardown(rid, invalidate=False)
            self.dropped_region_count += 1
            return DropVerb.DROP
        return DropVerb.MIGRATE
