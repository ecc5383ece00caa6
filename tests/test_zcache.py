"""Region cache tests: packing, policies, vop partition, reorder, drop filter.

A FakeStore stands in for the zone store so tests can script exactly which
zone each region appears to live in and count the writes the cache issues.
"""

import random

import pytest

from zonecache import errors, memory
from zonecache.zcache import FAULT_STEP, Policy, RegionCache
from zonecache.zstorage import DropVerb

RS = 1024  # region size used throughout


class FakeStore:
    def __init__(self, zone_script=None):
        self.data = {}
        self.zone_script = zone_script or {}
        self.write_calls = []

    def region_buffer(self, vaddr):
        return bytearray(RS), None  # RAM needs no faulting in

    def write_region(self, vaddr, payload):
        self.data[vaddr] = bytes(payload)
        self.write_calls.append((vaddr, len(payload)))

    def read_region(self, vaddr, offset=0, length=None):
        blob = self.data[vaddr]
        if length is None:
            length = len(blob) - offset
        return blob[offset:offset + length]

    def invalidate_region(self, vaddr):
        del self.data[vaddr]

    def zone_of(self, vaddr):
        if vaddr in self.zone_script:
            return self.zone_script[vaddr]
        return 0 if vaddr in self.data else None


def make_cache(capacity=4, policy=Policy.ZLRU, vop_ratio=1.0, reorder=True,
               store=None):
    store = store or FakeStore()
    return RegionCache(store, capacity, RS, policy, vop_ratio, reorder), store


def val(tag, size):
    return bytes([tag % 256]) * size


# --- config and region lifecycle ---------------------------------------------------

def test_config_validation():
    for kwargs in (dict(capacity_regions=0),
                   dict(capacity_regions=4, region_size=0),
                   dict(capacity_regions=4, vop_ratio=1.5),
                   dict(capacity_regions=4, vop_ratio=-0.1)):
        with pytest.raises(errors.InvalidConfig):
            RegionCache(FakeStore(), **kwargs)


# --- packing ------------------------------------------------------------------------

def test_items_pack_until_region_fills():
    cache, store = make_cache()
    for tag in range(3):
        cache.insert(f"k{tag}", val(tag, 300))
    assert store.write_calls == []         # 900 of 1024 used, still buffering
    cache.insert("k3", val(3, 300))        # does not fit: one flush expected
    assert len(store.write_calls) == 1
    vaddr, size = store.write_calls[0]
    assert size == RS                      # fixed-width write, padding included
    flushed = store.data[vaddr]
    assert flushed[0:300] == val(0, 300)
    assert flushed[300:600] == val(1, 300)
    assert flushed[600:900] == val(2, 300)


def test_buffered_items_hit_from_ram():
    cache, store = make_cache()
    cache.insert("k", val(7, 128))
    assert store.write_calls == []
    assert cache.lookup("k") == val(7, 128)
    assert cache.hit_count == 1


def test_flushed_items_hit_from_store():
    cache, store = make_cache()
    cache.insert("a", val(1, 600))
    cache.insert("b", val(2, 600))  # flushes the region holding "a"
    assert cache.lookup("a") == val(1, 600)
    assert cache.lookup("nope") is None
    assert (cache.hit_count, cache.miss_count) == (1, 1)


def test_same_key_reinsert_supersedes():
    cache, store = make_cache()
    cache.insert("k", val(1, 400))
    cache.insert("k", val(2, 400))
    assert cache.lookup("k") == val(2, 400)
    cache.insert("pad", val(3, 600))  # flush; only the new copy is live
    assert cache.lookup("k") == val(2, 400)


def test_oversized_item_rejected():
    cache, _ = make_cache()
    with pytest.raises(errors.ContractError,
                       match=f"{RS + 1} bytes exceeds region size {RS}"):
        cache.insert("big", val(0, RS + 1))


class FaultedBuffer:
    """A region buffer that only accepts writes to its faulted-in prefix."""

    def __init__(self, size):
        self.data, self.faulted = bytearray(size), 0

    def __len__(self):
        return len(self.data)

    def __getitem__(self, key):
        return self.data[key]

    def __setitem__(self, key, value):
        assert key.stop <= self.faulted, "write past the faulted-in mark"
        self.data[key] = value

    def __bytes__(self):
        return bytes(self.data)


class FaultRecordingStore(FakeStore):
    """Lends buffers that are all fresh, or all faulted in already, and
    lends each fresh one with a fault-in that records every request,
    checking it against the fill: each region's requests start at 0, are
    contiguous and step-aligned, and stop at the step holding the fill's
    end."""

    def __init__(self, region_size, fresh=True):
        super().__init__()
        self.region_size = region_size
        self.fresh = fresh
        self.requests = {}  # vaddr -> [(start, length)] for its last buffer

    def region_buffer(self, vaddr):
        asked = self.requests[vaddr] = []
        buffer = FaultedBuffer(self.region_size)
        if not self.fresh:
            buffer.faulted = self.region_size
            return buffer, None

        def fault_in(start, length):
            assert start == len(asked) * FAULT_STEP       # from 0, contiguous, aligned
            assert length == min(FAULT_STEP, self.region_size - start)
            asked.append((start, length))
            buffer.faulted = start + length
        return buffer, fault_in


def test_fault_step_is_whole_pages():
    # the stores advise memory a page at a time, from step boundaries
    assert FAULT_STEP > 0 and FAULT_STEP % memory.PAGE == 0


def test_region_buffers_are_faulted_in_step_by_step_ahead_of_the_fill():
    # a region of 4.5 steps; items from a few KiB to 2.5 steps, some ending
    # exactly on a step boundary, so one insert may ask for several steps
    region = 4 * FAULT_STEP + FAULT_STEP // 2
    store = FaultRecordingStore(region)
    cache = RegionCache(store, 3, region, Policy.LRU)
    rng = random.Random(3)
    sizes = [FAULT_STEP, FAULT_STEP // 4, 3 * FAULT_STEP // 4, 5 * FAULT_STEP // 2]
    sizes += [rng.randrange(1, 700 * 1024) for _ in range(60)]
    filled = 0
    for i, size in enumerate(sizes):
        if filled + size > region:
            filled = 0  # this insert flushes the region and opens the next
        cache.insert(f"k{i}", val(i, size))
        filled += size
        asked = store.requests[cache.vaddr(cache._buffered)]
        # the steps asked for are exactly those the fill has reached
        assert len(asked) == -(-filled // FAULT_STEP), i
    assert len(store.write_calls) >= 6
    for i, size in enumerate(sizes):
        got = cache.lookup(f"k{i}")
        assert got is None or got == val(i, size)


def test_a_resident_buffer_is_filled_with_no_fault_in():
    # its memory was faulted in by the fill that first wrote it
    region = 4 * FAULT_STEP + FAULT_STEP // 2
    store = FaultRecordingStore(region, fresh=False)
    cache = RegionCache(store, 3, region, Policy.LRU)
    size = 3 * FAULT_STEP // 4
    for i in range(14):  # six items fill a region; the seventh flushes it
        cache.insert(f"k{i}", val(i, size))
    assert len(store.write_calls) == 2
    assert all(asked == [] for asked in store.requests.values())
    for i in range(14):
        assert cache.lookup(f"k{i}") == val(i, size)


# --- eviction policies ----------------------------------------------------------------

def flush_regions(cache, n, size=RS):
    """Inserts n+1 full-region items so regions 0..n-1 are Flushed."""
    for tag in range(n + 1):
        cache.insert(f"r{tag}", val(tag, size))
    return [f"r{tag}" for tag in range(n + 1)]


def test_lru_evicts_least_recently_used():
    cache, _ = make_cache(capacity=8, policy=Policy.LRU)
    flush_regions(cache, 3)               # flush order r0, r1, r2
    cache.lookup("r0")                    # r0 becomes most recent
    assert cache.evict_one() == 1         # r1 is now the stalest
    assert cache.lookup("r1") is None
    check_structure(cache)


def test_fifo_ignores_hits():
    cache, _ = make_cache(capacity=8, policy=Policy.FIFO)
    flush_regions(cache, 3)
    cache.lookup("r0")
    assert cache.evict_one() == 0         # insertion order rules
    assert cache.evict_one() == 1
    check_structure(cache)


def test_zlru_evicts_vop_tail_first():
    cache, _ = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=0.5,
                          reorder=False)
    flush_regions(cache, 4)
    # flush order r0..r3; half the list is demoted into vop
    assert len(cache.vop) == 2
    vop_tail = next(reversed(cache.vop))
    assert cache.evict_one() == vop_tail
    assert vop_tail == 0                  # oldest region sank to the vop tail


def test_empty_cache_has_nothing_to_evict():
    cache, _ = make_cache()
    with pytest.raises(errors.NothingToEvict):
        cache.evict_one()
    cache.insert("k", val(0, 10))         # buffered only, still nothing flushed
    with pytest.raises(errors.NothingToEvict):
        cache.evict_one()


def test_full_cache_insert_evicts_then_proceeds():
    cache, _ = make_cache(capacity=2, policy=Policy.ZLRU, vop_ratio=1.0,
                          reorder=False)
    flush_regions(cache, 2)               # both slots flushed, third buffering?
    # capacity 2: the third insert had to evict the vop tail (region 0)
    assert cache.evicted_region_count == 1
    assert cache.lookup("r0") is None
    assert cache.lookup("r1") == val(1, RS)


# --- vop partition dynamics --------------------------------------------------------------

def test_vop_hit_promotes_and_demotes_tail():
    cache, _ = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=0.5,
                          reorder=False)
    flush_regions(cache, 4)
    assert list(cache.main) == [3, 2]
    assert list(cache.vop) == [1, 0]
    assert cache.lookup("r0") == val(0, RS)   # vop region is still readable
    # r0 promoted to main head; main tail (2) demoted to keep the split
    assert list(cache.main) == [0, 3]
    assert list(cache.vop) == [2, 1]


def test_vop_ratio_one_keeps_everything_evictable():
    cache, _ = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=1.0,
                          reorder=False)
    flush_regions(cache, 3)
    assert len(cache.main) == 0
    assert len(cache.vop) == 3


def test_split_bound_holds_during_churn():
    cache, _ = make_cache(capacity=16, policy=Policy.ZLRU, vop_ratio=0.3,
                          reorder=False)
    rng = random.Random(5)
    for step in range(300):
        if rng.random() < 0.6:
            cache.insert(f"k{rng.randrange(30)}", val(step, RS))
        else:
            cache.lookup(f"k{rng.randrange(30)}")
        total = len(cache.main) + len(cache.vop)
        assert len(cache.vop) <= 0.3 * total + 1


# --- zone-aware reorder --------------------------------------------------------------------

def arrange(cache, main_zone, vop_zone):
    """White-box setup: regions leave the free slots for the given lists,
    head first, with their zones scripted through the fake store."""
    for rid, zone in {**main_zone, **vop_zone}.items():
        cache.free_slots.remove(rid)
        cache.store.zone_script[cache.vaddr(rid)] = zone
        cache.store.data[cache.vaddr(rid)] = b"\0" * RS
    cache.main.update(dict.fromkeys(main_zone))
    cache.vop.update(dict.fromkeys(vop_zone))
    check_structure(cache)


def test_reorder_sinks_regions_of_sparse_zones():
    # zone 1 holds one main region; zone 2 holds three. Average 2, so zone 1
    # is a candidate and its vop members (4 then 2, in list order) sink to
    # the tail keeping their relative order.
    cache, store = make_cache(capacity=16, policy=Policy.ZLRU, vop_ratio=0.5)
    arrange(cache,
            main_zone={10: 1, 11: 2, 12: 2, 13: 2},
            vop_zone={4: 1, 7: 2, 2: 1})
    moved = cache.zlru_reorder()
    assert moved == 2
    assert list(cache.vop) == [7, 4, 2]
    assert list(cache.main) == [10, 11, 12, 13]  # main untouched


def test_reorder_noop_when_zones_balanced():
    cache, store = make_cache(capacity=16, policy=Policy.ZLRU, vop_ratio=0.5)
    arrange(cache,
            main_zone={0: 1, 1: 1, 2: 2, 3: 2},
            vop_zone={4: 1, 5: 2})
    assert cache.zlru_reorder() == 0
    assert list(cache.vop) == [4, 5]


def test_reorder_noop_when_candidate_zone_has_no_vop_members():
    cache, store = make_cache(capacity=16, policy=Policy.ZLRU, vop_ratio=0.5)
    arrange(cache,
            main_zone={0: 1, 1: 2, 2: 2, 3: 2},
            vop_zone={4: 2, 5: 2})
    assert cache.zlru_reorder() == 0


def test_reorder_disabled_or_wrong_policy_moves_nothing():
    cache, store = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=0.5,
                              reorder=False)
    arrange(cache, main_zone={0: 1, 1: 2, 2: 2}, vop_zone={3: 1})
    assert cache.zlru_reorder() == 0
    lru, _ = make_cache(capacity=8, policy=Policy.LRU)
    assert lru.zlru_reorder() == 0


@pytest.mark.parametrize("vop_ratio", [1.0, 0.0])
def test_reorder_at_split_bounds_moves_nothing_and_asks_no_zone(vop_ratio):
    # at either bound one list is empty: an empty main averages 0, so no
    # zone is below it, and an empty vop has nothing to sink
    cache, store = make_cache(capacity=8, policy=Policy.ZLRU,
                              vop_ratio=vop_ratio, reorder=True)
    asked = []
    store.zone_of = asked.append
    flush_regions(cache, 5)
    cache.lookup("r1")
    cache.lookup("r3")
    before = list(cache.main), list(cache.vop)
    assert sorted(before[0] + before[1]) == [0, 1, 2, 3, 4]
    assert cache.zlru_reorder() == 0
    assert (list(cache.main), list(cache.vop)) == before
    assert asked == []
    check_structure(cache)


# --- drop filter -----------------------------------------------------------------------------

def test_zdrop_drops_vop_region_in_victim_zone():
    cache, store = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=0.5,
                              reorder=False)
    flush_regions(cache, 4)
    rid = next(reversed(cache.vop))
    key = f"r{rid}"
    verb = cache.zdrop_filter(cache.vaddr(rid))
    assert verb is DropVerb.DROP
    assert cache.lookup(key) is None                 # true eviction
    assert places(cache, rid) == ["free"]
    assert cache.dropped_region_count == 1


def test_zdrop_migrates_main_region_when_ratio_below_one():
    cache, store = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=0.5,
                              reorder=False)
    flush_regions(cache, 4)
    rid = next(iter(cache.main))
    assert cache.zdrop_filter(cache.vaddr(rid)) is DropVerb.MIGRATE
    assert places(cache, rid) == ["main"]


def test_zdrop_ratio_one_drops_every_flushed_region():
    # at ratio 1.0 a promotion into main is demoted straight back, so main
    # stays empty and the vop membership test alone drops every region
    cache, store = make_cache(capacity=8, policy=Policy.ZLRU, vop_ratio=1.0,
                              reorder=False)
    keys = flush_regions(cache, 4)
    for key in keys[:4]:
        assert cache.lookup(key) is not None
        assert len(cache.main) == 0
    for rid in list(cache.vop):
        assert cache.zdrop_filter(cache.vaddr(rid)) is DropVerb.DROP
    assert len(cache.vop) == 0
    assert cache.dropped_region_count == 4
    check_structure(cache)


# --- structural invariants under churn -----------------------------------------------------------

def places(cache, rid):
    """Every place that holds region `rid`: a region is buffered, in one
    of the recency lists, or free, and it is held in exactly one place."""
    held = []
    if rid == cache._buffered:
        held.append("buffered")
    held += ["main"] * (rid in cache.main) + ["vop"] * (rid in cache.vop)
    held += ["free"] * cache.free_slots.count(rid)
    return held


def check_structure(cache):
    for rid in range(cache.capacity_regions):
        assert len(places(cache, rid)) == 1, (rid, places(cache, rid))
        for key in cache.keys[rid]:
            assert cache.index[key][0] == rid
    for key, (rid, offset, size) in cache.index.items():
        assert places(cache, rid) != ["free"]
        assert key in cache.keys[rid]
        assert offset + size <= cache.region_size
        if rid == cache._buffered:
            assert offset + size <= cache._fill


@pytest.mark.parametrize("policy,vop_ratio",
                         [(Policy.FIFO, 0.0), (Policy.LRU, 0.0),
                          (Policy.ZLRU, 0.5), (Policy.ZLRU, 1.0)])
def test_structure_survives_random_churn(policy, vop_ratio):
    cache, store = make_cache(capacity=6, policy=policy, vop_ratio=vop_ratio,
                              reorder=False)
    rng = random.Random(13)
    live = {}
    for step in range(500):
        roll = rng.random()
        if roll < 0.55:
            key = f"k{rng.randrange(40)}"
            data = val(rng.randrange(256), rng.randrange(64, 512))
            cache.insert(key, data)
            live[key] = data
        elif roll < 0.9:
            key = f"k{rng.randrange(40)}"
            got = cache.lookup(key)
            if got is not None:
                assert got == live[key]  # stale hits are corruption
        else:
            try:
                cache.evict_one()
            except errors.NothingToEvict:
                pass
        check_structure(cache)


def test_zlru_with_zero_vop_matches_lru_hit_sequence():
    for seed in range(20):
        rng = random.Random(seed)
        script = [(rng.random() < 0.6, f"k{rng.randrange(25)}",
                   rng.randrange(32, 400)) for _ in range(200)]
        outcomes = []
        for policy in (Policy.LRU, Policy.ZLRU):
            cache, _ = make_cache(capacity=5, policy=policy, vop_ratio=0.0,
                                  reorder=False)
            seq = []
            for is_get, key, size in script:
                if is_get:
                    seq.append(cache.lookup(key) is not None)
                else:
                    cache.insert(key, val(1, size))
            outcomes.append(seq)
        assert outcomes[0] == outcomes[1], f"diverged on seed {seed}"
