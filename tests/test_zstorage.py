"""Zone store tests: grouping, mapping, victim choice, watermark GC, OP math.

GC-facing expectations are cross-checked with shadow bookkeeping (dicts of
expected mappings and payloads maintained by the test itself) rather than by
re-deriving values from the store under test.
"""

import random

import pytest

from zonecache import (DeviceConfig, DropVerb, GcConfig, ZnsDevice, ZoneStore,
                       compute_min_op, errors, watermark_zones)
from zonecache.zcache import CacheConfig, Policy, RegionCache

KIB = 1024
MIB = 1024 * KIB


def make_store(zone_count=8, zone_capacity=64 * KIB, region_size=32 * KIB,
               w_low=25.0, w_high=50.0, min_write=2):
    dev = ZnsDevice(DeviceConfig(zone_count=zone_count,
                                 zone_capacity=zone_capacity,
                                 max_open_zones=zone_count))
    store = ZoneStore(dev, region_size, GcConfig(w_low, w_high),
                      min_write_zones=min_write)
    return dev, store


def payload(tag, size=32 * KIB):
    return bytes([tag % 256]) * size


# --- construction ---------------------------------------------------------------

def test_region_size_must_divide_zone_capacity():
    dev = ZnsDevice(DeviceConfig(zone_count=4, zone_capacity=64 * KIB,
                                 max_open_zones=4))
    with pytest.raises(errors.InvalidConfig):
        ZoneStore(dev, 48 * KIB)


def test_write_zone_bounds_validated():
    dev = ZnsDevice(DeviceConfig(zone_count=4, zone_capacity=64 * KIB,
                                 max_open_zones=2))
    with pytest.raises(errors.InvalidConfig):
        ZoneStore(dev, 32 * KIB, min_write_zones=3)
    with pytest.raises(errors.InvalidConfig):
        ZoneStore(dev, 32 * KIB, min_write_zones=0)


# --- mapping --------------------------------------------------------------------

def test_second_region_lands_at_second_zone_start():
    # two rotating write zones, 1 MiB zones, 128 KiB regions: the second
    # write goes to the start of the second zone, so virtual 131072 maps to
    # physical 1048576 and the reverse entry mirrors it
    dev, store = make_store(zone_count=4, zone_capacity=1 * MIB,
                            region_size=128 * KIB)
    store.write_region(0, payload(0, 128 * KIB))
    paddr = store.write_region(131072, payload(1, 128 * KIB))
    assert paddr == 1048576
    assert store.forward[131072] == 1048576
    assert store.reverse[1][1048576] == 131072


def test_rewrite_decrements_previous_zone_stats():
    dev, store = make_store()
    store.write_region(0, payload(1))
    old_zone = store.zone_of(0)
    before = store.valid_bytes[old_zone]
    store.write_region(0, payload(2))  # second copy goes to the other zone
    assert store.valid_bytes[old_zone] == before - store.region_size
    assert store.zone_of(0) != old_zone
    assert store.read_region(0) == payload(2)


def test_round_robin_rotates_over_write_zones():
    dev, store = make_store(zone_capacity=128 * KIB)  # 4 regions per zone
    zones = [store.write_region(i * 32 * KIB, payload(i)) // (128 * KIB)
             for i in range(6)]
    assert zones == [0, 1, 0, 1, 0, 1]


def test_full_write_zone_retires_to_read_group():
    dev, store = make_store()  # 2 regions per zone, write zones 0 and 1
    for i in range(4):
        store.write_region(i * 32 * KIB, payload(i))
    empty, write, read = store.groups()
    assert read == {0, 1}
    assert write == [2]           # zone 2 joined mid-loop; refill is lazy
    assert empty == [3, 4, 5, 6, 7]
    # the next write replenishes the rotation from the empty group
    assert store.write_region(4 * 32 * KIB, payload(9)) // (64 * KIB) == 2
    assert store.groups()[1] == [2, 3]


def test_write_validation_errors():
    dev, store = make_store()
    with pytest.raises(errors.SizeMismatch):
        store.write_region(0, b"short")
    with pytest.raises(errors.Misaligned):
        store.write_region(1000, payload(0))


def test_exhaustion_raises_no_writable_zone():
    dev, store = make_store(zone_count=2, w_low=1.0, w_high=3.0)
    for i in range(4):  # 2 zones x 2 regions, all distinct addresses
        store.write_region(i * 32 * KIB, payload(i))
    with pytest.raises(errors.NoWritableZone):
        store.write_region(4 * 32 * KIB, payload(4))


def test_read_region_offsets_and_errors():
    dev, store = make_store()
    data = bytes(range(256)) * 128  # 32 KiB
    store.write_region(0, data)
    assert store.read_region(0) == data
    assert store.read_region(0, offset=100, length=50) == data[100:150]
    assert store.read_region(0, offset=32 * KIB - 1) == data[-1:]
    with pytest.raises(errors.UnmappedRegion):
        store.read_region(32 * KIB)


def test_invalidate_region_clears_stats_and_rejects_double_free():
    dev, store = make_store()
    store.write_region(0, payload(1))
    zone = store.zone_of(0)
    store.invalidate_region(0)
    assert store.valid_bytes[zone] == 0
    assert store.zone_of(0) is None
    with pytest.raises(errors.UnmappedRegion):
        store.invalidate_region(0)


# --- victim selection -------------------------------------------------------------

def fill_read_zones(store, zone_regions):
    """Writes regions so that each listed zone retires full, then invalidates
    all but the requested count. Returns vaddr lists per zone."""
    vaddr = 0
    kept = {}
    per_zone = store.device.config.zone_capacity // store.region_size
    for zone, keep in zone_regions:
        written = []
        for _ in range(per_zone):
            store.write_region(vaddr, payload(vaddr // store.region_size))
            written.append(vaddr)
            vaddr += store.region_size
        assert store.zone_of(written[0]) == zone
        for addr in written[keep:]:
            store.invalidate_region(addr)
        kept[zone] = written[:keep]
    return kept


def test_victim_is_lowest_valid_ratio():
    dev, store = make_store(min_write=1)  # zone order predictable
    fill_read_zones(store, [(0, 2), (1, 1), (2, 2)])
    assert store.select_victim() == 1


def test_victim_tie_breaks_on_zone_id():
    dev, store = make_store(min_write=1)
    fill_read_zones(store, [(0, 1), (1, 1)])
    assert store.select_victim() == 0


def test_no_victim_without_read_zones():
    dev, store = make_store()
    with pytest.raises(errors.NoVictimAvailable):
        store.select_victim()


# --- watermarks --------------------------------------------------------------------

def test_watermark_thresholds_for_large_device():
    assert watermark_zones(1, 904) == 10
    assert watermark_zones(3, 904) == 28


def test_watermark_is_exact_on_whole_percent():
    # 3% of 100 is exactly 3; float rounding must not bump it to 4
    assert watermark_zones(3.0, 100) == 3
    assert watermark_zones(1.0, 100) == 1
    assert watermark_zones(0.5, 1000) == 5


def test_store_exposes_trigger_and_stop_counts():
    dev, store = make_store(w_low=25.0, w_high=50.0)
    assert store.gc_trigger_zones == 2
    assert store.gc_stop_zones == 4
    assert not store.gc_needed()  # 8 empty minus 2 write zones = 6 left


# --- gc cycles ----------------------------------------------------------------------

def migrate_all(vaddr):
    return DropVerb.MIGRATE


def drop_all(vaddr):
    return DropVerb.DROP


def drain_to_trigger(store, start_vaddr=0):
    """Drives the empty group below the GC trigger, alternating fresh writes
    with rewrites so victim zones carry invalid holes GC can reclaim."""
    vaddr = start_vaddr
    written = []
    step = 0
    while not store.gc_needed():
        if step % 2 == 0 or len(written) < 2:
            store.write_region(vaddr, payload(vaddr // store.region_size))
            written.append(vaddr)
            vaddr += store.region_size
        else:
            reuse = written[(step // 2) % len(written)]
            store.write_region(reuse, payload(step))
        step += 1
    return vaddr


def test_gc_noop_above_trigger():
    dev, store = make_store()
    store.write_region(0, payload(0))
    stats = store.gc_cycle(migrate_all)
    assert stats.reclaimed_zones == 0 and stats.migrated_bytes == 0
    assert store.gc_log == []


def test_gc_migrate_all_restores_high_watermark():
    dev, store = make_store()
    shadow = {}
    vaddr = 0
    step = 0
    while not store.gc_needed():
        if step % 2 == 0 or len(shadow) < 2:
            addr, vaddr = vaddr, vaddr + store.region_size
        else:
            addr = (step // 2 % len(shadow)) * store.region_size
        shadow[addr] = payload(step)
        store.write_region(addr, shadow[addr])
        step += 1
    entry_empty = len(store.empty_zones)
    assert entry_empty < store.gc_trigger_zones
    stats = store.gc_cycle(migrate_all)
    assert len(store.empty_zones) >= store.gc_stop_zones
    assert stats.reclaimed_zones > 0
    assert stats.migrated_bytes == stats.migrated_regions * store.region_size
    assert store.gc_log == [(entry_empty, len(store.empty_zones))]
    for addr, data in shadow.items():  # mapping transparency after relocation
        assert store.read_region(addr) == data


def test_gc_drop_all_migrates_nothing():
    dev, store = make_store()
    vaddr = drain_to_trigger(store)
    mapped_before = len(store.forward)
    stats = store.gc_cycle(drop_all)
    assert stats.migrated_bytes == 0
    assert stats.dropped_regions > 0
    assert len(store.forward) == mapped_before - stats.dropped_regions
    assert len(store.empty_zones) >= store.gc_stop_zones


def test_gc_migration_keeps_victim_append_order():
    dev, store = make_store()
    drain_to_trigger(store)
    victim = store.select_victim()
    expected = list(store.reverse[victim].values())
    seen = []

    def spy(vaddr):
        seen.append(vaddr)
        return DropVerb.MIGRATE

    store.gc_cycle(spy)
    assert seen[:len(expected)] == expected


def test_gc_stalls_without_victims():
    # every non-empty zone is still a write zone, so nothing is reclaimable
    dev, store = make_store(zone_count=4, w_low=60.0, w_high=80.0)
    store.write_region(0, payload(0))
    assert store.gc_needed()
    with pytest.raises(errors.GcStalled):
        store.gc_cycle(migrate_all)


def test_gc_stalls_when_every_victim_is_fully_valid():
    # all-distinct writes leave no invalid holes: migrating reclaims exactly
    # as much space as it consumes, which must fail fast rather than loop
    dev, store = make_store()
    vaddr = 0
    while not store.gc_needed():
        store.write_region(vaddr, payload(vaddr // store.region_size))
        vaddr += store.region_size
    with pytest.raises(errors.GcStalled):
        store.gc_cycle(migrate_all)


def migrate_first_victims(store, n):
    """A filter that migrates every region of the first n victims GC picks
    and drops every region after that."""
    victims = []
    pick = store.select_victim

    def counting_pick():
        victims.append(pick())
        return victims[-1]
    store.select_victim = counting_pick

    def decide(vaddr):
        return DropVerb.MIGRATE if len(victims) <= n else DropVerb.DROP
    return decide


@pytest.mark.parametrize("stagnant_victims, stalls", [(9, False), (10, True)])
def test_gc_stall_bound_counts_stagnant_victims(stagnant_victims, stalls):
    # migrating a fully valid victim frees no net zone; 8 zones of 2 regions
    # allow max(8, 2) + 1 = 9 such victims, and GC recovers (each dropped
    # victim frees a zone) only if dropping starts within that bound
    dev, store = make_store()
    vaddr = 0
    while not store.gc_needed():
        store.write_region(vaddr, payload(vaddr // store.region_size))
        vaddr += store.region_size
    decide = migrate_first_victims(store, stagnant_victims)
    if stalls:
        with pytest.raises(errors.GcStalled):
            store.gc_cycle(decide)
    else:
        stats = store.gc_cycle(decide)
        assert stats.migrated_regions == 2 * stagnant_victims
        assert len(store.empty_zones) >= store.gc_stop_zones


def test_gc_accounting_identity():
    dev, store = make_store()
    rng = random.Random(11)
    vaddrs = [i * 32 * KIB for i in range(6)]
    steps = 300
    for step in range(steps):
        store.write_region(rng.choice(vaddrs), payload(step))
        if store.gc_needed():
            store.gc_cycle(migrate_all)
    assert dev.counters.total_appended_bytes == \
        steps * store.region_size + store.migrated_bytes


def test_gc_migration_shares_buffers_that_stay_intact_after_reuse():
    # regions are written in device buffers, and GC moves them by
    # reference; taking every freed buffer back out and overwriting it must
    # leave every live region as written, and the device charges each move
    # as a read plus an append of the region
    dev, store = make_store()
    seen = []
    shadow = {}
    rng = random.Random(5)

    def borrow(addr):
        buf = store.region_buffer(addr)
        fresh = not any(buf is old for old in seen)
        if fresh:
            seen.append(buf)
        return buf, fresh

    vaddrs = [i * store.region_size for i in range(6)]
    checked = 0          # bytes the shadow checks read
    for step in range(120):
        addr = rng.choice(vaddrs)
        buf, _ = borrow(addr)
        buf[:] = payload(step)
        shadow[addr] = bytes(buf)
        store.write_region(addr, buf)
        if store.gc_needed():
            stats = store.gc_cycle(migrate_all)
            assert stats.migrated_regions > 0
            while True:
                buf, fresh = borrow(addr)
                buf[:] = b"\xee" * store.region_size
                if fresh:
                    break
            counters = dev.counters
            assert counters.total_read_bytes == store.migrated_bytes + checked
            assert counters.total_appended_bytes == \
                (step + 1) * store.region_size + store.migrated_bytes
            for vaddr, data in shadow.items():
                assert store.read_region(vaddr) == data
                checked += store.region_size
    assert len(store.gc_log) > 0


def test_reclaim_invalid_read_zones_only_touches_dead_zones():
    dev, store = make_store(min_write=1)
    kept = fill_read_zones(store, [(0, 0), (1, 1), (2, 0)])
    reclaimed = store.reclaim_invalid_read_zones()
    assert reclaimed == 2
    empty, _, read = store.groups()
    assert 0 in empty and 2 in empty
    assert read == {1}
    assert store.read_region(kept[1][0]) == payload(kept[1][0] // (32 * KIB))


def test_cache_buffer_written_after_flush_leaves_device_unchanged():
    # the flushed buffer becomes the device's and the cache fills a new
    # one, so writing into the cache's buffer cannot reach flushed data
    dev, store = make_store()
    cache = RegionCache(CacheConfig(cache_capacity_regions=4,
                                    region_size=store.region_size,
                                    policy=Policy.LRU), store)
    for i in range(3):
        cache.insert(f"k{i}", payload(i, 20 * KIB))
    assert cache.flushed_count == 2
    flushed = {v: store.read_region(v) for v in store.forward}
    cache._buffer[:] = b"\xee" * store.region_size
    assert {v: store.read_region(v) for v in store.forward} == flushed
    assert cache.lookup("k0") == payload(0, 20 * KIB)
    assert cache.lookup("k1") == payload(1, 20 * KIB)


# --- map consistency under random interleavings ----------------------------------------

def check_bijection(store):
    seen = set()
    for zone, table in store.reverse.items():
        for paddr, vaddr in table.items():
            assert store.forward[vaddr] == paddr
            assert paddr // store.device.config.zone_capacity == zone
            seen.add(vaddr)
        assert store.valid_bytes[zone] == len(table) * store.region_size
    assert seen == set(store.forward)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_map_stays_bijective_under_random_ops(seed):
    dev, store = make_store(zone_count=12)
    rng = random.Random(seed)
    vaddrs = [i * 32 * KIB for i in range(10)]
    shadow = {}
    for step in range(400):
        addr = rng.choice(vaddrs)
        roll = rng.random()
        if roll < 0.70 or addr not in shadow:
            shadow[addr] = payload(rng.randrange(256))
            store.write_region(addr, shadow[addr])
        else:
            store.invalidate_region(addr)
            del shadow[addr]
        if store.gc_needed():
            store.gc_cycle(migrate_all)
        if step % 50 == 0:
            check_bijection(store)
    check_bijection(store)
    for addr, data in shadow.items():
        assert store.read_region(addr) == data
    assert set(store.forward) == set(shadow)


# --- over-provisioning calculator --------------------------------------------------------

def test_op_formula_reference_points():
    plan = compute_min_op(200, 600, 6)
    assert plan.r_op == pytest.approx(200 / 3400)
    assert 0.057 <= plan.r_op <= 0.060
    assert plan.r_invalid == pytest.approx(plan.r_op / (1 + plan.r_op))

    plan = compute_min_op(100, 1000, 1)
    assert plan.r_op == pytest.approx(100 / 900)


def test_op_infeasible_when_cleaning_cannot_keep_up():
    with pytest.raises(errors.InfeasibleRates):
        compute_min_op(600, 100, 1)
    with pytest.raises(errors.InfeasibleRates):
        compute_min_op(600, 600, 1)  # equality is still infeasible


def test_op_rejects_bad_inputs():
    with pytest.raises(errors.InvalidConfig):
        compute_min_op(0, 100, 1)
    with pytest.raises(errors.InvalidConfig):
        compute_min_op(100, -5, 2)
    with pytest.raises(errors.InvalidConfig):
        compute_min_op(100, 100, 0.5)
