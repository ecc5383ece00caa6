"""Zone store tests: grouping, mapping, victim choice, watermark GC, OP math.

GC-facing expectations are cross-checked with shadow bookkeeping (dicts of
expected mappings and payloads maintained by the test itself) rather than by
re-deriving values from the store under test.
"""

import mmap
import random
from types import SimpleNamespace

import pytest

from helpers import device_buffers
from zonecache import (DeviceConfig, DropVerb, ZnsDevice, ZoneStore,
                       compute_min_op, errors, memory, watermark_zones)
from zonecache import zstorage as zstorage_module
from zonecache.zcache import Policy, RegionCache
from zonecache.zstorage import GcStats

KIB = 1024
MIB = 1024 * KIB


def make_store(zone_count=8, zone_capacity=64 * KIB, region_size=32 * KIB,
               w_low=25.0, w_high=50.0, min_write=2):
    dev = ZnsDevice(DeviceConfig(zone_count=zone_count,
                                 zone_capacity=zone_capacity,
                                 max_open_zones=zone_count))
    store = ZoneStore(dev, region_size, w_low, w_high,
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
    # physical 1048576, and it is the only region mapped in zone 1
    dev, store = make_store(zone_count=4, zone_capacity=1 * MIB,
                            region_size=128 * KIB)
    store.write_region(0, payload(0, 128 * KIB))
    paddr = store.write_region(131072, payload(1, 128 * KIB))
    assert paddr == 1048576
    assert store.forward[131072] == 1048576
    assert [v for v, p in store.forward.items()
            if p // MIB == 1] == [131072]
    assert store.valid_bytes[1] == 128 * KIB


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
    assert store.write_region(0, payload(1)) == 0  # mapped at address 0
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
    with pytest.raises(errors.GcStalled):
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
    # zones of four regions: rewrites leave holes in zones that still hold
    # live regions (a rewrite that empties a full zone resets it)
    dev, store = make_store(zone_capacity=128 * KIB)
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
    # zones of eight regions and one write zone: the victim holds several
    # live regions, where a rewrite would reset a zone of two it emptied
    dev, store = make_store(zone_capacity=256 * KIB, min_write=1)
    drain_to_trigger(store)
    victim = store.select_victim()
    cap = store.device.config.zone_capacity
    # a zone is append-only, so address order is append order
    expected = sorted((v for v in store.forward
                       if store.forward[v] // cap == victim),
                      key=store.forward.get)
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
    with pytest.raises(errors.GcStalled) as exc:
        store.gc_cycle(migrate_all)
    assert "no victim available" in str(exc.value)


def test_gc_unknown_drop_verb_is_a_program_fault():
    # a filter is code, not input: an answer other than a DropVerb is a bug
    dev, store = make_store()
    drain_to_trigger(store)
    with pytest.raises(RuntimeError, match="drop filter returned None"):
        store.gc_cycle(lambda vaddr: None)


def test_gc_refuses_to_reset_a_victim_another_region_maps_into():
    # the check before a reset reads the whole map, not only the regions
    # the victim held: one mapped into it behind the filter's back stops it
    dev, store = make_store()
    drain_to_trigger(store)
    stray = max(store.forward) + store.region_size
    victims = []

    def alias_then_drop(vaddr):
        if not victims:
            victims.append(store.zone_of(vaddr))
            store.forward[stray] = store.forward[vaddr]
        return DropVerb.DROP

    with pytest.raises(RuntimeError) as exc:
        store.gc_cycle(alias_then_drop)
    assert str(exc.value) == (
        f"zone {victims[0]} still holds mapped regions after cleaning")
    assert dev.write_pointer(victims[0]) == dev.config.zone_capacity


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

    def counting_pick(*args):
        victims.append(pick(*args))
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


def test_gc_migration_moves_buffers_that_stay_intact_after_reuse():
    # every region is written through its address's buffer, and GC moves
    # it without a copy; after each cycle, overwriting the buffer of every
    # unmapped address must leave every live region as written, and the
    # device charges each move as a read plus an append of the region
    dev, store = make_store()
    shadow = {}
    rng = random.Random(5)
    vaddrs = [i * store.region_size for i in range(6)]
    checked = written = cycles = 0   # bytes the shadow checks read
    for step in range(240):
        addr = rng.choice(vaddrs)
        if addr in shadow:  # evicted, and most often written again
            store.invalidate_region(addr)
            del shadow[addr]
            if rng.random() < 0.1:
                continue
        buf, _ = store.region_buffer(addr)
        buf[:] = shadow[addr] = payload(step)
        store.write_region(addr, buf)
        written += 1
        if store.gc_needed():
            stats = store.gc_cycle(migrate_all)
            cycles += stats.migrated_regions > 0
            for vaddr in vaddrs:
                if vaddr not in shadow:
                    store.region_buffer(vaddr)[0][:] = b"\xee" * store.region_size
            counters = dev.counters
            assert counters.total_read_bytes == store.migrated_bytes + checked
            assert counters.total_appended_bytes == \
                written * store.region_size + store.migrated_bytes
            for vaddr, data in shadow.items():
                assert store.read_region(vaddr) == data
                checked += store.region_size
    assert cycles > 1


class StopCleaning(Exception):
    pass


def test_deallocated_buffers_are_reused_without_touching_live_regions():
    # random writes, invalidations and migrating GC cycles, some stopped
    # part way through a victim. Every write goes through its address's
    # one buffer and overwrites it whole, so a buffer the device still
    # held at an address its region left would change there, or change a
    # live region; each address a region left reads as unmapped until its
    # zone resets
    dev, store = make_store(zone_count=16, zone_capacity=128 * KIB,
                            w_low=12.5, w_high=25.0)
    cap, size = dev.config.zone_capacity, store.region_size
    rng = random.Random(7)
    vaddrs = [i * size for i in range(36)]
    shadow = {}
    left = set()  # addresses a stopped victim's moved regions left
    stops = 0
    device_reset = dev.reset

    def reset(zone):
        left.difference_update([a for a in left if a // cap == zone])
        device_reset(zone)
    dev.reset = reset

    def resets_its_zone(vaddr):
        """Whether invalidating `vaddr` drops a full zone's last region,
        which resets the zone (the eager-reset tests cover that case)."""
        zone = dev._zones[store.forward[vaddr] // cap]
        return (zone.write_pointer == cap
                and sum(buf is not None for buf in zone.chunks) == 1)

    def migrate(stop):
        """A filter that migrates every region; with `stop`, it stops the
        cycle at a victim's second region instead. `moved` holds the
        addresses the current victim's regions left."""
        def decide(vaddr):
            paddr = store.forward[vaddr]
            if moved and min(moved) // cap != paddr // cap:
                moved.clear()  # the last victim was reset
            elif moved and stop:
                raise StopCleaning
            moved.append(paddr)
            return DropVerb.MIGRATE
        moved = []
        return decide, moved

    for step in range(600):
        unmapped = [v for v in vaddrs if v not in shadow]
        # an invalidation leaves its zone holding a region, so the freed
        # range stays below the write pointer and reads as unmapped
        mapped = [v for v in sorted(shadow) if not resets_its_zone(v)]
        if unmapped and (not mapped or rng.random() < 0.6):
            vaddr = rng.choice(unmapped)
            buf, _ = store.region_buffer(vaddr)
            buf[:] = shadow[vaddr] = step.to_bytes(4, "little") * (size // 4)
            store.write_region(vaddr, buf)
        else:
            vaddr = rng.choice(mapped)
            paddr = store.forward[vaddr]
            store.invalidate_region(vaddr)
            del shadow[vaddr]
            with pytest.raises(errors.Unmapped):
                dev.read(paddr, size)
            with pytest.raises(errors.Unmapped):
                dev.read(paddr + 100, 100)
        if store.gc_needed() and (not left or rng.random() < 0.3):
            decide, moved = migrate(stop=rng.random() < 0.5)
            try:
                store.gc_cycle(decide)
            except StopCleaning:
                left.update(moved)
                stops += 1
        for vaddr, data in shadow.items():
            assert store.read_region(vaddr) == data, f"step {step}"
        for addr in left:
            with pytest.raises(errors.Unmapped):
                dev.read(addr, size)
    assert stops > 0
    assert store.gc_log


# --- eager resets ---------------------------------------------------------------------

def test_rewrite_frees_the_old_copy_at_once():
    # the copy a rewrite replaces is deallocated as the new one maps: its
    # address reads as unmapped, and the device holds only the new copy
    dev, store = make_store()
    buf, _ = store.region_buffer(0)
    buf[:] = payload(1)
    store.write_region(0, buf)
    old = store.forward[0]
    new = payload(2)
    store.write_region(0, new)
    with pytest.raises(errors.Unmapped):
        dev.read(old, store.region_size)
    assert device_buffers(dev) == {id(new)}
    assert store.read_region(0) == payload(2)


def assert_reset(dev, store, zone, resets):
    assert dev.write_pointer(zone) == 0
    assert zone in store.empty_zones
    assert dev.counters.total_resets == resets + 1


def test_full_zone_is_reset_when_its_last_region_is_invalidated():
    dev, store = make_store(min_write=1)
    kept = fill_read_zones(store, [(0, 1), (1, 1)])
    resets = dev.counters.total_resets
    store.invalidate_region(kept[0][0])
    assert_reset(dev, store, 0, resets)
    assert store.read_zones == [1]
    assert store.read_region(kept[1][0]) == payload(kept[1][0] // (32 * KIB))


def test_full_zone_is_reset_when_its_last_region_is_rewritten_elsewhere():
    dev, store = make_store(min_write=1)
    kept = fill_read_zones(store, [(0, 1)])
    resets = dev.counters.total_resets
    store.write_region(kept[0][0], payload(9))
    assert store.zone_of(kept[0][0]) == 1
    assert_reset(dev, store, 0, resets)
    assert store.read_region(kept[0][0]) == payload(9)


def test_write_zone_emptied_of_regions_stays_in_the_rotation():
    dev, store = make_store()  # write zones 0 and 1, two regions each
    store.write_region(0, payload(0))
    store.invalidate_region(0)
    assert dev.write_pointer(0) == store.region_size
    assert store.groups() == ([2, 3, 4, 5, 6, 7], [0, 1], set())
    assert dev.counters.total_resets == 0
    assert store.write_region(32 * KIB, payload(1)) == 64 * KIB
    assert store.write_region(64 * KIB, payload(2)) == store.region_size


def test_zones_of_one_region_never_need_gc():
    # every full zone holds one live region, since a zone whose region
    # leaves resets at once: cleaning could never gain a zone, so even
    # with no zone empty the store does not ask for it
    dev, store = make_store(zone_count=4, zone_capacity=32 * KIB, min_write=1)
    for i in range(4):
        store.write_region(i * 32 * KIB, payload(i))
    assert store.empty_zones == [] and store.gc_trigger_zones == 1
    assert not store.gc_needed()
    assert store.gc_cycle(migrate_all) == GcStats() and not store.gc_log
    store.invalidate_region(0)
    assert_reset(dev, store, 0, 0)


def test_stopped_victim_is_reset_when_its_last_mapped_region_goes():
    # a cycle stopped after one migration leaves the victim with that
    # region's range deallocated, since the copy moved its buffer; the
    # victim's last mapped region then goes, and the victim resets at once
    dev, store = make_store(zone_count=4, min_write=1)
    for i in range(7):  # zones 0-2 full, zone 3 open: no zone is empty
        store.write_region(i * 32 * KIB, payload(i))
    assert store.gc_needed()
    moved = []

    def migrate_one(vaddr):
        if moved:
            raise StopCleaning
        moved.append(store.forward[vaddr])
        return DropVerb.MIGRATE

    with pytest.raises(StopCleaning):
        store.gc_cycle(migrate_one)
    assert moved == [0] and store.zone_of(0) == 3
    with pytest.raises(errors.Unmapped):
        dev.read(0, store.region_size)
    resets = dev.counters.total_resets
    store.invalidate_region(32 * KIB)  # the victim's last mapped region
    assert_reset(dev, store, 0, resets)
    assert store.read_region(0) == payload(0)


# --- region buffers --------------------------------------------------------------------

def record_advice(monkeypatch, advice):
    """Map the store's buffers so that every advice on them is recorded;
    `advice` is "works", "off_linux" (no advice to give) or "fails"."""
    calls = []

    class RecordingMap(mmap.mmap):
        def madvise(self, *args):
            calls.append(args)
            if advice == "fails":
                raise OSError(22, "Invalid argument")

    monkeypatch.setattr(memory, "POPULATE_WRITE",
                        None if advice == "off_linux" else 23)
    monkeypatch.setattr(zstorage_module, "mmap", SimpleNamespace(
        mmap=RecordingMap, MAP_PRIVATE=mmap.MAP_PRIVATE))
    return calls


def fill_in_steps(buf, fault, tag):
    """Fill a lent buffer 4 KiB at a time, calling its fault-in for each
    step first unless it was lent with None, as the cache does; returns
    the bytes written."""
    for start in range(0, len(buf), 4 * KIB):
        if fault is not None:
            fault(start, 4 * KIB)
        buf[start:start + 4 * KIB] = bytes([tag + start // KIB]) * 4 * KIB
    return bytes(buf)


STEPS = [(23, start, 4 * KIB) for start in range(0, 32 * KIB, 4 * KIB)]


@pytest.mark.parametrize("advice", ["works", "off_linux", "fails"])
def test_region_buffers_are_faulted_in_on_the_first_lend_only(
        monkeypatch, advice):
    # an address's buffer is faulted in only as its first borrower asks,
    # and lent with None from then on; the bytes are the same when the
    # advice is missing or raises, and a failed advice is not retried
    calls = record_advice(monkeypatch, advice)
    dev, store = make_store()
    buf, fault = store.region_buffer(0)
    assert fault is not None
    assert calls == []                         # lending faults nothing in
    first = fill_in_steps(buf, fault, 1)
    store.write_region(0, buf)
    store.write_region(32 * KIB, payload(9))   # no buffer of the store's
    asked = {"works": STEPS, "off_linux": [], "fails": STEPS[:1]}[advice]
    assert calls == asked
    assert store.read_region(0) == first
    store.invalidate_region(0)
    again, fault = store.region_buffer(0)
    assert again is buf and fault is None
    want = fill_in_steps(again, fault, 101)
    assert want != first
    store.write_region(0, again)
    assert store.read_region(0) == want
    assert store.read_region(32 * KIB) == payload(9)
    assert calls == asked


def evict(store):
    store.invalidate_region(0)


def gc_cycle_that(verb):
    """Leave region 0 by GC: zones 0-2 full, zone 3 open, and zone 0 holds
    region 0 alone, so it is the first victim; region 0 meets `verb`, the
    rest are dropped, and a migrated region 0 is evicted after."""
    def leave(store):
        for i in range(1, 7):
            store.write_region(i * 32 * KIB, payload(i))
        store.invalidate_region(32 * KIB)
        assert store.gc_needed() and store.select_victim() == 0
        store.gc_cycle(lambda vaddr: verb if vaddr == 0 else DropVerb.DROP)
        if verb is DropVerb.MIGRATE:
            assert store.read_region(0) == bytes(store.buffers[0])
            evict(store)
        assert 0 not in store.forward
    return leave


@pytest.mark.parametrize("leave", [
    evict, gc_cycle_that(DropVerb.DROP), gc_cycle_that(DropVerb.MIGRATE)],
    ids=["evicted", "dropped", "migrated"])
def test_a_region_buffer_is_lent_again_as_resident(monkeypatch, leave):
    # the buffer was faulted in by the fill that wrote it: however its
    # region left, the address's next lend returns it with no fault-in,
    # it fills with no advice, and it reads back
    calls = record_advice(monkeypatch, "works")
    dev, store = make_store(zone_count=4, min_write=1)
    buf, fault = store.region_buffer(0)
    fill_in_steps(buf, fault, 1)
    store.write_region(0, buf)
    leave(store)
    assert calls == STEPS
    assert id(buf) not in device_buffers(dev)
    again, fault = store.region_buffer(0)
    assert again is buf and fault is None
    want = fill_in_steps(again, fault, 101)
    store.write_region(0, again)
    assert calls == STEPS
    assert store.read_region(0) == want


def test_region_buffer_refuses_a_mapped_address():
    # the device holds a mapped region's buffer, wherever GC moved it, so
    # lending it for a write would change a live region
    dev, store = make_store(zone_count=4, min_write=1)
    buf, _ = store.region_buffer(0)
    buf[:] = payload(1)
    store.write_region(0, buf)
    for i in range(1, 7):
        store.write_region(i * 32 * KIB, payload(i + 1))
    store.invalidate_region(32 * KIB)
    with pytest.raises(RuntimeError, match="region 0 is mapped"):
        store.region_buffer(0)
    store.gc_cycle(lambda vaddr: DropVerb.MIGRATE if vaddr == 0
                   else DropVerb.DROP)
    assert store.zone_of(0) == 3
    with pytest.raises(RuntimeError, match="region 0 is mapped"):
        store.region_buffer(0)
    assert store.read_region(0) == payload(1)
    store.invalidate_region(0)
    assert store.region_buffer(0) == (buf, None)


def test_cache_buffer_written_after_flush_leaves_device_unchanged():
    # the flushed buffer becomes the device's and the cache fills a new
    # one, so writing into the cache's buffer cannot reach flushed data
    dev, store = make_store()
    cache = RegionCache(store, 4, store.region_size, Policy.LRU)
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
    # no two regions share an address, and every address is a region-aligned
    # slot below its zone's write pointer
    cap = store.device.config.zone_capacity
    paddrs = list(store.forward.values())
    assert len(set(paddrs)) == len(paddrs)
    for paddr in paddrs:
        assert paddr % store.region_size == 0
        assert paddr % cap < store.device.write_pointer(paddr // cap)


def check_groups(store):
    empty, write, read = store.groups()
    zones = list(range(store.zone_count))
    assert sorted(empty + write + list(read)) == zones
    cap = store.device.config.zone_capacity
    wp = store.device.write_pointer
    assert all(wp(z) == cap for z in read)
    assert all(wp(z) == 0 for z in empty)
    assert all(wp(z) < cap for z in write)
    mapped = {z: 0 for z in zones}
    for paddr in store.forward.values():
        mapped[paddr // cap] += 1
    assert store.valid_bytes == {z: n * store.region_size
                                 for z, n in mapped.items()}


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
            check_groups(store)
    check_bijection(store)
    check_groups(store)
    for addr, data in shadow.items():
        assert store.read_region(addr) == data
    assert set(store.forward) == set(shadow)


# --- victim choice against the rule read fresh ----------------------------------------

def fresh_victim(store):
    """The victim rule read fresh from the device and the map: among zones
    at capacity, fewest valid bytes, then lowest id."""
    dev = store.device
    cap = dev.config.zone_capacity
    mapped = [paddr // cap for paddr in store.forward.values()]
    full = [z for z in range(store.zone_count) if dev.write_pointer(z) == cap]
    return min(full, key=lambda z: (mapped.count(z), z))


def churn_with_checked_picks(store, seed, vaddr_count, steps=400):
    """Random writes and invalidations with migrate-all GC. Each pick is
    checked against `fresh_victim` as GC makes it, and each cycle must end
    at or above the stop target by a fresh count. Returns how many picks
    came after migrations had filled a zone that was a write zone when the
    cycle began (only migrations append inside a cycle)."""
    pick = store.select_victim
    began = []           # the write zones when the running cycle began
    filled_picks = 0

    def checked(*args):
        nonlocal filled_picks
        assert len(store.empty_zones) < store.gc_stop_zones
        expected = fresh_victim(store)
        victim = pick(*args)
        assert victim == expected
        cap = store.device.config.zone_capacity
        filled_picks += any(store.device.write_pointer(z) == cap
                            for z in began)
        return victim
    store.select_victim = checked

    rng = random.Random(seed)
    vaddrs = [i * store.region_size for i in range(vaddr_count)]
    for step in range(steps):
        addr = rng.choice(vaddrs)
        if rng.random() < 0.70 or addr not in store.forward:
            store.write_region(addr, payload(step))
        else:
            store.invalidate_region(addr)
        if store.gc_needed():
            began[:] = store.write_zones
            store.gc_cycle(migrate_all)
            assert store.gc_log[-1][1] == len(store.empty_zones)
            assert len(store.empty_zones) >= store.gc_stop_zones
    assert store.gc_log
    return filled_picks


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_each_victim_is_the_fresh_pick_under_random_ops(seed):
    # zones of four regions and twice as many addresses as a zone holds
    # regions: an invalidation seldom empties a full zone, so GC runs
    dev, store = make_store(zone_count=12, zone_capacity=128 * KIB)
    churn_with_checked_picks(store, seed, vaddr_count=20)


def test_each_victim_is_the_fresh_pick_after_migrations_fill_a_write_zone():
    # one write zone and few live regions: inside a cycle, migrations fill
    # the write zone that was open when it began, and the cycle picks again
    dev, store = make_store(min_write=1)
    assert churn_with_checked_picks(store, 1, vaddr_count=8) > 0


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
