"""Scheme assembly tests.

Tiny geometries (8 zones x 32 KiB) keep runs fast; scripted runs go through
the helpers' `drive`, whose miss-fill convention is the experiment
runner's, and the golden-sized runs through `harness.drive` itself, so
hit/miss sequences are comparable across backends.
"""

import math

import pytest

from helpers import (GC_ZONES, KIB, MIB, device_buffers, drive, make_script,
                     tiny_spec)
from test_golden import CONFIGS as GOLDEN_CONFIGS, golden_stem
from zonecache import SchemeSpec, build, errors, harness, memory, wa_factor
from zonecache.harness import ExperimentConfig, run
from zonecache.schemes import _capacity_regions
from zonecache.zcache import FAULT_STEP, Policy
from zonecache.workload import (CacheOp, OpKind, generate, preset_spec,
                                value_bytes)


# --- build validation ---------------------------------------------------------

def test_unknown_scheme_rejected():
    with pytest.raises(errors.InvalidConfig):
        build(SchemeSpec(name="quantum-lru"))


def test_direct_requires_region_equal_to_zone():
    with pytest.raises(errors.InvalidConfig):
        build(tiny_spec("zns-direct", region_size=16 * KIB))


def test_reg_geometry_checks():
    with pytest.raises(errors.InvalidConfig):
        build(tiny_spec("reg-lru", region_size=15 * KIB))  # not page aligned
    with pytest.raises(errors.InvalidConfig):
        build(tiny_spec("reg-lru", pages_per_block=12))  # blocks don't tile device
    with pytest.raises(errors.InvalidConfig):
        build(tiny_spec("reg-lru", cache_capacity_regions=100))  # over exported


def test_region_size_defaults():
    mid = build(SchemeSpec(name="zns-middle-lru"))
    assert mid.store.region_size == 16 * MIB
    direct = build(SchemeSpec(name="zns-direct"))
    assert direct.store.region_size == direct.device.config.zone_capacity


def test_zcachelib_defaults():
    engine = build(SchemeSpec(name="zcachelib"))
    assert engine.cache.policy is Policy.ZLRU
    assert engine.cache.vop_ratio == 1.0
    assert engine.store.gc_trigger_zones == 1
    assert engine.store.gc_stop_zones == 2


def test_policies_and_vop_wiring():
    assert build(tiny_spec("zns-middle-fifo")).cache.policy is Policy.FIFO
    assert build(tiny_spec("zns-direct")).store.min_write_zones == 1
    # every spec here carries vop_ratio 1.0; only a ZLRU cache splits its
    # flushed regions into main and vop
    script = make_script(seed=3, ops=200)
    for name in ("zcachelib", "zns-middle-lru", "zns-middle-fifo", "reg-lru"):
        engine = build(tiny_spec(name))
        drive(engine, script)
        assert bool(engine.cache.vop) == (name == "zcachelib"), name


def test_cache_sized_from_op_ratio():
    # all backends get the same region budget: floor of the non-reserved
    # share of the device, computed here with integer math as a check
    spec = SchemeSpec(name="zcachelib")
    expected = int((64 * 64 * MIB) / 1.07) // (16 * MIB)
    for name in ("zcachelib", "zns-middle-lru", "reg-lru"):
        engine = build(SchemeSpec(name=name))
        assert engine.cache.capacity_regions == expected
    override = build(SchemeSpec(name="zcachelib", cache_capacity_regions=10))
    assert override.cache.capacity_regions == 10


# --- scheme behavior ------------------------------------------------------------

def test_direct_never_garbage_collects():
    engine = build(tiny_spec("zns-direct"))
    drive(engine, make_script(seed=2, ops=500, size_max=32 * KIB))
    m = engine.metrics()
    assert m.gc_cycles == 0
    assert m.gc_migrated_bytes == 0
    assert m.zone_resets > 0                   # space reclaimed by reset alone
    assert wa_factor(m) == 1.0                 # exact, not approximate


@pytest.mark.parametrize("name", ["zns-middle-lru", "zns-middle-fifo"])
def test_middle_schemes_migrate_during_gc(name):
    # the cache's own drop filter migrates every region of a cache that
    # never fills vop
    engine = build(tiny_spec(name, **GC_ZONES))
    drive(engine, make_script(seed=3, ops=600))
    m = engine.metrics()
    assert m.gc_cycles > 0
    assert m.gc_migrated_bytes > 0
    assert m.dropped_regions == 0
    assert not engine.cache.vop
    assert wa_factor(m) > 1.0
    assert m.device_bytes_written == m.cache_bytes_written + m.gc_migrated_bytes


def test_zcachelib_drops_instead_of_migrating():
    engine = build(tiny_spec("zcachelib", **GC_ZONES))
    drive(engine, make_script(seed=3, ops=600))
    m = engine.metrics()
    assert m.dropped_regions > 0
    assert m.gc_migrated_bytes == 0            # zdrop-100: nothing to migrate
    assert wa_factor(m) == 1.0


def _golden_sized_run(name, **extra):
    """The geometry and workload of tests/golden/: 32 x 8 MiB zones, 2 MiB
    regions (whole zones for zns-direct), l2_wc at seed 1 for 20 000 ops."""
    spec = SchemeSpec(name=name, zone_count=32, zone_capacity=8 * MIB,
                      region_size=8 * MIB if name == "zns-direct" else 2 * MIB,
                      **extra)
    cache_bytes = _capacity_regions(spec) * spec.region_size
    workload = preset_spec("l2_wc", cache_bytes, seed=1, op_count=20_000)
    return build(spec), generate(workload)


def run_ops(engine, ops):
    """Every op through `harness.drive`, hits verified; returns the report."""
    report = harness.drive(engine, ops,
                           ExperimentConfig(scheme=None, verify_hits=True))
    assert report.corrupt_hits == 0
    return report


def after_each_op(engine, check):
    """Calls `check()` at every op boundary: `drive` calls `tick_gc` once
    at the end of each op."""
    tick = engine.tick_gc

    def tick_gc():
        tick()
        check()
    engine.tick_gc = tick_gc


def _tiny_run(name, seed=3, **extra):
    ops = [CacheOp(OpKind.GET if is_get else OpKind.SET, key, size)
           for is_get, key, size in make_script(seed=seed, ops=600)]
    return build(tiny_spec(name, **extra)), ops


@pytest.mark.parametrize("setup", [_tiny_run, _golden_sized_run],
                         ids=["tiny", "golden_sized"])
@pytest.mark.parametrize("name", ["zcachelib", "zns-middle-lru",
                                  "zns-middle-fifo", "zns-direct"])
def test_open_zones_never_exceed_write_zones(name, setup):
    # the store opens a zone only to keep its write zones (one for
    # zns-direct, whose regions fill a zone at once), so a device that
    # allows min_write_zones open zones never refuses an open
    engine, ops = setup(name)
    peak = 0

    def check():
        nonlocal peak
        peak = max(peak, engine.device.open_zone_count())
        assert peak <= engine.store.min_write_zones
    after_each_op(engine, check)
    run_ops(engine, ops)
    assert peak == (0 if name == "zns-direct" else engine.store.min_write_zones)


@pytest.mark.parametrize("name,extra", GOLDEN_CONFIGS,
                         ids=[golden_stem(n, e) for n, e in GOLDEN_CONFIGS])
def test_each_region_slot_is_faulted_in_once(name, extra, monkeypatch):
    # every cache region's memory is faulted in once, a step at a time, by
    # its first fill, and never again: a region flushes only when the next
    # item does not fit, so every fill here reaches its region's last step
    # (items are at most one step); a request counts whether or not the
    # kernel honours it
    requests = []
    populate = memory.Populator.populate

    def record(self, mem, start, length):
        requests.append(length)
        populate(self, mem, start, length)

    monkeypatch.setattr(memory.Populator, "populate", record)
    if name.startswith("reg-"):
        extra = dict(extra, pages_per_block=256)  # as tests/golden/ has it
    engine, ops = _golden_sized_run(name, **extra)
    run_ops(engine, ops)
    capacity = engine.cache.capacity_regions
    region = engine.cache.region_size
    assert len(requests) == capacity * math.ceil(region / FAULT_STEP)
    assert sum(requests) == capacity * region


@pytest.mark.parametrize("name", ["zcachelib", "zns-middle-lru",
                                  "zns-direct"])
def test_device_maps_no_more_buffers_than_the_cache_has_regions(name):
    # the store maps one buffer per region address, and the cache writes
    # only the addresses of its region slots, however often GC drops or
    # moves them; the store never unmaps a buffer, so the count at the end
    # is the run's peak
    engine, ops = _golden_sized_run(name)
    run_ops(engine, ops)
    assert engine.gc_events > 0
    assert len(engine.store.buffers) <= engine.cache.capacity_regions


def held_at(device):
    """The buffers a zoned device holds, by physical address."""
    cap = device.config.zone_capacity
    return {zone.id * cap + start: buf for zone in device._zones
            for start, buf in zip(zone.chunk_starts, zone.chunks)
            if buf is not None}


def check_one_buffer_per_region(engine, rids):
    """The device holds exactly one buffer per mapped region, at the
    region's address; each region in `rids` reads its cached items back
    at that address."""
    device, store, cache = engine.device, engine.store, engine.cache
    at = held_at(device)
    assert len(at) == len(store.forward)
    bufs = [at[paddr] for paddr in store.forward.values()]
    assert all(len(buf) == store.region_size for buf in bufs)
    held = device_buffers(device)
    assert {id(buf) for buf in bufs} == held and len(held) == len(bufs)
    for rid in rids:
        paddr = store.forward[cache.vaddr(rid)]
        for key in cache.keys[rid]:
            _, offset, size = cache.index[key]
            assert device.read(paddr + offset, size) == value_bytes(key, size)


ZONED_SETUPS = [("zcachelib", {}), ("zcachelib", {"vop_ratio": 0.5}),
                ("zns-middle-lru", {}), ("zns-middle-fifo", {}),
                ("zns-direct", {})]


@pytest.mark.parametrize("setup", ["golden_sized", 1, 2, 3, 4, 5])
@pytest.mark.parametrize("name,extra", ZONED_SETUPS,
                         ids=[n + "".join(f"-{k}{v}" for k, v in e.items())
                              for n, e in ZONED_SETUPS])
def test_device_holds_one_buffer_per_mapped_region(name, extra, setup):
    # at every op boundary: an evicted, dropped or migrated region's old
    # copy is held by no zone, and no buffer holds two live regions. Only
    # an op that flushes writes, evicts or runs GC, so the golden-sized
    # run checks after those alone, and reads back only the regions that
    # moved since its last check, then all of them at the end
    golden = setup == "golden_sized"
    engine, ops = (_golden_sized_run(name, **extra) if golden
                   else _tiny_run(name, seed=setup, **extra))
    region = engine.store.region_size
    last, flushed = {}, 0

    def check():
        nonlocal last, flushed
        if golden and engine.cache.flushed_count == flushed:
            return
        flushed = engine.cache.flushed_count
        forward = engine.store.forward
        check_one_buffer_per_region(engine, [
            vaddr // region for vaddr, paddr in forward.items()
            if not golden or last.get(vaddr) != paddr])
        last = dict(forward)
    after_each_op(engine, check)
    run_ops(engine, ops)
    check_one_buffer_per_region(engine, [v // region for v in last])
    assert engine.metrics().zone_resets > 0


def check_held_buffers_are_mapped(engine):
    """Every buffer the device holds sits at an address `forward` maps,
    every mapped address holds one, and it is that region's own buffer."""
    store = engine.store
    at = held_at(engine.device)
    owner = {paddr: vaddr for vaddr, paddr in store.forward.items()}
    assert at.keys() == owner.keys()
    assert all(at[paddr] is store.buffers[vaddr]
               for paddr, vaddr in owner.items())


@pytest.mark.parametrize("name", ["zcachelib", "zns-middle-lru"])
def test_device_holds_only_mapped_buffers_inside_gc_cycles(name):
    # at every drop-filter call, in the middle of a GC cycle, as well as
    # at every op boundary: a region GC dropped or moved is held nowhere
    # else, so a held buffer is always the live copy of one mapped region
    engine, ops = _golden_sized_run(name)
    cache = engine.cache
    zdrop_filter, calls = cache.zdrop_filter, []

    def checked_filter(vaddr):
        check_held_buffers_are_mapped(engine)
        calls.append(vaddr)
        return zdrop_filter(vaddr)

    cache.zdrop_filter = checked_filter  # tick_gc reads it at each cycle
    after_each_op(engine, lambda: check_held_buffers_are_mapped(engine))
    run_ops(engine, ops)
    assert calls and engine.metrics().gc_cycles > 0


@pytest.mark.parametrize("name", ["zcachelib", "zns-middle-lru"])
def test_gc_stalls_when_empty_count_only_seesaws(name):
    # trigger 1 empty zone, stop target 3: six valid regions plus two write
    # zones leave room for at most two, so cleaning swings the empty count
    # 1 -> 2 -> 1 forever unless the stall bound counts from the best count
    spec = tiny_spec(name, zone_count=5, zone_capacity=16 * KIB,
                     region_size=8 * KIB, w_low=10, w_high=50,
                     cache_capacity_regions=6, vop_ratio=0.0)
    script = make_script(0, ops=200, keys=30, get_ratio=0.5, size_max=8 * KIB)
    with pytest.raises(errors.GcStalled):
        drive(build(spec), script)


def test_wa_factor_reads_one_before_and_after_the_first_flush():
    engine = build(tiny_spec("zns-middle-lru"))
    m = engine.metrics()
    assert m.cache_bytes_written == 0
    assert wa_factor(m) == 1.0                 # nothing written yet
    engine.insert("a", value_bytes("a", 16 * KIB))
    engine.insert("b", value_bytes("b", 16 * KIB))  # flushes the first region
    m = engine.metrics()
    assert m.cache_bytes_written > 0
    assert wa_factor(m) == 1.0


def test_backends_share_hit_sequences():
    # policy and capacity decide hits; the backend only decides WA/timing
    script = make_script(seed=4, ops=500)
    lru_pair = [drive(build(tiny_spec(n)), script)
                for n in ("zns-middle-lru", "reg-lru")]
    assert lru_pair[0] == lru_pair[1]
    fifo_pair = [drive(build(tiny_spec(n)), script)
                 for n in ("zns-middle-fifo", "reg-fifo")]
    assert fifo_pair[0] == fifo_pair[1]


def test_reg_fifo_sequential_stream_stays_near_unit_wa():
    engine = build(tiny_spec("reg-fifo"))
    region = 16 * KIB
    capacity = engine.cache.capacity_regions
    for i in range(3 * capacity):              # distinct keys, full regions
        engine.insert(f"s{i}", value_bytes(f"s{i}", region))
        engine.tick_gc()
    assert wa_factor(engine.metrics()) <= 1.01


def test_engines_are_isolated():
    spec = tiny_spec("zns-middle-lru")
    a, b = build(spec), build(spec)
    drive(a, make_script(seed=5, ops=200))
    mb = b.metrics()
    assert mb.device_bytes_written == 0
    assert mb.hits == mb.misses == 0
    assert a.device is not b.device


def test_stage_probe_counters_advance():
    engine = build(tiny_spec("zcachelib"))
    assert engine.eviction_events == 0 and engine.gc_events == 0
    drive(engine, make_script(seed=6, ops=600))
    assert engine.eviction_events > 0
    assert engine.gc_events > 0


# --- policy at small regions ------------------------------------------------------

def _stable_hit_ratio(name):
    spec = SchemeSpec(name=name, zone_count=32, zone_capacity=8 * MIB,
                      region_size=512 * KIB)
    cache_bytes = _capacity_regions(spec) * spec.region_size
    workload = preset_spec("l2_wc", cache_bytes, seed=1, op_count=60_000)
    report = run(ExperimentConfig(scheme=spec, workload=workload))
    return report.summary.stable_hit_ratio


def test_lru_beats_fifo_at_small_regions():
    # a hit keeps its whole region alive, so LRU's gain over FIFO fades as
    # a region holds more items; at 512 KiB (~10 items) it must show
    gap = _stable_hit_ratio("zns-middle-lru") \
        - _stable_hit_ratio("zns-middle-fifo")
    assert gap > 0.005, f"LRU minus FIFO is {gap * 100:+.2f} pp"


# --- device-level WA of the regular-SSD baseline --------------------------------

def _reg_report(name):
    # erase blocks of 8 MiB hold 4 regions of 2 MiB
    spec = SchemeSpec(name=name, zone_count=32, zone_capacity=8 * MIB,
                      region_size=2 * MIB, pages_per_block=2048)
    cache_bytes = _capacity_regions(spec) * spec.region_size
    workload = preset_spec("l2_wc", cache_bytes, seed=1, op_count=60_000)
    report = run(ExperimentConfig(scheme=spec, workload=workload,
                                  verify_hits=True))
    assert report.corrupt_hits == 0
    return report


def test_reg_lru_amplifies_when_erase_blocks_hold_regions_of_mixed_age():
    # LRU frees cache slots out of write order, so an erase block keeps
    # some live regions when others die and the FTL's GC must migrate them
    # (WA 3.1388, 3576 MiB migrated)
    report = _reg_report("reg-lru")
    assert report.summary.final_wa > 2.0
    assert report.final_metrics.gc_migrated_bytes > 0


def test_reg_fifo_keeps_unit_wa_when_erase_blocks_hold_several_regions():
    # FIFO frees cache slots in write order, so a block's regions die
    # together and GC finds every victim empty
    report = _reg_report("reg-fifo")
    assert report.summary.final_wa == 1.0
    assert report.final_metrics.gc_migrated_bytes == 0
