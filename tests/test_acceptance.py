"""Acceptance suite: twelve numbered criteria, one printed verdict line each.

Full-size runs use the 4 GiB device (64 zones x 64 MiB, 16 MiB regions) and
the l2_wc-like preset, writing well over twice the cache capacity. Runs are
memoized and compacted so each engine lives only while its run executes;
peak memory stays near the emulated device size.

Each criterion records a PASS/FAIL verdict line; conftest.py replays them
in the terminal summary so they are visible without -s.
"""

import gc
import math
import random
import sys
import time
from dataclasses import replace

from helpers import KIB, MIB, drive, make_script, tiny_spec
from reference_model import SchemeModel, engine_snapshot
from zonecache import SchemeSpec, build, errors
from zonecache.harness import ExperimentConfig, run
from zonecache.schemes import _capacity_regions
from zonecache.workload import preset_spec, value_bytes
from zonecache.zcache import Policy, RegionCache
from zonecache.zstorage import compute_min_op

OP_COUNT = 350_000
ZONES = 64
REGION = 16 * MIB
_RUNS = {}
VERDICTS = []  # replayed by the pytest_terminal_summary hook


def _verdict(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _index_sweep(engine):
    """Read back every cached key and compare against its expected payload."""
    checked = bad = 0
    for key, (_, _, size) in list(engine.cache.index.items()):
        data = engine.lookup(key)
        checked += 1
        if data != value_bytes(key, size):
            bad += 1
    return checked, bad


def desk(name, seed=1, **extra):
    """One full-size run, memoized and reduced to plain numbers."""
    key = (name, seed, tuple(sorted(extra.items())))
    if key in _RUNS:
        return _RUNS[key]
    spec = SchemeSpec(name=name, **extra)
    region = spec.zone_capacity if name == "zns-direct" else REGION
    capacity_bytes = _capacity_regions(replace(spec, region_size=region)) * region
    workload = preset_spec("l2_wc", capacity_bytes, seed=seed, op_count=OP_COUNT)
    started = time.time()
    report = run(ExperimentConfig(scheme=spec, workload=workload,
                                  interval_ops=10_000, timing_enabled=True,
                                  verify_hits=True))
    wall = time.time() - started
    checked, bad = _index_sweep(report.engine)
    s, m = report.summary, report.final_metrics
    # the zone store logs each GC cycle's empty zones; the FTL logs none
    gc_log = [] if name.startswith("reg-") else list(report.engine.store.gc_log)
    record = dict(wa=s.final_wa, hit=s.stable_hit_ratio,
                  ops_per_sec=s.stable_ops_per_sec, gc_cycles=m.gc_cycles,
                  gc_log=gc_log, corrupt=report.corrupt_hits,
                  checked=checked, bad=bad, wall=wall,
                  cache_bytes=m.cache_bytes_written,
                  device_bytes=m.device_bytes_written,
                  capacity_bytes=capacity_bytes, resets=m.zone_resets)
    assert m.cache_bytes_written >= 2 * capacity_bytes, \
        f"{name} seed {seed}: wrote only {m.cache_bytes_written / capacity_bytes:.2f}x capacity"
    assert wall < 120, f"{name} seed {seed}: run took {wall:.0f}s"
    report.engine = None
    del report
    gc.collect()
    _RUNS[key] = record
    return record


def test_criterion_01_direct_unit_wa():
    r = desk("zns-direct")
    ok = r["wa"] == 1.0 and r["gc_cycles"] == 0 and r["resets"] > 0
    _verdict(1, ok, f"whole-zone layout runs GC-free: wa {r['wa']:.4f} "
                    f"(need exactly 1.0), gc cycles {r['gc_cycles']} (need 0)")


def test_criterion_02_drop_mode_near_unit_wa():
    r = desk("zcachelib")
    ok = r["wa"] <= 1.05
    _verdict(2, ok, f"drop-in-place keeps final wa at {r['wa']:.4f} (need <= 1.05)")


def test_criterion_03_migrating_translation_wa_gap():
    mid = desk("zns-middle-lru")
    zc = desk("zcachelib")
    ok = 1.5 <= mid["wa"] <= 3.0 and mid["wa"] >= 1.5 * zc["wa"]
    _verdict(3, ok, f"migrating translation layer at 7% reserve: wa "
                    f"{mid['wa']:.4f} (need 1.5..3.0 and >= 1.5x {zc['wa']:.4f})")


def test_criterion_04_hit_ratio_preserved_across_seeds():
    diffs = []
    for seed in (1, 2, 3, 4, 5):
        zc = desk("zcachelib", seed=seed)
        mid = desk("zns-middle-lru", seed=seed)
        diffs.append(abs(zc["hit"] - mid["hit"]))
    worst = max(diffs)
    ok = worst <= 0.005
    _verdict(4, ok, f"drop-mode vs migrate-mode stable hit ratio differs by "
                    f"at most {worst * 100:.2f} pp over seeds 1-5 (need <= 0.50 pp)")


def test_criterion_05_fifo_hits_below_lru():
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        lru = desk("zns-middle-lru", seed=seed)
        fifo = desk("zns-middle-fifo", seed=seed)
        gaps.append((seed, lru["hit"] - fifo["hit"]))
    ok = all(gap > 0 for _, gap in gaps)
    detail = ", ".join(f"seed {s}: {g * 100:+.2f} pp" for s, g in gaps)
    _verdict(5, ok, f"stable hit ratio LRU minus FIFO must be positive every "
                    f"seed ({detail})")


def test_criterion_06_op_calculator():
    plan = compute_min_op(200, 600, 6)
    infeasible = False
    try:
        compute_min_op(600, 100, 1)
    except errors.InfeasibleRates:
        infeasible = True
    ok = 0.057 <= plan.r_op <= 0.060 and infeasible
    _verdict(6, ok, f"reserve calculator gives r_op {plan.r_op:.4f} "
                    f"(need 0.057..0.060) and rejects k*t_gc <= t_cache")


def test_criterion_07_watermark_contract():
    trigger = math.ceil(0.01 * ZONES)
    stop = math.ceil(0.03 * ZONES)
    entries = exits = 0
    worst = None
    for record in _RUNS.values():
        for entry, exit_ in record["gc_log"]:
            entries += 1
            exits += 1
            if entry >= trigger or exit_ < stop:
                worst = (entry, exit_)
    ok = worst is None and entries > 0
    _verdict(7, ok, f"every GC entry below {trigger} empty zones and exit at "
                    f">= {stop}, over {entries} logged cycles"
                    + (f"; violated by {worst}" if worst else ""))


SCRIPTED_CONFIGS = [
    ("zcachelib", {}),
    ("zcachelib", {"vop_ratio": 0.25}),
    ("zns-middle-lru", {}),
    ("zns-middle-fifo", {}),
    ("zns-direct", {}),
    ("reg-lru", {}),
    ("reg-fifo", {"pages_per_block": 16}),
]

_model_integrity = {}


def _model_kwargs(overrides):
    mapped = {"vop_ratio": "vop_ratio", "pages_per_block": "ppb",
              "cache_capacity_regions": "capacity"}
    return {mapped[k]: v for k, v in overrides.items()}


def test_criterion_08_reference_model_equivalence():
    script = make_script(seed=21, ops=200, keys=24, get_ratio=0.45,
                         size_max=16 * KIB)
    failures = []
    for name, overrides in SCRIPTED_CONFIGS:
        engine = build(tiny_spec(name, **overrides))
        real_hits = drive(engine, script)
        model = SchemeModel(name, **_model_kwargs(overrides))
        model_hits = model.run(script)
        if real_hits != model_hits:
            failures.append(f"{name}{overrides}: hit sequence")
        else:
            real, want = engine_snapshot(engine, name), model.snapshot()
            mismatched = [k for k in want if real.get(k) != want[k]]
            if mismatched:
                failures.append(f"{name}{overrides}: {mismatched}")
        # readback for every key the model says is cached (criterion 12)
        checked = bad = 0
        for key, (_, _, size) in model.cache.index.items():
            checked += 1
            if engine.lookup(key) != value_bytes(key, size):
                bad += 1
        _model_integrity[(name, tuple(sorted(overrides)))] = (checked, bad)
    ok = not failures
    _verdict(8, ok, f"scripted 200-op run matches the scratch model exactly "
                    f"for {len(SCRIPTED_CONFIGS)} engine configs"
                    + (f"; diverged: {failures}" if failures else ""))


class _RamStore:
    """In-memory region store so the policy comparison runs at full speed."""

    def __init__(self, region_size):
        self.region_size = region_size
        self.data = {}

    def region_buffer(self, vaddr):
        return bytearray(self.region_size), None  # RAM needs no faulting in

    def write_region(self, vaddr, payload):
        self.data[vaddr] = bytes(payload)
        return vaddr

    def read_region(self, vaddr, offset=0, length=None):
        blob = self.data[vaddr]
        if length is None:
            length = self.region_size - offset
        return blob[offset:offset + length]

    def invalidate_region(self, vaddr):
        self.data.pop(vaddr, None)

    def zone_of(self, vaddr):
        return 0


def test_criterion_09_degenerate_zlru_equals_lru():
    region = 64 * KIB
    mismatches = 0
    for seed in range(1000):
        rng = random.Random(seed)
        caches = []
        for policy in (Policy.ZLRU, Policy.LRU):
            caches.append(RegionCache(_RamStore(region), 6, region, policy,
                                      vop_ratio=0.0, reorder_enabled=False))
        for _ in range(500):
            key = f"k{rng.randrange(40)}"
            if rng.random() < 0.5:
                size = rng.randrange(1 * KIB, 24 * KIB)
                for cache in caches:
                    cache.insert(key, value_bytes(key, size))
            else:
                outcomes = [cache.lookup(key) is not None for cache in caches]
                if outcomes[0] != outcomes[1]:
                    mismatches += 1
    ok = mismatches == 0
    _verdict(9, ok, f"vop 0 with reordering off reproduces LRU hit for hit "
                    f"on 1000 x 500-op workloads ({mismatches} mismatches)")


def test_criterion_10_throughput_direction():
    zc = desk("zcachelib")
    mid = desk("zns-middle-lru")
    ratio = zc["ops_per_sec"] / mid["ops_per_sec"]
    ok = ratio >= 1.3
    _verdict(10, ok, f"stable ops per simulated second favor the drop-mode "
                     f"engine {ratio:.2f}x (need >= 1.3x)")


def test_criterion_11_vop_sweep_direction():
    points = [desk("zcachelib", vop_ratio=v) if v != 1.0 else desk("zcachelib")
              for v in (0.0, 0.25, 0.5, 1.0)]
    was = [p["wa"] for p in points]
    hits = [p["hit"] for p in points]
    wa_mono = all(b <= a for a, b in zip(was, was[1:]))
    hit_mono = all(b <= a for a, b in zip(hits, hits[1:]))
    ok = wa_mono and hit_mono
    _verdict(11, ok, f"vop sweep 0/0.25/0.5/1.0: wa {[f'{w:.4f}' for w in was]} "
                     f"non-increasing={wa_mono}; hit "
                     f"{[f'{h:.4f}' for h in hits]} non-increasing={hit_mono}")


def test_criterion_12_payload_integrity():
    runs = list(_RUNS.values())
    live_corrupt = sum(r["corrupt"] for r in runs)
    swept = sum(r["checked"] for r in runs)
    swept_bad = sum(r["bad"] for r in runs)
    model_checked = sum(c for c, _ in _model_integrity.values())
    model_bad = sum(b for _, b in _model_integrity.values())
    ok = (live_corrupt == 0 and swept_bad == 0 and model_bad == 0
          and swept > 0 and model_checked > 0)
    _verdict(12, ok, f"zero corrupt payloads: {swept} full-run readbacks, "
                     f"{model_checked} model-index readbacks, every verified "
                     f"hit exact ({live_corrupt + swept_bad + model_bad} bad)")
