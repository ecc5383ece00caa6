"""Randomised differential test: every engine against the reference model.

Hypothesis draws a scheme, a small geometry and an op script; the engine
built by `build` and the brute-force `SchemeModel` replay the same script
and must agree on the hit sequence and on every field of the observable
state (`engine_snapshot` vs `model.snapshot()`). When the engine fails at
run time (GC stall, no writable zone, no free erase block) the model must
fail at the same op with the matching error, after the same hits.
Geometries that `build` rejects are skipped: the model does not validate
its configuration. Examples are derandomised, so a run is reproducible
and needs no example database.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KIB, make_script, step, tiny_spec
from reference_model import ModelError, SchemeModel, ZoneModel, engine_snapshot
from zonecache import build, errors, watermark_zones
from zonecache.schemes import SCHEME_NAMES

REGION = 16 * KIB


@st.composite
def cases(draw):
    name = draw(st.sampled_from(SCHEME_NAMES))
    zones = draw(st.integers(4, 12))
    per_zone = draw(st.sampled_from([1, 2, 4]))
    zone_cap = per_zone * REGION
    region = zone_cap if name == "zns-direct" else REGION
    w_low = draw(st.integers(1, 50))
    w_high = draw(st.integers(w_low + 1, 80))
    capacity = draw(st.integers(1, zones * zone_cap // region))
    # float draws cluster at edges where the vop split is empty or total and
    # the reorder pass moves nothing, so mix in fixed interior ratios; blocks
    # of 8 or 16 pages (32 or 64 KiB) outgrow a region, and `build` rejects
    # those that do not divide the device
    spec = dict(zone_count=zones, zone_capacity=zone_cap, region_size=region,
                w_low=w_low, w_high=w_high,
                cache_capacity_regions=capacity,
                vop_ratio=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
                               | st.floats(0.0, 1.0)),
                pages_per_block=draw(st.sampled_from([1, 2, 4, 8, 16])),
                reorder_enabled=draw(st.booleans()))
    model = dict(zones=zones, zone_cap=zone_cap, region=region,
                 capacity=capacity, w_low=w_low, w_high=w_high,
                 vop_ratio=spec["vop_ratio"], ppb=spec["pages_per_block"],
                 reorder=spec["reorder_enabled"])
    if name != "zns-direct":
        min_w = draw(st.integers(1, 2))
        spec.update(min_write_zones=min_w)
        model.update(min_w=min_w)
    script = dict(seed=draw(st.integers(0, 2**16)),
                  ops=draw(st.integers(200, 2000)),
                  keys=draw(st.integers(8, 60)),
                  get_ratio=draw(st.sampled_from([0.3, 0.5, 0.7])),
                  size_max=draw(st.integers(2 * KIB, region)))
    return name, spec, model, script


def replay(apply, script, error):
    """Hits until the first `error`; returns (hits, failing op index or
    None, the error)."""
    hits = []
    for index, op in enumerate(script):
        try:
            hit = apply(*op)
        except error as exc:
            return hits, index, exc
        if hit is not None:
            hits.append(hit)
    return hits, None, None


def replay_both(engine, model, script):
    """Replays the script on both; they must fail at the same op with the
    matching error, after the same hits. Returns the engine's error."""
    hits, failed_at, exc = replay(
        lambda *op: step(engine, *op), script, errors.SimError)
    want_hits, want_failed_at, want_exc = replay(model.apply, script, ModelError)
    assert (failed_at, type(exc).__name__ if exc else None) \
        == (want_failed_at, want_exc.kind if want_exc else None)
    assert hits == want_hits
    return exc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=cases())
def test_engine_matches_reference_model(case):
    name, spec, model_kwargs, script_kwargs = case
    script = make_script(**script_kwargs)
    try:
        engine = build(tiny_spec(name, **spec))
    except errors.InvalidConfig:
        return  # rejected geometry (FTL too small, erase blocks misfit)
    model = SchemeModel(name, **model_kwargs)
    if replay_both(engine, model, script) is None:
        real, want = engine_snapshot(engine, name), model.snapshot()
        assert {key: real.get(key) for key in want} == want


# 8 zones of four regions, 20 cached regions, GC from 1 empty zone to 3:
# evictions empty some full zones, which reset at once, and leave live
# regions in others, which GC cleans
RESET_AND_GC = dict(zone_count=8, zone_capacity=4 * REGION, min_write_zones=2,
                    w_low=12.5, w_high=37.5, cache_capacity_regions=20)
RESET_AND_GC_MODEL = dict(zones=8, zone_cap=4 * REGION, capacity=20, min_w=2,
                          w_low=12.5, w_high=37.5)


@pytest.mark.parametrize("name,vop_ratio", [("zcachelib", 0.25),
                                            ("zcachelib", 0.5),
                                            ("zns-middle-fifo", 1.0)])
def test_engine_matches_model_through_eager_resets_and_gc(name, vop_ratio):
    engine = build(tiny_spec(name, vop_ratio=vop_ratio, **RESET_AND_GC))
    picks = []
    pick = engine.store.select_victim
    engine.store.select_victim = lambda *a: picks.append(pick(*a)) or picks[-1]
    model = SchemeModel(name, vop_ratio=vop_ratio, **RESET_AND_GC_MODEL)
    assert replay_both(engine, model, make_script(seed=1, ops=600)) is None
    real = engine_snapshot(engine, name)
    assert real == model.snapshot()
    assert real["gc_cycles"] > 0
    assert real["resets"] > len(picks) > 0  # some resets were not GC's


@pytest.mark.parametrize("capacity", [7, 8])
def test_zns_direct_engine_matches_model(capacity):
    # a whole-zone region that leaves resets its zone at once, so a full
    # zone always holds one live region and cleaning could never gain a
    # zone: GC never starts, not even when the cache fills every zone
    # (capacity 8 of 8) and leaves fewer empty zones than the trigger
    engine = build(tiny_spec("zns-direct", cache_capacity_regions=capacity))
    empty_counts = []
    tick = engine.tick_gc
    engine.tick_gc = lambda: tick() or empty_counts.append(
        len(engine.store.empty_zones))
    model = SchemeModel("zns-direct", capacity=capacity)
    assert replay_both(engine, model,
                       make_script(seed=2, ops=500, size_max=2 * REGION)) is None
    real = engine_snapshot(engine, "zns-direct")
    assert real == model.snapshot()
    assert real["resets"] > 0 and real["gc_cycles"] == 0
    below_trigger = min(empty_counts) < engine.store.gc_trigger_zones
    assert below_trigger == (capacity == 8)


def test_model_watermarks_match_engine():
    # where a one-decimal percentage of 1-1024 zones is a whole number, a
    # float product can land just above it and round one zone too high
    edges = [(tenths / 10, zones) for tenths in range(1, 1001)
             for zones in range(1, 1025)
             if tenths * zones % 1000 == 0
             and math.ceil(tenths / 10 * zones / 100) != tenths * zones // 1000]
    assert (4.4, 750) in edges and (8.8, 375) in edges
    rng = random.Random(21)
    sample = [(round(rng.uniform(0.01, 100), rng.choice([0, 1, 2])),
               rng.randint(1, 1024)) for _ in range(300)]
    for w, zones in edges + sample:
        # the model checks no settings, so one w can set both watermarks
        model = ZoneModel(zones, REGION, REGION, 1, w, w)
        assert model.trigger == model.stop == watermark_zones(w, zones), \
            (w, zones)
