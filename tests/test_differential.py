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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=cases())
def test_engine_matches_reference_model(case):
    name, spec, model_kwargs, script_kwargs = case
    script = make_script(**script_kwargs)
    try:
        engine = build(tiny_spec(name, **spec))
    except errors.InvalidConfig:
        return  # rejected geometry (FTL too small, erase blocks misfit)
    hits, failed_at, exc = replay(
        lambda *op: step(engine, *op), script, errors.SimError)
    model = SchemeModel(name, **model_kwargs)
    want_hits, want_failed_at, want_exc = replay(model.apply, script, ModelError)
    assert (failed_at, type(exc).__name__ if exc else None) \
        == (want_failed_at, want_exc.kind if want_exc else None)
    assert hits == want_hits
    if failed_at is None:
        real, want = engine_snapshot(engine, name), model.snapshot()
        assert {key: real.get(key) for key in want} == want


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
