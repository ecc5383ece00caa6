"""Shared fixtures: a small 8-zone geometry, a scripted op driver and a
census of the buffers a zoned device holds.

The tiny layout keeps the watermark reserve reachable (capacity 7 of 16
region slots). Its zones hold two regions, so eviction alone often empties
a full zone, and the store resets such a zone at once; `GC_ZONES` regroups
the same 16 slots into four zones of four regions, as at full size, so
zones keep live regions of mixed age and background cleaning runs.
"""

import random

from zonecache import SchemeSpec
from zonecache.workload import value_bytes

KIB = 1024
MIB = 1024 * KIB


GC_ZONES = dict(zone_count=4, zone_capacity=64 * KIB)


def tiny_spec(name, **overrides):
    base = dict(name=name, zone_count=8, zone_capacity=32 * KIB,
                region_size=16 * KIB, min_write_zones=2,
                w_low=25.0, w_high=50.0, cache_capacity_regions=7,
                pages_per_block=2)
    if name == "zns-direct":
        base["region_size"] = 32 * KIB
        del base["min_write_zones"]
    base.update(overrides)
    return SchemeSpec(**base)


def make_script(seed, ops=400, keys=30, get_ratio=0.5, size_max=16 * KIB):
    rng = random.Random(seed)
    sizes = {f"k{i}": rng.randrange(2 * KIB, size_max + 1) for i in range(keys)}
    script = []
    for _ in range(ops):
        key = f"k{rng.randrange(keys)}"
        script.append((rng.random() < get_ratio, key, sizes[key]))
    return script


def step(engine, is_get, key, size):
    """One scripted op with cache-fill on miss; returns the hit flag of a
    get and None for a set.

    Every hit must return exactly the bytes last inserted for its key, so
    a store that maps or copies pages wrongly fails here, not only on the
    hit/miss sequence. A key always has one size within a script.
    """
    hit = None
    if is_get:
        data = engine.lookup(key)
        hit = data is not None
        if data is None:
            engine.insert(key, value_bytes(key, size))
        else:
            assert data == value_bytes(key, size), f"corrupt hit on {key}"
    else:
        engine.insert(key, value_bytes(key, size))
    engine.tick_gc()
    return hit


def drive(engine, script):
    """Runs the script through `step`; returns the hit sequence."""
    hits = []
    for op in script:
        hit = step(engine, *op)
        if hit is not None:
            hits.append(hit)
    return hits


def device_buffers(device):
    """The ids of the buffers a zoned device holds in its zones."""
    return {id(buf) for zone in device._zones for buf in zone.chunks
            if buf is not None}
