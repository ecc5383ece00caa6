"""The reference model behind the engine interface that `harness.drive`
reads, so the harness's own op loop can run the model and render its CSV.

`ModelEngine(spec)` sizes a `SchemeModel` from a `SchemeSpec` the way
`build` sizes an engine, but derives every number itself. The model keeps
no payload bytes: an insert passes only the value's length, and a hit
returns True, so hit verification must stay off.
"""

from reference_model import SchemeModel
from zonecache.schemes import EngineMetrics

MIB = 1024 * 1024
PAGE = 4096


class ModelEngine:
    def __init__(self, spec):
        region = spec.region_size or (
            spec.zone_capacity if spec.name == "zns-direct" else 16 * MIB)
        capacity = spec.cache_capacity_regions
        if capacity is None:
            usable = spec.zone_count * spec.zone_capacity / (1.0 + spec.op_ratio)
            capacity = int(usable) // region
        self.model = SchemeModel(
            spec.name, zones=spec.zone_count, zone_cap=spec.zone_capacity,
            region=region, capacity=capacity, min_w=spec.min_write_zones,
            w_low=spec.w_low, w_high=spec.w_high, vop_ratio=spec.vop_ratio,
            page=PAGE, ppb=spec.pages_per_block,
            reorder=spec.reorder_enabled, op_ratio=spec.op_ratio)
        self.cache = self.model.cache

    def insert(self, key, value):
        self.cache.insert(key, len(value))

    def lookup(self, key):
        return True if self.cache.lookup(key) else None

    def tick_gc(self):
        self.model.tick_gc()

    @property
    def eviction_events(self):
        return self.cache.evicted + self.cache.dropped

    @property
    def gc_events(self):
        """Zone resets on a zoned scheme, FTL GC runs on reg-*."""
        if self.model.kind == "reg":
            return self.model.ftl.gc_runs
        return self.model.store.resets

    def metrics(self):
        c, m = self.cache, self.model
        if m.kind == "reg":
            f = m.ftl
            backend = dict(
                device_bytes_written=f.nand_bytes,
                device_bytes_read=f.read_bytes + f.migrated_bytes,
                gc_migrated_bytes=f.migrated_bytes, gc_cycles=f.gc_runs,
                empty_zones=len(f.free), zone_resets=f.erases)
        else:
            s = m.store
            backend = dict(
                device_bytes_written=s.appended_bytes,
                device_bytes_read=s.read_bytes,
                gc_migrated_bytes=s.migrated_bytes, gc_cycles=s.gc_cycles,
                empty_zones=len(s.empty), zone_resets=s.resets)
        return EngineMetrics(
            hits=c.hits, misses=c.misses, inserted_bytes=c.inserted,
            cache_bytes_written=m.store.host_bytes,
            evicted_regions=c.evicted, dropped_regions=c.dropped, **backend)
