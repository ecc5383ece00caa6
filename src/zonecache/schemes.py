"""Assembly of the comparable cache schemes behind one engine interface.

  zcachelib        zoned backend, ZLRU policy, vop partition, GC drops
                   evictable regions in place instead of migrating them
  zns-middle-lru   zoned backend behind a translation layer that migrates
  zns-middle-fifo  every valid region during GC (cache is unaware of zones)
  zns-direct       region size equals zone capacity; an eviction empties a
                   whole zone, which the store resets at once: GC-free
  reg-lru          conventional block-interface SSD baselines over the
  reg-fifo         page-mapped FTL (internal GC, hidden over-provisioning)

Engines expose insert / lookup / tick_gc / metrics. tick_gc is called at
operation boundaries and is where background reclamation runs, which keeps
every run single-threaded and reproducible.
"""

from dataclasses import dataclass, replace

from . import errors
from .ftl import PageMappedFtl
from .memory import PAGE
from .zcache import Policy, RegionCache
from .zns import MAX_OPEN_ZONES, DeviceConfig, ZnsDevice
from .zstorage import ZoneStore

MIB = 1024 * 1024

SCHEME_NAMES = ("zcachelib", "zns-middle-lru", "zns-middle-fifo",
                "zns-direct", "reg-lru", "reg-fifo")

_POLICY = {
    "zcachelib": Policy.ZLRU,
    "zns-middle-lru": Policy.LRU,
    "zns-middle-fifo": Policy.FIFO,
    "zns-direct": Policy.LRU,
    "reg-lru": Policy.LRU,
    "reg-fifo": Policy.FIFO,
}

# the scheme keys no component of a scheme reads, which its config may
# not set: the FTL's on zoned schemes, the zone store's on reg-*, the
# write zone count on zns-direct (it keeps one), and ZLRU's wherever the
# policy is another
UNREAD_KEYS = {
    "zcachelib": ("pages_per_block",),
    "zns-middle-lru": ("pages_per_block", "vop_ratio", "reorder_enabled"),
    "zns-middle-fifo": ("pages_per_block", "vop_ratio", "reorder_enabled"),
    "zns-direct": ("pages_per_block", "min_write_zones", "vop_ratio",
                   "reorder_enabled"),
    "reg-lru": ("w_low", "w_high", "min_write_zones", "vop_ratio",
                "reorder_enabled"),
    "reg-fifo": ("w_low", "w_high", "min_write_zones", "vop_ratio",
                 "reorder_enabled"),
}


@dataclass
class SchemeSpec:
    name: str
    zone_count: int = 64
    zone_capacity: int = 64 * MIB
    region_size: int = None          # default 16 MiB; zone capacity for zns-direct
    op_ratio: float = 0.07           # reserved space / cache space
    vop_ratio: float = 1.0           # zcachelib only
    w_low: float = 1.0
    w_high: float = 3.0
    min_write_zones: int = 4
    cache_capacity_regions: int = None  # override the op_ratio sizing
    reorder_enabled: bool = True     # zcachelib only
    pages_per_block: int = 1024      # FTL erase block, reg-* only


@dataclass
class EngineMetrics:
    hits: int = 0
    misses: int = 0
    inserted_bytes: int = 0
    cache_bytes_written: int = 0
    device_bytes_written: int = 0
    device_bytes_read: int = 0
    gc_migrated_bytes: int = 0
    gc_cycles: int = 0
    empty_zones: int = 0
    evicted_regions: int = 0
    dropped_regions: int = 0
    zone_resets: int = 0


def default_region_size(spec) -> int:
    """Region size when the spec leaves it unset: the whole zone for
    zns-direct, 16 MiB otherwise."""
    if spec.region_size is not None:
        return spec.region_size
    return spec.zone_capacity if spec.name == "zns-direct" else 16 * MIB


def _capacity_regions(spec) -> int:
    region = default_region_size(spec)
    if region < 1:
        raise errors.InvalidConfig("region_size must be >= 1")
    if not spec.op_ratio >= 0:  # NaN fails too
        raise errors.InvalidConfig("op_ratio must be >= 0")
    if spec.cache_capacity_regions is not None:
        return spec.cache_capacity_regions
    device_bytes = spec.zone_count * spec.zone_capacity
    usable = int(device_bytes / (1.0 + spec.op_ratio))
    count = usable // region
    if count < 1:
        raise errors.InvalidConfig("device too small for one region of cache")
    return count


class _Engine:
    """One region cache over a backend store. Subclasses build the backend
    and report its counters."""

    def __init__(self, spec, store, capacity_regions):
        self.store = store
        self.cache = RegionCache(
            store, capacity_regions, spec.region_size,
            _POLICY[spec.name], spec.vop_ratio, spec.reorder_enabled)

    def insert(self, key, value):
        self.cache.insert(key, value)

    def lookup(self, key):
        return self.cache.lookup(key)

    # cheap progress probe for the harness stage tracker; the reg schemes
    # never drop, so evicted + dropped serves every scheme
    @property
    def eviction_events(self) -> int:
        c = self.cache
        return c.evicted_region_count + c.dropped_region_count

    def metrics(self) -> EngineMetrics:
        c = self.cache
        return EngineMetrics(
            hits=c.hit_count, misses=c.miss_count,
            inserted_bytes=c.inserted_bytes,
            # every flush writes one whole region
            cache_bytes_written=c.flushed_count * c.region_size,
            evicted_regions=c.evicted_region_count,
            dropped_regions=c.dropped_region_count,
            **self._backend_metrics())


class _ZnsEngine(_Engine):
    """Common wiring for the three zoned schemes."""

    def __init__(self, spec):
        direct = spec.name == "zns-direct"
        if direct and spec.region_size != spec.zone_capacity:
            raise errors.InvalidConfig(
                "zns-direct requires region_size == zone_capacity")
        self.device = ZnsDevice(DeviceConfig(
            spec.zone_count, spec.zone_capacity,
            min(MAX_OPEN_ZONES, spec.zone_count)))
        store = ZoneStore(self.device, spec.region_size, spec.w_low,
                          spec.w_high, 1 if direct else spec.min_write_zones)
        super().__init__(spec, store, _capacity_regions(spec))
        self._checked_flushes = 0

    def tick_gc(self):
        # only an op that flushes appends or evicts, and a cycle ends
        # above the trigger: no decision can change until the next flush
        flushed = self.cache.flushed_count
        if flushed == self._checked_flushes:
            return
        if self.store.gc_needed():
            # an LRU or FIFO cache never fills vop, so its filter migrates all
            self.store.gc_cycle(self.cache.zdrop_filter)
        self._checked_flushes = flushed  # a check that raised runs again

    @property
    def gc_events(self) -> int:
        return self.device.resets

    def _backend_metrics(self) -> dict:
        return dict(
            device_bytes_written=self.device.appended_bytes,
            device_bytes_read=self.device.read_bytes,
            gc_migrated_bytes=self.store.migrated_bytes,
            gc_cycles=len(self.store.gc_log),
            empty_zones=len(self.store.empty_zones),
            zone_resets=self.device.resets)


class _FtlRegionStore:
    """Adapts the page-mapped FTL to the region store interface the cache
    expects. A block device gets no eviction hints, so invalidation is a
    no-op; stale pages die when their logical range is overwritten."""

    def __init__(self, ftl, region_size):
        self.ftl = ftl
        self.region_size = region_size

    def region_buffer(self, vaddr):
        """The FTL's bytes at `vaddr`, filled in place, written with no
        copy, and their fault-in or None (`PageMappedFtl.lend_buffer`)."""
        return self.ftl.lend_buffer(vaddr, self.region_size)

    def write_region(self, vaddr, payload):
        self.ftl.ftl_write(vaddr, payload)
        return vaddr

    def read_region(self, vaddr, offset, length):
        return self.ftl.ftl_read(vaddr + offset, length)

    def invalidate_region(self, vaddr):
        pass


class _RegEngine(_Engine):
    def __init__(self, spec):
        device_bytes = spec.zone_count * spec.zone_capacity
        block_bytes = PAGE * spec.pages_per_block
        self.ftl = PageMappedFtl(  # rejects a block under one page
            spec.pages_per_block,
            device_bytes // block_bytes if block_bytes > 0 else 0,
            spec.op_ratio)
        if device_bytes % block_bytes != 0:
            raise errors.InvalidConfig(
                "device size must be a whole number of erase blocks")
        if spec.region_size % PAGE != 0:
            raise errors.InvalidConfig("region size must be page-aligned")
        capacity = _capacity_regions(spec)
        if capacity * spec.region_size > self.ftl.exported_bytes:
            raise errors.InvalidConfig(
                "cache regions exceed the FTL's exported capacity")
        super().__init__(spec, _FtlRegionStore(self.ftl, spec.region_size),
                         capacity)

    def tick_gc(self):
        pass  # internal GC is inline in the FTL write path

    @property
    def gc_events(self) -> int:
        return self.ftl.gc_runs

    def _backend_metrics(self) -> dict:
        return dict(
            device_bytes_written=self.ftl.nand_bytes_written,
            device_bytes_read=self.ftl.read_bytes + self.ftl.migrated_bytes,
            gc_migrated_bytes=self.ftl.migrated_bytes,
            gc_cycles=self.ftl.gc_runs,
            empty_zones=self.ftl.free_block_count,
            zone_resets=self.ftl.erase_count)


def build(spec: SchemeSpec):
    """Wire a fully configured engine for one scheme. This is the only
    check of a spec: `build` makes the scheme-level ones, and the engine
    and each component it constructs check their own settings. Raises
    InvalidConfig."""
    if spec.name not in SCHEME_NAMES:
        raise errors.InvalidConfig(f"unknown scheme {spec.name!r}; "
                                   f"choose one of {', '.join(SCHEME_NAMES)}")
    spec = replace(spec, region_size=default_region_size(spec))
    if spec.name.startswith("reg-"):
        return _RegEngine(spec)
    return _ZnsEngine(spec)


def wa_factor(metrics) -> float:
    """Cumulative WA of a metrics snapshot: total device writes (GC
    included) divided by cache-engine writes; 1.0 before any flush."""
    if not metrics.cache_bytes_written:
        return 1.0
    return metrics.device_bytes_written / metrics.cache_bytes_written
