"""Brute-force scratch model of every scheme, kept deliberately separate
from the package implementation.

Everything is plain lists, dicts, and integer arithmetic at region/page
granularity (no payload bytes). Engines under test are compared against
this model op for op: hit/miss sequence, mapping tables, recency orders,
zone or block states, and traffic counters all have to agree exactly.
"""

import bisect
import math
from decimal import Decimal


class ModelError(Exception):
    """The model cannot go on; `kind` names the engine error expected at
    the same op (the class name in `zonecache.errors`)."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


# --- zoned backend -------------------------------------------------------------

class ZoneModel:
    """Zone groups, region map, and watermark cleaning at slot granularity."""

    def __init__(self, zones, zone_cap, region, min_w, w_low, w_high):
        assert zone_cap % region == 0
        self.zones = zones
        self.zone_cap = zone_cap
        self.region = region
        self.min_w = min_w
        # percent of the zones, rounded up; in floats 4.4 * 750 / 100 lands
        # above 33 and would round up to 34, so compute in decimal
        self.trigger = math.ceil(Decimal(str(w_low)) * zones / 100)
        self.stop = math.ceil(Decimal(str(w_high)) * zones / 100)
        self.empty = list(range(zones))          # ascending
        self.write = []                          # rotation order
        self.rr = 0
        self.read = set()
        self.fill = [0] * zones                  # slots appended per zone
        self.valid = [0] * zones                 # live regions per zone
        self.fwd = {}                            # vaddr -> paddr
        self.rev = {z: [] for z in range(zones)}  # per zone, append order
        self.host_bytes = 0
        self.appended_bytes = 0
        self.read_bytes = 0
        self.migrated_bytes = 0
        self.gc_cycles = 0
        self.resets = 0
        self.gc_log = []

    # space management

    def _pick(self):
        while len(self.write) < self.min_w and self.empty:
            self.write.append(self.empty.pop(0))
        if not self.write:
            raise ModelError("NoWritableZone")
        idx = self.rr % len(self.write)
        self.rr = idx + 1
        return self.write[idx]

    def _append(self):
        z = self._pick()
        paddr = z * self.zone_cap + self.fill[z] * self.region
        self.fill[z] += 1
        self.appended_bytes += self.region
        if self.fill[z] * self.region == self.zone_cap:
            i = self.write.index(z)
            self.write.pop(i)
            if i < self.rr:
                self.rr -= 1
            self.read.add(z)
        return paddr

    def _unmap(self, vaddr, paddr):
        z = paddr // self.zone_cap
        self.rev[z].remove((paddr, vaddr))
        self.valid[z] -= 1
        return z

    def _map(self, vaddr, paddr):
        z = paddr // self.zone_cap
        self.fwd[vaddr] = paddr
        self.rev[z].append((paddr, vaddr))
        self.valid[z] += 1

    def _reset(self, z):
        self.fill[z] = 0
        self.resets += 1
        self.read.discard(z)
        bisect.insort(self.empty, z)

    def _free(self, vaddr, paddr):
        """Unmap an evicted or replaced copy; a full zone that loses its
        last region is reset at once."""
        z = self._unmap(vaddr, paddr)
        if z in self.read and not self.valid[z]:
            self._reset(z)

    # store interface

    def write_region(self, vaddr):
        old = self.fwd.get(vaddr)
        self._map(vaddr, self._append())  # the new copy maps first
        if old is not None:
            self._free(vaddr, old)
        self.host_bytes += self.region

    def read_region(self, vaddr, offset, size):
        assert vaddr in self.fwd
        self.read_bytes += size

    def invalidate(self, vaddr):
        self._free(vaddr, self.fwd.pop(vaddr))

    def zone_of(self, vaddr):
        paddr = self.fwd.get(vaddr)
        return None if paddr is None else paddr // self.zone_cap

    # cleaning

    def gc_needed(self):
        # a zone of one region is reset when it goes: nothing to clean
        return self.region < self.zone_cap and len(self.empty) < self.trigger

    def gc(self, decide):
        if not self.gc_needed():
            return
        entry = len(self.empty)
        # victims since the empty count last reached a new high, bounded
        limit = max(self.zones, self.zone_cap // self.region) + 1
        best = entry
        stagnant = 0
        while len(self.empty) < self.stop:
            if not self.read:
                raise ModelError("GcStalled")
            victim = min(self.read, key=lambda z: (self.valid[z], z))
            for _, vaddr in list(self.rev[victim]):
                verb = decide(vaddr)
                if verb == "migrate":
                    self.read_bytes += self.region
                    new_paddr = self._append()
                    self._unmap(vaddr, self.fwd[vaddr])
                    self._map(vaddr, new_paddr)
                    self.migrated_bytes += self.region
                elif verb == "drop":
                    self._unmap(vaddr, self.fwd.pop(vaddr))
                else:
                    raise RuntimeError(f"model: unexpected verb {verb}")
            assert not self.rev[victim]
            self._reset(victim)
            if len(self.empty) > best:
                best = len(self.empty)
                stagnant = 0
            else:
                stagnant += 1
            if stagnant > limit:
                raise ModelError("GcStalled")
        self.gc_cycles += 1
        self.gc_log.append((entry, len(self.empty)))


# --- page-mapped flash backend ----------------------------------------------------

class FtlModel:
    """Logical page remap with greedy inline cleaning, page granularity."""

    def __init__(self, page, ppb, blocks, op_ratio, trigger):
        self.page = page
        self.ppb = ppb
        self.blocks = blocks
        raw = int(blocks * ppb * page / (1.0 + op_ratio))
        self.exported = raw - raw % page
        self.trigger = trigger
        self.map = {}                      # lpage -> ppage
        self.owner = {}                    # ppage -> lpage, valid only
        self.valid = [0] * blocks
        self.free = list(range(blocks))    # ascending
        self.active = None
        self.filled = 0
        self.host_bytes = 0
        self.nand_bytes = 0
        self.read_bytes = 0
        self.migrated_bytes = 0
        self.gc_runs = 0
        self.erases = 0

    def _alloc(self):
        if self.active is None or self.filled == self.ppb:
            if not self.free:
                raise ModelError("DeviceBusy")
            self.active = self.free.pop(0)
            self.filled = 0
        ppage = self.active * self.ppb + self.filled
        self.filled += 1
        return ppage

    def _place(self, lpage):
        old = self.map.get(lpage)
        ppage = self._alloc()
        if old is not None:
            self.valid[old // self.ppb] -= 1
            del self.owner[old]
        self.map[lpage] = ppage
        self.owner[ppage] = lpage
        self.valid[ppage // self.ppb] += 1
        self.nand_bytes += self.page

    def _victim(self):
        free = set(self.free)
        best = None
        for b in range(self.blocks):
            # the active block is a candidate once it is full
            if (b == self.active and self.filled < self.ppb) or b in free:
                continue
            if best is None or self.valid[b] < self.valid[best]:
                best = b
        return best

    def _gc(self):
        if len(self.free) >= self.trigger:
            return
        self.gc_runs += 1
        while len(self.free) < self.trigger:
            victim = self._victim()
            if victim is None or self.valid[victim] >= self.ppb:
                break
            for ppage in range(victim * self.ppb, (victim + 1) * self.ppb):
                lpage = self.owner.get(ppage)
                if lpage is None:
                    continue
                self.valid[victim] -= 1
                del self.owner[ppage]
                new_ppage = self._alloc()
                self.map[lpage] = new_ppage
                self.owner[new_ppage] = lpage
                self.valid[new_ppage // self.ppb] += 1
                self.nand_bytes += self.page
                self.migrated_bytes += self.page
            self.erases += 1
            bisect.insort(self.free, victim)

    def write(self, addr, nbytes):
        assert addr % self.page == 0 and nbytes % self.page == 0
        assert 0 <= addr and addr + nbytes <= self.exported
        first = addr // self.page
        for i in range(nbytes // self.page):
            if (self.active is None or self.filled == self.ppb) \
                    and len(self.free) < self.trigger:
                self._gc()
            self._place(first + i)
            self.host_bytes += self.page

    def read(self, addr, nbytes):
        for lpage in range(addr // self.page, (addr + nbytes - 1) // self.page + 1):
            assert lpage in self.map
        self.read_bytes += nbytes


class FtlStoreModel:
    """Region-store facade over FtlModel; invalidation is a no-op."""

    def __init__(self, ftl, region):
        self.ftl = ftl
        self.region = region
        self.host_bytes = 0

    def write_region(self, vaddr):
        self.ftl.write(vaddr, self.region)
        self.host_bytes += self.region

    def read_region(self, vaddr, offset, size):
        self.ftl.read(vaddr + offset, size)

    def invalidate(self, vaddr):
        pass

    def zone_of(self, vaddr):
        return None


# --- region cache ---------------------------------------------------------------

class CacheModel:
    """Buffer packing, recency lists, eviction, and the in-place drop path."""

    def __init__(self, capacity, region, policy, vop_ratio, reorder, store):
        self.capacity = capacity
        self.region = region
        self.policy = policy                 # "fifo" | "lru" | "zlru"
        self.vop_ratio = vop_ratio if policy == "zlru" else 0.0
        self.reorder = reorder and policy == "zlru"
        self.store = store
        self.free = list(range(capacity))[::-1]   # pop() -> lowest id first
        self.status = ["free"] * capacity
        self.keys = [dict() for _ in range(capacity)]
        self.index = {}                      # key -> (rid, offset, size)
        self.main = []                       # index 0 = most recent
        self.vop = []
        self.buffered = None
        self.buf_fill = 0
        self.hits = 0
        self.misses = 0
        self.inserted = 0
        self.evicted = 0
        self.dropped = 0
        self.flushes = 0

    def vaddr(self, rid):
        return rid * self.region

    def _target(self):
        return int(self.vop_ratio * (len(self.main) + len(self.vop)))

    def _rebalance(self):
        while len(self.vop) < self._target() and self.main:
            self.vop.insert(0, self.main.pop())

    def _reorder(self):
        if not self.reorder:
            return
        main_count = {}
        holding = set()
        for rid in self.main:
            z = self.store.zone_of(self.vaddr(rid))
            holding.add(z)
            main_count[z] = main_count.get(z, 0) + 1
        vop_zone = {rid: self.store.zone_of(self.vaddr(rid)) for rid in self.vop}
        holding.update(vop_zone.values())
        if not holding:
            return
        average = sum(main_count.values()) / len(holding)
        hot = {z for z in holding if main_count.get(z, 0) < average}
        for rid in [r for r in self.vop if vop_zone[r] in hot]:
            self.vop.remove(rid)
            self.vop.append(rid)

    def _alloc(self):
        if not self.free:
            self.evict_one()
        rid = self.free.pop()
        self.status[rid] = "buffered"
        self.keys[rid] = {}
        self.buffered = rid
        self.buf_fill = 0

    def _flush(self):
        rid = self.buffered
        self.store.write_region(self.vaddr(rid))
        self.status[rid] = "flushed"
        self.main.insert(0, rid)
        self._rebalance()
        self.flushes += 1
        self.buffered = None
        if self.policy == "zlru":
            self._reorder()

    def insert(self, key, size):
        assert size <= self.region
        if self.buffered is None:
            self._alloc()
        if self.buf_fill + size > self.region:
            self._flush()
            self._alloc()
        offset = self.buf_fill
        self.buf_fill += size
        old = self.index.get(key)
        if old is not None:
            self.keys[old[0]].pop(key, None)
        self.keys[self.buffered][key] = (offset, size)
        self.index[key] = (self.buffered, offset, size)
        self.inserted += size

    def lookup(self, key):
        entry = self.index.get(key)
        if entry is None:
            self.misses += 1
            return False
        rid, offset, size = entry
        if self.status[rid] == "buffered":
            self.hits += 1
            return True
        self.store.read_region(self.vaddr(rid), offset, size)
        self.hits += 1
        if self.policy != "fifo":
            if rid in self.vop:
                self.vop.remove(rid)
                self.main.insert(0, rid)
                self._rebalance()
            else:
                self.main.remove(rid)
                self.main.insert(0, rid)
        return True

    def evict_one(self):
        if self.policy == "zlru" and self.vop:
            rid = self.vop[-1]
        elif self.main:
            rid = self.main[-1]
        elif self.vop:
            rid = self.vop[-1]
        else:
            raise ModelError("NothingToEvict")
        self._teardown(rid, invalidate=True)
        self.evicted += 1

    def _teardown(self, rid, invalidate):
        for key in self.keys[rid]:
            del self.index[key]
        self.keys[rid] = {}
        if invalidate:
            self.store.invalidate(self.vaddr(rid))
        if rid in self.vop:
            self.vop.remove(rid)
        else:
            self.main.remove(rid)
        self.status[rid] = "free"
        self.free.append(rid)
        self._rebalance()

    def zdrop(self, vaddr):
        rid = vaddr // self.region
        if rid in self.vop:
            self._teardown(rid, invalidate=False)
            self.dropped += 1
            return "drop"
        return "migrate"


# --- assembled schemes -------------------------------------------------------------

_POLICIES = {"zcachelib": "zlru", "zns-middle-lru": "lru",
             "zns-middle-fifo": "fifo", "zns-direct": "lru",
             "reg-lru": "lru", "reg-fifo": "fifo"}


class SchemeModel:
    """Mirror of one assembled engine on the small test geometry."""

    def __init__(self, name, zones=8, zone_cap=32 * 1024, region=16 * 1024,
                 capacity=7, min_w=2, w_low=25.0, w_high=50.0,
                 vop_ratio=1.0, page=4096, ppb=2, reorder=True,
                 op_ratio=0.07):
        self.name = name
        self.kind = ("reg" if name.startswith("reg") else
                     "drop" if name == "zcachelib" else "migrate")
        if name == "zns-direct":
            region = zone_cap
            min_w = 1
        if self.kind == "reg":
            ftl = FtlModel(page, ppb, zones * zone_cap // (page * ppb),
                           op_ratio, trigger=2)
            self.ftl = ftl
            self.store = FtlStoreModel(ftl, region)
        else:
            self.store = ZoneModel(zones, zone_cap, region, min_w,
                                   w_low, w_high)
        self.cache = CacheModel(capacity, region, _POLICIES[name],
                                vop_ratio, reorder, self.store)

    def apply(self, is_get, key, size):
        """One scripted op with miss-fill; returns the hit flag for gets."""
        hit = None
        if is_get:
            hit = self.cache.lookup(key)
            if not hit:
                self.cache.insert(key, size)
        else:
            self.cache.insert(key, size)
        self.tick_gc()
        return hit

    def tick_gc(self):
        """Background cleaning at an op boundary; the FTL cleans inline."""
        if self.kind == "reg" or not self.store.gc_needed():
            return
        self.store.gc(self.cache.zdrop if self.kind == "drop"
                      else lambda v: "migrate")

    def run(self, script):
        hits = []
        for op in script:
            result = self.apply(*op)
            if op[0]:
                hits.append(result)
        return hits

    def snapshot(self):
        c = self.cache
        snap = {
            "hits": c.hits, "misses": c.misses, "inserted": c.inserted,
            "evicted": c.evicted, "dropped": c.dropped, "flushes": c.flushes,
            "index": dict(c.index), "main": list(c.main), "vop": list(c.vop),
            "status": list(c.status), "buffered": c.buffered,
            "cache_bytes": self.store.host_bytes,
        }
        if self.kind == "reg":
            f = self.ftl
            snap.update({
                "device_written": f.nand_bytes,
                "device_read": f.read_bytes + f.migrated_bytes,
                "migrated": f.migrated_bytes, "gc_cycles": f.gc_runs,
                "resets": f.erases, "page_map": dict(f.map),
                "free_blocks": list(f.free),
            })
        else:
            s = self.store
            snap.update({
                "device_written": s.appended_bytes, "device_read": s.read_bytes,
                "migrated": s.migrated_bytes, "gc_cycles": s.gc_cycles,
                "resets": s.resets, "gc_log": list(s.gc_log),
                "forward": dict(s.fwd),
                "groups": (list(s.empty), list(s.write), set(s.read)),
                "write_pointers": [s.fill[z] * s.region for z in range(s.zones)],
            })
        return snap


def _status(cache, rid):
    """A region's status, read from where the engine holds its id."""
    if rid == cache._buffered:
        return "buffered"
    if rid in cache.main or rid in cache.vop:
        return "flushed"
    if rid in cache.free_slots:
        return "free"
    return "lost"


def engine_snapshot(engine, name):
    """The same observable state, extracted from a real engine."""
    m = engine.metrics()
    cache = engine.cache
    snap = {
        "hits": m.hits, "misses": m.misses, "inserted": m.inserted_bytes,
        "evicted": m.evicted_regions, "dropped": m.dropped_regions,
        "flushes": cache.flushed_count,
        "index": dict(cache.index), "main": list(cache.main),
        "vop": list(cache.vop),
        "status": [_status(cache, rid)
                   for rid in range(cache.capacity_regions)],
        "buffered": cache._buffered,
        "cache_bytes": m.cache_bytes_written,
        "device_written": m.device_bytes_written,
        "device_read": m.device_bytes_read,
        "migrated": m.gc_migrated_bytes, "gc_cycles": m.gc_cycles,
        "resets": m.zone_resets,
    }
    if name.startswith("reg"):
        ftl = engine.ftl
        snap.update({"page_map": {lpage: ppage for lpage, ppage
                                  in enumerate(ftl.mapping) if ppage >= 0},
                     "free_blocks": sorted(ftl.free_blocks)})
    else:
        store = engine.store
        snap.update({
            "gc_log": list(store.gc_log),
            "forward": dict(store.forward),
            "groups": store.groups(),
            "write_pointers": [engine.device.write_pointer(z)
                               for z in range(store.zone_count)],
        })
    return snap
