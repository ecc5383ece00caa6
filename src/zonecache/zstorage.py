"""Region-granular storage engine over the zoned device.

Provisioned zones are partitioned into three groups: empty zones, write
zones (append targets, rotated round-robin), and read zones (full, eligible
GC victims). The store keeps `min_write_zones` write zones open, within the
device's open-zone limit: before each append it tops them up from the
lowest-numbered empty zones, and it runs with fewer only when none is left.
Only write zones are appended to, and a write zone leaves the rotation as it
fills, so the other groups are read from the device's write pointers.

One map links region virtual addresses to device physical addresses, and
the data append always lands before the map update. It is the store's only
record of regions: a zone's valid bytes are counted from it. Zones are
append-only, so a zone's regions in address order are in append order.

Each region address has one buffer for the whole run, in `buffers`: the
store maps it on the address's first `region_buffer`, lends it with a
`fault_in(start, length)` that advises a range of it (one
`memory.Populator` advice per call), and lends it again with None, since
the fill that first wrote it faulted it in as far as its steps reached
(`zcache`). The device holds a written buffer as is, and GC moves it, so
the store refuses to lend the buffer of an address `forward` maps: a
write there would change a live region.

The store frees every region's bytes and resets every zone. An eviction,
a rewrite or a GC drop deallocates the old copy at once, and a full zone
left holding no region (`ZnsDevice.deallocate` says) is reset with it.
GC is watermark driven: it starts below the low watermark, never on zones
of one region (a full one holds a live region), and stops at the high
one. A cycle reads the map once, into a per-zone view it updates as
migrations land, and each decision reads the write pointers in one pass.
A caller supplied drop filter decides each victim region's fate: the
cache owns policy, the store mechanism.

Everything runs on one thread: the scheme calls GC between cache
operations, so no read overlaps a reset. Every region mapped in a victim
belongs to a flushed cache region, lives in that victim, and stays mapped
there until the drop filter answers; the filter only decides and never
touches the map.
"""

import math
import mmap
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import errors
from .memory import Populator

MIB = 1024 * 1024


class DropVerb(Enum):
    MIGRATE = "migrate"
    DROP = "drop"


def watermark_zones(percent, zone_count: int) -> int:
    """Zone-count threshold for a percentage watermark, rounded up so tiny
    devices still keep at least one zone of margin."""
    return math.ceil(Fraction(str(percent)) * zone_count / 100)


@dataclass
class OpPlan:
    t_cache: float   # cache write rate, MiB/s
    t_gc: float      # cleaning throughput, MiB/s
    k: float         # victim-invalidity skew factor (>= 1)
    r_op: float      # reserved / usable space
    r_invalid: float # average invalid fraction across zones at equilibrium


def compute_min_op(t_cache, t_gc, k) -> OpPlan:
    """Smallest over-provisioning ratio at which cleaning keeps up with the
    cache write rate, given that victims carry k times the average invalid
    ratio."""
    if t_cache <= 0 or t_gc <= 0:
        raise errors.InvalidConfig("rates must be positive")
    if k < 1:
        raise errors.InvalidConfig("k must be >= 1")
    denom = k * t_gc - t_cache
    if denom <= 0:
        raise errors.InfeasibleRates(
            f"k*t_gc ({k * t_gc}) must exceed t_cache ({t_cache})")
    r_op = t_cache / denom
    return OpPlan(t_cache, t_gc, k, r_op, r_op / (1.0 + r_op))


@dataclass
class GcStats:
    migrated_bytes: int = 0
    migrated_regions: int = 0
    dropped_regions: int = 0
    reclaimed_zones: int = 0


class ZoneStore:
    """Owns the write zones, the region map, and GC for one device, and keeps
    `min_write_zones` write zones open, fewer only when no zone is empty.
    GC starts below `w_low` and stops at `w_high` percent of the zones
    empty."""

    def __init__(self, device, region_size: int, w_low: float = 1.0,
                 w_high: float = 3.0, min_write_zones: int = 4):
        if region_size < 1 or device.config.zone_capacity % region_size != 0:
            raise errors.InvalidConfig(
                "zone_capacity must be a positive multiple of region_size")
        limit = device.config.max_open_zones
        if not 1 <= min_write_zones <= limit:
            raise errors.InvalidConfig(
                f"min_write_zones must be in [1, {limit}], the device's "
                f"open-zone limit")
        if not 0 < w_low < w_high <= 100:
            raise errors.InvalidConfig("need 0 < w_low < w_high <= 100")
        self.device = device
        self.region_size = region_size
        self.min_write_zones = min_write_zones

        self.zone_count = device.config.zone_count
        self.gc_trigger_zones = watermark_zones(w_low, self.zone_count)
        self.gc_stop_zones = watermark_zones(w_high, self.zone_count)
        self.write_zones = []        # rotation order
        self._rr = 0

        self.forward = {}            # region virtual address -> physical address
        self.buffers = {}            # region virtual address -> its one buffer
        self._populator = Populator()

        self.migrated_bytes = 0
        self.gc_log = []             # (empty count at entry, empty count at exit)

    # -- zone groups ---------------------------------------------------------

    @property
    def empty_zones(self) -> list:
        """Zones at write pointer 0 outside the rotation, lowest id first."""
        return [z for z, wp in enumerate(self.device.write_pointers())
                if wp == 0 and z not in self.write_zones]

    @property
    def read_zones(self) -> list:
        """Zones at capacity, lowest id first."""
        return [z for z, wp in enumerate(self.device.write_pointers())
                if wp == self.device.config.zone_capacity]

    def gc_needed(self) -> bool:
        return (self.region_size < self.device.config.zone_capacity
                and len(self.empty_zones) < self.gc_trigger_zones)

    def groups(self):
        return self.empty_zones, list(self.write_zones), set(self.read_zones)

    @property
    def valid_bytes(self) -> dict:
        """Mapped bytes per zone, every zone listed, counted from `forward`."""
        cap = self.device.config.zone_capacity
        valid = dict.fromkeys(range(self.zone_count), 0)
        for paddr in self.forward.values():
            valid[paddr // cap] += self.region_size
        return valid

    def _vaddrs_by_zone(self) -> dict:  # zones holding no region are absent
        vaddrs, cap = {}, self.device.config.zone_capacity
        for vaddr, paddr in self.forward.items():
            vaddrs.setdefault(paddr // cap, []).append(vaddr)
        return vaddrs

    def _place(self, write) -> int:
        """Run `write(zone_id)` on the next write zone, topped up from the
        empty zones; returns its address. A zone it fills is retired."""
        missing = self.min_write_zones - len(self.write_zones)
        if missing > 0:  # listing the empty zones reads every write pointer
            self.write_zones += self.empty_zones[:missing]
        if not self.write_zones:
            raise errors.NoWritableZone(
                "no empty zones left and every write zone is full")
        idx = self._rr % len(self.write_zones)
        self._rr = idx + 1
        zone_id = self.write_zones[idx]
        paddr = write(zone_id)
        if self.device.write_pointer(zone_id) == self.device.config.zone_capacity:
            del self.write_zones[idx]
            self._rr = idx
        return paddr

    # -- mapping ---------------------------------------------------------------

    def zone_of(self, vaddr):
        paddr = self.forward.get(vaddr)
        if paddr is None:
            return None
        return paddr // self.device.config.zone_capacity

    def region_buffer(self, vaddr):
        """The one buffer of the region at `vaddr`, and its fault-in: on
        the first lend, which maps the buffer, a call that advises a range
        of it, else None. Refuses an address that `forward` maps, whose
        buffer the device holds."""
        if vaddr in self.forward:
            raise RuntimeError(f"region {vaddr} is mapped: its buffer is live")
        buf = self.buffers.get(vaddr)
        if buf is not None:
            return buf, None
        buf = self.buffers[vaddr] = mmap.mmap(-1, self.region_size,
                                              flags=mmap.MAP_PRIVATE)
        return buf, lambda start, n: self._populator.populate(buf, start, n)

    def write_region(self, virtual_address: int, payload) -> int:
        """Append one region and map it. The device holds the payload with
        no copy, so its writer must not change it while it is mapped."""
        if len(payload) != self.region_size:
            raise errors.SizeMismatch(
                f"payload is {len(payload)} bytes, region size is {self.region_size}")
        if virtual_address % self.region_size != 0:
            raise errors.Misaligned("virtual address must be region-aligned")
        # data lands before metadata, and the new copy maps before the old goes
        paddr = self._place(lambda zone: self.device.append(zone, payload))
        old = self.forward.get(virtual_address)
        self.forward[virtual_address] = paddr
        if old is not None:
            self._free(old)
        return paddr

    def read_region(self, virtual_address: int, offset: int = 0,
                    length: int = None) -> bytes:
        paddr = self.forward.get(virtual_address)
        if paddr is None:
            raise errors.UnmappedRegion(f"virtual address {virtual_address}")
        if length is None:
            length = self.region_size - offset
        return self.device.read(paddr + offset, length)

    def invalidate_region(self, virtual_address: int):
        """Unmap the region and deallocate its bytes on the device."""
        paddr = self.forward.pop(virtual_address, None)
        if paddr is None:
            raise errors.UnmappedRegion(f"virtual address {virtual_address}")
        self._free(paddr)

    def _free(self, paddr):  # resets a full zone left holding no region
        cap = self.device.config.zone_capacity
        if (not self.device.deallocate(paddr, self.region_size)
                and self.device.write_pointer(paddr // cap) == cap):
            self.device.reset(paddr // cap)

    # -- garbage collection ------------------------------------------------------

    def select_victim(self, view=None) -> int:
        """Full zone with fewest regions in `view` (`_vaddrs_by_zone()` if None)."""
        full = self.read_zones
        if not full:
            raise errors.GcStalled("below low watermark with no victim available")
        view = self._vaddrs_by_zone() if view is None else view
        return min(full, key=lambda z: (len(view.get(z, ())), z))

    def gc_cycle(self, drop_filter) -> GcStats:
        """One watermark-bounded cleaning pass.

        No-op unless below the trigger watermark. Reads `forward` once,
        into a view updated as migrations land, and picks each victim from
        it; the drop filter answers Migrate or Drop for each of the victim's
        regions in append order, then the victim is reset and returns to empty.
        """
        stats = GcStats()
        if not self.gc_needed():
            return stats
        entry_empty = empty = best = len(self.empty_zones)
        # cleaning can make no net progress: a victim's migrations eat the
        # space its reset frees, or the empty count see-saws below a stop
        # target that valid data plus write zones leave no room for; bound
        # the victims since the count last reached a new high so such
        # misconfiguration (OP too small) fails loudly instead of spinning
        regions_per_zone = self.device.config.zone_capacity // self.region_size
        stagnant_limit = max(self.zone_count, regions_per_zone) + 1
        stagnant = 0
        view = self._vaddrs_by_zone()
        while empty < self.gc_stop_zones:
            self._clean_zone(self.select_victim(view), drop_filter, stats, view)
            empty = len(self.empty_zones)
            if empty > best:
                best = empty
                stagnant = 0
            else:
                stagnant += 1
            if stagnant > stagnant_limit:
                raise errors.GcStalled(
                    "cleaning makes no net progress toward the stop watermark")
        self.gc_log.append((entry_empty, empty))
        return stats

    def _clean_zone(self, victim, drop_filter, stats, view):
        cap = self.device.config.zone_capacity
        for vaddr in sorted(view.pop(victim, ()), key=self.forward.get):
            paddr = self.forward[vaddr]  # address order is append order
            verb = drop_filter(vaddr)
            if verb is DropVerb.MIGRATE:
                moved = self.forward[vaddr] = self._place(
                    lambda zone: self.device.copy(paddr, self.region_size, zone))
                view.setdefault(moved // cap, []).append(vaddr)
                self.migrated_bytes += self.region_size
                stats.migrated_bytes += self.region_size
                stats.migrated_regions += 1
            elif verb is DropVerb.DROP:
                del self.forward[vaddr]
                self.device.deallocate(paddr, self.region_size)
                stats.dropped_regions += 1
            else:
                raise RuntimeError(f"drop filter returned {verb!r}")
        if any(p // cap == victim for p in self.forward.values()):
            raise RuntimeError(
                f"zone {victim} still holds mapped regions after cleaning")
        self.device.reset(victim)
        stats.reclaimed_zones += 1
