"""Region-granular storage engine over the zoned device.

Provisioned zones are partitioned into three groups: empty zones, write
zones (append targets, rotated round-robin), and read zones (full, eligible
GC victims). The store keeps `min_write_zones` write zones open, within the
device's open-zone limit: before each append it tops them up from the
lowest-numbered empty zones, and it runs with fewer only when none is left.

A bidirectional map links region virtual addresses to device physical
addresses; both directions are updated as one atomic pair, and the data
append always lands before the map update.

Background GC is watermark-driven: it starts when the empty-zone count
falls below the low watermark and stops once the high watermark is reached.
What happens to each valid region in a victim zone is decided by a caller
supplied drop filter, so the cache layer owns policy while this layer owns
mechanism.

Everything runs on one thread: the scheme calls GC between cache
operations, so no read overlaps a reset. Every region mapped in a victim
belongs to a flushed cache region, lives in that victim, and stays mapped
there until the drop filter answers; the filter only decides and never
touches the map.
"""

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import errors

MIB = 1024 * 1024


class DropVerb(Enum):
    MIGRATE = "migrate"
    DROP = "drop"


@dataclass
class GcConfig:
    w_low: float = 1.0    # percent of provisioned zones; GC trigger
    w_high: float = 3.0   # percent; GC stop target

    def validate(self):
        if not (0 < self.w_low < self.w_high <= 100):
            raise errors.InvalidConfig("need 0 < w_low < w_high <= 100")


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
    """Owns zone grouping, the region map, and GC for one device, and keeps
    `min_write_zones` write zones open, fewer only when no zone is empty."""

    def __init__(self, device, region_size: int, gc_config: GcConfig = None,
                 min_write_zones: int = 4):
        if region_size < 1 or device.config.zone_capacity % region_size != 0:
            raise errors.InvalidConfig(
                "zone_capacity must be a positive multiple of region_size")
        if not 1 <= min_write_zones <= device.config.max_open_zones:
            raise errors.InvalidConfig(
                "need 1 <= min_write_zones <= max_open_zones")
        self.device = device
        self.region_size = region_size
        self.gc_config = gc_config or GcConfig()
        self.gc_config.validate()
        self.min_write_zones = min_write_zones

        self.zone_count = device.config.zone_count
        self.gc_trigger_zones = watermark_zones(self.gc_config.w_low, self.zone_count)
        self.gc_stop_zones = watermark_zones(self.gc_config.w_high, self.zone_count)
        self.empty_zones = list(range(self.zone_count))  # heap, lowest id first
        heapq.heapify(self.empty_zones)
        self.write_zones = []        # rotation order
        self.read_zones = set()
        self._rr = 0

        self.forward = {}            # region virtual address -> physical address
        self.reverse = {z: {} for z in range(self.zone_count)}  # per zone: paddr -> vaddr
        self.valid_bytes = {z: 0 for z in range(self.zone_count)}

        self.migrated_bytes = 0
        self.gc_log = []             # (empty count at entry, empty count at exit)

    # -- zone group bookkeeping ------------------------------------------------

    def gc_needed(self) -> bool:
        return len(self.empty_zones) < self.gc_trigger_zones

    def groups(self):
        return (sorted(self.empty_zones), list(self.write_zones),
                set(self.read_zones))

    def _replenish_write_zones(self):
        while len(self.write_zones) < self.min_write_zones and self.empty_zones:
            self.write_zones.append(heapq.heappop(self.empty_zones))

    def _pick_write_zone(self) -> int:
        self._replenish_write_zones()
        if not self.write_zones:
            raise errors.NoWritableZone(
                "no empty zones left and every write zone is full")
        idx = self._rr % len(self.write_zones)
        self._rr = idx + 1
        return self.write_zones[idx]

    def _retire_if_full(self, zone_id):
        if self.device.write_pointer(zone_id) == self.device.config.zone_capacity:
            idx = self.write_zones.index(zone_id)
            self.write_zones.pop(idx)
            if idx < self._rr:
                self._rr -= 1
            self.read_zones.add(zone_id)

    def _place(self, write) -> int:
        """Run `write(zone_id)` on the next write zone; returns its address."""
        zone_id = self._pick_write_zone()
        paddr = write(zone_id)
        self._retire_if_full(zone_id)
        return paddr

    # -- mapping ---------------------------------------------------------------

    def _unmap(self, vaddr):
        paddr = self.forward.pop(vaddr)
        zone = paddr // self.device.config.zone_capacity
        del self.reverse[zone][paddr]
        self.valid_bytes[zone] -= self.region_size

    def _map(self, vaddr, paddr):
        zone = paddr // self.device.config.zone_capacity
        self.forward[vaddr] = paddr
        self.reverse[zone][paddr] = vaddr
        self.valid_bytes[zone] += self.region_size

    def zone_of(self, vaddr):
        paddr = self.forward.get(vaddr)
        if paddr is None:
            return None
        return paddr // self.device.config.zone_capacity

    def region_buffer(self, vaddr):
        """A device buffer for the region at `vaddr` (ignored here). Writing
        it hands it to the device without a copy; take a new one after."""
        return self.device.lend_buffer(self.region_size)

    def fault_in(self, vaddr, buffer, start, length):
        """Fault in `length` bytes of a `region_buffer` from `start`."""
        self.device.fault_in(buffer, start, length)

    def write_region(self, virtual_address: int, payload) -> int:
        """Append one region and map it. A buffer from `region_buffer`
        becomes the device's; any other payload is copied."""
        if len(payload) != self.region_size:
            raise errors.SizeMismatch(
                f"payload is {len(payload)} bytes, region size is {self.region_size}")
        if virtual_address % self.region_size != 0:
            raise errors.Misaligned("virtual address must be region-aligned")
        # data lands before metadata
        paddr = self._place(lambda zone: self.device.append(zone, payload))
        if virtual_address in self.forward:
            self._unmap(virtual_address)
        self._map(virtual_address, paddr)
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
        if virtual_address not in self.forward:
            raise errors.UnmappedRegion(f"virtual address {virtual_address}")
        self._unmap(virtual_address)

    # -- garbage collection ------------------------------------------------------

    def select_victim(self) -> int:
        if not self.read_zones:
            raise errors.NoVictimAvailable("read zone group is empty")
        return min(self.read_zones, key=lambda z: (self.valid_bytes[z], z))

    def gc_cycle(self, drop_filter) -> GcStats:
        """One watermark-bounded cleaning pass.

        For every valid region in each victim (in append order) the drop
        filter answers Migrate or Drop. The victim is then reset and
        returned to the empty group. No-op unless the trigger watermark
        has been crossed.
        """
        stats = GcStats()
        if not self.gc_needed():
            return stats
        entry_empty = len(self.empty_zones)
        stop = self.gc_stop_zones
        # cleaning can make no net progress: a victim's migrations eat the
        # space its reset frees, or the empty count see-saws below a stop
        # target that valid data plus write zones leave no room for; bound
        # the victims since the count last reached a new high so such
        # misconfiguration (OP too small) fails loudly instead of spinning
        regions_per_zone = self.device.config.zone_capacity // self.region_size
        stagnant_limit = max(self.zone_count, regions_per_zone) + 1
        best = entry_empty
        stagnant = 0
        while len(self.empty_zones) < stop:
            try:
                victim = self.select_victim()
            except errors.NoVictimAvailable:
                raise errors.GcStalled(
                    "below low watermark with no victim available")
            self._clean_zone(victim, drop_filter, stats)
            if len(self.empty_zones) > best:
                best = len(self.empty_zones)
                stagnant = 0
            else:
                stagnant += 1
            if stagnant > stagnant_limit:
                raise errors.GcStalled(
                    "cleaning makes no net progress toward the stop watermark")
        self.gc_log.append((entry_empty, len(self.empty_zones)))
        return stats

    def _clean_zone(self, victim, drop_filter, stats):
        snapshot = list(self.reverse[victim].items())  # append order
        for paddr, vaddr in snapshot:
            verb = drop_filter(vaddr)
            if verb is DropVerb.MIGRATE:
                new_paddr = self._place(
                    lambda zone: self.device.copy(paddr, self.region_size, zone))
                self._unmap(vaddr)
                self._map(vaddr, new_paddr)
                self.migrated_bytes += self.region_size
                stats.migrated_bytes += self.region_size
                stats.migrated_regions += 1
            elif verb is DropVerb.DROP:
                self._unmap(vaddr)
                stats.dropped_regions += 1
            else:
                raise errors.InvalidConfig(f"drop filter returned {verb!r}")
        if self.reverse[victim]:
            raise RuntimeError(
                f"zone {victim} still holds mapped regions after cleaning")
        self.device.reset(victim)
        self.read_zones.discard(victim)
        heapq.heappush(self.empty_zones, victim)
        stats.reclaimed_zones += 1

    def reclaim_invalid_read_zones(self) -> int:
        """Reset read zones holding no valid regions. This is plain space
        reclamation (zero migration), used by the GC-free direct layout."""
        reclaimed = 0
        for zone in sorted(self.read_zones):
            if self.valid_bytes[zone] == 0:
                self.device.reset(zone)
                self.read_zones.discard(zone)
                heapq.heappush(self.empty_zones, zone)
                reclaimed += 1
        return reclaimed
