"""In-memory emulation of a zoned (ZNS-style) SSD.

Zones are append-only: each zone accepts writes only at its write pointer
and is cleaned as a whole by reset. The write pointer is a zone's only
state: a zone is EMPTY at 0, FULL at capacity and (implicitly) OPEN in
between, since the device has no explicit open, close or finish command.
Payloads are stored byte-faithfully so read-back and migration tests can
compare actual buffers, not just sizes.

The device holds what it is given and copies nothing but part of an
append:
  append      holds the caller's payload at the zone's write pointer; the
              caller must not write to it while the device holds it;
  copy        of one whole append moves it, like NVMe ZNS Simple Copy, and
              the source range reads as deallocated; any other range is
              copied;
  deallocate  drops one whole append (like an NVMe Deallocate hint), leaves
              its range unreadable and says whether the zone still holds
              any append;
  reset       drops all the zone holds.
A payload appended once is thus held at one address at most, and the
device keeps no count of who holds what.

Like every layer above it, the device is driven from one thread: each
operation completes before the next starts, so none locks or retries.
"""

import bisect
from dataclasses import dataclass, replace
from enum import Enum

from . import errors
from .memory import PAGE

MIB = 1024 * 1024
MAX_OPEN_ZONES = 14  # as real ZNS drives cap them (Bjorling et al., ATC 2021)


class ZoneState(Enum):
    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


@dataclass
class DeviceConfig:
    zone_count: int = 64
    zone_capacity: int = 64 * MIB
    max_open_zones: int = MAX_OPEN_ZONES

    def validate(self):
        if self.zone_count < 1:
            raise errors.InvalidConfig("zone_count must be >= 1")
        if self.zone_capacity < 1:
            raise errors.InvalidConfig("zone_capacity must be >= 1")
        if self.zone_capacity % PAGE != 0:
            raise errors.InvalidConfig(f"zone_capacity must be a multiple of {PAGE}")
        if not (1 <= self.max_open_zones <= self.zone_count):
            raise errors.InvalidConfig("max_open_zones must be in [1, zone_count]")


@dataclass
class ZoneSnapshot:
    id: int
    state: ZoneState
    write_pointer: int


@dataclass
class DeviceCounters:
    total_appended_bytes: int = 0
    total_read_bytes: int = 0
    total_resets: int = 0


class _Zone:
    __slots__ = ("id", "write_pointer", "chunks", "chunk_starts")

    def __init__(self, zone_id):
        self.id = zone_id
        self.write_pointer = 0
        # buffers in append order; chunk_starts[i] is the zone offset of chunks[i]
        self.chunks = []
        self.chunk_starts = []


class ZnsDevice:
    """One emulated zoned device."""

    def __init__(self, config: DeviceConfig):
        config.validate()
        self.config = config
        self._zones = [_Zone(i) for i in range(config.zone_count)]
        self.counters = DeviceCounters()

    # -- helpers -----------------------------------------------------------

    def _zone(self, zone_id) -> _Zone:
        if not 0 <= zone_id < self.config.zone_count:
            raise errors.OutOfRange(f"no such zone: {zone_id}")
        return self._zones[zone_id]

    def zone_state(self, zone_id) -> ZoneState:
        wp = self._zone(zone_id).write_pointer
        if wp == 0:
            return ZoneState.EMPTY
        if wp == self.config.zone_capacity:
            return ZoneState.FULL
        return ZoneState.OPEN

    def open_zone_count(self) -> int:
        cap = self.config.zone_capacity
        return sum(1 for wp in self.write_pointers() if 0 < wp < cap)

    def write_pointer(self, zone_id) -> int:
        return self._zone(zone_id).write_pointer

    def write_pointers(self) -> list:
        return [z.write_pointer for z in self._zones]

    def _admit(self, zone_id, length) -> _Zone:
        """Check that `length` bytes fit at the zone's write pointer; a
        non-empty write opens an empty zone implicitly."""
        cap = self.config.zone_capacity
        zone = self._zone(zone_id)
        wp = zone.write_pointer
        if wp == cap:
            raise errors.ZoneNotWritable(f"zone {zone_id} is full")
        if wp + length > cap:
            raise errors.ZoneFull(
                f"zone {zone_id}: {length} bytes exceed remaining {cap - wp}")
        if (length and wp == 0
                and self.open_zone_count() >= self.config.max_open_zones):
            raise errors.MaxOpenZonesExceeded(
                f"opening zone {zone_id} would exceed "
                f"{self.config.max_open_zones} open zones")
        return zone

    def _hold(self, zone, buf) -> int:
        """Place `buf` at the zone's write pointer; returns its address."""
        cap = self.config.zone_capacity
        addr = zone.id * cap + zone.write_pointer
        zone.chunk_starts.append(zone.write_pointer)
        zone.chunks.append(buf)
        zone.write_pointer += len(buf)
        self.counters.total_appended_bytes += len(buf)
        return addr

    def _locate(self, physical_address, length):
        """The zone and zone offset of a readable range."""
        cap = self.config.zone_capacity
        if physical_address < 0 or length < 0:
            raise errors.OutOfRange("negative address or length")
        zone_id, offset = divmod(physical_address, cap)
        if zone_id >= self.config.zone_count:  # the address is not negative
            raise errors.OutOfRange(f"no such zone: {zone_id}")
        zone = self._zones[zone_id]
        if offset + length > cap:
            raise errors.CrossZoneRead(
                f"range [{offset}, {offset + length}) spans past zone {zone_id}")
        if offset + length > zone.write_pointer:
            raise errors.ReadBeyondWritePointer(
                f"zone {zone_id}: read up to {offset + length} but write "
                f"pointer is {zone.write_pointer}")
        return zone, offset

    @staticmethod
    def _whole(zone, offset, length):
        """The index of the held append that is exactly this range, or None."""
        i = bisect.bisect_right(zone.chunk_starts, offset) - 1
        buf = zone.chunks[i] if length else None
        if buf is None or zone.chunk_starts[i] != offset or len(buf) != length:
            return None
        return i

    # -- operations --------------------------------------------------------

    def append(self, zone_id: int, payload) -> int:
        """Hold payload at the zone's write pointer, without a copy; returns
        the device-global physical address (zone_id * zone_capacity +
        previous write pointer)."""
        zone = self._admit(zone_id, len(payload))
        if len(payload) == 0:
            return zone_id * self.config.zone_capacity + zone.write_pointer
        return self._hold(zone, payload)

    def copy(self, src_paddr: int, length: int, zone_id: int) -> int:
        """Copy a range to the zone's write pointer inside the device;
        returns the destination address. Traffic is charged as a read of
        the range plus an append of it. A range that is one whole append
        moves, and reads as deallocated at its source from then on."""
        src, offset = self._locate(src_paddr, length)
        zone = self._admit(zone_id, length)
        if length == 0:
            return zone_id * self.config.zone_capacity + zone.write_pointer
        i = self._whole(src, offset, length)
        if i is None:
            buf = self._slice(src, offset, length)
        else:
            buf, src.chunks[i] = src.chunks[i], None
        self.counters.total_read_bytes += length
        return self._hold(zone, buf)

    def read(self, physical_address: int, length: int) -> bytes:
        zone, offset = self._locate(physical_address, length)
        if not length:
            return b""
        i = bisect.bisect_right(zone.chunk_starts, offset) - 1
        chunk, lo = zone.chunks[i], offset - zone.chunk_starts[i]
        if chunk is not None and lo + length <= len(chunk):
            data = chunk[lo:lo + length]  # the range lies in one append
        else:
            data = self._slice(zone, offset, length)
        self.counters.total_read_bytes += length
        return data

    @staticmethod
    def _slice(zone, offset, length) -> bytes:
        """The range's bytes, joined from the appends that hold it."""
        starts = zone.chunk_starts
        i = bisect.bisect_right(starts, offset) - 1
        chunks = zone.chunks[i:bisect.bisect_left(starts, offset + length)]
        if None in chunks:
            raise errors.Unmapped(f"zone {zone.id}: {offset} +{length} is freed")
        lo = offset - starts[i]
        return b"".join(chunks)[lo:lo + length]

    def deallocate(self, physical_address: int, length: int) -> bool:
        """Drop the one append that is exactly this range, and return
        whether its zone still holds any append. The range reads as
        unmapped from then on; nothing is charged and no zone state moves."""
        zone, offset = self._locate(physical_address, length)
        i = self._whole(zone, offset, length)
        if i is None:
            raise errors.Misaligned(f"zone {zone.id}: [{offset}, "
                                    f"{offset + length}) is not one append")
        zone.chunks[i] = None
        return any(chunk is not None for chunk in zone.chunks)

    def reset(self, zone_id: int):
        """Wipe the zone and return it to EMPTY, dropping all it holds."""
        zone = self._zone(zone_id)
        zone.write_pointer = 0
        zone.chunks = []
        zone.chunk_starts = []
        self.counters.total_resets += 1

    def report(self):
        """Point-in-time snapshot of all zones plus the device counters."""
        # perfbench/tracer.py patches this by name; ROADMAP item 6 deletes it
        snaps = [ZoneSnapshot(z.id, self.zone_state(z.id), z.write_pointer)
                 for z in self._zones]
        return snaps, replace(self.counters)
