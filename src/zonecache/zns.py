"""In-memory emulation of a zoned (ZNS-style) SSD.

Zones are append-only: each zone accepts writes only at its write pointer
and is cleaned as a whole by reset. The write pointer is a zone's only
state: a zone is EMPTY at 0, FULL at capacity and (implicitly) OPEN in
between, since the device has no explicit open, close or finish command.
Payloads are stored byte-faithfully so read-back and migration tests can
compare actual buffers, not just sizes.

The device owns the buffers that hold its data. It lends out writable
buffers (`lend_buffer`); appending a lent buffer whole hands it back
without a copy, and its borrower must not write to it again. Any other
payload is copied into a buffer the device owns. `copy` moves data between
zones inside the device, like NVMe ZNS Simple Copy: a whole appended
buffer is shared by reference, not copied. A reset returns the zone's
buffers to a free list, keyed by length, once no zone holds them any more;
lending and copying draw from that list before mapping a new buffer.

A new buffer is mapped without faulting its pages in. A lent buffer's
borrower asks for it to be faulted in a step at a time, just ahead of its
writes (`fault_in`); a buffer the device fills with a copy is faulted in
whole before the copy. Either way it takes one `memory.Populator` advice.

Like every layer above it, the device is driven from one thread: each
operation completes before the next starts, so none locks or retries.
"""

import bisect
import mmap
from dataclasses import dataclass, replace
from enum import Enum

from . import errors
from .memory import Populator

MIB = 1024 * 1024
PAGE = 4096


class ZoneState(Enum):
    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


@dataclass
class DeviceConfig:
    zone_count: int = 64
    zone_capacity: int = 64 * MIB
    max_open_zones: int = 14

    def validate(self):
        if self.zone_count < 1:
            raise errors.InvalidConfig("zone_count must be >= 1")
        if self.zone_capacity < 1:
            raise errors.InvalidConfig("zone_capacity must be >= 1")
        if self.zone_capacity % PAGE != 0:
            raise errors.InvalidConfig("zone_capacity must be a multiple of 4096")
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
        self._free = {}     # length -> buffers no zone holds
        self._lent = {}     # id -> buffer lent out and not yet appended
        self._holders = {}  # id(buffer) -> zone chunks holding it
        self._populator = Populator()

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
        return sum(1 for z in self._zones if 0 < z.write_pointer < cap)

    def write_pointer(self, zone_id) -> int:
        return self._zone(zone_id).write_pointer

    # -- buffers -----------------------------------------------------------

    def _take(self, length):
        pool = self._free.get(length)
        if pool:
            return pool.pop()
        return mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE)

    def _copied(self, data):
        """A buffer of the device's holding a copy of `data`."""
        buf = self._take(len(data))
        self._populator.populate(buf, 0, len(buf))
        buf[:] = data
        return buf

    def lend_buffer(self, length: int):
        """A writable buffer of `length` bytes, not yet faulted in.
        Appending it whole gives it to the device without a copy; after
        that its borrower must not write to it."""
        buf = self._take(length)
        self._lent[id(buf)] = buf
        return buf

    def fault_in(self, buf, start: int, length: int):
        """Fault in `length` bytes of a lent buffer from `start`, a page
        boundary, ahead of the borrower's writes there."""
        self._populator.populate(buf, start, length)

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
        self._holders[id(buf)] = self._holders.get(id(buf), 0) + 1
        zone.write_pointer += len(buf)
        self.counters.total_appended_bytes += len(buf)
        return addr

    def _locate(self, physical_address, length):
        """The zone and zone offset of a readable range."""
        cap = self.config.zone_capacity
        if physical_address < 0 or length < 0:
            raise errors.OutOfRange("negative address or length")
        zone_id = physical_address // cap
        offset = physical_address % cap
        zone = self._zone(zone_id)
        if offset + length > cap:
            raise errors.CrossZoneRead(
                f"range [{offset}, {offset + length}) spans past zone {zone_id}")
        if offset + length > zone.write_pointer:
            raise errors.ReadBeyondWritePointer(
                f"zone {zone_id}: read up to {offset + length} but write "
                f"pointer is {zone.write_pointer}")
        return zone, offset

    # -- operations --------------------------------------------------------

    def append(self, zone_id: int, payload) -> int:
        """Append payload at the zone's write pointer; returns the device-global
        physical address (zone_id * zone_capacity + previous write pointer)."""
        zone = self._admit(zone_id, len(payload))
        if len(payload) == 0:
            return zone_id * self.config.zone_capacity + zone.write_pointer
        buf = self._lent.pop(id(payload), None)
        if buf is None:
            buf = self._copied(payload)
        return self._hold(zone, buf)

    def copy(self, src_paddr: int, length: int, zone_id: int) -> int:
        """Copy a range to the zone's write pointer inside the device;
        returns the destination address. Traffic is charged as a read of
        the range plus an append of it. A range that is one whole appended
        buffer is shared, not copied."""
        src, offset = self._locate(src_paddr, length)
        zone = self._admit(zone_id, length)
        self.counters.total_read_bytes += length
        if length == 0:
            return zone_id * self.config.zone_capacity + zone.write_pointer
        i = bisect.bisect_right(src.chunk_starts, offset) - 1
        buf = src.chunks[i]
        if src.chunk_starts[i] != offset or len(buf) != length:
            buf = self._copied(self._slice(src, offset, length))
        return self._hold(zone, buf)

    def read(self, physical_address: int, length: int) -> bytes:
        zone, offset = self._locate(physical_address, length)
        self.counters.total_read_bytes += length
        if length == 0:
            return b""
        return self._slice(zone, offset, length)

    @staticmethod
    def _slice(zone, offset, length) -> bytes:
        i = bisect.bisect_right(zone.chunk_starts, offset) - 1
        start = zone.chunk_starts[i]
        chunk = zone.chunks[i]
        if offset + length <= start + len(chunk):
            lo = offset - start
            return chunk[lo:lo + length]
        # the range spans appends smaller than the read: join them, then cut
        end = bisect.bisect_left(zone.chunk_starts, offset + length)
        lo = offset - start
        return b"".join(zone.chunks[i:end])[lo:lo + length]

    def reset(self, zone_id: int):
        """Wipe the zone and return it to EMPTY. Each of its buffers goes
        back to the free list once no other zone holds it."""
        zone = self._zone(zone_id)
        for buf in zone.chunks:
            held = self._holders.pop(id(buf)) - 1
            if held:
                self._holders[id(buf)] = held
            else:
                self._free.setdefault(len(buf), []).append(buf)
        zone.write_pointer = 0
        zone.chunks = []
        zone.chunk_starts = []
        self.counters.total_resets += 1

    def report(self):
        """Point-in-time snapshot of all zones plus the device counters."""
        # perfbench/tracer.py patches this by name; ROADMAP item 5 deletes it
        snaps = [ZoneSnapshot(z.id, self.zone_state(z.id), z.write_pointer)
                 for z in self._zones]
        return snaps, replace(self.counters)
