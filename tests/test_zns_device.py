"""Zoned-device emulation tests.

Expected values come from a tiny independent shadow model (dict of zone id
to a plain bytearray) so address math and payload contents are checked
against a second implementation, not against the device itself.
"""

import mmap

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from helpers import device_buffers
from zonecache import DeviceConfig, ZnsDevice, ZoneState, errors, memory

KIB = 1024
MIB = 1024 * KIB


def small_device(zone_count=4, zone_capacity=64 * KIB, max_open=None):
    return ZnsDevice(DeviceConfig(zone_count=zone_count,
                                  zone_capacity=zone_capacity,
                                  max_open_zones=max_open or zone_count))


def counts(dev):
    return dev.appended_bytes, dev.read_bytes, dev.resets


# --- configuration ------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(zone_count=0),
    dict(zone_capacity=0),
    dict(zone_capacity=4097),          # not page aligned
    dict(max_open_zones=0),
    dict(max_open_zones=65),           # above zone_count=64 default
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(errors.InvalidConfig):
        DeviceConfig(**kwargs).validate()


def test_config_defaults_are_valid():
    DeviceConfig().validate()


def test_large_zone_count_device_builds():
    dev = ZnsDevice(DeviceConfig(zone_count=904, zone_capacity=4096,
                                 max_open_zones=14))
    assert all(dev.zone_state(z) is ZoneState.EMPTY for z in range(904))
    assert dev.open_zone_count() == 0
    with pytest.raises(errors.ContractError, match="no such zone: 904"):
        dev.zone_state(904)


# --- append addressing --------------------------------------------------------

def test_append_returns_zone_base_plus_write_pointer():
    cap = 1 * MIB
    dev = ZnsDevice(DeviceConfig(zone_count=4, zone_capacity=cap,
                                 max_open_zones=4))
    # shadow model: track the write pointer by hand
    expected_wp = 0
    addr = dev.append(1, b"x" * 131072)
    assert addr == 1 * cap + expected_wp
    expected_wp += 131072
    addr = dev.append(1, b"y" * 4096)
    assert addr == 1 * cap + expected_wp
    assert dev.write_pointer(1) == expected_wp + 4096


def test_append_to_full_capacity_transitions_to_full():
    dev = small_device(zone_capacity=8 * KIB)
    dev.append(0, b"a" * 8 * KIB)
    assert dev.zone_state(0) is ZoneState.FULL
    with pytest.raises(errors.ContractError, match="zone 0 is full"):
        dev.append(0, b"b")


def test_append_overflow_rejected_and_pointer_unchanged():
    dev = small_device(zone_capacity=12288)
    dev.append(0, b"a" * 8192)
    with pytest.raises(errors.ContractError,
                       match="zone 0: 8192 bytes exceed remaining 4096") as exc:
        dev.append(0, b"b" * 8192)
    assert "4096" in str(exc.value)          # remaining space is reported
    assert dev.write_pointer(0) == 8192      # failed append moved nothing
    dev.append(0, b"c" * 4096)               # exact fit still fine
    assert dev.zone_state(0) is ZoneState.FULL


def test_zero_length_append_returns_address_without_opening():
    dev = small_device()
    addr = dev.append(2, b"")
    assert addr == 2 * 64 * KIB
    assert dev.zone_state(2) is ZoneState.EMPTY


def test_zero_length_copy_charges_nothing_and_opens_no_zone():
    dev = small_device()
    assert dev.copy(0, 0, 3) == 3 * 64 * KIB
    assert dev.zone_state(3) is ZoneState.EMPTY
    assert dev.read_bytes == 0
    assert dev.appended_bytes == 0
    assert dev.open_zone_count() == 0


def test_append_to_unknown_zone():
    dev = small_device(zone_count=2)
    with pytest.raises(errors.ContractError, match="no such zone: 2"):
        dev.append(2, b"x")


# --- open-zone accounting -----------------------------------------------------

def test_open_zone_limit_enforced():
    dev = small_device(zone_count=4, max_open=2)
    dev.append(0, b"a")
    dev.append(1, b"b")
    with pytest.raises(errors.ContractError,
                       match="opening zone 2 would exceed 2 open zones"):
        dev.append(2, b"c")
    # filling zone 0 releases its slot
    dev.append(0, b"x" * (64 * KIB - 1))
    assert dev.zone_state(0) is ZoneState.FULL
    dev.append(2, b"c")
    assert dev.zone_state(2) is ZoneState.OPEN


def test_write_pointers_read_every_zone_in_one_list():
    # appends, a copy, an append refused at the open-zone limit and a reset
    # each leave the one-pass list equal to the per-zone reads, and the
    # open-zone count is the zones strictly between empty and full
    dev = small_device(zone_count=4, zone_capacity=8 * KIB, max_open=2)

    def check(expected):
        assert dev.write_pointers() == expected
        assert dev.write_pointers() == [dev.write_pointer(z) for z in range(4)]
        assert dev.open_zone_count() == sum(0 < wp < 8 * KIB
                                            for wp in expected)

    check([0, 0, 0, 0])
    src = dev.append(0, b"a" * 4096)
    dev.append(0, b"b" * 4096)
    dev.append(1, b"c" * 1000)
    check([8 * KIB, 1000, 0, 0])
    dev.copy(src, 4096, 2)
    check([8 * KIB, 1000, 4096, 0])
    with pytest.raises(errors.ContractError,
                       match="opening zone 3 would exceed 2 open zones"):
        dev.append(3, b"d")
    check([8 * KIB, 1000, 4096, 0])
    dev.reset(0)
    check([0, 1000, 4096, 0])


# --- reads --------------------------------------------------------------------

def test_read_roundtrip_single_append():
    dev = small_device()
    payload = bytes(range(256)) * 16
    addr = dev.append(3, payload)
    assert dev.read(addr, len(payload)) == payload
    assert dev.read(addr + 100, 50) == payload[100:150]


def test_read_assembles_across_append_boundaries():
    dev = small_device()
    parts = [b"aa" * 512, b"bb" * 1024, b"cc" * 256]
    base = dev.append(0, parts[0])
    for p in parts[1:]:
        dev.append(0, p)
    joined = b"".join(parts)
    assert dev.read(base, len(joined)) == joined
    assert dev.read(base + 1000, 1500) == joined[1000:2500]


def test_read_beyond_write_pointer_rejected():
    dev = small_device()
    addr = dev.append(0, b"x" * 4096)
    with pytest.raises(errors.ContractError,
                       match="zone 0: read up to 4097 but write pointer is 4096"):
        dev.read(addr, 4097)


def test_read_crossing_zone_boundary_rejected():
    dev = small_device(zone_capacity=8 * KIB)
    dev.append(0, b"x" * 8 * KIB)
    dev.append(1, b"y" * 8 * KIB)
    with pytest.raises(errors.ContractError,
                       match=r"range \[4096, 12288\) spans past zone 0"):
        dev.read(4 * KIB, 8 * KIB)


def test_read_negative_arguments_rejected():
    dev = small_device()
    with pytest.raises(errors.ContractError,
                       match="negative address or length"):
        dev.read(-1, 4)
    with pytest.raises(errors.ContractError,
                       match="negative address or length"):
        dev.read(0, -4)


# --- reset and reader pinning ---------------------------------------------------

def test_reset_wipes_zone_and_allows_reuse():
    dev = small_device(zone_capacity=8 * KIB)
    addr = dev.append(0, b"old!" * 2048)
    dev.reset(0)
    assert dev.zone_state(0) is ZoneState.EMPTY
    assert dev.write_pointer(0) == 0
    with pytest.raises(errors.ContractError,
                       match="zone 0: read up to 1 but write pointer is 0"):
        dev.read(addr, 1)
    addr2 = dev.append(0, b"new!")
    assert addr2 == addr  # write pointer restarted from zero
    assert dev.read(addr2, 4) == b"new!"


def test_reset_open_zone_releases_open_slot():
    dev = small_device(zone_count=4, max_open=1)
    dev.append(0, b"a")
    dev.reset(0)
    dev.append(1, b"b")  # would raise if the slot leaked


# --- what the device holds ---------------------------------------------------------

def filled(tag, size):
    return bytearray([tag % 256]) * size


def test_append_holds_the_callers_payload():
    # the device copies nothing: a payload changed after its append reads
    # back changed, which is why its writer must leave it alone
    dev = small_device()
    payload = filled(1, 4096)
    addr = dev.append(0, payload)
    assert device_buffers(dev) == {id(payload)}
    payload[:] = b"b" * 4096
    assert dev.read(addr, 4096) == b"b" * 4096


def test_reset_recycles_an_adopted_buffer():
    # a reset lets go of what the zone held, so the writer may fill the
    # same buffer again and append it anew
    dev = small_device()
    buf = filled(1, 4096)
    dev.append(0, buf)
    dev.reset(0)
    assert device_buffers(dev) == set()
    buf[:] = b"c" * 4096
    assert dev.read(dev.append(0, buf), 4096) == b"c" * 4096


def test_reset_keeps_a_buffer_another_zone_holds():
    # a copy of a whole append moves it: the source range reads as
    # deallocated at once, and resetting the source zone leaves the
    # buffer where it went
    dev = small_device()
    buf = filled(1, 4096)
    src = dev.append(0, buf)
    dst = dev.copy(src, 4096, 1)
    with pytest.raises(errors.ContractError,
                       match=r"zone 0: 0 \+4096 is freed"):
        dev.read(src, 4096)
    assert device_buffers(dev) == {id(buf)}
    dev.reset(0)
    assert dev.read(dst, 4096) == bytes([1]) * 4096
    dev.reset(1)
    assert device_buffers(dev) == set()


def test_copy_of_a_whole_append_moves_it():
    # the moved append is held once, at its new address; its old range
    # can be neither deallocated nor copied again, and the zone it left
    # holds nothing more
    dev = small_device()
    buf = filled(1, 4 * KIB)
    src = dev.append(0, buf)
    dst = dev.copy(src, 4 * KIB, 1)
    assert dev._zones[1].chunks == [buf]
    with pytest.raises(errors.ContractError,
                       match=r"zone 0: \[0, 4096\) is not one append"):
        dev.deallocate(src, 4 * KIB)
    with pytest.raises(errors.ContractError,
                       match=r"zone 0: 0 \+4096 is freed"):
        dev.copy(src, 4 * KIB, 2)
    assert dev.deallocate(dst, 4 * KIB) is False
    assert device_buffers(dev) == set()


def test_copy_charges_a_read_and_an_append_of_its_length():
    dev = small_device()
    src = dev.append(0, filled(1, 8 * KIB))
    dev.copy(src + 1000, 3000, 1)
    dev.copy(src, 8 * KIB, 2)
    assert dev.read_bytes == 3000 + 8 * KIB
    assert dev.appended_bytes == 8 * KIB + 3000 + 8 * KIB


def test_copy_of_part_of_an_append_or_across_appends():
    dev = small_device()
    base = dev.append(0, b"a" * 4096)
    dev.append(0, b"b" * 4096)
    inner = dev.copy(base + 100, 200, 1)
    across = dev.copy(base + 4000, 200, 1)
    assert dev.read(base, 8192) == b"a" * 4096 + b"b" * 4096  # copied, not moved
    assert dev.read(inner, 200) == b"a" * 200
    assert dev.read(across, 200) == b"a" * 96 + b"b" * 104
    assert dev.write_pointer(1) == 400


def test_failed_copy_changes_nothing():
    dev = small_device(zone_capacity=8 * KIB)
    src = dev.append(0, b"x" * 4096)
    dev.append(1, b"y" * 8 * KIB)
    with pytest.raises(errors.ContractError,
                       match="zone 0: read up to 4097 but write pointer is 4096"):
        dev.copy(src, 4097, 2)
    with pytest.raises(errors.ContractError, match="zone 1 is full"):
        dev.copy(src, 4096, 1)
    assert dev.zone_state(2) is ZoneState.EMPTY
    assert dev.read_bytes == 0
    assert dev.appended_bytes == 4096 + 8 * KIB


def test_migrated_regions_survive_reuse_of_every_freed_buffer():
    # each round moves some of the full zone's regions to an empty zone,
    # resets the victim, then overwrites the buffer of every region it
    # dropped, as their writer may once the device lets go; the device
    # must hold none of them, so every live region must still match its
    # shadow copy
    size, per_zone, zones = 4 * KIB, 4, 4
    dev = small_device(zone_count=zones, zone_capacity=per_zone * size)
    shadow = {}          # physical address -> bytes
    bufs = {}            # physical address -> the buffer written there
    tag = 0

    def fill(zone):
        nonlocal tag
        while dev.zone_state(zone) is not ZoneState.FULL:
            tag += 1
            buf = filled(tag, size)
            addr = dev.append(zone, buf)
            shadow[addr], bufs[addr] = bytes(buf), buf

    fill(0)
    for round_ in range(8):
        victim, dest = round_ % zones, (round_ + 1) % zones
        keep = 1 + round_ % per_zone
        live = sorted(a for a in shadow if a // (per_zone * size) == victim)
        dropped = []
        for i, addr in enumerate(live):
            data, buf = shadow.pop(addr), bufs.pop(addr)
            if i < keep:
                moved = dev.copy(addr, size, dest)
                shadow[moved], bufs[moved] = data, buf
            else:
                dropped.append(buf)
        dev.reset(victim)
        assert device_buffers(dev) == {id(buf) for buf in bufs.values()}
        for buf in dropped:
            buf[:] = b"\xee" * size
        fill(dest)
        for addr, data in shadow.items():
            assert dev.read(addr, size) == data, f"round {round_}"


STEPS = [(23, start, 4 * KIB) for start in range(0, 16 * KIB, 4 * KIB)]


@pytest.mark.parametrize("advice", ["works", "off_linux", "fails"])
def test_buffers_are_faulted_in_once_per_request_and_read_back_without_it(
        monkeypatch, advice):
    # a buffer's owner faults it in only as its filler asks, one advice a
    # step; the device holds, copies and reads it with no advice of its
    # own, and the bytes are the same when the advice is missing or
    # raises; a failed advice is not retried
    calls = []

    class RecordingMap(mmap.mmap):
        def madvise(self, *args):
            calls.append(args)
            if advice == "fails":
                raise OSError(22, "Invalid argument")

    monkeypatch.setattr(memory, "POPULATE_WRITE",
                        None if advice == "off_linux" else 23)
    populator = memory.Populator()
    buf = RecordingMap(-1, 16 * KIB, flags=mmap.MAP_PRIVATE)
    assert calls == []                         # mapping faults nothing in
    for start in range(0, 16 * KIB, 4 * KIB):
        populator.populate(buf, start, 4 * KIB)
        buf[start:start + 4 * KIB] = bytes([1 + start // KIB]) * 4 * KIB
    want = bytes(buf)
    dev = small_device()
    addr = dev.append(0, buf)
    moved = dev.copy(addr + 4 * KIB, 8 * KIB, 1)  # part of an append: a copy
    copied = dev.append(1, b"z" * 4 * KIB)
    assert dev.read(addr, 16 * KIB) == want
    assert dev.read(moved, 8 * KIB) == want[4 * KIB:12 * KIB]
    assert dev.read(copied, 4 * KIB) == b"z" * 4 * KIB
    assert calls == {"works": STEPS, "off_linux": [],
                     "fails": STEPS[:1]}[advice]


# --- deallocation -----------------------------------------------------------------

def test_read_and_copy_over_a_deallocated_range_raise():
    dev = small_device()
    first = dev.append(0, filled(1, 8 * KIB))
    second = dev.append(0, filled(2, 8 * KIB))
    dev.deallocate(first, 8 * KIB)
    before = counts(dev)
    for addr, length in [(first, 8 * KIB), (first + 100, 200),
                         (first + 4 * KIB, 8 * KIB), (first, 16 * KIB)]:
        with pytest.raises(errors.ContractError, match="is freed"):
            dev.read(addr, length)
        with pytest.raises(errors.ContractError, match="is freed"):
            dev.copy(addr, length, 1)
    assert counts(dev) == before
    assert dev.zone_state(1) is ZoneState.EMPTY
    assert dev.read(second, 8 * KIB) == bytes([2]) * 8 * KIB
    assert dev.read(first, 0) == b""


@pytest.mark.parametrize("fill", [12 * KIB, 64 * KIB], ids=["open", "full"])
def test_deallocate_moves_no_pointer_state_or_counter(fill):
    dev = small_device()
    addr = dev.append(0, filled(1, 12 * KIB))
    if fill > 12 * KIB:
        dev.append(0, b"x" * (fill - 12 * KIB))
    dev.read(addr, 4 * KIB)
    state, before = dev.zone_state(0), counts(dev)
    dev.deallocate(addr, 12 * KIB)
    assert dev.write_pointer(0) == fill
    assert dev.zone_state(0) is state
    assert counts(dev) == before


@pytest.mark.parametrize("offset,length", [
    (0, 4 * KIB), (4 * KIB, 4 * KIB), (0, 16 * KIB), (8 * KIB, 8 * KIB),
    (0, 0), (8 * KIB, 0)],
    ids=["head", "middle", "two_appends", "later_two_appends", "zero",
         "zero_inside"])
def test_deallocate_rejects_a_range_that_is_not_one_append(offset, length):
    # zone 0 holds an 8 KiB then a 4 KiB append, and a third of 4 KiB where
    # the range reaches past them; only each whole one could be dropped
    dev = small_device()
    first = dev.append(0, filled(1, 8 * KIB))
    dev.append(0, filled(2, 4 * KIB))
    if length > 12 * KIB - offset:
        dev.append(0, filled(3, 4 * KIB))
    with pytest.raises(errors.ContractError, match="is not one append"):
        dev.deallocate(first + offset, length)
    assert dev.read(first, 12 * KIB) == (bytes([1]) * 8 * KIB
                                         + bytes([2]) * 4 * KIB)


def test_deallocate_twice_or_past_the_write_pointer_is_rejected():
    dev = small_device()
    addr = dev.append(0, filled(1, 4 * KIB))
    with pytest.raises(errors.ContractError,
                       match="zone 0: read up to 8192 but write pointer is 4096"):
        dev.deallocate(addr + 4 * KIB, 4 * KIB)
    dev.deallocate(addr, 4 * KIB)
    with pytest.raises(errors.ContractError,
                       match=r"zone 0: \[0, 4096\) is not one append"):
        dev.deallocate(addr, 4 * KIB)
    assert device_buffers(dev) == set()


def test_reset_after_a_deallocation_frees_only_the_rest_of_the_zone():
    # the deallocated buffer was let go at once and its writer appended it
    # again to another zone; the reset drops only what zone 0 still held
    dev = small_device()
    first, second = filled(1, 4 * KIB), filled(2, 4 * KIB)
    dev.deallocate(dev.append(0, first), 4 * KIB)
    dev.append(0, second)
    again = dev.append(1, first)
    dev.reset(0)
    assert device_buffers(dev) == {id(first)}
    assert dev.read(again, 4 * KIB) == bytes([1]) * 4 * KIB
    assert dev.resets == 1


# --- counters -------------------------------------------------------------------

def test_counters_accumulate():
    dev = small_device()
    dev.append(0, b"a" * 1000)
    dev.append(0, b"b" * 500)
    dev.read(0, 700)
    dev.reset(0)
    assert counts(dev) == (1500, 700, 1)


# --- stateful property test ------------------------------------------------------

class DeviceMachine(RuleBasedStateMachine):
    """Random op sequences against a bytearray-per-zone shadow model."""

    ZONES = 4
    CAP = 8 * KIB
    MAX_OPEN = 2

    @initialize()
    def setup(self):
        self.dev = ZnsDevice(DeviceConfig(zone_count=self.ZONES,
                                          zone_capacity=self.CAP,
                                          max_open_zones=self.MAX_OPEN))
        self.model = {z: bytearray() for z in range(self.ZONES)}
        # per zone, the (start, length) of each write it holds, and the
        # starts of those deallocated or moved away
        self.spans = {z: [] for z in range(self.ZONES)}
        self.dead = {z: set() for z in range(self.ZONES)}
        self.appended = self.read = 0
        self.counter = 0

    def _model_open(self):
        return sum(1 for buf in self.model.values() if 0 < len(buf) < self.CAP)

    def _refusal(self, zone, length):
        """The message of the error a write of `length` bytes to the zone
        raises, if any."""
        used = len(self.model[zone])
        if used == self.CAP:
            return f"zone {zone} is full"
        if used + length > self.CAP:
            return (f"zone {zone}: {length} bytes exceed remaining "
                    f"{self.CAP - used}")
        if used == 0 and length and self._model_open() >= self.MAX_OPEN:
            return f"opening zone {zone} would exceed {self.MAX_OPEN} open zones"
        return None

    def _freed(self, zone, start, length):
        """Whether [start, start + length) touches a deallocated write; an
        empty range touches none."""
        return any(s in self.dead[zone] and s < start + length
                   and start < s + n for s, n in self.spans[zone]
                   if length)

    def _write(self, zone, payload, write):
        """Run `write()`, which puts `payload` at the zone's write pointer,
        and check its outcome against the model."""
        refusal = self._refusal(zone, len(payload))
        if refusal is not None:
            with pytest.raises(errors.ContractError, match=refusal):
                write()
            return False
        buf = self.model[zone]
        addr = write()
        assert addr == zone * self.CAP + len(buf)
        if payload:
            self.spans[zone].append((len(buf), len(payload)))
        buf += payload
        self.appended += len(payload)
        return True

    @rule(zone=st.integers(0, ZONES - 1), size=st.integers(1, 3 * KIB))
    def append(self, zone, size):
        # the device holds the caller's payload itself
        self.counter += 1
        payload = bytearray([self.counter % 256]) * size
        if self._write(zone, payload, lambda: self.dev.append(zone, payload)):
            assert self.dev._zones[zone].chunks[-1] is payload

    @rule(src=st.integers(0, ZONES - 1), zone=st.integers(0, ZONES - 1),
          whole=st.booleans(), data=st.data())
    def copy(self, src, zone, whole, data):
        # a whole earlier write still held moves, and its source reads as
        # deallocated; any other range is copied. The model copies bytes
        # either way
        buf = self.model[src]
        if not buf:
            return
        if whole:
            start, length = data.draw(st.sampled_from(self.spans[src]))
        else:
            start = data.draw(st.integers(0, len(buf) - 1))
            length = data.draw(st.integers(0, len(buf) - start))
        moves = ((start, length) in self.spans[src]
                 and start not in self.dead[src])
        payload = bytes(buf[start:start + length])
        copy = lambda: self.dev.copy(src * self.CAP + start, length, zone)
        if (self._refusal(zone, length) is None
                and self._freed(src, start, length)):
            with pytest.raises(errors.ContractError, match="is freed"):
                copy()
        elif self._write(zone, payload, copy):
            self.read += length
            if moves:
                self.dead[src].add(start)

    @rule(zone=st.integers(0, ZONES - 1), whole=st.booleans(),
          data=st.data())
    def deallocate(self, zone, whole, data):
        # only a whole write not yet deallocated can be; any other range
        # is refused and changes nothing
        used = len(self.model[zone])
        if whole and self.spans[zone]:
            start, length = data.draw(st.sampled_from(self.spans[zone]))
        else:
            start = data.draw(st.integers(0, used))
            length = data.draw(st.integers(0, used - start))
        addr = zone * self.CAP + start
        if ((start, length) in self.spans[zone]
                and start not in self.dead[zone]):
            holds = self.dev.deallocate(addr, length)
            self.dead[zone].add(start)
            # whether the zone still holds a write
            assert holds == any(s not in self.dead[zone]
                                for s, _ in self.spans[zone])
        else:
            with pytest.raises(errors.ContractError,
                               match="is not one append"):
                self.dev.deallocate(addr, length)

    @rule(zone=st.integers(0, ZONES - 1))
    def reset(self, zone):
        self.dev.reset(zone)
        self.model[zone] = bytearray()
        self.spans[zone] = []
        self.dead[zone] = set()

    @rule(zone=st.integers(0, ZONES - 1), data=st.data())
    def read_back(self, zone, data):
        buf = self.model[zone]
        if not buf:
            return
        start = data.draw(st.integers(0, len(buf) - 1))
        length = data.draw(st.integers(0, len(buf) - start))
        addr = zone * self.CAP + start
        if self._freed(zone, start, length):
            with pytest.raises(errors.ContractError, match="is freed"):
                self.dev.read(addr, length)
            return
        assert self.dev.read(addr, length) == bytes(buf[start:start + length])
        self.read += length

    @invariant()
    def states_match_model(self):
        if not hasattr(self, "dev"):
            return
        assert self.dev.write_pointers() == [
            len(self.model[z]) for z in range(self.ZONES)]
        for z in range(self.ZONES):
            buf = self.model[z]
            assert self.dev.write_pointer(z) == len(buf)
            state = self.dev.zone_state(z)
            if len(buf) == self.CAP:
                assert state is ZoneState.FULL
            elif len(buf) == 0:
                assert state is ZoneState.EMPTY
            else:
                assert state is ZoneState.OPEN
        assert self.dev.appended_bytes == self.appended
        assert self.dev.read_bytes == self.read
        assert self.dev.open_zone_count() == self._model_open()
        assert self.dev.open_zone_count() <= self.MAX_OPEN

    @invariant()
    def holds_each_live_write_once(self):
        # a deallocated or moved write is held nowhere, and no buffer is
        # held at two addresses
        if not hasattr(self, "dev"):
            return
        held = []
        for z, zone in enumerate(self.dev._zones):
            spans = [(start, len(buf)) for start, buf
                     in zip(zone.chunk_starts, zone.chunks) if buf is not None]
            assert spans == [(s, n) for s, n in self.spans[z]
                             if s not in self.dead[z]]
            held += [id(buf) for buf in zone.chunks if buf is not None]
        assert len(held) == len(set(held)) == len(device_buffers(self.dev))


DeviceMachine.TestCase.settings = settings(max_examples=60,
                                           stateful_step_count=40,
                                           deadline=None)
TestDeviceMachine = DeviceMachine.TestCase
