"""Zoned-device emulation tests.

Expected values come from a tiny independent shadow model (dict of zone id
to a plain bytearray) so address math and payload contents are checked
against a second implementation, not against the device itself.
"""

import mmap
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from zonecache import DeviceConfig, ZnsDevice, ZoneState, errors, memory
from zonecache import zns as zns_module

KIB = 1024
MIB = 1024 * KIB


def small_device(zone_count=4, zone_capacity=64 * KIB, max_open=None):
    return ZnsDevice(DeviceConfig(zone_count=zone_count,
                                  zone_capacity=zone_capacity,
                                  max_open_zones=max_open or zone_count))


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
    with pytest.raises(errors.OutOfRange):
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
    with pytest.raises(errors.ZoneNotWritable):
        dev.append(0, b"b")


def test_append_overflow_rejected_and_pointer_unchanged():
    dev = small_device(zone_capacity=12288)
    dev.append(0, b"a" * 8192)
    with pytest.raises(errors.ZoneFull) as exc:
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
    assert dev.counters.total_read_bytes == 0
    assert dev.counters.total_appended_bytes == 0
    assert dev.open_zone_count() == 0


def test_append_to_unknown_zone():
    dev = small_device(zone_count=2)
    with pytest.raises(errors.OutOfRange):
        dev.append(2, b"x")


# --- open-zone accounting -----------------------------------------------------

def test_open_zone_limit_enforced():
    dev = small_device(zone_count=4, max_open=2)
    dev.append(0, b"a")
    dev.append(1, b"b")
    with pytest.raises(errors.MaxOpenZonesExceeded):
        dev.append(2, b"c")
    # filling zone 0 releases its slot
    dev.append(0, b"x" * (64 * KIB - 1))
    assert dev.zone_state(0) is ZoneState.FULL
    dev.append(2, b"c")
    assert dev.zone_state(2) is ZoneState.OPEN


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
    with pytest.raises(errors.ReadBeyondWritePointer):
        dev.read(addr, 4097)


def test_read_crossing_zone_boundary_rejected():
    dev = small_device(zone_capacity=8 * KIB)
    dev.append(0, b"x" * 8 * KIB)
    dev.append(1, b"y" * 8 * KIB)
    with pytest.raises(errors.CrossZoneRead):
        dev.read(4 * KIB, 8 * KIB)


def test_read_negative_arguments_rejected():
    dev = small_device()
    with pytest.raises(errors.OutOfRange):
        dev.read(-1, 4)
    with pytest.raises(errors.OutOfRange):
        dev.read(0, -4)


# --- reset and reader pinning ---------------------------------------------------

def test_reset_wipes_zone_and_allows_reuse():
    dev = small_device(zone_capacity=8 * KIB)
    addr = dev.append(0, b"old!" * 2048)
    dev.reset(0)
    assert dev.zone_state(0) is ZoneState.EMPTY
    assert dev.write_pointer(0) == 0
    with pytest.raises(errors.ReadBeyondWritePointer):
        dev.read(addr, 1)
    addr2 = dev.append(0, b"new!")
    assert addr2 == addr  # write pointer restarted from zero
    assert dev.read(addr2, 4) == b"new!"


def test_reset_open_zone_releases_open_slot():
    dev = small_device(zone_count=4, max_open=1)
    dev.append(0, b"a")
    dev.reset(0)
    dev.append(1, b"b")  # would raise if the slot leaked


def test_append_the_device_cannot_copy_opens_no_zone():
    # a payload that is not bytes-like fails inside the copy, after the
    # checks; the zone stays empty and its slot stays free
    dev = small_device(zone_count=4, max_open=1)
    with pytest.raises(TypeError):
        dev.append(0, "x" * 4096)
    assert dev.zone_state(0) is ZoneState.EMPTY
    dev.append(1, b"y" * 4096)  # would raise if the slot leaked
    assert dev.open_zone_count() == 1


# --- buffer ownership -------------------------------------------------------------

def lent(dev, tag, size):
    buf = dev.lend_buffer(size)
    buf[:] = bytes([tag % 256]) * size
    return buf


def test_append_copies_a_payload_it_did_not_lend():
    dev = small_device()
    payload = bytearray(b"a" * 4096)
    addr = dev.append(0, payload)
    payload[:] = b"b" * 4096
    assert dev.read(addr, 4096) == b"a" * 4096


def test_reset_recycles_an_adopted_buffer():
    dev = small_device()
    buf = lent(dev, 1, 4096)
    dev.append(0, buf)
    assert dev.lend_buffer(4096) is not buf  # zone 0 still holds it
    dev.reset(0)
    assert dev.lend_buffer(4096) is buf


def test_reset_keeps_a_buffer_another_zone_holds():
    dev = small_device()
    buf = lent(dev, 1, 4096)
    src = dev.append(0, buf)
    dst = dev.copy(src, 4096, 1)
    dev.reset(0)
    fresh = dev.lend_buffer(4096)
    assert fresh is not buf
    fresh[:] = b"\xff" * 4096
    dev.append(2, fresh)
    assert dev.read(dst, 4096) == bytes([1]) * 4096
    dev.reset(1)
    assert dev.lend_buffer(4096) is buf


def test_copy_charges_a_read_and_an_append_of_its_length():
    dev = small_device()
    src = dev.append(0, lent(dev, 1, 8 * KIB))
    dev.copy(src + 1000, 3000, 1)
    dev.copy(src, 8 * KIB, 2)
    c = dev.counters
    assert c.total_read_bytes == 3000 + 8 * KIB
    assert c.total_appended_bytes == 8 * KIB + 3000 + 8 * KIB


def test_copy_of_part_of_an_append_or_across_appends():
    dev = small_device()
    base = dev.append(0, b"a" * 4096)
    dev.append(0, b"b" * 4096)
    inner = dev.copy(base + 100, 200, 1)
    across = dev.copy(base + 4000, 200, 1)
    assert dev.read(inner, 200) == b"a" * 200
    assert dev.read(across, 200) == b"a" * 96 + b"b" * 104
    assert dev.write_pointer(1) == 400


def test_failed_copy_changes_nothing():
    dev = small_device(zone_capacity=8 * KIB)
    src = dev.append(0, b"x" * 4096)
    dev.append(1, b"y" * 8 * KIB)
    with pytest.raises(errors.ReadBeyondWritePointer):
        dev.copy(src, 4097, 2)
    with pytest.raises(errors.ZoneNotWritable):
        dev.copy(src, 4096, 1)
    assert dev.zone_state(2) is ZoneState.EMPTY
    c = dev.counters
    assert c.total_read_bytes == 0
    assert c.total_appended_bytes == 4096 + 8 * KIB


def test_migrated_regions_survive_reuse_of_every_freed_buffer():
    # each round moves some of the full zone's regions to an empty zone by
    # reference, resets the victim, then borrows and overwrites every
    # buffer the reset freed; a buffer the destination still holds must not
    # be among them, so every live region must still match its shadow copy
    size, per_zone, zones = 4 * KIB, 4, 4
    dev = small_device(zone_count=zones, zone_capacity=per_zone * size)
    seen = []            # every buffer the device has lent
    shadow = {}          # physical address -> bytes
    tag = 0

    def borrow():
        buf = dev.lend_buffer(size)
        fresh = not any(buf is old for old in seen)
        if fresh:
            seen.append(buf)
        return buf, fresh

    def fill(zone):
        nonlocal tag
        while dev.zone_state(zone) is not ZoneState.FULL:
            tag += 1
            buf, _ = borrow()
            buf[:] = bytes([tag % 256]) * size
            shadow[dev.append(zone, buf)] = bytes(buf)

    fill(0)
    for round_ in range(8):
        victim, dest = round_ % zones, (round_ + 1) % zones
        keep = 1 + round_ % per_zone
        live = sorted(a for a in shadow if a // (per_zone * size) == victim)
        for i, addr in enumerate(live):
            data = shadow.pop(addr)
            if i < keep:
                shadow[dev.copy(addr, size, dest)] = data
        dev.reset(victim)
        while True:  # take the free list dry, scribbling over each buffer
            buf, fresh = borrow()
            buf[:] = b"\xee" * size
            if fresh:
                break
        fill(dest)
        for addr, data in shadow.items():
            assert dev.read(addr, size) == data, f"round {round_}"


# --- faulting buffers in -------------------------------------------------------

@pytest.mark.parametrize("advice", ["works", "off_linux", "fails"])
def test_buffers_are_faulted_in_once_per_request_and_read_back_without_it(
        monkeypatch, advice):
    # a lent buffer is faulted in only as its borrower asks, a buffer the
    # device copies into is faulted in whole first, and the bytes are the
    # same when the advice is missing or raises; a failed advice is not
    # retried
    calls = []

    class RecordingMap(mmap.mmap):
        def madvise(self, *args):
            calls.append(args)
            if advice == "fails":
                raise OSError(22, "Invalid argument")

    monkeypatch.setattr(memory, "POPULATE_WRITE",
                        None if advice == "off_linux" else 23)
    monkeypatch.setattr(zns_module, "mmap", SimpleNamespace(
        mmap=RecordingMap, MAP_PRIVATE=mmap.MAP_PRIVATE))
    dev = small_device()
    buf = dev.lend_buffer(16 * KIB)
    assert calls == []                         # lending faults nothing in
    for start in range(0, 16 * KIB, 4 * KIB):
        dev.fault_in(buf, start, 4 * KIB)
        buf[start:start + 4 * KIB] = bytes([start // KIB + 1]) * 4 * KIB
    want = bytes(buf)
    addr = dev.append(0, buf)
    moved = dev.copy(addr + 4 * KIB, 8 * KIB, 1)  # part of a buffer: a copy
    copied = dev.append(1, b"z" * 4 * KIB)
    assert dev.read(addr, 16 * KIB) == want
    assert dev.read(moved, 8 * KIB) == want[4 * KIB:12 * KIB]
    assert dev.read(copied, 4 * KIB) == b"z" * 4 * KIB
    steps = [(23, start, 4 * KIB) for start in range(0, 16 * KIB, 4 * KIB)]
    expected = {"works": steps + [(23, 0, 8 * KIB), (23, 0, 4 * KIB)],
                "off_linux": [], "fails": steps[:1]}
    assert calls == expected[advice]


# --- counters -------------------------------------------------------------------

def test_counters_accumulate():
    dev = small_device()
    dev.append(0, b"a" * 1000)
    dev.append(0, b"b" * 500)
    dev.read(0, 700)
    dev.reset(0)
    c = dev.counters
    assert c.total_appended_bytes == 1500
    assert c.total_read_bytes == 700
    assert c.total_resets == 1


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
        # per zone, the (start, length) of each write it holds
        self.spans = {z: [] for z in range(self.ZONES)}
        self.appended = self.read = 0
        self.counter = 0

    def _model_open(self):
        return sum(1 for buf in self.model.values() if 0 < len(buf) < self.CAP)

    def _write(self, zone, payload, write):
        """Run `write()`, which puts `payload` at the zone's write pointer,
        and check its outcome against the model."""
        buf = self.model[zone]
        full = len(buf) == self.CAP
        overflow = len(buf) + len(payload) > self.CAP
        blocked = (len(buf) == 0 and len(payload) > 0
                   and self._model_open() >= self.MAX_OPEN)
        if full:
            with pytest.raises(errors.ZoneNotWritable):
                write()
        elif overflow:
            with pytest.raises(errors.ZoneFull):
                write()
        elif blocked:
            with pytest.raises(errors.MaxOpenZonesExceeded):
                write()
        else:
            addr = write()
            assert addr == zone * self.CAP + len(buf)
            if payload:
                self.spans[zone].append((len(buf), len(payload)))
            buf += payload
            self.appended += len(payload)
            return True
        return False

    @rule(zone=st.integers(0, ZONES - 1), size=st.integers(1, 3 * KIB))
    def append(self, zone, size):
        self.counter += 1
        payload = bytes([self.counter % 256]) * size
        self._write(zone, payload, lambda: self.dev.append(zone, payload))

    @rule(src=st.integers(0, ZONES - 1), zone=st.integers(0, ZONES - 1),
          whole=st.booleans(), data=st.data())
    def copy(self, src, zone, whole, data):
        # a whole earlier write is shared by reference, any other range is
        # copied; the model copies bytes either way
        buf = self.model[src]
        if not buf:
            return
        if whole:
            start, length = data.draw(st.sampled_from(self.spans[src]))
        else:
            start = data.draw(st.integers(0, len(buf) - 1))
            length = data.draw(st.integers(0, len(buf) - start))
        payload = bytes(buf[start:start + length])
        if self._write(zone, payload, lambda: self.dev.copy(
                src * self.CAP + start, length, zone)):
            self.read += length

    @rule(zone=st.integers(0, ZONES - 1))
    def reset(self, zone):
        self.dev.reset(zone)
        self.model[zone] = bytearray()
        self.spans[zone] = []

    @rule(zone=st.integers(0, ZONES - 1), data=st.data())
    def read_back(self, zone, data):
        buf = self.model[zone]
        if not buf:
            return
        start = data.draw(st.integers(0, len(buf) - 1))
        length = data.draw(st.integers(0, len(buf) - start))
        got = self.dev.read(zone * self.CAP + start, length)
        assert got == bytes(buf[start:start + length])
        self.read += length

    @invariant()
    def states_match_model(self):
        if not hasattr(self, "dev"):
            return
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
        assert self.dev.counters.total_appended_bytes == self.appended
        assert self.dev.counters.total_read_bytes == self.read
        assert self.dev.open_zone_count() == self._model_open()
        assert self.dev.open_zone_count() <= self.MAX_OPEN


DeviceMachine.TestCase.settings = settings(max_examples=60,
                                           stateful_step_count=40,
                                           deadline=None)
TestDeviceMachine = DeviceMachine.TestCase
