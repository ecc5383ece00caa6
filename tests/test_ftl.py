"""Page-mapped FTL tests.

The write-amplification assertions are checked against OracleFtl, a second
page-level simulator written with different data structures (per-block slot
lists, linear scans). Both must implement the same externally specified
policy: greedy fewest-valid victim, lowest block index on ties, inline GC
when the free pool drops below the trigger, stale copy invalidated only
after the fresh copy is placed.
"""

import random

import pytest

from zonecache import PageMappedFtl, errors, memory

PAGE = 4096


class OracleFtl:
    """Brute-force reference: blocks are lists of logical-page slots."""

    def __init__(self, ppb, blocks, op_ratio=0.07):
        self.ppb = ppb
        self.trigger = 2           # GC below this many free blocks
        self.blocks = [[None] * ppb for _ in range(blocks)]
        self.free = sorted(range(blocks))
        self.where = {}            # lpn -> (block, slot)
        self.active = None
        self.fill = ppb            # forces a take on first alloc
        total = blocks * ppb * PAGE
        exported = int(total / (1.0 + op_ratio))
        self.exported_pages = (exported - exported % PAGE) // PAGE
        self.host = 0
        self.nand = 0
        self.migrated = 0

    def _valid(self, b):
        return sum(1 for lpn in self.blocks[b] if lpn is not None)

    def _alloc(self):
        if self.active is None or self.fill == self.ppb:
            if not self.free:
                raise RuntimeError("oracle out of blocks")
            self.free.sort()
            self.active = self.free.pop(0)
            self.fill = 0
        slot = (self.active, self.fill)
        self.fill += 1
        return slot

    def _gc(self):
        if len(self.free) >= self.trigger:
            return
        while len(self.free) < self.trigger:
            # the active block is a candidate once it is full
            candidates = [b for b in range(len(self.blocks))
                          if (b != self.active or self.fill == self.ppb)
                          and b not in self.free]
            if not candidates:
                break
            victim = min(candidates, key=lambda b: (self._valid(b), b))
            if self._valid(victim) >= self.ppb:
                break
            for slot in range(self.ppb):
                lpn = self.blocks[victim][slot]
                if lpn is None:
                    continue
                self.blocks[victim][slot] = None
                nb, ns = self._alloc()
                self.blocks[nb][ns] = lpn
                self.where[lpn] = (nb, ns)
                self.nand += 1
                self.migrated += 1
            self.free.append(victim)

    def write(self, lpn):
        needs_block = self.active is None or self.fill == self.ppb
        if needs_block and len(self.free) < self.trigger:
            self._gc()
        old = self.where.get(lpn)
        b, s = self._alloc()
        if old is not None:
            self.blocks[old[0]][old[1]] = None
        self.blocks[b][s] = lpn
        self.where[lpn] = (b, s)
        self.host += 1
        self.nand += 1

    @property
    def wa(self):
        return self.nand / self.host


def make_ftl(ppb=16, blocks=32, op_ratio=0.07):
    return PageMappedFtl(ppb, blocks, op_ratio)


# --- configuration and exported capacity ----------------------------------------

def test_config_rejects_bad_geometry():
    for kwargs in (dict(pages_per_block=0, block_count=4),
                   dict(pages_per_block=4, block_count=0),
                   dict(pages_per_block=4, block_count=4, op_ratio=-0.1),
                   # one page of 4096 bytes exports 2730, under one page
                   dict(pages_per_block=1, block_count=1, op_ratio=0.5)):
        with pytest.raises(errors.InvalidConfig):
            PageMappedFtl(**kwargs)


def test_exported_capacity_is_page_floored():
    ftl = PageMappedFtl(pages_per_block=16, block_count=32)
    total = 32 * 16 * PAGE
    raw = int(total / 1.07)
    assert ftl.exported_bytes == raw - raw % PAGE
    assert ftl.exported_bytes % PAGE == 0
    assert ftl.exported_bytes < total


def test_zero_op_ratio_exports_everything():
    ftl = PageMappedFtl(pages_per_block=4, block_count=4, op_ratio=0.0)
    assert ftl.exported_bytes == 4 * 4 * PAGE


# --- remapping -------------------------------------------------------------------

def test_overwrite_remaps_to_new_physical_page():
    ftl = make_ftl()
    ftl.ftl_write(0, b"a" * PAGE)
    first = ftl.mapping[0]
    ftl.ftl_write(0, b"b" * PAGE)
    assert ftl.mapping[0] != first
    assert ftl.ftl_read(0, PAGE) == b"b" * PAGE
    assert ftl.reverse[first] == -1  # stale copy invalidated


def test_write_alignment_and_range_checks():
    ftl = make_ftl()
    with pytest.raises(errors.ContractError,
                       match="writes must be page-aligned in address and length"):
        ftl.ftl_write(100, b"x" * PAGE)
    with pytest.raises(errors.ContractError,
                       match="writes must be page-aligned in address and length"):
        ftl.ftl_write(0, b"x" * 100)
    with pytest.raises(errors.ContractError,
                       match="write outside exported capacity"):
        ftl.ftl_write(ftl.exported_bytes, b"x" * PAGE)
    with pytest.raises(errors.ContractError,
                       match="read outside exported capacity"):
        ftl.ftl_read(0, ftl.exported_bytes + PAGE)
    with pytest.raises(errors.ContractError,
                       match="logical page 0 never written"):
        ftl.ftl_read(0, 1)


def test_read_spans_pages_and_unaligned_offsets():
    ftl = make_ftl()
    payload = bytes(range(256)) * 32  # two pages
    ftl.ftl_write(0, payload)
    assert ftl.ftl_read(0, 2 * PAGE) == payload
    assert ftl.ftl_read(1000, 5000) == payload[1000:6000]
    assert ftl.ftl_read(0, 0) == b""


def test_read_gathers_physically_scattered_pages():
    ftl = make_ftl()
    extent = b"".join(bytes([tag]) * PAGE for tag in b"abc")
    ftl.ftl_write(0, extent)
    ftl.ftl_write(PAGE, b"B" * PAGE)           # middle page moves away
    ppages = list(ftl.mapping[:3])
    assert ppages[1] != ppages[0] + 1
    want = b"a" * PAGE + b"B" * PAGE + b"c" * PAGE
    assert ftl.ftl_read(0, 3 * PAGE) == want
    assert ftl.ftl_read(100, 3 * PAGE - 200) == want[100:-100]


def test_unmapped_names_first_unwritten_page():
    ftl = make_ftl()
    ftl.ftl_write(0, b"x" * 2 * PAGE)
    ftl.ftl_write(3 * PAGE, b"y" * PAGE)
    with pytest.raises(errors.ContractError,
                       match=r"logical page 2 never written"):
        ftl.ftl_read(PAGE + 7, 4 * PAGE)
    assert ftl.read_bytes == 0


def test_identity_array_grows_only_with_touched_pages():
    # building does no per-page work beyond the two page maps: the identity
    # array the write and read paths slice starts empty and reaches only
    # the highest logical or physical page a write or read has touched
    ftl = make_ftl(ppb=8, blocks=24)
    assert len(ftl.identity) == 0
    ftl.ftl_write(40 * PAGE, b"a" * 3 * PAGE)  # logical 40-42, physical 0-2
    assert len(ftl.identity) == 43
    for _ in range(50):                        # physical 3-52
        ftl.ftl_write(0, b"b" * PAGE)
    assert len(ftl.identity) == 53
    assert ftl.ftl_read(40 * PAGE, 3 * PAGE) == b"a" * 3 * PAGE
    assert len(ftl.identity) == 53
    churn_and_check(ftl)
    assert len(ftl.identity) <= len(ftl.reverse)
    assert list(ftl.identity) == list(range(len(ftl.identity)))


# --- greedy victim selection -------------------------------------------------------

def test_victim_is_block_with_fewest_valid_pages():
    # two spare blocks keep GC quiet while the scene is arranged
    ftl = make_ftl(ppb=2, blocks=5, op_ratio=0.0)
    for lpn in range(6):                       # fills blocks 0, 1, 2
        ftl.ftl_write(lpn * PAGE, bytes([lpn]) * PAGE)
    ftl.ftl_write(1 * PAGE, b"n" * PAGE)       # block 0 drops to 1 valid
    assert ftl.valid_counts[0] == 1
    assert ftl._select_victim() == 0
    ftl.ftl_write(3 * PAGE, b"n" * PAGE)       # block 1 also at 1 valid
    assert ftl.valid_counts[:2] == [1, 1]
    assert ftl._select_victim() == 0           # tie broken by lowest index


def test_fully_invalid_victim_reclaimed_without_migration():
    # valid counts {0, 2, 2} with two fresh copies elsewhere: the greedy
    # victim is the zero-valid block and reclaiming it migrates nothing;
    # a third spare block keeps GC quiet while the scene is arranged
    ftl = make_ftl(ppb=2, blocks=6, op_ratio=0.0)
    for lpn in range(6):
        ftl.ftl_write(lpn * PAGE, bytes([lpn]) * PAGE)
    ftl.ftl_write(0 * PAGE, b"n" * PAGE)       # block 0 fully stale
    ftl.ftl_write(1 * PAGE, b"n" * PAGE)
    assert ftl.valid_counts[0] == 0
    assert ftl._select_victim() == 0
    before = ftl.migrated_bytes
    assert ftl.ftl_internal_gc() == 0          # free pool already at trigger
    ftl.free_blocks.clear()                    # force a pass
    ftl.ftl_internal_gc()
    assert ftl.migrated_bytes == before        # zero-valid victim moved nothing
    assert 0 in ftl.free_blocks


# --- write amplification against the oracle -----------------------------------------

def run_pattern(lpns, ppb=16, blocks=32, op_ratio=0.07):
    ftl = make_ftl(ppb=ppb, blocks=blocks, op_ratio=op_ratio)
    oracle = OracleFtl(ppb, blocks, op_ratio=op_ratio)
    assert oracle.exported_pages == ftl.exported_bytes // PAGE
    for lpn in lpns:
        ftl.ftl_write(lpn * PAGE, bytes([lpn % 256]) * PAGE)
        oracle.write(lpn)
    return ftl, oracle


def test_sequential_overwrites_keep_wa_near_one():
    pages = make_ftl().exported_bytes // PAGE
    lpns = list(range(pages)) * 3
    ftl, oracle = run_pattern(lpns)
    wa = ftl.nand_bytes_written / ftl.host_bytes_written
    assert wa == pytest.approx(oracle.wa, abs=0)
    assert wa <= 1.01


def test_uniform_random_overwrites_inflate_wa():
    pages = make_ftl().exported_bytes // PAGE
    rng = random.Random(7)
    lpns = [rng.randrange(pages) for _ in range(3 * pages)]
    ftl, oracle = run_pattern(lpns)
    wa = ftl.nand_bytes_written / ftl.host_bytes_written
    assert wa == pytest.approx(oracle.wa, abs=0)
    assert wa > 2.0


def test_wa_identity_host_plus_migrated():
    pages = make_ftl().exported_bytes // PAGE
    rng = random.Random(3)
    lpns = [rng.randrange(pages) for _ in range(2 * pages)]
    ftl, _ = run_pattern(lpns)
    assert ftl.nand_bytes_written == ftl.host_bytes_written + ftl.migrated_bytes


def assert_matches_oracle(ftl, oracle, shadow):
    # counters, both page maps, every block's valid count and every page
    ppb = ftl.pages_per_block
    assert ftl.host_bytes_written == oracle.host * PAGE
    assert ftl.nand_bytes_written == oracle.nand * PAGE
    assert ftl.migrated_bytes == oracle.migrated * PAGE
    want_map = [-1] * (ftl.exported_bytes // PAGE)
    want_reverse = [-1] * len(ftl.reverse)
    for lpn, (block, slot) in oracle.where.items():
        want_map[lpn] = block * ppb + slot
        want_reverse[block * ppb + slot] = lpn
    assert list(ftl.mapping) == want_map
    assert list(ftl.reverse) == want_reverse
    assert ftl.valid_counts == [oracle._valid(b) for b in range(len(oracle.blocks))]
    assert sum(ftl.valid_counts) == len(shadow)
    for lpn, data in shadow.items():
        assert ftl.ftl_read(lpn * PAGE, PAGE) == data


def watch_victims(ftl):
    """Count, over the victims GC migrates, those holding two or more
    logical runs and the runs the end of the active block splits. The
    counts are read from the maps as each victim is picked, not from the
    migration under test."""
    seen = {"multi_run": 0, "split": 0}
    select = ftl._select_victim
    ppb = ftl.pages_per_block

    def counted():
        victim = select()
        if victim is not None and ftl.valid_counts[victim] < ppb:
            lpages = [lpage for lpage in ftl.reverse[victim * ppb:(victim + 1) * ppb]
                      if lpage >= 0]
            starts = [i for i, lpage in enumerate(lpages)
                      if i == 0 or lpages[i - 1] != lpage - 1]
            seen["multi_run"] += len(starts) >= 2
            fill = ftl.active_fill
            for start, end in zip(starts, starts[1:] + [len(lpages)]):
                # a run that starts inside a block and ends past it splits
                seen["split"] += 0 < fill % ppb and fill % ppb + end - start > ppb
                fill += end - start
        return victim

    ftl._select_victim = counted
    return seen


@pytest.mark.parametrize("seed,ppb", [(1, 4), (2, 8), (3, 16)])
def test_multi_page_runs_match_oracle(seed, ppb):
    # extents of 1 to 3 blocks at random page offsets cross block
    # boundaries, and GC fires while a write is half placed. GC victims
    # hold several logical runs, and runs split where the active block ends
    blocks = 24
    ftl = make_ftl(ppb=ppb, blocks=blocks)
    victims = watch_victims(ftl)
    oracle = OracleFtl(ppb, blocks)
    pages = ftl.exported_bytes // PAGE
    rng = random.Random(seed)
    shadow = {}
    gc_mid_write = 0
    for _ in range(12 * blocks):
        count = rng.randint(1, 3 * ppb)
        first = rng.randrange(pages - count + 1)
        data = rng.randbytes(count * PAGE)
        mid_block = ftl.active_fill < ppb
        runs_before = ftl.gc_runs
        ftl.ftl_write(first * PAGE, data)
        gc_mid_write += mid_block and ftl.gc_runs > runs_before
        for i in range(count):
            oracle.write(first + i)
            shadow[first + i] = data[i * PAGE:(i + 1) * PAGE]
    assert gc_mid_write > 0 and victims["multi_run"] > 0 and victims["split"] > 0
    assert_matches_oracle(ftl, oracle, shadow)
    for _ in range(50):
        count = rng.randint(1, 3 * ppb)
        first = rng.randrange(pages - count + 1)
        if all(first + i in shadow for i in range(count)):
            want = b"".join(shadow[first + i] for i in range(count))
            assert ftl.ftl_read(first * PAGE + 5, count * PAGE - 9) == want[5:-4]


@pytest.mark.parametrize("seed,ppb,extent_blocks", [(1, 4, 4), (2, 8, 2), (3, 16, 3)])
def test_region_shaped_writes_match_oracle(seed, ppb, extent_blocks):
    # the cache's pattern: whole extents of several erase blocks rewritten
    # at extent-aligned addresses in shuffled order. One leading single-page
    # write starts every later extent mid-block, so an extent's old copies
    # straddle erase blocks; random single-page overwrites make GC migrate
    # pages, which scatters the old copies of the extents they land in
    blocks = 32
    ftl = make_ftl(ppb=ppb, blocks=blocks)
    oracle = OracleFtl(ppb, blocks)
    pages = ftl.exported_bytes // PAGE
    extent = extent_blocks * ppb
    starts = [i * extent for i in range(pages // extent)]
    rng = random.Random(seed)
    shadow = {}
    straddled = scattered = 0

    def write(first, count):
        data = rng.randbytes(count * PAGE)
        ftl.ftl_write(first * PAGE, data)
        for i in range(count):
            oracle.write(first + i)
            shadow[first + i] = data[i * PAGE:(i + 1) * PAGE]

    write(pages - 1, 1)
    for rnd in range(8):
        rng.shuffle(starts)
        for first in starts:
            old = list(ftl.mapping[first:first + extent])
            if old == list(range(old[0], old[0] + extent)):
                straddled += old[0] % ppb != 0
            elif min(old) >= 0:
                scattered += 1
            write(first, extent)
            if rnd >= 2 and rng.random() < 0.5:
                write(rng.randrange(pages), 1)
    assert straddled > 0 and scattered > 0 and ftl.migrated_bytes > 0
    assert_matches_oracle(ftl, oracle, shadow)
    for first in starts:
        want = b"".join(shadow[first + i] for i in range(extent))
        assert ftl.ftl_read(first * PAGE, extent * PAGE) == want


# --- integrity and exhaustion ---------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_payloads_survive_gc(seed):
    ftl = make_ftl(ppb=8, blocks=16)
    pages = ftl.exported_bytes // PAGE
    rng = random.Random(seed)
    shadow = {}
    for i in range(4 * pages):
        lpn = rng.randrange(pages)
        data = rng.randbytes(PAGE)
        ftl.ftl_write(lpn * PAGE, data)
        shadow[lpn] = data
        if i % 97 == 0:
            probe = rng.choice(list(shadow))
            assert ftl.ftl_read(probe * PAGE, PAGE) == shadow[probe]
    assert ftl.gc_runs > 0
    for lpn, data in shadow.items():
        assert ftl.ftl_read(lpn * PAGE, PAGE) == data


class RecordingArena:
    """Stands in for the FTL's mmap, whose only use is madvise: records
    each call and gives no advice, or fails like a kernel without it."""

    def __init__(self, fail=False):
        self.fail, self.calls = fail, []

    def madvise(self, *args):
        self.calls.append(args)
        if self.fail:
            raise OSError(22, "Invalid argument")


def churn_and_check(ftl, seed=4):
    # overwrite enough to run GC, then read every write back byte for byte
    ppb = ftl.pages_per_block
    pages = ftl.exported_bytes // PAGE
    rng = random.Random(seed)
    shadow = {}
    for _ in range(12 * ftl.block_count):
        count = rng.randint(1, 3 * ppb)
        first = rng.randrange(pages - count + 1)
        data = rng.randbytes(count * PAGE)
        ftl.ftl_write(first * PAGE, data)
        for i in range(count):
            shadow[first + i] = data[i * PAGE:(i + 1) * PAGE]
    assert ftl.gc_runs > 0 and ftl.erase_count > 0
    for lpn, data in shadow.items():
        assert ftl.ftl_read(lpn * PAGE, PAGE) == data


def test_only_fault_in_advises_one_call_per_request(monkeypatch):
    # lending, writing and reading fault nothing in: the borrower of a
    # lent view asks for each range, and each request is one advice
    monkeypatch.setattr(memory, "POPULATE_WRITE", 23)
    ftl = make_ftl(ppb=8, blocks=24)
    ftl.arena = RecordingArena()
    chunk = 8 * PAGE
    view, fault = ftl.lend_buffer(2 * chunk, chunk)
    assert fault is not None
    ftl.ftl_write(chunk + 4 * PAGE, b"x" * 2 * chunk)
    ftl.ftl_read(chunk + 4 * PAGE, chunk)
    assert ftl.arena.calls == []
    fault(0, 3 * PAGE)
    fault(3 * PAGE, 5 * PAGE)
    fault(0, 3 * PAGE)                         # the same range again: one more advice
    view[:] = b"v" * chunk
    ftl.ftl_write(2 * chunk, view)
    assert ftl.ftl_read(2 * chunk, chunk) == b"v" * chunk
    churn_and_check(ftl)
    assert ftl.arena.calls == [(23, 2 * chunk, 3 * PAGE),
                               (23, 2 * chunk + 3 * PAGE, 5 * PAGE),
                               (23, 2 * chunk, 3 * PAGE)]


def test_lend_flags_a_range_holding_a_page_never_written(
        monkeypatch):
    # a written page stays mapped and resident, as the FTL has no TRIM: a
    # range written whole is lent with no fault-in, also once GC has moved
    # its pages, and is filled with no advice; a range holding even one
    # page never written is lent with one
    monkeypatch.setattr(memory, "POPULATE_WRITE", 23)
    ftl = make_ftl(ppb=8, blocks=24)
    ftl.arena = RecordingArena()
    chunk, first = 8 * PAGE, 8  # the region at [chunk, 2 * chunk), in pages
    ftl.ftl_write(0, b"z" * 4 * PAGE)          # pages 4-7 stay unwritten
    for fill, new in ((b"a", True), (b"b", False)):  # the region filled twice
        view, fault = ftl.lend_buffer(chunk, chunk)
        assert (fault is not None) is new
        for start in range(0, chunk, 2 * PAGE):
            if fault is not None:
                fault(start, 2 * PAGE)
            view[start:start + 2 * PAGE] = fill * 2 * PAGE
        ftl.ftl_write(chunk, view)
        assert ftl.ftl_read(chunk, chunk) == fill * chunk
    steps = [(23, chunk + start, 2 * PAGE) for start in range(0, chunk, 2 * PAGE)]
    assert ftl.arena.calls == steps
    assert ftl.lend_buffer(0, 4 * PAGE)[1] is None  # written whole, by a copy
    assert ftl.lend_buffer(chunk - PAGE, chunk)[1] is not None  # page 7 never written
    assert ftl.lend_buffer(chunk + PAGE, chunk)[1] is not None  # page 16 never written
    # overwrite every other page until GC moves the region's pages
    placed = ftl.mapping[first:first + 8]
    rng = random.Random(4)
    for _ in range(50 * ftl.block_count):
        if ftl.mapping[first:first + 8] != placed:
            break
        lpage = rng.choice([p for p in range(ftl.exported_bytes // PAGE)
                            if not first <= p < first + 8])
        ftl.ftl_write(lpage * PAGE, rng.randbytes(PAGE))
    assert ftl.mapping[first:first + 8] != placed
    view, fault = ftl.lend_buffer(chunk, chunk)
    assert fault is None
    assert bytes(view) == ftl.ftl_read(chunk, chunk) == b"b" * chunk
    assert ftl.arena.calls == steps            # writes fault in, with no advice


@pytest.mark.parametrize("fallback", ["off_linux", "advice_fails"])
def test_writes_read_back_without_populate_advice(monkeypatch, fallback):
    monkeypatch.setattr(memory, "POPULATE_WRITE",
                        None if fallback == "off_linux" else 23)
    ftl = make_ftl(ppb=8, blocks=24)
    ftl.arena = RecordingArena(fail=True)
    for address in (5 * PAGE, 9 * PAGE):
        view, fault = ftl.lend_buffer(address, 2 * PAGE)
        assert fault is not None
        fault(0, 2 * PAGE)
        view[:] = bytes([address // PAGE]) * 2 * PAGE
        ftl.ftl_write(address, view)
        assert ftl.ftl_read(address, 2 * PAGE) == bytes([address // PAGE]) * 2 * PAGE
    churn_and_check(ftl)
    assert ftl.populator.advice is None
    # a failed advice is not retried
    assert len(ftl.arena.calls) == (0 if fallback == "off_linux" else 1)


# --- lend and commit ------------------------------------------------------------------

class RecordingData:
    """Wraps the FTL's byte view and records every store into it."""

    def __init__(self, data):
        self.data, self.stores = data, []

    def __getitem__(self, key):
        return self.data[key]

    def __setitem__(self, key, value):
        self.stores.append((key.start, key.stop))
        self.data[key] = value


def test_lent_views_commit_without_a_copy_and_match_oracle():
    # the cache's pattern: each extent is filled in a view lent at its
    # address and written back; GC migrates pages in between, and no
    # commit copies a byte
    ppb, blocks, extent = 8, 24, 12
    ftl = make_ftl(ppb=ppb, blocks=blocks)
    ftl.data = RecordingData(ftl.data)
    oracle = OracleFtl(ppb, blocks)
    rng = random.Random(8)
    shadow = {}
    starts = [i * extent for i in range(ftl.exported_bytes // PAGE // extent)]
    for _ in range(6 * len(starts)):
        first = rng.choice(starts)
        view, _ = ftl.lend_buffer(first * PAGE, extent * PAGE)
        view[:] = data = rng.randbytes(extent * PAGE)
        ftl.ftl_write(first * PAGE, view)
        for i in range(extent):
            oracle.write(first + i)
            shadow[first + i] = data[i * PAGE:(i + 1) * PAGE]
    assert ftl.data.stores == [] and ftl.lent == {}
    assert ftl.migrated_bytes > 0
    assert_matches_oracle(ftl, oracle, shadow)


def test_foreign_payload_is_copied_run_by_run():
    ftl = make_ftl(ppb=8, blocks=24)
    ftl.data = RecordingData(ftl.data)
    ftl.ftl_write(0, b"z" * 6 * PAGE)   # physical pages 0-5
    buf = bytearray(b"a" * 3 * PAGE)
    ftl.ftl_write(40 * PAGE, buf)       # physical 6-7 end block 0, 8 opens block 1
    assert ftl.data.stores[1:] == [(40 * PAGE, 42 * PAGE), (42 * PAGE, 43 * PAGE)]
    buf[:] = b"b" * 3 * PAGE            # the caller may reuse its buffer
    assert ftl.ftl_read(40 * PAGE, 3 * PAGE) == b"a" * 3 * PAGE


def test_view_lent_for_another_address_is_copied_not_adopted():
    ftl = make_ftl(ppb=8, blocks=24)
    ftl.data = RecordingData(ftl.data)
    view, _ = ftl.lend_buffer(16 * PAGE, 2 * PAGE)
    view[:] = b"v" * 2 * PAGE
    ftl.ftl_write(40 * PAGE, view)
    assert ftl.data.stores == [(40 * PAGE, 42 * PAGE)]
    view[:] = b"w" * 2 * PAGE           # still aliases address 16, not 40
    assert ftl.ftl_read(40 * PAGE, 2 * PAGE) == b"v" * 2 * PAGE
    with pytest.raises(errors.ContractError,
                       match="logical page 16 never written"):
        ftl.ftl_read(16 * PAGE, PAGE)
    ftl.ftl_write(16 * PAGE, view)      # its own address still adopts it
    assert len(ftl.data.stores) == 1
    assert ftl.ftl_read(16 * PAGE, 2 * PAGE) == b"w" * 2 * PAGE


def test_gc_moves_no_bytes():
    ppb, blocks = 8, 24
    ftl = make_ftl(ppb=ppb, blocks=blocks)
    oracle = OracleFtl(ppb, blocks)
    gc = ftl.ftl_internal_gc
    migrated = []

    def checked_gc():
        before = bytes(ftl.data)
        migrated.append(gc())
        assert bytes(ftl.data) == before
        return migrated[-1]

    ftl.ftl_internal_gc = checked_gc
    pages = ftl.exported_bytes // PAGE
    rng = random.Random(9)
    shadow = {}
    for _ in range(8 * blocks):
        count = rng.randint(1, 2 * ppb)
        first = rng.randrange(pages - count + 1)
        data = rng.randbytes(count * PAGE)
        ftl.ftl_write(first * PAGE, data)
        for i in range(count):
            oracle.write(first + i)
            shadow[first + i] = data[i * PAGE:(i + 1) * PAGE]
    assert sum(migrated) > 0
    assert_matches_oracle(ftl, oracle, shadow)


def test_write_failing_part_way_leaves_unplaced_pages_old():
    # 4 blocks of 2 pages export 6: pages 0-5 fill blocks 0-2. Rewriting
    # pages 1-4 places 1-2 in block 3, which leaves one valid page in each
    # of blocks 0 and 1 and no free block to migrate it into
    ftl = make_ftl(ppb=2, blocks=4, op_ratio=0.3)
    assert ftl.exported_bytes // PAGE == 6
    old = b"".join(bytes([lpn]) * PAGE for lpn in range(6))
    ftl.ftl_write(0, old)
    with pytest.raises(errors.DeviceBusy):
        ftl.ftl_write(PAGE, b"n" * 4 * PAGE)
    want = old[:PAGE] + b"n" * 2 * PAGE + old[3 * PAGE:]
    assert ftl.ftl_read(0, 6 * PAGE) == want


def assert_maps_consistent(ftl):
    # the two page maps agree, and each block's count is its mapped pages
    ppb = ftl.pages_per_block
    for lpage, ppage in enumerate(ftl.mapping):
        if ppage >= 0:
            assert ftl.reverse[ppage] == lpage, f"logical page {lpage}"
    for ppage, lpage in enumerate(ftl.reverse):
        if lpage >= 0:
            assert ftl.mapping[lpage] == ppage, f"physical page {ppage}"
    for block, count in enumerate(ftl.valid_counts):
        live = ftl.reverse[block * ppb:(block + 1) * ppb]
        assert count == len(live) - live.count(-1), f"block {block}"


def test_gc_failing_mid_migration_leaves_maps_consistent():
    # the scene above: the rewrite's second GC picks block 0, and its
    # valid page 0 has no free block to move to
    ftl = make_ftl(ppb=2, blocks=4, op_ratio=0.3)
    ftl.ftl_write(0, b"o" * 6 * PAGE)
    with pytest.raises(errors.DeviceBusy):
        ftl.ftl_write(PAGE, b"n" * 4 * PAGE)
    assert_maps_consistent(ftl)
    assert ftl.mapping[0] == 0 and ftl.valid_counts[0] == 1


def test_device_busy_when_nothing_reclaimable():
    # zero OP: the host can fill every page, after which GC finds every
    # candidate fully valid and the next allocation has nowhere to go
    ftl = make_ftl(ppb=2, blocks=2, op_ratio=0.0)
    for lpn in range(ftl.exported_bytes // PAGE):
        ftl.ftl_write(lpn * PAGE, b"v" * PAGE)
    with pytest.raises(errors.DeviceBusy):
        ftl.ftl_write(0, b"w" * PAGE)
