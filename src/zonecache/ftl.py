"""Minimal page-mapped FTL emulator for a conventional block-interface SSD.

Models just enough firmware behavior to compare against zoned backends:
logical page remapping, an active erase block filled append-style, greedy
internal GC (victim = fewest valid pages, lowest block index on ties), and
internal over-provisioning hidden from the host. GC runs inline during
writes; there is no background thread.

Bytes are held by logical address; physical placement is metadata only.
The exported capacity, the physical capacity over one plus the OP ratio
floored to a page, is computed once, in `__init__`. The data is one
private anonymous map of the exported capacity, faulted in as it is
filled. `lend_buffer` hands out a view of the map that `ftl_write`
commits in place, with what faults it in: for a range that
holds a page never written, a call its borrower makes a step at a time
ahead of its writes (one `memory.Populator` advice each), and None for
a range written whole, since written pages stay resident (the FTL has
no TRIM). Any other payload is copied as its runs are placed, faulting
its pages in. A read is one slice, and GC migration remaps pages
without moving a byte. The page maps are integer arrays, -1 meaning
unmapped: `mapping` (logical -> physical)
and `reverse` (physical -> logical). Host writes and GC migration place
pages through one remap: a run of logically consecutive pages, cut at the
end of the active erase block, is mapped with one slice of an identity
array per map (`identity[i] == i`, grown on demand), and its old copies
are invalidated by slices when they form one physical run, page by page
when they are scattered. GC moves a victim's valid pages in physical
order, one logical run at a time.
"""

import heapq
import mmap
from array import array

from . import errors
from .memory import PAGE, Populator

# GC runs when a write needs a fresh erase block and fewer than this many
# are free; one more than the block it takes leaves one for migration
GC_TRIGGER_FREE_BLOCKS = 2


class PageMappedFtl:
    def __init__(self, pages_per_block, block_count, op_ratio=0.07):
        if pages_per_block < 1 or block_count < 1:
            raise errors.InvalidConfig("page/block geometry must be >= 1")
        if op_ratio < 0:
            raise errors.InvalidConfig("internal_op_ratio must be >= 0")
        pages = block_count * pages_per_block
        # physical space split between exported capacity and reserved OP
        raw = int(pages * PAGE / (1.0 + op_ratio))
        self.exported_bytes = raw - raw % PAGE
        if self.exported_bytes < PAGE:
            raise errors.InvalidConfig("exported capacity under one page")
        self.pages_per_block = pages_per_block
        self.block_count = block_count
        self.arena = mmap.mmap(-1, self.exported_bytes, flags=mmap.MAP_PRIVATE)
        self.data = memoryview(self.arena)  # logical bytes
        self.populator = Populator()
        self.lent = {}  # logical address -> the view lent for it
        self.mapping = array("q", [-1]) * (raw // PAGE)  # logical -> physical
        self.reverse = array("q", [-1]) * pages  # physical -> logical, valid pages only
        self.identity = array("q")  # identity[i] == i, grown on demand by _identity
        self.valid_counts = [0] * block_count
        self.free_blocks = list(range(block_count))
        heapq.heapify(self.free_blocks)
        self.active_block = None
        # pages consumed in the active block; full until the first is taken
        self.active_fill = pages_per_block
        self.host_bytes_written = 0
        self.read_bytes = 0
        self.migrated_bytes = 0
        self.gc_runs = 0
        self.erase_count = 0

    # -- allocation and GC ---------------------------------------------------

    @property
    def free_block_count(self) -> int:
        return len(self.free_blocks)

    @property
    def nand_bytes_written(self) -> int:
        return self.host_bytes_written + self.migrated_bytes

    def _take_active(self):
        if not self.free_blocks:
            raise errors.DeviceBusy("no free erase blocks remain")
        self.active_block = heapq.heappop(self.free_blocks)
        self.active_fill = 0

    def _identity(self, end):
        """The identity array, grown to cover at least pages [0, end)."""
        identity = self.identity
        if len(identity) < end:
            identity.extend(range(len(identity), end))
        return identity

    def _select_victim(self):
        # free blocks and an active block with room score past any valid
        # count; a full active block is a candidate like any other, so GC
        # never leaves its invalid pages stranded there. index() of the
        # minimum breaks ties on the lowest block
        ppb = self.pages_per_block
        scores = list(self.valid_counts)
        for block in self.free_blocks:
            scores[block] = ppb + 1
        if self.active_fill < ppb:
            scores[self.active_block] = ppb + 1
        best = min(scores)
        return None if best > ppb else scores.index(best)

    def ftl_internal_gc(self) -> int:
        """Reclaim erase blocks until the free pool reaches the trigger level
        (a no-op when it is there already). Returns the migrated page count.
        A victim's valid pages move in physical order, one logically
        consecutive run at a time, through the same remap as a host write."""
        if self.free_block_count >= GC_TRIGGER_FREE_BLOCKS:
            return 0
        self.gc_runs += 1
        ppb = self.pages_per_block
        migrated = 0
        while self.free_block_count < GC_TRIGGER_FREE_BLOCKS:
            victim = self._select_victim()
            if victim is None or self.valid_counts[victim] >= ppb:
                break  # nothing reclaimable: every candidate is fully valid
            lpages = [lpage for lpage in self.reverse[victim * ppb:(victim + 1) * ppb]
                      if lpage >= 0]
            start = 0
            for i, last in enumerate(lpages, 1):
                if i < len(lpages) and lpages[i] == last + 1:
                    continue  # the run goes on
                lpage, end = lpages[start], last + 1
                while lpage < end:
                    if self.active_fill == ppb:
                        self._take_active()  # GC never starts GC
                    run = self._remap(lpage, end)
                    self.migrated_bytes += run * PAGE
                    migrated += run
                    lpage += run
                start = i
            self.erase_count += 1
            heapq.heappush(self.free_blocks, victim)
        return migrated

    def _remap(self, lpage, end) -> int:
        """Place logical pages [lpage, end), or as many as the active block
        has room for, at its fill point: invalidate their old copies and
        point both maps at the new ones. Returns the placed page count."""
        ppb = self.pages_per_block
        run = min(end - lpage, ppb - self.active_fill)
        ppage = self.active_block * ppb + self.active_fill
        self.active_fill += run
        olds = self.mapping[lpage:lpage + run]
        old = olds[0]
        identity = self._identity(max(lpage, ppage) + run)
        if old >= 0 and olds == identity[old:old + run]:
            # the old copies are one physical run: clear it by slices
            self.reverse[old:old + run] = array("q", [-1]) * run
            for block in range(old // ppb, (old + run - 1) // ppb + 1):
                self.valid_counts[block] -= \
                    min(old + run, (block + 1) * ppb) - max(old, block * ppb)
        else:  # unwritten or scattered, as after GC migrated some
            for old in olds:
                if old >= 0:
                    self.valid_counts[old // ppb] -= 1
                    self.reverse[old] = -1
        self.mapping[lpage:lpage + run] = identity[ppage:ppage + run]
        self.reverse[ppage:ppage + run] = identity[lpage:lpage + run]
        self.valid_counts[self.active_block] += run
        return run

    # -- host interface --------------------------------------------------------

    def _check_write(self, address, length):
        if address % PAGE != 0 or length % PAGE != 0:
            raise errors.Misaligned("writes must be page-aligned in address and length")
        if address < 0 or address + length > self.exported_bytes:
            raise errors.OutOfRange("write outside exported capacity")

    def lend_buffer(self, address: int, length: int):
        """A writable view of the bytes at `address`, which reads see as it
        fills, and `fault_in(start, length)`, which faults in the view's
        range from `start`, a page boundary, ahead of the borrower's
        writes there; None when every page in it was written. `ftl_write`
        of the view there commits it with no copy."""
        self._check_write(address, length)
        view = self.lent[address] = self.data[address:address + length]
        if -1 not in self.mapping[address // PAGE:(address + length) // PAGE]:
            return view, None
        return view, lambda start, n: self.populator.populate(
            self.arena, address + start, n)

    def ftl_write(self, logical_address: int, payload):
        """If DeviceBusy stops a write part-way, the pages it did not place
        keep their old bytes, unless the payload is a lent view."""
        self._check_write(logical_address, len(payload))
        ppb = self.pages_per_block
        view = None if self.lent.pop(logical_address, None) is payload \
            else memoryview(payload)
        first = lpage = logical_address // PAGE
        end = first + len(payload) // PAGE
        while lpage < end:
            # GC fires only when a fresh erase block is about to be taken;
            # checking per page instead would evict victims mid-drain and
            # inflate WA even for strictly sequential overwrites
            if self.active_fill == ppb \
                    and self.free_block_count < GC_TRIGGER_FREE_BLOCKS:
                self.ftl_internal_gc()
            if self.active_fill == ppb:
                self._take_active()  # GC may have left room in the active block
            run = self._remap(lpage, end)
            if view is not None:
                src = (lpage - first) * PAGE
                self.data[lpage * PAGE:(lpage + run) * PAGE] = view[src:src + run * PAGE]
            self.host_bytes_written += run * PAGE
            lpage += run

    def ftl_read(self, logical_address: int, length: int) -> bytes:
        if logical_address < 0 or length < 0 \
                or logical_address + length > self.exported_bytes:
            raise errors.OutOfRange("read outside exported capacity")
        if length == 0:
            return b""
        first = logical_address // PAGE
        ppages = self.mapping[first:(logical_address + length - 1) // PAGE + 1]
        if -1 in ppages:
            raise errors.Unmapped(
                f"logical page {first + ppages.index(-1)} never written")
        self.read_bytes += length
        return bytes(self.data[logical_address:logical_address + length])
