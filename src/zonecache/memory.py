"""Fault anonymous memory in ahead of the writes that fill it.

The zone store's region buffers and the FTL's arena are private
anonymous maps, faulted in as the cache fills them rather than when they
are mapped. Each owner faults a range in with one `MADV_POPULATE_WRITE`
(Linux 5.14+), which zeroes its pages in one call instead of one trap per
page. An owner lends memory that was never faulted in with a call that
advises a range of it, and other memory with None, so resident memory is
never asked for: the advice still walks resident pages, so asking again
would cost time for nothing.
Where the advice is missing or fails, the owner stops asking, and plain
writes fault the pages in one at a time: the bytes are the same.
"""

import sys

PAGE = 4096  # FTL pages, zone capacities and fault-in ranges align to it

# Linux MADV_POPULATE_WRITE, which Python 3.11's mmap does not name
POPULATE_WRITE = 23 if sys.platform.startswith("linux") else None


class Populator:
    """Faults ranges of one owner's maps in, one advice per range."""

    __slots__ = ("advice",)

    def __init__(self):
        self.advice = POPULATE_WRITE  # None once the advice fails

    def populate(self, mem, start, length):
        """Fault in `length` bytes of the map `mem` from `start`, a `PAGE`
        boundary; a failed advice is not retried."""
        if self.advice is None:
            return
        try:
            mem.madvise(self.advice, start, length)
        except OSError:  # older kernel
            self.advice = None
