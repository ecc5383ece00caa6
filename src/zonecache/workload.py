"""Deterministic synthetic workloads and trace replay.

Key popularity follows a bounded zipf distribution sampled with a
cumulative-weight table, so identical specs always produce identical op
streams regardless of platform. The table is built in one C-level pass
of chained iterators and holds the same floats as the plain sum
`accumulate(1.0 / (r + 1) ** alpha for r in range(n))`. Object sizes are
log-uniform and derived from a keyed hash, which keeps every key's size
stable across re-inserts and across runs.
"""

import bisect
import math
import random
from dataclasses import dataclass
from enum import Enum
from hashlib import blake2b
from itertools import accumulate, repeat
from operator import truediv

from . import errors

KIB = 1024


class OpKind(Enum):
    GET = "get"
    SET = "set"


@dataclass(slots=True, frozen=True)
class CacheOp:
    """One op. `generate` yields the same object for every draw of one
    key and kind, so an op is immutable."""
    kind: OpKind
    key: str
    # a Set's value size; for a Get, the size to fill on a miss, or None
    # when the key's size is unknown and a miss fills nothing
    size: int = None


@dataclass
class WorkloadSpec:
    name: str
    get_ratio: float
    key_space: int
    op_count: int
    seed: int = 1
    zipf_alpha: float = 1.0
    size_min: int = 2 * KIB
    size_max: int = 256 * KIB

    def validate(self):
        if not 0.0 <= self.get_ratio <= 1.0:
            raise errors.InvalidConfig("get_ratio must be in [0, 1]")
        if self.key_space < 1:
            raise errors.InvalidConfig("key_space must be >= 1")
        if self.op_count < 1:
            raise errors.InvalidConfig("op_count must be >= 1")
        if self.zipf_alpha < 0:
            raise errors.InvalidConfig("zipf_alpha must be >= 0")
        if not 1 <= self.size_min <= self.size_max:
            raise errors.InvalidConfig("need 1 <= size_min <= size_max")


# get ratios for the shipped workload profiles
PRESET_GET_RATIOS = {"l2_wc": 0.60, "l2_reg": 0.88, "flat": 0.985}


def mean_object_size(size_min, size_max) -> float:
    if size_min == size_max:
        return float(size_min)
    return (size_max - size_min) / math.log(size_max / size_min)


def preset_spec(preset: str, cache_bytes: int, seed: int = 1,
                op_count: int = 100_000) -> WorkloadSpec:
    """Build a workload spec for one of the named profiles, with the key
    space sized so the working set is about 1.5x the cache."""
    if preset not in PRESET_GET_RATIOS:
        raise errors.InvalidConfig(
            f"unknown preset {preset!r}; choose one of {', '.join(PRESET_GET_RATIOS)}")
    if cache_bytes < 1:
        raise errors.InvalidConfig("cache_bytes must be >= 1")
    size_min, size_max = 2 * KIB, 256 * KIB
    keys = max(1, round(1.5 * cache_bytes / mean_object_size(size_min, size_max)))
    return WorkloadSpec(name=f"{preset}-like",
                        get_ratio=PRESET_GET_RATIOS[preset],
                        key_space=keys, op_count=op_count, seed=seed,
                        zipf_alpha=1.0, size_min=size_min, size_max=size_max)


def _hash_unit(*parts) -> float:
    """Stable hash of the parts mapped into [0, 1)."""
    digest = blake2b("|".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big") / 2.0 ** 64


def key_size(spec: WorkloadSpec, key: str) -> int:
    """Log-uniform size in [size_min, size_max], a pure function of the key."""
    if spec.size_min == spec.size_max:
        return spec.size_min
    u = _hash_unit(spec.seed, key, "size")
    span = math.log(spec.size_max / spec.size_min)
    return min(spec.size_max, int(spec.size_min * math.exp(u * span)))


def _tile(key: str) -> bytes:
    return blake2b(key.encode(), digest_size=8).digest()


def value_bytes(key: str, size: int) -> bytearray:
    """Deterministic payload for a key: a keyed 8-byte pattern tiled to size.
    The tiling is cut to size in place, so the payload is built once and
    an insert copies it only into its region. Reconstructable from the key
    alone, so integrity checks never need to store a second copy of the
    data."""
    # a bytearray, not a memoryview: bytes compare with it by memcmp, where
    # a memoryview compares item by item, two orders of magnitude slower
    payload = bytearray(_tile(key)) * (size // 8 + 1)
    del payload[size:]  # drops under 8 bytes: no reallocation
    return payload


def matches_value(key: str, data: bytes) -> bool:
    """`data == value_bytes(key, len(data))`, checked in place: the first
    8 bytes are the key's tile, and the rest repeats them, which is
    `data[8:] == data[:-8]`, one compare with no second copy."""
    tile, n = _tile(key), len(data)
    if n <= 8:
        return data == tile[:n]
    return data.startswith(tile) and data.startswith(
        memoryview(data)[:n - 8], 8)


class ZipfSampler:
    """Bounded zipf(alpha) over ranks 0..n-1 via an inverse-CDF table.

    The table is built in one C-level pass, with no Python frame per rank,
    and holds the same floats as `accumulate(1.0 / (r + 1) ** alpha for r
    in range(n))`. At alpha 1 the weights are the ranks themselves, since
    `x ** 1.0 == x` exactly; every other alpha raises each rank to it."""

    def __init__(self, n, alpha):
        ranks = range(1, n + 1)
        weights = ranks if alpha == 1 else map(pow, ranks, repeat(alpha))
        self._cumulative = list(accumulate(map(truediv, repeat(1.0), weights)))
        self._total = self._cumulative[-1] if n else 0.0

    def sample(self, u: float) -> int:
        return bisect.bisect_left(self._cumulative, u * self._total)


def generate(spec: WorkloadSpec):
    """Deterministic op stream for the spec, which is checked now, not at
    the first op. Every op carries its key's size; the harness turns Get
    misses into fills, not this."""
    spec.validate()
    return _ops(spec)


def _ops(spec: WorkloadSpec):
    draw, get_ratio = random.Random(spec.seed).random, spec.get_ratio
    sample = ZipfSampler(spec.key_space, spec.zipf_alpha).sample
    get, set_ = OpKind.GET, OpKind.SET
    # rank r's get at 2r and its set at 2r + 1, each built on its first
    # draw, from its twin's key and size once the twin is built, and
    # yielded again at each later one
    ops = [None] * (2 * spec.key_space)
    for _ in range(spec.op_count):
        kind = get if draw() < get_ratio else set_
        slot = 2 * sample(draw()) + (kind is set_)
        op = ops[slot]
        if op is None:
            twin = ops[slot ^ 1]
            if twin is None:
                key = f"k{slot // 2}"
                op = ops[slot] = CacheOp(kind, key, key_size(spec, key))
            else:
                op = ops[slot] = CacheOp(kind, twin.key, twin.size)
        yield op


def replay(path):
    """Parse a trace file into CacheOps.

    One op per line: `set <key> <size_bytes>` or `get <key>`; `#` starts a
    comment line. A get carries the size of its key's latest earlier set,
    or None if there was none. Raises InvalidConfig naming the offending
    line, also one whose bytes are not UTF-8.
    """
    ops = []
    sizes = {}
    with open(path, "rb") as fh:  # decoded line by line, to name the line
        for number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError as e:
                raise errors.InvalidConfig(
                    f"line {number}: not UTF-8: {e.reason} at byte {e.start}")
            if not line or line.startswith("#"):
                continue
            fields = line.split(" ")
            if fields[0] == "get" and len(fields) == 2:
                ops.append(CacheOp(OpKind.GET, fields[1], sizes.get(fields[1])))
            elif fields[0] == "set" and len(fields) == 3:
                try:
                    size = int(fields[2])
                except ValueError:
                    raise errors.InvalidConfig(
                        f"line {number}: bad size {fields[2]!r}")
                if size < 0:
                    raise errors.InvalidConfig(f"line {number}: negative size")
                sizes[fields[1]] = size
                ops.append(CacheOp(OpKind.SET, fields[1], size))
            else:
                raise errors.InvalidConfig(
                    f"line {number}: expected 'get <key>' or "
                    f"'set <key> <size>', got {line!r}")
    return ops


def write_trace(ops, path):
    with open(path, "w") as fh:
        fh.write("# zonecache trace: set <key> <size_bytes> | get <key>\n")
        for op in ops:
            if op.kind is OpKind.SET:
                fh.write(f"set {op.key} {op.size}\n")
            else:
                fh.write(f"get {op.key}\n")
