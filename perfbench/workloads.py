"""The benchmark's workloads and the run spec each one hands the simulator.

Every workload uses the acceptance geometry (64 x 64 MiB zones, 16 MiB
regions, op_ratio 0.07) with the SchemeSpec defaults for everything else.
The spec is computed here, from the workload name and the seed alone, so a
change to the simulator's own preset sizing cannot change the benchmark's
inputs. Stdlib only: the runner imports this without the simulator.

The benchmark seed does not go to the simulator as is. Object size is a
hash of (workload seed, key), and under zipf 1.0 a handful of hot keys
take a large share of all sets, so the popularity-weighted mean object
size, and with it the bytes written per op, swings by -17 % to +26 %
from seed to seed; every simulated and host metric follows it.
`workload_seed` therefore takes, for benchmark seed s, the first workload
seed from s * 1000 on whose weighted mean size is within 2 % of the size
distribution's mean, the size the preset's key-space sizing assumes. The
test reads only the inputs, never a result of the program.
"""

import hashlib
import math

KIB = 1024
MIB = 1024 * KIB

GEOMETRY = {"zone_count": 64, "zone_capacity": 64 * MIB,
            "region_size": 16 * MIB, "op_ratio": 0.07, "vop_ratio": 1.0}
SIZE_MIN, SIZE_MAX = 2 * KIB, 256 * KIB
INTERVAL_OPS = 10_000

# Seeds 1-5 are the tuning seeds. A claim should also hold on this one,
# which no tuning looked at (`run.py --held-out`).
HELD_OUT_SEED = 1009

# name -> (scheme, preset, get ratio, op count, why)
WORKLOADS = {
    "zcachelib-l2wc": (
        "zcachelib", "l2_wc", 0.60, 300_000,
        "zone-aware ZLRU cache on a write-heavy mix: flush, reorder, "
        "watermark check and GC drops; the FTL is idle"),
    "reg-lru-l2wc": (
        "reg-lru", "l2_wc", 0.60, 300_000,
        "same op stream through the page-mapped FTL: isolates the FTL, "
        "while the zone store and zoned device are idle"),
    "zns-middle-lru-l2reg": (
        "zns-middle-lru", "l2_reg", 0.88, 450_000,
        "read-heavy mix on a zone-unaware cache: lookups, device reads "
        "and GC that migrates every valid region"),
}


SIZE_TOLERANCE = 0.02


def mean_size() -> float:
    """Mean of the log-uniform object size distribution."""
    return (SIZE_MAX - SIZE_MIN) / math.log(SIZE_MAX / SIZE_MIN)


def object_size(workload_seed: int, key: str) -> int:
    """The size the simulator's workload generator gives the key."""
    digest = hashlib.blake2b(f"{workload_seed}|{key}|size".encode(),
                             digest_size=8).digest()
    u = int.from_bytes(digest, "big") / 2.0 ** 64
    return min(SIZE_MAX, int(SIZE_MIN * math.exp(
        u * math.log(SIZE_MAX / SIZE_MIN))))


def weighted_mean_size(workload_seed: int) -> float:
    """Mean object size weighted by zipf(1.0) popularity: what a set
    writes on average."""
    total = weighted = 0.0
    for rank in range(key_space()):
        weight = 1.0 / (rank + 1)
        total += weight
        weighted += weight * object_size(workload_seed, f"k{rank}")
    return weighted / total


def workload_seed(seed: int) -> int:
    """The first workload seed from seed * 1000 on whose weighted mean
    object size is within SIZE_TOLERANCE of the distribution's mean."""
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        if abs(weighted_mean_size(candidate) / mean_size() - 1) \
                <= SIZE_TOLERANCE:
            return candidate
    raise ValueError(f"no workload seed of typical size for seed {seed}")


def cache_bytes() -> int:
    """Cache capacity the op_ratio sizing gives: whole regions only."""
    g = GEOMETRY
    usable = int(g["zone_count"] * g["zone_capacity"] / (1.0 + g["op_ratio"]))
    return usable // g["region_size"] * g["region_size"]


def key_space() -> int:
    """Keys for a working set of about 1.5x the cache (log-uniform sizes)."""
    return round(1.5 * cache_bytes() / mean_size())


def make_spec(workload: str, workload_seed: int) -> dict:
    """The whole input of one run, as plain JSON-able values."""
    scheme, preset, get_ratio, op_count, _ = WORKLOADS[workload]
    return {
        "label": workload,
        "scheme": {"name": scheme, **GEOMETRY},
        "workload": {"name": f"{preset}-like", "get_ratio": get_ratio,
                     "key_space": key_space(), "op_count": op_count,
                     "seed": workload_seed, "zipf_alpha": 1.0,
                     "size_min": SIZE_MIN, "size_max": SIZE_MAX},
        "interval_ops": INTERVAL_OPS,
    }
