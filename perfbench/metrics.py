"""Every metric the benchmark reports, with its unit and direction.

End-to-end metrics come from untraced runs. `host` metrics are measured on
the host clock; the timed ones are scaled to the reference host speed that
the canary measures (see child.py). `sim` metrics are the harness's
simulated-time results, which repeat exactly for a given seed.
"""

# name, unit, better, clock, meaning
END_TO_END = [
    ("setup_s", "s", "lower", "host",
     "engine build to first op, zipf table included; median set-up"),
    ("host_ops_per_s", "ops/s", "higher", "host",
     "ops per host second over the whole harness run"),
    ("op_us_p50", "us", "lower", "host",
     "median gap between consecutive tick_gc returns"),
    ("op_us_p9999", "us", "lower", "host",
     "99.99th percentile of the same gaps: the flush and GC ops"),
    ("peak_rss_mib", "MiB", "lower", "host",
     "max RSS of the run processes, getrusage(RUSAGE_CHILDREN)"),
    ("final_wa", "ratio", "lower", "sim",
     "device bytes written / cache bytes written at the end"),
    ("stable_hit_ratio", "ratio", "higher", "sim",
     "hits / lookups over the stable stage"),
    ("sim_ops_per_s", "ops/s", "higher", "sim",
     "stable-stage ops per simulated second"),
]

# Self time (`_s`) of a layer's calls is their span time minus the time of
# the wrapped calls they make; `_calls` counts them.
_SELF_TIMED = {
    "workload": ["generate", "value_bytes"],
    "harness": ["self", "metrics"],
    "schemes": ["build", "tick_gc"],
    "zcache": ["insert", "lookup", "reorder"],
    "zstorage": ["write_region", "read_region", "gc_needed", "gc_cycle"],
    "zns": ["append", "read", "report"],
    "ftl": ["write", "read", "internal_gc"],
}
_COUNTED = {
    "workload": ["value_bytes"],
    "harness": ["metrics"],
    "schemes": ["tick_gc"],
    "zcache": ["insert", "lookup", "reorder", "evict", "drop_filter"],
    "zstorage": ["write_region", "read_region", "gc_needed", "gc_cycle"],
    "zns": ["append", "read", "reset"],
    "ftl": ["internal_gc"],
}
# derived values: name -> (unit, better)
_DERIVED = {
    "workload.value_bytes_mib": ("MiB", "lower"),
    "zcache.hit_ratio": ("ratio", "higher"),
    "zcache.reorder_moves": ("count", "lower"),
    "zcache.drops": ("count", "higher"),
    "zstorage.gc_migrated_mib": ("MiB", "lower"),
    "zstorage.gc_reclaimed_zones": ("count", "lower"),
    "zstorage.gc_victim_valid_ratio": ("ratio", "lower"),
    "zns.append_mib": ("MiB", "lower"),
    "zns.read_mib": ("MiB", "lower"),
    "ftl.write_mib": ("MiB", "lower"),
    "ftl.read_mib": ("MiB", "lower"),
    "ftl.gc_migrated_mib": ("MiB", "lower"),
    "ftl.nand_wa": ("ratio", "lower"),
}


def _per_layer():
    out = []
    for layer in _SELF_TIMED:
        out += [(f"{layer}.{c}_s", "s", "lower") for c in _SELF_TIMED[layer]]
        out += [(f"{layer}.{c}_calls", "count", "lower")
                for c in _COUNTED[layer]]
        out += [(n, *_DERIVED[n]) for n in _DERIVED
                if n.startswith(layer + ".")]
    return out


# name, unit, better
PER_LAYER = _per_layer()
