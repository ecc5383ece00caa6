"""Experiment runner: wires a scheme to a workload, tracks run stages,
advances a simulated clock, and reports per-interval metrics.

A run moves through three stages. It starts out `filling` (the cache is
cold), becomes `evicting` at the first region eviction, top-down or a GC
drop, and `stable` once space is first reclaimed: at the first zone reset
on a zoned scheme (by GC, or as a full zone's last region leaves), or at
the first internal FTL GC on the block baselines. Headline numbers are
stable-stage averages.

The simulated clock charges device traffic against two independent
bandwidth channels, 1000 MiB/s for writes and 3000 MiB/s for reads, the
same for every scheme: all writes (foreground flushes plus GC migrations)
share the write budget, all reads share the read budget, and elapsed time
per interval is whichever channel is busier.

`run` is `validate`, `build`, `generate` (or a trace's ops), `drive` and
the CSV write; `drive(engine, ops, config)`, the one op loop, also takes
an engine or an op stream that a caller brings (a model, a sweep script).

A run's input has one check, `ExperimentConfig.validate`, made before
any op: at config load, for each sweep point, and by `run`.
"""

import gc
import os
from dataclasses import dataclass, replace
from itertools import islice

from . import errors
from .schemes import (MIB, UNREAD_KEYS, EngineMetrics, SchemeSpec, build,
                      default_region_size, wa_factor)
from .workload import (OpKind, WorkloadSpec, generate, matches_value,
                       preset_spec, replay, value_bytes)

CSV_HEADER = ("interval,ops,hits,misses,hit_ratio,cache_bytes,device_bytes,"
              "wa_cum,gc_migrated_bytes,empty_zones,stage")


@dataclass
class ExperimentConfig:
    """One run's input. `validate` is its one check (InvalidConfig): one op
    source, whose items all fit the scheme's region, `interval_ops`, and
    an output path whose directory exists. It returns the ops a trace
    parsed to, which `run` replays without parsing the file again, or None
    for a generated workload."""
    scheme: SchemeSpec
    workload: WorkloadSpec = None
    trace_path: str = None
    interval_ops: int = 10_000
    timing_enabled: bool = False
    output_path: str = None
    verify_hits: bool = False  # check hit payloads: key's pattern, op's size

    def validate(self):
        if self.interval_ops < 1:
            raise errors.InvalidConfig("interval_ops must be >= 1")
        folder = os.path.dirname(self.output_path or "")
        if folder and not os.path.isdir(folder):
            raise errors.InvalidConfig(
                f"output directory not found: {folder}")
        if (self.workload is None) == (self.trace_path is None):
            raise errors.InvalidConfig("exactly one of workload or trace required")
        region = default_region_size(self.scheme)
        if self.workload is not None:
            self.workload.validate()
            if self.workload.size_max > region:
                raise errors.InvalidConfig(
                    f"size_max {self.workload.size_max} exceeds region size {region}")
            return None
        try:
            ops = replay(self.trace_path)
        except OSError:
            raise errors.InvalidConfig(f"trace file not found: {self.trace_path}")
        for index, op in enumerate(ops):  # a get's size is an earlier set's
            if op.kind is OpKind.SET and op.size > region:
                raise errors.InvalidConfig(
                    f"op {index} (set {op.key}): {op.size} bytes exceeds region "
                    f"size {region}")
        return ops


@dataclass
class IntervalRow:
    interval: int
    ops: int
    hits: int
    misses: int
    hit_ratio: float
    cache_bytes: int
    device_bytes: int
    wa_cum: float
    gc_migrated_bytes: int
    empty_zones: int
    stage: str


@dataclass
class RunSummary:
    stable_ops_per_sec: float  # None when timing is off or no stable stage
    stable_hit_ratio: float
    final_wa: float
    total_sim_seconds: float
    first_eviction_op: int
    first_gc_op: int  # stable stage start: first zone reset or FTL GC


@dataclass
class MetricsReport:
    rows: list
    summary: RunSummary
    final_metrics: object
    corrupt_hits: int = 0
    engine: object = None  # the engine post-run, for state inspection


def _fmt(value, digits=4):
    if value is None:
        return "na"
    return f"{value:.{digits}f}"


def _row_line(row) -> str:
    return (f"{row.interval},{row.ops},{row.hits},{row.misses},"
            f"{row.hit_ratio:.4f},{row.cache_bytes},{row.device_bytes},"
            f"{row.wa_cum:.4f},{row.gc_migrated_bytes},{row.empty_zones},"
            f"{row.stage}")


def render_csv(report: MetricsReport) -> str:
    lines = [CSV_HEADER]
    lines.extend(_row_line(r) for r in report.rows)
    s = report.summary
    lines.append(f"#summary,stable_ops_per_sec={_fmt(s.stable_ops_per_sec, 2)},"
                 f"stable_hit_ratio={_fmt(s.stable_hit_ratio)},"
                 f"final_wa={_fmt(s.final_wa)}")
    return "\n".join(lines) + "\n"


# the device bandwidths the clock charges, in bytes per second
WRITE_BANDWIDTH = 1000 * MIB
READ_BANDWIDTH = 3000 * MIB


def _interval_seconds(written, read) -> float:
    """Simulated seconds of an interval that wrote and read these device
    bytes: the busier of two independent channels."""
    return max(written / WRITE_BANDWIDTH, read / READ_BANDWIDTH)


def drive(engine, ops, config: ExperimentConfig) -> MetricsReport:
    """Push an op stream through an engine, interval by interval, and
    report it. A get that misses fills the cache when its op carries a
    size; `engine.tick_gc` runs once after every op. Reads
    `interval_ops`, `timing_enabled` and `verify_hits` from `config`.
    Python's cyclic collector is off while the ops run, and left as it
    was found when they end or one raises."""
    ops = iter(ops)  # a list would restart at every islice
    insert, lookup, tick_gc = engine.insert, engine.lookup, engine.tick_gc
    verify_hits, set_ = config.verify_hits, OpKind.SET
    stage = "filling"
    first_eviction_op = first_gc_op = None
    corrupt_hits = index = 0
    rows = []
    last = EngineMetrics()
    sim_seconds = stable_seconds = 0.0
    # the op loop makes no reference cycles, so a collection there would
    # only walk the long-lived heap (the index, the shared ops) and stall
    # the op it lands on
    collecting = gc.isenabled()
    gc.disable()
    try:
        while True:
            start = index
            for op in islice(ops, config.interval_ops):
                try:
                    if op.kind is set_:
                        insert(op.key, value_bytes(op.key, op.size))
                    else:
                        data = lookup(op.key)
                        if data is None:
                            if op.size is not None:  # cache-fill after a miss
                                insert(op.key, value_bytes(op.key, op.size))
                        elif verify_hits and not (
                                (op.size is None or len(data) == op.size)
                                and matches_value(op.key, data)):
                            corrupt_hits += 1
                    tick_gc()
                except errors.SimError as e:
                    raise errors.ExperimentError(
                        f"op {index} ({op.kind.value} {op.key}): {e}",
                        index) from e
                if stage == "filling" and engine.eviction_events > 0:
                    stage = "evicting"
                    first_eviction_op = index
                if stage == "evicting" and engine.gc_events > 0:
                    stage = "stable"
                    first_gc_op = index
                index += 1
            if index == start:
                break
            m = engine.metrics()
            delta = _interval_seconds(
                m.device_bytes_written - last.device_bytes_written,
                m.device_bytes_read - last.device_bytes_read)
            sim_seconds += delta
            hits, misses = m.hits - last.hits, m.misses - last.misses
            lookups = hits + misses
            rows.append(IntervalRow(
                interval=len(rows) + 1, ops=index - start, hits=hits,
                misses=misses, hit_ratio=hits / lookups if lookups else 0.0,
                cache_bytes=m.cache_bytes_written,
                device_bytes=m.device_bytes_written, wa_cum=wa_factor(m),
                gc_migrated_bytes=m.gc_migrated_bytes,
                empty_zones=m.empty_zones, stage=stage))
            if stage == "stable":
                stable_seconds += delta
            last = m
    finally:
        if collecting:
            gc.enable()

    final = engine.metrics()
    stable = [row for row in rows if row.stage == "stable"]
    stable_hits = sum(row.hits for row in stable)
    stable_lookups = stable_hits + sum(row.misses for row in stable)
    throughput = None
    if config.timing_enabled and stable_seconds > 0:
        throughput = sum(row.ops for row in stable) / stable_seconds
    summary = RunSummary(
        stable_ops_per_sec=throughput,
        stable_hit_ratio=stable_hits / stable_lookups if stable_lookups else None,
        final_wa=wa_factor(final),
        total_sim_seconds=sim_seconds,
        first_eviction_op=first_eviction_op, first_gc_op=first_gc_op)
    return MetricsReport(rows=rows, summary=summary, final_metrics=final,
                         corrupt_hits=corrupt_hits, engine=engine)


def run(config: ExperimentConfig) -> MetricsReport:
    """Execute one experiment and return (and optionally write) its report."""
    trace_ops = config.validate()
    engine = build(config.scheme)
    report = drive(engine, trace_ops if trace_ops is not None
                   else generate(config.workload), config)
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(render_csv(report))
    return report


# --- config files -------------------------------------------------------------

_SIZE_SUFFIXES = {"kib": 1024, "mib": 1024 ** 2, "gib": 1024 ** 3,
                  "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "b": 1}


def parse_size(text: str) -> int:
    t = text.strip().lower()
    for suffix, mult in _SIZE_SUFFIXES.items():
        if t.endswith(suffix) and t[:-len(suffix)].strip():
            return int(float(t[:-len(suffix)].strip()) * mult)
    return int(t)


def _parse_bool(text):
    t = text.strip().lower()
    if t in ("1", "true", "on", "yes"):
        return True
    if t in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_SCHEME_KEYS = {
    "scheme": str, "zone_count": int, "zone_capacity": parse_size,
    "region_size": parse_size, "op_ratio": float,
    "vop_ratio": float, "w_low": float, "w_high": float,
    "min_write_zones": int,
    "cache_capacity_regions": int, "reorder_enabled": _parse_bool,
    "pages_per_block": int,
}
_WORKLOAD_KEYS = {
    "preset": str, "get_ratio": float, "key_space": int, "zipf_alpha": float,
    "size_min": parse_size, "size_max": parse_size, "op_count": int,
    "seed": int, "trace": str,
}
_SYNTHETIC_KEYS = [key for key in _WORKLOAD_KEYS if key != "trace"]
_RUN_KEYS = {
    "interval_ops": int, "timing": _parse_bool, "output": str,
}
_CONFIG_KEYS = {**_SCHEME_KEYS, **_WORKLOAD_KEYS, **_RUN_KEYS}


def parse_config_text(text, base_dir=".") -> ExperimentConfig:
    values = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise errors.InvalidConfig(f"line {number}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise errors.InvalidConfig(f"line {number}: duplicate key {key!r}")
        if key not in _CONFIG_KEYS:
            raise errors.InvalidConfig(f"line {number}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except (ValueError, TypeError) as e:
            raise errors.InvalidConfig(f"line {number}: bad value for {key}: {e}")
    return config_from_values(values, base_dir)


def config_from_values(values, base_dir=".") -> ExperimentConfig:
    if "scheme" not in values:
        raise errors.InvalidConfig("missing required key: scheme")
    spec_kwargs = {k: v for k, v in values.items() if k in _SCHEME_KEYS}
    spec_kwargs["name"] = spec_kwargs.pop("scheme")
    scheme = SchemeSpec(**spec_kwargs)
    cache_bytes = check_scheme(scheme, spec_kwargs)

    trace = values.get("trace")
    workload = None
    if trace is not None:
        clash = [k for k in _SYNTHETIC_KEYS if k in values]
        if clash:
            raise errors.InvalidConfig(
                f"config names both a trace and a synthetic workload "
                f"({', '.join(clash)}); pick one")
        trace = os.path.join(base_dir, trace)
    else:
        workload = _workload_from_values(values, cache_bytes)
    output = values.get("output")  # like the trace, beside the config file

    config = ExperimentConfig(
        scheme=scheme, workload=workload, trace_path=trace,
        interval_ops=values.get("interval_ops", 10_000),
        timing_enabled=values.get("timing", False),
        output_path=os.path.join(base_dir, output) if output else output)
    config.validate()
    return config


def check_scheme(scheme: SchemeSpec, keys) -> int:
    """Build the scheme once and drop it, failing with InvalidConfig: a
    spec that `build` rejects, or that sets (in `keys`) a key its scheme
    never reads (`schemes.UNREAD_KEYS`), is caught while the config
    loads. Returns the built cache's capacity in bytes."""
    cache = build(scheme).cache
    unread = [key for key in UNREAD_KEYS[scheme.name] if key in keys]
    if unread:
        raise errors.InvalidConfig(f"{scheme.name} ignores {', '.join(unread)}")
    return cache.capacity_regions * cache.region_size


def _workload_from_values(values, cache_bytes: int) -> WorkloadSpec:
    preset = values.get("preset")
    if preset is None and ("get_ratio" not in values
                           or "key_space" not in values):
        raise errors.InvalidConfig(
            "workload needs a preset, a trace, or get_ratio + key_space")
    overrides = {key: values[key] for key in _SYNTHETIC_KEYS
                 if key in values and key != "preset"}
    if preset is not None:
        spec = preset_spec(preset, cache_bytes)
    else:
        spec = WorkloadSpec(name="custom", get_ratio=values["get_ratio"],
                            key_space=values["key_space"], op_count=100_000)
    return replace(spec, **overrides)


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise errors.InvalidConfig(f"cannot read config {path}: {e.strerror}")
    return parse_config_text(text, base_dir=os.path.dirname(path) or ".")
