"""Experiment runner tests: stage tracking, CSV output, the simulated
clock, and config file parsing."""

import gc
import random
import re
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import KIB, MIB, tiny_spec
from zonecache import errors, harness
from zonecache.harness import (CSV_HEADER, ExperimentConfig, _SCHEME_KEYS,
                               _WORKLOAD_KEYS, _interval_seconds, check_scheme,
                               drive, parse_config_file, parse_config_text,
                               parse_size, render_csv, run)
from zonecache.schemes import SCHEME_NAMES, build
from zonecache.workload import (CacheOp, OpKind, WorkloadSpec, generate,
                                value_bytes)

STAGE_ORDER = {"filling": 0, "evicting": 1, "stable": 2}


def tiny_config(name="zns-middle-lru", ops=600, interval=100, seed=3, **kw):
    workload = WorkloadSpec(name="t", get_ratio=0.5, key_space=30,
                            op_count=ops, seed=seed, size_min=2 * KIB,
                            size_max=16 * KIB)
    return ExperimentConfig(scheme=tiny_spec(name), workload=workload,
                            interval_ops=interval, **kw)


# --- simulated clock ------------------------------------------------------------

def test_clock_write_channel_sets_the_pace():
    # writes at 1000 MiB/s, reads at 3000 MiB/s
    assert _interval_seconds(1000 * MIB, 0) == 1.0  # foreground only
    # GC adds as many migration writes again, plus their reads; the read
    # channel (1/3 s) hides behind the write channel (1 s)
    assert _interval_seconds(1000 * MIB, 1000 * MIB) == 1.0


def test_clock_read_channel_can_dominate():
    assert _interval_seconds(0, 1000 * MIB) == 1 / 3
    assert _interval_seconds(100 * MIB, 1000 * MIB) == 1 / 3


def test_simulate_time_matches_counter_arithmetic():
    report = run(tiny_config(ops=400, seed=2))
    seconds = report.summary.total_sim_seconds
    m = report.final_metrics
    assert seconds >= m.device_bytes_written / harness.WRITE_BANDWIDTH
    assert seconds >= m.device_bytes_read / harness.READ_BANDWIDTH
    assert seconds > 0


# --- stages and rows -------------------------------------------------------------

def test_stages_progress_in_order():
    # 10-op intervals so each stage closes at least one row before moving on
    report = run(tiny_config(interval=10))
    codes = [STAGE_ORDER[row.stage] for row in report.rows]
    assert codes == sorted(codes)
    assert codes[0] == 0 and codes[-1] == 2
    s = report.summary
    assert 0 <= s.first_eviction_op <= s.first_gc_op


def test_interval_row_op_counts():
    report = run(tiny_config(ops=250, interval=100))
    assert [r.ops for r in report.rows] == [100, 100, 50]
    assert [r.interval for r in report.rows] == [1, 2, 3]


def test_trace_run_ends_with_a_partial_row(tmp_path):
    trace = tmp_path / "t.trace"
    lines = [f"set k{i % 7} 1024" if i % 3 else f"get k{i % 5}"
             for i in range(23)]
    trace.write_text("# seven keys\n" + "\n".join(lines) + "\n")
    report = run(ExperimentConfig(scheme=tiny_spec("zns-middle-lru"),
                                  trace_path=str(trace), interval_ops=10))
    assert [r.ops for r in report.rows] == [10, 10, 3]
    assert sum(r.ops for r in report.rows) == len(lines)


def test_comment_only_trace_gives_no_rows(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("# nothing but comments\n\n# here\n")
    report = run(ExperimentConfig(scheme=tiny_spec("zns-middle-lru"),
                                  trace_path=str(trace), interval_ops=10))
    assert report.rows == []
    assert report.summary.stable_hit_ratio is None
    assert report.summary.final_wa == 1.0


def test_final_metrics_are_the_engine_after_the_run():
    report = run(tiny_config(ops=250, interval=100))
    assert report.final_metrics == report.engine.metrics()


def test_per_row_accounting_closes():
    for name in ("zns-middle-lru", "zcachelib", "zns-direct", "reg-lru"):
        report = run(tiny_config(name))
        for row in report.rows:
            assert row.device_bytes == row.cache_bytes + row.gc_migrated_bytes
            assert row.hits + row.misses <= row.ops


def test_direct_rows_hold_unit_wa():
    report = run(tiny_config("zns-direct"))
    assert all(row.wa_cum == 1.0 for row in report.rows)
    assert report.summary.final_wa == 1.0


def test_stable_hit_ratio_pools_stable_rows_only():
    report = run(tiny_config())
    stable = [r for r in report.rows if r.stage == "stable"]
    hits = sum(r.hits for r in stable)
    lookups = hits + sum(r.misses for r in stable)
    assert report.summary.stable_hit_ratio == pytest.approx(hits / lookups)


def test_throughput_requires_timing():
    assert run(tiny_config()).summary.stable_ops_per_sec is None
    timed = run(tiny_config(timing_enabled=True))
    assert timed.summary.stable_ops_per_sec > 0
    assert timed.summary.total_sim_seconds > 0


# --- CSV ------------------------------------------------------------------------

def test_csv_shape_and_summary_line(tmp_path):
    out = tmp_path / "run.csv"
    report = run(tiny_config(interval=10, output_path=str(out)))
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.rows) + 1
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    assert first[0] == "1" and first[-1] == "filling"
    assert lines[-1].startswith("#summary,stable_ops_per_sec=")
    assert "stable_ops_per_sec=na" in lines[-1]  # timing off
    assert text == render_csv(report)


def test_csv_deterministic_across_runs():
    a = render_csv(run(tiny_config()))
    b = render_csv(run(tiny_config()))
    assert a == b


# --- miss behavior and verification ------------------------------------------------

def test_trace_run_hits_then_misses(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("set a 1024\nget a\nget b\n")
    report = run(ExperimentConfig(scheme=tiny_spec("zns-middle-lru"),
                                  trace_path=str(trace), interval_ops=10))
    assert report.rows[0].hits == 1
    assert report.rows[0].misses == 1


def test_synthetic_misses_fill_the_cache():
    # second touch of a key must hit, so misses insert
    report = run(tiny_config(ops=2000, seed=8))
    assert report.final_metrics.hits > 0


def test_clean_run_has_no_corrupt_hits():
    report = run(tiny_config(verify_hits=True))
    assert report.corrupt_hits == 0
    assert report.final_metrics.hits > 0


def test_verify_hits_flags_corrupted_payloads():
    engine = build(tiny_spec("zns-middle-lru"))
    real_lookup = engine.lookup
    engine.lookup = lambda key: (lambda d: None if d is None else
                                 bytes([d[0] ^ 0xFF]) + d[1:])(real_lookup(key))
    ops = [CacheOp(OpKind.SET, "a", 4096), CacheOp(OpKind.GET, "a")]
    report = drive(engine, ops, tiny_config(verify_hits=True))
    assert report.corrupt_hits == 1


def test_verify_hits_flags_truncated_payloads():
    # a hit cut short still carries the key's pattern; its length is what
    # gives it away
    engine = build(tiny_spec("zns-middle-lru"))
    real_lookup = engine.lookup
    engine.lookup = lambda key: (lambda d: None if d is None else d[:-1])(
        real_lookup(key))
    config = tiny_config(verify_hits=True)
    report = drive(engine, [CacheOp(OpKind.SET, "a", 4096),
                            CacheOp(OpKind.GET, "a", 4096)], config)
    assert report.corrupt_hits == 1
    # size unknown: pattern only
    assert drive(engine, [CacheOp(OpKind.GET, "a")], config).corrupt_hits == 0


def test_verify_hits_builds_payloads_for_inserts_only(monkeypatch):
    built = []
    inserted = []

    def counting_value_bytes(key, size):
        built.append(key)
        return value_bytes(key, size)

    config = tiny_config(ops=2000, verify_hits=True)
    engine = build(config.scheme)
    real_insert = engine.insert

    def insert(key, value):
        inserted.append(key)
        real_insert(key, value)
    engine.insert = insert

    monkeypatch.setattr(harness, "value_bytes", counting_value_bytes)
    report = drive(engine, generate(config.workload), config)
    m = report.final_metrics
    sets = sum(op.kind is OpKind.SET for op in generate(config.workload))
    assert report.corrupt_hits == 0 and m.hits > 0
    assert built == inserted
    assert len(built) == sets + m.misses  # sets plus fills; no hit builds one


def test_sim_errors_carry_the_op_index():
    # six cached regions and two write zones leave five zones no room for
    # the stop target: GC stalls once the cache wraps
    spec = tiny_spec("zns-middle-lru", zone_count=5, zone_capacity=16 * KIB,
                     region_size=8 * KIB, w_low=10.0,
                     cache_capacity_regions=6)
    workload = WorkloadSpec(name="t", get_ratio=0.5, key_space=30,
                            op_count=400, seed=3, size_max=8 * KIB)
    with pytest.raises(errors.ExperimentError) as exc:
        run(ExperimentConfig(scheme=spec, workload=workload))
    assert isinstance(exc.value.__cause__, errors.GcStalled)
    assert exc.value.op_index == 39
    assert str(exc.value).startswith("op 39 (set k1): ")


@pytest.fixture
def collector():
    """Gives the test the cyclic collector to switch; puts it back after."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_drive_leaves_the_collector_as_it_found_it(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    seen = []
    config = tiny_config(ops=50, interval=10)
    engine = build(config.scheme)
    tick_gc = engine.tick_gc

    def tick():
        seen.append(gc.isenabled())
        tick_gc()
    engine.tick_gc = tick
    drive(engine, generate(config.workload), config)
    assert gc.isenabled() is enabled
    assert seen == [False] * 50  # off for every op


@pytest.mark.parametrize("enabled", [True, False])
def test_drive_restores_the_collector_when_an_op_fails(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    config = tiny_config()
    engine = build(config.scheme)

    def failing_insert(key, value):
        raise errors.GcStalled("no room")
    engine.insert = failing_insert
    with pytest.raises(errors.ExperimentError):
        drive(engine, [CacheOp(OpKind.SET, "a", 4096)], config)
    assert gc.isenabled() is enabled


def test_a_run_makes_no_reference_cycles(collector):
    # the collector is off for the op loop, so a cycle made there would
    # stay until the next collection
    gc.disable()
    gc.collect()
    report = run(tiny_config(ops=2000, verify_hits=True))
    assert report.summary.first_gc_op is not None  # GC ran, pages moved
    assert gc.collect() == 0


def test_traced_item_larger_than_a_region_is_refused_before_the_first_op(
        tmp_path):
    trace = tmp_path / "big.trace"
    trace.write_text("set a 1024\nset b 32768\n")  # region size is 16 KiB
    with pytest.raises(errors.InvalidConfig) as exc:
        run(ExperimentConfig(scheme=tiny_spec("zns-middle-lru"),
                             trace_path=str(trace)))
    assert str(exc.value) == "op 1 (set b): 32768 bytes exceeds region size 16384"


def test_run_refuses_a_missing_trace_as_a_config_error(tmp_path):
    missing = tmp_path / "gone.trace"
    with pytest.raises(errors.InvalidConfig) as exc:
        run(ExperimentConfig(scheme=tiny_spec("zns-middle-lru"),
                             trace_path=str(missing)))
    assert str(exc.value) == f"trace file not found: {missing}"


def test_validate_refuses_an_oversize_traced_set_without_an_engine(
        tmp_path, monkeypatch):
    trace = tmp_path / "big.trace"
    trace.write_text("set a 1024\nget a\nset b 32768\n")  # 16 KiB regions
    built = []
    monkeypatch.setattr(harness, "build", built.append)
    config = ExperimentConfig(scheme=tiny_spec("zns-middle-lru"),
                              trace_path=str(trace))
    with pytest.raises(errors.InvalidConfig) as exc:
        config.validate()
    assert str(exc.value) == "op 2 (set b): 32768 bytes exceeds region size 16384"
    assert built == []


def test_validate_refuses_an_output_path_in_a_missing_directory(tmp_path):
    config = tiny_config(output_path=str(tmp_path / "gone" / "run.csv"))
    with pytest.raises(errors.InvalidConfig) as exc:
        config.validate()
    assert str(exc.value) == f"output directory not found: {tmp_path / 'gone'}"
    replace(config, output_path=str(tmp_path / "run.csv")).validate()
    replace(config, output_path="run.csv").validate()  # the working directory


def test_config_requires_one_op_source():
    with pytest.raises(errors.InvalidConfig):
        ExperimentConfig(scheme=tiny_spec("zcachelib")).validate()
    with pytest.raises(errors.InvalidConfig):
        tiny_config(trace_path="x").validate()


# --- size literals -----------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("512", 512), ("4k", 4096), ("4kib", 4096), ("64mib", 64 * MIB),
    ("1.5gib", int(1.5 * 1024 ** 3)), ("2g", 2 * 1024 ** 3),
    ("100b", 100), (" 16 MiB ", 16 * MIB),
])
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("text", ["", "mib", "12q", "4 4k"])
def test_parse_size_rejects(text):
    with pytest.raises(ValueError):
        parse_size(text)


# --- config files -----------------------------------------------------------------

GOOD_CONFIG = """\
# small experiment
scheme = zns-middle-lru
zone_count = 8
zone_capacity = 32kib
region_size = 16kib
min_write_zones = 2
w_low = 25
w_high = 50
cache_capacity_regions = 7
get_ratio = 0.5
key_space = 30
size_min = 2kib
size_max = 16kib
op_count = 600
seed = 3
interval_ops = 100
"""


def test_parse_config_text_full():
    config = parse_config_text(GOOD_CONFIG)
    assert config.scheme.name == "zns-middle-lru"
    assert config.scheme.zone_capacity == 32 * KIB
    assert config.workload.get_ratio == 0.5
    assert config.workload.size_max == 16 * KIB  # custom sizes honored
    assert config.interval_ops == 100
    assert config.trace_path is None
    report = run(config)  # and it actually runs
    assert report.rows[-1].stage == "stable"


def test_parse_config_preset_expands_from_cache_size():
    config = parse_config_text(
        "scheme = zcachelib\npreset = l2_wc\nseed = 2\ntiming = yes\n")
    assert config.timing_enabled is True
    assert config.workload.get_ratio == 0.60
    assert config.workload.key_space > 0
    assert config.workload.seed == 2


@pytest.mark.parametrize("text,fragment", [
    ("scheme = zns-middle-lru\nzone_count 8\n", "line 2"),
    ("scheme = zns-middle-lru\nwombats = 4\n", "unknown key"),
    ("scheme = zns-middle-lru\nseed = 1\nseed = 2\n", "duplicate key"),
    ("scheme = zns-middle-lru\nzone_count = soon\n", "bad value"),
    ("scheme = zns-middle-lru\ntiming = maybe\n", "bad value"),
    ("zone_count = 8\n", "missing required key: scheme"),
    ("scheme = warp-lru\npreset = flat\n", "unknown scheme"),
    ("scheme = zcachelib\n", "workload needs"),
    ("scheme = zcachelib\nget_ratio = 0.5\n", "workload needs"),
    ("scheme = zcachelib\npreset = flat\nget_ratio = 7\n", "get_ratio"),
])
def test_config_errors(text, fragment):
    with pytest.raises(errors.InvalidConfig) as exc:
        parse_config_text(text)
    assert fragment in str(exc.value)


SYNTHETIC_VALUES = {
    "preset": "flat", "get_ratio": "0.5", "key_space": "30",
    "zipf_alpha": "3", "size_min": "2kib", "size_max": "16kib",
    "op_count": "5", "seed": "7",
}


@pytest.mark.parametrize("key", [k for k in _WORKLOAD_KEYS if k != "trace"])
def test_config_rejects_trace_plus_synthetic(tmp_path, key):
    trace = tmp_path / "t.trace"
    trace.write_text("get a\n")
    text = (f"scheme = zcachelib\ntrace = {trace}\n"
            f"{key} = {SYNTHETIC_VALUES[key]}\n")
    with pytest.raises(errors.InvalidConfig) as exc:
        parse_config_text(text, base_dir=str(tmp_path))
    assert "pick one" in str(exc.value)


def test_config_resolves_trace_relative_to_config_dir(tmp_path):
    (tmp_path / "w.trace").write_text("set a 1024\nget a\n")
    conf = tmp_path / "exp.conf"
    conf.write_text("scheme = zns-middle-lru\ntrace = w.trace\n")
    config = parse_config_file(conf)
    assert config.trace_path == str(tmp_path / "w.trace")


def test_config_missing_trace_names_path(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text("scheme = zcachelib\ntrace = gone.trace\n")
    with pytest.raises(errors.InvalidConfig) as exc:
        parse_config_file(conf)
    assert "gone.trace" in str(exc.value)


def test_missing_config_file_names_path(tmp_path):
    with pytest.raises(errors.InvalidConfig) as exc:
        parse_config_file(tmp_path / "absent.conf")
    assert "absent.conf" in str(exc.value)


def test_readme_lists_every_scheme_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sentence = re.search(r"Scheme keys:(.*?)\.\s", readme, re.DOTALL).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(_SCHEME_KEYS)


# --- config loading checks a spec by building it ----------------------------------

_BAD_VALUES = {
    "name": ("warp-lru",),
    "zone_count": (0, -1),
    "zone_capacity": (0, 4097, 24 * KIB),
    "region_size": (0, 24 * KIB, 3 * KIB),
    "op_ratio": (-0.5,),
    "vop_ratio": (1.5, -0.1),
    "w_low": (0.0, 60.0),
    "w_high": (20.0, 101.0),
    "min_write_zones": (0, 9),
    "cache_capacity_regions": (0, 100),
    "pages_per_block": (0, 3),
}


def _near_tiny_spec(rng):
    """`tiny_spec` for a random scheme with about one field in ten out of
    range."""
    spec = tiny_spec(rng.choice(SCHEME_NAMES))
    bad = {field: rng.choice(values) for field, values in _BAD_VALUES.items()
           if rng.random() < 0.1}
    return replace(spec, **bad)


def test_check_scheme_rejects_exactly_what_build_rejects():
    rng = random.Random(10)
    accepted = 0
    for _ in range(500):
        spec = _near_tiny_spec(rng)
        try:
            build(spec)
            built = True
        except errors.InvalidConfig:
            built = False
        try:
            check_scheme(spec, ())
            checked = True
        except errors.InvalidConfig:
            checked = False
        assert checked == built, spec
        accepted += built
    assert 0 < accepted < 500  # both outcomes drawn


def test_config_loading_keeps_no_engine(monkeypatch):
    engines = []
    real_build = harness.build

    def recording_build(spec):
        engine = real_build(spec)
        engines.append(weakref.ref(engine))
        return engine

    monkeypatch.setattr(harness, "build", recording_build)
    parse_config_text(GOOD_CONFIG)
    parse_config_text(GOOD_CONFIG.replace("zns-middle-lru", "reg-lru")
                      .replace("min_write_zones = 2\nw_low = 25\nw_high = 50\n",
                               "")
                      + "pages_per_block = 2\n")
    gc.collect()
    assert engines
    assert all(ref() is None for ref in engines)
