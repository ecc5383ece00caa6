"""CLI surface tests: subcommands, output files, and exit codes.

main() is called in-process with argv lists; stdout/stderr go through
capsys so assertions can look at exactly what a user would see.
"""

import pytest

from zonecache import harness
from zonecache.cli import main
from zonecache.harness import CSV_HEADER
from zonecache.workload import replay
from zonecache.zcache import RegionCache

TINY_CONF = """\
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
op_count = 400
seed = 3
interval_ops = 100
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "exp.conf"
    path.write_text(TINY_CONF)
    return path


def test_run_prints_csv_without_output_key(conf, capsys):
    assert main(["run", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert out.splitlines()[-1].startswith("#summary,")


def test_run_writes_output_file(conf, tmp_path, capsys):
    out = tmp_path / "result.csv"
    conf.write_text(TINY_CONF + f"output = {out}\n")
    assert main(["run", "--config", str(conf)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert out.read_text().startswith(CSV_HEADER)


def test_run_writes_a_relative_output_beside_the_config(
        tmp_path, capsys, monkeypatch):
    # the config names its trace and its output from its own directory,
    # whatever the working directory is
    conf_dir, elsewhere = tmp_path / "conf", tmp_path / "elsewhere"
    conf_dir.mkdir()
    elsewhere.mkdir()
    (conf_dir / "t.trace").write_text("set a 1024\nget a\nget b\n")
    conf = conf_dir / "exp.conf"
    conf.write_text(TINY_CONF.split("get_ratio")[0]
                    + "trace = t.trace\noutput = run.csv\n")
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--config", str(conf)]) == 0
    assert f"wrote {conf_dir / 'run.csv'}" in capsys.readouterr().out
    assert (conf_dir / "run.csv").read_text().startswith(CSV_HEADER)
    assert not list(elsewhere.iterdir())


def never_generate(spec):
    raise AssertionError("an op stream was generated")


def test_run_output_in_a_missing_directory_exits_3_before_any_op(
        conf, tmp_path, capsys, monkeypatch):
    out = tmp_path / "gone" / "run.csv"
    conf.write_text(TINY_CONF + f"output = {out}\n")
    monkeypatch.setattr(harness, "generate", never_generate)
    assert main(["run", "--config", str(conf)]) == 3
    assert capsys.readouterr().err == (
        f"config error: output directory not found: {out.parent}\n")


def test_sweep_output_in_a_missing_directory_exits_3_before_any_point(
        conf, tmp_path, capsys, monkeypatch):
    # every point is checked with its output path set, before the first runs
    prefix = tmp_path / "gone" / "sw"
    monkeypatch.setattr(harness, "generate", never_generate)
    assert main(["sweep", "--config", str(conf), "--param", "min_write_zones",
                 "--values", "1,2", "--out-prefix", str(prefix)]) == 3
    assert capsys.readouterr().err == (
        f"config error: output directory not found: {prefix.parent}\n")


def test_run_missing_config_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.conf"
    assert main(["run", "--config", str(missing)]) == 3
    assert "nope.conf" in capsys.readouterr().err


def test_bad_config_exits_3(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("scheme = zns-middle-lru\nwombats = 4\n")
    assert main(["run", "--config", str(conf)]) == 3
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("region_size = 16kib\n", "region_size = 0\n"),
    ("seed = 3\n", "seed = 3\nop_ratio = -1\n"),
], ids=["region_size_0", "op_ratio_negative"])
def test_bad_cache_sizing_exits_3(conf, capsys, old, new):
    conf.write_text(TINY_CONF.replace(old, new))
    assert main(["run", "--config", str(conf)]) == 3
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,fragment", [
    ("scheme = zns-middle-lru\n", "scheme = zns-direct\n",
     "zns-direct requires"),
    ("zone_capacity = 32kib\n", "zone_capacity = 4097\n", "multiple of 4096"),
    ("w_low = 25\nw_high = 50\n", "w_low = 60\nw_high = 50\n",
     "w_low < w_high"),
    ("region_size = 16kib\n", "region_size = 24kib\n",
     "multiple of region_size"),
    ("min_write_zones = 2\n", "min_write_zones = 9\n",
     "min_write_zones must be in [1, 8]"),
    ("min_write_zones = 2\n", "min_write_zones = 2\nmax_write_zones = 2\n",
     "unknown key"),
    ("seed = 3\n", "seed = 3\nmax_open_zones = 8\n", "unknown key"),
    ("seed = 3\n", "seed = 3\nread_bandwidth = 3000mib\n", "unknown key"),
    ("seed = 3\n", "seed = 3\nwrite_bandwidth = 1000mib\n", "unknown key"),
    ("seed = 3\n", "seed = 3\npage_size = 4kib\n", "unknown key"),
    ("seed = 3\n", "seed = 3\ngc_trigger_free_blocks = 2\n", "unknown key"),
    ("cache_capacity_regions = 7\n", "cache_capacity_regions = 0\n",
     "cache_capacity_regions must"),
    ("scheme = zns-middle-lru\n", "scheme = zcachelib\nvop_ratio = 1.5\n",
     "vop_ratio must"),
    ("interval_ops = 100\n", "interval_ops = 0\n", "interval_ops must"),
    (TINY_CONF[:TINY_CONF.index("get_ratio")],
     "scheme = zns-direct\nzone_count = 1\nzone_capacity = 32kib\n"
     "op_ratio = 0.5\n", "too small for one region"),
    ("seed = 3\n", "seed = 3\nvop_ratio = 0.5\n", "ignores vop_ratio"),
    ("seed = 3\n", "seed = 3\nreorder_enabled = off\n",
     "ignores reorder_enabled"),
    ("scheme = zns-middle-lru\n", "scheme = zcachelib\npages_per_block = 7\n",
     "zcachelib ignores pages_per_block"),
    (TINY_CONF[:TINY_CONF.index("cache_capacity_regions")],
     "scheme = reg-lru\nzone_count = 8\nzone_capacity = 32kib\n"
     "region_size = 16kib\npages_per_block = 2\nw_low = 0.5\n",
     "reg-lru ignores w_low"),
    (TINY_CONF[:TINY_CONF.index("cache_capacity_regions")],
     "scheme = reg-lru\nzone_count = 8\nzone_capacity = 32kib\n"
     "region_size = 16kib\npages_per_block = 2\nmin_write_zones = 9\n",
     "reg-lru ignores min_write_zones"),
    ("scheme = zns-middle-lru\nzone_count = 8\nzone_capacity = 32kib\n"
     "region_size = 16kib\nmin_write_zones = 2\n",
     "scheme = zns-direct\nzone_count = 8\nzone_capacity = 32kib\n"
     "min_write_zones = 3\n", "zns-direct ignores min_write_zones"),
], ids=["zns_direct_region_not_zone",
        "zone_capacity_4097", "w_low_above_w_high", "region_not_zone_divisor",
        "min_write_zones_above_max", "max_write_zones_unknown",
        "max_open_zones_unknown", "read_bandwidth_unknown",
        "write_bandwidth_unknown", "page_size_unknown",
        "gc_trigger_free_blocks_unknown",
        "cache_capacity_regions_0", "zcachelib_vop_ratio_1_5",
        "interval_ops_0", "device_under_one_region",
        "lru_vop_ratio",
        "lru_reorder_enabled", "zcachelib_pages_per_block", "reg_w_low",
        "reg_min_write_zones", "direct_min_write_zones"])
def test_spec_build_rejects_exits_3(conf, capsys, old, new, fragment):
    # TINY_CONF's 16 KiB regions on 32 KiB zones do not suit zns-direct,
    # and its zns-middle-lru cache reads neither vop_ratio nor
    # reorder_enabled; the last four set a key that each scheme's engine
    # never hands to a component, in a config that runs without it
    conf.write_text(TINY_CONF.replace(old, new))
    assert main(["run", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert fragment in err


def test_unknown_preset_exits_3(conf, capsys):
    conf.write_text(TINY_CONF.replace("get_ratio = 0.5\nkey_space = 30\n",
                                      "preset = bogus\n"))
    assert main(["run", "--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "unknown preset 'bogus'" in err


def test_sweep_rejects_value_build_rejects(conf, tmp_path, capsys):
    prefix = tmp_path / "sw"
    conf.write_text(TINY_CONF.replace("scheme = zns-middle-lru\n",
                                      "scheme = zns-direct\n")
                    .replace("region_size = 16kib\n", "")
                    .replace("min_write_zones = 2\n", ""))
    assert main(["sweep", "--config", str(conf), "--param", "region_size",
                 "--values", "32kib,16kib", "--out-prefix", str(prefix)]) == 3
    assert "zns-direct requires" in capsys.readouterr().err
    assert list(tmp_path.glob("sw_*")) == []


def test_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["run"]) == 2  # --config is required
    assert main(["frobnicate"]) == 2


def test_runtime_failure_exits_1(conf, capsys):
    # 8 KiB regions on five 16 KiB zones: six cached regions and two write
    # zones leave no room for the stop target of 50 % empty zones, so
    # GC stalls once the cache wraps
    conf.write_text(TINY_CONF.replace("zone_count = 8\n", "zone_count = 5\n")
                    .replace("zone_capacity = 32kib\n",
                             "zone_capacity = 16kib\n")
                    .replace("region_size = 16kib\n", "region_size = 8kib\n")
                    .replace("w_low = 25\n", "w_low = 10\n")
                    .replace("cache_capacity_regions = 7\n",
                             "cache_capacity_regions = 6\n")
                    .replace("size_max = 16kib\n", "size_max = 8kib\n"))
    assert main(["run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: op 39 ") and "no net progress" in err


def test_program_fault_exits_1_with_its_op(conf, capsys, monkeypatch):
    # a drop filter that answers None breaks the store's contract; the
    # CLI reports it with its op like any other runtime failure. Zones
    # of four regions, so that a GC cycle asks the filter
    monkeypatch.setattr(RegionCache, "zdrop_filter", lambda self, vaddr: None)
    conf.write_text(TINY_CONF.replace("zone_count = 8\n", "zone_count = 4\n")
                    .replace("zone_capacity = 32kib\n",
                             "zone_capacity = 64kib\n"))
    assert main(["run", "--config", str(conf)]) == 1
    assert capsys.readouterr().err == (
        "error: op 20 (set k2): drop filter returned None\n")


@pytest.mark.parametrize("old,new,argv,fragment", [
    ("cache_capacity_regions = 7\n", "op_ratio = nan\n", ["run"],
     "op_ratio must be >= 0"),
    ("seed = 3\n", "seed = 3\nzipf_alpha = nan\n", ["run"],
     "zipf_alpha must be >= 0"),
    ("size_max = 16kib\n", "size_max = inf k\n", ["run"],
     "bad value for size_max"),
    ("", "", ["sweep", "--param", "zone_capacity", "--values", "inf k"],
     "bad value for zone_capacity"),
], ids=["op_ratio_nan", "zipf_alpha_nan", "size_inf", "sweep_size_inf"])
def test_non_finite_value_exits_3(conf, tmp_path, capsys, monkeypatch,
                                  old, new, argv, fragment):
    # NaN fails every range check, and an infinite size is no size
    monkeypatch.chdir(tmp_path)
    conf.write_text(TINY_CONF.replace(old, new))
    assert main(argv + ["--config", str(conf)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and fragment in err
    assert not list(tmp_path.glob("*.csv"))


def test_item_larger_than_a_region_exits_3(conf, tmp_path, capsys):
    # refused while the config loads, before any op runs; so is each
    # sweep value that makes the region smaller than size_max
    conf.write_text(TINY_CONF.replace("size_max = 16kib\n",
                                      "size_max = 32kib\n"))
    assert main(["run", "--config", str(conf)]) == 3
    assert capsys.readouterr().err == (
        "config error: size_max 32768 exceeds region size 16384\n")
    conf.write_text(TINY_CONF.replace("zone_capacity = 32kib\n",
                                      "zone_capacity = 64kib\n"))
    prefix = tmp_path / "sw"
    assert main(["sweep", "--config", str(conf), "--param", "region_size",
                 "--values", "32kib,8kib", "--out-prefix", str(prefix)]) == 3
    assert "size_max 16384 exceeds region size 8192" in capsys.readouterr().err
    assert list(tmp_path.glob("sw_*")) == []


def test_traced_item_larger_than_a_region_exits_3(tmp_path, capsys,
                                                  monkeypatch):
    # the run refuses the trace before its first op, naming the op, and
    # never builds the terabyte payload
    (tmp_path / "big.trace").write_text("set a 1024\nget a\n"
                                        "set b 1000000000000\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(TINY_CONF.replace("get_ratio = 0.5\nkey_space = 30\n"
                                      "size_min = 2kib\nsize_max = 16kib\n"
                                      "op_count = 400\nseed = 3\n",
                                      "trace = big.trace\n"))
    built = []
    monkeypatch.setattr(harness, "value_bytes",
                        lambda key, size: built.append(key))
    assert main(["run", "--config", str(conf)]) == 3
    assert capsys.readouterr().err == (
        "config error: op 2 (set b): 1000000000000 bytes exceeds region "
        "size 16384\n")
    assert built == []


def test_sweep_checks_every_traced_point_before_the_first_runs(tmp_path,
                                                               capsys):
    # the 12 KiB set fits the first point's 16 KiB regions but not the
    # second's 8 KiB ones: the sweep exits before any point writes a CSV
    (tmp_path / "t.trace").write_text("set a 12288\nget a\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(TINY_CONF.replace("get_ratio = 0.5\nkey_space = 30\n"
                                      "size_min = 2kib\nsize_max = 16kib\n"
                                      "op_count = 400\nseed = 3\n",
                                      "trace = t.trace\n"))
    prefix = tmp_path / "sw"
    assert main(["sweep", "--config", str(conf), "--param", "region_size",
                 "--values", "16kib,8kib", "--out-prefix", str(prefix)]) == 3
    assert capsys.readouterr().err == (
        "config error: op 0 (set a): 12288 bytes exceeds region size 8192\n")
    assert list(tmp_path.glob("sw_*")) == []


def test_malformed_trace_exits_3(tmp_path, capsys):
    # a bad trace line is invalid input like a bad config key
    (tmp_path / "bad.trace").write_text("set a 1024\nset b twelve\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(TINY_CONF.replace("get_ratio = 0.5\nkey_space = 30\n"
                                      "size_min = 2kib\nsize_max = 16kib\n"
                                      "op_count = 400\nseed = 3\n",
                                      "trace = bad.trace\n"))
    assert main(["run", "--config", str(conf)]) == 3
    assert "config error: line 2: bad size 'twelve'" in capsys.readouterr().err


def _trace_conf(tmp_path, trace_bytes):
    (tmp_path / "t.trace").write_bytes(trace_bytes)
    conf = tmp_path / "exp.conf"
    conf.write_text(TINY_CONF.replace("get_ratio = 0.5\nkey_space = 30\n"
                                      "size_min = 2kib\nsize_max = 16kib\n"
                                      "op_count = 400\nseed = 3\n",
                                      "trace = t.trace\n"))
    return conf


def test_run_parses_its_trace_once_past_load(tmp_path, capsys, monkeypatch):
    # config load parses the trace to check it; run replays the ops its own
    # check parsed, so the file is read twice in all, not three times
    conf = _trace_conf(tmp_path, b"set a 1024\nget a\n")
    calls = []
    replay_file = harness.replay
    monkeypatch.setattr(harness, "replay",
                        lambda path: calls.append(path) or replay_file(path))
    assert main(["run", "--config", str(conf)]) == 0
    assert len(calls) == 2
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("1,2,1,0,")  # both ops ran: one set, one hit


@pytest.mark.parametrize("trace_bytes,line", [
    (b"set a \xff\xfe 12\n", 1),
    (b"set a 1024\nget a\nset \xffb 12\n", 3),
])
def test_trace_not_utf8_exits_3(tmp_path, capsys, trace_bytes, line):
    # bytes that are not UTF-8 are a bad trace line like any other,
    # reported by the number of the line that holds them
    conf = _trace_conf(tmp_path, trace_bytes)
    assert main(["run", "--config", str(conf)]) == 3
    assert capsys.readouterr().err.startswith(
        f"config error: line {line}: not UTF-8")


def test_trace_plus_synthetic_keys_exits_3(tmp_path, capsys):
    (tmp_path / "t.trace").write_text("set a 1024\nget a\n")
    conf = tmp_path / "exp.conf"
    conf.write_text(TINY_CONF.replace("get_ratio = 0.5\nkey_space = 30\n"
                                      "size_min = 2kib\nsize_max = 16kib\n",
                                      "trace = t.trace\nzipf_alpha = 3\n"))
    assert main(["run", "--config", str(conf)]) == 3
    assert "pick one" in capsys.readouterr().err


RESERVE_CONF = """\
scheme = reg-lru
zone_count = 32
zone_capacity = 8mib
region_size = 2mib
pages_per_block = 8192
preset = l2_wc
op_count = 10000
seed = 1
"""


@pytest.mark.parametrize("extra,code", [("", 1),
                                        ("cache_capacity_regions = 109\n", 0)])
def test_ftl_reserve_under_one_erase_block_fails_at_run_time(
        tmp_path, capsys, extra, code):
    # 8 erase blocks of 32 MiB: op_ratio 0.07 reserves 16.75 MiB and the
    # cache's 119 regions leave 18 MiB unwritten. Config loading accepts
    # it, and the run stops once the cache wraps. No reserve bound is
    # exact: with 109 regions (38 MiB unwritten) reg-lru runs on, while
    # reg-fifo still stops with 44 MiB unwritten. Greedy GC cannot collect
    # the invalid pages in the active block, so the host can take the last
    # free block, and the next GC has nowhere to migrate to
    conf = tmp_path / "exp.conf"
    conf.write_text(RESERVE_CONF + extra)
    assert main(["run", "--config", str(conf)]) == code
    if code:
        err = capsys.readouterr().err
        assert "op 8524" in err and "no free erase blocks remain" in err


def test_op_calc_prints_plan(capsys):
    assert main(["op-calc", "--t-cache", "200", "--t-gc", "600", "--k", "6"]) == 0
    out = capsys.readouterr().out
    assert "r_op 0.0588" in out
    assert "r_invalid" in out


def test_op_calc_infeasible_exits_1(capsys):
    assert main(["op-calc", "--t-cache", "600", "--t-gc", "100", "--k", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv, fragment", [
    (["gen-trace", "--preset", "l2_wc", "--ops", "0", "--out", "t.trace"],
     "op_count must be >= 1"),
    (["op-calc", "--t-cache", "200", "--t-gc", "600", "--k", "0.5"],
     "k must be >= 1"),
    (["op-calc", "--t-cache", "0", "--t-gc", "600", "--k", "6"],
     "rates must be positive"),
    (["gen-trace", "--preset", "l2_wc", "--cache-bytes", "0", "--ops", "10",
      "--out", "t.trace"], "cache_bytes must be >= 1"),
    (["gen-trace", "--preset", "l2_wc", "--cache-bytes", "-5", "--ops", "10",
      "--out", "t.trace"], "cache_bytes must be >= 1"),
    (["op-calc", "--t-cache", "200", "--t-gc", "600", "--k", "nan"],
     "k must be >= 1"),
    (["op-calc", "--t-cache", "nan", "--t-gc", "600", "--k", "6"],
     "rates must be positive"),
])
def test_bad_option_value_exits_3(tmp_path, capsys, monkeypatch, argv, fragment):
    # a command option is input like a config key: a bad value exits 3
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error") and fragment in err
    assert not (tmp_path / "t.trace").exists()


def test_gen_trace_bad_option_leaves_out_alone(tmp_path, capsys):
    # the workload is checked before --out is opened: no file is made, and
    # an existing one keeps its bytes
    out = tmp_path / "t.trace"
    argv = ["gen-trace", "--preset", "l2_wc", "--ops", "0", "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()
    out.write_text("set a 1024\n")
    assert main(argv) == 3
    assert out.read_text() == "set a 1024\n"


def test_gen_trace_roundtrips(tmp_path, capsys):
    out = tmp_path / "t.trace"
    code = main(["gen-trace", "--preset", "l2_wc", "--cache-bytes", "1000000",
                 "--ops", "500", "--seed", "4", "--out", str(out)])
    assert code == 0
    ops = replay(out)
    assert len(ops) == 500
    gets = sum(op.kind.value == "get" for op in ops)
    assert 0.5 < gets / len(ops) < 0.7  # l2_wc leans 60% reads


def test_sweep_writes_one_csv_per_value(conf, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf.write_text(TINY_CONF.replace("scheme = zns-middle-lru\n",
                                      "scheme = zcachelib\n"))
    code = main(["sweep", "--config", str(conf), "--param", "vop_ratio",
                 "--values", "0,0.5,1.0", "--out-prefix", "sw"])
    assert code == 0
    for value in ("0", "0.5", "1.0"):
        path = tmp_path / f"sw_vop_ratio_{value}.csv"
        assert path.exists()
        assert path.read_text().startswith(CSV_HEADER)
    assert capsys.readouterr().out.count("wrote ") == 3


def test_sweep_rejects_param_the_scheme_ignores(conf, tmp_path, capsys,
                                               monkeypatch):
    # zns-middle-lru reads neither ZLRU's vop_ratio nor the FTL's
    # pages_per_block, so either sweep would write identical CSVs
    monkeypatch.chdir(tmp_path)
    for param, values in (("vop_ratio", "0,0.5,1.0"),
                          ("pages_per_block", "4,8")):
        assert main(["sweep", "--config", str(conf), "--param", param,
                     "--values", values, "--out-prefix", "sw"]) == 3
        assert f"ignores {param}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


def test_sweep_rejects_unknown_param(conf, capsys):
    assert main(["sweep", "--config", str(conf), "--param", "zorch",
                 "--values", "1"]) == 2


def test_sweep_takes_any_scheme_key(conf, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(conf), "--param", "min_write_zones",
                 "--values", "1,2,3", "--out-prefix", "sw"]) == 0
    csvs = [(tmp_path / f"sw_min_write_zones_{value}.csv").read_text()
            for value in ("1", "2", "3")]
    assert all(text.startswith(CSV_HEADER) for text in csvs)
    assert len(set(csvs)) > 1  # the value reaches the store
    assert capsys.readouterr().out.count("wrote ") == 3


@pytest.mark.parametrize("param", ["cache_zones", "scheme"])
def test_sweep_takes_no_alias_and_no_scheme_name(conf, capsys, param):
    assert main(["sweep", "--config", str(conf), "--param", param,
                 "--values", "8"]) == 2


def test_sweep_rejects_empty_values(conf, capsys):
    assert main(["sweep", "--config", str(conf), "--param", "vop_ratio",
                 "--values", ","]) == 3


def test_sweep_values_take_size_suffixes(conf, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conf.write_text(TINY_CONF.replace("zone_capacity = 32kib",
                                      "zone_capacity = 2mib"))
    assert main(["sweep", "--config", str(conf), "--param", "region_size",
                 "--values", "1MiB"]) == 0
    path = tmp_path / "sweep_region_size_1MiB.csv"
    assert path.read_text().startswith(CSV_HEADER)


def test_sweep_rejects_unparsable_value(conf, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(conf), "--param", "op_ratio",
                 "--values", "0.1,abc"]) == 3
    err = capsys.readouterr().err
    assert "bad value for op_ratio" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))  # every value parsed before a run
