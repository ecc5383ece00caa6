"""Workload generator and trace replay tests.

Distribution checks run on frozen seeds with 3-sigma bands, so they are
deterministic; a different seed shifting a count slightly cannot flake.
"""

import math
import random
import statistics
from collections import Counter
from itertools import accumulate

import pytest

from zonecache import errors
from zonecache.workload import (CacheOp, OpKind, PRESET_GET_RATIOS,
                                WorkloadSpec, ZipfSampler, generate, key_size,
                                matches_value, mean_object_size, preset_spec,
                                replay, value_bytes, write_trace)

KIB = 1024


def spec_for(**kw):
    base = dict(name="t", get_ratio=0.5, key_space=100, op_count=1000, seed=1)
    base.update(kw)
    return WorkloadSpec(**base)


# --- spec validation ----------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(get_ratio=1.5),
    dict(get_ratio=-0.1),
    dict(key_space=0),
    dict(op_count=0),
    dict(zipf_alpha=-1.0),
    dict(size_min=0),
    dict(size_min=4096, size_max=2048),
])
def test_spec_validation_rejects(bad):
    with pytest.raises(errors.InvalidConfig):
        spec_for(**bad).validate()


def test_unknown_preset_rejected():
    with pytest.raises(errors.InvalidConfig):
        preset_spec("l3_turbo", cache_bytes=1 << 30)


def test_preset_get_ratios():
    assert PRESET_GET_RATIOS == {"l2_wc": 0.60, "l2_reg": 0.88, "flat": 0.985}
    for name, ratio in PRESET_GET_RATIOS.items():
        assert preset_spec(name, cache_bytes=1 << 30).get_ratio == ratio


def test_preset_working_set_is_1_5x_cache():
    cache = 1 << 30
    spec = preset_spec("l2_wc", cache_bytes=cache)
    mean = mean_object_size(spec.size_min, spec.size_max)
    assert spec.key_space == round(1.5 * cache / mean)


def test_mean_object_size_matches_sampled_mean():
    # log-uniform in [2 KiB, 256 KiB]: compare the closed form against a
    # brute-force sample mean
    lo, hi = 2 * KIB, 256 * KIB
    rng = random.Random(9)
    draws = [lo * math.exp(rng.random() * math.log(hi / lo))
             for _ in range(200_000)]
    sampled = sum(draws) / len(draws)
    assert mean_object_size(lo, hi) == pytest.approx(sampled, rel=0.02)
    assert mean_object_size(4096, 4096) == 4096.0


# --- op stream ------------------------------------------------------------------

def test_generate_is_deterministic():
    spec = spec_for(op_count=2000)
    assert list(generate(spec)) == list(generate(spec))


def test_seed_changes_the_stream():
    assert list(generate(spec_for())) != list(generate(spec_for(seed=2)))


def test_sizes_stable_per_key_and_bounded():
    spec = spec_for(get_ratio=0.5, op_count=3000, size_min=KIB,
                    size_max=64 * KIB)
    seen = {}
    for op in generate(spec):
        assert spec.size_min <= op.size <= spec.size_max
        assert op.size == key_size(spec, op.key)
        assert seen.setdefault(op.key, op.size) == op.size


def test_equal_size_bounds_give_every_key_that_size():
    spec = spec_for(size_min=4 * KIB, size_max=4 * KIB)
    assert {op.size for op in generate(spec)} == {4 * KIB}


def test_get_ratio_within_3_sigma():
    spec = spec_for(get_ratio=0.6, op_count=20_000, seed=3)
    gets = sum(op.kind is OpKind.GET for op in generate(spec))
    sigma = math.sqrt(spec.op_count * 0.6 * 0.4)
    assert abs(gets - 0.6 * spec.op_count) <= 3 * sigma


def test_zipf_sampler_matches_hand_cdf():
    # n=5, alpha=1: weights 1, 1/2, 1/3, 1/4, 1/5
    sampler = ZipfSampler(5, 1.0)
    weights = [1.0, 0.5, 1 / 3, 0.25, 0.2]
    total = sum(weights)
    edge = 0.0
    for rank, w in enumerate(weights):
        assert sampler.sample((edge + w / 2) / total) == rank
        edge += w
    assert sampler.sample(0.0) == 0
    assert sampler.sample(0.999999) == 4


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.8, 1.0, 1, 1.2, 3.0])
@pytest.mark.parametrize("n", [1, 2, 5, 1000, 112202])
def test_zipf_table_holds_the_reference_floats(n, alpha):
    # the table is built by chained C iterators, with the ranks themselves
    # as weights at alpha 1; it must hold, as a list, exactly the floats
    # of the plain per-rank sum, so every op stream stays the same
    reference = list(accumulate(1.0 / (r + 1) ** alpha for r in range(n)))
    table = ZipfSampler(n, alpha)._cumulative
    assert type(table) is list
    assert table == reference


def test_zipf_rank_frequency_slope_near_minus_one():
    n, draws = 5000, 200_000
    sampler = ZipfSampler(n, 1.0)
    rng = random.Random(11)
    counts = Counter(sampler.sample(rng.random()) for _ in range(draws))
    top = [(math.log(rank + 1), math.log(counts[rank])) for rank in range(50)]
    slope, _ = statistics.linear_regression([x for x, _ in top],
                                            [y for _, y in top])
    assert -1.1 <= slope <= -0.9


def test_zipf_alpha_zero_is_uniform():
    n, draws = 50, 100_000
    spec = spec_for(key_space=n, op_count=draws, zipf_alpha=0.0,
                    get_ratio=0.0, seed=5)
    counts = Counter(op.key for op in generate(spec))
    expected = draws / n
    sigma = math.sqrt(draws * (1 / n) * (1 - 1 / n))
    assert len(counts) == n
    for count in counts.values():
        assert abs(count - expected) <= 3 * sigma


def test_value_bytes_properties():
    assert value_bytes("a", 0) == b""
    blob = value_bytes("k1", 1000)
    assert len(blob) == 1000
    assert blob == value_bytes("k1", 1000)
    assert blob != value_bytes("k2", 1000)
    assert blob[:8] == blob[8:16]  # tiled pattern


def flipped(data, at):
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def test_matches_value_is_the_payload_compare():
    # the in-place check answers exactly `data == value_bytes(key, len)`,
    # for a byte flipped in the first, a middle and the last (partial)
    # tile, another key's payload, one byte short or over, and no data
    rng = random.Random(11)
    lengths = list(range(41)) + [rng.randrange(256 * KIB + 1)
                                 for _ in range(40)]
    for n in lengths:
        key = f"k{rng.randrange(10 ** 6)}"
        good = value_bytes(key, n)
        cases = [good, value_bytes(key + "x", n), good[:-1], good + b"\0"]
        if n:
            last_tile = n - 1 - rng.randrange(n % 8 or 8)
            cases += [flipped(good, rng.randrange(min(n, 8))),
                      flipped(good, n // 2), flipped(good, last_tile)]
        for data in cases:
            assert matches_value(key, data) == (
                data == value_bytes(key, len(data))), (key, n)


# --- trace replay ---------------------------------------------------------------

def test_replay_parses_sets_gets_and_comments(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("# header\n"
                     "set a 1024\n"
                     "\n"
                     "get a\n"
                     "get b\n")
    assert replay(trace) == [CacheOp(OpKind.SET, "a", 1024),
                             CacheOp(OpKind.GET, "a", 1024),
                             CacheOp(OpKind.GET, "b", None)]


def test_replay_empty_file(tmp_path):
    trace = tmp_path / "empty.trace"
    trace.write_text("")
    assert replay(trace) == []


@pytest.mark.parametrize("body,line", [
    ("set a 1024\nfetch a\n", 2),
    ("del a\n", 1),
    ("set a\n", 1),
    ("get a b\n", 1),
    ("set a twelve\n", 1),
    ("set a -5\n", 1),
    ("# ok\nget a\nset b 1 2\n", 3),
])
def test_replay_reports_offending_line(tmp_path, body, line):
    trace = tmp_path / "bad.trace"
    trace.write_text(body)
    with pytest.raises(errors.InvalidConfig) as exc:
        replay(trace)
    assert str(exc.value).startswith(f"line {line}: ")


def test_write_trace_roundtrip(tmp_path):
    ops = list(generate(spec_for(op_count=500, seed=7)))
    path = tmp_path / "round.trace"
    write_trace(ops, path)
    # a trace records no get sizes: a replayed get carries the size of its
    # key's latest earlier set, or None before the first one
    last_set = {}
    expected = []
    for op in ops:
        if op.kind is OpKind.SET:
            last_set[op.key] = op.size
            expected.append(op)
        else:
            expected.append(CacheOp(OpKind.GET, op.key, last_set.get(op.key)))
    assert any(op.size is None for op in expected)
    assert replay(path) == expected
