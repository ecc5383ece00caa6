"""The benchmark's span tracer (`perfbench/tracer.py`) patches the
simulator by name: harness entry points, each layer's methods and the GC
drop filter. A rename in `src/` that breaks `perfbench/run.py --trace 1`
fails here instead, on a short run of every scheme.

The untraced benchmark (`perfbench/child.py`) wraps `harness.build` to
stamp each op's end in the engine's `tick_gc`, so `run` must build its
engine through the harness module and `drive` must call `tick_gc` once
per op; and `run` must be no more than `drive` over what `build` and
`generate` return.
"""

import sys
from pathlib import Path

import pytest

from helpers import GC_ZONES, KIB, tiny_spec
from zonecache import SCHEME_NAMES, harness
from zonecache.harness import ExperimentConfig, render_csv
from zonecache.schemes import build
from zonecache.workload import WorkloadSpec, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer, instrument  # noqa: E402


GC_SCHEMES = ("zcachelib", "zns-middle-lru", "zns-middle-fifo")


def short_config(name):
    workload = WorkloadSpec(name="t", get_ratio=0.5, key_space=30,
                            op_count=600, seed=3, size_min=2 * KIB,
                            size_max=16 * KIB)
    # GC runs in zones of four regions
    geometry = GC_ZONES if name in GC_SCHEMES else {}
    return ExperimentConfig(scheme=tiny_spec(name, **geometry),
                            workload=workload, interval_ops=100,
                            verify_hits=True)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_traced_run_matches_untraced_run(name):
    untraced = harness.run(short_config(name))
    originals = (harness.build, harness.generate, harness.value_bytes)
    tracer = Tracer()
    instrument(harness, tracer)
    try:
        traced = harness.run(short_config(name))
    finally:
        tracer.restore()
    assert (harness.build, harness.generate, harness.value_bytes) == originals
    assert traced.corrupt_hits == 0
    assert render_csv(traced) == render_csv(untraced)
    layers = tracer.layer_metrics(1)
    assert layers["zcache.lookup_calls"] > 0
    # only ZLRU reorders, once per flush: the tracer's per-layer counts
    # depend on `_flush` calling `zlru_reorder` for no other policy
    if name == "zcachelib":
        assert layers["zcache.drop_filter_calls"] > 0
        assert layers["zcache.reorder_calls"] > 0
    else:
        assert layers["zcache.reorder_calls"] == 0
    # every zoned GC scheme asks the cache's drop filter; a cache that
    # never fills vop migrates every region it is asked about
    if name in ("zns-middle-lru", "zns-middle-fifo"):
        assert layers["zcache.drop_filter_calls"] > 0
        assert layers["zcache.drops"] == 0
    # the tracer reads GC victims from the store by name (`valid_bytes`),
    # and counts them where `gc_cycle` picks through `select_victim`: one
    # pick per reclaimed zone, or the victim valid ratio reads 0
    if name in GC_SCHEMES:
        assert layers["zstorage.gc_reclaimed_zones"] > 0
        assert tracer.counts["zstorage.victims"] == \
            layers["zstorage.gc_reclaimed_zones"]
        assert 0 < layers["zstorage.gc_victim_valid_ratio"] < 1


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_a_wrapped_tick_gc_runs_once_per_op(name, monkeypatch):
    ticks = []

    def stamped_build(spec):
        engine = build(spec)
        tick = engine.tick_gc
        engine.tick_gc = lambda: ticks.append(tick())
        return engine

    monkeypatch.setattr(harness, "build", stamped_build)
    report = harness.run(short_config(name))
    assert len(ticks) == sum(row.ops for row in report.rows) == 600


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_drive_over_build_and_generate_renders_run(name):
    config = short_config(name)
    driven = harness.drive(build(config.scheme), generate(config.workload),
                           config)
    assert driven.corrupt_hits == 0
    assert render_csv(driven) == render_csv(harness.run(config))
