"""One full-size simulator run, alone in its own process.

    python3 perfbench/child.py MODE SPEC_JSON OUT_DIR

MODE is `untraced` (end-to-end timings), `traced` (per-layer spans, see
tracer.py) or `profile` (cProfile tottime rolled up per module). SPEC_JSON
is the run spec from workloads.make_spec. The child checks its own output
and prints one JSON object as its last line; run.py turns that into the
benchmark's metrics. Peak RSS is read by the parent, which waits for it.
"""

import hashlib
import json
import math
import mmap
import os
import statistics
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 25  # set-ups timed per run: 24 before it, and its own

# The host's speed drifts by up to 1.8x over tens of seconds (other tenants
# of the machine), and whole runs land in a slow or a fast phase. So the
# untraced run times a fixed piece of the benchmark's own Python, the
# canary, after each set-up and every CANARY_EVERY ops, and scales host
# times to the speed at which the canary takes CANARY_REF_S. Canary time is
# left out of every op time and of the run's wall time.
CANARY_EVERY = 500
CANARY_REF_S = 2e-3
CANARY_COPY = 2 * 1024 * 1024
CANARY_SPAN = 16 * CANARY_COPY  # 32 MiB; each core has 4 MiB of L2
CANARY_FAULT = 512 * 1024


class Canary:
    """Work shaped like the simulator's: exact fractions (the watermark
    check), dict updates on f-string keys (the index), hashed tiles (the
    payloads), a copy out of a buffer larger than the core's own caches
    (the regions), and a fresh anonymous mapping filled page by page (the
    kernel's page faults on the program's new buffers, a sixth of its
    time). It is the benchmark's own code, so a change to the program
    cannot change it, and it makes no allocation large enough to depend on
    the state the program leaves the allocator in."""

    def __init__(self):
        self.span = memoryview(bytearray(b"\xa5" * CANARY_SPAN))
        self.copy = bytearray(b"\x5a" * CANARY_COPY)
        self.offset = 0
        self.times = array("d")

    def run(self):
        total = 0
        for i in range(60):
            total += math.ceil(Fraction(str(5 + i % 3)) * 64 / 100)
        index = {}
        for i in range(500):
            index[f"k{i}"] = i
        for i in range(20):
            tile = hashlib.blake2b(f"k{i}".encode(), digest_size=8).digest()
            total += len(tile * 512)
        self.offset = (self.offset + 3 * CANARY_COPY) % CANARY_SPAN
        self.copy[:] = self.span[self.offset:self.offset + CANARY_COPY]
        with mmap.mmap(-1, CANARY_FAULT) as fresh:
            fresh[:] = self.span[:CANARY_FAULT]
        return total

    def measure(self) -> float:
        """Run and time the canary; returns the time it ended."""
        start = time.perf_counter()
        self.run()
        end = time.perf_counter()
        self.times.append(end - start)
        return end

    def host_speed(self) -> float:
        """Host speed relative to the reference: above 1 is faster."""
        return CANARY_REF_S / statistics.median(self.times)


def _percentile(ordered, q):
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _setup_once(harness, config):
    t0 = time.perf_counter()
    harness.build(config.scheme)
    next(harness.generate(config.workload))
    return time.perf_counter() - t0


def run_untraced(harness, config):
    """Time set-up, every op and the whole run from outside the program:
    build and generate are wrapped to mark the first op, and the engine's
    tick_gc, called once per op, to stamp when each op finished and to run
    the canary. Each figure comes as measured and scaled to the reference
    host speed: set-up by the canaries run between the set-ups, the rest by
    those run during the run."""
    canary = Canary()
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        setups.append(_setup_once(harness, config))
        for _ in range(4):
            canary.measure()
    setup_speed = canary.host_speed()
    del canary.times[:]
    marks = {}
    stamps = array("d")
    resumes = {}  # op index -> when it started, for ops after a canary
    build, generate = harness.build, harness.generate

    def stamped_build(spec):
        marks["build"] = time.perf_counter()
        engine = build(spec)
        tick, record, clock = engine.tick_gc, stamps.append, time.perf_counter

        def tick_gc():
            tick()
            record(clock())
            if len(stamps) % CANARY_EVERY == 0:
                resumes[len(stamps)] = canary.measure()
        engine.tick_gc = tick_gc
        return engine

    def primed_generate(spec):
        ops = generate(spec)
        first = next(ops)  # builds the zipf table
        marks["first_op"] = time.perf_counter()
        yield first
        yield from ops

    harness.build, harness.generate = stamped_build, primed_generate
    try:
        t0 = time.perf_counter()
        report = harness.run(config)
        wall = time.perf_counter() - t0 - sum(canary.times)
    finally:
        harness.build, harness.generate = build, generate
    del report.engine.tick_gc
    setups.append(marks["first_op"] - marks["build"])
    starts = [marks["first_op"], *stamps[:-1]]
    for op, start in resumes.items():
        if op < len(starts):
            starts[op] = start
    gaps = sorted(end - start for start, end in zip(starts, stamps))
    setup, speed = statistics.median(setups), canary.host_speed()
    as_measured = {
        "setup_s": setup,
        "host_ops_per_s": len(gaps) / wall,
        "op_us_p50": _percentile(gaps, 0.5) * 1e6,
        "op_us_p9999": _percentile(gaps, 0.9999) * 1e6,
    }
    return report, {
        "wall_s": wall,
        "host_speed": speed,
        "setup_host_speed": setup_speed,
        "setup_samples": setups,
        "op_samples": len(gaps),
        "as_measured": as_measured,
        "scaled": {
            "setup_s": setup * setup_speed,
            "host_ops_per_s": as_measured["host_ops_per_s"] / speed,
            "op_us_p50": as_measured["op_us_p50"] * speed,
            "op_us_p9999": as_measured["op_us_p9999"] * speed,
        },
    }


def run_traced(harness, config, spans_path):
    from tracer import Tracer, instrument
    tracer = Tracer()
    instrument(harness, tracer)
    try:
        t0 = time.perf_counter_ns()
        report = harness.run(config)
        t1 = time.perf_counter_ns()
    finally:
        tracer.restore()
    ops = config.workload.op_count
    write_start = time.perf_counter()
    tracer.write_spans(spans_path, t0)
    return report, {
        "wall_s": (t1 - t0) / 1e9,
        "host_ops_per_s": ops / ((t1 - t0) / 1e9),
        "layers": tracer.layer_metrics(t1 - t0),
        "self_times": tracer.self_time_table(),
        "spans": len(tracer.span_call),
        "spans_path": str(spans_path),
        "spans_write_s": time.perf_counter() - write_start,
    }


def _module_of(filename):
    if filename == "~":
        return "<built-in>"
    path = Path(filename)
    if path.parent.name == "zonecache":
        return f"zonecache.{path.stem}"
    return path.stem if path.suffix == ".py" else filename


def run_profiled(harness, config):
    import cProfile
    import pstats
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    try:
        report = harness.run(config)
    finally:
        profile.disable()
    wall = time.perf_counter() - t0
    modules, funcs = {}, []
    for (filename, line, func), (_, calls, tottime, _, _) in \
            pstats.Stats(profile).stats.items():
        module = _module_of(filename)
        modules[module] = modules.get(module, 0.0) + tottime
        funcs.append((tottime, calls, f"{module}:{line}({func})"))
    funcs.sort(reverse=True)
    return report, {
        "wall_s": wall,
        "modules": sorted(modules.items(), key=lambda kv: -kv[1]),
        "functions": funcs[:15],
    }


def check(report, value_bytes):
    """Correctness of one run: corrupt hits, an index sweep that reads back
    every cached key, the CSV digest and the simulated results."""
    from zonecache.harness import render_csv
    engine = report.engine
    checked = bad = 0
    for key, (_, _, size) in list(engine.cache.index.items()):
        checked += 1
        if engine.lookup(key) != value_bytes(key, size):
            bad += 1
    s, m = report.summary, report.final_metrics
    return {
        "ops": sum(r.ops for r in report.rows),
        "corrupt_hits": report.corrupt_hits,
        "swept_keys": checked,
        "sweep_mismatches": bad,
        "csv_sha256": hashlib.sha256(render_csv(report).encode()).hexdigest(),
        "final_wa": s.final_wa,
        "stable_hit_ratio": s.stable_hit_ratio,
        "sim_ops_per_s": s.stable_ops_per_sec,
        "first_eviction_op": s.first_eviction_op,
        "first_gc_op": s.first_gc_op,
        "gc_cycles": m.gc_cycles,
        "cache_bytes_written": m.cache_bytes_written,
    }


def main(argv):
    mode, spec_json, out_dir = argv
    spec = json.loads(spec_json)
    sys.path.insert(0, str(HERE.parent / "src"))
    from zonecache import harness
    from zonecache.schemes import SchemeSpec
    from zonecache.workload import WorkloadSpec, value_bytes
    config = harness.ExperimentConfig(
        scheme=SchemeSpec(**spec["scheme"]),
        workload=WorkloadSpec(**spec["workload"]),
        interval_ops=spec["interval_ops"],
        timing_enabled=True, verify_hits=True)
    if mode == "untraced":
        report, result = run_untraced(harness, config)
    elif mode == "traced":
        os.makedirs(out_dir, exist_ok=True)
        # one span file per workload, overwritten by its next traced run
        path = Path(out_dir) / f"spans-{spec['label']}.bin"
        report, result = run_traced(harness, config, path)
    elif mode == "profile":
        report, result = run_profiled(harness, config)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result.update(check(report, value_bytes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
