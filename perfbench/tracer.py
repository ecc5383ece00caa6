"""Span tracing of the simulator's layers, applied from outside the program.

`instrument` wraps the harness's module-level entry points and, once the
engine is built, the public methods of each layer's objects on the
instances themselves. Every wrapped call is a span: layer, call, start,
end and the span that was open when it began. Spans stay in memory, in
flat arrays, until `write_spans` saves them once at the end of the run;
`read_spans` loads them back.

A layer's self time is its spans' time minus the time of the wrapped calls
made inside them, so the self times of all calls plus `harness.self_s`
(run time outside any span) add up to the run's wall time.
"""

import json
import time
from array import array
from pathlib import Path

from metrics import PER_LAYER

MIB = 1024 * 1024


class Tracer:
    def __init__(self):
        self.names = []              # call id -> "layer.call"
        self._ids = {}
        self.self_ns = []            # call id -> summed self time
        self.calls = []              # call id -> number of calls
        self.counts = {}             # derived counters
        self.span_call = array("H")  # per span, in start order
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.root = [-1, 0]          # [span index, ns spent in child spans]
        self._stack = [self.root]
        self._patches = []
        self.engine = None

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def _call_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, layer, call, fn, after=None):
        """`fn` timed as a span; `after(result, args)` runs once it closes."""
        cid = self._call_id(f"{layer}.{call}")
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        span_call, span_parent = self.span_call, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(span_call)
            span_call.append(cid)
            span_parent.append(stack[-1][0])
            span_start.append(0)
            span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[index] = t0
                span_end[index] = t1
                self_ns[cid] += t1 - t0 - frame[1]
                calls[cid] += 1
                stack[-1][1] += t1 - t0
            if after is not None:
                after(result, args)
            return result
        return traced

    def replace(self, obj, attr, new):
        """Set obj.attr, remembering how to undo it in `restore`."""
        own = attr in vars(obj)
        self._patches.append((obj, attr, own, getattr(obj, attr)))
        setattr(obj, attr, new)

    def patch(self, obj, attr, layer, call=None, after=None):
        self.replace(obj, attr,
                     self.wrap(layer, call or attr, getattr(obj, attr), after))

    def restore(self):
        for obj, attr, own, old in reversed(self._patches):
            if own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._patches = []

    def layer_metrics(self, run_ns) -> dict:
        """Every per-layer metric; calls that never happened read 0."""
        c = self.counts
        ftl = getattr(self.engine, "ftl", None)
        if ftl is not None:  # the FTL's own totals, read once at the end
            c = {**c, "ftl.migrated": ftl.migrated_bytes,
                 "ftl.nand_bytes": ftl.nand_bytes_written,
                 "ftl.host_bytes": ftl.host_bytes_written}
        lookups = self.calls[self._ids["zcache.lookup"]] \
            if "zcache.lookup" in self._ids else 0
        victims = c.get("zstorage.victims", 0)
        ftl_host = c.get("ftl.host_bytes", 0)
        derived = {
            "harness.self_s": (run_ns - self.root[1]) / 1e9,
            "workload.value_bytes_mib": c.get("workload.value_bytes", 0) / MIB,
            "zcache.hit_ratio": c.get("zcache.hits", 0) / lookups
            if lookups else 0.0,
            "zcache.reorder_moves": c.get("zcache.reorder_moves", 0),
            "zcache.drops": c.get("zcache.drops", 0),
            "zstorage.gc_migrated_mib": c.get("zstorage.migrated", 0) / MIB,
            "zstorage.gc_reclaimed_zones": c.get("zstorage.reclaimed", 0),
            "zstorage.gc_victim_valid_ratio":
                c.get("zstorage.victim_valid", 0.0) / victims
                if victims else 0.0,
            "zns.append_mib": c.get("zns.append", 0) / MIB,
            "zns.read_mib": c.get("zns.read", 0) / MIB,
            "ftl.write_mib": c.get("ftl.write", 0) / MIB,
            "ftl.read_mib": c.get("ftl.read", 0) / MIB,
            "ftl.gc_migrated_mib": c.get("ftl.migrated", 0) / MIB,
            "ftl.nand_wa": c.get("ftl.nand_bytes", 0) / ftl_host
            if ftl_host else 0.0,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
                continue
            call, _, kind = name.rpartition("_")
            cid = self._ids.get(call)
            if cid is None:
                out[name] = 0
            elif kind == "s":
                out[name] = self.self_ns[cid] / 1e9
            else:
                out[name] = self.calls[cid]
        return out

    def self_time_table(self):
        """(name, calls, self seconds) per wrapped call, slowest first."""
        rows = [(n, self.calls[i], self.self_ns[i] / 1e9)
                for i, n in enumerate(self.names)]
        return sorted(rows, key=lambda r: -r[2])

    def write_spans(self, path, origin_ns):
        """Save every span as raw arrays (see `read_spans`), with a JSON
        header beside them; times are perf_counter_ns values."""
        with open(path, "wb") as fh:
            for arr in (self.span_call, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        header = {"spans": len(self.span_call), "names": self.names,
                  "arrays": [f"{n}:{code}" for n, code in SPAN_ARRAYS],
                  "run_start_ns": origin_ns}
        Path(f"{path}.json").write_text(json.dumps(header))


SPAN_ARRAYS = (("call", "H"), ("parent", "q"), ("start_ns", "q"),
               ("end_ns", "q"))


def read_spans(path):
    """Yield (layer.call, parent span index or -1, start ns, end ns) per
    span, in start order, with times from the start of the run."""
    header = json.loads(Path(f"{path}.json").read_text())
    arrays = []
    with open(path, "rb") as fh:
        for _, code in SPAN_ARRAYS:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    names, origin = header["names"], header["run_start_ns"]
    for c, p, s, e in zip(*arrays):
        yield names[c], p, s - origin, e - origin


def instrument(harness, tracer):
    """Trace the harness's workload and build calls, and the engine's
    layers once it exists. Undo with `tracer.restore()`."""
    build, generate = harness.build, harness.generate
    timed_build = tracer.wrap("schemes", "build", build)

    def traced_build(spec):
        engine = timed_build(spec)
        tracer.engine = engine
        _instrument_engine(engine, tracer)
        return engine

    def traced_generate(spec):
        # every step of the op stream is a span; the stream ends when the
        # wrapped step raises StopIteration
        step = tracer.wrap("workload", "generate", generate(spec).__next__)
        return iter(step, None)

    tracer.replace(harness, "build", traced_build)
    tracer.replace(harness, "generate", traced_generate)
    tracer.patch(harness, "value_bytes", "workload",
                 after=lambda r, a: tracer.add("workload.value_bytes", len(r)))


def _instrument_engine(engine, t):
    def counter(name, value_of):
        return lambda result, args: t.add(name, value_of(result, args))

    t.patch(engine, "tick_gc", "schemes")
    t.patch(engine, "metrics", "harness")   # the harness's interval report
    cache = engine.cache
    t.patch(cache, "insert", "zcache")
    t.patch(cache, "lookup", "zcache",
            after=counter("zcache.hits", lambda r, a: r is not None))
    t.patch(cache, "zlru_reorder", "zcache", "reorder",
            after=counter("zcache.reorder_moves", lambda r, a: r))
    t.patch(cache, "evict_one", "zcache", "evict")

    ftl = getattr(engine, "ftl", None)
    if ftl is not None:
        t.patch(ftl, "ftl_write", "ftl", "write",
                after=counter("ftl.write", lambda r, a: len(a[1])))
        t.patch(ftl, "ftl_read", "ftl", "read",
                after=counter("ftl.read", lambda r, a: a[1]))
        t.patch(ftl, "ftl_internal_gc", "ftl", "internal_gc")

    device = getattr(engine, "device", None)
    if device is None:
        return
    store = engine.store
    zone_bytes = device.config.zone_capacity
    for name in ("write_region", "read_region", "invalidate_region",
                 "gc_needed"):
        t.patch(store, name, "zstorage")

    def victim(zone, args):
        t.add("zstorage.victims", 1)
        t.add("zstorage.victim_valid", store.valid_bytes[zone] / zone_bytes)
    t.patch(store, "select_victim", "zstorage", after=victim)

    def gc_done(stats, args):
        t.add("zstorage.migrated", stats.migrated_bytes)
        t.add("zstorage.reclaimed", stats.reclaimed_zones)
    gc_cycle = t.wrap("zstorage", "gc_cycle", store.gc_cycle, after=gc_done)
    # the filter crosses into the store as an argument: trace it as the
    # cache's drop filter, or as the scheme's migrate-everything filter
    cache_filter = t.wrap(
        "zcache", "drop_filter", cache.zdrop_filter,
        after=lambda verb, args: t.add("zcache.drops",
                                       verb.value == "drop"))
    other_filters = {}

    def traced_gc_cycle(drop_filter):
        if drop_filter == cache.zdrop_filter:
            return gc_cycle(cache_filter)
        if drop_filter not in other_filters:
            other_filters[drop_filter] = t.wrap("schemes", "migrate_filter",
                                                drop_filter)
        return gc_cycle(other_filters[drop_filter])
    t.replace(store, "gc_cycle", traced_gc_cycle)

    t.patch(device, "append", "zns",
            after=counter("zns.append", lambda r, a: len(a[1])))
    t.patch(device, "read", "zns",
            after=counter("zns.read", lambda r, a: a[1]))
    t.patch(device, "reset", "zns")
    t.patch(device, "report", "zns")
