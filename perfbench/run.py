"""Benchmark runner for the zonecache simulator (stdlib only).

    python3 perfbench/run.py --workload zcachelib-l2wc --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --workload reg-lru-l2wc --held-out
    python3 perfbench/run.py --workload zcachelib-l2wc --profile

Each run of the simulator is a full-size run (4 GiB device) in its own
single-threaded child process, one at a time: a run peaks near 4 GiB RSS,
so two would not fit an 8 GiB host. `--trace 0` repeats the untraced run
while `--seconds` allows (at least once) and prints the end-to-end metrics,
with host times scaled to the reference host speed that the canary in
child.py measures; `--trace 1` compares a traced run with an untraced one
of the same spec and prints the per-layer metrics. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics. See
BENCHMARK.md.
"""

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import (HELD_OUT_SEED, WORKLOADS, make_spec, mean_size,
                       weighted_mean_size, workload_seed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # every run must end within 180 s


class RunFailed(Exception):
    pass


def _source_digest() -> str:
    """Digest of the simulator's and this benchmark's source, so recorded
    CSV digests and runs are only compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "zonecache").glob("*.py"),
                        *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_child(mode, spec, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("no time left for another run")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec),
             str(OUT)],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} run passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"{mode} run exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _check_digest(workload, wseed, run):
    """Compare the run's CSV digest with every earlier run of the same
    workload, workload seed and program in this checkout; record it if
    new."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}|{wseed}|{run['ops']}|{_source_digest()}"
    if key not in known:
        known[key] = run["csv_sha256"]
        OUT.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return known[key] == run["csv_sha256"]


def _failures(workload, wseed, runs, expected_ops):
    """Failed ops over the runs, with the reasons; the first run is the
    reference for the CSV digest and the simulated results."""
    failed, reasons = 0, []
    first = runs[0]
    for run in runs:
        bad = run["corrupt_hits"] + run["sweep_mismatches"]
        if bad:
            reasons.append(f"{run['corrupt_hits']} corrupt hits, "
                           f"{run['sweep_mismatches']} sweep mismatches")
        if run["ops"] != expected_ops:
            reasons.append(f"ran {run['ops']} of {expected_ops} ops")
            bad = run["ops"]
        elif not _check_digest(workload, wseed, run) or any(
                run[k] != first[k] for k in
                ("csv_sha256", "final_wa", "stable_hit_ratio",
                 "sim_ops_per_s")):
            reasons.append("CSV or simulated results differ from an earlier "
                           "run of the same seed")
            bad = run["ops"]
        elif run["first_gc_op"] is None or run["sim_ops_per_s"] is None:
            reasons.append("the run never reached its stable stage")
            bad = run["ops"]
        failed += bad
    return failed, reasons


def _result(runs, failed, metrics):
    attempted = sum(r["ops"] + r["swept_keys"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def measure_end_to_end(workload, wseed, seconds):
    spec = make_spec(workload, wseed)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    runs = []
    while True:
        began = time.monotonic()
        runs.append(_run_child("untraced", spec, deadline))
        now = time.monotonic()
        if now - start + (now - began) > min(seconds, DEADLINE_S - 20):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    first = runs[0]
    values = {
        "peak_rss_mib": peak_kib / 1024,
        "final_wa": first["final_wa"],
        "stable_hit_ratio": first["stable_hit_ratio"],
        "sim_ops_per_s": first["sim_ops_per_s"],
    }
    raw = {}
    for name in first["scaled"]:
        values[name] = statistics.median(r["scaled"][name] for r in runs)
        raw[name] = statistics.median(r["as_measured"][name] for r in runs)
    failed, reasons = _failures(workload, wseed, runs,
                                spec["workload"]["op_count"])
    print(f"workload {workload}  workload seed {wseed}  "
          f"ops {spec['workload']['op_count']}  runs {len(runs)}  "
          f"set-ups {sum(len(r['setup_samples']) for r in runs)}")
    for name, unit, _, clock, meaning in END_TO_END:
        as_measured = f"(as measured {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<17} {values[name]:>14.4f} {unit:<6} {clock:<4}  "
              f"{meaning} {as_measured}")
    print(f"  host speed (canary, 1 = reference): "
          f"{', '.join('%.3f' % r['host_speed'] for r in runs)}; "
          f"op samples per run: {first['op_samples']}; "
          f"wall s per run: {', '.join('%.1f' % r['wall_s'] for r in runs)}")
    _print_checks(first, reasons)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, *_ in END_TO_END}
    return _result(runs, failed, metrics), runs


def _recorded_untraced(workload, wseed, spec):
    """The first untraced run of this spec and program, if an end-to-end
    measurement in this checkout already made one."""
    path = OUT / f"result-{workload}-wseed{wseed}-trace0.json"
    if not path.exists():
        return None
    record = json.loads(path.read_text())
    if record["spec"] != spec or record["source"] != _source_digest():
        return None
    return record["runs"][0]


def measure_layers(workload, wseed):
    spec = make_spec(workload, wseed)
    deadline = time.monotonic() + DEADLINE_S
    plain = _recorded_untraced(workload, wseed, spec)
    reference = "recorded" if plain else "fresh"
    plain = plain or _run_child("untraced", spec, deadline)
    traced = _run_child("traced", spec, deadline)
    runs = [plain, traced]
    failed, reasons = _failures(workload, wseed, runs,
                                spec["workload"]["op_count"])
    untraced = plain["as_measured"]["host_ops_per_s"]
    overhead = untraced / traced["host_ops_per_s"]
    print(f"workload {workload}  workload seed {wseed}  "
          f"ops {spec['workload']['op_count']}  traced")
    print(f"  tracing overhead: untraced ({reference} run) "
          f"{untraced:.1f} ops/s"
          f" / traced {traced['host_ops_per_s']:.1f} ops/s = {overhead:.3f}x")
    print(f"  {traced['spans']} spans written to {traced['spans_path']} "
          f"in {traced['spans_write_s']:.1f} s")
    print("  self time of every wrapped call:")
    for name, calls, secs in traced["self_times"]:
        print(f"    {name:<26} {calls:>9} calls {secs:>9.3f} s")
    print(f"    {'harness.self':<26} {'':>15} "
          f"{traced['layers']['harness.self_s']:>9.3f} s")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<32} {traced['layers'][name]:>14.4f} {unit}")
    _print_checks(traced, reasons)
    metrics = {name: {"value": traced["layers"][name], "unit": unit}
               for name, unit, _ in PER_LAYER}
    return _result(runs, failed, metrics), runs


def profile(workload, wseed):
    """cProfile roll-up of tottime per module. Never used for metrics:
    profiling inflates call-heavy code far more than the rest."""
    spec = make_spec(workload, wseed)
    run = _run_child("profile", spec, time.monotonic() + DEADLINE_S)
    failed, reasons = _failures(workload, wseed, [run],
                                spec["workload"]["op_count"])
    print(f"workload {workload}  workload seed {wseed}  profiled wall "
          f"{run['wall_s']:.1f} s (cProfile on; not a timing)")
    print("  tottime per module:")
    for module, secs in run["modules"]:
        if secs >= 0.05:
            print(f"    {module:<28} {secs:>8.2f} s")
    print("  top functions by tottime:")
    for secs, calls, where in run["functions"]:
        print(f"    {secs:>8.2f} s {calls:>10} calls  {where}")
    _print_checks(run, reasons)
    metrics = {f"profile.{m}": {"value": s, "unit": "s"}
               for m, s in run["modules"]}
    return _result([run], failed, metrics), [run]


def _print_checks(run, reasons):
    print(f"  check: {run['corrupt_hits']} corrupt hits; "
          f"{run['swept_keys']} cached keys read back, "
          f"{run['sweep_mismatches']} mismatches; "
          f"csv sha256 {run['csv_sha256']}")
    for reason in reasons:
        print(f"  FAILED: {reason}")


def run_all(args):
    """Each workload through this runner in its own process, so the peak
    RSS that getrusage reports belongs to that workload alone."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--workload-seed", str(args.wseed),
             "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--profile"] if args.profile
                                            else []),
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise RunFailed(f"{workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def _check_benchmark_file():
    """BENCHMARK.json must list exactly the metrics this runner reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != [m[:2] for m in END_TO_END] \
            or layers != [m[:2] for m in PER_LAYER] \
            or [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise RunFailed("BENCHMARK.json and perfbench/metrics.py disagree")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--workload-seed", type=int, dest="wseed",
                        help="give the simulator this workload seed as is, "
                        "instead of the one --seed maps to")
    parser.add_argument("--seconds", type=int, default=30,
                        help="measure for this long (at least one run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="cProfile roll-up per module instead of metrics")
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED
    if not (ROOT / "src" / "zonecache" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.wseed is None:
        args.wseed = workload_seed(args.seed)
    held_out = " (held out)" if args.seed == HELD_OUT_SEED else ""
    print(f"seed {args.seed}{held_out} -> workload seed {args.wseed}: "
          f"popularity-weighted mean object size "
          f"{weighted_mean_size(args.wseed):.0f} B (distribution mean "
          f"{mean_size():.0f} B)")
    try:
        _check_benchmark_file()
        if args.workload == "all":
            result = run_all(args)
        else:
            if args.profile:
                result, runs = profile(args.workload, args.wseed)
            elif args.trace:
                result, runs = measure_layers(args.workload, args.wseed)
            else:
                result, runs = measure_end_to_end(args.workload, args.wseed,
                                                  args.seconds)
            OUT.mkdir(exist_ok=True)
            mode = "profile" if args.profile else f"trace{args.trace}"
            record = {"workload": args.workload, "seed": args.seed,
                      "held_out": args.seed == HELD_OUT_SEED,
                      "workload_seed": args.wseed, "mode": mode,
                      "spec": make_spec(args.workload, args.wseed),
                      "source": _source_digest(),
                      "result": result, "runs": runs}
            (OUT / f"result-{args.workload}-wseed{args.wseed}-{mode}.json") \
                .write_text(json.dumps(record, indent=1))
    except RunFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
