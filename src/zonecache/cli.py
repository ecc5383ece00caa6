"""Command line front end.

    zonecache run --config exp.conf
    zonecache sweep --config exp.conf --param vop_ratio --values 0,0.5,1.0
    zonecache op-calc --t-cache 200 --t-gc 600 --k 6
    zonecache gen-trace --preset l2_wc --cache-bytes 4000000000 --out t.trace

Exit codes: 0 success, 2 usage error, 3 invalid configuration or input
value (a malformed trace line included), 1 runtime failure.
"""

import argparse
import sys
from dataclasses import replace

from . import errors
from .harness import (_SCHEME_KEYS, check_scheme, parse_config_file,
                      render_csv, run)
from .workload import PRESET_GET_RATIOS, generate, preset_spec, write_trace
from .zstorage import compute_min_op


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zonecache",
        description="zoned-storage cache simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True,
                         choices=[key for key in _SCHEME_KEYS if key != "scheme"])
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--out-prefix", default="sweep",
                         help="output CSV name prefix (default: sweep)")

    p_calc = sub.add_parser("op-calc",
                            help="minimum over-provisioning for given rates")
    p_calc.add_argument("--t-cache", type=float, required=True,
                        help="cache write rate (MiB/s)")
    p_calc.add_argument("--t-gc", type=float, required=True,
                        help="GC reclaim rate (MiB/s)")
    p_calc.add_argument("--k", type=float, required=True,
                        help="victim-invalidity skew: a GC victim's invalid "
                             "ratio over the mean across zones (>= 1)")

    p_gen = sub.add_parser("gen-trace", help="write a synthetic trace file")
    p_gen.add_argument("--preset", required=True,
                       choices=sorted(PRESET_GET_RATIOS))
    p_gen.add_argument("--cache-bytes", type=int, default=4 * 1024 ** 3)
    p_gen.add_argument("--ops", type=int, default=100_000)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", required=True)
    return parser


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    report = run(config)
    if config.output_path:
        print(f"wrote {config.output_path}")  # run wrote it
    else:
        sys.stdout.write(render_csv(report))
    return 0


def _sweep_apply(config, param, value, out_prefix):
    try:
        parsed = _SCHEME_KEYS[param](value)
    except ValueError as e:
        raise errors.InvalidConfig(f"bad value for {param}: {e}")
    scheme = replace(config.scheme, **{param: parsed})
    check_scheme(scheme, [param])
    point = replace(config, scheme=scheme,
                    output_path=f"{out_prefix}_{param}_{value}.csv")
    point.validate()
    return point


def _cmd_sweep(args) -> int:
    base = parse_config_file(args.config)
    raw_values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not raw_values:
        raise errors.InvalidConfig("--values must list at least one value")
    points = [_sweep_apply(base, args.param, value, args.out_prefix)
              for value in raw_values]
    for point in points:
        run(point)
        print(f"wrote {point.output_path}")
    return 0


def _cmd_op_calc(args) -> int:
    plan = compute_min_op(args.t_cache, args.t_gc, args.k)
    print(f"r_op {plan.r_op:.4f}")
    print(f"r_invalid {plan.r_invalid:.4f}")
    return 0


def _cmd_gen_trace(args) -> int:
    spec = preset_spec(args.preset, args.cache_bytes,
                       seed=args.seed, op_count=args.ops)
    write_trace(generate(spec), args.out)
    print(f"wrote {args.out} ({args.ops} ops, preset {args.preset})")
    return 0


_COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep,
             "op-calc": _cmd_op_calc, "gen-trace": _cmd_gen_trace}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except errors.InvalidConfig as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except errors.SimError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
