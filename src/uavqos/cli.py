"""Command-line entry points: run, sweep, validate."""

from __future__ import annotations

import argparse
import copy
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import yaml

from .engine import SimulationContractError, run
from .output import emit
from .scenario import ConfigError, parse_config, read_config


def _apply_overrides(raw: dict, seed, mode) -> dict:
    raw = copy.deepcopy(raw)
    if seed is not None:
        raw["seed"] = seed
    if mode is not None:
        raw.setdefault("pfsm", {})["mode"] = mode
    return raw


def _set_dotted(raw: dict, dotted: str, value):
    node = raw
    keys = dotted.split(".")
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _print_summary(summary):
    print(f"scenario {summary.name} (seed {summary.seed}): "
          f"{summary.stability}"
          + (f" at {summary.instability_time_ms:.0f} ms"
             if summary.instability_time_ms is not None else ""))
    print(f"  max tracking error: {summary.max_tracking_error_m:.4f} m")
    for ph in summary.phases:
        print(f"  {ph.start_ms:>9.0f}-{ph.end_ms:<9.0f} ms state={ph.state} "
              f"bg={'on ' if ph.bg_active else 'off'} "
              f"rtt={ph.mean_rtt_ms:9.2f} ms "
              f"uav={ph.mean_uav_goodput_mbps:6.2f} Mbps "
              f"bg={ph.mean_bg_goodput_mbps:6.2f} Mbps")


def _run_one(raw: dict, label: str, out_dir):
    cfg = parse_config(raw, label=label)
    traces, summary = run(cfg)
    if out_dir is not None:
        emit(traces, summary, out_dir)
    return summary


def _sweep_worker(args):
    raw, label, out_dir = args
    return label, _run_one(raw, label, out_dir)


def cmd_run(args) -> int:
    raw, path = read_config(args.config)
    raw = _apply_overrides(raw, args.seed, args.mode)
    summary = _run_one(raw, path.name, args.out)
    _print_summary(summary)
    return 0


def cmd_validate(args) -> int:
    raw, path = read_config(args.config)
    cfg = parse_config(raw, label=path.name)
    print(f"{path}: ok (scenario {cfg.name!r}, {cfg.duration_ms:.0f} ms, "
          f"qos={cfg.qos})")
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
    raw, _ = read_config(args.config)
    base = _apply_overrides(raw, args.seed, args.mode)
    try:
        values = [yaml.safe_load(v) for v in args.values.split(",")]
    except yaml.YAMLError as exc:
        raise ConfigError(f"--values: YAML parse error: {exc}") from exc
    jobs = []
    for value in values:
        raw = copy.deepcopy(base)
        _set_dotted(raw, args.param, value)
        label = f"{args.param}={value}"
        out_dir = Path(args.out) / str(value).replace("/", "_") \
            if args.out else None
        jobs.append((raw, label, out_dir))

    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]
    for label, summary in results:
        print(f"=== {label} ===")
        _print_summary(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavqos",
        description="Closed-loop simulator for dynamic QoS flow selection "
                    "on an edge-offloaded aerial platform.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("--config", required=True,
                       help="path to a YAML scenario or a bundled name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None,
                       help="directory for trace.csv / summary.json")
    p_run.add_argument("--mode", default=None,
                       choices=["deterministic", "stochastic"])
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep",
                             help="vary one config parameter over a list")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True,
                         help="dotted key path, e.g. pfsm.qos_slope")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--mode", default=None,
                         choices=["deterministic", "stochastic"])
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes, at most one per value "
                              "and per CPU")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
