#!/usr/bin/env python3
"""Scenario benchmark for the uavqos simulator.

    python3 perfbench/run.py --workload idle_cell --seed 1 --seconds 60 \
        --trace 0

Runs whole rounds within --seconds: a round starts only if it would end
in time, judged by the length of the round before it, and the first
round always runs. A round is one 120 s simulation of the workload in a
fresh interpreter (`child.py`), started only after the previous one has
ended. The benchmark writes the workload's scenario YAML and the
simulator receives only that file; it builds nothing and imports uavqos
from ``src/`` of the checkout it sits in.

With --trace 0 a round is one untraced simulation, and the run reports
the end-to-end metrics: set-up time, wall time, ticks per host second and
peak resident memory, each the median over the rounds. With --trace 1 a
round is an untraced simulation followed by a traced one (`tracing.py`),
and the run reports the traced per-layer split plus the tracing overhead.

Every simulation's outputs go through the workload's correctness checks
(`checks.py`); each check is one operation attempted. The trace.csv and
summary.json digests must repeat in every round, and a traced run must
write the same files as an untraced one. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

The workloads are fixed scenarios. ``--seed`` is recorded but selects
nothing: each scenario runs in deterministic mode without noise or jitter
and keeps its own pinned seed, so the digests characterise the code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# a run must end within 180 s, whatever --seconds asks for
RUN_LIMIT_S = 170.0
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ticks_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "scenario.load_s": "s",
    "engine.construct_s": "s",
    "engine.loop_self_s": "s",
    "cell.step_self_s": "s",
    "cell.emit_s": "s",
    "cell.packet_build_s": "s",
    "cell.packets_enqueued": "count",
    "cell.packets_delivered": "count",
    "scheduler.ul_s": "s",
    "scheduler.dl_s": "s",
    "scheduler.ul_calls": "count",
    "scheduler.dl_calls": "count",
    "scheduler.dl_idle_share": "ratio",
    "scheduler.ul_contended_share": "ratio",
    "scheduler.ul_peak_backlog_bits": "bit",
    "sensing.s": "s",
    "sensing.evals": "count",
    "fsm.evaluate_s": "s",
    "fsm.transitions": "count",
    "plant.s": "s",
    "plant.steps": "count",
    "output.emit_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure: missing sources or a failed run."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate(scenario: Path, out_dir: Path, traced: bool) -> dict:
    """One simulation in a fresh interpreter; returns its stamps, memory
    and flow totals, with the host time it was started at."""
    for name in ("trace.csv", "summary.json"):
        (out_dir / name).unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(scenario),
           str(out_dir), "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"simulation exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"simulation exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawned"] = spawned
    result["digests"] = {name: sha256(out_dir / name)
                         for name in ("trace.csv", "summary.json")}
    return result


def host_times(result: dict, n_ticks: int) -> dict:
    """End-to-end figures of one simulation, from its start stamps."""
    s = result["stamps"]
    return {
        "setup_s": s["built"] - result["spawned"],
        "wall_s": s["emitted"] - result["spawned"],
        "ticks_per_s": n_ticks / (s["ran"] - s["built"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }


class Bench:
    def __init__(self, workload: str):
        self.workload = workload
        self.doc = workloads.scenario(workload)
        self.n_ticks = round(self.doc["duration_ms"]
                             / self.doc["uplink"]["tti_ms"])
        self.dir = OUT / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.dir / "scenario.yaml"
        self.scenario.write_text(workloads.to_yaml(self.doc))
        self.attempted = 0
        self.failed = 0
        self.digests = None

    def _count(self, name: str, ok: bool, detail: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"  FAILED {name}: {detail}")

    def _simulate_checked(self, traced: bool) -> dict:
        out_dir = self.dir / ("traced" if traced else "plain")
        out_dir.mkdir(exist_ok=True)
        result = simulate(self.scenario, out_dir, traced)
        output = checks.read_output(out_dir, result["flows"],
                                    result.get("kind_bits"))
        for name, ok, detail in checks.run_checks(self.workload, self.doc,
                                                  output):
            self._count(name, ok, detail)
        # the first round fixes the digests every later one must repeat
        if self.digests is None:
            self.digests = result["digests"]
        self._count("digests_repeat", result["digests"] == self.digests,
                    f"{result['digests']} vs {self.digests}")
        return result

    def round_plain(self) -> dict:
        return host_times(self._simulate_checked(traced=False), self.n_ticks)

    def round_traced(self) -> dict:
        plain = self._simulate_checked(traced=False)
        traced = self._simulate_checked(traced=True)
        s = traced["stamps"]
        layers = dict(traced["layers"])
        layers["scenario.load_s"] = s["loaded"] - s["imported"]
        layers["engine.construct_s"] = s["built"] - s["loaded"]
        layers["output.emit_s"] = s["emitted"] - s["ran"]
        layers["trace.overhead_ratio"] = (
            host_times(traced, self.n_ticks)["ticks_per_s"]
            / host_times(plain, self.n_ticks)["ticks_per_s"])
        return layers


def measure(workload: str, seconds: float, traced: bool) -> dict:
    bench = Bench(workload)
    one_round = bench.round_traced if traced else bench.round_plain
    units = PER_LAYER if traced else END_TO_END
    limit = min(seconds, RUN_LIMIT_S)
    start = time.monotonic()
    rounds = []
    while True:
        began = time.monotonic()
        rounds.append(one_round())
        now = time.monotonic()
        print(f"round {len(rounds)}: " + ", ".join(
            f"{k} {v:.6g}" for k, v in rounds[-1].items() if k in units))
        if now - start + (now - began) > limit:
            break
    for name, digest in bench.digests.items():
        print(f"sha256 {name} {digest}")
    metrics = {name: {"value": statistics.median(r[name] for r in rounds),
                      "unit": unit} for name, unit in units.items()}
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uavqos" / "__init__.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed} (fixed scenario), "
          f"{args.seconds} s, trace {args.trace}")
    try:
        result = measure(args.workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
