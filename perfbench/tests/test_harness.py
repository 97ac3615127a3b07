"""The benchmark's workloads, tracer and command line."""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import time

import pytest
import yaml

import run
import workloads
from conftest import BENCH, ROOT
from tracing import LayerTracer
from uavqos import output, scenario
from uavqos.engine import Simulation

BUNDLED = {"idle_cell": "no_qos_no_bg",
           "dynamic_outage": "dynamic_qos_bg"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_is_the_bundled_scenario(workload):
    written = scenario.parse_config(
        yaml.safe_load(workloads.to_yaml(workloads.scenario(workload))))
    bundled = scenario.load_config(
        scenario.builtin_config_path(BUNDLED[workload]))
    if workload == "dynamic_outage":
        assert written.link_outages_ms == [workloads.OUTAGE_MS]
        bg = written.background.active_window_ms
        assert bg[0] < workloads.OUTAGE_MS[0] < workloads.OUTAGE_MS[1] < bg[1]
        written = dataclasses.replace(written, link_outages_ms=[])
    assert written == bundled


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _short(workload, duration_ms=3000.0):
    doc = workloads.scenario(workload)
    doc["duration_ms"] = duration_ms
    if "link_outages_ms" in doc:
        doc["link_outages_ms"] = [[1000.0, 2000.0]]
    return scenario.parse_config(doc)


def _digest(cfg, out_dir):
    traces, summary = Simulation(cfg).run()
    output.emit(traces, summary, out_dir)
    return [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "summary.json")]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_counts_and_changes_no_output(workload, tmp_path):
    cfg = _short(workload)
    plain = _digest(cfg, tmp_path / "plain")
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = _digest(cfg, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.missing == []
    m = tracer.metrics()
    ticks = int(cfg.duration_ms / cfg.uplink.tti_ms)
    outage_ticks = sum(int((b - a) / cfg.uplink.tti_ms)
                       for a, b in cfg.link_outages_ms)
    assert m["scheduler.ul_calls"] == m["scheduler.dl_calls"] \
        == ticks - outage_ticks
    assert m["sensing.evals"] == cfg.duration_ms / cfg.pfsm.eval_period_ms
    assert m["plant.steps"] >= cfg.duration_ms / cfg.plant.plant_dt_ms - 1
    assert m["cell.packets_enqueued"] >= m["cell.packets_delivered"] > 0
    assert 0.0 < m["scheduler.dl_idle_share"] < 1.0
    for name in ("engine.loop_self_s", "cell.step_self_s", "cell.emit_s",
                 "cell.packet_build_s", "scheduler.ul_s", "sensing.s",
                 "fsm.evaluate_s", "plant.s"):
        assert m[name] > 0.0, name
    if workload == "idle_cell":
        assert m["scheduler.ul_contended_share"] == 0.0
    if workload == "dynamic_outage":
        assert m["fsm.transitions"] > 0


def test_uninstall_restores_every_name():
    from uavqos import cell, engine
    before = (cell.schedule_tti, engine.plant_step, cell.CellModel.step)
    tracer = LayerTracer()
    tracer.install()
    assert cell.schedule_tti is not before[0]
    tracer.uninstall()
    assert (cell.schedule_tti, engine.plant_step, cell.CellModel.step) \
        == before


def test_self_time_excludes_nested_calls():
    tracer = LayerTracer()
    outer_stat, inner_stat = tracer._stat("outer"), tracer._stat("inner")
    inner = tracer._timed(lambda: time.sleep(0.02), lambda _a: inner_stat)
    outer = tracer._timed(lambda: inner(), lambda _a: outer_stat)
    outer()
    assert outer_stat.calls == inner_stat.calls == 1
    assert inner_stat.total_ns >= 20_000_000
    assert outer_stat.child_ns >= inner_stat.total_ns
    assert outer_stat.total_ns - outer_stat.child_ns < 5_000_000


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "idle_cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
