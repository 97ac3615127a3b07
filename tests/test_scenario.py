"""Config loading, run orchestration, emission, and CLI surface tests."""

import dataclasses
import functools
import hashlib
import json
import math
import operator
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, raw_scenario
from uavqos import engine, fsm, sensing
from uavqos.engine import TraceRecord, run
from uavqos.output import emit, summary_json, trace_csv_lines
from uavqos.scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    builtin_config_path,
    load_config,
    parse_config,
)


def leaf_paths(node, path=()):
    """Key paths (keys and list indices) of every scalar in a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def set_leaf(raw, path, value):
    """Set the leaf at `path`; an index one past a list's end appends."""
    parent = functools.reduce(operator.getitem, path[:-1], raw)
    if isinstance(parent, list) and path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value


def spelled_out(cfg) -> dict:
    """The document of a loaded config with every key spelled out; an
    infinite value (an open until_ms) goes back to null, its default."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return None if v == math.inf else v
    return plain(dataclasses.asdict(cfg))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class TestLoadConfig:
    def test_all_bundled_configs_load(self):
        for name in BUILTIN_SCENARIOS:
            cfg = load_config(builtin_config_path(name))
            assert cfg.name == name

    def test_baseline_scenario_shape(self):
        cfg = load_config(builtin_config_path("no_qos_no_bg"))
        assert cfg.qos == "never"
        assert cfg.background is None
        assert cfg.camera.rate_bps + cfg.control.rate_bps == \
            pytest.approx(47e6)

    def test_dynamic_scenario_carries_experiment_parameters(self):
        cfg = load_config(builtin_config_path("dynamic_qos_bg"))
        pf = cfg.pfsm
        assert (pf.cam_sigmoid.steepness, pf.cc_sigmoid.steepness,
                pf.risk_sigmoid.steepness) == (3.0, 5.0, 5.0)
        assert (pf.cam_sigmoid.midpoint, pf.cc_sigmoid.midpoint,
                pf.risk_sigmoid.midpoint) == (61.0, 27.0, 3.0)
        assert (pf.cam_weight, pf.cc_weight) == (0.35, 0.65)
        assert (pf.cam_window, pf.cc_window) == (10, 50)

    def test_weights_must_sum_to_one(self):
        raw = raw_scenario("dynamic_qos_bg")
        raw["pfsm"]["cam_weight"] = 0.5
        raw["pfsm"]["cc_weight"] = 0.6
        with pytest.raises(ConfigError, match="cam_weight"):
            parse_config(raw)

    def test_unknown_key_rejected_with_path(self):
        raw = raw_scenario("no_qos_no_bg")
        raw["uplink"]["bandwidth"] = 1.0
        with pytest.raises(ConfigError, match="uplink.*bandwidth"):
            parse_config(raw)

    def test_missing_required_key(self):
        raw = raw_scenario("no_qos_no_bg")
        del raw["duration_ms"]
        with pytest.raises(ConfigError, match="duration_ms"):
            parse_config(raw)

    def test_environment_segments_must_be_ordered(self):
        raw = raw_scenario("dynamic_qos_bg")
        raw["environment"] = [{"spaciousness_m": 4.0, "until_ms": 9000.0},
                              {"spaciousness_m": 6.0, "until_ms": 2000.0}]
        with pytest.raises(ConfigError, match="ordered"):
            parse_config(raw)

    def test_background_requires_window(self):
        raw = raw_scenario("no_qos_bg")
        del raw["background"]["active_window_ms"]
        with pytest.raises(ConfigError, match="active_window_ms"):
            parse_config(raw)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            load_config("/nonexistent/path.yaml")

    @pytest.mark.parametrize("name, path, value, message", [
        ("no_qos_no_bg", ("uplink", "capacity_bps"), math.nan,
         r"uplink\.capacity_bps: must be finite"),
        ("no_qos_no_bg", ("duration_ms",), math.inf,
         r"\.duration_ms: must be finite"),
        ("no_qos_no_bg", ("link_outages_ms",), [["a", 5]],
         r"link_outages_ms\[0\]: expected a number"),
        ("no_qos_no_bg", ("downlink", "tti_ms"), 1.0,
         r"downlink\.tti_ms: must equal uplink\.tti_ms"),
        ("no_qos_no_bg", ("uav_sources", 0, "rate_bps"), 10.0,
         r"uav_sources\[0\]: .* rounds to 0 bits"),
        ("dynamic_qos_bg", ("pfsm", "cam_window"), 0.5,
         r"pfsm\.cam_window: must be a whole number, got 0\.5"),
        ("dynamic_qos_bg", ("pfsm", "cam_sigmoid", "steepness"), 0.0,
         r"pfsm\.cam_sigmoid\.steepness: must be positive, got 0\.0"),
        ("dynamic_qos_bg", ("plant", "kp"), -1.0,
         r"plant\.kp: must be positive, got -1\.0"),
        ("dynamic_qos_bg", ("pfsm", "rate_floor_bps"), 50e6,
         r"pfsm\.rate_floor_bps: must not exceed"),
        ("no_qos_no_bg", ("duration_ms",), 1000.3,
         r"\.duration_ms: 1000\.3 ms must be a whole number of TTIs"),
        ("no_qos_no_bg", ("reporting_interval_ms",), 100.2,
         r"\.reporting_interval_ms: 100\.2 ms must be a whole number"),
        ("dynamic_qos_bg", ("pfsm", "eval_period_ms"), 100.25,
         r"pfsm\.eval_period_ms: 100\.25 ms must be a whole number"),
        ("dynamic_qos_bg", ("plant", "plant_dt_ms"), 0.75,
         r"plant\.plant_dt_ms: 0\.75 ms must be a whole number"),
        ("dynamic_qos_bg", ("plant", "period_ms"), 10.1,
         r"plant\.period_ms: 10\.1 ms must be a whole number"),
        ("no_qos_no_bg", ("uav_sources", 2),
         {"kind": "cbr_frames", "rate_bps": 1e6},
         r"uav_sources\[2\]: at most one cbr_frames camera"),
        ("no_qos_no_bg", ("uav_sources", 2),
         {"kind": "onoff_background", "rate_bps": 1e6,
          "active_window_ms": [0.0, 500.0]},
         r"uav_sources\[2\]\.kind: onoff_background belongs under "
         r"background"),
        ("no_qos_no_bg", ("duration_ms",), 1e308,
         r"\.duration_ms: 1e\+308 ms must be a whole number of TTIs"),
        ("dynamic_qos_bg", ("pfsm", "eval_period_ms"), 1e308,
         r"pfsm\.eval_period_ms: 1e\+308 ms must be a whole number"),
        ("dynamic_qos_bg", ("plant", "period_ms"), 1e308,
         r"plant\.period_ms: 1e\+308 ms must be a whole number"),
        ("dynamic_qos_bg", ("plant", "plant_dt_ms"), 1e308,
         r"plant\.plant_dt_ms: 1e\+308 ms must be a whole number"),
        ("dynamic_qos_bg", ("pfsm", "eval_period_ms"), 1e-10,
         r"pfsm\.eval_period_ms: 1e-10 ms must be a whole number"),
        ("no_qos_no_bg", ("reporting_interval_ms",), 1e-10,
         r"\.reporting_interval_ms: 1e-10 ms must be a whole number"),
        ("no_qos_no_bg", ("uav_sources", 0, "frame_hz"), 1e-308,
         r"uav_sources\[0\]: .* rounds to 0 bits or to 2\*\*63 bits"),
        ("dynamic_qos_bg", ("plant", "circle_period_s"), 1e-308,
         r"plant\.circle_period_s: 1e-308 s is too short"),
        ("dynamic_qos_bg", ("pfsm", "cam_window"), 1e308,
         r"pfsm\.cam_window: must fit in 64 bits"),
        ("dynamic_qos_bg", ("pfsm", "cc_window"), 1e308,
         r"pfsm\.cc_window: must fit in 64 bits"),
        ("dynamic_qos_bg", ("pfsm", "hl_persist_evals"), 1e308,
         r"pfsm\.hl_persist_evals: must fit in 64 bits"),
        ("no_qos_bg", ("uav_sources", 0, "active_window_ms"), [0.0, 500.0],
         r"uav_sources\[0\]\.active_window_ms: read only by "
         r"onoff_background sources, not by cbr_frames"),
        ("no_qos_bg", ("uav_sources", 1, "frame_hz"), 10.0,
         r"uav_sources\[1\]\.frame_hz: read only by cbr_frames"),
        ("no_qos_bg", ("uav_sources", 1, "floor_bps"), 1e6,
         r"uav_sources\[1\]\.floor_bps: read only by cbr_frames"),
        ("no_qos_bg", ("background", "frame_hz"), 10.0,
         r"background\.frame_hz: read only by cbr_frames"),
        ("no_qos_bg", ("background", "floor_bps"), 1e6,
         r"background\.floor_bps: read only by cbr_frames"),
        ("no_qos_bg", ("uav_sources", 1, "rate_bps"), 6000.5,
         r"uav_sources\[1\]: periodic rate below one packet per second"),
        ("no_qos_bg", ("background", "rate_bps"), 1e308,
         r"background\.rate_bps: the flow's sources offer up to inf bits"),
        ("no_qos_no_bg", ("uav_sources", 1, "rate_bps"), 1e308,
         r"uav_sources\[1\]\.rate_bps: the flow's sources offer up to inf"),
        ("no_qos_no_bg", ("uav_sources", 0, "rate_bps"), 1e308,
         r"uav_sources\[0\]\.rate_bps: the flow's sources offer up to inf"),
        ("no_qos_no_bg", ("uav_sources", 0, "rate_bps"), 1e14,
         r"uav_sources\[0\]\.rate_bps: the flow's sources offer up to "
         r"1\.2e\+16 bits over the run, which must stay below 2\*\*53"),
        ("no_qos_no_bg", ("command_packet_bits",), 2 ** 50,
         r"\.command_packet_bits: the flow's sources offer up to"),
        ("dynamic_qos_bg", ("pfsm", "cam_window"), 0,
         r"pfsm\.cam_window: must be positive"),
        ("no_qos_no_bg", ("plant",), {1: "a", "zzz": "b"},
         r"\.plant: unknown keys \[1, 'zzz'\]"),
        ("dynamic_qos_bg", ("uav_sources", 0, "floor_bps"), 60e6,
         r"uav_sources\[0\]\.floor_bps: must not exceed the camera "
         r"rate_bps 45800000\.0"),
        ("dynamic_qos_bg", ("pfsm", "cam_weight"), 2.0,
         r"pfsm\.cam_weight: must lie in \[0, 1\], got 2\.0"),
        ("dynamic_qos_bg", ("pfsm", "ema_beta"), -0.2,
         r"pfsm\.ema_beta: must lie in \[0, 1\], got -0\.2"),
        ("no_qos_no_bg", ("jitter_ms",), 13.7,
         r"\.jitter_ms: must not exceed the smaller base delay "
         r"\(13\.65 ms\), got 13\.7"),
        ("no_qos_no_bg", ("jitter_ms",), 1e308,
         r"\.jitter_ms: must not exceed the smaller base delay"),
        ("dynamic_qos_bg", ("pfsm", "mode"), "random",
         r"pfsm\.mode: must be one of \('deterministic', 'stochastic'\)"),
        ("dynamic_qos_bg", ("pfsm", "rate_adapt_factor"), 1.5,
         r"pfsm\.rate_adapt_factor: must lie in \(0, 1\), got 1\.5"),
        ("dynamic_qos_bg", ("pfsm", "hl_persist_evals"), 0,
         r"pfsm\.hl_persist_evals: must be positive, got 0"),
        ("dynamic_qos_bg", ("pfsm", "qos_slope"), 0,
         r"pfsm\.qos_slope: must be positive, got 0\.0"),
        ("dynamic_qos_bg", ("pfsm", "default_slope"), 0,
         r"pfsm\.default_slope: must be positive, got 0\.0"),
        ("no_qos_no_bg", ("uav_sources", 0, "frame_hz"), 0,
         r"uav_sources\[0\]\.frame_hz: must be positive, got 0\.0"),
        ("no_qos_no_bg", ("uav_sources", 1, "rate_bps"), 0,
         r"uav_sources\[1\]\.rate_bps: must be positive, got 0\.0"),
        ("no_qos_bg", ("background", "packet_bits"), 0,
         r"background\.packet_bits: must be positive, got 0"),
        ("no_qos_no_bg", ("uplink", "capacity_bps"), 0,
         r"uplink\.capacity_bps: must be positive, got 0\.0"),
        ("no_qos_no_bg", ("uplink", "tti_ms"), 0,
         r"uplink\.tti_ms: must be positive, got 0\.0"),
        ("no_qos_no_bg", ("uplink", "base_delay_ms"), -1,
         r"uplink\.base_delay_ms: must be non-negative, got -1\.0"),
        ("no_qos_no_bg", ("uplink", "buffer_cap_bits"), 0,
         r"uplink\.buffer_cap_bits: must be positive, got 0\.0"),
    ])
    def test_rejection_carries_key_path(self, name, path, value, message):
        raw = raw_scenario(name)
        set_leaf(raw, path, value)
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

    def test_camera_floor_does_not_count_as_offered(self):
        # only rate adaptation lowers the camera toward its floor, and a
        # floor above the rate is rejected where it runs (qos: dynamic)
        raw = raw_scenario("no_qos_no_bg")
        raw["uav_sources"][0]["floor_bps"] = 1e14
        assert parse_config(raw).camera.rate_bps == 45.8e6

    @pytest.mark.parametrize("path, value, key", [
        (("pfsm", "cam_window"), 10.7, r"pfsm\.cam_window"),
        (("uav_sources", 1, "packet_bits"), 11999.5,
         r"uav_sources\[1\]\.packet_bits"),
        (("seed",), 1.9, r"\.seed"),
    ])
    def test_int_key_takes_only_whole_numbers(self, path, value, key):
        raw = raw_scenario("dynamic_qos_bg")
        set_leaf(raw, path, value)
        with pytest.raises(ConfigError,
                           match=f"{key}: must be a whole number, got "):
            parse_config(raw)
        set_leaf(raw, path, float(int(value)))     # an integral float
        node = parse_config(raw)
        for k in path:
            node = node[k] if isinstance(k, int) else getattr(node, k)
        assert type(node) is int and node == int(value)

    def test_omitted_until_ms_means_forever(self):
        cfg = load_config(builtin_config_path("dynamic_qos_bg"))
        assert cfg.environment[-1].until_ms == math.inf

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_leaf_is_rejected_or_runs(self, data):
        # One key of the whole schema, spelled out in a bundled scenario or
        # left at its default, gets an invalid, boundary, huge or rescaled
        # value: the loader rejects it, or a 1 s run finishes.
        raw = raw_scenario(data.draw(st.sampled_from(BUILTIN_SCENARIOS)))
        raw["duration_ms"] = 1000.0
        raw["link_outages_ms"] = [[300.0, 400.0]]
        if raw.get("background"):
            raw["background"]["active_window_ms"] = [200.0, 800.0]
        raw = spelled_out(parse_config(raw))
        path = data.draw(st.sampled_from(list(leaf_paths(raw))))
        values = [math.nan, math.inf, -math.inf, -1, 0, 1e-308, 1e308, "x",
                  [], None]
        old = functools.reduce(operator.getitem, path, raw)
        if type(old) in (int, float):
            values += [old * 0.5, old * 2]
        set_leaf(raw, path, data.draw(st.sampled_from(values)))
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
        run(cfg)    # a SimulationContractError or any other error fails


@pytest.fixture(scope="module")
def short_run():
    cfg = make_config("no_qos_no_bg", duration_ms=60_000.0)
    return cfg, *run(cfg)


class TestRunAndEmit:
    def test_sixty_second_run_yields_600_rows(self, short_run):
        _, traces, _ = short_run
        lines = list(trace_csv_lines(traces))
        assert len(lines) == 601           # header + one row per interval
        assert lines[0].startswith("time,state,signals,ul_buffer,rtt,")

    def test_rerun_is_byte_identical(self, short_run):
        cfg, traces, summary = short_run
        traces2, summary2 = run(make_config("no_qos_no_bg",
                                            duration_ms=60_000.0))
        assert digest(trace_csv_lines(traces)) == \
            digest(trace_csv_lines(traces2))
        assert summary_json(summary) == summary_json(summary2)

    def test_emit_writes_both_formats(self, short_run, tmp_path):
        _, traces, summary = short_run
        paths = emit(traces, summary, tmp_path / "out")
        names = {p.name for p in paths}
        assert names == {"trace.csv", "summary.json"}
        data = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert data["name"] == "no_qos_no_bg"
        assert data["stability"] == "stable"

    @pytest.mark.parametrize("jitter_ms, drawn", [(0.0, False), (0.3, True)])
    def test_numpy_random_imported_only_by_runs_that_draw(
            self, tmp_path, jitter_ms, drawn):
        # a random stream is built only when the run draws from it
        script = f"""
import sys
sys.path[:0] = {sys.path!r}
import yaml
from uavqos import output
from uavqos.engine import run
from uavqos.scenario import builtin_config_path, parse_config
with open(builtin_config_path("no_qos_no_bg")) as fh:
    raw = yaml.safe_load(fh)
raw.update(duration_ms=1_000.0, jitter_ms={jitter_ms})
output.emit(*run(parse_config(raw)), {str(tmp_path)!r})
print("numpy.random" in sys.modules)
"""
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == f"{drawn}\n"
        assert (tmp_path / "trace.csv").exists()

    def test_phase_means_equal_brute_force_recomputation(self):
        cfg = make_config("dynamic_qos_bg", duration_ms=8_000.0)
        raw = raw_scenario("dynamic_qos_bg")
        raw["duration_ms"] = 8_000.0
        raw["background"]["active_window_ms"] = [3000.0, 6000.0]
        cfg = parse_config(raw)
        traces, summary = run(cfg)
        for ph in summary.phases:
            rows = [r for r in traces if ph.start_ms <= r.time <= ph.end_ms
                    and r.state == ph.state]
            assert ph.mean_rtt_ms == pytest.approx(
                sum(r.rtt for r in rows) / len(rows))
            assert ph.mean_uav_goodput_mbps == pytest.approx(
                sum(r.uav_goodput for r in rows) / len(rows))
            assert ph.mean_bg_goodput_mbps == pytest.approx(
                sum(r.bg_goodput for r in rows) / len(rows))

    def test_overload_summary_verdict_unstable(self):
        raw = raw_scenario("no_qos_bg")
        raw["duration_ms"] = 60_000.0
        raw["background"]["active_window_ms"] = [5_000.0, 60_000.0]
        traces, summary = run(parse_config(raw))
        assert summary.stability == "unstable"
        assert summary.instability_time_ms is not None
        assert summary.instability_time_ms < 60_000.0

    def test_golden_digest_frozen(self):
        # short baseline run pinned: any behavioral drift shows up here
        cfg = make_config("no_qos_no_bg", duration_ms=2_000.0)
        traces, _ = run(cfg)
        assert digest(trace_csv_lines(traces)) == GOLDEN_DIGEST_2S_BASELINE

    def test_signal_mode_applies_without_supervisor(self):
        # under qos: never the stochastic mode draws HL with probability
        # P_lat, so its traced signals differ from the thresholded ones
        raw = raw_scenario("no_qos_bg")
        raw["duration_ms"] = 30_000.0
        signals = {}
        for mode in ("deterministic", "stochastic"):
            raw.setdefault("pfsm", {})["mode"] = mode
            traces, _ = run(parse_config(raw))
            signals[mode] = [r.signals for r in traces]
        assert len(signals["stochastic"]) == 300
        assert signals["deterministic"] != signals["stochastic"]

    def test_one_clutter_probability_per_evaluation(self, monkeypatch):
        # the engine computes P_cs once and emit_signals reads it; the
        # filter in sensing computes none
        calls = []
        for module in (engine, sensing):
            def counted(*args, _original=module.clutter_prob):
                calls.append(args)
                return _original(*args)
            monkeypatch.setattr(module, "clutter_prob", counted)
        cfg = make_config("dynamic_qos_bg", duration_ms=1_000.0)
        run(cfg)
        assert len(calls) == cfg.duration_ms / cfg.pfsm.eval_period_ms

    def test_stochastic_mode_runs_and_replays(self):
        raw = raw_scenario("dynamic_qos_bg")
        raw["duration_ms"] = 5_000.0
        raw["background"]["active_window_ms"] = [2_000.0, 4_000.0]
        raw["pfsm"]["mode"] = "stochastic"
        a, _ = run(parse_config(raw))
        b, _ = run(parse_config(raw))
        assert digest(trace_csv_lines(a)) == digest(trace_csv_lines(b))
        raw["seed"] = 99
        c, _ = run(parse_config(raw))
        assert digest(trace_csv_lines(a)) != digest(trace_csv_lines(c))


GOLDEN_DIGEST_2S_BASELINE = \
    "65eec611199b3acf6f9b35e0bbc5cb6f8ea7263152a10d44137bd2ec06dd0a62"


class TestCli:
    def cli(self, *args):
        return subprocess.run([sys.executable, "-m", "uavqos.cli", *args],
                              capture_output=True, text=True)

    def test_validate_bundled_ok(self):
        r = self.cli("validate", "--config", "no_qos_no_bg")
        assert r.returncode == 0 and "ok" in r.stdout

    def test_validate_rejects_bad_config(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        raw = raw_scenario("no_qos_no_bg")
        raw["qos"] = "sometimes"
        bad.write_text(yaml.safe_dump(raw))
        r = self.cli("validate", "--config", str(bad))
        assert r.returncode == 1
        assert "qos" in r.stderr

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("leaves, message", [
        ({("pfsm", "cam_weight"): 2.0, ("pfsm", "cc_weight"): -1.0},
         "bad.yaml.pfsm.cam_weight: must lie in [0, 1], got 2.0"),
        ({("jitter_ms",): 1e308},
         "bad.yaml.jitter_ms: must not exceed the smaller base delay "
         "(13.65 ms), got 1e+308"),
        ({("uplink", "base_delay_ms"): 1e308,
          ("downlink", "base_delay_ms"): 1e308, ("jitter_ms",): 1e308},
         "bad.yaml.jitter_ms: 2 * jitter_ms, the span of each draw, must "
         "be finite, got 1e+308"),
    ])
    def test_config_the_run_cannot_take_is_rejected(self, tmp_path, command,
                                                    leaves, message):
        # the loader is the only validator, so both commands reject these
        # before any run starts
        raw = raw_scenario("dynamic_qos_bg")
        for path, value in leaves.items():
            set_leaf(raw, path, value)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw))
        r = self.cli(command, "--config", str(bad))
        assert r.returncode == 1
        assert r.stderr == f"config error: {message}\n"

    def test_run_writes_outputs(self, tmp_path):
        short = tmp_path / "short.yaml"
        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 1_000.0
        short.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        r = self.cli("run", "--config", str(short), "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        header, first = (out / "trace.csv").read_text().splitlines()[:2]
        assert header.split(",") == [
            f.name for f in dataclasses.fields(TraceRecord)]

    def test_seed_override_changes_summary_seed(self, tmp_path):
        short = tmp_path / "short.yaml"
        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 1_000.0
        short.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        r = self.cli("run", "--config", str(short), "--seed", "42",
                     "--out", str(out))
        assert r.returncode == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 42

    def test_sweep_runs_each_value(self, tmp_path):
        short = tmp_path / "short.yaml"
        raw = raw_scenario("priority_qos_bg")
        raw["duration_ms"] = 2_000.0
        raw["background"]["active_window_ms"] = [0.0, 2_000.0]
        short.write_text(yaml.safe_dump(raw))
        out = tmp_path / "sweep"
        r = self.cli("sweep", "--config", str(short), "--param",
                     "pfsm.qos_slope", "--values", "2.0,8.0",
                     "--out", str(out), "--jobs", "2")
        assert r.returncode == 0, r.stderr
        assert (out / "2.0" / "trace.csv").exists()
        assert (out / "8.0" / "trace.csv").exists()
        assert r.stdout.count("scenario priority_qos_bg") == 2

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 2, 2),        # clamped to the CPUs
        (64, 8, 3),        # clamped to the values
        (3, None, None),   # unknown CPU count: one process, no pool
        (1, 8, None),
    ])
    def test_sweep_pool_is_clamped(self, tmp_path, monkeypatch, capsys,
                                   jobs, cpus, workers):
        from uavqos import cli

        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        short = tmp_path / "short.yaml"
        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 10.0
        short.write_text(yaml.safe_dump(raw))
        assert cli.main(["sweep", "--config", str(short), "--param", "seed",
                         "--values", "1,2,3", "--jobs", str(jobs)]) == 0
        assert pools == ([workers] if workers else [])
        assert capsys.readouterr().out.count("scenario no_qos_no_bg") == 3

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_rejects_jobs_below_one(self, capsys, jobs):
        from uavqos import cli

        assert cli.main(["sweep", "--config", "no_qos_no_bg", "--param",
                         "seed", "--values", "1", "--jobs", jobs]) == 1
        assert capsys.readouterr().err.startswith("config error: --jobs")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        args = ["--param", "seed", "--values", "1"] \
            if command == "sweep" else []
        r = self.cli(command, "--config", str(bad), *args)
        assert r.returncode == 1
        assert r.stderr.startswith("config error:")
        assert "Traceback" not in r.stderr

    def test_non_finite_plant_ends_unstable(self, tmp_path, capsys):
        # commands of up to 1e308 drive the plant state past the float
        # range and then kp * error overflows, so the state turns non-finite
        # mid-run; the run keeps the last finite state and reports the
        # divergence
        from uavqos import cli

        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 2_000.0
        raw["plant"] = {"kp": 1e308, "command_limit": 1e308,
                        "circle_radius_m": 10.0}
        path = tmp_path / "kp.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out",
                         str(out)]) == 0
        assert "unstable at" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stability"] == "unstable"
        assert math.isfinite(summary["max_tracking_error_m"])
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        cells = [c for row in rows for c in row.split(",")[3:]]
        assert cells and all(math.isfinite(float(c)) for c in cells)

    def test_overflowing_command_norm_is_clamped(self, tmp_path, capsys):
        # kp * error stays finite but its norm overflows; the clamp must
        # not turn the command into zero and let the plant coast
        from uavqos import cli

        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 2_000.0
        raw["plant"] = {"kp": 1e300, "command_limit": 1e308,
                        "circle_radius_m": 10.0}
        path = tmp_path / "kp.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out",
                         str(out)]) == 0
        assert "unstable at" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stability"] == "unstable"

    def test_illegal_transition_exits_2(self, tmp_path, monkeypatch, capsys):
        # a guard that steps q1 -> qA, outside the successor table, is a
        # contract violation: exit 2 with one line, not a traceback
        from uavqos import cli

        guard = fsm._guard
        monkeypatch.setattr(fsm, "_guard", lambda state, *rest: fsm.QA
                            if state == fsm.Q1 else guard(state, *rest))
        raw = raw_scenario("dynamic_qos_bg")
        raw["duration_ms"] = 1_000.0
        path = tmp_path / "dyn.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "contract violation: illegal transition q1 -> qA ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_run_rejects_non_finite_number_with_path(self, tmp_path):
        nan = tmp_path / "nan.yaml"
        text = builtin_config_path("no_qos_no_bg").read_text()
        nan.write_text(text.replace("duration_ms: 120000.0",
                                    "duration_ms: 1000.0")
                       .replace("capacity_bps: 81300000.0",
                                "capacity_bps: .nan"))
        r = self.cli("run", "--config", str(nan))
        assert r.returncode == 1
        assert "config error: nan.yaml.uplink.capacity_bps: must be " \
            "finite" in r.stderr
