"""Plant and delayed-loop behavior tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import uavqos.engine
from conftest import raw_scenario
from uavqos.engine import Simulation, run
from uavqos.plant import (
    ControllerConfig,
    _clamp,
    controller_tick,
    onboard_fallback_tick,
    plant_step,
)
from uavqos.scenario import parse_config
from uavqos.scheduler import COMMAND, CONTROL_STATE

CFG = ControllerConfig()


class TestControllerTick:
    def test_zero_at_equilibrium(self):
        v = np.array([0.1, -0.2, 0.0])
        assert np.allclose(controller_tick(np.ones(3), v, np.ones(3), v, CFG),
                           0.0)

    def test_pd_on_offset(self):
        cmd = controller_tick(np.zeros(3), np.zeros(3),
                              np.array([0.5, 0.0, 0.0]),
                              np.array([0.0, 0.2, 0.0]), CFG)
        assert np.allclose(cmd, [CFG.kp * 0.5, CFG.kd * 0.2, 0.0])

    def test_clamped_to_command_limit(self):
        cmd = controller_tick(np.zeros(3), np.zeros(3),
                              np.array([100.0, 0.0, 0.0]), np.zeros(3), CFG)
        assert np.linalg.norm(cmd) == pytest.approx(CFG.command_limit)

    def test_clamp_survives_norm_overflow(self):
        # the squares overflow, the command itself is finite
        cmd = _clamp(np.array([1e300, 1e300, 0.0]), 5.0)
        assert np.linalg.norm(cmd) == pytest.approx(5.0)
        assert cmd == pytest.approx(np.array([1.0, 1.0, 0.0]) * 5.0
                                    / np.sqrt(2.0))

    def test_clamp_keeps_overflowing_command_below_limit(self):
        cmd = np.array([1e200, 0.0, 0.0])
        assert _clamp(cmd, 1e300) is cmd

    def test_holds_before_first_state(self, monkeypatch):
        # 200 ms each way: the first state reaches the edge after 200 ms,
        # its command comes back after 400 ms; until then the plant runs
        # on a zero command, and the controller only on states that came
        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 1_000.0
        raw["uplink"]["base_delay_ms"] = 200.0
        raw["downlink"]["base_delay_ms"] = 200.0
        sim = Simulation(parse_config(raw))
        first_state = []
        first_command = []
        real_step = sim.cell.step

        def step():
            delivered = real_step()
            for arrival, pkt in delivered:
                if pkt.kind == CONTROL_STATE and not first_state:
                    first_state.append(arrival)
                if pkt.kind == COMMAND and not first_command:
                    first_command.append(arrival)
            return delivered

        controller_at = []
        real_tick = uavqos.engine.controller_tick

        def tick(*args):
            controller_at.append(sim.cell.clock)
            return real_tick(*args)

        commands = []
        real_plant_step = uavqos.engine.plant_step

        def plant(position, velocity, cmd, dt_ms):
            commands.append((sim.cell.clock, cmd.copy()))
            return real_plant_step(position, velocity, cmd, dt_ms)

        monkeypatch.setattr(sim.cell, "step", step)
        monkeypatch.setattr(uavqos.engine, "controller_tick", tick)
        monkeypatch.setattr(uavqos.engine, "plant_step", plant)
        sim.run()
        assert 400.0 < first_command[0] < 1_000.0
        assert controller_at and min(controller_at) > first_state[0]
        before = [cmd for t, cmd in commands if t <= first_command[0]]
        after = [cmd for t, cmd in commands if t > first_command[0]]
        assert len(before) >= 40 and not np.any(before)
        assert any(np.any(cmd) for cmd in after)


class TestPlantStep:
    def test_rest_stays_at_rest(self):
        pos, _ = plant_step(np.array([1.0, 2.0, 3.0]), np.zeros(3),
                            np.zeros(3), 10.0)
        assert np.allclose(pos, [1.0, 2.0, 3.0])

    def test_constant_acceleration_kinematics(self):
        pos, vel = np.zeros(3), np.zeros(3)
        for _ in range(100):
            pos, vel = plant_step(pos, vel, np.array([1.0, 0.0, 0.0]), 10.0)
        assert vel[0] == pytest.approx(1.0)
        assert pos[0] == pytest.approx(0.5, abs=0.01)

    def test_tracking_error_recomputed(self):
        # 20 ms of no_qos_no_bg: one plant step, at 10 ms, on a zero
        # command from a state 1 m above the circle; the engine measures
        # the stepped state against the circle at that time
        raw = raw_scenario("no_qos_no_bg")
        raw["duration_ms"] = 20.0
        sim = Simulation(parse_config(raw))
        sim.position = sim.position + np.array([0.0, 0.0, 1.0])
        sim.run()
        assert sim.tracking_error == pytest.approx(1.0)


def delayed_run(base_delay_ms=None, duration_ms=30_000.0):
    """Summary of bundled no_qos_no_bg, shortened, with the one-way base
    delay of both directions replaced when given."""
    raw = raw_scenario("no_qos_no_bg")
    raw["duration_ms"] = duration_ms
    if base_delay_ms is not None:
        raw["uplink"]["base_delay_ms"] = base_delay_ms
        raw["downlink"]["base_delay_ms"] = base_delay_ms
    return run(parse_config(raw))[1]


class TestDelayedLoop:
    def test_bounded_tracking_at_nominal_rtt(self):
        summary = delayed_run()
        assert summary.stability == "stable"
        assert summary.max_tracking_error_m < 0.1

    def test_error_non_decreasing_in_rtt(self):
        errors = [delayed_run(d).max_tracking_error_m
                  for d in (13.65, 100.0, 250.0)]
        assert errors == sorted(errors)

    def test_divergence_beyond_margin(self):
        summary = delayed_run(500.0, duration_ms=60_000.0)
        assert summary.stability == "unstable"
        assert summary.instability_time_ms is not None


class TestOnboardFallback:
    def run_fallback(self, velocity, seconds=5.0):
        hold = np.array([1.0, 0.0, 1.0])
        pos = hold.copy()
        errors = []
        for _ in range(int(seconds * 100)):
            cmd = onboard_fallback_tick(pos, velocity, hold, CFG)
            pos, velocity = plant_step(pos, velocity, cmd, 10.0)
            errors.append(float(np.linalg.norm(pos - hold)))
        return errors

    def test_converges_from_moving_entry(self):
        # entering autonomy mid-maneuver at circle speed
        v = np.array([0.0, 2.0 * np.pi / 20.0, 0.0])
        errors = self.run_fallback(v)
        assert errors[-1] < 0.05
        assert all(e < 0.05 for e in errors[-100:])

    def test_zero_command_at_hold_point(self):
        assert np.allclose(onboard_fallback_tick(np.ones(3), np.zeros(3),
                                                 np.ones(3), CFG), 0.0)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
           st.floats(1e-3, 1e3))
    def test_is_the_pd_law_at_rest_reference(self, xs, kp, kd, limit):
        # the fallback's own closed form before it became the PD law; the
        # two can differ only in the sign of a zero, which == ignores
        pos, vel, hold = (np.array(xs[i:i + 3]) for i in (0, 3, 6))
        cfg = ControllerConfig(kp=kp, kd=kd, command_limit=limit)
        closed_form = _clamp(kp * (hold - pos) - kd * vel, limit)
        assert np.all(onboard_fallback_tick(pos, vel, hold, cfg)
                      == closed_form)
