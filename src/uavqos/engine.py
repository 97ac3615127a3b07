"""Closed-loop scenario engine.

One master clock at TTI resolution drives everything: traffic emission and
scheduling every tick, the plant at its integration step, the edge
controller at its own period, the QoS supervisor and trace reporting at
the evaluation period. A run is a pure function of (config, seed).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cell import (
    CellModel,
    FrameSource,
    PacedSource,
    PeriodicSource,
    SimulationContractError,
)
from .fsm import (
    LOW_LATENCY,
    LOW_RISK,
    Q1,
    Q3,
    STOCHASTIC,
    QosSupervisor,
    SignalSet,
    emit_signals,
    rate_adapt_step,
)
from .plant import (
    CircularReference,
    controller_tick,
    onboard_fallback_tick,
    plant_step,
)
from .scenario import ScenarioConfig
from .scheduler import (
    BACKGROUND,
    CAMERA,
    COMMAND,
    CONTROL_STATE,
    DOWNLINK,
    UPLINK,
)
from .sensing import (
    clutter_prob,
    latency_condition,
    risk_update,
    spaciousness,
    synth_point_cloud,
    window_mean,
)


@dataclass
class TraceRecord:
    """One reporting-interval row; field order fixes the CSV column order."""

    time: float            # ms
    state: str
    signals: str
    ul_buffer: float       # total uplink buffered bits
    rtt: float             # ms, mean of the interval's samples
    cam_latency: float     # ms, latest per-frame delivery delay
    cam_rate: float        # Mbps, camera source rate
    uav_goodput: float     # Mbps delivered over the interval
    bg_goodput: float      # Mbps delivered over the interval
    s_k: float             # m, filtered spaciousness
    P_lat: float
    P_cs: float
    tracking_error: float  # m


@dataclass
class PhaseSummary:
    start_ms: float
    end_ms: float
    state: str
    bg_active: bool
    mean_rtt_ms: float
    mean_uav_goodput_mbps: float
    mean_bg_goodput_mbps: float
    mean_cam_latency_ms: float


@dataclass
class RunSummary:
    name: str
    seed: int
    duration_ms: float
    phases: list[PhaseSummary]
    max_tracking_error_m: float
    state_dwell: dict[str, int]
    stability: str
    instability_time_ms: Optional[float]


class Simulation:
    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        # stream i is default_rng(seed).spawn(3)[i], built only when the
        # run draws from it, so a draw-free run never imports numpy.random
        draws = (any(seg.noise_std > 0 for seg in config.environment),
                 config.pfsm.mode == STOCHASTIC,
                 config.jitter_ms > 0)
        self.rng_env, self.rng_pfsm, self.rng_jitter = (
            np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(i,)))
            if draws_i else None
            for i, draws_i in enumerate(draws))

        self.cell = CellModel(config.uplink, config.downlink,
                              jitter_ms=config.jitter_ms,
                              jitter_rng=self.rng_jitter,
                              outages=config.link_outages_ms)

        pf = config.pfsm
        start_slope = pf.qos_slope if config.qos == "always" \
            else pf.default_slope
        self.uav_flow = self.cell.add_flow(UPLINK, start_slope)
        self.cmd_flow = self.cell.add_flow(DOWNLINK, 1.0)
        self.bg_flow = None
        if config.background is not None:
            self.bg_flow = self.cell.add_flow(UPLINK, pf.default_slope)
            self.cell.attach_source(
                PacedSource(config.background.rate_bps,
                            config.background.active_window_ms,
                            config.background.packet_bits), self.bg_flow)

        ctrl_cfg = config.control
        control_src = PeriodicSource(
            hz=ctrl_cfg.rate_bps / ctrl_cfg.packet_bits,
            packet_bits=ctrl_cfg.packet_bits,
            payload_fn=self._state_snapshot)
        self.cell.attach_source(control_src, self.uav_flow)
        self.camera = None
        if config.camera is not None:
            cam_cfg = config.camera
            self.camera = FrameSource(cam_cfg.rate_bps, cam_cfg.frame_hz,
                                      cam_cfg.packet_bits,
                                      floor_bps=cam_cfg.floor_bps)
            self.cell.attach_source(self.camera, self.uav_flow)

        pc = config.plant
        self.reference = CircularReference(pc.circle_radius_m,
                                           pc.circle_period_s,
                                           pc.circle_altitude_m)
        self.position = self.reference.position(0.0)
        self.velocity = self.reference.velocity(0.0)
        self.tracking_error = 0.0

        # latest per-frame camera delays and control round trips
        self.cam_window: deque[float] = deque(maxlen=pf.cam_window)
        self.cc_window: deque[float] = deque(maxlen=pf.cc_window)
        self.risk_s: Optional[float] = None     # filtered spaciousness
        self.supervisor = None
        if config.qos == "dynamic":
            self.supervisor = QosSupervisor(pf.hl_persist_evals,
                                            pf.escalation_grace_evals)

        # runtime state; a hold point exists only under onboard autonomy
        self.hold_point: Optional[np.ndarray] = None
        self.edge_state: Optional[tuple] = None
        self.edge_cmd = np.zeros(3)
        self.applied_cmd = np.zeros(3)
        self.last_rtt_arrival = 0.0
        self.cam_rate_req = config.camera.rate_bps if config.camera else 0.0
        self.rate_adapting = False         # direction of the rate steps
        self.next_rate_step_ms = 0.0
        self.diverged_at: Optional[float] = None
        self.max_tracking_error = 0.0
        self._bg_flushed = False
        self.p_lat = 0.0
        self.p_cs = 0.0
        self.signals = SignalSet(LOW_LATENCY, LOW_RISK)
        self.rtt_last = 0.0

    # -- callbacks -----------------------------------------------------

    def _state_snapshot(self, _due_ms):
        return (self.position, self.velocity)

    # -- per-phase helpers ----------------------------------------------

    def _static_state(self) -> str:
        if self.supervisor is not None:
            return self.supervisor.state
        return Q3 if self.cfg.qos == "always" else Q1

    def _environment_target(self, t_ms):
        for seg in self.cfg.environment:
            if t_ms < seg.until_ms:
                return seg
        return self.cfg.environment[-1]

    def _run_rate_adaptation(self, adapting: bool, low_latency: bool, t_ms):
        """Step the camera rate down while adapting, or back up while the
        latency is low, at most once per adaptation period; the first step
        after the direction flips is taken at once."""
        if adapting != self.rate_adapting:
            self.rate_adapting = adapting
            self.next_rate_step_ms = t_ms
        pf = self.cfg.pfsm
        nominal = self.cfg.camera.rate_bps
        recover = low_latency and self.hold_point is None and \
            self.cam_rate_req < nominal
        if t_ms < self.next_rate_step_ms or not (adapting or recover):
            return
        self.cam_rate_req = rate_adapt_step(
            self.cam_rate_req, nominal, pf.rate_floor_bps,
            adapting=adapting, factor=pf.rate_adapt_factor)
        self.camera.set_rate(self.cam_rate_req)
        self.next_rate_step_ms = t_ms + pf.rate_adapt_period_ms

    def _check_conservation(self, tick):
        for f in self.cell.flows.values():
            drift = f.enqueued_bits - (f.buffered_bits + f.delivered_bits
                                       + f.dropped_bits)
            if abs(drift) > 1.0:
                raise SimulationContractError(
                    f"bit conservation broke on flow {f.id} at tick {tick} "
                    f"(drift {drift} bits)")

    # -- main loop -------------------------------------------------------

    def run(self) -> tuple[list[TraceRecord], RunSummary]:
        cfg = self.cfg
        pf = cfg.pfsm
        tti = cfg.uplink.tti_ms
        n_ticks = int(round(cfg.duration_ms / tti))
        plant_every = int(round(cfg.plant.plant_dt_ms / tti))
        ctrl_every = int(round(cfg.plant.period_ms / tti))
        eval_every = int(round(pf.eval_period_ms / tti))
        report_every = int(round(cfg.reporting_interval_ms / tti))

        traces: list[TraceRecord] = []
        arrived = self.cell.arrived_bits
        # integer-valued bit totals below 2**53 (the loader bounds the
        # offered bits), so each interval's difference is exact
        reported_uav = reported_bg = 0.0
        interval_rtt_sum = 0.0
        interval_rtt_n = 0
        bg_window = cfg.background.active_window_ms if cfg.background else None

        for k in range(n_ticks):
            t = k * tti

            if k and k % plant_every == 0 and self.diverged_at is None:
                if self.hold_point is None:
                    ref = self.reference.position(t)
                    cmd = self.applied_cmd
                else:
                    ref = self.hold_point
                    cmd = onboard_fallback_tick(self.position, self.velocity,
                                                ref, cfg.plant)
                pos, vel = plant_step(self.position, self.velocity, cmd,
                                      cfg.plant.plant_dt_ms)
                error = float(np.linalg.norm(pos - ref))
                if math.isfinite(error):
                    self.position, self.velocity = pos, vel
                    self.tracking_error = error
                else:                   # hold the last finite state
                    self.diverged_at = t
                self.max_tracking_error = max(self.max_tracking_error,
                                              self.tracking_error)
                if self.tracking_error > cfg.plant.divergence_threshold_m:
                    self.diverged_at = t

            if k % ctrl_every == 0 and self.edge_state is not None:
                pos, vel = self.edge_state
                self.edge_cmd = controller_tick(
                    pos, vel, self.reference.position(t),
                    self.reference.velocity(t), cfg.plant)

            for arrival, pkt in self.cell.step():
                kind = pkt.kind
                if kind == COMMAND:
                    control, self.applied_cmd = pkt.payload
                    # the uplink leg (the command is created when the
                    # control packet arrives) plus the downlink leg
                    rtt = (pkt.created_at - control.created_at) + \
                        (arrival - pkt.created_at)
                    self.cc_window.append(rtt)
                    interval_rtt_sum += rtt
                    interval_rtt_n += 1
                    self.last_rtt_arrival = arrival
                elif kind == CONTROL_STATE:
                    self.edge_state = pkt.payload
                    self.cmd_flow.enqueue(self.cmd_flow.make_packet(
                        cfg.command_packet_bits, arrival, COMMAND,
                        (pkt, self.edge_cmd)))
                else:                               # a frame's last packet
                    self.cam_window.append(arrival - pkt.payload)

            t_end = (k + 1) * tti
            if (k + 1) % eval_every == 0:
                self._evaluate(t_end)
                if bg_window is not None and not self._bg_flushed and \
                        t_end > bg_window[1]:
                    self.bg_flow.flush()       # background user departs
                    self._bg_flushed = True

            if (k + 1) % report_every == 0:
                if interval_rtt_n:
                    self.rtt_last = interval_rtt_sum / interval_rtt_n
                scale = 1000.0 / cfg.reporting_interval_ms / 1e6
                uav_bits = arrived[CONTROL_STATE] + arrived[CAMERA]
                bg_bits = arrived[BACKGROUND]
                traces.append(TraceRecord(
                    time=t_end,
                    state=self._static_state(),
                    signals=str(self.signals),
                    ul_buffer=self.cell.buffered_bits(UPLINK),
                    rtt=self.rtt_last,
                    cam_latency=self.cam_window[-1]
                    if self.cam_window else 0.0,
                    cam_rate=(self.camera.rate_bps if self.camera else 0.0)
                    / 1e6,
                    uav_goodput=(uav_bits - reported_uav) * scale,
                    bg_goodput=(bg_bits - reported_bg) * scale,
                    s_k=self.risk_s if self.risk_s is not None else 0.0,
                    P_lat=self.p_lat,
                    P_cs=self.p_cs,
                    tracking_error=self.tracking_error,
                ))
                reported_uav, reported_bg = uav_bits, bg_bits
                interval_rtt_sum, interval_rtt_n = 0.0, 0
                self._check_conservation(k)

        summary = self._summarize(traces)
        return traces, summary

    def _evaluate(self, t):
        cfg = self.cfg
        pf = cfg.pfsm
        seg = self._environment_target(t)
        sample = spaciousness(synth_point_cloud(
            seg.spaciousness_m, self.rng_env, noise_std=seg.noise_std))
        self.risk_s = risk_update(self.risk_s, sample, pf)

        t1 = window_mean(self.cam_window)
        t2 = window_mean(self.cc_window)
        if t1 is not None and t2 is not None:
            self.p_lat = latency_condition(t1, t2, pf)
        self.p_cs = clutter_prob(self.risk_s, pf.risk_sigmoid)
        self.signals = emit_signals(self.p_lat, self.p_cs, self.risk_s,
                                    t - self.last_rtt_arrival, pf,
                                    self.rng_pfsm)
        if self.supervisor is None:
            return

        event = self.supervisor.evaluate(
            self.signals, at_rate_floor=self.cam_rate_req <= pf.rate_floor_bps)
        # the accumulated weight is kept; the next TTI grows it by the
        # new slope
        self.uav_flow.priority_slope = pf.qos_slope \
            if event.action.qos_enabled else pf.default_slope
        offload = event.action.offload
        if offload == (self.hold_point is not None):    # the mode flips
            self.camera.set_active(offload, t)
            if offload:
                self.hold_point = None
            else:
                self.hold_point = self.position
                self.uav_flow.flush()
        self._run_rate_adaptation(event.action.rate_adaptation,
                                  self.signals.latency == LOW_LATENCY, t)

    def _summarize(self, traces) -> RunSummary:
        cfg = self.cfg
        bg_window = cfg.background.active_window_ms if cfg.background else None

        def bg_active(t):
            return bg_window is not None and \
                bg_window[0] < t <= bg_window[1]

        phases: list[PhaseSummary] = []
        for (state, active), group in itertools.groupby(
                traces, lambda r: (r.state, bg_active(r.time))):
            group = list(group)
            n = len(group)
            phases.append(PhaseSummary(
                start_ms=group[0].time,
                end_ms=group[-1].time,
                state=state,
                bg_active=active,
                mean_rtt_ms=sum(r.rtt for r in group) / n,
                mean_uav_goodput_mbps=sum(r.uav_goodput for r in group) / n,
                mean_bg_goodput_mbps=sum(r.bg_goodput for r in group) / n,
                mean_cam_latency_ms=sum(r.cam_latency for r in group) / n,
            ))

        return RunSummary(
            name=cfg.name,
            seed=cfg.seed,
            duration_ms=cfg.duration_ms,
            phases=phases,
            max_tracking_error_m=self.max_tracking_error,
            state_dwell=dict(Counter(r.state for r in traces)),
            stability="unstable" if self.diverged_at is not None else "stable",
            instability_time_ms=self.diverged_at,
        )


def run(config: ScenarioConfig) -> tuple[list[TraceRecord], RunSummary]:
    """Execute one scenario; deterministic for a given (config, seed)."""
    return Simulation(config).run()
