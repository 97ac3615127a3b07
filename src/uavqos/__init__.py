"""Closed-loop simulator for dynamic QoS flow selection on a 5G-connected
aerial platform: weighted resource-fair scheduling, latency/risk sensing,
a supervisory state machine, and a delayed control-loop plant proxy."""

from .cell import CellModel, FrameSource, PacedSource, PeriodicSource, \
    SimulationContractError
from .engine import RunSummary, Simulation, TraceRecord, run
from .fsm import ActionCommand, QosSupervisor, SignalSet, emit_signals, \
    rate_adapt_step, transition
from .output import emit
from .plant import CircularReference, controller_tick, \
    onboard_fallback_tick, plant_step
from .scenario import ConfigError, ControllerConfig, LinkConfig, \
    ScenarioConfig, SigmoidParams, builtin_config_path, load_config, \
    parse_config
from .scheduler import Packet, QosFlow, schedule_tti
from .sensing import clutter_prob, latency_condition, risk_update, \
    sigmoid_prob, spaciousness, synth_point_cloud, window_mean

__version__ = "0.1.0"
