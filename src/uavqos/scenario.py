"""Declarative scenario configuration.

A scenario is a YAML document with nested sections mirroring the dataclass
tree below; the engine reads these types as they are. One generic loader
applies defaults, rejects unknown keys and non-finite numbers, checks the
bounds declared in field metadata and the rules that relate one field to
another, and reports violations with the offending key path. It is the
only validator: the runtime trusts a loaded config and does not re-check
it.
"""

from __future__ import annotations

import functools
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

CBR_FRAMES = "cbr_frames"
PERIODIC_SMALL = "periodic_small"
ONOFF_BACKGROUND = "onoff_background"

QOS_MODES = ("never", "always", "dynamic")

BUILTIN_SCENARIOS = ("no_qos_no_bg", "no_qos_bg", "priority_qos_bg",
                     "dynamic_qos_bg")


class ConfigError(Exception):
    """Configuration rejected; the message carries the key path."""


# per-field bounds, read by the loader from field metadata
POSITIVE = {"check": (lambda v: v > 0, "must be positive")}
NON_NEGATIVE = {"check": (lambda v: v >= 0, "must be non-negative")}
UNIT_INTERVAL = {"check": (lambda v: 0 < v < 1, "must lie in (0, 1)")}
WEIGHT = {"check": (lambda v: 0 <= v <= 1, "must lie in [0, 1]")}
NON_EMPTY = {"check": (len, "must not be empty")}
# a SourceConfig key that only one kind of source reads
FRAMES_ONLY = {"read_by": CBR_FRAMES}
BACKGROUND_ONLY = {"read_by": ONOFF_BACKGROUND}


def _one_of(*choices):
    return {"check": (lambda v: v in choices, f"must be one of {choices}")}


@dataclass
class LinkConfig:
    """Static description of one link direction.

    capacity_bps : line rate in bits/s
    tti_ms       : scheduler allocation period in ms
    base_delay_ms: one-way propagation + core delay applied after service
    buffer_cap_bits: optional per-flow cap; excess enqueues are tail-dropped
    """

    capacity_bps: float = field(metadata=POSITIVE)
    tti_ms: float = field(default=0.5, metadata=POSITIVE)
    base_delay_ms: float = field(default=13.65, metadata=NON_NEGATIVE)
    buffer_cap_bits: Optional[float] = field(default=None, metadata=POSITIVE)

    @property
    def tti_budget_bits(self) -> float:
        return self.capacity_bps * self.tti_ms / 1000.0


@dataclass
class SigmoidParams:
    """Logistic transition-probability curve.

    steepness : curve slope (1/stimulus-unit)
    midpoint  : stimulus value at which the probability crosses 0.5
    """

    steepness: float = field(metadata=POSITIVE)
    midpoint: float


@dataclass
class ControllerConfig:
    """The edge PD controller, running every `period_ms`, with gains `kp`
    (1/s^2) and `kd` (1/s) and a Euclidean clamp `command_limit` (m/s^2);
    the plant's integration step; and the mission reference circle
    (`CircularReference`)."""

    period_ms: float = field(default=50.0, metadata=POSITIVE)
    kp: float = field(default=4.0, metadata=POSITIVE)
    kd: float = field(default=3.0, metadata=POSITIVE)
    command_limit: float = field(default=5.0, metadata=POSITIVE)
    plant_dt_ms: float = field(default=10.0, metadata=POSITIVE)
    divergence_threshold_m: float = field(default=10.0, metadata=POSITIVE)
    circle_radius_m: float = field(default=1.0, metadata=POSITIVE)
    circle_period_s: float = field(default=20.0, metadata=POSITIVE)
    circle_altitude_m: float = field(default=1.0, metadata=POSITIVE)


@dataclass
class SourceConfig:
    kind: str = field(metadata=_one_of(CBR_FRAMES, PERIODIC_SMALL,
                                       ONOFF_BACKGROUND))
    rate_bps: float = field(metadata=POSITIVE)
    frame_hz: float = field(default=30.0, metadata={**POSITIVE,
                                                    **FRAMES_ONLY})
    packet_bits: int = field(default=12_000, metadata=POSITIVE)
    active_window_ms: Optional[tuple[float, float]] = field(
        default=None, metadata=BACKGROUND_ONLY)
    floor_bps: float = field(default=5e6, metadata={**POSITIVE,
                                                    **FRAMES_ONLY})


@dataclass
class PfsmConfig:
    cam_sigmoid: SigmoidParams = field(
        default_factory=lambda: SigmoidParams(3.0, 61.0))
    cc_sigmoid: SigmoidParams = field(
        default_factory=lambda: SigmoidParams(5.0, 27.0))
    risk_sigmoid: SigmoidParams = field(
        default_factory=lambda: SigmoidParams(5.0, 3.0))
    cam_weight: float = field(default=0.35, metadata=WEIGHT)
    cc_weight: float = field(default=0.65, metadata=WEIGHT)
    cam_window: int = field(default=10, metadata=POSITIVE)
    cc_window: int = field(default=50, metadata=POSITIVE)
    latency_threshold: float = field(default=0.75, metadata=UNIT_INTERVAL)
    clutter_threshold: float = field(default=0.5, metadata=UNIT_INTERVAL)
    ema_alpha: float = field(default=0.8, metadata=WEIGHT)
    ema_beta: float = field(default=0.2, metadata=WEIGHT)
    eval_period_ms: float = field(default=100.0, metadata=POSITIVE)
    hl_persist_evals: int = field(default=2, metadata=POSITIVE)
    escalation_grace_evals: int = field(default=10, metadata=NON_NEGATIVE)
    link_lost_timeout_ms: float = field(default=500.0, metadata=POSITIVE)
    rate_adapt_period_ms: float = field(default=1000.0, metadata=POSITIVE)
    rate_adapt_factor: float = field(default=0.8, metadata=UNIT_INTERVAL)
    rate_floor_bps: float = field(default=5e6, metadata=POSITIVE)
    qos_slope: float = field(default=8.0, metadata=POSITIVE)
    default_slope: float = field(default=1.0, metadata=POSITIVE)
    mode: str = field(default="deterministic",
                      metadata=_one_of("deterministic", "stochastic"))


@dataclass
class EnvironmentSegment:
    spaciousness_m: float = field(metadata=POSITIVE)
    until_ms: float = field(default=math.inf, metadata=POSITIVE)
    noise_std: float = field(default=0.0, metadata=NON_NEGATIVE)


@dataclass
class ScenarioConfig:
    name: str
    duration_ms: float = field(metadata=POSITIVE)
    qos: str = field(metadata=_one_of(*QOS_MODES))
    uplink: LinkConfig
    downlink: LinkConfig
    uav_sources: list[SourceConfig] = field(metadata=NON_EMPTY)
    background: Optional[SourceConfig] = None
    seed: int = field(default=0, metadata=NON_NEGATIVE)
    reporting_interval_ms: float = field(default=100.0, metadata=POSITIVE)
    command_packet_bits: int = field(default=2000, metadata=POSITIVE)
    jitter_ms: float = field(default=0.0, metadata=NON_NEGATIVE)
    pfsm: PfsmConfig = field(default_factory=PfsmConfig)
    environment: list[EnvironmentSegment] = field(
        default_factory=lambda: [EnvironmentSegment(spaciousness_m=10.0)],
        metadata=NON_EMPTY)
    plant: ControllerConfig = field(default_factory=ControllerConfig)
    link_outages_ms: list[tuple[float, float]] = field(default_factory=list)

    @property
    def camera(self) -> Optional[SourceConfig]:
        for s in self.uav_sources:
            if s.kind == CBR_FRAMES:
                return s
        return None

    @property
    def control(self) -> SourceConfig:
        for s in self.uav_sources:
            if s.kind == PERIODIC_SMALL:
                return s
        raise ConfigError("uav_sources: a periodic_small control source "
                          "is required")


def _check_source_keys(src: SourceConfig, path: str):
    """A key that only another kind of source reads must keep its
    default: the engine would ignore it."""
    for f in fields(src):
        owner = f.metadata.get("read_by", src.kind)
        if owner != src.kind and getattr(src, f.name) != f.default:
            raise ConfigError(f"{path}.{f.name}: read only by {owner} "
                              f"sources, not by {src.kind}")


def _check_scenario(cfg: ScenarioConfig, label: str):
    """The rules that relate one field to another."""
    pf = cfg.pfsm
    if pf.cam_weight + pf.cc_weight != 1.0:
        raise ConfigError(f"{label}.pfsm: cam_weight + cc_weight must equal "
                          f"1, got {pf.cam_weight} + {pf.cc_weight}")
    if pf.ema_alpha + pf.ema_beta != 1.0:
        raise ConfigError(f"{label}.pfsm: ema_alpha + ema_beta must equal 1")
    untils = [s.until_ms for s in cfg.environment]
    if untils != sorted(untils):
        raise ConfigError(f"{label}.environment: segments must be ordered "
                          "by until_ms")
    for i, src in enumerate(cfg.uav_sources):
        if src.kind == ONOFF_BACKGROUND:     # the engine would drop it
            raise ConfigError(f"{label}.uav_sources[{i}].kind: "
                              f"{ONOFF_BACKGROUND} belongs under background")
        if src.kind == CBR_FRAMES and src is not cfg.camera:
            raise ConfigError(f"{label}.uav_sources[{i}]: at most one "
                              "cbr_frames camera source is supported")
        if src.kind == PERIODIC_SMALL and src.rate_bps < src.packet_bits:
            raise ConfigError(f"{label}.uav_sources[{i}]: periodic rate "
                              "below one packet per second")
        _check_source_keys(src, f"{label}.uav_sources[{i}]")
    if sum(s.kind == PERIODIC_SMALL for s in cfg.uav_sources) != 1:
        raise ConfigError(f"{label}.uav_sources: exactly one periodic_small "
                          "control source is required")
    if cfg.background is not None:
        if cfg.background.kind != ONOFF_BACKGROUND:
            raise ConfigError(f"{label}.background.kind: must be "
                              f"{ONOFF_BACKGROUND}")
        if cfg.background.active_window_ms is None:
            raise ConfigError(f"{label}.background.active_window_ms: "
                              "required for background traffic")
        _check_source_keys(cfg.background, f"{label}.background")
    # a wider draw could stamp an arrival before its packet's departure
    base = min(cfg.uplink.base_delay_ms, cfg.downlink.base_delay_ms)
    if cfg.jitter_ms > base:
        raise ConfigError(f"{label}.jitter_ms: must not exceed the smaller "
                          f"base delay ({base} ms), got {cfg.jitter_ms}")
    if not math.isfinite(2 * cfg.jitter_ms):
        raise ConfigError(f"{label}.jitter_ms: 2 * jitter_ms, the span of "
                          f"each draw, must be finite, got {cfg.jitter_ms}")
    # the cell steps both directions at the uplink TTI
    if cfg.downlink.tti_ms != cfg.uplink.tti_ms:
        raise ConfigError(f"{label}.downlink.tti_ms: must equal "
                          f"uplink.tti_ms {cfg.uplink.tti_ms}, "
                          f"got {cfg.downlink.tti_ms}")
    # the engine counts every length below in whole uplink TTIs
    for key, period in (("duration_ms", cfg.duration_ms),
                        ("reporting_interval_ms", cfg.reporting_interval_ms),
                        ("pfsm.eval_period_ms", pf.eval_period_ms),
                        ("plant.plant_dt_ms", cfg.plant.plant_dt_ms),
                        ("plant.period_ms", cfg.plant.period_ms)):
        ticks = period / cfg.uplink.tti_ms
        if not 0.5 < ticks < 2 ** 63 or abs(ticks - round(ticks)) > 1e-9:
            raise ConfigError(f"{label}.{key}: {period} ms must be a whole "
                              f"number of TTIs ({cfg.uplink.tti_ms} ms), "
                              "from 1 to 2**63")
    # the mission reference's phase, omega * t, must stay finite
    if not math.isfinite(2.0 * math.pi / cfg.plant.circle_period_s
                         * cfg.duration_ms):
        raise ConfigError(f"{label}.plant.circle_period_s: "
                          f"{cfg.plant.circle_period_s} s is too short")
    cam = cfg.camera
    # rate adaptation may lower the camera to its floor
    if cam is not None and not 0.5 < min(cam.rate_bps, cam.floor_bps) \
            / cam.frame_hz < 2 ** 63:
        raise ConfigError(f"{label}.uav_sources"
                          f"[{cfg.uav_sources.index(cam)}]: a frame of "
                          "min(rate_bps, floor_bps) / frame_hz rounds to "
                          "0 bits or to 2**63 bits or more")
    _check_offered_bits(cfg, label)
    if cfg.qos == "dynamic" and cam is None:
        raise ConfigError(f"{label}.uav_sources: dynamic QoS requires a "
                          "cbr_frames camera source (rate adaptation target)")
    if cfg.qos == "dynamic" and pf.rate_floor_bps > cam.rate_bps:
        raise ConfigError(f"{label}.pfsm.rate_floor_bps: must not exceed "
                          f"the camera rate_bps {cam.rate_bps}")
    # the camera clamps each adapted rate up to its own floor
    if cfg.qos == "dynamic" and cam.floor_bps > cam.rate_bps:
        raise ConfigError(f"{label}.uav_sources"
                          f"[{cfg.uav_sources.index(cam)}].floor_bps: must "
                          f"not exceed the camera rate_bps {cam.rate_bps}")


def _offered_bits(src: SourceConfig, span_ms: float) -> float:
    """An upper bound on the bits `src` emits in `span_ms`: one more than
    the packets (a camera: frames) that start in it, each of the largest
    size the source can reach. Rate adaptation never lifts a camera above
    its `rate_bps`: it runs only under `qos: dynamic`, where the floor may
    not exceed that rate."""
    if src.kind == CBR_FRAMES:
        return (span_ms * src.frame_hz / 1000.0 + 1.0) * \
            (src.rate_bps / src.frame_hz + 0.5)
    return (span_ms * src.rate_bps / src.packet_bits / 1000.0 + 1.0) * \
        src.packet_bits


def _check_offered_bits(cfg: ScenarioConfig, label: str):
    """Every flow's bit counters must stay exact integers, so the bits its
    sources can offer over the run must stay below 2**53. The platform
    flow carries the uav sources, the background flow the background, and
    the command flow one command per control packet."""
    uav = {}
    for i, src in enumerate(cfg.uav_sources):
        uav[f"uav_sources[{i}].rate_bps"] = _offered_bits(src, cfg.duration_ms)
    ctrl = cfg.control
    commands = _offered_bits(ctrl, cfg.duration_ms) / ctrl.packet_bits
    flows = [uav, {"command_packet_bits": commands * cfg.command_packet_bits}]
    bg = cfg.background
    if bg is not None:
        start, stop = bg.active_window_ms
        span = max(min(stop, cfg.duration_ms) - start, 0.0)
        flows.append({"background.rate_bps": _offered_bits(bg, span)})
    for offered in flows:
        total = sum(offered.values())
        if not total < 2 ** 53:
            key = max(offered, key=offered.get)
            raise ConfigError(f"{label}.{key}: the flow's sources offer up "
                              f"to {total:.4g} bits over the run, which "
                              "must stay below 2**53")


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (field, resolved type) of dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


def _build(cls, data, path: str):
    """An instance of dataclass `cls` from the mapping `data`; a key set to
    null counts as absent."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping, "
                          f"got {type(data).__name__}")
    schema = _schema(cls)
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown keys "
                          f"{sorted(unknown, key=str)}")
    kwargs = {}
    for name, (f, tp) in schema.items():
        key = f"{path}.{name}"
        if data.get(name) is None:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{key}: required key missing")
            continue
        value = _value(tp, data[name], key)
        test, rule = f.metadata.get("check", (None, None))
        if test is not None and not test(value):
            raise ConfigError(f"{key}: {rule}, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


def _value(tp, value, path: str):
    """`value` read as type `tp`: a dataclass, list, Optional, [start, end]
    window, str, or a finite int or float."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        return _value(args[0], value, path)     # Optional[X]
    if is_dataclass(tp):
        return _build(tp, value, path)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list")
        return [_value(args[0], v, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"{path}: expected [start_ms, end_ms]")
        start, end = (_value(float, v, path) for v in value)
        if not 0 <= start < end:
            raise ConfigError(f"{path}: window must satisfy "
                              f"0 <= start < end, got [{start}, {end}]")
        return (start, end)
    if tp is str:
        return str(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:    # NaN, inf, or a huge int
        raise ConfigError(f"{path}: must be finite, got {value}")
    if tp is int and not abs(value) < 2 ** 63:
        raise ConfigError(f"{path}: must fit in 64 bits, got {value}")
    if tp is int and value != int(value):
        raise ConfigError(f"{path}: must be a whole number, got {value}")
    return tp(value)


def parse_config(data: dict, label: str = "config") -> ScenarioConfig:
    cfg = _build(ScenarioConfig, data, label)
    _check_scenario(cfg, label)
    return cfg


def builtin_config_path(name: str) -> Path:
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown bundled scenario {name!r}; "
                          f"available: {', '.join(BUILTIN_SCENARIOS)}")
    return Path(str(resources.files("uavqos") / "configs" / f"{name}.yaml"))


def read_config(name_or_path) -> tuple[dict, Path]:
    """The raw mapping of a scenario file (a path, or a bundled name when no
    such file exists) and the file's path; nothing is validated yet."""
    path = Path(name_or_path)
    if not path.exists() and str(name_or_path) in BUILTIN_SCENARIOS:
        path = builtin_config_path(str(name_or_path))
    if not path.exists():
        raise ConfigError(f"{name_or_path}: no such config file and not a "
                          f"bundled scenario ({', '.join(BUILTIN_SCENARIOS)})")
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw, path


def load_config(path) -> ScenarioConfig:
    """Load and validate a scenario file (bundled name or filesystem path)."""
    raw, path = read_config(path)
    return parse_config(raw, label=path.name)
