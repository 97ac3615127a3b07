"""Stimulus conditioning for the QoS supervisor.

Turns raw observations (per-frame camera delivery delay, control round-trip
samples, synthetic point clouds) into the probabilities and risk bands the
state machine consumes: logistic transition probabilities, sliding-window
latency means, a weighted latency condition, and an EMA-filtered
spaciousness estimate with high/middle/low risk bands.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

HIGH_RISK = "HR"
MIDDLE_RISK = "MR"
LOW_RISK = "LR"


@dataclass
class SigmoidParams:
    """Logistic transition-probability curve.

    steepness : curve slope (1/stimulus-unit), must be positive
    midpoint  : stimulus value at which the probability crosses 0.5
    """

    steepness: float
    midpoint: float

    def __post_init__(self):
        if self.steepness <= 0:
            raise ValueError("steepness must be positive")


def sigmoid_prob(t: float, p: SigmoidParams) -> float:
    """Probability that stimulus `t` warrants a transition.

    1 / (1 + exp(steepness * (midpoint - t))); strictly increasing in t and
    numerically saturating at 0/1 for extreme arguments.
    """
    x = p.steepness * (p.midpoint - t)
    if x > 700.0:
        return 0.0
    if x < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


def clutter_prob(spaciousness_m: float, p: SigmoidParams) -> float:
    """Probability that the surrounding space is cluttered.

    Mirrors the logistic curve so the probability *decreases* with
    spaciousness: 0.5 at the midpoint (3 m), above threshold when closer.
    """
    return sigmoid_prob(2.0 * p.midpoint - spaciousness_m, p)


class LatencyWindows:
    """Ring buffers over the most recent latency samples of both streams.

    cam_len / cc_len fix the sliding-window sizes; cam_weight + cc_weight
    must equal 1 exactly (they form the convex latency condition).
    """

    def __init__(self, cam_len: int, cc_len: int,
                 cam_weight: float, cc_weight: float):
        if cam_len < 1 or cc_len < 1:
            raise ValueError("window sizes must be at least 1")
        if cam_weight + cc_weight != 1.0:
            raise ValueError("latency condition weights must sum to 1")
        self.cam_window: deque[float] = deque(maxlen=cam_len)
        self.cc_window: deque[float] = deque(maxlen=cc_len)
        self.cam_weight = cam_weight
        self.cc_weight = cc_weight

    def push_camera(self, latency_ms: float):
        self.cam_window.append(latency_ms)

    def push_control(self, latency_ms: float):
        self.cc_window.append(latency_ms)


def window_mean(window) -> Optional[float]:
    """Mean of the samples held in `window`; None when empty."""
    if not window:
        return None
    return sum(window) / len(window)


def latency_condition(t1: float, t2: float, windows: LatencyWindows,
                      cam_p: SigmoidParams, cc_p: SigmoidParams) -> float:
    """Convex combination of the camera and control latency probabilities."""
    return (windows.cam_weight * sigmoid_prob(t1, cam_p)
            + windows.cc_weight * sigmoid_prob(t2, cc_p))


@dataclass
class PointCloud:
    points: np.ndarray          # (n, 3) coordinates in metres
    center: np.ndarray          # drone centre of mass

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if not np.all(np.isfinite(self.points)) or \
                not np.all(np.isfinite(self.center)):
            raise ValueError("point cloud coordinates must be finite")


def spaciousness(cloud: PointCloud) -> Optional[float]:
    """Mean Euclidean distance from the drone centre to every point."""
    if cloud.points.size == 0:
        return None
    return float(np.linalg.norm(cloud.points - cloud.center, axis=1).mean())


def synth_point_cloud(target_s: float, center, rng: np.random.Generator,
                      n_points: int = 256, noise_std: float = 0.0) -> PointCloud:
    """Sphere of points around `center` whose mean distance is `target_s`.

    Directions are drawn uniformly on the unit sphere; optional Gaussian
    radial noise perturbs individual ranges without biasing the mean.
    """
    if target_s <= 0:
        raise ValueError("spaciousness target must be positive")
    dirs = rng.normal(size=(n_points, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.full(n_points, target_s)
    if noise_std > 0:
        radii = np.maximum(radii + rng.normal(0.0, noise_std, n_points), 0.01)
    center = np.asarray(center, dtype=float)
    return PointCloud(center + dirs * radii[:, None], center)


@dataclass
class RiskState:
    """EMA-filtered spaciousness plus the fixed risk bands.

    alpha weighs the previous estimate, beta the fresh sample; they must sum
    to 1. s <= hr_threshold is high risk, s <= mr_threshold middle risk,
    anything above is low risk.
    """

    alpha: float = 0.8
    beta: float = 0.2
    s: Optional[float] = None
    hr_threshold: float = 3.0
    mr_threshold: float = 5.0

    def __post_init__(self):
        if self.alpha + self.beta != 1.0:
            raise ValueError("EMA coefficients must sum to 1")
        if not self.hr_threshold < self.mr_threshold:
            raise ValueError("risk bands must be ordered")


def risk_level(state: RiskState) -> str:
    if state.s is None:
        return LOW_RISK
    if state.s <= state.hr_threshold:
        return HIGH_RISK
    if state.s <= state.mr_threshold:
        return MIDDLE_RISK
    return LOW_RISK


def risk_update(state: RiskState, sample_s: float) -> tuple[RiskState, str]:
    """Fold one spaciousness sample into the EMA and classify the band.

    The filter is seeded with the first sample so startup does not fabricate
    a high-risk episode from an arbitrary initial value.
    """
    if state.s is None:
        state.s = float(sample_s)
    else:
        state.s = state.alpha * state.s + state.beta * sample_s
    return state, risk_level(state)
