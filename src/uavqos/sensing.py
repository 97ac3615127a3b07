"""Stimulus conditioning for the QoS supervisor.

Turns raw observations (per-frame camera delivery delay, control round-trip
samples, synthetic point clouds) into the probabilities and risk bands the
state machine consumes: logistic transition probabilities, sliding-window
latency means, a weighted latency condition, and an EMA-filtered
spaciousness estimate with high/middle/low risk bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

HIGH_RISK = "HR"
MIDDLE_RISK = "MR"
LOW_RISK = "LR"

# spaciousness (m) at or below which the risk is high, and middle
HR_THRESHOLD_M = 3.0
MR_THRESHOLD_M = 5.0


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


def window_mean(window) -> Optional[float]:
    """Mean of the samples held in `window`; None when empty."""
    if not window:
        return None
    return sum(window) / len(window)


def latency_condition(t1: float, t2: float, pf) -> float:
    """Convex combination of the camera and control latency probabilities,
    with the weights and curves of the PFSM config `pf`."""
    return (pf.cam_weight * sigmoid_prob(t1, pf.cam_sigmoid)
            + pf.cc_weight * sigmoid_prob(t2, pf.cc_sigmoid))


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
    """EMA-filtered spaciousness.

    alpha weighs the previous estimate, beta the fresh sample; they must sum
    to 1.
    """

    alpha: float = 0.8
    beta: float = 0.2
    s: Optional[float] = None

    def __post_init__(self):
        if self.alpha + self.beta != 1.0:
            raise ValueError("EMA coefficients must sum to 1")


def risk_update(state: RiskState, sample_s: float) -> tuple[RiskState, str]:
    """Fold one spaciousness sample into the EMA and classify the band:
    s <= HR_THRESHOLD_M is high risk, s <= MR_THRESHOLD_M middle risk,
    anything above is low risk.

    The filter is seeded with the first sample so startup does not fabricate
    a high-risk episode from an arbitrary initial value.
    """
    if state.s is None:
        state.s = float(sample_s)
    else:
        state.s = state.alpha * state.s + state.beta * sample_s
    if state.s <= HR_THRESHOLD_M:
        return state, HIGH_RISK
    if state.s <= MR_THRESHOLD_M:
        return state, MIDDLE_RISK
    return state, LOW_RISK
