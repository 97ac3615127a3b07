"""Stimulus conditioning for the QoS supervisor.

Turns raw observations (per-frame camera delivery delay, control round-trip
samples, synthetic point clouds held as the ranges of their points) into
the numbers the state machine's signals are derived from: logistic
transition probabilities, sliding-window latency means, a weighted latency
condition, and an EMA-filtered spaciousness estimate with its clutter
probability.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .scenario import SigmoidParams

# points in one synthetic point cloud
N_POINTS = 256


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


def spaciousness(ranges: np.ndarray) -> float:
    """Mean distance (m) from the drone centre to the points of a cloud,
    given as their ranges."""
    return float(ranges.mean())


def synth_point_cloud(target_s: float, rng: np.random.Generator,
                      noise_std: float = 0.0) -> np.ndarray:
    """Ranges of N_POINTS points whose mean distance is `target_s`.

    Optional Gaussian noise perturbs each range without biasing the mean;
    a range never falls below 1 cm.
    """
    ranges = np.full(N_POINTS, float(target_s))
    if noise_std > 0:
        ranges = np.maximum(ranges + rng.normal(0.0, noise_std, N_POINTS),
                            0.01)
    return ranges


def risk_update(s: Optional[float], sample_s: float, pf) -> float:
    """Fold one spaciousness sample into the EMA `s` with the coefficients
    of the PFSM config `pf`.

    The filter is seeded with the first sample (`s` is None) so startup
    does not fabricate a high-risk episode from an arbitrary initial value.
    """
    if s is None:
        return float(sample_s)
    return pf.ema_alpha * s + pf.ema_beta * sample_s
