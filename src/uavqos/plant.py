"""Delayed closed-loop plant proxy.

A double integrator per axis under a PD position controller stands in for
the offloaded optimizer: the controller only ever sees the state as it was
one uplink delay ago and its commands land one downlink delay later, so
round-trip latency maps directly onto tracking error and, past a margin,
onto divergence. There is one PD law: the onboard fallback that holds
position when offloading is abandoned is that law, undelayed, aimed at the
hold waypoint with zero reference velocity. The plant state is a pair of
arrays, (position, velocity).
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import ControllerConfig


def _clamp(command: np.ndarray, limit: float) -> np.ndarray:
    norm = float(np.linalg.norm(command))
    if math.isfinite(norm):
        return command * (limit / norm) if norm > limit else command
    # the sum of squares overflowed: measure the command in units of its
    # largest component, whose norm lies in [1, sqrt(3)]
    big = float(np.abs(command).max())
    unit = command / big
    unit_norm = float(np.linalg.norm(unit))
    if big > limit / unit_norm:
        return unit * (limit / unit_norm)
    return command


def controller_tick(position: np.ndarray, velocity: np.ndarray,
                    ref_position: np.ndarray, ref_velocity: np.ndarray,
                    config: ControllerConfig) -> np.ndarray:
    """PD command on the error of a delayed state against the planner's
    position and velocity at controller time, so damping acts on the
    velocity error rather than dragging against the motion."""
    cmd = config.kp * (ref_position - position) + \
        config.kd * (ref_velocity - velocity)
    return _clamp(cmd, config.command_limit)


_AT_REST = np.zeros(3)


def onboard_fallback_tick(position: np.ndarray, velocity: np.ndarray,
                          hold: np.ndarray,
                          config: ControllerConfig) -> np.ndarray:
    """Undelayed PD toward the hold waypoint, which stays put."""
    return controller_tick(position, velocity, hold, _AT_REST, config)


def plant_step(position: np.ndarray, velocity: np.ndarray,
               command: np.ndarray,
               dt_ms: float) -> tuple[np.ndarray, np.ndarray]:
    """Semi-implicit Euler update of the double integrator: the new
    (position, velocity)."""
    dt = dt_ms / 1000.0
    velocity = velocity + command * dt
    return position + velocity * dt, velocity


class CircularReference:
    """Planar circle of given radius and period at a fixed altitude."""

    def __init__(self, radius_m: float, period_s: float, altitude_m: float):
        self.radius = radius_m
        self.omega = 2.0 * math.pi / period_s
        self.altitude = altitude_m

    def position(self, t_ms: float) -> np.ndarray:
        th = self.omega * t_ms / 1000.0
        return np.array([self.radius * math.cos(th),
                         self.radius * math.sin(th), self.altitude])

    def velocity(self, t_ms: float) -> np.ndarray:
        th = self.omega * t_ms / 1000.0
        v = self.radius * self.omega
        return np.array([-v * math.sin(th), v * math.cos(th), 0.0])
