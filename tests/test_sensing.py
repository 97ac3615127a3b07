"""Sensing unit and property tests.

Expected values are either trivial arithmetic or recomputed in-test with an
independent formulation (math.exp directly, brute-force loops over raw
samples, explicit EMA iteration).
"""

import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import raw_scenario
from uavqos.scenario import ConfigError, PfsmConfig, SigmoidParams, \
    parse_config
from uavqos.sensing import (
    N_POINTS,
    clutter_prob,
    latency_condition,
    risk_update,
    sigmoid_prob,
    spaciousness,
    synth_point_cloud,
    window_mean,
)

CAM = SigmoidParams(steepness=3.0, midpoint=61.0)
CC = SigmoidParams(steepness=5.0, midpoint=27.0)
CS = SigmoidParams(steepness=5.0, midpoint=3.0)


class TestSigmoid:
    def test_midpoint_is_half(self):
        assert sigmoid_prob(27.0, CC) == pytest.approx(0.5, abs=1e-12)

    @given(st.floats(0.1, 20.0), st.floats(-100.0, 100.0))
    def test_midpoint_property(self, steepness, midpoint):
        p = SigmoidParams(steepness, midpoint)
        assert sigmoid_prob(midpoint, p) == pytest.approx(0.5, abs=1e-12)

    def test_one_unit_above_midpoint(self):
        # 1 / (1 + e^-5), recomputed independently
        expected = 1.0 / (1.0 + math.exp(-5.0))
        assert sigmoid_prob(28.0, CC) == pytest.approx(expected, abs=1e-15)
        assert sigmoid_prob(28.0, CC) == pytest.approx(0.9933071490757153)

    @given(st.floats(24.0, 30.0), st.floats(24.0, 30.0))
    @example(29.999999999999996, 30.0)
    def test_strictly_increasing_where_resolvable(self, a, b):
        # p = 1 / d with d = 1 + e^x is rounded last in d, so two inputs
        # can give two doubles only if the gap times the curve's slope
        # moves p, relative to p, by more than one ulp of d relative to d;
        # one ulp of p alone is finer than that where p nears 1
        lo, hi = min(a, b), max(a, b)
        p_lo, p_hi = sigmoid_prob(lo, CC), sigmoid_prob(hi, CC)
        slope = CC.steepness * min(p_lo * (1.0 - p_lo), p_hi * (1.0 - p_hi))
        d = 1.0 + math.exp(CC.steepness * (CC.midpoint - hi))
        if (hi - lo) * slope / p_hi <= math.ulp(d) / d:
            return
        assert p_lo < p_hi

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone_globally(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert sigmoid_prob(lo, CC) <= sigmoid_prob(hi, CC)

    def test_saturates_cleanly(self):
        assert sigmoid_prob(1e9, CC) == 1.0
        assert sigmoid_prob(-1e9, CC) == 0.0


class TestClutterProb:
    def test_half_at_band_edge(self):
        assert clutter_prob(3.0, CS) == pytest.approx(0.5, abs=1e-12)

    def test_decreases_with_spaciousness(self):
        assert clutter_prob(2.0, CS) > 0.9
        assert clutter_prob(6.0, CS) < 1e-6

    @given(st.floats(0.0, 20.0))
    def test_above_threshold_iff_cluttered(self, s):
        assert (clutter_prob(s, CS) >= 0.5) == (s <= 3.0)


class TestWindowMean:
    def test_simple_mean(self):
        assert window_mean([10.0, 20.0, 30.0]) == 20.0

    def test_empty_returns_sentinel(self):
        assert window_mean([]) is None

    @given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=200),
           st.integers(1, 50))
    def test_equals_brute_force_slice_mean(self, samples, n):
        got = window_mean(deque(samples, maxlen=n))
        tail = samples[-n:]
        brute = sum(tail) / len(tail)
        assert got == brute   # exact, same arithmetic order

    @given(st.floats(-1e6, 1e6), st.integers(1, 100))
    def test_constant_stream_idempotent(self, c, n):
        assert window_mean([c] * n) == pytest.approx(c)


class TestLatencyCondition:
    # defaults: weights 0.35/0.65, the CAM and CC curves above
    PF = PfsmConfig()

    def test_fixed_point_at_half(self):
        assert latency_condition(61.0, 27.0, self.PF) == \
            pytest.approx(0.5, abs=1e-12)

    def test_paper_operating_point(self):
        # both sigmoids one unit steps above their midpoints
        expected = 0.35 / (1 + math.exp(-3.0 * 10)) \
            + 0.65 / (1 + math.exp(-5.0 * 10))
        assert latency_condition(71.0, 37.0, self.PF) == \
            pytest.approx(expected, abs=1e-15)
        assert latency_condition(71.0, 37.0, self.PF) > 0.99999

    @given(st.floats(0.0, 200.0), st.floats(0.0, 200.0))
    def test_convexity_bound(self, t1, t2):
        p1, p2 = sigmoid_prob(t1, CAM), sigmoid_prob(t2, CC)
        combined = latency_condition(t1, t2, self.PF)
        assert min(p1, p2) - 1e-12 <= combined <= max(p1, p2) + 1e-12


class TestSpaciousness:
    def test_sphere_of_constant_radius(self):
        ranges = synth_point_cloud(4.0, np.random.default_rng(0))
        assert len(ranges) == N_POINTS
        assert spaciousness(ranges) == pytest.approx(4.0, abs=1e-9)

    def test_axis_points(self):
        # (1, 0, 0), (0, 2, 0) and (0, 0, 3) seen from the origin
        assert spaciousness(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)

    def test_shifted_cube_matches_brute_force(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 1.0, size=(500, 3)) + np.array([10.0, 0.0, 0.0])
        center = np.array([0.5, 0.5, 0.5])
        ranges = np.array([math.dist(p, center) for p in pts])
        brute = sum(ranges.tolist()) / len(pts)
        assert spaciousness(ranges) == pytest.approx(brute, abs=1e-9)

    def test_noisy_ranges_match_per_point_draws(self):
        # near the wall, so the 1 cm floor binds for some points
        ranges = synth_point_cloud(0.3, np.random.default_rng(9), 0.5)
        rng = np.random.default_rng(9)
        reference = [max(0.3 + rng.normal(0.0, 0.5), 0.01)
                     for _ in range(N_POINTS)]
        assert ranges.tolist() == pytest.approx(reference, abs=1e-15)
        assert min(reference) == 0.01

    def test_synth_deterministic_per_seed(self):
        a = synth_point_cloud(3.0, np.random.default_rng(5), noise_std=0.5)
        b = synth_point_cloud(3.0, np.random.default_rng(5), noise_std=0.5)
        assert np.array_equal(a, b)


class TestRiskUpdate:
    # defaults: EMA 0.8/0.2
    PF = PfsmConfig()

    @given(st.floats(0.01, 0.99), st.floats(0.0, 50.0), st.floats(0.0, 50.0),
           st.integers(1, 60))
    @settings(max_examples=80)
    def test_geometric_contraction(self, alpha, s0, target, k):
        pf = PfsmConfig(ema_alpha=alpha, ema_beta=1.0 - alpha)
        s = s0
        for _ in range(k):
            s = risk_update(s, target, pf)
        assert abs(s - target) == pytest.approx(
            alpha ** k * abs(s0 - target), abs=1e-9 * max(1.0, s0, target))

    def test_seeded_by_first_sample(self):
        assert risk_update(None, 4.0, self.PF) == 4.0
        # the seed is a float, so later updates are float arithmetic
        assert type(risk_update(None, 4, self.PF)) is float

    def test_rejects_inconsistent_coefficients(self):
        # the loader owns the rule that the EMA coefficients sum to 1
        raw = raw_scenario("dynamic_qos_bg")
        raw["pfsm"]["ema_beta"] = 0.3
        with pytest.raises(ConfigError, match="ema_alpha"):
            parse_config(raw)
