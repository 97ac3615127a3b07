"""State machine structure and supervisor behavior tests."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavqos.fsm import (
    HIGH_LATENCY,
    LOW_LATENCY,
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    Q6,
    QA,
    STATES,
    STOCHASTIC,
    QosSupervisor,
    SignalSet,
    SUCCESSORS,
    TransitionFault,
    _ACTIONS,
    SupervisorEvent,
    emit_signals,
    rate_adapt_step,
    transition,
)
from uavqos.sensing import HIGH_RISK, LOW_RISK, MIDDLE_RISK


def sig(latency, risk, lost=False):
    return SignalSet(latency, risk, lost)


class DequeSupervisor:
    """Reference supervisor that keeps the last `hl_persist_evals` latency
    flags in a deque: HL persists when the deque is full and all HL."""

    def __init__(self, hl_persist_evals, escalation_grace_evals):
        self.state = Q1
        self.hl_persist_evals = hl_persist_evals
        self.escalation_grace_evals = escalation_grace_evals
        self.hl_history = deque(maxlen=hl_persist_evals)
        self.evals_since_qos = None

    def evaluate(self, signals, at_rate_floor=False):
        self.hl_history.append(signals.latency == HIGH_LATENCY)
        hl_persistent = (len(self.hl_history) == self.hl_persist_evals
                         and all(self.hl_history))
        if self.evals_since_qos is not None:
            self.evals_since_qos += 1
        escalate_ok = (self.evals_since_qos is not None
                       and self.evals_since_qos >= self.escalation_grace_evals)
        before = self.state
        self.state = transition(before, signals, hl_persistent=hl_persistent,
                                escalate_ok=escalate_ok,
                                at_rate_floor=at_rate_floor)
        action = _ACTIONS[self.state]
        if action.qos_enabled and self.evals_since_qos is None:
            self.evals_since_qos = 0
        elif not action.qos_enabled:
            self.evals_since_qos = None
        return SupervisorEvent(before, self.state, action)


class TestSuccessorTable:
    def test_frozen_topology(self):
        assert SUCCESSORS[Q1] == {Q1, Q2, Q3, Q4}
        assert SUCCESSORS[Q2] == {Q1, Q2, Q5}
        assert SUCCESSORS[Q3] == {Q1, Q3, Q5, Q6}
        assert SUCCESSORS[Q4] == {Q1, Q4, Q6, QA}
        assert SUCCESSORS[Q5] == {Q5, Q1, QA}
        assert SUCCESSORS[Q6] == {Q6, Q1, QA}
        assert SUCCESSORS[QA] == {QA, Q1}

    def test_q5_cannot_reach_q6(self):
        # the published asymmetry is preserved, q4 may reach q6 but q5 not
        assert Q6 not in SUCCESSORS[Q5]
        assert Q6 in SUCCESSORS[Q4]

    def test_guard_totality_within_successors(self):
        for state in STATES:
            for latency in (LOW_LATENCY, HIGH_LATENCY):
                for risk in (LOW_RISK, MIDDLE_RISK, HIGH_RISK):
                    for lost in (False, True):
                        for persistent in (False, True):
                            for ok in (False, True):
                                for floor in (False, True):
                                    nxt = transition(
                                        state, sig(latency, risk, lost),
                                        hl_persistent=persistent,
                                        escalate_ok=ok, at_rate_floor=floor)
                                    assert nxt in SUCCESSORS[state]


class TestActions:
    @pytest.mark.parametrize("state,qos,adapt,offload", [
        (Q1, False, False, True),
        (Q2, True, False, True),
        (Q3, True, False, True),
        (Q4, False, True, True),
        (Q5, True, True, True),
        (Q6, True, True, True),
        (QA, False, False, False),
    ])
    def test_action_table(self, state, qos, adapt, offload):
        a = _ACTIONS[state]
        assert (a.qos_enabled, a.rate_adaptation, a.offload) == \
            (qos, adapt, offload)

    def test_offload_false_only_in_autonomy(self):
        for state in STATES:
            assert _ACTIONS[state].offload == (state != QA)

    def test_unknown_state_is_structured_fault(self):
        sup = QosSupervisor()
        sup.state = "q9"
        with pytest.raises(TransitionFault):
            sup.evaluate(sig(LOW_LATENCY, LOW_RISK))


class TestSignalSet:
    def test_partitions_enforced(self):
        with pytest.raises(ValueError):
            SignalSet("HL", "XX")
        with pytest.raises(ValueError):
            SignalSet("??", "MR")

    def test_flags_rendering(self):
        s = SignalSet(HIGH_LATENCY, MIDDLE_RISK, link_lost=True)
        assert s.flags == {"HL", "MR", "LINK_LOST"}


class TestTransitions:
    def test_load_onset_under_middle_risk_engages_priority(self):
        assert transition(Q1, sig(HIGH_LATENCY, MIDDLE_RISK)) == Q3

    def test_quiet_self_loop(self):
        assert transition(Q1, sig(LOW_LATENCY, LOW_RISK)) == Q1

    def test_high_risk_is_proactive(self):
        assert transition(Q1, sig(LOW_LATENCY, HIGH_RISK)) == Q2

    def test_high_latency_low_risk_adapts_without_priority(self):
        assert transition(Q1, sig(HIGH_LATENCY, LOW_RISK)) == Q4

    def test_q3_holds_under_middle_risk_when_latency_recovers(self):
        assert transition(Q3, sig(LOW_LATENCY, MIDDLE_RISK)) == Q3

    def test_q3_releases_priority_when_risk_clears(self):
        assert transition(Q3, sig(LOW_LATENCY, LOW_RISK)) == Q1

    def test_q3_escalates_only_with_persistence_and_grace(self):
        s = sig(HIGH_LATENCY, MIDDLE_RISK)
        assert transition(Q3, s, hl_persistent=False) == Q3
        assert transition(Q3, s, hl_persistent=True,
                          escalate_ok=False) == Q3
        assert transition(Q3, s, hl_persistent=True,
                          escalate_ok=True) == Q5

    def test_q3_escalation_targets_q6_under_high_risk(self):
        s = sig(HIGH_LATENCY, HIGH_RISK)
        assert transition(Q3, s, hl_persistent=True,
                          escalate_ok=True) == Q6

    def test_rate_floor_with_high_latency_falls_back(self):
        for state in (Q4, Q5, Q6):
            assert transition(state, sig(HIGH_LATENCY, MIDDLE_RISK),
                              at_rate_floor=True) == QA

    def test_unknown_state_raises(self):
        with pytest.raises(TransitionFault):
            transition("q0", sig(LOW_LATENCY, LOW_RISK))

    @pytest.mark.parametrize("start,max_steps", [
        (Q1, 2), (Q2, 2), (Q3, 2), (Q4, 1), (Q5, 1), (Q6, 1), (QA, 0)])
    def test_sustained_link_loss_reaches_autonomy(self, start, max_steps):
        state = start
        steps = 0
        while state != QA:
            state = transition(state, sig(LOW_LATENCY, MIDDLE_RISK,
                                          lost=True))
            steps += 1
            assert steps <= max_steps
        assert state == QA

    def test_autonomy_recovers_when_link_restored(self):
        assert transition(QA, sig(LOW_LATENCY, LOW_RISK)) == Q1
        assert transition(QA, sig(HIGH_LATENCY, LOW_RISK)) == QA
        assert transition(QA, sig(LOW_LATENCY, LOW_RISK, lost=True)) == QA


class TestEmitSignals:
    def test_deterministic_thresholding(self):
        s = emit_signals(0.99, MIDDLE_RISK, link_ok=True, th_lat=0.75)
        assert s.flags == {"HL", "MR"}
        s = emit_signals(0.01, LOW_RISK, link_ok=True, th_lat=0.75)
        assert s.flags == {"LL", "LR"}

    def test_link_loss_flag(self):
        s = emit_signals(0.5, LOW_RISK, link_ok=False, th_lat=0.75)
        assert s.link_lost

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            emit_signals(1.2, LOW_RISK, True, 0.5)

    def test_stochastic_frequency(self):
        rng = np.random.default_rng(1234)
        n = 100_000
        hits = sum(
            emit_signals(0.5, LOW_RISK, True, 0.75, STOCHASTIC,
                         rng).latency == HIGH_LATENCY
            for _ in range(n))
        assert hits / n == pytest.approx(0.5, abs=0.01)

    def test_stochastic_requires_rng(self):
        with pytest.raises(ValueError):
            emit_signals(0.5, LOW_RISK, True, 0.75, STOCHASTIC, None)


class TestRateAdaptStep:
    def test_reduction(self):
        assert rate_adapt_step(47e6, 47e6, 5e6, adapting=True) == \
            pytest.approx(37.6e6)

    def test_floor_clamp(self):
        assert rate_adapt_step(5e6, 47e6, 5e6, adapting=True) == 5e6

    def test_recovery_clamped_at_nominal(self):
        assert rate_adapt_step(37.6e6, 47e6, 5e6, adapting=False) == 47e6

    def test_floor_reached_in_eleven_reductions_from_nominal(self):
        # direct iteration: the 11th step is the first clamped at the floor
        rate = 47e6
        steps_to_floor = 0
        for n in range(1, 20):
            rate = rate_adapt_step(rate, 47e6, 5e6, adapting=True)
            if rate == 5e6:
                steps_to_floor = n
                break
        assert steps_to_floor == 11
        assert 47e6 * 0.8 ** 10 > 5e6 > 47e6 * 0.8 ** 11
        # further reductions are a no-op at the floor
        assert rate_adapt_step(rate, 47e6, 5e6, adapting=True) == 5e6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rate_adapt_step(1e6, 2e6, 5e6, True)
        with pytest.raises(ValueError):
            rate_adapt_step(1e6, 2e6, 0.5e6, True, factor=1.5)


class TestSupervisor:
    def make(self, **kw):
        return QosSupervisor(**kw)

    def test_rejects_unknown_mode(self):
        # the signal mode is checked where the signals are derived
        with pytest.raises(ValueError, match="unknown mode"):
            emit_signals(0.5, LOW_RISK, True, 0.75, mode="random")

    def test_mitigation_ordering_under_middle_risk(self):
        # a monotone-worsening latency trajectory must engage priority (q3)
        # before any rate-adaptation state
        sup = self.make(escalation_grace_evals=3)
        visited = [sup.state]
        for latency in [LOW_LATENCY] * 2 + [HIGH_LATENCY] * 7:
            ev = sup.evaluate(sig(latency, MIDDLE_RISK))
            visited.append(ev.state)
        assert Q3 in visited and Q5 in visited
        assert visited.index(Q3) < visited.index(Q5)

    def test_grace_protects_engagement_transient(self):
        sup = self.make(escalation_grace_evals=10)
        states = []
        # HL held for 8 evaluations after engagement, then clears: the
        # machine must ride it out in q3
        profile = [HIGH_LATENCY] * 9 + [LOW_LATENCY] * 4
        for latency in profile:
            states.append(sup.evaluate(sig(latency, MIDDLE_RISK)).state)
        assert set(states) == {Q3}

    def test_persistent_overload_escalates_after_grace(self):
        sup = self.make(escalation_grace_evals=5)
        last = None
        for _ in range(10):
            last = sup.evaluate(sig(HIGH_LATENCY, MIDDLE_RISK)).state
        assert last == Q5

    def test_link_loss_descends_to_autonomy_and_back(self):
        sup = self.make()
        sup.evaluate(sig(LOW_LATENCY, MIDDLE_RISK))
        assert sup.state == Q1
        sup.evaluate(sig(LOW_LATENCY, MIDDLE_RISK, lost=True))
        assert sup.state == Q4
        sup.evaluate(sig(LOW_LATENCY, MIDDLE_RISK, lost=True))
        assert sup.state == QA
        sup.evaluate(sig(LOW_LATENCY, LOW_RISK))
        assert sup.state == Q1

    def test_every_taken_transition_is_listed(self):
        rng = np.random.default_rng(99)
        sup = self.make(escalation_grace_evals=2)
        transitions = []
        for _ in range(500):
            ev = sup.evaluate(
                sig(HIGH_LATENCY if rng.random() >= 0.75 else LOW_LATENCY,
                    [LOW_RISK, MIDDLE_RISK, HIGH_RISK][rng.integers(3)],
                    lost=bool(rng.random() <= 0.05)),
                at_rate_floor=bool(rng.random() < 0.1))
            if ev.state != ev.state_before:
                transitions.append((ev.state_before, ev.state))
        assert transitions, "walk should move at least once"
        for before, after in transitions:
            assert after in SUCCESSORS[before]

    def test_deterministic_replay(self):
        def run():
            sup = self.make(escalation_grace_evals=4)
            rng = np.random.default_rng(7)
            out = []
            for _ in range(300):
                ev = sup.evaluate(emit_signals(float(rng.random()),
                                               MIDDLE_RISK, True, 0.75))
                out.append((ev.state, ev.action))
            return out

        assert run() == run()

    @given(st.integers(1, 5),
           st.lists(st.tuples(st.sampled_from([LOW_LATENCY, HIGH_LATENCY]),
                              st.sampled_from([LOW_RISK, MIDDLE_RISK,
                                               HIGH_RISK]),
                              st.booleans(), st.booleans()),
                    max_size=60))
    def test_hl_persistence_matches_deque_reference(self, persist, walk):
        sup = QosSupervisor(persist, escalation_grace_evals=0)
        ref = DequeSupervisor(persist, escalation_grace_evals=0)
        for latency, risk, lost, floor in walk:
            signals = sig(latency, risk, lost)
            assert sup.evaluate(signals, at_rate_floor=floor) == \
                ref.evaluate(signals, at_rate_floor=floor)
