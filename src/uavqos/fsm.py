"""QoS-selection state machine.

Seven states walk a fixed successor table: offloading without priority
(q1), priority engaged proactively for high risk (q2) or reactively for
high latency (q3), rate adaptation without priority (q4), priority plus
rate adaptation (q5, q6 - distinguished only by how they were entered),
and full onboard autonomy (qA). Input signals pair one latency flag
(LL/HL) with one risk flag (LR/MR/HR) plus an independent link-loss flag.

Escalation from a priority state to rate adaptation requires the high
latency flag to persist across consecutive evaluations and a grace period
after priority engagement, so the sliding latency windows get a chance to
flush the pre-engagement samples before the machine concludes that
priority alone was insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sensing import HIGH_RISK, LOW_RISK, MIDDLE_RISK

Q1, Q2, Q3, Q4, Q5, Q6, QA = "q1", "q2", "q3", "q4", "q5", "q6", "qA"
STATES = (Q1, Q2, Q3, Q4, Q5, Q6, QA)

LOW_LATENCY = "LL"
HIGH_LATENCY = "HL"
LINK_LOST = "LINK_LOST"

DETERMINISTIC = "deterministic"
STOCHASTIC = "stochastic"

RISK_FLAGS = (LOW_RISK, MIDDLE_RISK, HIGH_RISK)
LATENCY_FLAGS = (LOW_LATENCY, HIGH_LATENCY)

# State -> allowed successor set, kept verbatim (q5 deliberately cannot
# reach q6 even though q4 can).
SUCCESSORS = {
    Q1: frozenset({Q1, Q2, Q3, Q4}),
    Q2: frozenset({Q1, Q2, Q5}),
    Q3: frozenset({Q1, Q3, Q5, Q6}),
    Q4: frozenset({Q1, Q4, Q6, QA}),
    Q5: frozenset({Q5, Q1, QA}),
    Q6: frozenset({Q6, Q1, QA}),
    QA: frozenset({QA, Q1}),
}


class TransitionFault(Exception):
    """A (state, signals) pair fell outside the guard map."""

    def __init__(self, state, signals, message):
        super().__init__(f"{message} (state={state}, signals={signals})")
        self.state = state
        self.signals = signals


@dataclass(frozen=True)
class SignalSet:
    """One evaluation's input flags.

    Exactly one latency flag, exactly one risk flag, link loss independent.
    """

    latency: str
    risk: str
    link_lost: bool = False

    def __post_init__(self):
        if self.latency not in LATENCY_FLAGS:
            raise ValueError(f"latency flag must be one of {LATENCY_FLAGS}")
        if self.risk not in RISK_FLAGS:
            raise ValueError(f"risk flag must be one of {RISK_FLAGS}")

    @property
    def flags(self) -> frozenset:
        out = {self.latency, self.risk}
        if self.link_lost:
            out.add(LINK_LOST)
        return frozenset(out)

    def __str__(self):
        return "|".join(sorted(self.flags))


@dataclass(frozen=True)
class ActionCommand:
    """What the current state asks the platform to do."""

    qos_enabled: bool
    rate_adaptation: bool
    offload: bool

    def __post_init__(self):
        if self.rate_adaptation and not self.offload:
            raise ValueError("rate adaptation only applies while offloading")


# action column of the state table
_ACTIONS = {
    Q1: ActionCommand(qos_enabled=False, rate_adaptation=False, offload=True),
    Q2: ActionCommand(qos_enabled=True, rate_adaptation=False, offload=True),
    Q3: ActionCommand(qos_enabled=True, rate_adaptation=False, offload=True),
    Q4: ActionCommand(qos_enabled=False, rate_adaptation=True, offload=True),
    Q5: ActionCommand(qos_enabled=True, rate_adaptation=True, offload=True),
    Q6: ActionCommand(qos_enabled=True, rate_adaptation=True, offload=True),
    QA: ActionCommand(qos_enabled=False, rate_adaptation=False, offload=False),
}


def _guard(state, sig, hl_persistent, escalate_ok, at_rate_floor):
    hl = sig.latency == HIGH_LATENCY
    ll = not hl
    if state == Q1:
        if sig.link_lost:
            return Q4
        if sig.risk == HIGH_RISK:
            return Q2
        if hl and sig.risk == MIDDLE_RISK:
            return Q3
        if hl:   # LR
            return Q4
        return Q1
    if state == Q2:
        if sig.link_lost:
            return Q5
        if hl and hl_persistent and escalate_ok:
            return Q5
        if ll and sig.risk != HIGH_RISK:
            return Q1
        return Q2
    if state == Q3:
        if sig.link_lost:
            return Q6 if sig.risk == HIGH_RISK else Q5
        if hl and hl_persistent and escalate_ok:
            return Q6 if sig.risk == HIGH_RISK else Q5
        if ll and sig.risk == LOW_RISK:
            return Q1
        return Q3
    if state == Q4:
        if sig.link_lost:
            return QA
        if at_rate_floor and hl:
            return QA
        if ll:
            return Q1
        if hl_persistent:
            return Q6
        return Q4
    if state in (Q5, Q6):
        if sig.link_lost:
            return QA
        if at_rate_floor and hl:
            return QA
        if ll:
            return Q1
        return state
    if state == QA:
        if not sig.link_lost and ll:
            return Q1
        return QA
    raise TransitionFault(state, sig, "unknown state")


def transition(current: str, signals: SignalSet, *,
               hl_persistent: bool = False, escalate_ok: bool = True,
               at_rate_floor: bool = False) -> str:
    """Next state for one evaluation, checked against `SUCCESSORS`.

    `hl_persistent` marks the high-latency flag as held across consecutive
    evaluations, `escalate_ok` that the post-engagement grace has elapsed,
    and `at_rate_floor` that rate adaptation has exhausted its range; the
    caller owns this context. An unknown state raises `TransitionFault`.
    """
    nxt = _guard(current, signals, hl_persistent, escalate_ok, at_rate_floor)
    if nxt not in SUCCESSORS[current]:
        raise TransitionFault(current, signals,
                              f"illegal transition to {nxt}")
    return nxt


def emit_signals(p_lat: float, risk_level: str, link_ok: bool,
                 th_lat: float, mode: str = DETERMINISTIC,
                 rng: Optional[np.random.Generator] = None) -> SignalSet:
    """Derive the transition signals from the latency probability.

    Deterministic mode thresholds the latency probability; stochastic mode
    asserts HL with probability p_lat through a seeded draw. The risk flag
    always comes from the band classification.
    """
    if not 0.0 <= p_lat <= 1.0:
        raise ValueError("latency probability must lie in [0, 1]")
    if mode == STOCHASTIC:
        if rng is None:
            raise ValueError("stochastic mode requires a random generator")
        hl = bool(rng.random() < p_lat)
    elif mode == DETERMINISTIC:
        hl = p_lat >= th_lat
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SignalSet(HIGH_LATENCY if hl else LOW_LATENCY, risk_level,
                     link_lost=not link_ok)


def rate_adapt_step(current_rate: float, nominal: float, floor: float,
                    adapting: bool, factor: float = 0.8) -> float:
    """One rate-adaptation period: shrink toward the floor while adapting,
    otherwise recover toward the nominal rate (callers gate recovery on the
    low-latency flag)."""
    if not 0.0 < factor < 1.0:
        raise ValueError("adaptation factor must lie in (0, 1)")
    if not floor <= nominal:
        raise ValueError("floor must not exceed the nominal rate")
    if adapting:
        return max(current_rate * factor, floor)
    return min(current_rate / factor, nominal)


@dataclass
class SupervisorEvent:
    """Outcome of one supervisor evaluation."""

    state_before: str
    state: str
    action: ActionCommand


class QosSupervisor:
    """Drives the state machine once per evaluation period on the signals
    the caller derived (`emit_signals`).

    Owns the context the pure transition function cannot: HL persistence
    across evaluations and the escalation grace after priority engagement;
    the caller reports the rate-floor condition.
    """

    def __init__(self, hl_persist_evals: int = 2,
                 escalation_grace_evals: int = 10):
        if hl_persist_evals < 1:
            raise ValueError("persistence must span at least one evaluation")
        self.state = Q1
        self.hl_persist_evals = hl_persist_evals
        self.escalation_grace_evals = escalation_grace_evals
        self._hl_run = 0                   # consecutive HL evaluations
        self._evals_since_qos: Optional[int] = None

    def evaluate(self, signals: SignalSet,
                 at_rate_floor: bool = False) -> SupervisorEvent:
        self._hl_run = self._hl_run + 1 \
            if signals.latency == HIGH_LATENCY else 0
        hl_persistent = self._hl_run >= self.hl_persist_evals
        if self._evals_since_qos is not None:
            self._evals_since_qos += 1
        escalate_ok = (self._evals_since_qos is not None
                       and self._evals_since_qos >= self.escalation_grace_evals)

        before = self.state
        nxt = transition(before, signals, hl_persistent=hl_persistent,
                         escalate_ok=escalate_ok, at_rate_floor=at_rate_floor)
        self.state = nxt

        action = _ACTIONS[nxt]
        if action.qos_enabled and self._evals_since_qos is None:
            self._evals_since_qos = 0
        elif not action.qos_enabled:
            self._evals_since_qos = None
        return SupervisorEvent(before, nxt, action)
