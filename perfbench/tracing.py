"""Per-layer timing from outside the program.

`LayerTracer.install` replaces the public functions and methods each
layer exposes with timing wrappers: the names the engine and the cell
import (``uavqos.engine.plant_step``, ``uavqos.cell.schedule_tti``, ...)
and the methods on the classes (``CellModel.step``, ``QosFlow.enqueue``,
...). A wrapper counts calls and adds up total and self time, where self
time is the call's duration minus the time spent in wrapped calls nested
inside it. The scheduler wrapper also reads the shape of each call from
its arguments: how many flows were backlogged and how many bits they held.

Wrapping every call roughly doubles the run time, so the split is for
attribution only; end-to-end figures come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

# layer -> [(module, class or None for a module-level name, attribute)]
SPANS = {
    "engine.run": [("uavqos.engine", "Simulation", "run")],
    "cell.step": [("uavqos.cell", "CellModel", "step")],
    "cell.emit": [("uavqos.cell", "FrameSource", "emit_until"),
                  ("uavqos.cell", "PeriodicSource", "emit_until"),
                  ("uavqos.cell", "PacedSource", "emit_until")],
    "cell.packet_build": [("uavqos.scheduler", "QosFlow", "make_packet"),
                          ("uavqos.scheduler", "QosFlow", "enqueue")],
    "scheduler": [("uavqos.cell", None, "schedule_tti")],
    "sensing": [("uavqos.engine", None, name) for name in (
        "synth_point_cloud", "spaciousness", "risk_update", "window_mean",
        "latency_condition", "clutter_prob")],
    "fsm": [("uavqos.fsm", "QosSupervisor", "evaluate"),
            ("uavqos.engine", None, "emit_signals"),
            ("uavqos.engine", None, "rate_adapt_step")],
    "plant": [("uavqos.engine", None, name) for name in (
        "plant_step", "controller_tick", "onboard_fallback_tick")],
}


class Stat:
    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0


class LayerTracer:
    """Installs the timing wrappers and turns their totals into metrics."""

    def __init__(self):
        # one Stat per wrapped function, keyed "layer:attribute"; the
        # scheduler is split by direction
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self.ul_contended = 0
        self.dl_idle = 0
        self.ul_peak_backlog_bits = 0.0
        self.packets_delivered = 0
        self.transitions = 0
        self.kind_bits: dict[object, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    # -- wrapping -------------------------------------------------------

    def _timed(self, fn, choose, after=None):
        """Wrap `fn`; `choose(args)` returns the Stat the call is charged
        to, `after(args, result)` reads the outcome.

        The call's own time runs from just before to just after `fn`; the
        enclosing wrapped call is charged the whole wrapper, so that the
        wrapper's bookkeeping counts as neither layer's work."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter_ns()
            stat = choose(args)
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.total_ns += perf_counter_ns() - t0
                stat.calls += 1
                stat.child_ns += stack.pop()
            if after is not None:
                after(args, result)
            if stack:
                stack[-1] += perf_counter_ns() - entered
            return result
        return wrapper

    def install(self):
        hooks = {
            "step": self._after_step,
            "enqueue": self._after_enqueue,
            "evaluate": self._after_evaluate,
        }
        for layer, names in SPANS.items():
            for module, owner, attr in names:
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner, None)
                original = getattr(target, attr, None)
                if original is None:
                    self.missing.append(".".join(
                        part for part in (module, owner, attr) if part))
                    continue
                if layer == "scheduler":
                    choose = self._shape
                else:
                    stat = self._stat(f"{layer}:{attr}")
                    choose = (lambda s: lambda _args: s)(stat)
                self._undo.append((target, attr, original))
                setattr(target, attr,
                        self._timed(original, choose, hooks.get(attr)))
        if self.missing:
            print("tracing: not found, left unwrapped: "
                  + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- probes ---------------------------------------------------------

    def _shape(self, args):
        """Charge a schedule_tti call to its direction and record how many
        of its flows were backlogged."""
        flows = args[1]
        backlog = [f.buffered_bits for f in flows if f.buffered_bits > 0]
        if flows[0].direction == "uplink":
            if len(backlog) > 1:
                self.ul_contended += 1
            total = sum(backlog)
            if total > self.ul_peak_backlog_bits:
                self.ul_peak_backlog_bits = total
            return self._stat("scheduler:ul")
        if not backlog:
            self.dl_idle += 1
        return self._stat("scheduler:dl")

    def _after_step(self, _args, delivered):
        self.packets_delivered += len(delivered)

    def _after_enqueue(self, args, _accepted):
        packet = args[1]
        self.kind_bits[packet.kind] = \
            self.kind_bits.get(packet.kind, 0.0) + packet.size

    def _after_evaluate(self, _args, event):
        if event.state != event.state_before:
            self.transitions += 1

    # -- report ---------------------------------------------------------

    def _sum(self, prefix: str, field: str) -> float:
        return sum(getattr(st, field) for key, st in self.stats.items()
                   if key.startswith(prefix))

    def _total_s(self, prefix: str) -> float:
        return self._sum(prefix, "total_ns") / 1e9

    def _self_s(self, prefix: str) -> float:
        return (self._sum(prefix, "total_ns")
                - self._sum(prefix, "child_ns")) / 1e9

    def _calls(self, prefix: str) -> int:
        return int(self._sum(prefix, "calls"))

    def metrics(self) -> dict[str, float]:
        """Per-layer totals, named as the benchmark reports them."""
        ul_calls = self._calls("scheduler:ul")
        dl_calls = self._calls("scheduler:dl")
        return {
            "engine.loop_self_s": self._self_s("engine.run:"),
            "cell.step_self_s": self._self_s("cell.step:"),
            "cell.emit_s": self._total_s("cell.emit:"),
            "cell.packet_build_s": self._total_s("cell.packet_build:"),
            "cell.packets_enqueued": self._calls("cell.packet_build:enqueue"),
            "cell.packets_delivered": self.packets_delivered,
            "scheduler.ul_s": self._total_s("scheduler:ul"),
            "scheduler.dl_s": self._total_s("scheduler:dl"),
            "scheduler.ul_calls": ul_calls,
            "scheduler.dl_calls": dl_calls,
            "scheduler.dl_idle_share": self.dl_idle / dl_calls
            if dl_calls else 0.0,
            "scheduler.ul_contended_share": self.ul_contended / ul_calls
            if ul_calls else 0.0,
            "scheduler.ul_peak_backlog_bits": self.ul_peak_backlog_bits,
            "sensing.s": self._total_s("sensing:"),
            "sensing.evals": self._calls("sensing:spaciousness"),
            "fsm.evaluate_s": self._total_s("fsm:"),
            "fsm.transitions": self.transitions,
            "plant.s": self._total_s("plant:"),
            "plant.steps": self._calls("plant:"),
        }
