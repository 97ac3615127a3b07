"""Correctness checks on one simulation's outputs.

Every expected value is computed here from the scenario document -- a
closed form, a conservation law or a bound -- and never copied from an
earlier run. A check returns ``(name, ok, detail)``; the benchmark counts
each as one operation attempted, and as failed when ``ok`` is false.

`RunOutput` holds what one run left behind: the parsed ``trace.csv``
rows, the parsed ``summary.json``, the final bit totals of every flow
(keyed ``uav``, ``bg`` and ``cmd``) and, from a traced run only, the
enqueued bits per packet kind.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# The supervisor's successor table (state -> states it may move to next),
# written out here so that the check does not trust the program's copy.
SUCCESSORS = {
    "q1": {"q1", "q2", "q3", "q4"},
    "q2": {"q1", "q2", "q5"},
    "q3": {"q1", "q3", "q5", "q6"},
    "q4": {"q1", "q4", "q6", "qA"},
    "q5": {"q5", "q1", "qA"},
    "q6": {"q6", "q1", "qA"},
    "qA": {"qA", "q1"},
}
INITIAL_STATE = "q1"

# start-up excluded from the steady-state goodput mean
WARMUP_MS = 1000.0
# after the outage, how soon the supervisor must be back in q1
RESUME_WITHIN_MS = 1000.0
# how soon q3 must follow the onset of background load
ENGAGE_WITHIN_MS = 2000.0
# the accepted lateness of qA after the link-loss timeout
AUTONOMY_WITHIN_MS = 1000.0
GOODPUT_TOLERANCE_MBPS = 1.0
# trace.csv prints floats with 6 decimals
PRINT_RESOLUTION = 5e-7


@dataclass
class RunOutput:
    rows: list[dict]
    summary: dict
    flows: dict[str, dict]
    kind_bits: Optional[dict[str, float]] = None


def read_trace(path) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            rows.append({k: v if k in ("state", "signals") else float(v)
                         for k, v in raw.items()})
    return rows


def read_output(out_dir, flows, kind_bits=None) -> RunOutput:
    with open(f"{out_dir}/summary.json") as fh:
        summary = json.load(fh)
    return RunOutput(read_trace(f"{out_dir}/trace.csv"), summary, flows,
                     kind_bits)


# -- closed forms from the scenario document -------------------------------

def _source(doc, kind):
    for src in doc["uav_sources"]:
        if src["kind"] == kind:
            return src
    return None


def _count_before(span_ms, rate_bps, packet_bits) -> int:
    """Packets a source spaced packet_bits/rate_bps apart emits, starting
    at the span's start, before the span ends."""
    if span_ms <= 0:
        return 0
    return math.ceil(Fraction(span_ms) * Fraction(rate_bps)
                     / (Fraction(packet_bits) * 1000))


def control_bits(doc) -> int:
    ctrl = _source(doc, "periodic_small")
    bits = ctrl.get("packet_bits", 12000)
    return _count_before(doc["duration_ms"], ctrl["rate_bps"], bits) * bits


def camera_bits_nominal(doc) -> int:
    """Camera bits over the whole run at the nominal rate: every frame
    that starts before the end, at the frame size nearest rate/frame_hz."""
    cam = _source(doc, "cbr_frames")
    if cam is None:
        return 0
    hz = cam.get("frame_hz", 30.0)
    frames = math.ceil(Fraction(doc["duration_ms"]) * Fraction(hz) / 1000)
    frame_bits = math.floor(Fraction(cam["rate_bps"]) / Fraction(hz)
                            + Fraction(1, 2))
    return frames * frame_bits


def background_bits(doc) -> int:
    bg = doc["background"]
    start, stop = bg["active_window_ms"]
    bits = bg.get("packet_bits", 12000)
    span = min(stop, doc["duration_ms"]) - start
    return _count_before(span, bg["rate_bps"], bits) * bits


def offered_mbps(doc) -> float:
    return sum(src["rate_bps"] for src in doc["uav_sources"]) / 1e6


def _camera_fixed(doc) -> bool:
    """Only without a supervisor does the camera keep its nominal rate and
    never pause."""
    return doc["qos"] != "dynamic"


# -- checks on every workload ----------------------------------------------

def check_conservation(doc, out: RunOutput):
    worst = ("", 0.0)
    for name, f in out.flows.items():
        drift = f["enqueued_bits"] - (f["buffered_bits"] + f["delivered_bits"]
                                      + f["dropped_bits"])
        if abs(drift) > abs(worst[1]):
            worst = (name, drift)
    return ("bit_conservation", abs(worst[1]) <= 0.5,
            f"largest drift {worst[1]} bits on flow {worst[0] or '-'}")


def check_control_bits(doc, out: RunOutput):
    want = control_bits(doc)
    if out.kind_bits is not None:
        got = out.kind_bits.get("control_state", 0.0)
        return ("control_bits", got == want,
                f"control packets enqueued {got} bits, closed form {want}")
    # untraced: the platform flow carries camera and control together
    rest = out.flows["uav"]["enqueued_bits"] - want
    camera = camera_bits_nominal(doc)
    if _camera_fixed(doc):
        ok = rest == camera
    else:
        ok = 0 <= rest <= camera
    return ("control_bits", ok,
            f"platform minus control {rest} bits, camera at nominal "
            f"{camera} bits ({'equal' if _camera_fixed(doc) else 'at most'})")


def check_background_bits(doc, out: RunOutput):
    want = background_bits(doc)
    got = out.flows["bg"]["enqueued_bits"]
    if out.kind_bits is not None:
        got_kind = out.kind_bits.get("background", 0.0)
        return ("background_bits", got == want == got_kind,
                f"background flow {got} bits, packets {got_kind} bits, "
                f"closed form {want}")
    return ("background_bits", got == want,
            f"background flow {got} bits, closed form {want}")


def check_rtt_floor(doc, out: RunOutput):
    floor = doc["uplink"]["base_delay_ms"] + doc["downlink"]["base_delay_ms"]
    low = [r for r in out.rows if 0 < r["rtt"] < floor - PRINT_RESOLUTION]
    return ("rtt_floor", not low,
            f"{len(low)} rows below {floor} ms"
            + (f", first at {low[0]['time']} ms: {low[0]['rtt']}" if low
               else ""))


def check_trace_rows(doc, out: RunOutput):
    want = round(doc["duration_ms"] / doc.get("reporting_interval_ms", 100.0))
    times = [r["time"] for r in out.rows]
    increasing = all(a < b for a, b in zip(times, times[1:]))
    return ("trace_rows", len(times) == want and increasing,
            f"{len(times)} rows (want {want}), "
            f"{'strictly increasing' if increasing else 'not increasing'}")


def check_stable(doc, out: RunOutput):
    return ("stable", out.summary.get("stability") == "stable",
            f"stability {out.summary.get('stability')!r}")


# -- idle_cell -------------------------------------------------------------

def check_platform_bits(doc, out: RunOutput):
    want = camera_bits_nominal(doc) + control_bits(doc)
    got = out.flows["uav"]["enqueued_bits"]
    return ("platform_bits", got == want,
            f"platform flow {got} bits, camera plus control {want}")


def check_goodput(doc, out: RunOutput):
    steady = [r["uav_goodput"] for r in out.rows if r["time"] > WARMUP_MS]
    mean = sum(steady) / len(steady) if steady else float("nan")
    want = offered_mbps(doc)
    return ("steady_goodput", abs(mean - want) <= GOODPUT_TOLERANCE_MBPS,
            f"mean {mean:.6f} Mbps after {WARMUP_MS:.0f} ms, "
            f"offered {want} ± {GOODPUT_TOLERANCE_MBPS}")


# -- dynamic_outage --------------------------------------------------------

def _first(rows, pred):
    return next((r for r in rows if pred(r)), None)


def check_successors(doc, out: RunOutput):
    prev = INITIAL_STATE
    for r in out.rows:
        if r["state"] not in SUCCESSORS.get(prev, ()):
            return ("successor_table", False,
                    f"{prev} -> {r['state']} at {r['time']} ms")
        prev = r["state"]
    return ("successor_table", True, "every change is in the table")


def check_engage_on_load(doc, out: RunOutput):
    onset = doc["background"]["active_window_ms"][0]
    first = _first(out.rows, lambda r: r["state"] == "q3")
    ok = first is not None and onset < first["time"] <= onset + \
        ENGAGE_WITHIN_MS
    return ("q3_on_load", ok,
            f"first q3 at {first['time'] if first else None} ms, load from "
            f"{onset} ms")


def check_autonomy_on_outage(doc, out: RunOutput):
    start = doc["link_outages_ms"][0][0]
    timeout = doc["pfsm"]["link_lost_timeout_ms"]
    first = _first(out.rows, lambda r: r["state"] == "qA")
    ok = first is not None and start + timeout <= first["time"] <= \
        start + timeout + AUTONOMY_WITHIN_MS
    return ("qA_on_outage", ok,
            f"first qA at {first['time'] if first else None} ms, window "
            f"[{start + timeout}, {start + timeout + AUTONOMY_WITHIN_MS}]")


def check_resume_after_outage(doc, out: RunOutput):
    end = doc["link_outages_ms"][0][1]
    rows = out.rows
    entered = next((i for i, r in enumerate(rows) if r["state"] == "qA"),
                   None)
    left = None if entered is None else \
        _first(rows[entered:], lambda r: r["state"] != "qA")
    ok = left is not None and left["state"] == "q1" and \
        end <= left["time"] <= end + RESUME_WITHIN_MS
    return ("q1_after_outage", ok,
            f"left qA for {left['state'] if left else None} at "
            f"{left['time'] if left else None} ms, outage ends {end} ms")


def check_final_state(doc, out: RunOutput):
    last = out.rows[-1] if out.rows else None
    nominal = _source(doc, "cbr_frames")["rate_bps"] / 1e6
    ok = last is not None and last["state"] == "q1" and \
        abs(last["cam_rate"] - nominal) <= PRINT_RESOLUTION and \
        out.summary.get("stability") == "stable"
    return ("final_q1_nominal", ok,
            f"ends in {last['state'] if last else None} at "
            f"{last['cam_rate'] if last else None} Mbps (nominal {nominal}), "
            f"{out.summary.get('stability')}")


COMMON = (check_conservation, check_control_bits, check_rtt_floor,
          check_trace_rows)
CHECKS = {
    "idle_cell": COMMON + (check_platform_bits, check_goodput, check_stable),
    "dynamic_outage": COMMON + (check_background_bits, check_successors,
                                check_engage_on_load,
                                check_autonomy_on_outage,
                                check_resume_after_outage,
                                check_final_state),
}


def run_checks(workload: str, doc: dict, out: RunOutput):
    results = []
    for check in CHECKS[workload]:
        try:
            results.append(check(doc, out))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # an output missing what the check reads fails the check
            results.append((check.__name__.removeprefix("check_"), False,
                            f"could not check: {exc!r}"))
    return results
