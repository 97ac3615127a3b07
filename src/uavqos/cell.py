"""Cell composition: traffic sources, both link directions, delay metering.

Sources produce packets with closed-form due times (no accumulating float
steps), the scheduler allocates each TTI per direction, and served packets
arrive one base delay after their departure instant. Camera frames are
paced onto the uplink as MTU-sized packets spread across the frame
interval, so a frame never monopolizes the FIFO ahead of the small control
packets that share the flow.

Sources emit counted runs, and a flow holds them as such: the packets
that carry nothing (background, every camera packet but a frame's last)
travel as `(due, bits, kind, payload, count)` runs from the source into
the FIFO, only the packets the engine reads are objects of their own, and
the cell counts the arrived bits of every packet per kind.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from .scheduler import (
    BACKGROUND,
    CAMERA,
    CONTROL_STATE,
    DOWNLINK,
    PACKET_KINDS,
    UPLINK,
    Packet,
    QosFlow,
    schedule_tti,
)
from .scenario import LinkConfig


class SimulationContractError(Exception):
    """An internal invariant broke; the message names where."""


class FrameSource:
    """Constant-bit-rate frame stream (camera).

    Each frame is emitted as full `packet_bits` packets plus a remainder,
    paced uniformly across the frame interval: packet i of a frame that
    starts at `start` is due at `start + i * spacing`. Rate changes latch
    at the next frame boundary; requests below the floor clamp to it.
    """

    def __init__(self, rate_bps: float, frame_hz: float, packet_bits: int,
                 floor_bps: float):
        self.rate_bps = rate_bps
        self.floor_bps = floor_bps
        self.frame_hz = frame_hz
        self.packet_bits = packet_bits
        self.frame_interval = 1000.0 / frame_hz
        self.active = True
        self._pending_rate: Optional[float] = None
        self._frame_idx = 0            # the next frame to start
        # the frame in progress, (start, spacing, packets, last packet's
        # bits), and the index of its next packet
        self._frame = (0.0, 0.0, 0, 0)
        self._pos = 0
        self.next_due = 0.0

    def set_rate(self, rate_bps: float) -> float:
        """Request a new rate; effective at the next frame boundary."""
        self._pending_rate = max(rate_bps, self.floor_bps)
        return self._pending_rate

    def set_active(self, active: bool, now_ms: float):
        if active and not self.active:
            # skip the frames that elapsed while off
            self._frame_idx = math.ceil(now_ms / self.frame_interval)
            self._pos = self._frame[2]
            self.next_due = self._frame_idx * self.frame_interval
        elif not active:
            self.next_due = math.inf
        self.active = active

    def _start_frame(self):
        if self._pending_rate is not None:
            self.rate_bps = self._pending_rate
            self._pending_rate = None
        frame_bits = round(self.rate_bps / self.frame_hz)
        n_full, rem = divmod(frame_bits, self.packet_bits)
        n = n_full + (1 if rem else 0)
        self._frame = (self._frame_idx * self.frame_interval,
                       self.frame_interval / n, n,
                       rem if rem else self.packet_bits)
        self._pos = 0
        self._frame_idx += 1

    def emit_until(self, end_ms: float):
        """(due, bits, kind, payload, count) runs of the packets due before
        end_ms: per frame, one run of the payload-free packets and then
        the frame's last packet, whose payload is the frame start."""
        out = []
        due = self.next_due
        while due < end_ms:
            pos = self._pos
            if pos >= self._frame[2]:
                self._start_frame()
                pos = 0
            start, spacing, n, last_bits = self._frame
            first = due
            k = pos + 1
            while k < n:
                due = start + k * spacing
                if due >= end_ms:
                    break
                k += 1
            last = n - 1
            if pos < last:
                out.append((first, self.packet_bits, CAMERA, None,
                            (k if k < last else last) - pos))
            if k == n:
                out.append((start + last * spacing, last_bits, CAMERA, start,
                            1))
                due = self._frame_idx * self.frame_interval
            self._pos = k
        self.next_due = due
        return out


class PeriodicSource:
    """Small fixed-size packet every period (control state stream); each
    packet is a run of its own whose payload is `payload_fn(due)`."""

    def __init__(self, hz: float, packet_bits: int,
                 payload_fn: Callable[[float], object]):
        self.period = 1000.0 / hz
        self.packet_bits = packet_bits
        self.payload_fn = payload_fn
        self._idx = 0
        self.next_due = 0.0

    def emit_until(self, end_ms: float):
        idx = self._idx
        period = self.period
        out = []
        while idx * period < end_ms:
            due = idx * period
            out.append((due, self.packet_bits, CONTROL_STATE,
                        self.payload_fn(due), 1))
            idx += 1
        self._idx = idx
        self.next_due = idx * period
        return out


class PacedSource:
    """Back-to-back packets at a constant rate inside an on/off window
    (background load); the packets due in one call form one run."""

    def __init__(self, rate_bps: float, window_ms: tuple[float, float],
                 packet_bits: int):
        self.window = window_ms
        self.packet_bits = packet_bits
        self.spacing = packet_bits / rate_bps * 1000.0
        self._idx = 0
        start, stop = window_ms
        self.next_due = start if start < stop else math.inf

    def emit_until(self, end_ms: float):
        start, stop = self.window
        first = idx = self._idx
        spacing = self.spacing
        bound = end_ms if end_ms < stop else stop
        due = start + idx * spacing
        while due < bound:
            idx += 1
            due = start + idx * spacing
        self._idx = idx
        self.next_due = due if due < stop else math.inf
        if idx == first:
            return []
        return [(start + first * spacing, self.packet_bits, BACKGROUND, None,
                 idx - first)]


class _Direction:
    """One link direction: its flows and the packets in flight on it, as
    (arrival, record) pairs in arrival order."""

    __slots__ = ("link", "flows", "in_flight", "last_arrival")

    def __init__(self, link: LinkConfig):
        self.link = link
        self.flows: list[QosFlow] = []
        self.in_flight: deque[tuple[float, Packet]] = deque()
        self.last_arrival = 0.0


class CellModel:
    """One cell: uplink and downlink schedulers plus the attached traffic.
    The cell moves bits; the closed loop on top of it (echoing commands,
    measuring round trips) belongs to its caller.

    Multiple sources may feed one flow (the platform's whole traffic
    profile rides a single QoS flow that is re-prioritized as one unit).
    A source offers `next_due`, the due time of its next packet (inf when
    it has none), and `emit_until(end_ms)`, which returns the
    `(due, bits, kind, payload, count)` runs of its packets due before
    `end_ms` in due order, `due` being the run's first packet's. The
    cell calls a source only when its next packet is due in the tick.
    Each flow takes its direction's buffer cap. `outages` holds the
    [start, end) windows (ms) in which neither direction is scheduled;
    while `jitter_ms > 0`, each arrival moves by a uniform draw from
    `jitter_rng` within ±`jitter_ms`. `arrived_bits` counts, per packet
    kind, the bits of every packet that has arrived so far.
    """

    def __init__(self, uplink: LinkConfig, downlink: LinkConfig,
                 jitter_ms: float = 0.0, jitter_rng=None, outages=()):
        self.uplink = uplink
        self.flows: dict[int, QosFlow] = {}
        # uplink first: delivery order and the jitter draw order follow it
        self._directions = {UPLINK: _Direction(uplink),
                            DOWNLINK: _Direction(downlink)}
        # per fed flow: (flow, its sources)
        self._feeds: list[tuple[QosFlow, list]] = []
        self.clock = 0.0
        self._ticks = 0
        self._outages = tuple((a, b) for a, b in outages)
        # the link-up gate holds until the next outage boundary
        self._link_up = True
        self._gate_until = 0.0
        self.jitter_ms = jitter_ms
        self.jitter_rng = jitter_rng
        self.arrived_bits = dict.fromkeys(PACKET_KINDS, 0.0)

    def add_flow(self, direction: str, priority_slope: float = 1.0) -> QosFlow:
        flow = QosFlow(len(self.flows), direction, priority_slope,
                       self._directions[direction].link.buffer_cap_bits)
        self.flows[flow.id] = flow
        self._directions[direction].flows.append(flow)
        return flow

    def attach_source(self, source, flow: QosFlow):
        for fed, sources in self._feeds:
            if fed is flow:
                sources.append(source)
                return
        self._feeds.append((flow, [source]))

    @staticmethod
    def _merged_runs(sources: list, end: float) -> list[tuple]:
        """The runs of several sources' packets due before `end`, in due
        order with a tie to the source attached first.

        Each call lets the source with the earliest next packet emit up to
        the next packet of any other source, so no sort is needed. A source
        whose call leaves its `next_due` where it was would be picked
        again without end, so that breaks the source contract."""
        out = []
        while True:
            best, first, at = None, end, 0
            for i, src in enumerate(sources):
                if src.next_due < first:
                    best, first, at = src, src.next_due, i
            if best is None:
                return out
            bound = end
            for i, src in enumerate(sources):
                if i != at:
                    # a later source's packet at the same due comes after
                    d = src.next_due if i < at else \
                        math.nextafter(src.next_due, math.inf)
                    if d < bound:
                        bound = d
            runs = best.emit_until(bound)
            if best.next_due == first:
                raise SimulationContractError(
                    f"source {type(best).__name__} made no progress past "
                    f"{first} ms when asked for its packets before {bound} ms")
            out += runs

    def step(self) -> list[tuple[float, Packet]]:
        """Advance one uplink TTI; returns (arrival, packet) for each packet
        that carries a payload and arrived during the tick, uplink before
        downlink. The bits of every packet that arrived are added to
        `arrived_bits`."""
        # from a tick count, not a running sum: the engine's clock is
        # k * tti, and a summed inexact TTI drifts away from it
        self._ticks += 1
        end = self._ticks * self.uplink.tti_ms

        for flow, sources in self._feeds:
            # merge only when two sources of the flow are due in the tick
            due = None
            for src in sources:
                if src.next_due < end:
                    if due is not None:
                        runs = self._merged_runs(sources, end)
                        break
                    due = src
            else:
                if due is None:
                    continue
                runs = due.emit_until(end)
            for first, bits, kind, payload, count in runs:
                flow.enqueue(flow.make_packet(bits, first, kind, payload,
                                              count))

        now = self.clock
        if now >= self._gate_until:
            outages = self._outages
            self._link_up = not any(a <= now < b for a, b in outages)
            self._gate_until = min((t for w in outages for t in w
                                    if t > now), default=math.inf)
        link_up = self._link_up
        jitter = self.jitter_ms
        arrived = self.arrived_bits
        delivered = []
        for d in self._directions.values():
            queue = d.in_flight
            done = schedule_tti(d.link, d.flows, now) if link_up else None
            if done:
                base = d.link.base_delay_ms
                last = d.last_arrival
                for rec, dep in done:
                    arrival = dep + base
                    if jitter > 0.0:
                        arrival += self.jitter_rng.uniform(-jitter, jitter)
                    # one FIFO pipe: jitter may stretch but never reorder
                    if arrival < last:
                        arrival = last
                    last = arrival
                    queue.append((arrival, rec))
                d.last_arrival = last
            while queue and queue[0][0] < end:
                arrival, rec = queue.popleft()
                arrived[rec.kind] += rec.bits
                if rec.payload is not None:
                    delivered.append((arrival, rec))
        self.clock = end
        return delivered

    def buffered_bits(self, direction: str = UPLINK) -> float:
        return sum(f.buffered_bits for f in self._directions[direction].flows)
