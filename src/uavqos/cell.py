"""Cell composition: traffic sources, both link directions, delay metering.

Sources produce packets with closed-form due times (no accumulating float
steps), the scheduler allocates each TTI per direction, and served packets
arrive one base delay after their departure instant. Camera frames are
paced onto the uplink as MTU-sized packets spread across the frame
interval, so a frame never monopolizes the FIFO ahead of the small control
packets that share the flow.

A flow holds the packets that carry nothing (background, every camera
packet but a frame's last) as counted runs: only the packets the engine
reads are objects of their own, and the cell counts the arrived bits of
every packet per kind.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Callable, Optional

from .scheduler import (
    BACKGROUND,
    CAMERA,
    COMMAND,
    CONTROL_STATE,
    DOWNLINK,
    PACKET_KINDS,
    UPLINK,
    LinkConfig,
    Packet,
    QosFlow,
    schedule_tti,
)


class FrameSource:
    """Constant-bit-rate frame stream (camera).

    Each frame is emitted as full `packet_bits` packets plus a remainder,
    paced uniformly across the frame interval. Rate changes latch at the
    next frame boundary; requests below the floor clamp to it.
    """

    kind = CAMERA

    def __init__(self, rate_bps: float, frame_hz: float,
                 packet_bits: int = 12_000, floor_bps: float = 5e6):
        if rate_bps <= 0 or frame_hz <= 0 or packet_bits <= 0:
            raise ValueError("camera source parameters must be positive")
        self.rate_bps = rate_bps
        self.floor_bps = floor_bps
        self.frame_hz = frame_hz
        self.packet_bits = packet_bits
        self.frame_interval = 1000.0 / frame_hz
        self.active = True
        self._pending_rate: Optional[float] = None
        self._frame_idx = 0
        self._plan: list[tuple] = []   # this frame's emissions, due order
        self._plan_pos = 0

    def set_rate(self, rate_bps: float) -> float:
        """Request a new rate; effective at the next frame boundary."""
        self._pending_rate = max(rate_bps, self.floor_bps)
        return self._pending_rate

    def set_active(self, active: bool, now_ms: float):
        if active and not self.active:
            # skip the frames that elapsed while off
            self._frame_idx = math.ceil(now_ms / self.frame_interval)
            self._plan = []
            self._plan_pos = 0
        self.active = active

    def _build_frame(self):
        if self._pending_rate is not None:
            self.rate_bps = self._pending_rate
            self._pending_rate = None
        start = self._frame_idx * self.frame_interval
        frame_bits = round(self.rate_bps / self.frame_hz)
        n_full, rem = divmod(frame_bits, self.packet_bits)
        sizes = [self.packet_bits] * n_full + ([rem] if rem else [])
        last = len(sizes) - 1
        spacing = self.frame_interval / len(sizes)
        self._plan = [(start + i * spacing, size, self.kind,
                       start if i == last else None)
                      for i, size in enumerate(sizes)]
        self._plan_pos = 0

    def emit_until(self, end_ms: float):
        """(due, size, kind, payload) for every packet due before end_ms;
        only a frame's last packet carries a payload, the frame start."""
        out = []
        if not self.active:
            return out
        while True:
            if self._plan_pos >= len(self._plan):
                if self._frame_idx * self.frame_interval >= end_ms:
                    break
                self._build_frame()
                self._frame_idx += 1
            item = self._plan[self._plan_pos]
            if item[0] >= end_ms:
                break
            self._plan_pos += 1
            out.append(item)
        return out


class PeriodicSource:
    """Small fixed-size packet every period (control state stream)."""

    kind = CONTROL_STATE

    def __init__(self, hz: float, packet_bits: int = 12_000,
                 payload_fn: Optional[Callable[[float], object]] = None):
        if hz <= 0 or packet_bits <= 0:
            raise ValueError("periodic source parameters must be positive")
        self.period = 1000.0 / hz
        self.packet_bits = packet_bits
        self.payload_fn = payload_fn
        self._idx = 0

    def emit_until(self, end_ms: float):
        out = []
        while self._idx * self.period < end_ms:
            due = self._idx * self.period
            payload = self.payload_fn(due) if self.payload_fn else None
            out.append((due, self.packet_bits, self.kind, payload))
            self._idx += 1
        return out


class PacedSource:
    """Back-to-back packets at a constant rate inside an on/off window
    (background load)."""

    kind = BACKGROUND

    def __init__(self, rate_bps: float, window_ms: tuple[float, float],
                 packet_bits: int = 12_000):
        if rate_bps <= 0 or packet_bits <= 0:
            raise ValueError("background source parameters must be positive")
        self.window = window_ms
        self.packet_bits = packet_bits
        self.spacing = packet_bits / rate_bps * 1000.0
        self._idx = 0

    def emit_until(self, end_ms: float):
        out = []
        start, stop = self.window
        while True:
            due = start + self._idx * self.spacing
            if due >= end_ms or due >= stop:
                break
            out.append((due, self.packet_bits, self.kind, None))
            self._idx += 1
        return out


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

    Multiple sources may feed one flow (the platform's whole traffic
    profile rides a single QoS flow that is re-prioritized as one unit).
    `arrived_bits` counts, per packet kind, the bits of every packet that
    has arrived so far.
    """

    def __init__(self, uplink: LinkConfig, downlink: LinkConfig,
                 jitter_ms: float = 0.0, jitter_rng=None):
        self.uplink = uplink
        self.downlink = downlink
        self.flows: dict[int, QosFlow] = {}
        # uplink first: delivery order and the jitter draw order follow it
        self._directions = {UPLINK: _Direction(uplink),
                            DOWNLINK: _Direction(downlink)}
        self._sources: list[tuple[object, QosFlow]] = []
        self.clock = 0.0
        self._ticks = 0
        self.outages: list[tuple[float, float]] = []
        self.jitter_ms = jitter_ms
        self.jitter_rng = jitter_rng
        self.arrived_bits = dict.fromkeys(PACKET_KINDS, 0.0)

    def add_flow(self, direction: str, priority_slope: float = 1.0) -> QosFlow:
        flow = QosFlow(len(self.flows), direction, priority_slope)
        self.flows[flow.id] = flow
        self._directions[direction].flows.append(flow)
        return flow

    def attach_source(self, source, flow: QosFlow):
        self._sources.append((source, flow))

    def in_outage(self, t_ms: float) -> bool:
        return any(a <= t_ms < b for a, b in self.outages)

    def enqueue_command(self, flow: QosFlow, created_at: float,
                        control: Packet, value=None,
                        size_bits: int = 2000) -> Packet:
        """Edge-side injection of a downlink command echoing the delivered
        uplink `control` packet; its payload is (control, value)."""
        pkt = flow.make_packet(size_bits, created_at, COMMAND,
                               (control, value))
        flow.enqueue(pkt, self.downlink.buffer_cap_bits)
        return pkt

    def step(self) -> list[tuple[float, Packet]]:
        """Advance one uplink TTI; returns (arrival, packet) for each packet
        that carries a payload and arrived during the tick, uplink before
        downlink. The bits of every packet that arrived are added to
        `arrived_bits`."""
        # from a tick count, not a running sum: the engine's clock is
        # k * tti, and a summed inexact TTI drifts away from it
        self._ticks += 1
        end = self._ticks * self.uplink.tti_ms

        staged: dict[QosFlow, list] = {}
        for source, flow in self._sources:
            items = source.emit_until(end)
            if items:
                staged.setdefault(flow, []).append(items)
        for flow, batches in staged.items():
            items = batches[0] if len(batches) == 1 else \
                sorted(itertools.chain(*batches), key=lambda x: x[0])
            cap = self._directions[flow.direction].link.buffer_cap_bits
            # one record per packet that carries a payload, one per run of
            # equal packets that carry nothing
            i, n = 0, len(items)
            while i < n:
                due, bits, kind, payload = items[i]
                j = i + 1
                if payload is None:
                    while j < n and items[j][3] is None and \
                            items[j][1] == bits and items[j][2] == kind:
                        j += 1
                flow.enqueue(flow.make_packet(bits, due, kind, payload,
                                              j - i), cap)
                i = j

        schedule = not (self.outages and self.in_outage(self.clock))
        jitter = self.jitter_ms if self.jitter_rng is not None else 0.0
        arrived = self.arrived_bits
        delivered = []
        for d in self._directions.values():
            queue = d.in_flight
            if schedule:
                base = d.link.base_delay_ms
                last = d.last_arrival
                for rec, dep in schedule_tti(d.link, d.flows, self.clock):
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


def measure_rtt(control_packet: Packet, command_packet: Packet,
                arrival: float) -> float:
    """Round trip of one delivered control packet and its command echo,
    which arrived at `arrival`: the uplink leg (the command is created when
    the control packet arrives) plus the downlink leg (processing is out of
    scope)."""
    ul = command_packet.created_at - control_packet.created_at
    dl = arrival - command_packet.created_at
    return ul + dl
