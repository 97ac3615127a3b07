import copy
import math
from collections import deque

import yaml

from uavqos.cell import FrameSource
from uavqos.scenario import builtin_config_path, parse_config


def raw_scenario(name: str) -> dict:
    with open(builtin_config_path(name)) as fh:
        return yaml.safe_load(fh)


def head_of_line_delay(flow, now: float) -> float:
    """Age in ms of the head record's first packet; 0 for an empty buffer.

    Exact only while the head record holds one packet. A run of
    payload-free packets keeps its first packet's created_at after some of
    them have left, so its age is overstated; feed the flow packets that
    all carry a payload (`TaggedCamera`, a stamped control stream) to read
    exact ages."""
    if not flow.buffer:
        return 0.0
    return now - flow.buffer[0].created_at


class TaggedCamera(FrameSource):
    """A camera whose every packet carries its due time as payload, so that
    each packet is a record of its own."""

    def emit_until(self, end_ms):
        # one packet per call: a run's first due is the only one it names
        out = []
        while self.next_due < end_ms:
            for due, bits, kind, _, count in super().emit_until(
                    math.nextafter(self.next_due, math.inf)):
                out += [(due, bits, kind, due, 1)] * count
        return out


def make_config(name: str, **top_level):
    """Bundled scenario with top-level keys replaced."""
    raw = copy.deepcopy(raw_scenario(name))
    raw.update(top_level)
    return parse_config(raw, label=name)


class ReferenceFlow:
    """A flow as a plain per-packet FIFO, one (bits, kind, payload) entry
    per packet: the model the run-length FIFO is checked against."""

    def __init__(self, id: int, slope: float, cap=None):
        self.id = id
        self.priority_slope = slope
        self.cap = cap
        self.weight = 0.0
        self.fifo = deque()
        self.head_served_bits = 0.0
        self.buffered_bits = self.enqueued_bits = 0.0
        self.delivered_bits = self.dropped_bits = 0.0

    def enqueue(self, bits, kind, payload):
        self.enqueued_bits += bits
        if self.cap is not None and self.buffered_bits + bits > self.cap:
            self.dropped_bits += bits
            return
        self.fifo.append((bits, kind, payload))
        self.buffered_bits += bits

    def flush(self):
        # a partly sent head's sent bits already count as delivered
        self.dropped_bits += self.buffered_bits
        self.fifo.clear()
        self.buffered_bits = self.head_served_bits = 0.0


def reference_tti(flows, link, now_ms):
    """One max-weight TTI over per-packet FIFOs; (bits, kind, payload,
    departure_ms) for every packet whose last bit was sent."""
    for f in flows:
        f.weight = f.weight + f.priority_slope if f.buffered_bits > 0 \
            else 0.0
    candidates = [f for f in flows if f.buffered_bits > 0]
    remaining, sent, primary, out = link.tti_budget_bits, 0.0, True, []
    while remaining > 1e-9 and candidates:
        best = max(candidates,
                   key=lambda f: (f.weight, f.priority_slope, -f.id))
        candidates.remove(best)
        if primary:
            best.weight, primary = 0.0, False
        take = granted = min(remaining, best.buffered_bits)
        while take > 1e-9:
            bits, kind, payload = best.fifo[0]
            left = bits - best.head_served_bits
            if left <= take + 1e-9:
                sent += left
                take -= left
                best.head_served_bits = 0.0
                best.fifo.popleft()
                out.append((bits, kind, payload,
                            now_ms + sent * 1000.0 / link.capacity_bps))
            else:
                best.head_served_bits += take
                sent += take
                take = 0.0
        best.buffered_bits -= granted
        best.delivered_bits += granted
        remaining -= granted
    return out


class ReferenceLink:
    """One cell direction over per-packet FIFOs: packets arrive one base
    delay (plus jitter, drawn per packet in departure order) after they
    leave, never before the packet ahead, and count in the tick whose end
    lies past their arrival."""

    def __init__(self, link, slopes, jitter_ms=0.0, jitter_rng=None):
        self.link = link
        self.flows = [ReferenceFlow(i, s, link.buffer_cap_bits)
                      for i, s in enumerate(slopes)]
        self.jitter_ms = jitter_ms
        self.jitter_rng = jitter_rng
        self.in_flight = deque()
        self.last_arrival = 0.0
        self.clock = 0.0

    def step(self, emitted):
        """`emitted[i]`: flow i's (due, bits, kind, payload) packets of this
        tick in due order. Returns the (payload, arrival) of each arrived
        packet that carries a payload, and the arrived bits per kind."""
        end = self.clock + self.link.tti_ms
        for flow, items in zip(self.flows, emitted):
            for _, bits, kind, payload in items:
                flow.enqueue(bits, kind, payload)
        for bits, kind, payload, dep in reference_tti(self.flows, self.link,
                                                      self.clock):
            arrival = dep + self.link.base_delay_ms
            if self.jitter_ms > 0.0:
                arrival += self.jitter_rng.uniform(-self.jitter_ms,
                                                   self.jitter_ms)
            arrival = max(arrival, self.last_arrival)
            self.last_arrival = arrival
            self.in_flight.append((arrival, bits, kind, payload))
        delivered, arrived = [], {}
        while self.in_flight and self.in_flight[0][0] < end:
            arrival, bits, kind, payload = self.in_flight.popleft()
            arrived[kind] = arrived.get(kind, 0.0) + bits
            if payload is not None:
                delivered.append((payload, arrival))
        self.clock = end
        return delivered, arrived
