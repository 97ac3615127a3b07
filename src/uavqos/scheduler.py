"""Weighted resource-fair TTI scheduler with relative-priority flows.

Every flow carries a priority slope. While a flow is backlogged and unserved
its weight grows linearly (slope per TTI); the flow holding the largest
weight is granted the TTI and its weight resets to zero. Flows with empty
buffers hold no weight, so allocation is gated on buffered data. With two
permanently backlogged flows of slopes n:1 this yields a served-TTI
frequency ratio of n:1 (the high-slope flow wins a repeating cycle of n+1
TTIs n times).

When the granted flow drains mid-TTI the residual capacity spills to the
next-highest-weight backlogged flow, so the link is work conserving; only
the primary grantee's weight is reset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

UPLINK = "uplink"
DOWNLINK = "downlink"

# packet kinds
CONTROL_STATE = "control_state"
COMMAND = "command"
CAMERA = "camera"
BACKGROUND = "background"

PACKET_KINDS = frozenset({CONTROL_STATE, COMMAND, CAMERA, BACKGROUND})


class Packet:
    """One FIFO record: `count` equal packets of `bits` bits each, carried
    from their source to the engine.

    `kind` alone decides what the engine does with a delivered packet; each
    kind rides exactly one flow. A packet the engine reads carries a
    `payload` and is a record of count 1: the state snapshot on a control
    packet, (the control packet it echoes, the command value) on a
    command, and the frame start (ms) on a frame's last camera packet. The
    other packets carry nothing, and a flow holds a run of them as one
    record whose `created_at` is its first packet's.
    """

    __slots__ = ("bits", "count", "created_at", "kind", "payload")

    def __init__(self, bits, created_at, kind, payload=None, count=1):
        self.bits = bits
        self.count = count
        self.created_at = created_at
        self.kind = kind
        self.payload = payload

    @property
    def size(self):
        """Bits of the packets the record still holds."""
        return self.bits * self.count

    def __repr__(self):
        return (f"Packet(bits={self.bits}, count={self.count}, "
                f"created_at={self.created_at}, kind={self.kind})")


@dataclass
class LinkConfig:
    """Static description of one link direction.

    capacity_bps : line rate in bits/s
    tti_ms       : scheduler allocation period in ms
    base_delay_ms: one-way propagation + core delay applied after service
    buffer_cap_bits: optional per-flow cap; excess enqueues are tail-dropped
    """

    capacity_bps: float
    tti_ms: float = 0.5
    base_delay_ms: float = 13.65
    buffer_cap_bits: Optional[float] = None

    def __post_init__(self):
        if self.capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        if self.tti_ms <= 0:
            raise ValueError("tti_ms must be positive")
        if self.base_delay_ms < 0:
            raise ValueError("base_delay_ms must be non-negative")
        if self.buffer_cap_bits is not None and self.buffer_cap_bits <= 0:
            raise ValueError("buffer_cap_bits must be positive")

    @property
    def tti_budget_bits(self) -> float:
        return self.capacity_bps * self.tti_ms / 1000.0


class QosFlow:
    """A schedulable data flow: FIFO of packet records plus priority
    state. With a `buffer_cap_bits`, packets that would take the buffered
    bits past it are tail-dropped."""

    __slots__ = ("id", "direction", "priority_slope", "buffer_cap_bits",
                 "weight", "buffer", "head_served_bits", "buffered_bits",
                 "enqueued_bits", "delivered_bits", "dropped_bits")

    def __init__(self, id: int, direction: str, priority_slope: float = 1.0,
                 buffer_cap_bits: Optional[float] = None):
        if priority_slope <= 0:
            raise ValueError("priority slope must be positive")
        if direction not in (UPLINK, DOWNLINK):
            raise ValueError(f"unknown direction {direction!r}")
        self.id = id
        self.direction = direction
        self.priority_slope = priority_slope
        self.buffer_cap_bits = buffer_cap_bits
        self.weight = 0.0
        self.buffer: deque[Packet] = deque()
        self.head_served_bits = 0.0   # of the head record's first packet
        self.buffered_bits = 0.0
        self.enqueued_bits = 0.0
        self.delivered_bits = 0.0
        self.dropped_bits = 0.0

    def make_packet(self, bits, created_at, kind, payload=None,
                    count=1) -> Packet:
        return Packet(bits, created_at, kind, payload, count)

    def enqueue(self, packet: Packet) -> bool:
        """Append the record's packets to the FIFO; returns False when the
        cap tail-dropped any of them.

        Each packet is accepted or dropped on its own, as if enqueued
        alone. Packets that carry nothing extend the tail record when it
        carries nothing either and holds packets of the same kind and
        size."""
        bits, count = packet.bits, packet.count
        self.enqueued_bits += bits * count
        buffered = self.buffered_bits
        cap = self.buffer_cap_bits
        if cap is None:
            accepted = count
            for _ in range(count):
                buffered += bits
        else:
            accepted = 0
            for _ in range(count):
                if buffered + bits > cap:
                    self.dropped_bits += bits
                else:
                    buffered += bits
                    accepted += 1
        self.buffered_bits = buffered
        if not accepted:
            return False
        buf = self.buffer
        if buf and packet.payload is None:
            tail = buf[-1]
            if tail.payload is None and tail.kind == packet.kind and \
                    tail.bits == bits:
                tail.count += accepted
                return accepted == count
        if accepted == count:
            buf.append(packet)
            return True
        buf.append(Packet(bits, packet.created_at, packet.kind,
                          count=accepted))
        return False

    def flush(self) -> float:
        """Discard all buffered bits (user departs / offload abandoned).
        The sent bits of a partly sent head already count as delivered."""
        discarded = self.buffered_bits
        self.dropped_bits += discarded
        self.buffer.clear()
        self.buffered_bits = 0.0
        self.head_served_bits = 0.0
        return discarded


def set_priority(flow: QosFlow, new_slope: float) -> QosFlow:
    """Replace the flow's slope; the accumulated weight is kept. Callers
    run between TTIs, so the next `schedule_tti` grows the weight by the
    new slope."""
    if new_slope <= 0:
        raise ValueError("priority slope must be positive")
    flow.priority_slope = new_slope
    return flow


def schedule_tti(link: LinkConfig, flows: list[QosFlow], now_ms: float):
    """Run one TTI of the scheduler over `flows`.

    Weight update happens first (backlogged flows grow by their slope,
    empty flows reset to zero), then the max-weight backlogged flow is
    granted the TTI budget. Ties break toward the higher slope, then the
    lower flow id. If the grantee drains, the remainder spills to the next
    flow by the same ordering.

    Returns (record, departure_ms) for every packet whose last bit was
    sent this TTI, in departure order; a run's record comes once for each
    of its packets that left. An idle TTI (no flow backlogged, or no flow
    at all) returns [] after the weight update.
    """
    candidates = []
    for f in flows:
        if f.buffered_bits > 0:
            f.weight += f.priority_slope
            candidates.append(f)
        else:
            f.weight = 0.0
    if not candidates:
        return []

    capacity = link.capacity_bps
    completed: list[tuple[Packet, float]] = []

    remaining = link.tti_budget_bits
    sent = 0.0  # bits already pushed onto the wire this TTI
    primary = True
    while remaining > 1e-9 and candidates:
        best = candidates[0]
        if len(candidates) > 1:
            for f in candidates[1:]:
                if (f.weight, f.priority_slope, -f.id) > \
                        (best.weight, best.priority_slope, -best.id):
                    best = f
            candidates.remove(best)
        else:
            candidates.clear()
        if primary:
            best.weight = 0.0
            primary = False

        backlog = best.buffered_bits
        take = granted = backlog if backlog < remaining else remaining
        buf = best.buffer
        served = best.head_served_bits
        while take > 1e-9:
            head = buf[0]
            head_left = head.bits - served
            if head_left <= take + 1e-9:
                sent += head_left
                take -= head_left
                served = 0.0
                if head.count > 1:
                    head.count -= 1
                else:
                    buf.popleft()
                completed.append((head, now_ms + sent * 1000.0 / capacity))
            else:
                served += take
                sent += take
                take = 0.0
        best.head_served_bits = served
        best.buffered_bits = backlog - granted
        best.delivered_bits += granted
        remaining -= granted

    return completed
