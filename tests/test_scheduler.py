"""Scheduler unit and property tests.

The slope-ratio checks replay the scheduler against an independent oracle
that recomputes weights from first principles (slope times TTIs since last
grant) instead of the incremental bookkeeping the implementation uses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import head_of_line_delay
from uavqos.scheduler import (
    BACKGROUND,
    CAMERA,
    CONTROL_STATE,
    UPLINK,
    LinkConfig,
    QosFlow,
    schedule_tti,
    set_priority,
)

UL = LinkConfig(capacity_bps=81.3e6, tti_ms=0.5, base_delay_ms=13.65)


def backlogged_flow(fid, slope, bits=10**12):
    """A flow preloaded with effectively infinite backlog."""
    f = QosFlow(fid, UPLINK, slope)
    f.enqueue(f.make_packet(bits, 0.0, BACKGROUND))
    return f


def oracle_winner_sequence(slopes, n_ttis):
    """First-principles replay: weight_i = slope_i * (ttis since grant).

    All flows are treated as permanently backlogged. Ties break toward the
    higher slope, then the lower index.
    """
    last_served = [0] * len(slopes)
    winners = []
    for t in range(1, n_ttis + 1):
        weights = [slopes[i] * (t - last_served[i]) for i in range(len(slopes))]
        best = max(range(len(slopes)),
                   key=lambda i: (weights[i], slopes[i], -i))
        winners.append(best)
        last_served[best] = t
    return winners


def grant_tti(link, flows, now_ms):
    """One `schedule_tti` call read back from the flows: the id of the flow
    granted the TTI (the served flow whose weight reset to 0; None when
    nothing was backlogged) and {flow id: bits sent}, from the
    `delivered_bits` deltas."""
    before = {f.id: f.delivered_bits for f in flows}
    schedule_tti(link, flows, now_ms)
    served = [f for f in flows if f.delivered_bits > before[f.id]]
    winner = next((f.id for f in served if f.weight == 0.0), None)
    return winner, {f.id: f.delivered_bits - before[f.id] for f in served}


def run_backlogged(slopes, n_ttis):
    flows = [backlogged_flow(i, s) for i, s in enumerate(slopes)]
    return [grant_tti(UL, flows, k * UL.tti_ms)[0] for k in range(n_ttis)]


class TestAccumulateWeight:
    """A backlogged flow left unserved for k TTIs holds slope * k."""

    @staticmethod
    def unserved_weight(slope, k):
        f = backlogged_flow(0, slope)
        hog = backlogged_flow(1, 1e9)    # granted every TTI below
        for t in range(k):
            assert grant_tti(UL, [f, hog], t * UL.tti_ms)[0] == 1
        return f.weight

    def test_linear(self):
        assert self.unserved_weight(1.0, 5) == 5.0

    def test_zero_time(self):
        assert self.unserved_weight(3.0, 0) == 0.0

    @given(st.floats(0.1, 100.0), st.integers(0, 200))
    @settings(deadline=None)
    def test_slope_ratio_two_to_one(self, slope, k):
        assert self.unserved_weight(2 * slope, k) == pytest.approx(
            2 * self.unserved_weight(slope, k))


class TestScheduleTti:
    def test_single_backlogged_flow_serves_full_quantum(self):
        # 81.3 Mbps * 0.5 ms = 40,650 bits
        flows = [backlogged_flow(0, 1.0)]
        assert grant_tti(UL, flows, 0.0) == (0, {0: 40650.0})

    def test_empty_buffers_yield_empty_allocation(self):
        flows = [QosFlow(0, UPLINK), QosFlow(1, UPLINK)]
        assert schedule_tti(UL, flows, 0.0) == []
        assert all(f.delivered_bits == 0.0 for f in flows)

    def test_equal_slopes_alternate(self):
        winners = run_backlogged([1.0, 1.0], 10_000)
        assert winners[:4] == [0, 1, 0, 1]
        assert abs(winners.count(0) - winners.count(1)) <= 1

    @pytest.mark.parametrize("high", [2, 3, 5, 8])
    def test_slope_ratio_matches_oracle(self, high):
        n = 10_000
        winners = run_backlogged([float(high), 1.0], n)
        assert winners == oracle_winner_sequence([high, 1.0], n)
        ratio = winners.count(0) / winners.count(1)
        assert ratio == pytest.approx(high, rel=0.02)

    def test_two_to_one_cycle_serves_high_twice_per_three(self):
        winners = run_backlogged([2.0, 1.0], 9)
        # steady repeating cycle: high, high, low
        assert winners == [0, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_served_flow_weight_resets(self):
        flows = [backlogged_flow(0, 1.0), backlogged_flow(1, 1.0)]
        _, sent = grant_tti(UL, flows, 0.0)
        (winner,) = sent
        served = flows[winner]
        unserved = flows[1 - winner]
        assert served.weight == 0.0
        assert unserved.weight == unserved.priority_slope

    def test_residual_spills_to_next_flow(self):
        # primary holds less than one quantum; the rest must not be wasted
        a = QosFlow(0, UPLINK, 8.0)
        a.enqueue(a.make_packet(12_000, 0.0, CAMERA))
        b = backlogged_flow(1, 1.0)
        winner, sent = grant_tti(UL, [a, b], 0.0)
        assert winner == 0
        assert sent == {0: 12_000.0, 1: 40650.0 - 12_000.0}

    def test_departure_times_within_tti(self):
        a = QosFlow(0, UPLINK, 1.0)
        a.enqueue(a.make_packet(12_000, 0.0, CONTROL_STATE))
        (pkt, departure), = schedule_tti(UL, [a], 10.0)
        assert departure == pytest.approx(10.0 + 12_000 / 81.3e6 * 1000.0)
        assert 10.0 < departure < 10.5

    def test_packet_spanning_many_ttis(self):
        a = QosFlow(0, UPLINK, 1.0)
        a.enqueue(a.make_packet(100_000, 0.0, CAMERA))
        completed = []
        for k in range(5):
            completed.extend(schedule_tti(UL, [a], k * 0.5))
        # 100_000 / 40_650 -> finishes in the third TTI
        assert len(completed) == 1
        assert completed[0][1] == pytest.approx(100_000 / 81.3e6 * 1000.0)


class TestSetPriority:
    def test_rejects_non_positive(self):
        f = QosFlow(0, UPLINK, 1.0)
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError):
                set_priority(f, bad)

    def test_weight_preserved_and_slope_applied(self):
        f = backlogged_flow(0, 1.0)
        g = backlogged_flow(1, 1.0)
        for k in range(4):
            schedule_tti(UL, [f, g], k * 0.5)
        w_before = f.weight
        set_priority(f, 8.0)
        assert f.priority_slope == 8.0 and f.weight == w_before
        schedule_tti(UL, [f, g], 2.0)
        assert f.priority_slope == 8.0

    def test_noop_change_keeps_trace_identical(self):
        def trace(touch):
            f, g = backlogged_flow(0, 2.0), backlogged_flow(1, 1.0)
            out = []
            for k in range(200):
                if touch and k == 50:
                    set_priority(f, 2.0)
                out.append(grant_tti(UL, [f, g], k * 0.5)[0])
            return out

        assert trace(False) == trace(True)

    def test_switch_shifts_ratio_toward_eight_to_one(self):
        f, g = backlogged_flow(0, 1.0), backlogged_flow(1, 1.0)
        set_priority(f, 8.0)
        n = 90_000
        winners = []
        for k in range(n):
            winners.append(grant_tti(UL, [f, g], k * 0.5)[0])
        assert winners.count(0) / winners.count(1) == pytest.approx(8.0, rel=0.02)


class TestHeadOfLineDelay:
    def test_empty_buffer(self):
        assert head_of_line_delay(QosFlow(0, UPLINK), now=500.0) == 0.0

    def test_oldest_packet_age(self):
        f = QosFlow(0, UPLINK)
        f.enqueue(f.make_packet(100, 100.0, CAMERA))
        f.enqueue(f.make_packet(100, 110.0, CAMERA))
        assert head_of_line_delay(f, now=127.0) == 27.0

    def test_overload_delay_grows_with_backlog_oracle(self):
        # offered 127 Mbps on an 81.3 Mbps link: backlog grows at the excess
        f = QosFlow(0, UPLINK, 1.0)
        offered = 127e6
        pkt_bits = 12_700
        spacing = pkt_bits / offered * 1000.0
        duration = 10_000.0
        n_ttis = int(duration / UL.tti_ms)
        emitted = 0
        hol = []
        for k in range(n_ttis):
            now = k * UL.tti_ms
            while emitted * spacing < now + UL.tti_ms:
                # a payload keeps each packet a record of its own, with its
                # own created_at; payload-free ones would merge into a run
                f.enqueue(f.make_packet(pkt_bits, emitted * spacing,
                                        BACKGROUND, payload=emitted))
                emitted += 1
            schedule_tti(UL, [f], now)
            if k % 2000 == 0:
                hol.append((now, head_of_line_delay(f, now)))
        warm = [(t, d) for t, d in hol if t >= 2000.0]
        assert all(b[1] > a[1] for a, b in zip(warm, warm[1:]))
        # oldest-packet age grows at (offered - capacity)/offered: the head
        # was enqueued when cumulative service caught up with it
        (t0, d0), (t1, d1) = warm[0], warm[-1]
        expected_slope = (offered - 81.3e6) / offered
        assert (d1 - d0) / (t1 - t0) == pytest.approx(expected_slope, rel=0.05)
        # a fresh arrival waits backlog/capacity, with backlog grown at the
        # offered excess
        backlog_oracle = (offered - 81.3e6) * duration / 1000.0
        assert f.buffered_bits == pytest.approx(backlog_oracle, rel=0.02)
        assert f.buffered_bits / 81.3e6 * 1000.0 == pytest.approx(
            (offered - 81.3e6) / 81.3e6 * duration, rel=0.02)


class TestInvariants:
    @given(st.lists(st.integers(1_000, 60_000), min_size=0, max_size=6),
           st.lists(st.integers(1_000, 60_000), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_work_conservation(self, sizes_a, sizes_b):
        a, b = QosFlow(0, UPLINK, 2.0), QosFlow(1, UPLINK, 1.0)
        for s in sizes_a:
            a.enqueue(a.make_packet(s, 0.0, CAMERA))
        for s in sizes_b:
            b.enqueue(b.make_packet(s, 0.0, BACKGROUND))
        total = a.buffered_bits + b.buffered_bits
        _, sent = grant_tti(UL, [a, b], 0.0)
        assert sum(sent.values()) == pytest.approx(
            min(UL.tti_budget_bits, total))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bit_conservation_under_random_traffic(self, seed):
        import random
        rng = random.Random(seed)
        cap = 200_000 if rng.random() < 0.5 else None
        flows = [QosFlow(i, UPLINK, rng.choice([1.0, 2.0, 8.0]), cap)
                 for i in range(3)]
        for k in range(400):
            now = k * UL.tti_ms
            for f in flows:
                if rng.random() < 0.4:
                    f.enqueue(f.make_packet(rng.randint(500, 50_000), now,
                                            BACKGROUND))
            schedule_tti(UL, flows, now)
            for f in flows:
                assert f.enqueued_bits == pytest.approx(
                    f.buffered_bits + f.delivered_bits + f.dropped_bits)

    def test_starvation_freedom(self):
        # low-slope flow against a much higher slope still gets service
        flows = [backlogged_flow(0, 50.0), backlogged_flow(1, 1.0)]
        last_seen = {0: 0, 1: 0}
        max_gap = {0: 0, 1: 0}
        for k in range(20_000):
            w, _ = grant_tti(UL, flows, k * 0.5)
            for fid in (0, 1):
                if fid == w:
                    max_gap[fid] = max(max_gap[fid], k - last_seen[fid])
                    last_seen[fid] = k
        assert max_gap[1] <= 60    # bounded inter-service gap
        assert last_seen[1] > 19_000

    def test_weight_grows_while_unserved(self):
        flows = [backlogged_flow(0, 9.0), backlogged_flow(1, 1.0)]
        seen = []
        for k in range(8):
            schedule_tti(UL, flows, k * 0.5)
            seen.append(flows[1].weight)
        assert seen == sorted(seen) and seen[-1] > seen[0]

    def test_tail_drop_at_cap(self):
        f = QosFlow(0, UPLINK, buffer_cap_bits=10_000)
        assert f.enqueue(f.make_packet(9_000, 0.0, CAMERA))
        assert not f.enqueue(f.make_packet(9_000, 0.0, CAMERA))
        assert f.dropped_bits == 9_000
        assert f.buffered_bits == 9_000

    def test_flush_of_partly_sent_head(self):
        # one TTI sends 40 650 bits of a 100 000-bit packet; those count
        # as delivered once, and the flush drops the other 59 350
        f = QosFlow(0, UPLINK)
        f.enqueue(f.make_packet(100_000, 0.0, CAMERA))
        schedule_tti(UL, [f], 0.0)
        assert f.flush() == 59_350
        assert (f.delivered_bits, f.dropped_bits, f.buffered_bits,
                f.head_served_bits) == (40_650, 59_350, 0.0, 0.0)
        assert not f.buffer

