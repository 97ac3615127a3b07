"""Cell-level behavior: goodput splits, RTT calibration, rate adjustment."""

import itertools
import math
import random
import statistics
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavqos.cell
from conftest import ReferenceLink, TaggedCamera, head_of_line_delay
from uavqos.cell import (
    CellModel,
    FrameSource,
    PacedSource,
    PeriodicSource,
    SimulationContractError,
)
from uavqos.scheduler import (
    BACKGROUND,
    CAMERA,
    COMMAND,
    CONTROL_STATE,
    DOWNLINK,
    UPLINK,
    LinkConfig,
)

UL = LinkConfig(81.3e6, 0.5, 13.65)
DL = LinkConfig(1400e6, 0.5, 13.65)


def stamped_control(hz=100.0):
    """A control stream whose packets carry their due time, so that each
    is delivered as a packet of its own."""
    return PeriodicSource(hz, 12_000, payload_fn=lambda due: due)


def build_cell(uav_slope=1.0, bg_window=None, bg_rate=80e6, cam_rate=45.8e6,
               camera=FrameSource, outages=()):
    cell = CellModel(UL, DL, outages=outages)
    uav = cell.add_flow(UPLINK, uav_slope)
    cmd = cell.add_flow(DOWNLINK, 1.0)
    cam = camera(cam_rate, 30.0)
    cell.attach_source(stamped_control(), uav)
    cell.attach_source(cam, uav)
    bg = None
    if bg_window is not None:
        bg = cell.add_flow(UPLINK, 1.0)
        cell.attach_source(PacedSource(bg_rate, bg_window), bg)
    return cell, uav, cmd, bg, cam


def drive(cell, cmd_flow, duration_ms, echo=True, exchanges=None):
    """Run the cell with the edge echoing every control packet as the
    engine does; RTT samples are (control created_at, rtt) pairs, the
    platform and background bits are those that arrived during the drive,
    and `exchanges`, when given, collects (control, its arrival, command,
    its arrival) for every echo that came back, from the arrival stamps
    `step` returns."""
    rtts = []
    before = dict(cell.arrived_bits)
    deliveries = 0
    ctrl_arrival = {}
    for k in range(int(duration_ms / UL.tti_ms)):
        for arrival, pkt in cell.step():
            deliveries += 1
            if pkt.kind == COMMAND:
                ctrl, _ = pkt.payload
                rtts.append((ctrl.created_at,
                             (pkt.created_at - ctrl.created_at)
                             + (arrival - pkt.created_at)))
                if exchanges is not None:
                    exchanges.append((ctrl, ctrl_arrival.pop(ctrl), pkt,
                                      arrival))
            elif pkt.kind == CONTROL_STATE and echo:
                ctrl_arrival[pkt] = arrival
                cmd_flow.enqueue(cmd_flow.make_packet(2000, arrival, COMMAND,
                                                      (pkt, None)))
    arrived = {k: bits - before[k] for k, bits in cell.arrived_bits.items()}
    uav_bits = arrived[CONTROL_STATE] + arrived[CAMERA]
    return rtts, uav_bits, arrived[BACKGROUND], deliveries


class TestStep:
    def test_idle_cell_advances_clock_without_deliveries(self):
        cell = CellModel(UL, DL)
        cell.add_flow(UPLINK, 1.0)
        delivered = 0
        for _ in range(100):
            delivered += len(cell.step())
        assert delivered == 0
        assert cell.clock == pytest.approx(50.0)

    def test_clock_counts_ticks(self):
        # 0.1 ms is inexact in binary: a clock summed tick by tick reads
        # 20.000000000000014 after 200 steps and would enqueue the packet
        # due at 20 ms in the tick before it exists
        link = LinkConfig(81.3e6, 0.1, 13.65)
        cell = CellModel(link, link)
        flow = cell.add_flow(UPLINK, 1.0)
        cell.attach_source(stamped_control(), flow)
        for _ in range(200):
            cell.step()
        assert cell.clock == 20.0
        assert flow.enqueued_bits == 2 * 12_000

    def test_single_source_goodput(self):
        cell, uav, cmd, bg, _ = build_cell()
        _, uav_bits, _, _ = drive(cell, cmd, 10_000, echo=False)
        assert uav_bits / 10_000 * 1000 / 1e6 == pytest.approx(47.0, abs=1.0)

    def test_equal_slopes_split_capacity_fairly(self):
        cell, uav, cmd, bg, _ = build_cell(bg_window=(0.0, 20_000.0))
        _, uav_bits, bg_bits, _ = drive(cell, cmd, 20_000, echo=False)
        # warm-up is negligible over 20 s: both flows converge on ~40.65
        assert uav_bits / 20 / 1e6 == pytest.approx(40.65, abs=1.0)
        assert bg_bits / 20 / 1e6 == pytest.approx(40.65, abs=1.0)


def count_schedule_calls(monkeypatch):
    """Wrap the `schedule_tti` the cell calls; returns the list that
    collects (link, now_ms, result) for every call."""
    calls = []
    real = uavqos.cell.schedule_tti

    def counted(link, flows, now_ms):
        result = real(link, flows, now_ms)
        calls.append((link, now_ms, result))
        return result

    monkeypatch.setattr(uavqos.cell, "schedule_tti", counted)
    return calls


class TestIdleTtis:
    """`schedule_tti` alone decides what an idle TTI does: the cell calls
    it for each direction on every tick the link is up."""

    def test_one_call_per_direction_per_tick_outside_outages(self,
                                                            monkeypatch):
        calls = count_schedule_calls(monkeypatch)
        cell, uav, cmd, bg, _ = build_cell(outages=[(30.0, 40.0)])
        drive(cell, cmd, 100.0)
        up = [k * 0.5 for k in range(200) if not 30.0 <= k * 0.5 < 40.0]
        assert [(link, now) for link, now, _ in calls] == \
            [(link, now) for now in up for link in (UL, DL)]
        # the downlink carried echoes, and was idle on most ticks
        dl = [result for link, _, result in calls if link is DL]
        assert any(dl) and dl.count([]) > len(dl) // 2

    def test_all_idle_call_returns_nothing_and_zeroes_weights(self,
                                                             monkeypatch):
        calls = count_schedule_calls(monkeypatch)
        cell = CellModel(UL, DL)
        flows = [cell.add_flow(UPLINK, 1.0), cell.add_flow(UPLINK, 2.0),
                 cell.add_flow(DOWNLINK, 1.0)]
        for f in flows:
            f.weight = 3.0
        assert cell.step() == []
        assert [(link, result) for link, _, result in calls] == \
            [(UL, []), (DL, [])]
        assert [f.weight for f in flows] == [0.0, 0.0, 0.0]

    def test_cell_without_downlink_flow_steps(self, monkeypatch):
        calls = count_schedule_calls(monkeypatch)
        cell = CellModel(UL, DL)
        uav = cell.add_flow(UPLINK, 1.0)
        cell.attach_source(stamped_control(), uav)
        cell.attach_source(FrameSource(45.8e6, 30.0), uav)
        delivered = [pkt for _ in range(100) for _, pkt in cell.step()]
        assert delivered and all(p.kind != COMMAND for p in delivered)
        assert [result for link, _, result in calls if link is DL] == \
            [[]] * 100


class TestOutageGate:
    """The cell schedules both directions on exactly the ticks whose start
    lies in no [start, end) outage window, although it looks at the
    windows only at their edges."""

    @staticmethod
    def scheduled_ticks(outages, n_ticks):
        calls = []
        real = uavqos.cell.schedule_tti

        def counted(link, flows, now_ms):
            calls.append(now_ms)
            return real(link, flows, now_ms)

        cell, uav, cmd, bg, _ = build_cell(outages=outages)
        per_tick = []
        with mock.patch.object(uavqos.cell, "schedule_tti", counted):
            for _ in range(n_ticks):
                before = len(calls)
                now = cell.clock
                cell.step()
                per_tick.append((now, len(calls) - before))
        return per_tick

    def test_adjacent_overlapping_and_open_windows(self):
        # adjacent from 0, one inside another, two that overlap, edges off
        # the tick grid, and one that ends past the run; not sorted
        outages = [(13.5, 16.25), (1.5, 3.0), (0.0, 1.5), (10.0, 14.0),
                   (12.0, 13.0), (45.5, 1e9), (20.1, 22.0)]
        per_tick = self.scheduled_ticks(outages, 100)
        for now, calls in per_tick:
            up = not any(a <= now < b for a, b in outages)
            assert calls == (2 if up else 0), now
        assert [now for now, calls in per_tick if calls][:2] == [3.0, 3.5]
        assert per_tick[-1] == (49.5, 0)

    @given(st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 12.0)),
                    max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_windows(self, windows):
        outages = [(a, a + span) for a, span in windows]
        for now, calls in self.scheduled_ticks(outages, 80):
            up = not any(a <= now < b for a, b in outages)
            assert calls == (2 if up else 0), now


class TestRtt:
    def test_unloaded_rtt_calibration(self):
        cell, uav, cmd, bg, _ = build_cell()
        rtts, _, _, _ = drive(cell, cmd, 15_000)
        vals = [rtt for sent_at, rtt in rtts if sent_at > 2_000]
        assert statistics.mean(vals) == pytest.approx(27.3, abs=1.0)
        assert statistics.pstdev(vals) < 0.2

    def test_prioritized_rtt_stays_within_jitter_of_unloaded(self):
        cell, uav, cmd, bg, _ = build_cell(uav_slope=8.0,
                                           bg_window=(0.0, 15_000.0))
        rtts, _, _, _ = drive(cell, cmd, 15_000)
        vals = [rtt for sent_at, rtt in rtts if sent_at > 2_000]
        assert statistics.mean(vals) == pytest.approx(28.1, abs=1.0)

    def test_unprioritized_overload_rtt_rises(self):
        cell, uav, cmd, bg, _ = build_cell(bg_window=(2_000.0, 30_000.0))
        rtts, _, _, _ = drive(cell, cmd, 30_000)
        by_time = [(t, rtt) for t, rtt in rtts if t > 4_000]
        quarters = len(by_time) // 4
        q_means = [statistics.mean(r for _, r in by_time[i * quarters:
                                                         (i + 1) * quarters])
                   for i in range(4)]
        assert q_means == sorted(q_means)
        assert q_means[-1] > 3 * q_means[0]
        assert q_means[-1] > 1_000.0   # seconds of bloat by run end

    def test_additivity_exact(self):
        cell, uav, cmd, bg, _ = build_cell()
        exchanges = []
        rtts, _, _, _ = drive(cell, cmd, 5_000, exchanges=exchanges)
        assert len(exchanges) == len(rtts) > 0
        for (ctrl, ctrl_at, cmd_pkt, cmd_at), (_, rtt) in zip(exchanges,
                                                               rtts):
            assert cmd_pkt.created_at == ctrl_at
            assert rtt == (ctrl_at - ctrl.created_at) + \
                (cmd_at - cmd_pkt.created_at)
            assert rtt >= 2 * 13.65


class TestBufferDynamics:
    def test_underload_head_of_line_bounded(self):
        cell, uav, cmd, bg, _ = build_cell(camera=TaggedCamera)
        worst = 0.0
        for k in range(int(20_000 / 0.5)):
            cell.step()
            worst = max(worst, head_of_line_delay(uav, cell.clock))
        # bound: one frame serialization plus scheduling jitter
        assert worst < 1_526_667 / 81.3e6 * 1000.0 + 2.0

    def test_overload_backlog_matches_closed_form(self):
        cell, uav, cmd, bg, _ = build_cell(bg_window=(0.0, 20_000.0))
        drive(cell, cmd, 20_000, echo=False)
        excess = (47e6 + 80e6 - 81.3e6) * 20.0
        assert cell.buffered_bits(UPLINK) == pytest.approx(excess, rel=0.02)

    def test_uav_hol_delay_monotone_under_overload(self):
        cell, uav, cmd, bg, _ = build_cell(bg_window=(1_000.0, 30_000.0),
                                           camera=TaggedCamera)
        samples = []
        for k in range(int(30_000 / 0.5)):
            cell.step()
            if k % 200 == 0 and cell.clock > 3_000:
                samples.append(head_of_line_delay(uav, cell.clock))
        assert all(b >= a for a, b in zip(samples, samples[1:]))


class TestSetSourceRate:
    def test_rate_change_applies_at_next_frame_boundary(self):
        cam = FrameSource(47e6, 30.0)
        first = cam.emit_until(1000.0 / 30.0)     # first full frame
        cam.set_rate(47e6 * 0.8)
        second = cam.emit_until(2 * 1000.0 / 30.0)
        bits_first = sum(size * count for _, size, _, _, count in first)
        bits_second = sum(size * count for _, size, _, _, count in second)
        assert bits_first == round(47e6 / 30)
        assert bits_second == round(47e6 * 0.8 / 30)
        assert bits_second / bits_first == pytest.approx(0.8, abs=1e-3)

    def test_nominal_is_noop(self):
        cam = FrameSource(47e6, 30.0)
        cam.set_rate(47e6)
        frames = cam.emit_until(1000.0)
        per_frame = [0]
        for due, size, _, frame_start, count in frames:
            per_frame[-1] += size * count
            if frame_start is not None:    # the frame's last packet
                per_frame.append(0)
        assert per_frame.pop() == 0
        assert set(per_frame) == {round(47e6 / 30)}

    def test_below_floor_clamps_and_flags(self):
        cam = FrameSource(47e6, 30.0, floor_bps=5e6)
        applied = cam.set_rate(1e6)
        assert applied == 5e6

    def test_repeated_reduction_reaches_floor_after_eleven_steps(self):
        cam = FrameSource(47e6, 30.0, floor_bps=5e6)
        rate = cam.rate_bps
        steps = 0
        while rate > 5e6:
            rate = cam.set_rate(rate * 0.8)
            steps += 1
        assert steps == 11
        assert not math.isclose(47e6 * 0.8 ** 10, 5e6) and \
            47e6 * 0.8 ** 10 > 5e6 > 47e6 * 0.8 ** 11

    def test_inactive_source_emits_nothing(self):
        cam = FrameSource(47e6, 30.0)
        cam.set_active(False, 0.0)
        assert cam.emit_until(1_000.0) == []
        cam.set_active(True, 1_000.0)
        outs = cam.emit_until(1_100.0)
        assert outs and min(due for due, *_ in outs) >= 1_000.0


def sort_and_regroup(batches):
    """The records a FIFO should hold for per-packet (due, bits, kind,
    payload) items of one flow, one batch per tick and source in attach
    order: the items sorted by due (stable, so a tie keeps the attach
    order), then one (due, bits, kind, payload, count) record per packet
    that carries a payload and one per stretch of equal payload-free
    packets."""
    items = sorted(itertools.chain(*batches), key=lambda x: x[0])
    records = []
    i, n = 0, len(items)
    while i < n:
        due, bits, kind, payload = items[i]
        j = i + 1
        if payload is None:
            while j < n and items[j][3] is None and \
                    items[j][1] == bits and items[j][2] == kind:
                j += 1
        records.append((due, bits, kind, payload, j - i))
        i = j
    return records


def expand(runs):
    """One (due, bits, kind, payload) per packet of `runs`; a run names
    only its first packet's due, so the others read None."""
    return [(due if i == 0 else None, bits, kind, payload)
            for due, bits, kind, payload, count in runs
            for i in range(count)]


class ClosedFormCamera:
    """`FrameSource` packet by packet: frame f starts at f * interval and
    holds full packets plus a remainder, packet i of n is due at
    start + i * (interval / n), and the last carries the frame start. A
    rate request latches when a frame is planned; a restart skips the
    frames that elapsed while off."""

    def __init__(self, rate_bps, frame_hz, packet_bits, floor_bps=5e6):
        self.rate, self.hz, self.bits = rate_bps, frame_hz, packet_bits
        self.floor = floor_bps
        self.interval = 1000.0 / frame_hz
        self.pending = None
        self.frame = 0
        self.plan = deque()
        self.active = True

    def set_rate(self, rate_bps):
        self.pending = max(rate_bps, self.floor)
        return self.pending

    def set_active(self, active, now_ms):
        if active and not self.active:
            self.frame = math.ceil(now_ms / self.interval)
            self.plan.clear()
        self.active = active

    def next_due(self):
        if not self.active:
            return math.inf
        return self.plan[0][0] if self.plan else self.frame * self.interval

    def emit_until(self, end_ms):
        out = []
        while self.next_due() < end_ms:
            if not self.plan:
                if self.pending is not None:
                    self.rate, self.pending = self.pending, None
                total = round(self.rate / self.hz)
                sizes = [self.bits] * (total // self.bits)
                if total % self.bits:
                    sizes.append(total % self.bits)
                start = self.frame * self.interval
                spacing = self.interval / len(sizes)
                self.plan.extend(
                    (start + i * spacing, size, CAMERA,
                     start if i == len(sizes) - 1 else None)
                    for i, size in enumerate(sizes))
                self.frame += 1
            out.append(self.plan.popleft())
        return out


class ClosedFormStream:
    """Packet i due at start + i * spacing while before stop (the
    periodic and the paced source), packet by packet."""

    def __init__(self, start, spacing, stop, bits, kind, payload_fn=None):
        self.start, self.spacing, self.stop = start, spacing, stop
        self.bits, self.kind, self.payload_fn = bits, kind, payload_fn
        self.i = 0

    def next_due(self):
        due = self.start + self.i * self.spacing
        return due if due < self.stop else math.inf

    def emit_until(self, end_ms):
        out = []
        while self.next_due() < end_ms:
            due = self.next_due()
            out.append((due, self.bits, self.kind,
                        self.payload_fn(due) if self.payload_fn else None))
            self.i += 1
        return out


def assert_same_packets(runs, packets):
    """`runs` (one emit_until call) against the closed form's packets of
    the same call: packet by packet, and as the cell used to group them."""
    got = expand(runs)
    assert len(got) == len(packets)
    for (due, *rest), (want_due, *want_rest) in zip(got, packets):
        assert rest == want_rest
        assert due is None or due == want_due
    assert runs == sort_and_regroup([packets])


# one step of a camera drive: advance the tick end by a span, or to just
# the next frame start, request a rate, or switch the camera off or on
CAMERA_OPS = st.lists(st.one_of(
    st.tuples(st.just("tick"), st.floats(0.0, 12.0)),
    st.tuples(st.just("boundary"), st.none()),
    st.tuples(st.just("rate"), st.floats(1e6, 60e6)),
    st.tuples(st.just("active"), st.booleans())), max_size=40)


class TestSourceRuns:
    """Each source's runs, expanded packet by packet, against a closed
    form of its packets (`ClosedFormCamera`, `ClosedFormStream`)."""

    @given(st.floats(5e6, 60e6), st.sampled_from([30.0, 7.0, 1000.0 / 3.0]),
           st.sampled_from([12_000, 1_500, 7_001]), CAMERA_OPS)
    @settings(max_examples=80, deadline=None)
    def test_camera_matches_closed_form(self, rate, hz, packet_bits, ops):
        cam = FrameSource(rate, hz, packet_bits)
        ref = ClosedFormCamera(rate, hz, packet_bits)
        end = 0.0
        for op, value in ops:
            if op == "rate":
                assert cam.set_rate(value) == ref.set_rate(value)
                continue
            if op == "active":
                cam.set_active(value, end)
                ref.set_active(value, end)
            else:
                if op == "tick":
                    end += value
                else:   # the next frame start: its rate is not latched yet
                    end = (math.floor(end / ref.interval) + 1) \
                        * ref.interval
                assert_same_packets(cam.emit_until(end), ref.emit_until(end))
            assert cam.next_due == ref.next_due()

    @given(st.floats(1.0, 5_000.0),
           st.lists(st.floats(0.0, 5.0), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_periodic_matches_closed_form(self, hz, spans):
        def payload_fn(due):
            return ("state", due)

        src = PeriodicSource(hz, 12_000, payload_fn)
        ref = ClosedFormStream(0.0, 1000.0 / hz, math.inf, 12_000,
                               CONTROL_STATE, payload_fn)
        end = 0.0
        for span in spans:
            end += span
            assert_same_packets(src.emit_until(end), ref.emit_until(end))
            assert src.next_due == ref.next_due()

    @given(st.floats(1e6, 200e6), st.floats(0.0, 30.0), st.floats(0.0, 60.0),
           st.lists(st.floats(0.0, 5.0), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_paced_matches_closed_form(self, rate, start, stop, spans):
        src = PacedSource(rate, (start, stop), 12_000)
        ref = ClosedFormStream(start, 12_000 / rate * 1000.0, stop, 12_000,
                               BACKGROUND)
        end = 0.0
        for span in spans:
            end += span
            assert_same_packets(src.emit_until(end), ref.emit_until(end))
            assert src.next_due == ref.next_due()


# a link that never schedules, so that a flow's FIFO keeps every record
HELD = [(0.0, math.inf)]


def fifo_records(flow):
    return [(p.created_at, p.bits, p.kind, p.payload, p.count)
            for p in flow.buffer]


class TestMergeOrder:
    """Several sources on one flow: the flow's FIFO holds the records that
    sorting the packets by due and regrouping them gives, with a tie to
    the source attached first."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scripted_ties_match_sort_and_regroup(self, seed):
        rng = random.Random(seed)
        cell = CellModel(UL, DL, outages=HELD)
        flow = cell.add_flow(UPLINK, 1.0)
        sources = [ScriptedSource() for _ in range(rng.choice([2, 3]))]
        for src in sources:
            cell.attach_source(src, flow)
        batches = []
        for _ in range(60):
            for src in sources:
                # dues on a coarse grid, so that sources tie often
                dues = sorted(cell.clock + 0.125 * rng.randint(0, 3)
                              for _ in range(rng.randint(0, 4)))
                batch = []
                for due in dues:
                    bits = rng.choice([12_000, 4_000])
                    kind = rng.choice([CAMERA, BACKGROUND])
                    payload = rng.choice([None, None, (due, bits)])
                    count = 1 if payload else rng.randint(1, 3)
                    runs = src.next
                    if payload is None and runs and \
                            runs[-1][1:4] == (bits, kind, None):
                        # a source's runs are maximal: the run goes on
                        due = runs[-1][0]
                        runs[-1] = (*runs[-1][:4], runs[-1][4] + count)
                    else:
                        runs.append((due, bits, kind, payload, count))
                    batch += [(due, bits, kind, payload)] * count
                batches.append(batch)
            cell.step()
            assert fifo_records(flow) == sort_and_regroup(batches)

    def test_engine_sources_match_sort_and_regroup(self):
        # a stamped 100 Hz control stream, a camera, and a paced stream of
        # 4 000-bit packets every 20 ms that carries nothing and ties the
        # control stream at each of its packets
        def stamp(due):
            return ("state", due)

        cell = CellModel(UL, DL, outages=HELD)
        flow = cell.add_flow(UPLINK, 1.0)
        pairs = [(PeriodicSource(100.0, 12_000, stamp),
                  ClosedFormStream(0.0, 10.0, math.inf, 12_000,
                                   CONTROL_STATE, stamp)),
                 (FrameSource(45.8e6, 30.0),
                  ClosedFormCamera(45.8e6, 30.0, 12_000)),
                 (PacedSource(200_000.0, (0.0, math.inf), 4_000),
                  ClosedFormStream(0.0, 20.0, math.inf, 4_000,
                                   BACKGROUND))]
        for src, _ in pairs:
            cell.attach_source(src, flow)
        ties = 0
        batches = []
        for k in range(1, 2001):
            tick = [ref.emit_until(k * UL.tti_ms) for _, ref in pairs]
            dues = [item[0] for batch in tick for item in batch]
            ties += len(dues) - len(set(dues))
            batches += tick
            cell.step()
        assert fifo_records(flow) == sort_and_regroup(batches)
        assert ties >= 50

    def test_payload_free_sources_share_fifo_records(self):
        # two background streams of one packet size, which tie every
        # 12 ms, and a stamped control stream that breaks their runs
        cell = CellModel(UL, DL, outages=HELD)
        flow = cell.add_flow(UPLINK, 1.0)
        pairs = [(PacedSource(rate, (0.0, math.inf)),
                  ClosedFormStream(0.0, 12_000 / rate * 1000.0, math.inf,
                                   12_000, BACKGROUND))
                 for rate in (3e6, 2e6)]
        pairs.append((stamped_control(),
                      ClosedFormStream(0.0, 10.0, math.inf, 12_000,
                                       CONTROL_STATE, lambda due: due)))
        for src, _ in pairs:
            cell.attach_source(src, flow)
        batches = []
        for k in range(1, 401):
            batches += [ref.emit_until(k * UL.tti_ms) for _, ref in pairs]
            cell.step()
        records = fifo_records(flow)
        assert records == sort_and_regroup(batches)
        # the first record holds the packets both streams have at 0 ms
        assert records[0] == (0.0, 12_000, BACKGROUND, None, 2)

    def test_source_without_progress_raises(self):
        class Stuck:
            """Due at 0 ms, yet emits nothing and never moves on; fails
            the test instead of hanging it if the merge keeps asking."""

            next_due = 0.0
            calls = 0

            def emit_until(self, end_ms):
                self.calls += 1
                if self.calls > 3:
                    raise AssertionError("merge kept calling a stuck source")
                return []

        cell = CellModel(UL, DL)
        flow = cell.add_flow(UPLINK, 1.0)
        cell.attach_source(stamped_control(), flow)
        cell.attach_source(Stuck(), flow)
        with pytest.raises(SimulationContractError, match="Stuck"):
            cell.step()



class TestJitter:
    def run_with_jitter(self, seed):
        import numpy as np
        cell = CellModel(UL, DL, jitter_ms=0.5,
                         jitter_rng=np.random.default_rng(seed))
        uav = cell.add_flow(UPLINK, 1.0)
        cmd = cell.add_flow(DOWNLINK, 1.0)
        cell.attach_source(stamped_control(), uav)
        rtts, _, _, _ = drive(cell, cmd, 3_000)
        return [rtt for _, rtt in rtts]

    def test_jitter_perturbs_but_preserves_additivity(self):
        vals = self.run_with_jitter(3)
        assert statistics.pstdev(vals) > 0.05     # default-off path is flat
        assert all(26.0 < v < 30.0 for v in vals)

    def test_jitter_deterministic_per_seed(self):
        assert self.run_with_jitter(3) == self.run_with_jitter(3)
        assert self.run_with_jitter(3) != self.run_with_jitter(4)


class ScriptedSource:
    """Emits the (due, bits, kind, payload, count) runs the test put in
    `next`, in due order: on each call, those due before its end."""

    def __init__(self):
        self.next = []

    @property
    def next_due(self):
        return self.next[0][0] if self.next else math.inf

    def emit_until(self, end_ms):
        k = 0
        while k < len(self.next) and self.next[k][0] < end_ms:
            k += 1
        out, self.next = self.next[:k], self.next[k:]
        return out


class TestRunLengthFifo:
    """The cell's run-length FIFOs against per-packet FIFOs
    (`conftest.ReferenceLink`) fed the same random traffic: payload-free
    runs of mixed sizes and kinds between packets that carry a payload, a
    budget that splits packets across TTIs, an optional cap, jitter, and
    flushes in the middle of a partly served run."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_packet_reference(self, seed):
        rng = random.Random(seed)
        capacity = rng.choice([20e6, 23.3e6, 20.0003e6])
        cap = rng.choice([None, 60_000, 150_000])
        jitter = rng.choice([0.0, 0.3])
        slopes = [rng.choice([1.0, 2.0, 8.0]) for _ in range(2)]
        link = LinkConfig(capacity, 0.5, 1.5, buffer_cap_bits=cap)
        cell = CellModel(link, DL, jitter_ms=jitter,
                         jitter_rng=np.random.default_rng(seed))
        flows = [cell.add_flow(UPLINK, s) for s in slopes]
        ref = ReferenceLink(link, slopes, jitter,
                            np.random.default_rng(seed))
        # flow 0: camera-like packets, some carrying a payload, plus a
        # control stream; flow 1: background of mixed sizes
        sources = [(ScriptedSource(), 0, CAMERA, [12_000, 12_000, 4_000],
                    0.15, 3),
                   (ScriptedSource(), 0, CONTROL_STATE, [12_000], 0.7, 1),
                   (ScriptedSource(), 1, BACKGROUND, [12_000, 7_000], 0.0,
                    rng.choice([1, 3, 5]))]
        for src, fid, *_ in sources:
            cell.attach_source(src, flows[fid])
        next_id = 0
        flushes = 0
        for _ in range(400):
            emitted = [[], []]
            for src, fid, kind, sizes, p_payload, most in sources:
                dues = sorted(cell.clock + rng.uniform(0.0, 0.5)
                              for _ in range(rng.randint(0, most)))
                for due in dues:
                    payload = None
                    if rng.random() < p_payload:
                        payload, next_id = next_id, next_id + 1
                    src.next.append((due, rng.choice(sizes), kind, payload,
                                     1))
                emitted[fid] += [run[:4] for run in src.next]
            emitted = [sorted(items, key=lambda x: x[0]) for items in emitted]
            before = dict(cell.arrived_bits)

            got = [(p.payload, arrival) for arrival, p in cell.step()]
            want, want_bits = ref.step(emitted)
            assert got == want
            got_bits = {k: v - before[k] for k, v in cell.arrived_bits.items()
                        if v != before[k]}
            assert got_bits == want_bits

            for flow, model in zip(flows, ref.flows):
                if flow.head_served_bits > 0 and flow.buffer[0].count > 1 \
                        and rng.random() < 0.3:
                    flow.flush()
                    model.flush()
                    flushes += 1
                assert (flow.enqueued_bits, flow.buffered_bits,
                        flow.delivered_bits, flow.dropped_bits) == \
                    (model.enqueued_bits, model.buffered_bits,
                     model.delivered_bits, model.dropped_bits)
                assert flow.enqueued_bits == pytest.approx(
                    flow.buffered_bits + flow.delivered_bits
                    + flow.dropped_bits)
        assert flushes > 0
