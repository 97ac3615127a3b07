"""Acceptance suite: end-to-end criteria at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The four bundled scenarios execute once each (module-scoped
fixtures) and every criterion interrogates the resulting traces.
"""

import hashlib
import math
import statistics
import time

import numpy as np
import pytest

from conftest import TaggedCamera, head_of_line_delay, make_config, \
    raw_scenario
from test_scheduler import grant_tti, oracle_winner_sequence, run_backlogged
from uavqos.cell import CellModel, PacedSource, PeriodicSource
from uavqos.engine import Simulation, run
from uavqos.fsm import (
    HIGH_LATENCY,
    HIGH_RISK,
    LOW_RISK,
    MIDDLE_RISK,
    Q1,
    Q3,
    QA,
    STATES,
    STOCHASTIC,
    SUCCESSORS,
    emit_signals,
    transition,
)
from uavqos.output import emit, summary_json, trace_csv_lines
from uavqos.scenario import (
    LinkConfig,
    PfsmConfig,
    SigmoidParams,
    SourceConfig,
    parse_config,
)
from uavqos.scheduler import BACKGROUND, UPLINK, QosFlow
from uavqos.sensing import (
    clutter_prob,
    risk_update,
    sigmoid_prob,
    window_mean,
)

UPLINK_CAPACITY = 81.3e6
UAV_OFFERED = 47e6
BG_OFFERED = 80e6


@pytest.fixture(scope="module")
def baseline_run():
    cfg = make_config("no_qos_no_bg")
    # the run's own CPU seconds: it is single-threaded and CPU-bound, and
    # wall-clock time would follow the host's load
    t0 = time.process_time()
    traces, summary = run(cfg)
    cpu = time.process_time() - t0
    return traces, summary, cpu


@pytest.fixture(scope="module")
def overload_run():
    return run(make_config("no_qos_bg"))


@pytest.fixture(scope="module")
def priority_run():
    return run(make_config("priority_qos_bg"))


@pytest.fixture(scope="module")
def dynamic_run():
    return run(make_config("dynamic_qos_bg"))


def outage_config():
    """45 s of bundled dynamic_qos_bg without background at 10 m, with the
    link down from 30 to 35 s."""
    raw = raw_scenario("dynamic_qos_bg")
    raw["duration_ms"] = 45_000.0
    del raw["background"]
    raw["environment"] = [{"spaciousness_m": 10.0}]
    raw["link_outages_ms"] = [[30_000.0, 35_000.0]]
    return parse_config(raw)


@pytest.fixture(scope="module")
def outage_run():
    return run(outage_config())


def short_priority_run(edit):
    """30 s of bundled priority_qos_bg with the background on from 5 to
    20 s, after `edit` has changed the raw document."""
    raw = raw_scenario("priority_qos_bg")
    raw["duration_ms"] = 30_000.0
    raw["background"]["active_window_ms"] = [5_000.0, 20_000.0]
    edit(raw)
    return run(parse_config(raw))


@pytest.fixture(scope="module")
def jitter_run():
    return short_priority_run(lambda raw: raw.update(jitter_ms=0.8))


@pytest.fixture(scope="module")
def capped_run():
    return short_priority_run(
        lambda raw: raw["uplink"].update(buffer_cap_bits=600_000))


@pytest.fixture(scope="module")
def noisy_risk_run():
    """10 s of bundled dynamic_qos_bg with the background on from 3 to 8 s
    in cluttered surroundings (2.5 m, high risk) until 5 s, then 6 m, both
    with noisy ranges."""
    raw = raw_scenario("dynamic_qos_bg")
    raw["duration_ms"] = 10_000.0
    raw["background"]["active_window_ms"] = [3_000.0, 8_000.0]
    raw["environment"] = [
        {"spaciousness_m": 2.5, "until_ms": 5_000.0, "noise_std": 0.5},
        {"spaciousness_m": 6.0, "noise_std": 0.5}]
    return run(parse_config(raw))


@pytest.fixture(scope="module")
def non_finite_run():
    """2 s of bundled no_qos_no_bg with gains and a clamp so large that the
    plant state turns non-finite, at 70 ms; the run keeps the last finite
    state."""
    raw = raw_scenario("no_qos_no_bg")
    raw["duration_ms"] = 2_000.0
    raw["plant"] = {"kp": 1e308, "command_limit": 1e308,
                    "circle_radius_m": 10.0}
    return run(parse_config(raw))


@pytest.fixture(scope="module")
def three_stream_run():
    """30 s of bundled dynamic_qos_bg that draws from all three random
    streams: noisy ranges at 4 m, stochastic signals and 0.3 ms jitter."""
    raw = raw_scenario("dynamic_qos_bg")
    raw["duration_ms"] = 30_000.0
    raw["pfsm"]["mode"] = STOCHASTIC
    raw["jitter_ms"] = 0.3
    raw["environment"] = [{"spaciousness_m": 4.0, "noise_std": 0.5}]
    return run(parse_config(raw))


# sha256 of the trace.csv and summary.json bytes `emit` writes for each run
OUTPUT_DIGESTS = {
    "baseline_run": (
        "98d4fe14d25d5b636f22cff509a04a6b122246e33d3ed591800ef2608c004927",
        "ff12eab96d64b62b54353cb39d412953bb86401713bcbc80d4a20cad9ec33224"),
    "overload_run": (
        "43831abaac7c291382fdf6baf0cdfc1567cde140dbc83b0c19d6128f3d2023ea",
        "6a077484605f474cdc606755213145700f907288af246a5d42dde6fbf8b48e42"),
    "priority_run": (
        "86b14de0074c06e5dbedabc587ae494dde0f768a81ebaca0b6b3a47aad2b0f6c",
        "2348d5df1d4e24fa63ab7fec2f3bb7d41cb7b455fc3509cfa26c4da28eb0f2af"),
    "dynamic_run": (
        "73900f2ebc60616cb5c306033fedcb3aaa2fedbd84f1e6f5669b60fee036d340",
        "827f40b921fac1d62646500d06449c608d0d6cfa9622418f63834bbc772e1575"),
    "outage_run": (
        "4c571652cc624c322af6da6c091c9e9c577213013c1c74c8b3d95961558ceead",
        "47287fe269e8d82b6ae529a2ed76d54c14a75c3eb1794ca17e3eb8f3fa2cf6c3"),
    "jitter_run": (
        "5c888a31e1c04b18154bce7b218acb71e7c77e2ee635126d09075649e7f6b024",
        "fc56a789adf8ad1a88fe4a8c6395fce38e42b79529d4b30b0d995f4997624d91"),
    "capped_run": (
        "ffc10ea4f9efe9701bedc34e4bf172d3077727c771a2f6d0fdb85013ca23d966",
        "dec3d68651e8c339dcac7931ac7165677e5e2baf2f54e5499eee1f702e3af7e0"),
    "noisy_risk_run": (
        "9436a900f80753a02b2310e36762ff7a98d5d727dad47e533f36eda823ed677c",
        "8fd227b9e77b2e3312b04cc446606b2a857b0c1f875ff15e28715b6af925a9a6"),
    "non_finite_run": (
        "5f9ccc7c807cdbb8648c2a1019e2ac1b0dcdd541e2e8c39379e43c8df2dc20c3",
        "b72f559bbc686a0accb179f8f66247bf5c011250bf5188f67d4fa24bb2b81226"),
    "three_stream_run": (
        "511ca213bfe0014f74694e835dc4639978ba93823439df25ee1f6d4aa4c8603c",
        "4333e3f79282b2ad89083b4decbaa2fc2884e58730b771900aac714f25f1c4e0"),
}


@pytest.mark.parametrize("fixture", sorted(OUTPUT_DIGESTS))
def test_output_digests_pinned(request, fixture):
    traces, summary = request.getfixturevalue(fixture)[:2]
    trace_bytes = ("\n".join(trace_csv_lines(traces)) + "\n").encode()
    got = (hashlib.sha256(trace_bytes).hexdigest(),
           hashlib.sha256(summary_json(summary).encode()).hexdigest())
    assert got == OUTPUT_DIGESTS[fixture]


def test_emit_writes_the_pinned_bytes(three_stream_run, tmp_path):
    traces, summary = three_stream_run
    emit(traces, summary, tmp_path)
    assert (tmp_path / "trace.csv").read_bytes() == \
        ("\n".join(trace_csv_lines(traces)) + "\n").encode()
    assert (tmp_path / "summary.json").read_bytes() == \
        summary_json(summary).encode()


def steady(traces, t_from, t_to=math.inf):
    return [r for r in traces if t_from < r.time <= t_to]


def test_criterion_1_baseline_scenario(baseline_run):
    traces, summary, cpu = baseline_run
    rows = steady(traces, 5_000.0)
    mean_rtt = statistics.mean(r.rtt for r in rows)
    mean_uav = statistics.mean(r.uav_goodput for r in rows)
    assert abs(mean_rtt - 27.3) <= 1.0
    assert abs(mean_uav - 47.0) <= 1.0
    assert cpu < 5.0
    print(f"\nACCEPTANCE 1 PASS: no_qos_no_bg rtt={mean_rtt:.2f} ms "
          f"(27.3±1), uav={mean_uav:.2f} Mbps (47±1), "
          f"CPU time {cpu:.2f} s (<5 s)")


def test_criterion_2_overload_scenario(overload_run):
    traces, summary = overload_run
    loaded = steady(traces, 25_000.0, 120_000.0)
    mean_uav = statistics.mean(r.uav_goodput for r in loaded)
    assert abs(mean_uav - 40.0) <= 2.0

    # buffered bits non-decreasing after onset, growing at offered-capacity
    buffers = [(r.time, r.ul_buffer) for r in loaded]
    assert all(b2 >= b1 for (_, b1), (_, b2) in zip(buffers, buffers[1:]))
    ts = np.array([t for t, _ in buffers])
    bs = np.array([b for _, b in buffers])
    slope_bps = np.polyfit(ts, bs, 1)[0] * 1000.0
    oracle = UAV_OFFERED + BG_OFFERED - UPLINK_CAPACITY
    assert abs(slope_bps - oracle) <= 0.05 * oracle

    # head-of-line delay of the platform flow, measured on the queue itself
    hol = _uav_hol_series(duration_ms=15_000.0, onset_ms=1_000.0)
    warm = [(t, d) for t, d in hol if t >= 3_000.0]
    assert all(d2 >= d1 for (_, d1), (_, d2) in zip(warm, warm[1:]))

    assert summary.stability == "unstable"
    assert summary.instability_time_ms < traces[-1].time
    print(f"\nACCEPTANCE 2 PASS: no_qos_bg uav={mean_uav:.2f} Mbps (40±2), "
          f"backlog growth {slope_bps/1e6:.2f} Mbps (oracle "
          f"{oracle/1e6:.1f}±5%), HoL monotone, unstable at "
          f"{summary.instability_time_ms:.0f} ms")


def _uav_hol_series(duration_ms, onset_ms):
    ul = LinkConfig(UPLINK_CAPACITY, 0.5, 13.65)
    dl = LinkConfig(1400e6, 0.5, 13.65)
    cell = CellModel(ul, dl)
    uav = cell.add_flow(UPLINK, 1.0)
    # every platform packet carries a payload, so head_of_line_delay is
    # exact
    cell.attach_source(PeriodicSource(100.0, 12_000, payload_fn=lambda d: d),
                       uav)
    cell.attach_source(TaggedCamera(45.8e6, 30.0, SourceConfig.packet_bits,
                                    SourceConfig.floor_bps), uav)
    bg = cell.add_flow(UPLINK, 1.0)
    cell.attach_source(PacedSource(BG_OFFERED, (onset_ms, duration_ms),
                                   SourceConfig.packet_bits), bg)
    series = []
    for k in range(int(duration_ms / 0.5)):
        cell.step()
        if k % 200 == 0:
            series.append((cell.clock, head_of_line_delay(uav, cell.clock)))
    return series


def test_criterion_3_priority_scenario(priority_run):
    traces, summary = priority_run
    rows = steady(traces, 5_000.0)
    mean_uav = statistics.mean(r.uav_goodput for r in rows)
    mean_bg = statistics.mean(r.bg_goodput for r in rows)
    mean_rtt = statistics.mean(r.rtt for r in rows)
    residual = UPLINK_CAPACITY - UAV_OFFERED
    assert abs(mean_uav - 47.0) <= 1.0
    assert abs(mean_bg * 1e6 - residual) <= 0.10 * residual
    assert abs(mean_rtt - 28.1) <= 1.0
    print(f"\nACCEPTANCE 3 PASS: priority_qos_bg uav={mean_uav:.2f} Mbps "
          f"(47±1), bg={mean_bg:.2f} Mbps (residual {residual/1e6:.1f}±10%), "
          f"rtt={mean_rtt:.2f} ms (28.1±1)")


def test_criterion_4_dynamic_scenario(baseline_run, dynamic_run):
    base_traces, base_summary, _ = baseline_run
    traces, summary = dynamic_run
    onset, offset = 20_000.0, 80_000.0

    pre = steady(traces, 1_000.0, onset)
    assert all(r.state == Q1 for r in pre)

    engaged = [r for r in traces if r.state == Q3]
    assert engaged, "priority was never engaged"
    t_engage = engaged[0].time
    assert onset < t_engage <= onset + 2_000.0
    assert HIGH_LATENCY in engaged[0].signals

    unloaded_mean = statistics.mean(r.rtt for r in steady(traces, 5_000.0,
                                                          onset))
    restored = steady(traces, t_engage + 2_000.0, offset)
    assert all(abs(r.rtt - unloaded_mean) <= 1.0 for r in restored)

    back = [r for r in traces if r.time > offset and r.state == Q1]
    assert back, "never returned to default flow after load removal"
    t_back = back[0].time
    assert all(r.state == Q1 for r in steady(traces, t_back))

    max_base = base_summary.max_tracking_error_m
    assert summary.max_tracking_error_m <= 1.10 * max_base
    print(f"\nACCEPTANCE 4 PASS: q1->q3 at {t_engage:.0f} ms "
          f"(onset+{t_engage-onset:.0f} ms), rtt back in band by "
          f"{t_engage+2000:.0f} ms, q1 restored at {t_back:.0f} ms, "
          f"max err {summary.max_tracking_error_m:.4f} m <= "
          f"1.1x{max_base:.4f} m")


def test_criterion_5_scheduler_properties():
    n = 100_000
    for high in (2, 8):
        winners = run_backlogged([float(high), 1.0], n)
        assert winners == oracle_winner_sequence([high, 1.0], n)
        ratio = winners.count(0) / winners.count(1)
        assert abs(ratio - high) <= 0.02 * high

    # work conservation and bit conservation under randomized traffic
    ul = LinkConfig(UPLINK_CAPACITY, 0.5, 13.65)
    rng = np.random.default_rng(5)
    flows = [QosFlow(i, UPLINK, s) for i, s in enumerate((8.0, 1.0, 2.0))]
    served_gaps = {f.id: 0 for f in flows}
    last_served = {f.id: 0 for f in flows}
    for k in range(5_000):
        for f in flows:
            if rng.random() < 0.6:
                f.enqueue(f.make_packet(int(rng.integers(1_000, 40_000)),
                                        k * 0.5, BACKGROUND))
        backlog = sum(f.buffered_bits for f in flows)
        fid, sent = grant_tti(ul, flows, k * 0.5)
        assert sum(sent.values()) == pytest.approx(
            min(ul.tti_budget_bits, backlog))
        if fid is not None:
            served_gaps[fid] = max(served_gaps[fid], k - last_served[fid])
            last_served[fid] = k
        for f in flows:
            assert f.enqueued_bits == pytest.approx(
                f.buffered_bits + f.delivered_bits + f.dropped_bits)
    # starvation freedom: even the slope-1 flow keeps getting scheduled
    assert all(gap < 400 for gap in served_gaps.values())
    print("\nACCEPTANCE 5 PASS: slope ratios 2:1 and 8:1 within 2% over "
          "1e5 TTIs vs replay oracle; work/bit conservation and "
          "starvation-freedom hold")


def test_criterion_6_sensing_units():
    for steep, mid in ((3.0, 61.0), (5.0, 27.0), (5.0, 3.0)):
        p = SigmoidParams(steep, mid)
        assert abs(sigmoid_prob(mid, p) - 0.5) <= 1e-12

    rng = np.random.default_rng(11)
    samples = list(rng.uniform(10.0, 80.0, 200))
    from collections import deque
    win = deque(samples, maxlen=50)
    assert window_mean(win) == sum(samples[-50:]) / 50

    pf = PfsmConfig()           # EMA 0.8/0.2, clutter threshold 0.5
    s, target = 9.0, 2.5
    for k in range(1, 40):
        s = risk_update(s, target, pf)
        assert abs(abs(s - target) - 0.8 ** k * abs(9.0 - target)) <= 1e-9
    for x in np.linspace(0.0, 12.0, 500):
        s = risk_update(None, float(x), pf)
        assert s == x                   # seeded by the first sample
        level = emit_signals(0.0, clutter_prob(s, pf.risk_sigmoid), s, 0.0,
                             pf).risk
        bands = [s <= 3.0, 3.0 < s <= 5.0, s > 5.0]
        assert bands.count(True) == 1
        assert level == (HIGH_RISK, MIDDLE_RISK, LOW_RISK)[bands.index(True)]
    print("\nACCEPTANCE 6 PASS: sigmoid midpoints 0.5 within 1e-12, window "
          "mean exact, EMA contraction within 1e-9, risk bands partition")


def test_criterion_7_pfsm_structure(dynamic_run):
    traces, _ = dynamic_run
    states = [r.state for r in traces]
    for a, b in zip(states, states[1:]):
        if a != b:
            assert b in SUCCESSORS[a], f"{a}->{b} outside the table"

    # deterministic replay: identical digests for identical (config, seed)
    raw = raw_scenario("dynamic_qos_bg")
    raw["duration_ms"] = 10_000.0
    raw["background"]["active_window_ms"] = [3_000.0, 8_000.0]
    raw["environment"] = [{"spaciousness_m": 4.0, "until_ms": 8_000.0},
                          {"spaciousness_m": 6.0}]
    a, _ = run(parse_config(raw))
    b, _ = run(parse_config(raw))
    assert list(trace_csv_lines(a)) == list(trace_csv_lines(b))

    rng = np.random.default_rng(2024)
    n = 100_000
    pf = PfsmConfig(mode=STOCHASTIC)
    hits = sum(emit_signals(0.5, 0.0, 6.0, 0.0, pf, rng).latency
               == HIGH_LATENCY for _ in range(n))
    assert abs(hits / n - 0.5) <= 0.01
    print(f"\nACCEPTANCE 7 PASS: every trace transition inside the published "
          f"successor sets, replay digests identical, stochastic HL "
          f"frequency {hits/n:.4f} (0.5±0.01)")


def test_criterion_8_fallback(outage_run):
    # table-level: sustained link loss reaches autonomy from every state
    from uavqos.fsm import SignalSet
    lost = SignalSet("LL", MIDDLE_RISK, link_lost=True)
    for start in STATES:
        state = start
        for _ in range(3):
            state = transition(state, lost)
        assert state == QA

    traces, summary = outage_run
    qa = [r for r in traces if r.state == QA]
    assert qa, "autonomy never engaged"
    t_enter = qa[0].time
    assert 30_500.0 <= t_enter <= 31_500.0   # outage at 30 s + 500 ms timeout

    settle = [r for r in qa if r.time >= t_enter + 4_000.0]
    assert settle and all(r.tracking_error < 0.05 for r in settle)

    back = [r for r in traces if r.time > 35_000.0 and r.state == Q1]
    assert back, "never recovered from autonomy"
    t_back = back[0].time
    assert t_back <= 38_000.0
    tail = steady(traces, 40_000.0)
    assert all(r.state == Q1 for r in tail)
    assert tail[-1].tracking_error < 0.1         # offloaded tracking resumed
    assert tail[-1].cam_rate == pytest.approx(45.8)   # camera restored
    print(f"\nACCEPTANCE 8 PASS: qA at {t_enter:.0f} ms, hold error "
          f"<0.05 m within 5 s, back to q1 at {t_back:.0f} ms with "
          f"offloaded control resumed")


def test_hold_point_marks_autonomy():
    # after every evaluation of the outage run: a hold point exists exactly
    # in qA, and exactly then the camera is off (no frame due)
    sim = Simulation(outage_config())
    evaluate = sim._evaluate
    in_qa = []

    def checked(t):
        evaluate(t)
        autonomous = sim.supervisor.state == QA
        assert (sim.hold_point is not None) == autonomous
        assert math.isfinite(sim.camera.next_due) != autonomous
        in_qa.append(autonomous)

    sim._evaluate = checked
    sim.run()
    assert len(in_qa) == 450 and 0 < sum(in_qa) < 450
