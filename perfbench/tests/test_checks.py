"""Each correctness check passes on a well-formed output and fails on an
output broken in the way it guards against.

The well-formed outputs are built here from the closed forms, not taken
from a simulation, so these tests run in well under a second."""

import copy

import pytest

import checks
import workloads

ROWS = 1200
PACKET = 12000


def _row(time, state, **kw):
    row = {"time": float(time), "state": state, "signals": "LL|LR",
           "ul_buffer": 0.0, "rtt": 27.651429, "cam_latency": 46.5,
           "cam_rate": 45.8, "uav_goodput": 47.0, "bg_goodput": 0.0,
           "s_k": 10.0, "P_lat": 0.6, "P_cs": 0.0, "tracking_error": 0.02}
    row.update(kw)
    return row


def _flow(direction, enqueued, delivered, dropped=0.0):
    return {"direction": direction, "enqueued_bits": float(enqueued),
            "buffered_bits": float(enqueued - delivered - dropped),
            "delivered_bits": float(delivered),
            "dropped_bits": float(dropped)}


def _dynamic_state(t):
    for until, state in ((20200, "q1"), (50500, "q3"), (50600, "q5"),
                         (55000, "qA"), (55200, "q1"), (80200, "q3")):
        if t <= until:
            return state
    return "q1"


def good(workload):
    """A well-formed output of `workload`, built from the closed forms."""
    doc = workloads.scenario(workload)
    platform = checks.camera_bits_nominal(doc) + checks.control_bits(doc)
    flows = {"cmd": _flow("downlink", 23_998_000, 23_998_000)}
    times = [100 * k for k in range(1, ROWS + 1)]
    if workload == "idle_cell":
        rows = [_row(t, "q1") for t in times]
        flows["uav"] = _flow("uplink", platform, platform)
    else:
        rows = [_row(t, _dynamic_state(t)) for t in times]
        camera = checks.camera_bits_nominal(doc) - 50 * PACKET
        uav = camera + checks.control_bits(doc)
        flows["uav"] = _flow("uplink", uav, uav - 40 * PACKET, 40 * PACKET)
        bg = checks.background_bits(doc)
        flows["bg"] = _flow("uplink", bg, bg // 3, bg - bg // 3)
    return doc, checks.RunOutput(rows, {"stability": "stable"}, flows)


def failing(workload, doc, out):
    return {name for name, ok, _ in checks.run_checks(workload, doc, out)
            if not ok}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_well_formed_output_passes(workload):
    doc, out = good(workload)
    assert failing(workload, doc, out) == set()


def test_closed_forms_match_the_workload_numbers():
    doc = workloads.scenario("idle_cell")
    assert checks.camera_bits_nominal(doc) + checks.control_bits(doc) \
        == 5_640_001_200
    assert checks.background_bits(workloads.scenario("dynamic_outage")) \
        == 4_800_000_000


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_flow_totals_off_by_one_packet(workload):
    doc, out = good(workload)
    uav = out.flows["uav"]
    uav["enqueued_bits"] += PACKET
    assert "bit_conservation" in failing(workload, doc, out)
    uav["buffered_bits"] += PACKET        # conserved again, still too many
    broken = failing(workload, doc, out)
    assert "bit_conservation" not in broken
    if workload == "dynamic_outage":
        # the camera's share is only bounded without a trace
        uav["enqueued_bits"] += 50 * PACKET
        uav["buffered_bits"] += 50 * PACKET
        assert "control_bits" in failing(workload, doc, out)
    else:
        assert "control_bits" in broken
    if workload == "idle_cell":
        assert "platform_bits" in broken


def test_background_off_by_one_packet():
    doc, out = good("dynamic_outage")
    bg = out.flows["bg"]
    bg["enqueued_bits"] -= PACKET
    bg["dropped_bits"] -= PACKET
    assert failing("dynamic_outage", doc, out) == {"background_bits"}


def test_traced_kind_totals_are_checked_exactly():
    doc, out = good("dynamic_outage")
    control = checks.control_bits(doc)
    out.kind_bits = {"control_state": control, "camera": 1.0,
                     "background": checks.background_bits(doc)}
    assert failing("dynamic_outage", doc, out) == set()
    out.kind_bits["control_state"] = control - PACKET
    out.kind_bits["background"] -= PACKET
    assert failing("dynamic_outage", doc, out) == {"control_bits",
                                                   "background_bits"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rtt_below_base_delay_floor(workload):
    doc, out = good(workload)
    out.rows[500]["rtt"] = 27.299
    assert failing(workload, doc, out) == {"rtt_floor"}
    out.rows[500]["rtt"] = 0.0             # no sample in the interval
    assert failing(workload, doc, out) == set()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_trace_row_missing_or_out_of_order(workload):
    doc, out = good(workload)
    rows = out.rows
    out.rows = rows[:-1]
    assert "trace_rows" in failing(workload, doc, out)
    out.rows = copy.deepcopy(rows)
    out.rows[10]["time"], out.rows[11]["time"] = \
        out.rows[11]["time"], out.rows[10]["time"]
    assert failing(workload, doc, out) == {"trace_rows"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_unstable_run(workload):
    doc, out = good(workload)
    out.summary["stability"] = "unstable"
    assert failing(workload, doc, out) == {
        "dynamic_outage": {"final_q1_nominal"}}.get(workload, {"stable"})


def test_goodput_off_by_more_than_a_megabit():
    doc, out = good("idle_cell")
    for row in out.rows:
        row["uav_goodput"] = 45.9
    assert failing("idle_cell", doc, out) == {"steady_goodput"}


def test_illegal_successor():
    doc, out = good("dynamic_outage")
    assert out.rows[505]["state"] == "q5"
    out.rows[505]["state"] = "q2"          # q3 -> q2 is not in the table
    assert failing("dynamic_outage", doc, out) == {"successor_table"}


def test_illegal_first_state():
    doc, out = good("dynamic_outage")
    out.rows[0]["state"] = "q5"
    assert "successor_table" in failing("dynamic_outage", doc, out)


def test_late_priority_engagement():
    doc, out = good("dynamic_outage")
    for row in out.rows:
        if 20000 < row["time"] <= 22100:
            row["state"] = "q1"
    assert failing("dynamic_outage", doc, out) == {"q3_on_load"}


@pytest.mark.parametrize("first_qa", [50400, 51600])
def test_autonomy_outside_its_window(first_qa):
    doc, out = good("dynamic_outage")
    for row in out.rows:
        if 50000 < row["time"] <= 55000:
            row["state"] = "q5" if row["time"] < first_qa else "qA"
    assert failing("dynamic_outage", doc, out) == {"qA_on_outage"}


@pytest.mark.parametrize("state, until", [("qA", 56200), ("q3", 55100)])
def test_no_return_to_q1_after_the_outage(state, until):
    doc, out = good("dynamic_outage")
    for row in out.rows:
        if 55000 < row["time"] <= until:
            row["state"] = state
    assert "q1_after_outage" in failing("dynamic_outage", doc, out)


@pytest.mark.parametrize("field, value", [("state", "q3"),
                                          ("cam_rate", 36.64)])
def test_final_row_not_q1_at_nominal_rate(field, value):
    doc, out = good("dynamic_outage")
    out.rows[-1][field] = value
    assert "final_q1_nominal" in failing("dynamic_outage", doc, out)


def test_missing_output_fails_instead_of_raising():
    doc, out = good("dynamic_outage")
    del out.flows["bg"]
    assert failing("dynamic_outage", doc, out) == {"background_bits"}
