"""The benchmark's two workloads, written out as scenario documents.

Each workload is one 120 s scenario. The documents repeat the bundled
scenarios key for key (``dynamic_outage`` adds one link outage), so the
simulator receives only the YAML file the benchmark writes and never
reads its own bundled copy. Each keeps the bundled scenario's ``seed``:
both run in deterministic mode with no jitter and no environment
noise, and a pinned seed keeps ``summary.json`` (which records the seed)
byte-identical from run to run.
"""

from __future__ import annotations

import copy

import yaml

_UPLINK = {"capacity_bps": 81_300_000.0, "tti_ms": 0.5,
           "base_delay_ms": 13.65}
_DOWNLINK = {"capacity_bps": 1_400_000_000.0, "tti_ms": 0.5,
             "base_delay_ms": 13.65}
_UAV_SOURCES = [
    {"kind": "cbr_frames", "rate_bps": 45_800_000.0, "frame_hz": 30.0,
     "packet_bits": 12000, "floor_bps": 5_000_000.0},
    {"kind": "periodic_small", "rate_bps": 1_200_000.0,
     "packet_bits": 12000},
]


def _background(window):
    return {"kind": "onoff_background", "rate_bps": 80_000_000.0,
            "packet_bits": 12000, "active_window_ms": list(window)}


# bundled no_qos_no_bg
IDLE_CELL = {
    "name": "no_qos_no_bg",
    "duration_ms": 120000.0,
    "seed": 1,
    "qos": "never",
    "uplink": _UPLINK,
    "downlink": _DOWNLINK,
    "uav_sources": _UAV_SOURCES,
    "environment": [{"spaciousness_m": 10.0}],
}

# bundled dynamic_qos_bg, plus a 5 s outage inside the 20-80 s load
OUTAGE_MS = (50000.0, 55000.0)
DYNAMIC_OUTAGE = {
    "name": "dynamic_qos_bg",
    "duration_ms": 120000.0,
    "seed": 7,
    "qos": "dynamic",
    "uplink": _UPLINK,
    "downlink": _DOWNLINK,
    "uav_sources": _UAV_SOURCES,
    "background": _background((20000.0, 80000.0)),
    "pfsm": {
        "cam_sigmoid": {"steepness": 3.0, "midpoint": 61.0},
        "cc_sigmoid": {"steepness": 5.0, "midpoint": 27.0},
        "risk_sigmoid": {"steepness": 5.0, "midpoint": 3.0},
        "cam_weight": 0.35,
        "cc_weight": 0.65,
        "cam_window": 10,
        "cc_window": 50,
        "latency_threshold": 0.75,
        "clutter_threshold": 0.5,
        "ema_alpha": 0.8,
        "ema_beta": 0.2,
        "eval_period_ms": 100.0,
        "hl_persist_evals": 2,
        "escalation_grace_evals": 10,
        "link_lost_timeout_ms": 500.0,
        "rate_adapt_period_ms": 1000.0,
        "rate_adapt_factor": 0.8,
        "rate_floor_bps": 5_000_000.0,
        "qos_slope": 8.0,
        "default_slope": 1.0,
        "mode": "deterministic",
    },
    "environment": [{"spaciousness_m": 4.0, "until_ms": 80000.0},
                    {"spaciousness_m": 6.0}],
    "plant": {
        "period_ms": 50.0,
        "kp": 4.0,
        "kd": 3.0,
        "command_limit": 5.0,
        "plant_dt_ms": 10.0,
        "divergence_threshold_m": 10.0,
        "circle_radius_m": 1.0,
        "circle_period_s": 20.0,
        "circle_altitude_m": 1.0,
    },
    "link_outages_ms": [list(OUTAGE_MS)],
}

WORKLOADS = {
    "idle_cell": IDLE_CELL,
    "dynamic_outage": DYNAMIC_OUTAGE,
}


def scenario(name: str) -> dict:
    """A private copy of one workload's scenario document."""
    return copy.deepcopy(WORKLOADS[name])


class _PlainDumper(yaml.SafeDumper):
    """Writes shared sub-documents out in full instead of as aliases."""

    def ignore_aliases(self, data):
        return True


def to_yaml(doc: dict) -> str:
    return yaml.dump(doc, Dumper=_PlainDumper, sort_keys=False,
                     default_flow_style=None)
