import copy

import yaml

from uavqos.scenario import builtin_config_path, parse_config


def raw_scenario(name: str) -> dict:
    with open(builtin_config_path(name)) as fh:
        return yaml.safe_load(fh)


def head_of_line_delay(flow, now: float) -> float:
    """Age in ms of the flow's oldest buffered packet; 0 for an empty
    buffer."""
    if not flow.buffer:
        return 0.0
    return now - flow.buffer[0].created_at


def make_config(name: str, **top_level):
    """Bundled scenario with top-level keys replaced."""
    raw = copy.deepcopy(raw_scenario(name))
    raw.update(top_level)
    return parse_config(raw, label=name)
