"""One simulation in a fresh interpreter: the run process of the benchmark.

    python3 perfbench/child.py SRC_DIR SCENARIO_YAML OUT_DIR TRACE

Makes the public calls ``uavqos run`` makes -- ``load_config``, then
``Simulation(cfg)``, then ``.run()``, then ``output.emit`` -- and reads
CLOCK_MONOTONIC (shared by all processes of the host) around each. It
prints one JSON line: those stamps, the process's peak resident memory,
the final bit totals of every flow and, with TRACE=1, the per-layer
figures of `tracing.LayerTracer`. `run.py` starts it and does all the
checking.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    src, scenario, out_dir, trace = argv
    sys.path.insert(0, src)
    import uavqos
    from uavqos import output
    from uavqos.engine import Simulation
    from uavqos.scenario import load_config

    src_pkg = Path(src).resolve() / "uavqos"
    if Path(uavqos.__file__).resolve().parent != src_pkg:
        sys.exit(f"imported uavqos from {uavqos.__file__}, not {src_pkg}")

    tracer = None
    if trace == "1":
        from tracing import LayerTracer
        tracer = LayerTracer()
        tracer.install()

    stamps = {"imported": time.monotonic()}
    cfg = load_config(scenario)
    stamps["loaded"] = time.monotonic()
    sim = Simulation(cfg)
    stamps["built"] = time.monotonic()
    traces, summary = sim.run()
    stamps["ran"] = time.monotonic()
    output.emit(traces, summary, out_dir)
    stamps["emitted"] = time.monotonic()

    roles = {sim.uav_flow.id: "uav", sim.cmd_flow.id: "cmd"}
    if sim.bg_flow is not None:
        roles[sim.bg_flow.id] = "bg"
    flows = {roles.get(f.id, f"flow{f.id}"): {
        "direction": f.direction,
        "enqueued_bits": f.enqueued_bits,
        "buffered_bits": f.buffered_bits,
        "delivered_bits": f.delivered_bits,
        "dropped_bits": f.dropped_bits,
    } for f in sim.cell.flows.values()}

    result = {
        "stamps": stamps,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "flows": flows,
    }
    if tracer is not None:
        from uavqos import scheduler
        kinds = {getattr(scheduler, name, name): name.lower()
                 for name in ("CAMERA", "CONTROL_STATE", "BACKGROUND",
                              "COMMAND")}
        result["layers"] = tracer.metrics()
        result["kind_bits"] = {kinds.get(k, str(k)): bits
                               for k, bits in tracer.kind_bits.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
