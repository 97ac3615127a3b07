"""The benchmark's per-layer tracer still finds every name it wraps.

`perfbench/tracing.py` times each layer by replacing public functions and
methods by name. A refactor that renames or inlines one of them leaves that
layer unwrapped, and its per-layer metric silently reads 0.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
