"""Trace and summary emission.

CSV columns follow TraceRecord field order with fixed float formatting so
identical runs produce byte-identical files; the JSON summary is emitted
with sorted keys for the same reason.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .engine import RunSummary, TraceRecord

TRACE_FILENAME = "trace.csv"
SUMMARY_FILENAME = "summary.json"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def trace_csv_lines(traces: list[TraceRecord]):
    names = [f.name for f in dataclasses.fields(TraceRecord)]
    yield ",".join(names)
    for rec in traces:
        yield ",".join(_fmt(getattr(rec, name)) for name in names)


def summary_json(summary: RunSummary) -> str:
    return json.dumps(dataclasses.asdict(summary), indent=2, sort_keys=True) \
        + "\n"


def emit(traces: list[TraceRecord], summary: RunSummary, out_dir,
         formats=("csv", "json")) -> list[Path]:
    """Write trace/summary files into out_dir; returns the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    written = []
    try:
        if "csv" in formats:
            path = out / TRACE_FILENAME
            path.write_text("\n".join(trace_csv_lines(traces)) + "\n")
            written.append(path)
        if "json" in formats:
            path = out / SUMMARY_FILENAME
            path.write_text(summary_json(summary))
            written.append(path)
    except OSError as exc:
        raise OSError(f"failed writing under {out}: {exc}") from exc
    return written
