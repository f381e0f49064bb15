"""Loading and validating the bundled rewrite-trace corpus."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .rewrite import RewriteTrace, TraceReport, validate_trace


def data_root():
    return resources.files("dualkit.diagram") / "data"


def list_traces() -> list:
    """Names of the bundled traces (sorted)."""
    return sorted(p.name[:-len(".json")] for p in data_root().iterdir()
                  if p.name.endswith(".json"))


def load_trace(name: str) -> RewriteTrace:
    """Load a bundled trace by name, or any trace from a file path."""
    path = Path(name)
    if path.suffix == ".json" and path.is_file():
        return RewriteTrace.from_json(json.loads(path.read_text()))
    blob = (data_root() / f"{name}.json").read_text()
    return RewriteTrace.from_json(json.loads(blob))


def load_all() -> list:
    return [load_trace(name) for name in list_traces()]


def validate_corpus() -> list:
    """Validate every bundled trace; returns one TraceReport per trace."""
    reports = []
    for trace in load_all():
        reports.append(validate_trace(trace))
    return reports


__all__ = ["data_root", "list_traces", "load_trace", "load_all",
           "validate_corpus", "TraceReport"]
