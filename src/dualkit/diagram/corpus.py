"""Loading and validating the bundled rewrite-trace corpus."""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from .. import MalformedInput, clip, read_json
from .rewrite import RewriteTrace, TraceReport, validate_trace


def data_root():
    return resources.files("dualkit.diagram") / "data"


def list_traces() -> list:
    """Names of the bundled traces (sorted)."""
    return sorted(p.name[:-len(".json")] for p in data_root().iterdir()
                  if p.name.endswith(".json"))


def load_trace(name: str) -> RewriteTrace:
    """Load any trace from a .json file path, or a bundled trace by
    name."""
    # os.path.isfile, unlike Path.is_file, is False for a name too long
    # for the file system
    path = Path(name)
    if not (path.suffix == ".json" and os.path.isfile(path)):
        path = data_root() / f"{name}.json"
        if not os.path.isfile(path):
            raise MalformedInput(
                f"no bundled trace or trace file {clip(name)!r}")
    return RewriteTrace.from_json(read_json(path))


def load_all() -> list:
    return [load_trace(name) for name in list_traces()]


def validate_corpus() -> list:
    """Validate every bundled trace; returns one TraceReport per trace."""
    return [validate_trace(trace) for trace in load_all()]


__all__ = ["data_root", "list_traces", "load_trace", "load_all",
           "validate_corpus", "TraceReport"]
