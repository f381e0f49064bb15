"""What every workload module shares: the job record and its result.

A workload module ``wl_<name>`` provides ``build(seed, directory)`` (the
inputs, made from the seed), ``jobs(inputs)`` (one pass) and
``check(inputs, outputs)`` (a list of errors, each starting with the name
of the check in brackets).  It may also provide ``traced_jobs``,
``peak_rss_kib``, ``coeff_digits`` and ``cli_metrics`` where it measures
these differently from an in-process workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Job:
    """One operation of a workload pass.

    ``key`` names the output for the workload's checks.  ``run`` performs
    the operation and returns its output.  ``succeeded`` decides from the
    output whether the operation met its expected outcome; by default an
    operation succeeds when ``run`` returns without raising.  Jobs of a
    lower ``phase`` run before those of a higher one within a pass, for
    jobs that use another job's output.
    """
    key: tuple
    kind: str
    run: Callable[[], Any]
    succeeded: Callable[[Any], bool] | None = None
    phase: int = 0


class Failed:
    """Stands in for the output of a failed operation."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Failed({self.reason!r})"
