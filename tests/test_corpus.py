"""The bundled rewrite-trace corpus: every trace validates quickly,
every single-step mutation is rejected, and the build script still
writes the bundled files."""

import importlib.util
import json
import time
from pathlib import Path

import pytest
from values import replace

from dualkit.diagram import (RewriteTrace, Step, list_traces, load_all,
                             load_trace, validate_corpus, validate_trace)
from dualkit.diagram.corpus import data_root

# moves whose effect ignores the recorded direction; flipping it is not a
# detectable corruption
SELF_INVERSE = {"interchange", "cupcap-slide"}


def all_traces():
    return load_all()


def test_corpus_is_present_and_large_enough():
    names = list_traces()
    assert len(names) >= 12
    assert names == sorted(names)


def test_every_trace_validates():
    reports = validate_corpus()
    assert len(reports) >= 12
    for report in reports:
        assert report.ok, f"{report.name}: {report.message}"
        assert report.steps_applied >= 2


def test_corpus_validates_fast():
    start = time.monotonic()
    reports = validate_corpus()
    elapsed = time.monotonic() - start
    assert all(r.ok for r in reports)
    assert elapsed < 5.0


def test_load_by_name_and_roundtrip():
    for name in list_traces():
        trace = load_trace(name)
        assert trace.name == name
        assert RewriteTrace.from_json(trace.to_json()) == trace


def test_build_script_writes_the_bundled_files():
    # import the script without running main(), which rewrites the files
    path = Path(__file__).resolve().parent.parent / "scripts" / \
        "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert sorted(tr.name for tr in script.TRACES) == list_traces()
    for tr in script.TRACES:
        text = json.dumps(tr.to_json(), indent=2, sort_keys=True) + "\n"
        assert (data_root() / f"{tr.name}.json").read_text() == text, tr.name


def _mutants(trace):
    """All single-step corruptions of a trace: changed rule name, shifted
    location, flipped direction (for direction-sensitive rules)."""
    for n, s in enumerate(trace.steps):
        other_rule = "braid-nat" if s.rule != "braid-nat" else "interchange"
        yield n, "rule", Step(other_rule, s.direction, s.slice_idx, s.offset)
        yield n, "slice", Step(s.rule, s.direction, s.slice_idx + 1, s.offset)
        yield n, "offset", Step(s.rule, s.direction, s.slice_idx,
                                s.offset + 1)
        if s.rule not in SELF_INVERSE:
            flipped = "bwd" if s.direction == "fwd" else "fwd"
            yield n, "dir", Step(s.rule, flipped, s.slice_idx, s.offset)


@pytest.mark.parametrize("name", sorted(n for n in list_traces()))
def test_single_step_mutations_fail(name):
    trace = load_trace(name)
    for n, what, bad in _mutants(trace):
        steps = trace.steps[:n] + (bad,) + trace.steps[n + 1:]
        mutated = replace(trace, steps=steps)
        report = validate_trace(mutated)
        assert not report.ok, \
            f"{name}: corrupting step {n} ({what}) still validates"


@pytest.mark.parametrize("name", sorted(n for n in list_traces()))
def test_dropping_any_step_fails(name):
    trace = load_trace(name)
    for n in range(len(trace.steps)):
        steps = trace.steps[:n] + trace.steps[n + 1:]
        mutated = replace(trace, steps=steps)
        assert not validate_trace(mutated).ok, \
            f"{name}: dropping step {n} still validates"


@pytest.mark.parametrize("name", sorted(n for n in list_traces()))
def test_swapping_end_for_start_fails(name):
    trace = load_trace(name)
    if trace.start.slices == trace.end.slices:
        pytest.skip("start equals end")
    mutated = replace(trace, end=trace.start)
    assert not validate_trace(mutated).ok
