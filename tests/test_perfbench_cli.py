"""The benchmark's in-process ``cli`` pass still drives the CLI.

``perfbench/wl_cli.py`` runs its traced pass (``run.py --workload cli
--trace 1``, and ``perfbench/selftest.py``) through click's test runner,
which calls ``dualkit.cli.main`` by the two attributes of click's
command protocol that ``cli.py`` keeps as an adapter.  Here every README
command and every fault repro runs through that pass: each must meet its
own expected outcome, the benchmark's output checks must pass, and each
README command's standard output must equal that of a fresh process.
Nothing under ``perfbench/`` is modified.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def wl_cli():
    # the workload imports its siblings (common, refs) by plain name
    sys.path.insert(0, str(PERFBENCH))
    import wl_cli
    yield wl_cli
    sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def passes(wl_cli, tmp_path_factory):
    """(inputs, the traced jobs, their outputs by key)."""
    inputs = wl_cli.build(1, tmp_path_factory.mktemp("wl_cli"))
    traced = wl_cli.traced_jobs(inputs, wl_cli.jobs(inputs))
    return inputs, traced, {job.key: job.run() for job in traced}


def test_every_readme_command_and_repro_runs(wl_cli, passes):
    _, traced, _ = passes
    assert len(traced) == len(wl_cli.README) + len(wl_cli.REPROS) == 17


def test_each_traced_job_meets_its_expected_outcome(passes):
    _, traced, outputs = passes
    assert [job.key for job in traced
            if not job.succeeded(outputs[job.key])] == []


def test_the_traced_outputs_pass_the_benchmark_checks(wl_cli, passes):
    inputs, _, outputs = passes
    assert wl_cli.check(inputs, outputs) == []


def test_traced_stdout_equals_a_fresh_process(wl_cli, passes):
    inputs, _, outputs = passes
    argv = {key: a for key, a, _ in inputs.commands}
    for key, _, _ in wl_cli.README:
        fresh = wl_cli._run(argv[key])
        assert (fresh.code, fresh.stdout) == (
            outputs[key,].code, outputs[key,].stdout), key
