"""dualkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload diagrams --seed 1 --seconds 10 --trace 0

Run from the root of a dualkit checkout; the package is imported from
``src/``.  One caller drives the workload in a closed loop: each job starts
when the previous one returns.  A run repeats whole passes of the seeded
job list until it has made at least three passes and 100 jobs and at least
``--seconds`` have elapsed, then checks the outputs of the first pass
against the benchmark's own references; every later pass must give the
same outputs.  Every timing is scaled to a reference machine speed by a
calibration kernel sampled between jobs (calibrate.py), so that the
shared machine's changes of speed do not enter it.  Latency metrics use
each job's median scaled time over the run's passes, so that a pass in
which this process was stopped does not enter them either; jobs_per_s is
the job count of a pass over the sum of those times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then traced passes, and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import refs
from common import Failed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("diagrams", "exact-models", "equivariant", "cli")
MIN_JOBS = 100
MIN_PASSES = 3
SETUP_REPEATS = 5

# per-layer metrics: (name, unit); every traced run reports all of them
LAYER_METRICS = [
    ("exactlin.calls", "count"), ("exactlin.self_s", "s"),
    ("exactlin.from_rows.calls", "count"), ("exactlin.from_rows.self_s", "s"),
    ("exactlin.mul.calls", "count"), ("exactlin.mul.madds", "count"),
    ("exactlin.mul.self_s", "s"),
    ("exactlin.kronecker.calls", "count"),
    ("exactlin.kronecker.entries", "count"),
    ("exactlin.kronecker.self_s", "s"),
    ("exactlin.snf.calls", "count"), ("exactlin.snf.self_s", "s"),
    ("exactlin.snf.max_digits", "digits"),
    ("exactlin.elim_fp.calls", "count"), ("exactlin.elim_fp.self_s", "s"),
    ("exactlin.solve_int.self_s", "s"),
    ("exactlin.is_prime.calls", "count"), ("exactlin.is_prime.self_s", "s"),
    ("models.calls", "count"), ("models.self_s", "s"),
    ("models.compose.self_s", "s"), ("models.tensor.self_s", "s"),
    ("models.cofiber.calls", "count"), ("models.cofiber.self_s", "s"),
    ("diagram.normalize.calls", "count"),
    ("diagram.normalize.labellings", "count"),
    ("diagram.normalize.self_s", "s"), ("diagram.open_graph.self_s", "s"),
    ("diagram.evaluate.calls", "count"), ("diagram.evaluate.slices", "count"),
    ("diagram.evaluate.self_s", "s"),
    ("diagram.rewrite.steps", "count"), ("diagram.rewrite.self_s", "s"),
    ("idem.calls", "count"), ("idem.self_s", "s"),
    ("idem.split_pairs", "count"), ("idem.homs_enumerated", "count"),
    ("equivariant.lattice.calls", "count"),
    ("equivariant.lattice.self_s", "s"),
    ("equivariant.closures", "count"), ("equivariant.subgroups", "count"),
    ("equivariant.rep.calls", "count"),
    ("equivariant.rep.dense_entries", "count"),
    ("equivariant.rep.self_s", "s"),
    ("equivariant.fixdim.self_s", "s"), ("equivariant.cert.self_s", "s"),
    ("equivariant.actions.self_s", "s"),
    ("cli.startup_s", "s"), ("cli.command_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("setup.import_s", "s"), ("setup.inputs_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
    ("calib.kernel_s", "s"),
]


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


class SetupTimer:
    """Times set-up in fresh interpreters that import dualkit and build
    the workload's inputs.  The first probe only compiles bytecode and is
    not counted; the others are spread over the run, and the median is
    reported."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload,
                     str(seed)]
        self.workdir = workdir
        self.samples: list = []
        self._probe()
        self.samples.clear()

    def _probe(self):
        out = subprocess.run(
            self.argv + [str(self.workdir / f"setup-{len(self.samples)}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{out.stderr}")
        self.samples.append(json.loads(out.stdout.strip().splitlines()[-1]))

    def sample(self, upto: int = SETUP_REPEATS):
        while len(self.samples) < upto:
            self._probe()

    def medians(self) -> dict:
        self.sample()
        return {key: statistics.median(s[key] for s in self.samples)
                for key in ("setup_s", "import_s", "inputs_s", "setup_raw_s",
                            "kernel_s")}


def run_pass(jobs, speed, tracer=None):
    """Run every job once, in order, taking a calibration sample between
    jobs when one is due.  Returns (outputs, latency per job, failures);
    a latency is (seconds measured around the call, index of the latest
    calibration sample)."""
    outputs, latencies = {}, {}
    failures = 0
    perf = time.perf_counter
    for job in jobs:
        span = tracer.open("job") if tracer else None
        t0 = perf()
        try:
            out = job.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = Failed(f"{type(exc).__name__}: {exc}")
        t1 = perf()
        if tracer:
            tracer.close(span)
        latencies[job.key] = (t1 - t0, speed.mark())
        ok = not isinstance(out, Failed) and (
            job.succeeded is None or job.succeeded(out))
        if not ok:
            failures += 1
            if not isinstance(out, Failed):
                out = Failed(repr(out)[:300])
        outputs[job.key] = out
    return outputs, latencies, failures


def fingerprint(outputs: dict) -> int:
    return hash(tuple((key, repr(out)) for key, out in outputs.items()))


class Passes:
    """Whole passes of one job list, repeated until at least ``min_passes``
    passes and ``min_jobs`` jobs have run and ``seconds`` have elapsed.
    Keeps each job's latencies, the first pass's outputs, a fingerprint of
    every pass, and (when traced) each pass's span range.  Latencies are
    scaled to the reference machine speed (see calibrate.py) once the
    passes are done, since a job's scale uses samples taken after it."""

    def __init__(self, jobs, seconds, min_passes, min_jobs=0, tracer=None,
                 between=lambda passes: None):
        self.first, self.prints, self.spans = None, [], []
        self.failed = self.attempted = 0
        self.counts_first: dict = {}
        self.speed = calibrate.Speed()
        measured: dict = {}
        started = time.perf_counter()
        while len(self.prints) < min_passes or self.attempted < min_jobs \
                or time.perf_counter() - started < seconds:
            lo = len(tracer.start) if tracer else 0
            outputs, latencies, failures = run_pass(jobs, self.speed, tracer)
            self.spans.append((lo, len(tracer.start) if tracer else 0))
            self.failed += failures
            self.attempted += len(jobs)
            for key, t in latencies.items():
                measured.setdefault(key, []).append(t)
            self.first = self.first or outputs
            self.prints.append(fingerprint(outputs))
            if tracer and len(self.prints) == 1:
                self.counts_first = dict(tracer.counts)
            between(len(self.prints))
        self.speed.finish()
        # The median, not the fastest: a scale is an estimate, and the
        # fastest of several scaled times picks the most overestimated
        # kernel time, which shortens every job while the speed changes.
        self.typical = {
            key: statistics.median(t * self.speed.scale(i) for t, i in ts)
            for key, ts in measured.items()}
        self.typical_raw = {key: statistics.median(t for t, _ in ts)
                            for key, ts in measured.items()}

    def total(self) -> float:
        """A pass's time with every job at its median scaled time."""
        return sum(self.typical.values())


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return statistics.quantiles(ordered, n=100, method="inclusive")[
        round(q * 100) - 1] if len(ordered) > 1 else ordered[0]


def layer_metrics(tracer, spans, passes, counts) -> dict:
    """Per-layer metrics for one pass: calls and counts from the first
    traced pass, self times averaged over all traced passes."""
    values = {name: 0 for name, _ in LAYER_METRICS}
    for i, (lo, hi) in enumerate(spans):
        for name, (calls, self_s) in tracer.self_times(lo, hi).items():
            layer = name.split(".")[0]
            if layer == "job":
                continue
            for key in (layer, name):
                if i == 0 and f"{key}.calls" in values:
                    values[f"{key}.calls"] += calls
                if f"{key}.self_s" in values:
                    values[f"{key}.self_s"] += self_s / passes
    values.update(counts)
    values["trace.spans"] = spans[0][1] - spans[0][0]
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dualkit" / "__init__.py").is_file():
        log(f"no dualkit package under {SRC}; run from a dualkit checkout")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir: Path) -> dict:
    setup = SetupTimer(args.workload, args.seed, workdir)
    setup.sample(upto=1)
    mod = importlib.import_module("wl_" + args.workload.replace("-", "_"))
    inputs = mod.build(args.seed, workdir / "inputs")
    jobs = mod.jobs(inputs)
    random.Random(args.seed).shuffle(jobs)
    jobs.sort(key=lambda job: job.phase)
    if args.trace:
        return traced_run(args, mod, inputs, jobs, setup.medians())

    loop = Passes(jobs, args.seconds, MIN_PASSES, MIN_JOBS,
                  between=lambda n: setup.sample(upto=1 + n))
    peak_kib = mod.peak_rss_kib() if hasattr(mod, "peak_rss_kib") else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = check_outputs(mod, inputs, loop.first, loop.prints)
    times = list(loop.typical.values())
    set_up = setup.medians()
    metrics = {
        "setup_s": set_up["setup_s"],
        "jobs_per_s": len(times) / loop.total(),
        "job_p50_s": statistics.median(times),
        "job_p90_s": quantile(times, 0.9),
        "peak_rss_mib": peak_kib / 1024,
        "coeff_digits_max": getattr(mod, "coeff_digits", refs.max_int_digits)(
            {k: out for k, out in loop.first.items() if not is_failed(out)}),
    }
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
             "job_p90_s": "s", "peak_rss_mib": "MiB",
             "coeff_digits_max": "digits"}
    log(f"{args.workload}: {len(loop.prints)} passes, {loop.attempted} jobs, "
        f"{loop.failed} failed, {len(errors)} check errors")
    raw = list(loop.typical_raw.values())
    log(f"  unscaled: setup_s {set_up['setup_raw_s']:.5g}, jobs_per_s "
        f"{len(raw) / sum(raw):.5g}, job_p50_s {statistics.median(raw):.5g}, "
        f"job_p90_s {quantile(raw, 0.9):.5g}; kernel {loop.speed.median():.5g}"
        f" s in the run, {set_up['kernel_s']:.5g} s in set-up probes")
    for err in errors[:20]:
        log("  " + err)
    return {"correct": not errors, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def is_failed(out) -> bool:
    return isinstance(out, Failed)


def check_outputs(mod, inputs, first, prints) -> list:
    errors = []
    if len(set(prints)) != 1:
        errors.append("[determinism] passes gave different outputs")
    good = {k: v for k, v in first.items() if not is_failed(v)}
    try:
        errors += mod.check(inputs, good)
    except Exception as exc:  # a malformed output must not end the run
        errors.append(f"[checks] stopped on {type(exc).__name__}: {exc}")
    return errors


def traced_run(args, mod, inputs, jobs, setup) -> dict:
    """Untraced passes for half the time, then traced passes for the other
    half, at least two of each.  The overhead ratio compares the two
    halves' pass times with every job at its median scaled time."""
    if hasattr(mod, "traced_jobs"):
        jobs = mod.traced_jobs(inputs, jobs)
    plain = Passes(jobs, args.seconds / 2, 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Passes(jobs, args.seconds / 2, 2, tracer=tracer)
    finally:
        tracer.uninstall()
    (lo, hi), n = traced.spans[0], len(traced.prints)
    tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.jsonl", lo, hi)
    values = layer_metrics(tracer, traced.spans, n, traced.counts_first)
    if hasattr(mod, "cli_metrics"):
        values.update(mod.cli_metrics(tracer, lo, hi, plain.first))
    values["setup.import_s"] = setup["import_s"]
    values["setup.inputs_s"] = setup["inputs_s"]
    values["trace.overhead_ratio"] = traced.total() / plain.total()
    values["calib.kernel_s"] = traced.speed.median()
    errors = check_outputs(mod, inputs, plain.first,
                           plain.prints + traced.prints)
    log(f"{args.workload} traced: {len(plain.prints)} untraced and {n} "
        f"traced passes, overhead x{values['trace.overhead_ratio']:.3f}, "
        f"{len(errors)} check errors")
    for err in errors[:20]:
        log("  " + err)
    return {"correct": not errors,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in LAYER_METRICS}}


if __name__ == "__main__":
    sys.exit(main())
