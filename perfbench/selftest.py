"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For each workload: run one pass on small inputs, confirm that the checks
accept the outputs, then corrupt one output at a time (or make dualkit's
validators accept anything) and confirm that the check named in brackets
reports it.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dualkit.diagram as dg  # noqa: E402
import dualkit.equivariant as eq  # noqa: E402
import dualkit.exactlin as el  # noqa: E402
import dualkit.models as md  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402
import wl_diagrams  # noqa: E402
import wl_equivariant  # noqa: E402
import wl_exact_models  # noqa: E402


def bump(rows, i=0, j=0, by=1):
    out = [list(r) for r in rows]
    out[i][j] += by
    return out


@contextmanager
def patched(owner, name, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def first(outputs, kind, pred=lambda key, out: True):
    return next(k for k, v in outputs.items() if k[0] == kind and pred(k, v))


def replaced(outputs, key, value):
    out = dict(outputs)
    out[key] = value
    return out


# ----------------------------------------------------------- corruptions

def diagrams_cases(inputs, o):
    corpus = first(o, "corpus")
    nf = next(k for k in inputs.bases if k[0] == "nf")
    ev3 = first(o, "ev", lambda k, v: len(k) == 4 and k[2] == "spanfin"
                and v.dom == 27)
    evc = first(o, "ev", lambda k, v: k[2] == "evconst")
    prod = first(o, "ev", lambda k, v: k[2] == "product")
    span = o[ev3]
    ev = o[evc]
    yield "corpus", replaced(o, corpus, dataclasses.replace(o[corpus],
                                                            ok=False)), None
    always_ok = (lambda trace, keep_intermediate=False:
                 dg.TraceReport(trace.name, True, len(trace.steps)))
    yield "corpus", o, (dg, "validate_trace", always_ok)
    yield "normal-forms", replaced(o, nf + ("d2",), o[nf + ("d3",)]), None
    yield "normal-forms", replaced(o, nf + ("d3",), o[nf + ("d1",)]), None
    yield "spanfin-eval", replaced(o, ev3, md.span(
        span.dom, span.cod, bump(span.matrix.tolist()))), None
    yield "spanfin-eval", replaced(
        o, ev3[:3] + ("d2",), md.span(span.dom, span.cod,
                                      bump(span.matrix.tolist(), 1, 2))), None
    yield "evconst-eval", replaced(o, evc, dataclasses.replace(
        ev, free=el.int_matrix(bump(ev.free.tolist())))), None
    p_ev, p_span = o[prod]
    yield "product-eval", replaced(o, prod, (p_ev, md.span(
        p_span.dom, p_span.cod, bump(p_span.matrix.tolist())))), None


def exact_cases(inputs, o):
    ev = md.EvConst()
    u, d, v = o[("snf", 0)]
    yield "snf", replaced(o, ("snf", 0), (u.transpose(), d, v)), None
    d2 = el.int_matrix(bump(d.tolist(), 0, 0, 1))
    yield "snf", replaced(o, ("snf", 0), (u, d2, v)), None
    cof = o[("cofiber", 0)]
    yield "cofiber", replaced(o, ("cofiber", 0), dataclasses.replace(
        cof, obj=md.ev_object(cof.obj.f + 1, dict(cof.obj.exc)))), None
    q = cof.quotient
    yield "cofiber", replaced(o, ("cofiber", 0), dataclasses.replace(
        cof, quotient=dataclasses.replace(
            q, free=el.int_matrix(bump(q.free.tolist()),
                                  shape=(q.free.rows, q.free.cols))))), None
    yield "mul", replaced(o, ("mul", 0), el.int_matrix(
        bump(o[("mul", 0)].tolist(), 3, 5))), None
    yield "rank-fp", replaced(o, ("rank-fp", 0), o[("rank-fp", 0)] + 1), None
    x = o[("solve-fp", 0)]
    p = x.domain[1]
    yield "solve-fp", replaced(o, ("solve-fp", 0), el.fp_matrix(
        p, bump(x.tolist()))), None
    nb = o[("null-fp", 0)]
    yield "null-fp", replaced(o, ("null-fp", 0), el.fp_matrix(
        nb.domain[1], bump(nb.tolist()))), None
    yield "solve-int", replaced(o, ("solve-int", 0), el.int_matrix(
        bump(o[("solve-int", 0)].tolist()))), None
    p1, p2, (uu, vv) = o[("char-split", 0)]
    yield "char-split", replaced(o, ("char-split", 0),
                                 (p1, p2, (uu, ev.negate(vv)))), None
    cl, comp = o[("complement", 0)]
    yield "complement", replaced(o, ("complement", 0), (cl, cl)), None
    for kind in ("split-dims", "split-exhaustive"):
        rep = o[(kind, 0)]
        yield kind, replaced(o, (kind, 0), dataclasses.replace(
            rep, verdict=False)), None
    rep = o[("split-exhaustive", 0)]
    pairs = [dict(pr, detail=dict(pr["detail"],
                                  hom_size=pr["detail"]["hom_size"] + 1))
             for pr in rep.pairs]
    yield "hom-sizes", replaced(o, ("split-exhaustive", 0),
                                dataclasses.replace(rep, pairs=pairs)), None
    for kind in ("span-compose", "span-tensor"):
        h = o[(kind, 0)]
        yield kind, replaced(o, (kind, 0), md.span(
            h.dom, h.cod, bump(h.matrix.tolist()))), None
    cf = o[("span-cofiber", 0)]
    yield "span-cofiber", replaced(o, ("span-cofiber", 0),
                                   dataclasses.replace(cf, obj=cf.obj + 1)), \
        None


def equivariant_cases(inputs, o):
    g = "d4"
    poset = o[("lattice", g)]
    yield "subgroups", replaced(o, ("lattice", g), dataclasses.replace(
        poset, classes=poset.classes[:-1])), None
    yield "subgroups", replaced(o, ("lattice", g), dataclasses.replace(
        poset, weyl_orders=(2,) + poset.weyl_orders[1:])), None
    w, reps = o[("weyl", g, 1)]
    yield "weyl", replaced(o, ("weyl", g, 1), (w, reps[:-1])), None
    action, _ = o[("untwist", g, 0)]
    yield "actions", replaced(o, ("untwist", g, 0), (action, False)), None
    cert, report = o[("cert", g)]
    yield "certificate", replaced(o, ("cert", g), (cert, dataclasses.replace(
        report, ok=False))), None
    yield "certificate", o, (eq, "validate_collapse_certificate",
                             lambda cert, poset: eq.CertReport(True))
    dim, rows = o[("fixdim", g, "permutation")]
    yield "fixdim", replaced(o, ("fixdim", g, "permutation"),
                             (dim, [(d + 1, r + 1) for d, r in rows])), None
    dim, rows = o[("fixdim", g, "regular")]
    yield "fixdim", replaced(o, ("fixdim", g, "regular"),
                             (dim, rows[:1] + [(r, r + 1) for _, r in
                                               rows[1:]])), None


def cli_cases(inputs, o):
    keys = [(k,) for k, _, _ in wl_cli.README]
    for a, b in zip(keys, keys[1:] + keys[:1]):
        yield "cli", replaced(o, a, o[b]), None
    for key, old, new in (("span-compose", "- 1", "- 2"),
                          ("evconst-split", "- 1", "- 2"),
                          ("equi-lattice", "class_size: 3",
                           "class_size: 2")):
        out = o[(key,)]
        assert old in out.stdout, (key, old)
        yield "cli", replaced(o, (key,), dataclasses.replace(
            out, stdout=out.stdout.replace(old, new, 1))), None


# ------------------------------------------------------------ self-test

def small_equivariant(inputs):
    keep = ("s3", "d4", "q8", "a4")
    inputs.groups = {g: inputs.groups[g] for g in keep}
    inputs.class_counts = {g: inputs.class_counts[g] for g in keep}
    inputs.reps = [(g, r) for g, r in inputs.reps if g in keep]
    inputs.corruption = {g: inputs.corruption[g] for g in keep}
    return inputs


def selftest(mod, cases, shrink=None, inprocess=False) -> int:
    name = mod.__name__[3:]
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        inputs = mod.build(0, Path(tmp))
        if shrink:
            inputs = shrink(inputs)
        jobs = mod.jobs(inputs)
        if inprocess:
            jobs = mod.traced_jobs(inputs, jobs)
        jobs.sort(key=lambda job: job.phase)
        outputs, _, _ = run.run_pass(jobs, calibrate.Speed())
        good = {k: v for k, v in outputs.items() if not run.is_failed(v)}
        errors = mod.check(inputs, good)
        if errors:
            print(f"{name}: clean outputs rejected: {errors[:3]}")
            return 1
        if not any("[determinism]" in e for e in
                   run.check_outputs(mod, inputs, good, [1, 2])):
            print(f"{name}: differing passes not noticed")
            return 1
        missed = 0
        for n, (tag, corrupted, patch) in enumerate(cases(inputs, good)):
            if patch:
                with patched(*patch):
                    errors = mod.check(inputs, corrupted)
            else:
                errors = mod.check(inputs, corrupted)
            if not any(e.startswith(f"[{tag}]") for e in errors):
                print(f"{name}: corruption {n} of [{tag}] not noticed")
                missed += 1
        print(f"{name}: {n + 1} corruptions, {missed} missed")
        return missed


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    missed = selftest(wl_diagrams, diagrams_cases)
    missed += selftest(wl_exact_models, exact_cases)
    missed += selftest(wl_equivariant, equivariant_cases, small_equivariant)
    missed += selftest(wl_cli, cli_cases, inprocess=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
