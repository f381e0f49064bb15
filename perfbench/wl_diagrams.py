"""Workload ``diagrams``: corpus replay, the symmetric normaliser and
diagram evaluation in SpanFin, EvConst and their product.

Every generated diagram has the shape pi o L: a layer L of 1-in/1-out
boxes, one per wire, followed by a braid word pi.  Sliding pi through L
(naturality of the braiding) gives an equal diagram L' o pi; appending one
more braid gives a diagram that differs by one rewired output port.  Box
counts, wire counts and braid counts are fixed by the schedule below; the
seed picks labels, braid positions and signs, and matrix entries.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from importlib import resources

import dualkit.diagram as dg
import dualkit.models as md

from common import Job

DISTINCT = tuple(f"e{i}" for i in range(12))
EVAL_LABELS = ("f", "g", "e0", "e1")
SIG = dg.signature(["T"], {name: (["T"], ["T"])
                           for name in ("f", "g") + DISTINCT})
T = dg.word("T")[0]
DIM = 3
EV_PRIME = 2

# (wires, rounds, bases): distinct-label bases, each normalised as an
# equal pair and a rewired partner
DISTINCT_SCHEDULE = ((3, 1, 4), (4, 1, 6), (5, 1, 6), (6, 1, 4),
                     (3, 2, 4), (4, 2, 6), (5, 2, 4), (6, 2, 2))
# (identical boxes, bases, partners normalised)
IDENTICAL_SCHEDULE = ((5, 2, 3), (6, 2, 3), (7, 1, 3), (8, 1, 1))
# (wires, bases, braids, (model, partner) evaluations per base)
EVAL_SCHEDULE = (
    (2, 8, 4, (("spanfin", "d1"), ("evconst", "d1"))),
    (3, 6, 6, (("spanfin", "d1"), ("spanfin", "d2"), ("evconst", "d1"),
               ("product", "d1"))),
    (4, 1, 4, (("spanfin", "d1"), ("evconst", "d1"), ("product", "d1"))),
)


@dataclasses.dataclass
class Base:
    rounds: list            # [(labels per wire, [(offset, sign), ...]), ...]
    diagrams: dict          # "d1" = pi o L, "d2" = slid (equal), "d3" = rewired


@dataclasses.dataclass
class Inputs:
    traces: list
    corruptions: dict       # trace name -> (step index, corruption kind)
    bases: dict             # ("nf" | "ev", index) -> Base
    span_mats: dict
    ev_mats: dict
    ev_bits: dict
    interps: dict


def _braids(rng, n, count):
    return [(rng.randrange(n - 1), rng.choice((1, -1))) for _ in range(count)]


def _positions(n, braids):
    """wire at each output position after the braid word"""
    pos = list(range(n))
    for w, _ in braids:
        pos[w], pos[w + 1] = pos[w + 1], pos[w]
    return pos


def _make_base(rng, rounds) -> Base:
    n = len(rounds[0][0])
    d1, d2 = [], []
    for labels, braids in rounds:
        d1 += [dg.Cell("gen", w, label) for w, label in enumerate(labels)]
        d1 += [dg.Cell("braid", w, s) for w, s in braids]
        pos = _positions(n, braids)
        d2 += [dg.Cell("braid", w, s) for w, s in braids]
        d2 += [dg.Cell("gen", q, labels[pos[q]]) for q in range(n)]
    w = rng.randrange(n - 1)
    d3 = d1 + [dg.Cell("braid", w, rng.choice((1, -1)))]
    dom = (T,) * n
    return Base(rounds, {name: dg.Diagram(SIG, dom, tuple(cells))
                         for name, cells in (("d1", d1), ("d2", d2),
                                             ("d3", d3))})


def _matrix(rng, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(DIM)] for _ in range(DIM)]


def build(seed: int, workdir=None) -> Inputs:
    rng = random.Random(seed)
    traces = dg.list_traces()
    corruptions = {}
    for name in traces:
        n_steps = len(json.loads(_trace_text(name))["steps"])
        corruptions[name] = (rng.randrange(n_steps), rng.choice(("rule",
                                                                   "offset")))
    bases = {}
    for n, rounds, count in DISTINCT_SCHEDULE:
        for _ in range(count):
            labels = rng.sample(DISTINCT, n * rounds)
            bases[("nf", len(bases))] = _make_base(rng, [
                (labels[r * n:(r + 1) * n], _braids(rng, n, 2 * n))
                for r in range(rounds)])
    for k, count, _ in IDENTICAL_SCHEDULE:
        for _ in range(count):
            bases[("nf", len(bases))] = _make_base(
                rng, [(["f"] * k, _braids(rng, k, 2 * k))])
    for n, count, braids, _ in EVAL_SCHEDULE:
        for _ in range(count):
            labels = [rng.choice(EVAL_LABELS) for _ in range(n)]
            bases[("ev", len(bases))] = _make_base(
                rng, [(labels, _braids(rng, n, braids))])
    span_mats = {lab: _matrix(rng, 0, 3) for lab in EVAL_LABELS}
    ev_mats = {lab: _matrix(rng, -2, 3) for lab in EVAL_LABELS}
    ev_bits = {lab: rng.randint(0, 1) for lab in EVAL_LABELS}

    spanfin, evconst = md.SpanFin(), md.EvConst()
    t_ev = md.ev_object(DIM, {EV_PRIME: 1})
    span_gens = {lab: md.span(DIM, DIM, m) for lab, m in span_mats.items()}
    ev_gens = {lab: md.ev_morphism(t_ev, t_ev, ev_mats[lab],
                                   {EV_PRIME: [[ev_bits[lab]]]})
               for lab in EVAL_LABELS}
    interps = {
        "spanfin": dg.Interpretation(spanfin, {"T": DIM}, span_gens),
        "evconst": dg.Interpretation(evconst, {"T": t_ev}, ev_gens),
        "product": dg.Interpretation(
            md.product_category(evconst, spanfin), {"T": (t_ev, DIM)},
            {lab: (ev_gens[lab], span_gens[lab]) for lab in EVAL_LABELS}),
    }
    return Inputs(traces, corruptions, bases, span_mats, ev_mats, ev_bits,
                  interps)


def _trace_text(name: str) -> str:
    return (resources.files("dualkit.diagram") / "data" /
            f"{name}.json").read_text()


def _replay(name):
    return dg.validate_trace(dg.load_trace(name))


def jobs(inputs: Inputs) -> list:
    out = [Job(("corpus", name), "corpus",
               lambda name=name: _replay(name)) for name in inputs.traces]
    schedule = {}
    for k, _, partners in IDENTICAL_SCHEDULE:
        schedule[k] = ("d1", "d2", "d3")[:partners]
    ev_plan = {n: plan for n, _, _, plan in EVAL_SCHEDULE}
    for key, base in inputs.bases.items():
        d1 = base.diagrams["d1"]
        if key[0] == "nf":
            identical = all(lab == "f" for lab in base.rounds[0][0])
            names = schedule[len(d1.dom)] if identical else ("d1", "d2", "d3")
            kind = "normalize-identical" if identical else \
                "normalize-distinct"
            out += [Job(key + (name,), kind,
                        lambda d=base.diagrams[name]: dg.normalize_symmetric(d))
                    for name in names]
        else:
            for model, name in ev_plan[len(d1.dom)]:
                out.append(Job(
                    key + (model, name), f"evaluate-{model}",
                    lambda d=base.diagrams[name], i=inputs.interps[model]:
                    dg.evaluate(d, i)))
    return out


# ------------------------------------------------------------------ checks

def _formula(base: Base, mats, n_dim=DIM):
    """Entry formula for pi o L: out[J][I] = prod_w M_w[j_q(w)][i_w], with
    q(w) the output position of wire w and the first wire most
    significant."""
    labels, braids = base.rounds[0]
    n = len(labels)
    pos = _positions(n, braids)
    q = [pos.index(w) for w in range(n)]
    size = n_dim ** n

    def digits(x):
        return [(x // n_dim ** (n - 1 - k)) % n_dim for k in range(n)]

    cols = [digits(i) for i in range(size)]
    return [[math.prod(mats[labels[w]][j[q[w]]][i[w]] for w in range(n))
             for i in cols] for j in cols]


def _ev_expected(base: Base, inputs: Inputs):
    labels = base.rounds[0][0]
    bit = math.prod(inputs.ev_bits[lab] for lab in labels) % EV_PRIME
    return _formula(base, inputs.ev_mats), [[bit]]


def _ev_matches(mor, base, inputs) -> bool:
    free, comp = _ev_expected(base, inputs)
    return (mor.free.tolist() == free
            and dict(mor.explicit).get(EV_PRIME) is not None
            and dict(mor.explicit)[EV_PRIME].tolist() == comp)


def _corrupt(trace, step_idx, kind):
    s = trace.steps[step_idx]
    if kind == "rule":
        other = "braid-nat" if s.rule != "braid-nat" else "interchange"
        bad = dg.Step(other, s.direction, s.slice_idx, s.offset)
    else:
        bad = dg.Step(s.rule, s.direction, s.slice_idx, s.offset + 1)
    return dataclasses.replace(
        trace, steps=trace.steps[:step_idx] + (bad,) + trace.steps[step_idx + 1:])


def check(inputs: Inputs, outputs: dict) -> list:
    errors = []
    for name in inputs.traces:
        report = outputs.get(("corpus", name))
        if report is None:
            continue
        n_steps = len(json.loads(_trace_text(name))["steps"])
        if not report.ok or report.steps_applied != n_steps:
            errors.append(f"[corpus] {name} did not replay: {report.message}")
        trace = dg.RewriteTrace.from_json(json.loads(_trace_text(name)))
        if dg.validate_trace(_corrupt(trace, *inputs.corruptions[name])).ok:
            errors.append(f"[corpus] corrupted {name} was accepted")
    for key, base in inputs.bases.items():
        if key[0] == "nf":
            nfs = {name: outputs.get(key + (name,)) for name in
                   ("d1", "d2", "d3")}
            labels = sorted(("gen", lab) for labels, _ in base.rounds
                            for lab in labels)
            for name, nf in nfs.items():
                if nf is not None and list(nf.boxes) != labels:
                    errors.append(f"[normal-forms] {key} {name}: boxes "
                                  f"{nf.boxes} != {labels}")
            if None not in (nfs["d1"], nfs["d2"]) and nfs["d1"] != nfs["d2"]:
                errors.append(f"[normal-forms] {key}: equal pair differs")
            if None not in (nfs["d1"], nfs["d3"]) and nfs["d1"] == nfs["d3"]:
                errors.append(f"[normal-forms] {key}: rewired pair equal")
            continue
        span1 = outputs.get(key + ("spanfin", "d1"))
        span2 = outputs.get(key + ("spanfin", "d2"))
        if span1 is not None and \
                span1.matrix.tolist() != _formula(base, inputs.span_mats):
            errors.append(f"[spanfin-eval] {key}: differs from the entry "
                          "formula")
        if None not in (span1, span2) and span1 != span2:
            errors.append(f"[spanfin-eval] {key}: equal diagrams evaluate "
                          "differently")
        ev = outputs.get(key + ("evconst", "d1"))
        if ev is not None and not _ev_matches(ev, base, inputs):
            errors.append(f"[evconst-eval] {key}: differs from the entry "
                          "formula")
        prod = outputs.get(key + ("product", "d1"))
        if prod is not None and not (
                _ev_matches(prod[0], base, inputs)
                and prod[1].matrix.tolist() == _formula(base,
                                                        inputs.span_mats)):
            errors.append(f"[product-eval] {key}: a component differs from "
                          "the entry formula")
    return errors
