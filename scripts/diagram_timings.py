"""Time the diagram layer's largest cases in one fresh interpreter.

Run from the repository root:

    python3 scripts/diagram_timings.py

The first case is 12 parallel boxes f: T -> T followed by one braid,
normalised three ways: as built, with the braid slid below the boxes (an
equal diagram) and with one more braid (a rewired one); the script checks
that the first two forms agree and the third differs.  The second is a
scaling series: k = 3, 4, 5, 6 parallel boxes and one braid evaluated in
SpanFin with T |-> 3 and f = [[1,1,0],[0,1,1],[1,0,1]] (matrices of
dimension 3^k, up to 729) in two equal forms, the boxes first, which
``evaluate`` builds as one tensor product, and the braid first, where
each box acts on the running morphism, with the least-squares slope of
log time over log dimension for each form; both forms are also
evaluated by the whiskering loop ``evaluate`` replaced
(``whiskered_evaluate``, the oracle in
``tests/test_evaluate_differential.py``).  The third is a scaling series
over the width: W = 4, 8, 16, 32 wires, one box f per wire and then 4W
braids at seeded places, traced to an open graph and normalised (ms per
call, best of five rounds), with the least-squares slope of log time
over log W; each diagram is also normalised with its braids slid below
the boxes, an equal diagram.  A trace that re-derived the word of W
letters at every slice would have a slope near 2; one that reads the
words kept when the diagram was built, near 1.  The fourth is a series
over the length of a run of braids: W = 4 wires with a box f on each,
then B = 4, 8, 16, 32 braids at seeded places and signs, evaluated in
SpanFin, EvConst (T |-> S^3 with dimension 1 at 2) and their product
(ms per call, best of five rounds), with the least-squares slope of log
time over log B for each model.  An evaluation that builds a braiding
and acts once per braid grows linearly in B on top of the fixed cost of
the leading layer (a slope of about 0.5-0.6 at these B); one that
applies the whole run as one reordering of rows has a slope near 0.  It prints every time and exits
with status 1 if the normaliser or a k = 5 ``evaluate`` takes a second
or more, if the normal forms of two equal diagrams disagree or of the
rewired one agree, or if ``evaluate`` and the whiskering loop differ on
either form of any k or on any diagram of the braid-run series.
"""

from __future__ import annotations

import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dualkit.diagram import (Cell, Diagram, Interpretation,  # noqa: E402
                             diagram_to_open_graph, evaluate,
                             normalize_symmetric, signature, word)
from dualkit.models import (EvConst, SpanFin, ev_morphism,  # noqa: E402
                            ev_object, product_category, span)
from test_evaluate_differential import whiskered_evaluate  # noqa: E402

SIG = signature(["T"], {"f": (["T"], ["T"])})
F = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
SERIES = (3, 4, 5, 6)
WIDTHS = (4, 8, 16, 32)
RUNS = (4, 8, 16, 32)
RUN_WIDTH = 4


def parallel_boxes(k: int, braid_first: bool = False, extra: int = 0):
    """k boxes f side by side and a braid of wires 0 and 1, the braid
    before or after the boxes, then ``extra`` braids of wires 1 and 2."""
    boxes = [Cell("gen", w, "f") for w in range(k)]
    braid = [Cell("braid", 0, 1)]
    cells = braid + boxes if braid_first else boxes + braid
    cells += [Cell("braid", 1, 1)] * extra
    return Diagram(SIG, word(*["T"] * k), tuple(cells))


def braided_boxes(width: int, slid: bool = False):
    """A box f on each of ``width`` wires, then 4 * width braids at
    places and signs seeded by the width; slid puts the braids first,
    which is an equal diagram as every box is f."""
    rng = random.Random(width)
    braids = [Cell("braid", rng.randrange(width - 1), rng.choice((1, -1)))
              for _ in range(4 * width)]
    boxes = [Cell("gen", w, "f") for w in range(width)]
    cells = braids + boxes if slid else boxes + braids
    return Diagram(SIG, word(*["T"] * width), tuple(cells))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def ms_per_call(fn, arg) -> float:
    """The best of five rounds of about 20 ms, in ms per call."""
    _, once = timed(lambda: fn(arg))
    calls = max(1, int(0.02 / max(once, 1e-6)))
    best = min(timed(lambda: [fn(arg) for _ in range(calls)])[1]
               for _ in range(5))
    return best / calls * 1e3


def slope(xs, ys) -> float:
    """The least-squares slope of log y over log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / \
        sum((a - mx) ** 2 for a in lx)


def evaluate_series() -> bool:
    """Print the evaluation series of both forms; true when every
    evaluation agrees with the whiskering loop and no k = 5 evaluation
    takes a second or more."""
    interp = Interpretation(SpanFin(), {"T": 3}, {"f": span(3, 3, F)})
    print("evaluate in SpanFin, k boxes and a braid (ms): boxes first / "
          "braid first, then the whiskered loop on each")
    times, ok = {False: [], True: []}, True
    for n in SERIES:
        row = []
        for braid_first in (False, True):
            d = parallel_boxes(n, braid_first=braid_first)
            value, evaluate_s = timed(lambda: evaluate(d, interp))
            oracle, oracle_s = timed(lambda: whiskered_evaluate(d, interp))
            agree = value == oracle
            ok = ok and agree and (n != 5 or evaluate_s < 1.0)
            times[braid_first].append(evaluate_s)
            row.append((evaluate_s, oracle_s, agree))
        print(f"  k = {n}, dimension {value.dom}: "
              f"{row[0][0] * 1e3:.1f} / {row[1][0] * 1e3:.1f}, whiskered "
              f"{row[0][1] * 1e3:.1f} / {row[1][1] * 1e3:.1f}"
              + ("" if row[0][2] and row[1][2] else " (DIFFER)"))
    dims = [3 ** n for n in SERIES]
    print(f"  log-log slope over the dimension: boxes first "
          f"{slope(dims, times[False]):.2f}, braid first "
          f"{slope(dims, times[True]):.2f}")
    return ok


def width_series() -> bool:
    """Print the open-graph and normaliser series over the width; true
    when every pair of equal diagrams has one normal form."""
    print("open graph / normalize_symmetric, W boxes f then 4W braids "
          "(ms per call)")
    graph_ms, normal_ms, ok = [], [], True
    for width in WIDTHS:
        d = braided_boxes(width)
        graph_ms.append(ms_per_call(diagram_to_open_graph, d))
        normal_ms.append(ms_per_call(normalize_symmetric, d))
        agree = normalize_symmetric(d) == \
            normalize_symmetric(braided_boxes(width, slid=True))
        ok = ok and agree
        print(f"  W = {width}: {graph_ms[-1]:.3f} / {normal_ms[-1]:.3f} ms"
              + ("" if agree else " (normal forms DIFFER)"))
    print(f"  log-log slope: open graph {slope(WIDTHS, graph_ms):.2f}, "
          f"normalize {slope(WIDTHS, normal_ms):.2f}")
    return ok


def braid_run(braids: int):
    """A box f on each of RUN_WIDTH wires, then ``braids`` braids at
    places and signs seeded by their number."""
    rng = random.Random(braids)
    boxes = [Cell("gen", w, "f") for w in range(RUN_WIDTH)]
    run = [Cell("braid", rng.randrange(RUN_WIDTH - 1), rng.choice((1, -1)))
           for _ in range(braids)]
    return Diagram(SIG, word(*["T"] * RUN_WIDTH), tuple(boxes + run))


def run_interpretations() -> dict:
    """T and f in SpanFin, in EvConst and in their product."""
    spanfin, evconst = SpanFin(), EvConst()
    t = ev_object(3, {2: 1})
    f_sf, f_ev = span(3, 3, F), ev_morphism(t, t, F, {2: [[1]]})
    return {
        "spanfin": Interpretation(spanfin, {"T": 3}, {"f": f_sf}),
        "evconst": Interpretation(evconst, {"T": t}, {"f": f_ev}),
        "product": Interpretation(product_category(evconst, spanfin),
                                  {"T": (t, 3)}, {"f": (f_ev, f_sf)}),
    }


def braid_run_series() -> bool:
    """Print the evaluation series over the length of the braid run in
    each model; true when every evaluation agrees with the whiskering
    loop."""
    interps = run_interpretations()
    print(f"evaluate, {RUN_WIDTH} boxes f then B braids (ms per call): "
          + " / ".join(interps))
    times, ok = {name: [] for name in interps}, True
    for braids in RUNS:
        d = braid_run(braids)
        differ = []
        for name, interp in interps.items():
            times[name].append(ms_per_call(lambda d: evaluate(d, interp), d))
            if not interp.model.mor_eq(evaluate(d, interp),
                                       whiskered_evaluate(d, interp)):
                differ.append(name)
        ok = ok and not differ
        print(f"  B = {braids}: "
              + " / ".join(f"{times[name][-1]:.3f}" for name in interps)
              + (f" (DIFFER in {', '.join(differ)})" if differ else ""))
    print("  log-log slope over B: " + ", ".join(
        f"{name} {slope(RUNS, times[name]):.2f}" for name in interps))
    return ok


def main() -> int:
    k = 12
    (built, slid, rewired), normalize_s = timed(lambda: [
        normalize_symmetric(d) for d in (
            parallel_boxes(k), parallel_boxes(k, braid_first=True),
            parallel_boxes(k, extra=1))])
    forms_ok = built == slid != rewired
    print(f"normalize_symmetric, {k} identical boxes, equal / slid / "
          f"rewired: {normalize_s * 1e3:.1f} ms"
          + ("" if forms_ok else " (normal forms WRONG)"))
    ok = forms_ok and normalize_s < 1.0
    ok = evaluate_series() and ok
    ok = width_series() and ok
    ok = braid_run_series() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
