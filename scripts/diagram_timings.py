"""Time the diagram layer's largest cases in one fresh interpreter.

Run from the repository root:

    python3 scripts/diagram_timings.py

The first case is 12 parallel boxes f: T -> T followed by one braid,
normalised three ways: as built, with the braid slid below the boxes (an
equal diagram) and with one more braid (a rewired one); the script checks
that the first two forms agree and the third differs.  The second is a
scaling series: k = 3, 4, 5, 6 parallel boxes and one braid evaluated in
SpanFin with T |-> 3 and f = [[1,1,0],[0,1,1],[1,0,1]] (matrices of
dimension 3^k, up to 729), by ``evaluate`` and by the whiskering loop it
replaced (``whiskered_evaluate``, the oracle in
``tests/test_evaluate_differential.py``).  The third is a scaling series
over the width: W = 4, 8, 16, 32 wires, one box f per wire and then 4W
braids at seeded places, traced to an open graph and normalised (ms per
call, best of five rounds), with the least-squares slope of log time
over log W; each diagram is also normalised with its braids slid below
the boxes, an equal diagram.  A trace that re-derived the word of W
letters at every slice would have a slope near 2; one that reads the
words kept when the diagram was built, near 1.  It prints every time
and exits with status 1 if the normaliser or the k = 5 ``evaluate``
takes a second or more, if the normal forms of two equal diagrams
disagree or of the rewired one agree, or if the two evaluations of any k
differ.
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
from dualkit.models import SpanFin, span  # noqa: E402
from test_evaluate_differential import whiskered_evaluate  # noqa: E402

SIG = signature(["T"], {"f": (["T"], ["T"])})
F = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
SERIES = (3, 4, 5, 6)
WIDTHS = (4, 8, 16, 32)


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
    interp = Interpretation(SpanFin(), {"T": 3}, {"f": span(3, 3, F)})
    print("evaluate in SpanFin, k boxes and a braid: evaluate / whiskered")
    for n in SERIES:
        value, evaluate_s = timed(lambda: evaluate(parallel_boxes(n), interp))
        oracle, oracle_s = timed(
            lambda: whiskered_evaluate(parallel_boxes(n), interp))
        agree = value == oracle
        print(f"  k = {n}, dimension {value.dom}: {evaluate_s * 1e3:.1f} / "
              f"{oracle_s * 1e3:.1f} ms" + ("" if agree else " (DIFFER)"))
        ok = ok and agree and (n != 5 or evaluate_s < 1.0)
    ok = width_series() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
