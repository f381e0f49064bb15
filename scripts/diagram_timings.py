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
``tests/test_evaluate_differential.py``).  It prints every time and exits
with status 1 if the normaliser or the k = 5 ``evaluate`` takes a second
or more, if the normal forms disagree, or if the two evaluations of any
k differ.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dualkit.diagram import (Cell, Diagram, Interpretation,  # noqa: E402
                             evaluate, normalize_symmetric, signature, word)
from dualkit.models import SpanFin, span  # noqa: E402
from test_evaluate_differential import whiskered_evaluate  # noqa: E402

SIG = signature(["T"], {"f": (["T"], ["T"])})
F = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
SERIES = (3, 4, 5, 6)


def parallel_boxes(k: int, braid_first: bool = False, extra: int = 0):
    """k boxes f side by side and a braid of wires 0 and 1, the braid
    before or after the boxes, then ``extra`` braids of wires 1 and 2."""
    boxes = [Cell("gen", w, "f") for w in range(k)]
    braid = [Cell("braid", 0, 1)]
    cells = braid + boxes if braid_first else boxes + braid
    cells += [Cell("braid", 1, 1)] * extra
    return Diagram(SIG, word(*["T"] * k), tuple(cells))


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
