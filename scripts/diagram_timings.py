"""Time the diagram layer's two largest cases in one fresh interpreter.

Run from the repository root:

    python3 scripts/diagram_timings.py

The first case is 12 parallel boxes f: T -> T followed by one braid,
normalised three ways: as built, with the braid slid below the boxes (an
equal diagram) and with one more braid (a rewired one); the script checks
that the first two forms agree and the third differs.  The second case
evaluates 5 parallel boxes and one braid in SpanFin with T |-> 3 and
f = [[1,1,0],[0,1,1],[1,0,1]] (matrices of dimension 243).  It prints
both times and exits with status 1 if either takes a second or more, or
if the normal forms disagree.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualkit.diagram import (Cell, Diagram, Interpretation,  # noqa: E402
                             evaluate, normalize_symmetric, signature, word)
from dualkit.models import SpanFin, span  # noqa: E402

SIG = signature(["T"], {"f": (["T"], ["T"])})
F = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


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
    interp = Interpretation(SpanFin(), {"T": 3}, {"f": span(3, 3, F)})
    value, evaluate_s = timed(lambda: evaluate(parallel_boxes(5), interp))
    print(f"normalize_symmetric, {k} identical boxes, equal / slid / "
          f"rewired: {normalize_s * 1e3:.1f} ms"
          + ("" if forms_ok else " (normal forms WRONG)"))
    print(f"evaluate in SpanFin, 5 boxes, dimension {value.dom}: "
          f"{evaluate_s:.3f} s")
    return 0 if forms_ok and max(normalize_s, evaluate_s) < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
