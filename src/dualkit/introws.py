"""The integer elimination and product on plain rows (lists or tuples of
Python ints) that ``dualkit.exactlin`` and ``dualkit.equivariant.rep``
share.

``exactlin.Matrix`` wraps these rows with a scalar domain and a shape;
the representation layer keeps its own ``(rows, den)`` matrices, one
denominator over integer rows, instead of importing ``exactlin``:
compiling ``exactlin`` from source, with no cached bytecode, takes about
13 ms on a machine where the benchmark's ``equivariant`` workload spends
about 24 ms in ``setup_s``.  This module imports nothing, so neither
side pays for the other.
"""

from operator import add


def echelon(rows: list, ncols: int) -> int:
    """Row echelon form over Z of the first ncols columns of rows, in
    place; returns the rank.  Euclid down each column: the smallest
    nonzero |entry| is the pivot, and the nearest multiple of it is
    subtracted from each row below until none is left.  On [m | I] the
    I-part records a unimodular U with U*m = echelon."""
    r = 0
    for j in range(ncols):
        while r < len(rows):
            piv = min((i for i in range(r, len(rows)) if rows[i][j]),
                      key=lambda i: abs(rows[i][j]), default=None)
            if piv is None:
                break
            rows[r], rows[piv] = rows[piv], rows[r]
            prow, d = rows[r], rows[r][j]
            left = False
            for i in range(r + 1, len(rows)):
                if rows[i][j]:
                    q = (2 * rows[i][j] + d) // (2 * d)
                    rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
                    left = left or rows[i][j] != 0
            if not left:
                r += 1
                break
    return r


def mul_rows(a, b, ncols: int) -> list:
    """The rows of the product a*b, where b has ncols columns: each row
    sums the rows of b picked out by the nonzero entries of a row of a.
    A row equal to a row of b may be that row itself."""
    out = []
    for arow in a:
        acc = None
        for x, brow in zip(arow, b):
            if not x:
                continue
            if acc is None:
                acc = brow if x == 1 else [x * e for e in brow]
            elif x == 1:
                acc = list(map(add, acc, brow))
            else:
                acc = [s + x * e for s, e in zip(acc, brow)]
        out.append([0] * ncols if acc is None else acc)
    return out
