"""The integer elimination and products on plain rows (lists or tuples of
Python ints) that ``dualkit.exactlin`` and ``dualkit.equivariant.rep``
share.

There are two products, with the same result.  ``mul_rows`` does one
Python operation per entry: it adds up the rows of b that the nonzero
entries of a row of a pick out.  ``mul_packed`` packs each row of b into
one big integer and does one big-integer multiply-add per nonzero entry
of a (Kronecker substitution), so its cost per product is the packing of
b and the unpacking of the result.  ``Matrix.mul`` uses ``mul_packed``
when its left factor has at least 16 rows and on average at least 12
nonzero entries per row (``exactlin.PACKED_ROWS`` and
``PACKED_NONZEROS``), where packing is 2-16x faster, and ``mul_rows``
otherwise: on a 64 x 64 left factor with 10 % of its entries nonzero the
two take about as long, and a sparser or smaller one is faster on
``mul_rows``.  ``apply_factor`` and ``rep.mat_mul`` always use
``mul_rows``: their left factors are small and sparse.
``scripts/exactlin_timings.py`` prints both products' timings.

``exactlin.Matrix`` wraps these rows with a scalar domain and a shape;
the representation layer keeps its own ``(rows, den)`` matrices, one
denominator over integer rows, instead of importing ``exactlin``:
compiling ``exactlin`` from source, with no cached bytecode, takes about
13 ms on a machine where the benchmark's ``equivariant`` workload spends
about 24 ms in ``setup_s``.  This module imports only modules built into
the interpreter, so neither side pays for the other.
"""

from itertools import repeat
from operator import add, sub
from sys import byteorder

# the memoryview format of each width in bytes that a machine integer has
_FORMATS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}


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


def _slot_bytes(a, top: int) -> int:
    """The bytes per slot that hold top, the largest packed entry, and
    sum(|x| for x in arow) * top for every row arow of a: the largest
    sum a packed row product can put in one slot of an accumulator.  A
    width of 3, 5, 6 or 7 bytes is rounded up to 4 or 8, the width of a
    machine integer, which ``memoryview`` unpacks without a Python call
    per slot."""
    bound = max([1, *(sum(map(abs, arow)) for arow in a)]) * top
    w = (bound.bit_length() + 7) // 8 or 1
    return w if w < 3 or w > 8 else 4 if w == 3 else 8


def mul_packed(a, b, ncols: int) -> list:
    """The rows of a*b, as ``mul_rows`` gives them, by Kronecker
    substitution.  Each row of b, lifted by bias = max(0, -min b) so that
    no entry is negative, is one integer of w-byte slots, and each row of
    a is one big-integer multiply-add per nonzero entry, into a positive
    or a negative accumulator by the sign of the entry.  No slot of an
    accumulator reaches 256**w (``_slot_bytes``), so each slot is its
    exact sum: the row of a*b is the positive slots less the negative
    ones less sum(arow) * bias.  Slots are read from ``to_bytes`` in the
    machine's byte order, as machine integers when w is 1, 2, 4 or 8."""
    if not ncols or not b:
        return [[0] * ncols for _ in a]
    bias = max(0, -min(map(min, b)))
    w = _slot_bytes(a, max(map(max, b)) + bias)
    size, fmt = w * ncols, _FORMATS.get(w)

    def unpack(acc):
        raw = acc.to_bytes(size, byteorder)
        if fmt:
            return memoryview(raw).cast(fmt).tolist()
        return [int.from_bytes(raw[i:i + w], byteorder)
                for i in range(0, size, w)]
    packed = [int.from_bytes(b"".join(map(
        int.to_bytes, map(add, row, repeat(bias)) if bias else row,
        repeat(w), repeat(byteorder))), byteorder) for row in b]
    out = []
    for arow in a:
        pos = neg = 0
        for x, row in zip(arow, packed):
            if x > 0:
                pos += x * row
            elif x:
                neg -= x * row
        out_row = unpack(pos)
        if neg:
            out_row = list(map(sub, out_row, unpack(neg)))
        shift = sum(arow) * bias
        out.append([e - shift for e in out_row] if shift else out_row)
    return out
