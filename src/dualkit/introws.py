"""The integer elimination and products on plain rows (lists or tuples of
Python ints) that ``dualkit.exactlin`` and ``dualkit.equivariant.rep``
share.

``echelon`` is the one integer row echelon under the Smith form,
``invariant_factors``, ``left_kernel_int``, ``solve_right_int`` and
``rep.mat_rank``.  It starts on lists, one Python operation per entry of
each row update, and once it has made ``PACKED_UPDATES`` (16) row
updates per row it packs each row not yet final into one signed big
integer (``_echelon_packed``), so that a row update is one big-integer
multiply-subtract, as in the packed product below:

- the slots have s bits, a whole number of bytes, with column 0 in the
  highest slot and every slot a signed digit; the entry of a live row in
  its first live column is a rounded shift, and the rows are unpacked
  once at the end with ``to_bytes``;
- every slot stays in a guard band [-2**t, 2**t).  Before each round s
  is at least t + bits(max |q|) + 2, so an update leaves every slot
  exact, and one add and one and, ``(v + band) & mask``, tell whether it
  left the band.  Only then are the rows unpacked and repacked, at
  t = 2 * bits + 16 for the largest entry's bits.

The rows and the rank are those of the list loop (kept as
``oracle_echelon`` in ``tests/test_exactlin_differential.py``), so every
Smith form, kernel, solve and cofiber is unchanged.  In one pass of the
benchmark's ``exact-models`` workload at seed 1, 30 of 344 echelons
switch: the first echelon of each Smith form and of each cofiber's
[F | I], and the second alternation of 3 of the 17 cofibers' invariant
factors.  Unit triangular solves, the small echelons of the idempotent
constructions and most later alternations stop before it.  On that
pass's cofibers and Smith forms, against the list loop alone, a switch
at 4 / 8 / 16 / 32 / 64 updates per row ran the cofibers x1.72 / 1.94 /
2.05 / 1.82 / 1.58 and the Smith forms x1.37 / 1.55 / 1.82 / 1.70 /
1.31 (the best of three in one process on a shared 2-vCPU machine).  On
the random 48 x 48 Smith form of ``scripts/exactlin_timings.py`` the
second alternation also switches, with entries of over 2000 bits and
few rounds left, and runs slower packed than on lists.

There are two products, with the same result.  The list product is
``mul_pairs``: it takes the left factor as the (column, entry) pairs of
the nonzero entries of each row (``nonzero_pairs``) and adds up the rows
of b those pairs pick out, one Python operation per entry of each row
added; a row that is a single entry 1 is that row of b itself.
``mul_rows`` is ``mul_pairs`` on pairs found while it runs.
``mul_packed`` packs each row of b into one big integer and does one
big-integer multiply-add per nonzero entry of a (Kronecker
substitution), so its cost per product is the packing of b and the
unpacking of the result.  ``Matrix.mul`` uses ``mul_packed`` when its
left factor has at least 16 rows and on average at least 12 nonzero
entries per row (``PACKED_ROWS`` and ``PACKED_NONZEROS``), where packing
is 2-16x faster, and ``mul_rows`` otherwise: on a 64 x 64 left factor
with 10 % of its entries nonzero the two take about as long, and a
sparser or smaller one is faster on ``mul_rows``.  Every list product
runs on ``mul_pairs``, and no other list product is written beside it;
a caller that multiplies by one left factor many times finds its pairs
once with ``nonzero_pairs``: ``apply_factor`` for its ``left x right``
blocks, and ``rep`` for each generator over every edge of the Cayley
graph.  ``scripts/exactlin_timings.py`` prints the timings of both
products, of both echelons and of the switch points.  The slot width
rule (``slot_width``) and the machine formats (``_FORMATS``) also size
the slots of the packed F_p elimination in ``exactlin``.

``exactlin.Matrix`` wraps these rows with a scalar domain and a shape;
the representation layer keeps its own ``(rows, den)`` matrices, one
denominator over integer rows, instead of importing ``exactlin``:
compiling ``exactlin`` from source, with no cached bytecode, takes about
13 ms on a machine where the benchmark's ``equivariant`` workload spends
about 24 ms in ``setup_s``.  This module imports only modules built into
the interpreter, so neither side pays for the other.
"""

from itertools import compress, repeat
from operator import add, sub
from sys import byteorder

# The switch points of the packed kernels.  Matrix.mul (exactlin) packs
# its right factor with mul_packed when its left factor has at least
# PACKED_ROWS rows and, on average, at least PACKED_NONZEROS nonzero
# entries per row; mul_rows is faster below that.  echelon packs its rows
# once it has made PACKED_UPDATES row updates per row: a switch at 4 or 8
# packs echelons with little work left and at 32 or 64 leaves work on the
# lists, and both gained less on the benchmark's cofibers and Smith forms
# (module docstring).
PACKED_ROWS, PACKED_NONZEROS, PACKED_UPDATES = 16, 12, 16

# the memoryview format of each width in bytes that a machine integer has
_FORMATS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}


def echelon(rows: list, ncols: int) -> int:
    """Row echelon form over Z of the first ncols columns of rows, in
    place; returns the rank.  Euclid down each column: the smallest
    nonzero |entry| is the pivot (the first such row on a tie), and the
    nearest multiple of it is subtracted from each row below until none
    is left.  On [m | I] the I-part records a unimodular U with
    U*m = echelon.  The rows must have equal lengths; a row that changes
    comes back as a list.

    The loop runs on plain lists until it has made PACKED_UPDATES row
    updates per row, and then hands the rest of the elimination to
    ``_echelon_packed``, which gives the same rows."""
    r = updates = 0
    for j in range(ncols):
        while r < len(rows):
            if updates >= PACKED_UPDATES * len(rows):
                return _echelon_packed(rows, ncols, r, j)
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
                    updates += 1
                    left = left or rows[i][j] != 0
            if not left:
                r += 1
                break
    return r


def _slot_bits(t: int, qbits: int) -> int:
    """A slot width of whole bytes for entries in [-2**t, 2**t) and
    multipliers of qbits bits, with room for multipliers of 2 * qbits
    bits, so that a multiplier that keeps growing repacks the rows only
    about log(bits) times."""
    return (t + 2 * qbits + 9) // 8 * 8


def _slots(width: int, s: int, x: int) -> int:
    """x in each of width slots of s bits."""
    return int.from_bytes(x.to_bytes(s // 8, "big") * width, "big")


def _band(width: int, s: int, t: int) -> tuple:
    """(band, mask) for the guard-band test on width slots of s bits:
    2**t in each slot, and the bits t+1..s-1 of each slot."""
    return _slots(width, s, 1 << t), _slots(width, s, (1 << s) - (2 << t))


def _pack(rows: list, s: int) -> list:
    """Each row as one integer sum(x_c * 2**(s*(width-1-c))): column 0 in
    the highest slot, every slot a signed digit."""
    w, width = s // 8, len(rows[0])
    half = 1 << (s - 1)
    lift = _slots(width, s, half)
    return [int.from_bytes(b"".join(map(
        int.to_bytes, map(add, row, repeat(half)), repeat(w),
        repeat("big"))), "big") - lift for row in rows]


def _unpack(packed: list, s: int, width: int) -> list:
    """The rows of ``_pack(rows, s)``, for digits in [-2**(s-1), 2**(s-1))."""
    w = s // 8
    half = 1 << (s - 1)
    lift = _slots(width, s, half)
    size = w * width
    out = []
    for v in packed:
        raw = (v + lift).to_bytes(size, "big")
        out.append([int.from_bytes(raw[k:k + w], "big") - half
                    for k in range(0, size, w)])
    return out


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _echelon_packed(rows: list, ncols: int, r: int, j0: int) -> int:
    """``echelon`` from column j0 on, with rows r.. not yet final, on
    rows packed as integers of s-bit slots (``_pack``).

    Every slot of a live row is kept in the band [-2**t, 2**t), which
    holds at the start (t = 2 * bits + 16 for the largest entry's bits).
    A row update is one big-integer v_i -= q * v_r: before a round, s is
    at least t + bits(max |q|) + 2 (else the rows are repacked wider), so
    every slot of the result is a digit of at most 2**(s-2) in absolute
    value and the integer still holds the row exactly.  After each update one
    test, (v_i + band) & mask == 0 with 2**t added to each slot and mask
    the bits t+1..s-1 of each slot, is true iff every slot is back in
    [-2**t, 2**t): the lowest slot out of the band, negative or at least
    2**(t+1) after the lift, has a bit of the mask set, since no slot
    below it borrows or carries.  Only when it fails are the live rows
    unpacked and repacked, at t = 2 * bits + 16.  A live row at column j
    is zero in the slots of the columns before j, so its entry in column
    j is the rounded quotient of v by 2**(s*(width-1-j)): the lower slots
    add up to less than half of that power."""
    n, width = len(rows), len(rows[0])
    t = 2 * _max_bits(rows[r:]) + 16
    s = _slot_bits(t, 0)
    v = [None] * r + _pack(rows[r:], s)
    for j in range(j0, ncols):
        sh = s * (width - 1 - j)
        e = [0] * r + ([((x >> (sh - 1)) + 1) >> 1 for x in v[r:]]
                       if sh else v[r:])
        while r < n:
            size = list(map(abs, e[r:]))
            d = min(filter(None, size), default=0)
            if not d:
                break
            piv = r + size.index(d)
            v[r], v[piv] = v[piv], v[r]
            e[r], e[piv] = e[piv], e[r]
            d = e[r]
            qs = [(i, (2 * e[i] + d) // (2 * d))
                  for i in range(r + 1, n) if e[i]]
            qbits = max((abs(q).bit_length() for _, q in qs), default=0)
            if s < t + qbits + 2:
                live = _unpack(v[r:], s, width)
                s = _slot_bits(t, qbits)
                v[r:] = _pack(live, s)
            band, mask = _band(width - j, s, t)
            prow = v[r]
            left = False
            for i, q in qs:
                x = v[i] = v[i] - q * prow
                e[i] -= q * d
                left = left or e[i] != 0
                if (x + band) & mask:
                    live = _unpack(v[r:], s, width)
                    t = 2 * _max_bits(live) + 16
                    s = _slot_bits(t, qbits)
                    v[r:] = _pack(live, s)
                    band, mask = _band(width - j, s, t)
                    prow = v[r]
            if not left:
                rows[r] = _unpack([v[r]], s, width)[0]
                r += 1
                break
    rows[r:] = _unpack(v[r:], s, width)
    return r


def nonzero_pairs(a) -> list:
    """The (column, entry) pairs of the nonzero entries of each row of a,
    for ``mul_pairs``."""
    return [list(compress(enumerate(row), row)) for row in a]


def mul_pairs(pairs, b, ncols: int) -> list:
    """The rows of a*b, where b has ncols columns and pairs holds, for
    each row of a, the (column, entry) pairs of its nonzero entries
    (``nonzero_pairs``): each row sums the rows of b its pairs pick out.
    A row that is a single entry 1 is that row of b itself."""
    out = []
    for prow in pairs:
        acc = None
        for j, x in prow:
            if acc is None:
                acc = b[j] if x == 1 else [x * e for e in b[j]]
            elif x == 1:
                acc = list(map(add, acc, b[j]))
            elif x == -1:
                acc = list(map(sub, acc, b[j]))
            else:
                acc = [s + x * e for s, e in zip(acc, b[j])]
        out.append([0] * ncols if acc is None else acc)
    return out


def mul_rows(a, b, ncols: int) -> list:
    """The rows of the product a*b, where b has ncols columns, by
    ``mul_pairs`` on the nonzero entries of each row of a.  A row equal
    to a row of b may be that row itself."""
    return mul_pairs(map(compress, map(enumerate, a), a), b, ncols)


def slot_width(bound: int) -> int:
    """The bytes per slot that hold every value in [0, bound], at least
    one.  A width of 3, 5, 6 or 7 bytes is rounded up to 4 or 8, the
    width of a machine integer, which ``memoryview`` and ``struct``
    unpack without a Python call per slot (``_FORMATS``)."""
    w = (bound.bit_length() + 7) // 8 or 1
    return w if w < 3 or w > 8 else 4 if w == 3 else 8


def _slot_bytes(a, top: int) -> int:
    """The bytes per slot that hold top, the largest packed entry, and
    sum(|x| for x in arow) * top for every row arow of a: the largest
    sum a packed row product can put in one slot of an accumulator."""
    return slot_width(max([1, *(sum(map(abs, arow)) for arow in a)]) * top)


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
