"""The integer elimination, the F_p elimination and the products on
plain rows (lists or tuples of Python ints) that ``dualkit.exactlin``
and ``dualkit.equivariant.rep`` share.

The packed kernels share one row format (``_codec``): a row of width
entries is one integer of w-byte slots, column 0 in the highest slot.
An integer row is one signed digit per slot, sum(x_c * 2**(s*(width-1-c)))
for s = 8 * w and every x_c in [-2**(s-1), 2**(s-1)); an F_p row is one
nonnegative entry per slot.  Either way the slots of 1, 2, 4 or 8
bytes go through one ``struct.Struct``, and wider slots one at a time.
Column 0 is on top because the echelon reads a live row's leading entry
as a rounded shift from the top; the F_p elimination reads column j by
a shift from the top and a mask.

``echelon`` is the one integer row echelon under the Smith form,
``invariant_factors``, ``left_kernel_int``, ``solve_right_int`` and
``rep.mat_rank``.  It starts on lists, one Python operation per entry of
each row update, and once it has made ``PACKED_UPDATES`` (16) row
updates per row it packs each row not yet final into one signed big
integer (``_echelon_packed``), so that a row update is one big-integer
multiply-subtract:

- the slots have s bits, a whole number of bytes, and every slot a
  signed digit; the entry of a live row in its first live column is a
  rounded shift, and the rows are unpacked once at the end;
- every slot stays in a guard band [-2**t, 2**t).  Before each round s
  is at least t + bits(max |q|) + 2, so an update leaves every slot
  exact, and one add and one and, ``(v + band) & mask``, tell whether it
  left the band.  Only then are the rows unpacked and repacked, at
  t = 2 * bits + 16 for the largest entry's bits.

The rows and the rank are those of the list loop (kept as
``oracle_echelon`` in ``tests/test_exactlin_differential.py``), so every
Smith form, kernel, solve and cofiber is unchanged.  In one pass of the
benchmark's ``exact-models`` workload at seed 1, 30 of 344 echelons
switch: the first echelon of each Smith form's [M | I] and of each
cofiber's free part F, and the second alternation of 3 of the 17
cofibers' invariant factors.  Unit triangular solves, the small
echelons of the idempotent constructions and most later alternations
stop before it.  When the cofibers still echelonned [F | I], a switch
at 4 / 8 / 16 / 32 / 64 updates per row ran that pass's cofibers
x1.72 / 1.94 / 2.05 / 1.82 / 1.58 and its Smith forms x1.37 / 1.55 /
1.82 / 1.70 / 1.31 against the list loop alone (the best of three in one
process on a shared 2-vCPU machine).  On F alone the cofibers gain less
from packing, x1.38-1.65 at 16 in four sweeps of the best of three or
five, and no other point beat 16 in all four.  On the random 48 x 48
Smith form of ``scripts/exactlin_timings.py`` the second alternation
also switches, with entries of over 2000 bits and few rounds left, and
runs slower packed than on lists.

An echelon given a ``log`` list appends each Euclid round to it, in the
list phase and the packed phase alike: (r, piv, the pairs (i, q) of
each row i it updated and its multiplier q), with the pivots, the
multipliers, the switch and the repacks unchanged.  ``transform_row`` replays the log backwards from
e_k to give row k of the unimodular U with U*rows = echelon, the I-part
that an echelon of [rows | I] would carry in every row update.
``exactlin.left_kernel_int`` echelons F alone and replays only its
n - r kernel rows: on the benchmark's 17 cofibers, 16 to 48 rows each
with 47 kernel rows in all, the echelon of F took 114-128 ms and the
replay 18-31 ms, against 178 ms for the echelon of [F | I], whose
identity block, once the early columns are cleared, is about two
thirds of the big-integer work.  Over F_p the same replay gained
nothing (the packed F_p rows never grow), so ``left_null_basis_fp``
keeps [m | I].

``_forward_fp`` is the one forward elimination over F_p, under
``exactlin.rank_fp``, ``left_null_basis_fp`` and ``solve_right_fp``.  It
packs each row it updates into F_p slots wide enough for every update
it can make (``_fp_slot_bytes``), so a row update is one big-integer
multiply-add with no reduction mod p.

There are two products, with the same result.  The list product is
``mul_pairs``: it takes the left factor as the (column, entry) pairs of
the nonzero entries of each row (``nonzero_pairs``) and adds up the rows
of b those pairs pick out, one Python operation per entry of each row
added; a row that is a single entry 1 is that row of b itself.
``mul_rows`` is ``mul_pairs`` on pairs found while it runs.
``mul_packed`` packs each row of b as signed digits and sums, for each
row of a, its entries times the packed rows (Kronecker substitution),
so its cost per product is the packing of b and the unpacking of the
result.  ``Matrix.mul`` uses ``mul_packed`` when its left factor has at
least 16 rows and on average at least 12 nonzero entries per row
(``PACKED_ROWS`` and ``PACKED_NONZEROS``), and ``mul_rows`` otherwise.
In ``scripts/exactlin_timings.py`` on dense n x n factors with entries
in [-9, 9], packing ran x4.2 / 8.7-9.1 / 16.5-16.9 / 23-25 faster at
n = 16 / 32 / 64 / 128; with 10 % of the entries nonzero the two took
about as long at n = 32, and packing ran x1.8-1.95 faster at n = 64
(two runs, median of five calls each, on a shared 2-vCPU machine).
Every list product runs on ``mul_pairs``, and no other list product is
written beside it; a caller that multiplies by one left factor many
times finds its pairs once with ``nonzero_pairs``: ``apply_factor`` for
its ``left x right`` blocks, and ``rep`` for each generator over every
edge of the Cayley graph.  ``scripts/exactlin_timings.py`` prints the
timings of both products, of both echelons, of both F_p eliminations
and of the switch points.

``exactlin.Matrix`` wraps these rows with a scalar domain and a shape;
the representation layer keeps its own ``(rows, den)`` matrices, one
denominator over integer rows, instead of importing ``exactlin``:
compiling ``exactlin`` from source, with no cached bytecode, takes about
13 ms on a machine where the benchmark's ``equivariant`` workload spends
about 24 ms in ``setup_s``.  This module imports only ``itertools``
and ``operator``, which are built into the interpreter, and ``struct``,
which took about 0.6 ms under ``python -X importtime`` there, so
neither side pays for the other.
"""

from itertools import compress
from operator import add, mul, sub
from struct import Struct

# The switch points of the packed kernels.  Matrix.mul (exactlin) packs
# its right factor with mul_packed when its left factor has at least
# PACKED_ROWS rows and, on average, at least PACKED_NONZEROS nonzero
# entries per row; mul_rows is faster below that.  echelon packs its rows
# once it has made PACKED_UPDATES row updates per row: a switch at 4 or 8
# packs echelons with little work left and at 32 or 64 leaves work on the
# lists, and both gained less on the benchmark's cofibers and Smith forms
# (module docstring).
PACKED_ROWS, PACKED_NONZEROS, PACKED_UPDATES = 16, 12, 16

# the struct format of each slot width in bytes that a machine integer has
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def slot_width(bound: int) -> int:
    """The bytes per slot that hold every value in [0, bound], at least
    one.  A width of 3, 5, 6 or 7 bytes is rounded up to 4 or 8, the
    width of a machine integer, which ``_codec`` packs and unpacks
    without a Python call per slot (``_FORMATS``)."""
    w = (bound.bit_length() + 7) // 8 or 1
    return w if w < 3 or w > 8 else 4 if w == 3 else 8


def _slots(width: int, s: int, x: int) -> int:
    """x in each of width slots of s bits."""
    return int.from_bytes(x.to_bytes(s // 8, "big") * width, "big")


def _codec(w: int, width: int, signed: bool = False) -> tuple:
    """(pack, unpack) for rows of width entries in w-byte slots: pack
    makes a row one integer, column 0 in the highest slot, and unpack
    gives the row back as a list.  Unsigned, each entry is a slot in
    [0, 256**w).  Signed, each entry is a digit x_c in
    [-2**(s-1), 2**(s-1)) for s = 8 * w, and the row is
    sum(x_c * 2**(s*(width-1-c))).  Adding lift, 2**(s-1) in every slot,
    makes every slot x_c + 2**(s-1): the slot of x_c in two's complement
    with its top bit flipped.  So with T the two's-complement slots (the
    signed ``struct`` formats) the row is (T ^ lift) - lift, and T is
    (row + lift) ^ lift.  Slots of 1, 2, 4 or 8 bytes go through one
    ``struct.Struct``, wider ones one slot at a time.  An entry out of
    range does not pack (``struct.error`` or OverflowError), and an
    integer whose top slot is out of range does not unpack
    (OverflowError)."""
    size, fmt = w * width, _FORMATS.get(w)
    if fmt:
        slots = Struct(f">{width}{fmt.lower() if signed else fmt}")

        def join(row):
            return int.from_bytes(slots.pack(*row), "big")

        def split(x):
            return list(slots.unpack(x.to_bytes(size, "big")))
    else:
        def join(row):
            return int.from_bytes(b"".join(
                [x.to_bytes(w, "big", signed=signed) for x in row]), "big")

        def split(x):
            raw = x.to_bytes(size, "big")
            return [int.from_bytes(raw[k:k + w], "big", signed=signed)
                    for k in range(0, size, w)]
    if not signed:
        return join, split
    lift = _slots(width, 8 * w, 1 << (8 * w - 1))
    return (lambda row: (join(row) ^ lift) - lift,
            lambda x: split((x + lift) ^ lift))


def echelon(rows: list, ncols: int, log: list | None = None) -> int:
    """Row echelon form over Z of the first ncols columns of rows, in
    place; returns the rank.  Euclid down each column: the smallest
    nonzero |entry| is the pivot (the first such row on a tie), and the
    nearest multiple of it is subtracted from each row below until none
    is left.  The rows must have equal lengths; a row that changes comes
    back as a list.

    Each Euclid round swaps rows r and piv and then subtracts q times
    the new row r from each row i below it with a nonzero entry.  Given
    a list ``log``, every round appends (r, piv, its (i, q) pairs) to it,
    so that ``transform_row`` gives the rows of the unimodular U with
    U*rows = echelon: what the I-part of [rows | I] would hold, without
    the identity block in every row update.

    The loop runs on plain lists until it has made PACKED_UPDATES row
    updates per row, and then hands the rest of the elimination to
    ``_echelon_packed``, which gives the same rows and logs the same
    rounds."""
    r = updates = 0
    for j in range(ncols):
        while r < len(rows):
            if updates >= PACKED_UPDATES * len(rows):
                return _echelon_packed(rows, ncols, r, j, log)
            piv = min((i for i in range(r, len(rows)) if rows[i][j]),
                      key=lambda i: abs(rows[i][j]), default=None)
            if piv is None:
                break
            rows[r], rows[piv] = rows[piv], rows[r]
            prow, d = rows[r], rows[r][j]
            left, qs = False, []
            for i in range(r + 1, len(rows)):
                if rows[i][j]:
                    q = (2 * rows[i][j] + d) // (2 * d)
                    rows[i] = [x - q * y for x, y in zip(rows[i], prow)]
                    updates += 1
                    left = left or rows[i][j] != 0
                    if log is not None:
                        qs.append((i, q))
            if log is not None:
                log.append((r, piv, qs))
            if not left:
                r += 1
                break
    return r


def transform_row(log: list, n: int, k: int) -> list:
    """Row k of the unimodular U with U*rows = echelon, for the n rows
    an ``echelon`` logged its rounds of in log.

    A round is U_t = A_t*P_t: P_t swaps rows r and piv, and A_t subtracts
    q times row r from each logged row i.  So U = U_K*...*U_1, and its
    row k is e_k^T*U_K*...*U_1: walking the log backwards from e_k, x*A_t
    is x[r] -= sum(q * x[i]) (each update reads the one pivot row r, so
    the order within a round does not matter), and then x*P_t swaps
    x[r] and x[piv].  These are the integers the I-part of row k of
    [rows | I] holds after the same echelon."""
    x = [0] * n
    x[k] = 1
    for r, piv, qs in reversed(log):
        x[r] -= sum([q * x[i] for i, q in qs])
        x[r], x[piv] = x[piv], x[r]
    return x


def _slot_bits(t: int, qbits: int) -> int:
    """A slot width of whole bytes for entries in [-2**t, 2**t) and
    multipliers of qbits bits, with room for multipliers of 2 * qbits
    bits, so that a multiplier that keeps growing repacks the rows only
    about log(bits) times."""
    return (t + 2 * qbits + 9) // 8 * 8


def _band(width: int, s: int, t: int) -> tuple:
    """(band, mask) for the guard-band test on width slots of s bits:
    2**t in each slot, and the bits t+1..s-1 of each slot."""
    return _slots(width, s, 1 << t), _slots(width, s, (1 << s) - (2 << t))


def _packed(rows: list, s: int) -> tuple:
    """(unpack, the rows packed) for rows of signed digits in slots of s
    bits (``_codec``)."""
    pack, unpack = _codec(s // 8, len(rows[0]), signed=True)
    return unpack, list(map(pack, rows))


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _echelon_packed(rows: list, ncols: int, r: int, j0: int,
                    log: list | None) -> int:
    """``echelon`` from column j0 on, with rows r.. not yet final, on
    rows packed as integers of s-bit slots of signed digits (``_codec``),
    appending its rounds to log as ``echelon`` does.

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
    unpack, v = _packed(rows[r:], s)
    v[:0] = [None] * r
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
            if log is not None:
                log.append((r, piv, qs))
            qbits = max((abs(q).bit_length() for _, q in qs), default=0)
            if s < t + qbits + 2:
                live = list(map(unpack, v[r:]))
                s = _slot_bits(t, qbits)
                unpack, v[r:] = _packed(live, s)
            band, mask = _band(width - j, s, t)
            prow = v[r]
            left = False
            for i, q in qs:
                x = v[i] = v[i] - q * prow
                e[i] -= q * d
                left = left or e[i] != 0
                if (x + band) & mask:
                    live = list(map(unpack, v[r:]))
                    t = 2 * _max_bits(live) + 16
                    s = _slot_bits(t, qbits)
                    unpack, v[r:] = _packed(live, s)
                    band, mask = _band(width - j, s, t)
                    prow = v[r]
            if not left:
                rows[r] = unpack(v[r])
                r += 1
                break
    rows[r:] = map(unpack, v[r:])
    return r


def _fp_slot_bytes(p: int, pivots: int) -> int:
    """The bytes per slot of ``_forward_fp`` over F_p with at most pivots
    pivots: the fewest that hold (p - 1) + pivots * (p - 1)**2, rounded
    up to a machine width where one fits (``slot_width``)."""
    return slot_width((p - 1) + pivots * (p - 1) ** 2)


def _forward_fp(a: list, ncols: int, p: int) -> list:
    """Forward elimination over F_p of the first ncols columns of the
    rows a (lists of equal length, entries in [0, p)), in place: each
    pivot is scaled to 1 and only the rows below it are cleared.
    Returns the pivot columns.

    A row that is updated becomes one nonnegative big integer v of
    unsigned w-byte slots (``_codec``, made at the first update), column
    0 in the highest, and a row update is v_i += (p - c) * v_pivot, with
    c the row's entry in the pivot column mod p and no reduction: with
    s = 8 * w, the entry of column j is
    ((v >> s*(width-1-j)) & (2**s - 1)) % p.  Only a pivot row is
    unpacked, reduced and scaled by the pivot's inverse (and packed if a
    row below needs it), and each row updated but never a pivot is
    unpacked and reduced once at the end; a row never updated is left as
    it is.

    No slot overflows.  Let k = min(rows, ncols); w is the fewest bytes,
    rounded up to a machine width where one fits, with
    (p - 1) + k * (p - 1)**2 < 256**w (``_fp_slot_bytes``), and every
    slot stays at most that bound:
    - a slot starts in [0, p - 1];
    - a pivot row is reduced before it is used, so each of its slots is
      in [0, p - 1], and p - c is in [1, p - 1]: an update adds to every
      slot a value in [0, (p - 1)**2] and subtracts nothing;
    - a row is updated at most once per pivot, and there are at most k
      pivots.
    So no slot carries into the next or borrows from it, every slot
    holds its exact value, and that value is congruent mod p to the
    entry the list loop (kept as ``oracle_forward_fp`` in
    ``tests/test_exactlin_differential.py``) holds there: the pivots and
    the rows are the list loop's."""
    n = len(a)
    w = _fp_slot_bytes(p, min(n, ncols))
    s, mask = 8 * w, (1 << 8 * w) - 1
    top = s * (len(a[0]) - 1) if a else 0
    # v[i]: row i packed, once it has been updated; None while a[i] holds it
    v = [None] * n
    # pack and unpack are made at the first update: an elimination that
    # updates no row (one row, or rows already in echelon form) needs none
    pack = None
    pivots = []
    for col in range(ncols):
        row, sh = len(pivots), top - s * col
        e = [a[i][col] if x is None else ((x >> sh) & mask) % p
             for i, x in enumerate(v[row:], row)]
        d = next(filter(None, e), 0)
        if not d:
            continue
        piv = e.index(d)
        e[0], e[piv] = d, e[0]
        piv += row
        a[row], a[piv] = a[piv], a[row]
        v[row], v[piv] = v[piv], v[row]
        inv = pow(d, -1, p)
        prow = a[row] = [x * inv % p for x in
                         (a[row] if v[row] is None else unpack(v[row]))]
        v[row] = y = None
        for i, c in enumerate(e[1:], row + 1):
            if c:
                if pack is None:
                    pack, unpack = _codec(w, len(prow))
                if y is None:
                    y = pack(prow)
                v[i] = (pack(a[i]) if v[i] is None else v[i]) + (p - c) * y
        pivots.append(col)
    for i in range(len(pivots), n):
        if v[i] is not None:
            a[i] = [x % p for x in unpack(v[i])]
    return pivots


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


def _slot_bytes(a, top: int) -> int:
    """The bytes per slot of ``mul_packed`` for a right factor whose
    entries are at most top in absolute value: with M the largest
    sum(|x| for x in arow) * top over the rows arow of a (at least top),
    no entry of a*b, and no entry of b, is above M in absolute value,
    and the slot holds every signed digit in [-M, M] when
    2 * M + 1 < 256**w."""
    return slot_width(
        2 * max([1, *(sum(map(abs, arow)) for arow in a)]) * top + 1)


def mul_packed(a, b, ncols: int) -> list:
    """The rows of a*b, as ``mul_rows`` gives them, by Kronecker
    substitution.  Each row of b is one integer of signed w-byte digits
    (``_codec``), and each row of a is one big-integer multiply-add per
    entry into one accumulator.  The accumulator is sum(c_j *
    2**(8*w*(ncols-1-j))) with c the row of a*b, and every |c_j| is at
    most M < 256**w / 2 (``_slot_bytes``), so it unpacks to that row."""
    if not ncols or not b:
        return [[0] * ncols for _ in a]
    top = max(max(map(abs, row)) for row in b)
    pack, unpack = _codec(_slot_bytes(a, top), ncols, signed=True)
    packed = list(map(pack, b))
    return [unpack(sum(map(mul, arow, packed))) for arow in a]
