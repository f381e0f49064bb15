"""Differential tests for the exact linear algebra's fast paths.

The oracles below are the previous implementations, kept verbatim in
substance: the integer echelon on lists, the min-pivot Smith normal form
that updated U and V on every operation, the four Gauss-Jordan copies
over F_p (inverse, rank, left null basis, solve), the Fraction
Gauss-Jordan inverse over Z, the four-loop Kronecker product, the
SNF-based EvConst cofiber, and the integer solve through the Smith
transforms.  On seeded matrices (square, non-square, rank-deficient,
with zero rows and columns, 0 x n and n x 0) the new code must agree
with them:

- ``smith_normal_form`` returns the oracle's D with unimodular U and V
  (|det| = 1 by Bareiss) such that U*m*V = D, and on 28 x 28 inputs
  its U and V have fewer digits than the oracle's;
- ``invariant_factors`` is the oracle's nonzero diagonal;
- ``left_kernel_int`` gives rows - rank rows q with q*F = 0 and an SNF of
  all ones, so q is a saturated basis of the left kernel;
- ``EvConst.cofiber`` builds the oracle's cofiber object;
- ``solve_right_int`` agrees with the SNF solve on solvability, and its
  X solves a*X = b and is the oracle's whenever a has full column rank;
- the F_p routines, ``invert_or_fail`` and ``kronecker`` return
  byte-identical matrices, or the same exception with the same message;
- every kernel that builds its result with ``Matrix._trusted`` (no entry
  check) returns what the validating ``Matrix.from_rows`` builds from the
  same rows, with tuple rows of plain ints, over N, Z, F_2 and F_7, while
  the validating entry points still raise; a ``_trusted`` that does not
  reduce mod p fails this;
- the packed product ``mul_packed`` returns the rows ``mul_rows`` returns,
  the list kernel ``mul_pairs`` on pairs found once by ``nonzero_pairs``
  returns the rows of a triple loop, and ``Matrix.mul``, on either side
  of its dispatch rule, and ``apply_factor`` return the triple loop of
  ``tests/test_diagram_differential.py``, on empty shapes, zero rows, a
  single 1, negative entries, 200-digit entries, all-ones matrices, over
  F_2, F_7 and a 12-digit prime, and on hypothesis-drawn shapes and
  densities; a slot one byte narrower than ``_slot_bytes`` gives a wrong
  product, or an integer too large for its byte length to unpack, on
  cases that reach its signed bound;
- ``introws.echelon`` returns the rows and the rank of the list loop
  (``oracle_echelon``) with its switch to packed rows forced at the
  first update and at its default, on seeded [M | I] cases (0 x 0, zero
  columns, ncols below the width, rank-deficient, 30-digit entries,
  tuples, U*D*V) and 300 seeded small shapes; the cases make both kinds
  of repack happen; the cheap echelons stay on lists; the Smith form,
  left kernel, integer solve and cofiber do not depend on the switch;
  and without the guard-band test the echelon of ``GUARD_CASE`` comes
  back wrong;
- ``left_kernel_int``, which echelons m alone and replays the logged
  rounds, returns the factors and q of the echelon of [m | I]
  (``oracle_left_kernel_int``) byte for byte, with the switch forced at
  the first update and at its default, on ``INT_CASES``, 300 seeded
  small shapes and U*D*V at n = 16, 24, 32 and 48; every row of U that
  ``introws.transform_row`` replays is the I-part of that row of the
  echelon of [m | I]; ``EvConst.cofiber`` is the oracle's; and a replay
  that swaps before the updates, a replay in forward order and a log
  without the packed rounds each give a wrong kernel;
- the packed F_p elimination ``introws._forward_fp`` returns the pivots
  and the in-place rows of the list loop (``oracle_forward_fp``) over
  F_2, F_3, F_7, F_101 and a 7-digit and a 12-digit prime, on [M | I] up
  to 64 x 128, zero columns, rank-deficient inputs, rows never updated,
  300 seeded small shapes and two explicit pivot swaps that move a row
  zero in the pivot column down; no case exceeds its static slot bound;
  and a slot one byte narrower than ``_fp_slot_bytes`` gives wrong rows
  on worst cases that reach the bound.

The three packed kernels share one row format, ``introws._codec``
(column 0 in the highest slot; signed digits for the echelon and the
product, plain slots over F_p), whose round trips
``tests/test_introws_codec.py`` checks on its own.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualkit import exactlin, introws
from dualkit.exactlin import (
    INT, NAT, PACKED_NONZEROS, PACKED_ROWS, DimensionMismatch, Matrix,
    NotInvertible, apply_factor, commutation, fp, fp_matrix, int_matrix,
    invariant_factors, invert_or_fail, kronecker, left_kernel_int,
    left_null_basis_fp, nat_matrix, prime_factors, rank_fp,
    smith_normal_form, solve_right_fp, solve_right_int,
)
from dualkit.introws import mul_packed, mul_pairs, mul_rows, nonzero_pairs
from dualkit.models import EvConst, ev_morphism, ev_object, evconst
from test_diagram_differential import triple_loop_mul


# ------------------------------------------------------------------ oracles

def oracle_echelon(rows, ncols):
    """The integer row echelon on plain lists, one Python operation per
    entry of every row update: ``introws.echelon`` as it was before it
    packed its rows."""
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


def oracle_left_kernel_int(m):
    """``left_kernel_int`` as it was before it replayed the echelon's log:
    the echelon of [m | I], whose I-part rows past the rank are the
    kernel."""
    n, c = m.rows, m.cols
    rows = exactlin._with_identity(m)
    r = introws.echelon(rows, c)
    kernel = [row[c:] for row in rows[r:]]
    exactlin._size_reduce(kernel)
    h = Matrix._trusted(INT, r, c, [row[:c] for row in rows[:r]])
    return invariant_factors(h), Matrix._trusted(INT, n - r, n, kernel)


def oracle_snf(m):
    """The min-pivot SNF with U and V updated on every operation."""
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def addmul_row(dst, src, c):
        for j in range(nc):
            a[dst][j] += c * a[src][j]
        for j in range(nr):
            U[dst][j] += c * U[src][j]

    def addmul_col(dst, src, c):
        for r in a + V:
            r[dst] += c * r[src]

    t = 0
    while t < min(nr, nc):
        pivot = best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v != 0 and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        U[t], U[pi] = U[pi], U[t]
        for r in a + V:
            r[t], r[pj] = r[pj], r[t]
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                if q:
                    addmul_row(i, t, -q)
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                if q:
                    addmul_col(j, t, -q)
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        fixed = False
        for i in range(t + 1, nr):
            if any(a[i][j] % a[t][t] for j in range(t + 1, nc)):
                addmul_row(t, i, 1)
                fixed = True
                break
        if not fixed:
            t += 1
    return (int_matrix(U, shape=(nr, nr)), int_matrix(a, shape=(nr, nc)),
            int_matrix(V, shape=(nc, nc)))


def oracle_diagonal(m):
    _, d, _ = oracle_snf(m)
    return [d.data[i][i] for i in range(min(d.rows, d.cols))
            if d.data[i][i]]


def _gauss_jordan_fp(a, ncols, p):
    """Clear above and below every pivot; returns the pivot columns."""
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col] % p:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    return pivots


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def oracle_rank_fp(m):
    return len(_gauss_jordan_fp([list(r) for r in m.data], m.cols,
                                m.domain[1]))


def oracle_left_null_fp(m):
    a = [list(r) + e for r, e in zip(m.data, _eye(m.rows))]
    k = len(_gauss_jordan_fp(a, m.cols, m.domain[1]))
    return Matrix.from_rows(m.domain, [r[m.cols:] for r in a[k:]],
                            shape=(m.rows - k, m.rows))


def oracle_solve_fp(a, b):
    p = a.domain[1]
    aug = [list(x) + list(y) for x, y in zip(a.data, b.data)]
    pivots = _gauss_jordan_fp(aug, a.cols, p)
    for r in aug[len(pivots):]:
        if any(x % p for x in r[a.cols:]):
            raise NotInvertible("inconsistent linear system over F_p")
    x = [[0] * b.cols for _ in range(a.cols)]
    for r, col in enumerate(pivots):
        x[col] = [v % p for v in aug[r][a.cols:]]
    return Matrix.from_rows(a.domain, x, shape=(a.cols, b.cols))


def oracle_invert(m):
    """invert_or_fail as it was: Gauss-Jordan over F_p, or over Q with
    Fractions followed by an integrality check."""
    if m.rows != m.cols:
        raise NotInvertible("not square")
    n = m.rows
    if isinstance(m.domain, tuple):
        p = m.domain[1]
        a = [list(r) + e for r, e in zip(m.data, _eye(n))]
        if len(_gauss_jordan_fp(a, n, p)) < n:
            raise NotInvertible("inconsistent linear system over F_p")
        return Matrix.from_rows(m.domain, [r[n:] for r in a], shape=(n, n))
    a = [[Fraction(x) for x in r] + [Fraction(x) for x in e]
         for r, e in zip(m.data, _eye(n))]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            raise NotInvertible("no integral solution")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[col])]
    ent = [r[n:] for r in a]
    if any(x.denominator != 1 for r in ent for x in r):
        raise NotInvertible("no integral solution")
    inv = int_matrix([[int(x) for x in r] for r in ent], shape=(n, n))
    if m.domain == NAT:
        if any(e < 0 for r in inv.data for e in r):
            raise NotInvertible("inverse has negative entries over nat")
        return inv.retag(NAT)
    return inv


def oracle_kronecker(a, b):
    out = [[0] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = \
                        a.data[i][j] * b.data[k][l]
    return Matrix.from_rows(a.domain, out,
                            shape=(a.rows * b.rows, a.cols * b.cols))


def oracle_cofiber_obj(f):
    """The cofiber object as the SNF-based EvConst.cofiber built it."""
    diag = oracle_diagonal(f.free)
    relevant = set(f.explicit_primes())
    for d in diag:
        relevant.update(prime_factors(d))
    dims = {p: oracle_left_null_fp(f.component(p)).rows for p in relevant}
    return ev_object(f.cod.f - len(diag), dims)


def oracle_solve_int(a, b):
    """One integral solution of a*X = b through U*a*V = D."""
    u, d, v = smith_normal_form(a.retag(INT))
    c = u.mul(b.retag(INT))  # d * (v^-1 x) = c
    y = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        di = d.data[i][i] if i < min(d.rows, d.cols) else 0
        for j in range(b.cols):
            cij = c.data[i][j]
            if di == 0:
                if cij != 0:
                    raise NotInvertible("inconsistent linear system over Z")
            else:
                if cij % di != 0:
                    raise NotInvertible("no integral solution")
                if i < a.cols:
                    y[i][j] = cij // di
    ym = Matrix.from_rows(INT, y, shape=(a.cols, b.cols))
    return v.mul(ym)


def outcome(fn, *args):
    """The result's entries, or the exception's type and message."""
    try:
        res = fn(*args)
    except NotInvertible as exc:
        return ("raised", type(exc).__name__, str(exc))
    return res if isinstance(res, int) else (res.domain, res.rows, res.cols,
                                             res.data)


# ------------------------------------------------------------------- inputs

def int_rows(rng, nr, nc, bound=9):
    """A seeded integer matrix of one of the shapes the oracles must meet:
    dense, sparse, rank-deficient (a product through a thinner inner
    dimension) or with zeroed rows and columns."""
    kind = rng.choice(("dense", "sparse", "deficient", "zeroed"))
    if kind == "deficient" and min(nr, nc) > 1:
        k = rng.randint(0, min(nr, nc) - 1)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)]
                if k else [0] * nc for r in a]
    rows = [[rng.randint(-bound, bound)
             if kind != "sparse" or rng.random() < 0.3 else 0
             for _ in range(nc)] for _ in range(nr)]
    if kind == "zeroed":
        for i in rng.sample(range(nr), rng.randint(0, nr)):
            rows[i] = [0] * nc
        for j in rng.sample(range(nc), rng.randint(0, nc)):
            for r in rows:
                r[j] = 0
    return rows


def int_cases(seed, count, max_dim=7):
    rng = random.Random(seed)
    cases = [int_matrix([], shape=(0, 3)), int_matrix([[], [], []],
                                                      shape=(3, 0)),
             int_matrix([], shape=(0, 0)), int_matrix([[0, 0], [0, 0]])]
    for _ in range(count):
        nr = rng.randint(1, max_dim)
        nc = nr if rng.random() < 0.4 else rng.randint(1, max_dim)
        cases.append(int_matrix(int_rows(rng, nr, nc), shape=(nr, nc)))
    return cases


def fp_cases(seed, count, max_dim=7):
    rng = random.Random(seed)
    cases = []
    for p in (2, 3, 5, 7, 101):
        cases += [fp_matrix(p, [], shape=(0, 4)),
                  fp_matrix(p, [[], []], shape=(2, 0))]
        for _ in range(count):
            nr = rng.randint(1, max_dim)
            nc = nr if rng.random() < 0.4 else rng.randint(1, max_dim)
            cases.append(fp_matrix(p, int_rows(rng, nr, nc, p),
                                   shape=(nr, nc)))
    return cases


INT_CASES = int_cases(11, 250)
FP_CASES = fp_cases(12, 60) + [fp_matrix(7, [], shape=(0, 0))]


# -------------------------------------------------------------------- tests

def bareiss_det(rows):
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], sign = a[piv], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(a[k][k] * x - a[i][k] * y) // prev
                    for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def assert_smith_contract(m):
    """D is the oracle's, U*m*V = D, and U and V are unimodular."""
    u, d, v = smith_normal_form(m)
    assert d.data == oracle_snf(m)[1].data, m.tolist()
    assert u.mul(m.retag(INT)).mul(v) == d, m.tolist()
    assert abs(bareiss_det(u.data)) == abs(bareiss_det(v.data)) == 1


def test_smith_normal_form_meets_the_contract():
    for m in INT_CASES:
        assert_smith_contract(m)


def test_smith_normal_form_on_nat_matrices():
    rng = random.Random(13)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        assert_smith_contract(nat_matrix([[rng.randint(0, 6)
                                           for _ in range(nc)]
                                          for _ in range(nr)]))


def test_bareiss_det_of_known_matrices():
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 1, 0], [1, 3, 1], [0, 1, 4]]) == 18
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def unit_triangular_product(rng, n):
    """A random determinant-1 matrix: a unit lower times a unit upper
    triangular matrix with entries in [-3, 3]."""
    lower = [[rng.randint(-3, 3) if j < i else int(i == j)
              for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-3, 3) if j > i else int(i == j)
              for j in range(n)] for i in range(n)]
    return int_matrix(lower).mul(int_matrix(upper))


def max_digits(*ms):
    return max(len(str(abs(x))) for m in ms for r in m.data for x in r)


def test_smith_transforms_have_fewer_digits_than_the_oracles():
    # U * D * V at n = 28 with a divisor chain of small primes and two
    # zeros, built like the benchmark's SNF inputs
    rng = random.Random(16)
    n = 28
    for _ in range(2):
        diag, x = [], 1
        for i in range(n - 2):
            x *= rng.choice((2, 3, 5, 7)) if i >= n - 6 else 1
            diag.append(x)
        d = int_matrix([[diag[i] if i == j and i < n - 2 else 0
                         for j in range(n)] for i in range(n)])
        m = unit_triangular_product(rng, n).mul(d).mul(
            unit_triangular_product(rng, n))
        u, got, v = smith_normal_form(m)
        ou, want, ov = oracle_snf(m)
        assert got == want
        assert max_digits(u, v) < max_digits(ou, ov)


def test_invariant_factors_are_the_oracle_diagonal():
    for m in INT_CASES:
        assert invariant_factors(m) == oracle_diagonal(m), m.tolist()


def test_invariant_factors_of_products_with_a_known_diagonal():
    # U * diag * V for unimodular U and V, as the benchmark builds them
    rng = random.Random(14)
    for n in (6, 9, 12):
        diag = [1, 1, 2, 2, 6, 6 * 5, 6 * 5 * 7 * 999983][:n - 2]
        unimodular = [oracle_snf(int_matrix(int_rows(rng, n, n)))[0]
                      for _ in range(2)]
        d = int_matrix([[diag[i] if i == j and i < len(diag) else 0
                         for j in range(n)] for i in range(n)])
        m = unimodular[0].mul(d).mul(unimodular[1])
        assert invariant_factors(m) == diag


def test_left_kernel_is_a_saturated_basis():
    for m in INT_CASES:
        factors, q = left_kernel_int(m)
        assert factors == oracle_diagonal(m)
        assert (q.rows, q.cols) == (m.rows - len(factors), m.rows)
        assert q.mul(m).is_zero()
        # saturated: every invariant factor of q is 1
        assert oracle_diagonal(q) == [1] * q.rows, m.tolist()


def test_left_kernel_is_size_reduced():
    # each pair of rows is reduced: no multiple of one shortens another
    for m in INT_CASES:
        _, q = left_kernel_int(m)
        norm = [sum(x * x for x in r) for r in q.data]
        for i, a in enumerate(q.data):
            for j, b in enumerate(q.data):
                if i != j:
                    dot = sum(x * y for x, y in zip(a, b))
                    assert 2 * abs(dot) <= norm[j]


def _ev_morphisms(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        primes = rng.sample((2, 3, 5, 7), rng.randint(0, 2))
        dom = ev_object(c, {p: rng.randint(0, 3) for p in primes})
        cod = ev_object(r, {p: rng.randint(0, 3) for p in primes})
        free = int_rows(rng, r, c) if r and c else [[]] * r
        expl = {p: [[rng.randrange(p) for _ in range(dom.dim(p))]
                    for _ in range(cod.dim(p))] for p in primes}
        out.append(ev_morphism(dom, cod, int_matrix(free, shape=(r, c)),
                               expl))
    return out


def test_cofiber_object_matches_the_snf_cofiber():
    model = EvConst()
    for f in _ev_morphisms(15, 150):
        cof = model.cofiber(f)
        assert cof.obj == oracle_cofiber_obj(f)
        q = cof.quotient
        assert q.free.mul(f.free).is_zero()
        assert oracle_diagonal(q.free) == [1] * q.free.rows
        for p in set(q.explicit_primes()) | set(f.explicit_primes()):
            assert q.component(p).mul(f.component(p)).is_zero()


def test_fp_kernel_is_byte_identical_to_the_gauss_jordan_copies():
    for m in FP_CASES:
        assert rank_fp(m) == oracle_rank_fp(m)
        assert outcome(left_null_basis_fp, m) == \
            outcome(oracle_left_null_fp, m)
        assert outcome(invert_or_fail, m) == outcome(oracle_invert, m)


def test_fp_solve_is_byte_identical():
    rng = random.Random(16)
    for a in FP_CASES:
        p = a.domain[1]
        k = rng.randint(0, 3)
        if rng.random() < 0.5:   # consistent: b = a * x
            x = fp_matrix(p, [[rng.randrange(p) for _ in range(k)]
                              for _ in range(a.cols)], shape=(a.cols, k))
            b = a.mul(x)
        else:                    # usually inconsistent when a is deficient
            b = fp_matrix(p, [[rng.randrange(p) for _ in range(k)]
                              for _ in range(a.rows)], shape=(a.rows, k))
        assert outcome(solve_right_fp, a, b) == outcome(oracle_solve_fp, a, b)


def test_integer_inverse_matches_the_fraction_oracle():
    rng = random.Random(17)
    cases = [m for m in INT_CASES if m.rows == m.cols]
    cases += [oracle_snf(m)[k] for m in INT_CASES[:60] for k in (0, 2)]
    for n in range(1, 5):
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append(nat_matrix([[int(j == perm[i]) for j in range(n)]
                                 for i in range(n)]))
        cases.append(nat_matrix([[rng.randint(0, 2) for _ in range(n)]
                                 for _ in range(n)]))
    cases.append(int_matrix([[1, 2], [3, 4]]))
    # unimodular over N, but its inverse has a -1
    cases.append(nat_matrix([[1, 1], [0, 1]]))
    cases += [nat_matrix([], shape=(0, 0)), nat_matrix([[1, 0, 0], [0, 1, 0]]),
              int_matrix([[1], [0]])]
    for m in cases:
        assert outcome(invert_or_fail, m) == outcome(oracle_invert, m), \
            m.tolist()


@pytest.mark.parametrize("domain", [NAT, INT, fp(2), fp(7)])
def test_kronecker_matches_the_loop_oracle(domain):
    rng = random.Random(18)
    for _ in range(30):
        a, b = ((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(2))
        ma, mb = (Matrix.from_rows(domain, [[rng.randint(0, 9)
                                             for _ in range(c)]
                                            for _ in range(r)], shape=(r, c))
                  for r, c in (a, b))
        assert kronecker(ma, mb) == oracle_kronecker(ma, mb)


def _unsolvable_rhs(rng, a, k):
    """a*x plus U^-1 * e_i * [1 0 ...] for the first i with d_i != 1 in
    U*a*V = D (d_i = 0 past the rank): then the i-th row of U*b is
    1 + d_i * (...), which d_i does not divide.  None if every d_i is 1."""
    u, d, _ = smith_normal_form(a)
    diag = [d.data[i][i] if i < d.cols else 0 for i in range(a.rows)]
    i = next((i for i, di in enumerate(diag) if di != 1), None)
    if i is None:
        return None
    e = int_matrix([[int(r == i and c == 0) for c in range(k)]
                    for r in range(a.rows)], shape=(a.rows, k))
    x = int_matrix([[rng.randint(-5, 5) for _ in range(k)]
                    for _ in range(a.cols)], shape=(a.cols, k))
    return a.mul(x).add(invert_or_fail(u).mul(e))


def test_integer_solve_agrees_with_the_snf_oracle():
    rng = random.Random(19)
    n = 24   # unit lower-triangular, as the benchmark's solve-int inputs
    cases = INT_CASES + [int_matrix(
        [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
         for i in range(n)])]
    unsolvable = 0
    for a in cases:
        k = rng.randint(1, 3)
        x = int_matrix([[rng.randint(-9, 9) for _ in range(k)]
                        for _ in range(a.cols)], shape=(a.cols, k))
        bad = _unsolvable_rhs(rng, a, k)
        unsolvable += bad is not None
        full_column_rank = len(invariant_factors(a)) == a.cols
        for b, solvable in ((a.mul(x), True), (bad, False)):
            if b is None:
                continue
            got = outcome(solve_right_int, a, b)
            want = outcome(oracle_solve_int, a, b)
            assert (want[0] != "raised") == solvable, (a.tolist(), b.tolist())
            assert (got[0] != "raised") == solvable, (a.tolist(), b.tolist())
            if solvable:
                assert a.mul(solve_right_int(a, b)) == b
                if full_column_rank:
                    assert got == want
    assert unsolvable > len(cases) // 2


# ----------------------------------------------------- trusted construction

TRUSTED_DOMAINS = [NAT, INT, fp(2), fp(7)]


def seeded_matrix(rng, domain, nr, nc):
    """Entries in [-9, 9] ([0, 9] over N), reduced by from_rows over F_p,
    with a zero row now and then."""
    lo = 0 if domain == NAT else -9
    rows = [[rng.randint(lo, 9) for _ in range(nc)] for _ in range(nr)]
    if nr and rng.random() < 0.3:
        rows[rng.randrange(nr)] = [0] * nc
    return Matrix.from_rows(domain, rows, shape=(nr, nc))


def revalidated(m):
    """m rebuilt by the validating constructor from its rows."""
    return Matrix.from_rows(m.domain, m.tolist(), shape=(m.rows, m.cols))


def trusted_results(domain, seed):
    """(kernel, result) for every kernel built on Matrix._trusted, on
    seeded inputs over domain: 0 x n, n x 0 and 0 x 0 shapes among them.
    A kernel's result that feeds another kernel is revalidated first, so
    that the second kernel sees checked input."""
    rng = random.Random(seed)
    shapes = [(0, 3), (3, 0), (0, 0)]
    for _ in range(25):
        nr = rng.randint(1, 5)
        shapes.append((nr, nr if rng.random() < 0.4 else rng.randint(1, 5)))
    out = [("identity", Matrix.identity(domain, n)) for n in range(4)]
    out += [("zeros", Matrix.zeros(domain, r, c))
            for r, c in ((0, 2), (2, 0), (2, 3))]
    out += [("commutation", commutation(domain, a, b))
            for a in range(4) for b in range(4)]
    for nr, nc in shapes:
        m = seeded_matrix(rng, domain, nr, nc)
        other = seeded_matrix(rng, domain, rng.randint(0, 3),
                              rng.randint(0, 3))
        out += [("transpose", m.transpose()), ("add", m.add(m)),
                ("kronecker", kronecker(m, other)),
                ("mul", m.mul(seeded_matrix(rng, domain, nc,
                                            rng.randint(0, 4))))]
        left, right = rng.randint(0, 2), rng.randint(0, 2)
        f = seeded_matrix(rng, domain, rng.randint(0, 3), rng.randint(0, 3))
        out.append(("apply_factor", apply_factor(
            f, seeded_matrix(rng, domain, left * f.cols * right, nc),
            left, right)))
        if domain in (NAT, INT):
            out += [("mod", m.mod(2)), ("mod", m.mod(7))]
            u, d, v = smith_normal_form(m)
            out += [("snf", u), ("snf", d), ("snf", v),
                    ("left_kernel_int", left_kernel_int(m)[1]),
                    ("invert", invert_or_fail(u)),
                    ("solve_right_int", solve_right_int(
                        m.retag(INT), m.retag(INT).mul(
                            seeded_matrix(rng, INT, nc, 2))))]
        else:
            out += [("left_null_basis_fp", left_null_basis_fp(m)),
                    ("solve_right_fp", solve_right_fp(m, revalidated(m.mul(
                        seeded_matrix(rng, domain, nc, 2)))))]
            if nr == nc:
                try:
                    out.append(("invert", invert_or_fail(revalidated(
                        m.add(Matrix.identity(domain, nr))))))
                except NotInvertible:
                    pass
    # one product large and dense enough for the packed path
    out.append(("mul", seeded_matrix(rng, domain, PACKED_ROWS, 16).mul(
        seeded_matrix(rng, domain, 16, 3))))
    return out


def assert_trusted_results_valid(domain, seed):
    for name, r in trusted_results(domain, seed):
        assert revalidated(r) == r, name
        assert all(type(e) is int for row in r.data for e in row), name


@pytest.mark.parametrize("domain", TRUSTED_DOMAINS)
def test_trusted_results_are_what_from_rows_builds(domain):
    assert_trusted_results_valid(domain, 20)


def test_trusted_results_cover_every_kernel():
    names = {name for domain in TRUSTED_DOMAINS
             for name, _ in trusted_results(domain, 20)}
    assert names == {"identity", "zeros", "commutation", "transpose",
                     "add", "kronecker", "mul", "apply_factor", "mod",
                     "snf", "left_kernel_int", "invert", "solve_right_int",
                     "left_null_basis_fp", "solve_right_fp"}


def test_entry_points_still_validate():
    with pytest.raises(ValueError):
        nat_matrix([[1]]).scale(-1)
    with pytest.raises(ValueError):
        nat_matrix([[1]]).sub(nat_matrix([[0]]))
    with pytest.raises(ValueError):
        int_matrix([[2, -1]]).retag(NAT)
    with pytest.raises(ValueError):
        Matrix(fp(7), 1, 1, ((7,),))
    with pytest.raises(ValueError):
        Matrix(NAT, 1, 1, ((-1,),))
    # from_json is direct construction, which checks every entry
    fp_json = {"domain": {"fp": 7}, "rows": 1, "cols": 1}
    with pytest.raises(ValueError):
        Matrix.from_json({**fp_json, "entries": [[9]]})
    with pytest.raises(TypeError):
        Matrix.from_json({**fp_json, "entries": [[1.5]]})
    with pytest.raises(ValueError):
        Matrix.from_json({"domain": "nat", "rows": 1, "cols": 1,
                          "entries": [[-1]]})
    with pytest.raises(DimensionMismatch):
        Matrix.from_json({**fp_json, "rows": 2, "entries": [[1]]})
    with pytest.raises(DimensionMismatch):
        Matrix.identity(INT, -1)


def _unreduced(domain, rows, cols, data):
    """Matrix._trusted without the reduction mod p."""
    m = object.__new__(Matrix)
    for name, value in (("domain", domain), ("rows", rows), ("cols", cols),
                        ("data", tuple(map(tuple, data)))):
        object.__setattr__(m, name, value)
    return m


@pytest.mark.parametrize("domain", [fp(2), fp(7)])
def test_unreduced_trusted_mutant_is_caught(domain, monkeypatch):
    monkeypatch.setattr(Matrix, "_trusted", staticmethod(_unreduced))
    with pytest.raises(AssertionError):
        assert_trusted_results_valid(domain, 20)


# ---------------------------------------------------------- packed products

P12 = 999999999989


def random_rows(rng, nr, nc, density=1.0, lo=-9, hi=9):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(nc)] for _ in range(nr)]


def packed_cases():
    """(name, a, b, ncols) for mul_packed against mul_rows."""
    rng = random.Random(13)
    big = 10 ** 200
    return [
        ("0xn", [], random_rows(rng, 3, 4), 4),
        ("nx0", [[], [], []], [], 5),
        ("b with no columns", random_rows(rng, 3, 2), [[], []], 0),
        ("zero rows in a", [[0, 0, 0], [1, -2, 3], [0, 0, 0]],
         random_rows(rng, 3, 4), 4),
        ("zero b", random_rows(rng, 4, 3), [[0] * 5] * 3, 5),
        ("zero a and b", [[0] * 3] * 2, [[0] * 2] * 3, 2),
        ("mixed signs", random_rows(rng, 20, 20), random_rows(rng, 20, 7), 7),
        ("negative b only", random_rows(rng, 5, 5, lo=0),
         random_rows(rng, 5, 4, hi=-1), 4),
        ("200 digits", random_rows(rng, 6, 5, lo=-big, hi=big),
         random_rows(rng, 5, 4, lo=-big, hi=big), 4),
        ("200 digits in a", random_rows(rng, 6, 5, lo=-big, hi=big),
         random_rows(rng, 5, 4), 4),
        ("all ones", [[1] * 17] * 18, [[1] * 19] * 17, 19),
        ("sparse", random_rows(rng, 30, 30, 0.1), random_rows(rng, 30, 30),
         30),
        ("12-digit residues", random_rows(rng, 16, 16, lo=0, hi=P12 - 1),
         random_rows(rng, 16, 9, lo=0, hi=P12 - 1), 9),
        ("tuples", tuple(map(tuple, random_rows(rng, 4, 3))),
         tuple(map(tuple, random_rows(rng, 3, 2))), 2),
        ("a single 1", [[0, 1, 0], [0, 0, 0], [1, 0, 0]],
         tuple(map(tuple, random_rows(rng, 3, 4))), 4),
        ("negative entries", random_rows(rng, 8, 8, 0.5, lo=-9, hi=-1),
         random_rows(rng, 8, 5), 5),
        ("entries of -1, 0 and 1", random_rows(rng, 12, 12, lo=-1, hi=1),
         random_rows(rng, 12, 6), 6),
    ]


def list_triple_loop(a, b, ncols) -> list:
    return [[sum(arow[k] * b[k][j] for k in range(len(b)))
             for j in range(ncols)] for arow in a]


@pytest.mark.parametrize("name, a, b, ncols", packed_cases(),
                         ids=[c[0] for c in packed_cases()])
def test_mul_packed_matches_mul_rows(name, a, b, ncols):
    got = mul_packed(a, b, ncols)
    assert got == [list(r) for r in mul_rows(a, b, ncols)]
    assert all(type(e) is int for row in got for e in row)


@pytest.mark.parametrize("name, a, b, ncols", packed_cases(),
                         ids=[c[0] for c in packed_cases()])
def test_pair_kernel_matches_the_triple_loop(name, a, b, ncols):
    pairs = nonzero_pairs(a)
    want = list_triple_loop(a, b, ncols)
    # the pairs are found once and serve any number of products
    for _ in range(2):
        assert [list(r) for r in mul_pairs(pairs, b, ncols)] == want


def test_pair_kernel_keeps_a_row_of_b_for_a_single_one():
    b = [(1, -2), (3, 4)]
    out = mul_pairs(nonzero_pairs([[0, 1], [1, 0], [0, 0], [-1, 0]]), b, 2)
    assert out[0] is b[1] and out[1] is b[0]
    assert out[2:] == [[0, 0], [-1, 2]]


MUL_DOMAINS = [NAT, INT, fp(2), fp(7), fp(P12)]


@pytest.mark.parametrize("domain", MUL_DOMAINS,
                         ids=["nat", "int", "f2", "f7", "f12digit"])
def test_matrix_mul_matches_triple_loop_on_both_paths(domain):
    p = domain[1] if isinstance(domain, tuple) else None
    lo, hi = (0, p - 1) if p else (0 if domain == NAT else -9, 9)
    rng = random.Random(repr(domain))
    shapes = [(0, 20, 3), (20, 0, 3), (20, 20, 0), (3, 4, 5), (16, 16, 16),
              (24, 20, 11), (40, 40, 40)]
    for n, k, m in shapes:
        for density in (0.0, 0.1, 1.0):
            a = Matrix.from_rows(domain, random_rows(rng, n, k, density, lo,
                                                     hi), shape=(n, k))
            b = Matrix.from_rows(domain, random_rows(rng, k, m, density, lo,
                                                     hi), shape=(k, m))
            assert a.mul(b) == triple_loop_mul(a, b)
    ones = Matrix.from_rows(domain, [[1] * 20] * 20)
    assert ones.mul(ones) == triple_loop_mul(ones, ones)


def whiskered(f: Matrix, left: int, right: int) -> Matrix:
    """I_left (x) f (x) I_right, entry by entry."""
    b, a = f.rows, f.cols
    return Matrix.from_rows(f.domain, [
        [f.data[j][i] if (l, r) == (l2, r2) else 0
         for l2 in range(left) for i in range(a) for r2 in range(right)]
        for l in range(left) for j in range(b) for r in range(right)],
        shape=(left * b * right, left * a * right))


@pytest.mark.parametrize("domain", MUL_DOMAINS,
                         ids=["nat", "int", "f2", "f7", "f12digit"])
def test_apply_factor_matches_triple_loop(domain):
    p = domain[1] if isinstance(domain, tuple) else None
    lo, hi = (0, p - 1) if p else (0 if domain == NAT else -1, 2)
    rng = random.Random(f"apply-{domain!r}")
    for left in range(3):
        for right in range(3):
            for b, a, n in ((2, 3, 2), (3, 1, 4), (0, 2, 3), (2, 0, 1),
                            (1, 1, 0), (4, 4, 3)):
                for density in (0.0, 0.5, 1.0):
                    f = Matrix.from_rows(domain, random_rows(
                        rng, b, a, density, lo, hi), shape=(b, a))
                    m = Matrix.from_rows(domain, random_rows(
                        rng, left * a * right, n, 1.0, lo, hi),
                        shape=(left * a * right, n))
                    assert apply_factor(f, m, left, right) == \
                        triple_loop_mul(whiskered(f, left, right), m)


def _spy_packed(monkeypatch):
    calls = []

    def spy(a, b, ncols):
        calls.append(len(a))
        return mul_packed(a, b, ncols)
    monkeypatch.setattr(exactlin, "mul_packed", spy)
    return calls


def _with_nonzeros(nr, nc, per_row):
    return int_matrix([[2 if j < per_row else 0 for j in range(nc)]
                       for _ in range(nr)])


def test_matrix_mul_packs_only_dense_left_factors(monkeypatch):
    calls = _spy_packed(monkeypatch)
    b = _with_nonzeros(64, 64, 64)
    cases = [((PACKED_ROWS, 64, PACKED_NONZEROS), True),
             ((PACKED_ROWS, 64, PACKED_NONZEROS - 1), False),
             ((PACKED_ROWS - 1, 64, 64), False),
             ((64, 64, 7), False),          # about 10 % density
             ((64, 64, 64), True)]
    for (nr, nc, per_row), packed in cases:
        a = _with_nonzeros(nr, nc, per_row)
        calls.clear()
        assert a.mul(b) == triple_loop_mul(a, b)
        assert bool(calls) == packed, (nr, nc, per_row)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 12),
       st.floats(0, 1), st.sampled_from([1, 9, 10 ** 30]),
       st.booleans(), st.integers(0, 2 ** 32))
def test_packed_products_on_drawn_shapes(n, k, m, density, bound, signed,
                                         seed):
    rng = random.Random(seed)
    lo = -bound if signed else 0
    a = random_rows(rng, n, k, density, lo, bound)
    b = random_rows(rng, k, m, density, lo, bound)
    assert mul_packed(a, b, m) == [list(r) for r in mul_rows(a, b, m)]
    domain = INT if signed else NAT
    ma = Matrix.from_rows(domain, a, shape=(n, k))
    mb = Matrix.from_rows(domain, b, shape=(k, m))
    assert ma.mul(mb) == triple_loop_mul(ma, mb)


# (a, b) with an entry of a*b at M, the bound of _slot_bytes, and 2*M + 1
# needing exactly the width _slot_bytes returns: 2 bytes, positive and
# negative; 8 bytes; 85 bytes (about 200 digits).  One byte narrower, M in
# the low slot carries into the top one, and the rows come back wrong;
# M in the top slot ("negative") leaves the integer too large or below
# zero for its byte length, and unpacking it raises OverflowError.
SLOT_BOUND_CASES = {
    "positive": ([[16, 16]], [[0, 16], [0, 16]]),
    "negative": ([[-15]], [[9, -9]]),
    "8 bytes": ([[256]], [[0, 2 ** 54]]),
    "85 bytes": ([[2]], [[0, 2 ** 671 - 1]]),
}


@pytest.mark.parametrize("case", SLOT_BOUND_CASES)
def test_one_byte_narrower_slot_gives_a_wrong_product(case, monkeypatch):
    a, b = SLOT_BOUND_CASES[case]
    top = max(abs(e) for row in b for e in row)
    bound = max(sum(map(abs, row)) for row in a) * top
    expected = [list(r) for r in mul_rows(a, b, 2)]
    # the case reaches the bound, and 2 * bound + 1 fills the width
    assert max(abs(e) for row in expected for e in row) == bound
    w = introws._slot_bytes(a, top)
    assert 256 ** (w - 1) <= 2 * bound + 1 < 256 ** w
    assert mul_packed(a, b, 2) == expected
    narrow = introws._slot_bytes
    monkeypatch.setattr(introws, "_slot_bytes",
                        lambda a, top: narrow(a, top) - 1)
    try:
        got = mul_packed(a, b, 2)
    except OverflowError:
        got = None
    assert got != expected
    assert (got is None) == (case == "negative")


# M, the bound of _slot_bytes, on each side of the byte boundaries of
# 2 * M + 1 at 256 and 65536, and the bytes per slot it needs (3 round
# up to 4).  A wider slot gives the same product, so only the width
# itself shows that the bound grew.
SLOT_WIDTHS = {127: 1, 128: 2, 32767: 2, 32768: 4}


@pytest.mark.parametrize("M", SLOT_WIDTHS)
def test_slot_width_at_byte_boundaries(M):
    a, b = [[1], [-1]], [[M, -M, 1]]
    assert introws._slot_bytes(a, M) == SLOT_WIDTHS[M]
    # the product reaches M in both signs, in the top slot and below it
    expected = [list(r) for r in mul_rows(a, b, 3)]
    assert expected == [[M, -M, 1], [-M, M, -1]]
    assert mul_packed(a, b, 3) == expected


@pytest.mark.parametrize("pivots, width", [(254, 1), (255, 2)])
def test_fp_slot_width_at_a_byte_boundary(pivots, width):
    # over F_2 the bound (p - 1) + pivots * (p - 1)**2 is pivots + 1
    assert introws._fp_slot_bytes(2, pivots) == width


# ---------------------------------------------------------- packed echelon

def with_identity(rows):
    n = len(rows)
    return [list(r) + [int(i == j) for j in range(n)]
            for i, r in enumerate(rows)]


def udv_rows(rng, n, bound):
    """U*D*V with U and V unit lower times unit upper triangular matrices
    with entries in [-bound, bound], and D the diagonal 1, ..., 1, 2, 6,
    30, 210 followed by two zeros."""
    def unimodular():
        lower = [[rng.randint(-bound, bound) if j < i else int(i == j)
                  for j in range(n)] for i in range(n)]
        upper = [[rng.randint(-bound, bound) if j > i else int(i == j)
                  for j in range(n)] for i in range(n)]
        return int_matrix(lower).mul(int_matrix(upper))
    diag = [1] * (n - 6) + [2, 6, 30, 210, 0, 0]
    d = int_matrix([[diag[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])
    return [list(r) for r in unimodular().mul(d).mul(unimodular()).data]


# the mutant check's case: with the guard-band test skipped, the echelon
# of [M | I] for this M comes back wrong with the switch at its default
GUARD_CASE = ("U*D*V 20 x 20, factors in [-30, 30]",
              lambda: with_identity(udv_rows(random.Random(1), 20, 30)))


def echelon_cases():
    """(name, rows, ncols) for echelon against oracle_echelon: mostly
    [M | I], as the Smith form and the left kernel build it."""
    rng = random.Random(18)
    big = 10 ** 30
    deficient = int_matrix(random_rows(rng, 9, 5)).mul(
        int_matrix(random_rows(rng, 5, 9)))
    zero_cols = random_rows(rng, 8, 8)
    for r in zero_cols:
        r[0] = r[5] = 0
    wide = random_rows(rng, 6, 12)
    return [
        ("0x0", [], 0),
        ("rows with no columns", [[], [], []], 0),
        ("zero [M | I]", with_identity([[0] * 4] * 5), 4),
        ("zero columns", with_identity(zero_cols), 8),
        ("ncols below M's columns", with_identity(wide), 7),
        ("ncols 0", with_identity(random_rows(rng, 5, 5)), 0),
        ("rank-deficient", with_identity(
            [list(r) for r in deficient.data]), 9),
        ("tall", with_identity(random_rows(rng, 14, 5)), 5),
        ("30 digits", with_identity(random_rows(rng, 10, 10, lo=-big,
                                                hi=big)), 10),
        ("30 digits, no identity", random_rows(rng, 12, 9, lo=-big, hi=big),
         9),
        ("tuples", [tuple(r) for r in random_rows(rng, 8, 8)], 8),
        ("U*D*V 16 x 16", with_identity(udv_rows(rng, 16, 3)), 16),
        ("U*D*V 12 x 12, factors in [-99, 99]",
         with_identity(udv_rows(rng, 12, 99)), 12),
        (GUARD_CASE[0], GUARD_CASE[1](), 20),
    ]


def run_echelon(fn, rows, ncols):
    rows = list(rows)
    rank = fn(rows, ncols)
    return rank, [list(r) for r in rows]


SWITCHES = {"switch at the first update": 0,
            "switch at the default": introws.PACKED_UPDATES}


@pytest.mark.parametrize("switch", SWITCHES.values(), ids=SWITCHES)
@pytest.mark.parametrize("name, rows, ncols", echelon_cases(),
                         ids=[c[0] for c in echelon_cases()])
def test_echelon_matches_the_list_oracle(name, rows, ncols, switch,
                                         monkeypatch):
    monkeypatch.setattr(introws, "PACKED_UPDATES", switch)
    assert run_echelon(introws.echelon, rows, ncols) == \
        run_echelon(oracle_echelon, rows, ncols)


@pytest.mark.parametrize("switch", SWITCHES.values(), ids=SWITCHES)
def test_echelon_matches_the_list_oracle_on_seeded_shapes(switch,
                                                          monkeypatch):
    monkeypatch.setattr(introws, "PACKED_UPDATES", switch)
    rng = random.Random(21)
    for _ in range(300):
        nr, nc = rng.randint(0, 9), rng.randint(0, 9)
        bound = rng.choice((1, 9, 10 ** 6, 10 ** 30))
        rows = random_rows(rng, nr, nc, rng.random(), -bound, bound)
        if rng.random() < 0.5:
            rows = with_identity(rows)
        ncols = rng.randint(0, nc)
        assert run_echelon(introws.echelon, rows, ncols) == \
            run_echelon(oracle_echelon, rows, ncols), (rows, ncols)


def _count_packs(monkeypatch):
    """Counters of the packings (``_packed``) and of the guard-band
    repacks (the only callers of _max_bits after the first packing)."""
    counts = {"packed": 0, "max_bits": 0}
    for name in counts:
        real = getattr(introws, "_" + name)

        def spy(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(introws, "_" + name, spy)
    return counts


@pytest.mark.parametrize("switch", SWITCHES.values(), ids=SWITCHES)
def test_the_cases_force_both_kinds_of_repack(switch, monkeypatch):
    monkeypatch.setattr(introws, "PACKED_UPDATES", switch)
    counts = _count_packs(monkeypatch)
    guard = wider = 0
    for _, rows, ncols in echelon_cases():
        counts.update(packed=0, max_bits=0)
        run_echelon(introws.echelon, rows, ncols)
        if counts["packed"]:
            # one first packing, then a repack per guard failure (one
            # _max_bits each) and per width check that failed
            guard += counts["max_bits"] - 1
            wider += counts["packed"] - counts["max_bits"]
    assert guard > 0 and wider > 0


def test_cheap_echelons_stay_on_lists(monkeypatch):
    counts = _count_packs(monkeypatch)
    rng = random.Random(19)
    m = int_matrix(udv_rows(rng, 16, 3))
    # the first echelon of [M | I] packs; invariant_factors of the
    # echelon form, the later alternations of the Smith form and a
    # unit-triangular solve do not
    rows = with_identity([list(r) for r in m.data])
    introws.echelon(rows, 16)
    assert counts["packed"] > 0
    counts.update(packed=0)
    invariant_factors(int_matrix([r[:16] for r in rows]))
    lower = int_matrix([[rng.randint(-3, 3) if j < i else int(i == j)
                         for j in range(16)] for i in range(16)])
    solve_right_int(lower, lower.mul(int_matrix(random_rows(rng, 16, 2))))
    assert counts["packed"] == 0


def test_callers_do_not_depend_on_the_switch(monkeypatch):
    rng = random.Random(20)
    ms = [int_matrix(udv_rows(rng, n, 3)) for n in (8, 16)]
    ms.append(int_matrix(random_rows(rng, 12, 9, lo=-10 ** 30,
                                     hi=10 ** 30)))
    xs = [int_matrix(random_rows(rng, m.cols, 2)) for m in ms]
    model = EvConst()

    def results():
        return [(smith_normal_form(m), left_kernel_int(m),
                 outcome(solve_right_int, m, m.mul(x)),
                 model.cofiber(ev_morphism(ev_object(m.rows),
                                           ev_object(m.cols), m)))
                if m.rows == m.cols else
                (smith_normal_form(m), left_kernel_int(m),
                 outcome(solve_right_int, m, m.mul(x)))
                for m, x in zip(ms, xs)]
    monkeypatch.setattr(introws, "PACKED_UPDATES", 10 ** 9)
    on_lists = results()
    monkeypatch.setattr(introws, "PACKED_UPDATES", 0)
    assert results() == on_lists


def test_skipping_the_guard_band_test_gives_a_wrong_echelon(monkeypatch):
    name, build = GUARD_CASE
    rows = build()
    expected = run_echelon(oracle_echelon, rows, 20)
    assert run_echelon(introws.echelon, rows, 20) == expected
    band = introws._band
    monkeypatch.setattr(introws, "_band",
                        lambda width, s, t: (band(width, s, t)[0], 0))
    assert run_echelon(introws.echelon, rows, 20) != expected


# ------------------------------------------ left kernel from a replayed log

def kernel_cases():
    """(name, m) for left_kernel_int against oracle_left_kernel_int:
    INT_CASES, 300 seeded small shapes (0 x n and n x 0 among them, with
    entries up to 30 digits) and U*D*V at n = 16, 24, 32 and 48, each
    with a left kernel of dimension 2."""
    rng = random.Random(25)
    cases = [(f"INT_CASES[{i}]", m) for i, m in enumerate(INT_CASES)]
    for i in range(300):
        nr, nc = rng.randint(0, 9), rng.randint(0, 9)
        bound = rng.choice((1, 9, 10 ** 6, 10 ** 30))
        rows = random_rows(rng, nr, nc, rng.random(), -bound, bound)
        cases.append((f"seeded {i}", int_matrix(rows, shape=(nr, nc))))
    cases += [(f"U*D*V {n} x {n}", int_matrix(udv_rows(rng, n, 3)))
              for n in (16, 24, 32, 48)]
    return cases


KERNEL_CASES = kernel_cases()
UDV_KERNEL_CASES = [m for name, m in KERNEL_CASES if name.startswith("U*D*V")]


def kernel_result(m):
    """left_kernel_int's (factors, q) as plain values: the factors, and
    q's domain, shape and rows."""
    factors, q = left_kernel_int(m)
    return factors, (q.domain, q.rows, q.cols, q.data)


def oracle_kernel_result(m):
    factors, q = oracle_left_kernel_int(m)
    return factors, (q.domain, q.rows, q.cols, q.data)


@pytest.mark.parametrize("switch", SWITCHES.values(), ids=SWITCHES)
def test_left_kernel_matches_the_identity_block_oracle(switch, monkeypatch):
    monkeypatch.setattr(introws, "PACKED_UPDATES", switch)
    for name, m in KERNEL_CASES:
        assert kernel_result(m) == oracle_kernel_result(m), name


@pytest.mark.parametrize("switch", SWITCHES.values(), ids=SWITCHES)
def test_every_replayed_row_is_the_identity_block_row(switch, monkeypatch):
    # not only the kernel rows: every row of U replayed from the log is
    # the I-part of that row of the echelon of [m | I]
    monkeypatch.setattr(introws, "PACKED_UPDATES", switch)
    for name, m in KERNEL_CASES:
        rows, log = list(m.data), []
        rank = introws.echelon(rows, m.cols, log)
        ident = with_identity(m.data)
        assert introws.echelon(ident, m.cols) == rank, name
        assert [list(r) for r in rows] == [r[:m.cols] for r in ident], name
        assert [introws.transform_row(log, m.rows, k)
                for k in range(m.rows)] == [r[m.cols:] for r in ident], name


@pytest.mark.parametrize("switch", SWITCHES.values(), ids=SWITCHES)
def test_cofiber_matches_the_identity_block_oracle(switch, monkeypatch):
    # the cofibers of the U*D*V cases, of INT_CASES and of morphisms with
    # explicit primes; the seeded 30-digit shapes are left out, since
    # the cofiber factors their invariant factors
    monkeypatch.setattr(introws, "PACKED_UPDATES", switch)
    model = EvConst()
    fs = [ev_morphism(ev_object(m.cols), ev_object(m.rows), m)
          for m in UDV_KERNEL_CASES + INT_CASES] + _ev_morphisms(25, 100)
    got = [model.cofiber(f) for f in fs]
    monkeypatch.setattr(evconst, "left_kernel_int", oracle_left_kernel_int)
    assert got == [model.cofiber(f) for f in fs]


def _swap_first(log, n, k):
    x = [0] * n
    x[k] = 1
    for r, piv, qs in reversed(log):
        x[r], x[piv] = x[piv], x[r]
        x[r] -= sum(q * x[i] for i, q in qs)
    return x


def _forward(log, n, k):
    x = [0] * n
    x[k] = 1
    for r, piv, qs in log:
        x[r] -= sum(q * x[i] for i, q in qs)
        x[r], x[piv] = x[piv], x[r]
    return x


def _drop_packed_rounds(monkeypatch):
    packed = introws._echelon_packed
    monkeypatch.setattr(introws, "_echelon_packed",
                        lambda rows, ncols, r, j0, log:
                        packed(rows, ncols, r, j0, None))


MUTANTS = {
    "swap undone before the updates":
        lambda mp: mp.setattr(exactlin, "transform_row", _swap_first),
    "log replayed forwards":
        lambda mp: mp.setattr(exactlin, "transform_row", _forward),
    "packed rounds not logged": _drop_packed_rounds,
}


@pytest.mark.parametrize("mutate", MUTANTS.values(), ids=MUTANTS)
def test_a_wrong_replay_gives_a_wrong_kernel(mutate, monkeypatch):
    # with the switch at the first update every U*D*V echelon packs
    monkeypatch.setattr(introws, "PACKED_UPDATES", 0)
    expected = [oracle_kernel_result(m) for m in UDV_KERNEL_CASES]
    assert [kernel_result(m) for m in UDV_KERNEL_CASES] == expected
    mutate(monkeypatch)
    got = [kernel_result(m) for m in UDV_KERNEL_CASES]
    assert all(g != e for g, e in zip(got, expected))


# ---------------------------------------------------- packed F_p elimination

def oracle_forward_fp(a, ncols, p):
    """The forward elimination over F_p on plain lists, one Python
    operation per entry of every row update: ``introws._forward_fp`` as
    it was before it packed its rows."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((i for i in range(row, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        prow = a[row] = [x * inv % p for x in a[row]]
        for i in range(row + 1, len(a)):
            c = a[i][col]
            if c:
                a[i] = [(x - c * y) % p for x, y in zip(a[i], prow)]
        pivots.append(col)
    return pivots


def run_forward(fn, rows, ncols, p):
    """(pivots, rows) after fn eliminates a list of list copies of rows
    in place; every row must still be a list."""
    a = [list(r) for r in rows]
    pivots = fn(a, ncols, p)
    assert all(type(r) is list for r in a)
    return pivots, a


def delayed_peak(rows, ncols, p):
    """The largest entry that the delayed reduction of ``_forward_fp``
    holds: the list loop with v_i += (p - c) * pivot row for the updates
    and only the pivot rows reduced."""
    a = [list(r) for r in rows]
    peak = max((x for r in a for x in r), default=0)
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        prow = a[row] = [x * inv % p for x in a[row]]
        for i in range(row + 1, len(a)):
            c = a[i][col] % p
            if c:
                a[i] = [x + (p - c) * y for x, y in zip(a[i], prow)]
                peak = max(peak, *a[i])
        row += 1
    return peak


def slot_bound(p, nrows, ncols):
    """The static bound of ``_forward_fp``'s slots."""
    return (p - 1) + min(nrows, ncols) * (p - 1) ** 2


P7 = 1000003
FP_PRIMES = (2, 3, 7, 101, P7, P12)


def fp_rows(rng, nr, nc, p, density=1.0):
    return random_rows(rng, nr, nc, density, 0, p - 1)


def forward_cases(p):
    """(name, rows, ncols) for _forward_fp against oracle_forward_fp over
    F_p: mostly [M | I], as left_null_basis_fp builds it."""
    rng = random.Random(p)
    left, right = fp_rows(rng, 12, 5, p), fp_rows(rng, 5, 12, p)
    deficient = [[sum(x * y for x, y in zip(r, c)) % p for c in zip(*right)]
                 for r in left]
    zero_cols = fp_rows(rng, 10, 10, p)
    for r in zero_cols:
        r[0] = r[3] = r[9] = 0
    # upper triangular with a nonzero diagonal: no row is ever updated
    upper = [[rng.randrange(1, p) if j == i else
              rng.randrange(p) if j > i else 0 for j in range(8)]
             for i in range(8)]
    # 48 rows and 16 sums of two of them
    base = fp_rows(rng, 48, 128, p)
    sums = [[(x + y) % p for x, y in zip(*rng.sample(base, 2))]
            for _ in range(16)]
    return [
        ("0x0", [], 0),
        ("rows with no columns", [[], [], []], 0),
        ("ncols 0", with_identity(fp_rows(rng, 4, 4, p)), 0),
        ("zero [M | I]", with_identity([[0] * 5] * 6), 5),
        ("zero columns", with_identity(zero_cols), 10),
        ("rank-deficient", with_identity(deficient), 12),
        ("never updated", with_identity(upper), 8),
        ("zero rows below the pivots", with_identity(
            fp_rows(rng, 4, 6, p) + [[0] * 6] * 3), 6),
        ("ncols below M's columns", fp_rows(rng, 9, 14, p), 6),
        ("tall", with_identity(fp_rows(rng, 20, 6, p)), 6),
        ("wide, no identity", fp_rows(rng, 6, 30, p), 30),
        ("sparse [M | I]", with_identity(fp_rows(rng, 24, 24, p, 0.15)), 24),
        ("[M | I] 64 x 128", with_identity(fp_rows(rng, 64, 64, p)), 64),
        ("rank-deficient 64 x 128", base + sums, 128),
    ]


@pytest.mark.parametrize("p", FP_PRIMES)
def test_forward_fp_matches_the_list_oracle(p):
    for name, rows, ncols in forward_cases(p):
        got = run_forward(introws._forward_fp, rows, ncols, p)
        assert got == run_forward(oracle_forward_fp, rows, ncols, p), name
        if rows:
            # the static bound holds for the delayed reduction
            assert delayed_peak(rows, ncols, p) <= \
                slot_bound(p, len(rows), ncols), name


def test_forward_fp_matches_the_list_oracle_on_seeded_shapes():
    rng = random.Random(22)
    for _ in range(300):
        p = rng.choice(FP_PRIMES)
        nr, nc = rng.randint(0, 9), rng.randint(0, 9)
        rows = fp_rows(rng, nr, nc, p, rng.random())
        if rng.random() < 0.5:
            rows = with_identity(rows)
        ncols = rng.randint(0, nc)
        assert run_forward(introws._forward_fp, rows, ncols, p) == \
            run_forward(oracle_forward_fp, rows, ncols, p), (rows, ncols, p)


def test_the_pivot_swap_moves_a_row_zero_in_the_pivot_column_down():
    # row 0 is zero in column 0, so the swap for the pivot of column 0
    # (row 1) moves it down; the swap for column 1 (pivot in row 2)
    # moves it down again, and no update ever touches it
    rows = [[0, 0, 1, 2], [2, 1, 0, 1], [0, 2, 2, 0]]
    expected = ([0, 1, 2], [[1, 2, 0, 2], [0, 1, 1, 0], [0, 0, 1, 2]])
    assert run_forward(oracle_forward_fp, rows, 3, 3) == expected
    assert run_forward(introws._forward_fp, rows, 3, 3) == expected
    # row 0 moves to the bottom (pivot of column 0 in row 2), and the
    # pivot of column 1 then updates it
    rows = [[0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]]
    expected = ([0, 1, 2], [[1, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 2]])
    assert run_forward(oracle_forward_fp, rows, 3, 3) == expected
    assert run_forward(introws._forward_fp, rows, 3, 3) == expected


def worst_case(p, k):
    """k pivot rows e_j + (p - 1) * e_k and a last row with 1 in each of
    the k pivot columns and p - 1 in column k, then a zero column: every
    pivot updates the last row with c = 1 and adds (p - 1)**2 to its slot
    k, which ends at (p - 1) + k * (p - 1)**2, the static bound."""
    rows = [[int(i == j) for j in range(k)] + [p - 1, 0] for i in range(k)]
    return rows + [[1] * k + [p - 1, 0]]


# (p, pivots) whose worst case needs every byte of the slot width that
# _fp_slot_bytes returns: 2 bytes (one struct format) for p = 3 and 64
# pivots, 11 bytes (one slot at a time) for a 12-digit prime and 2
WORST_CASES = {"p = 3, 64 pivots": (3, 64), "12-digit p, 2 pivots": (P12, 2)}


@pytest.mark.parametrize("case", WORST_CASES)
def test_one_byte_narrower_fp_slot_gives_a_wrong_elimination(case,
                                                             monkeypatch):
    p, k = WORST_CASES[case]
    rows = worst_case(p, k)
    bound = slot_bound(p, len(rows), k)
    w = introws._fp_slot_bytes(p, k)
    # the case reaches the bound, and the bound fills the width
    assert delayed_peak(rows, k, p) == bound
    assert 256 ** (w - 1) <= bound < 256 ** w
    expected = run_forward(oracle_forward_fp, rows, k, p)
    assert run_forward(introws._forward_fp, rows, k, p) == expected
    narrow = introws._fp_slot_bytes
    monkeypatch.setattr(introws, "_fp_slot_bytes",
                        lambda p, pivots: narrow(p, pivots) - 1)
    assert run_forward(introws._forward_fp, rows, k, p) != expected
