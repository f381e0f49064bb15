"""Exact matrix arithmetic over N, Z (arbitrary precision), and F_p.

Provides Kronecker products, Smith normal form with unimodular
transformations, cokernel decomposition, and exact inversion.  All
arithmetic uses Python's arbitrary-precision integers; there are no
floats and no tolerances anywhere.

Scalar domains are tagged: ``"nat"``, ``"int"``, or ``("fp", p)`` with p
prime.  Matrices are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Sequence, Union

from . import DomainError

Domain = Union[str, tuple]

NAT = "nat"
INT = "int"


def fp(p: int) -> Domain:
    """The scalar domain F_p."""
    if not is_prime(p):
        raise ValueError(f"F_p requires a prime, got {p}")
    return ("fp", p)


# Strong-probable-prime bases: for n below _MR_PROVEN, a strong
# probable prime to all of them is prime (Sorenson & Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


class PrimalityUnproven(DomainError):
    """Raised by ``is_prime`` for a number at or above 3.3e24 that is a
    strong probable prime to every base: it is very likely prime, but no
    primality proof is implemented at that size, so the answer is
    refused rather than guessed (or searched for by trial division,
    which would not finish)."""


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below 3.3e24.  Above
    that bound a witness still proves compositeness, and a number
    passing every base raises PrimalityUnproven."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN:
        raise PrimalityUnproven(
            f"{n} is a strong probable prime to {len(_MR_BASES)} bases, "
            f"but primality is only proven below {_MR_PROVEN}")
    return True


def pollard_brent(n: int) -> int:
    """A nontrivial factor of a composite n: Brent's variant of Pollard's
    rho (Brent 1980) on x -> x^2 + c from y = 2, taking differences in
    batches of 128 per gcd.  c starts at 1 and moves to the next integer
    when a cycle closes without a factor, so the result is deterministic."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, in increasing order: trial
    division below 1000, then Pollard-Brent rho on a composite cofactor.
    Like ``is_prime``, raises PrimalityUnproven for a factor at or above
    3.3e24 that passes every base."""
    small = []
    q = 2
    while q < 1000 and q * q <= n:
        if n % q == 0:
            small.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    large = set()
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if is_prime(m):
            large.add(m)
        else:
            d = pollard_brent(m)
            todo += [d, m // d]
    return small + sorted(large)


class NotInvertible(DomainError):
    """Raised when a matrix has no two-sided inverse over its domain."""


class DimensionMismatch(DomainError):
    """Raised when matrix dimensions are inconsistent for an operation."""


def _domain_prime(domain: Domain):
    if isinstance(domain, tuple) and len(domain) == 2 and domain[0] == "fp":
        return domain[1]
    return None


@dataclass(frozen=True)
class Matrix:
    """An exact matrix over a tagged scalar domain.

    Entries are stored as a tuple of row tuples of Python ints.  For the
    "fp" domain entries are kept reduced mod p; for "nat" they must be
    nonnegative.
    """

    domain: Domain
    rows: int
    cols: int
    data: tuple = field(default=())

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise DimensionMismatch("entry grid does not match declared shape")
        p = _domain_prime(self.domain)
        for row in self.data:
            for e in row:
                if not isinstance(e, int):
                    raise TypeError(f"non-integer entry {e!r}")
                if self.domain == NAT and e < 0:
                    raise ValueError("nat matrix entry must be >= 0")
                if p is not None and not (0 <= e < p):
                    raise ValueError(f"F_{p} entry {e} not reduced")

    # ---------------------------------------------------------- construction

    @staticmethod
    def from_rows(domain: Domain, rows: Sequence[Sequence[int]],
                  shape: tuple | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if shape is not None:
            nr, nc = shape
        else:
            nr = len(rows)
            nc = len(rows[0]) if rows else 0
        p = _domain_prime(domain)
        if p is not None:
            rows = [[e % p for e in r] for r in rows]
        return Matrix(domain, nr, nc, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(domain: Domain, n: int) -> "Matrix":
        return Matrix.from_rows(
            domain, [[1 if i == j else 0 for j in range(n)] for i in range(n)],
            shape=(n, n))

    @staticmethod
    def zeros(domain: Domain, rows: int, cols: int) -> "Matrix":
        return Matrix.from_rows(domain, [[0] * cols for _ in range(rows)],
                                shape=(rows, cols))

    # --------------------------------------------------------------- access

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def tolist(self) -> list:
        return [list(r) for r in self.data]

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.data for e in r)

    # ------------------------------------------------------------ arithmetic

    def _reduce(self, e: int) -> int:
        p = _domain_prime(self.domain)
        return e % p if p is not None else e

    def add(self, other: "Matrix") -> "Matrix":
        if self.domain != other.domain:
            raise DimensionMismatch("domain mismatch in add")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        return Matrix.from_rows(
            self.domain,
            [[self.data[i][j] + other.data[i][j] for j in range(self.cols)]
             for i in range(self.rows)],
            shape=(self.rows, self.cols))

    def sub(self, other: "Matrix") -> "Matrix":
        if self.domain == NAT:
            raise ValueError("subtraction undefined over nat")
        neg = other.scale(-1)
        return self.add(neg)

    def scale(self, c: int) -> "Matrix":
        return Matrix.from_rows(
            self.domain, [[self._reduce(c * e) for e in r] for r in self.data],
            shape=(self.rows, self.cols))

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other."""
        if self.domain != other.domain:
            raise DimensionMismatch("domain mismatch in mul")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # each output row combines the rows of other picked out by the
        # nonzero entries of a row of self, reduced mod p once at the end
        p = _domain_prime(self.domain)
        out = []
        for arow in self.data:
            acc = None
            for a, brow in zip(arow, other.data):
                if not a:
                    continue
                if acc is None:
                    acc = brow if a == 1 else [a * e for e in brow]
                elif a == 1:
                    acc = list(map(add, acc, brow))
                else:
                    acc = [s + a * e for s, e in zip(acc, brow)]
            if acc is None:
                acc = [0] * other.cols
            elif p is not None:
                acc = [s % p for s in acc]
            out.append(acc)
        return Matrix.from_rows(self.domain, out, shape=(self.rows, other.cols))

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(
            self.domain,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            shape=(self.cols, self.rows))

    def retag(self, domain: Domain) -> "Matrix":
        """Reinterpret entries in another domain (reducing mod p if needed)."""
        return Matrix.from_rows(domain, self.tolist(), shape=(self.rows, self.cols))

    def mod(self, p: int) -> "Matrix":
        return self.retag(fp(p))

    # -------------------------------------------------------- serialization

    def to_json(self) -> dict:
        if isinstance(self.domain, tuple):
            tag: object = {"fp": self.domain[1]}
        else:
            tag = self.domain
        return {"domain": tag, "rows": self.rows, "cols": self.cols,
                "entries": self.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "Matrix":
        tag = obj["domain"]
        domain: Domain = ("fp", tag["fp"]) if isinstance(tag, dict) else tag
        return Matrix.from_rows(domain, obj["entries"],
                                shape=(obj["rows"], obj["cols"]))


def nat_matrix(rows: Sequence[Sequence[int]], shape=None) -> Matrix:
    return Matrix.from_rows(NAT, rows, shape=shape)


def int_matrix(rows: Sequence[Sequence[int]], shape=None) -> Matrix:
    return Matrix.from_rows(INT, rows, shape=shape)


def fp_matrix(p: int, rows: Sequence[Sequence[int]], shape=None) -> Matrix:
    return Matrix.from_rows(fp(p), rows, shape=shape)


# ------------------------------------------------------------------ kronecker

def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Standard Kronecker product, (ra*rb) x (ca*cb), same scalar domain."""
    if a.domain != b.domain:
        raise DimensionMismatch("domain mismatch in kronecker")
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[0] * cols for _ in range(rows)]
    p = _domain_prime(a.domain)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.data[i][j]
            if aij == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    v = aij * b.data[k][l]
                    out[i * b.rows + k][j * b.cols + l] = v % p if p else v
    return Matrix.from_rows(a.domain, out, shape=(rows, cols))


def commutation(domain: Domain, a: int, b: int) -> Matrix:
    """The permutation matrix of the swap A (x) B -> B (x) A for
    dim A = a and dim B = b: basis (i, j) at index i*b + j goes to index
    j*a + i."""
    rows = [[0] * (a * b) for _ in range(a * b)]
    for i in range(a):
        for j in range(b):
            rows[j * a + i][i * b + j] = 1
    return Matrix.from_rows(domain, rows, shape=(a * b, a * b))


# ---------------------------------------------------------- smith normal form

def smith_normal_form(m: Matrix) -> tuple:
    """Return (U, D, V) with U*m*V = D, U and V unimodular, D diagonal
    with d1 | d2 | ... and all d_i >= 0.

    Pivot choice: minimal nonzero absolute value, ties broken row-major.
    """
    if m.domain not in (INT, NAT):
        raise ValueError("smith_normal_form requires an integer matrix")
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        # row dst += c * row src
        arow, srow = a[dst], a[src]
        for j in range(nc):
            arow[j] += c * srow[j]
        ur, us = U[dst], U[src]
        for j in range(nr):
            ur[j] += c * us[j]

    def addmul_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    n = min(nr, nc)
    while t < n:
        # find pivot: minimal nonzero |entry| in the trailing block, row-major
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v != 0 and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        # one reduction pass; any nonzero remainder is strictly smaller than
        # the pivot, so re-running the pivot search terminates
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                if q:
                    addmul_row(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                if q:
                    addmul_col(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility: a[t][t] must divide every later entry
        fixed = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    addmul_row(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue  # re-run elimination at the same t
        t += 1
    D = Matrix.from_rows(INT, a, shape=(nr, nc))
    Um = Matrix.from_rows(INT, U, shape=(nr, nr))
    Vm = Matrix.from_rows(INT, V, shape=(nc, nc))
    return Um, D, Vm


def cokernel_decomposition(m: Matrix) -> tuple:
    """coker(m) = (+) Z/d_i (+) Z^free_rank; returns (torsion list, free_rank).

    Torsion lists the invariant factors > 1 in divisibility order.
    """
    _, d, _ = smith_normal_form(m)
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in diag if x != 0]
    torsion = [x for x in nonzero if x > 1]
    free_rank = d.rows - len(nonzero)
    return torsion, free_rank


# ------------------------------------------------------------------ inversion

def _invert_fp(m: Matrix) -> Matrix:
    p = _domain_prime(m.domain)
    n = m.rows
    a = [list(m.data[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, n):
            if a[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            raise NotInvertible(f"singular over F_{p}")
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] % p != 0:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[row])]
        row += 1
    return Matrix.from_rows(m.domain, [r[n:] for r in a], shape=(n, n))


def _invert_int(m: Matrix) -> Matrix:
    n = m.rows
    a = [[Fraction(m.data[i][j]) for j in range(n)]
         + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, n):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            raise NotInvertible("singular over Z")
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        row += 1
    ent = [r[n:] for r in a]
    if any(x.denominator != 1 for r in ent for x in r):
        raise NotInvertible("inverse is not integral")
    return Matrix.from_rows(INT, [[int(x) for x in r] for r in ent], shape=(n, n))


def invert_or_fail(m: Matrix) -> Matrix:
    """Two-sided inverse over the matrix's own scalar domain.

    Over Z (or nat, reinterpreted as Z... nat matrices invert only when
    they are permutation matrices) the inverse must be integral; over F_p
    ordinary Gaussian elimination applies.  Raises NotInvertible.
    """
    if m.rows != m.cols:
        raise NotInvertible("not square")
    if _domain_prime(m.domain) is not None:
        return _invert_fp(m)
    inv = _invert_int(m.retag(INT))
    if m.domain == NAT:
        if any(e < 0 for r in inv.data for e in r):
            raise NotInvertible("inverse has negative entries over nat")
        return inv.retag(NAT)
    return inv


def rank_fp(m: Matrix) -> int:
    """Rank of a matrix over its F_p domain."""
    p = _domain_prime(m.domain)
    if p is None:
        raise ValueError("rank_fp requires an F_p matrix")
    a = [list(r) for r in m.data]
    rank = 0
    row = 0
    for col in range(m.cols):
        piv = None
        for i in range(row, m.rows):
            if a[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(m.rows):
            if i != row and a[i][col] % p != 0:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
    return rank


def left_null_basis_fp(m: Matrix) -> Matrix:
    """Deterministic basis of the left null space of an F_p matrix.

    Returns a k x rows matrix N of full rank k = rows - rank(m) with
    N*m = 0, computed by row-reducing [m | I] and reading the rows whose
    m-part vanished.
    """
    p = _domain_prime(m.domain)
    if p is None:
        raise ValueError("left_null_basis_fp requires an F_p matrix")
    n = m.rows
    a = [list(m.data[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    row = 0
    for col in range(m.cols):
        piv = None
        for i in range(row, n):
            if a[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] % p != 0:
                c = a[i][col]
                a[i] = [(x - c * y) % p for x, y in zip(a[i], a[row])]
        row += 1
    null_rows = [r[m.cols:] for r in a[row:]]
    return Matrix.from_rows(m.domain, null_rows, shape=(n - row, n))


def solve_right_fp(a: Matrix, b: Matrix) -> Matrix:
    """One solution X of a*X = b over F_p, or NotInvertible if none exists.

    Deterministic: free variables are set to zero.
    """
    p = _domain_prime(a.domain)
    if p is None or a.domain != b.domain:
        raise ValueError("solve_right_fp requires matching F_p matrices")
    if a.rows != b.rows:
        raise DimensionMismatch("row mismatch in solve")
    aug = [list(a.data[i]) + list(b.data[i]) for i in range(a.rows)]
    pivots = []
    row = 0
    for col in range(a.cols):
        piv = None
        for i in range(row, a.rows):
            if aug[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], -1, p)
        aug[row] = [(x * inv) % p for x in aug[row]]
        for i in range(a.rows):
            if i != row and aug[i][col] % p != 0:
                c = aug[i][col]
                aug[i] = [(x - c * y) % p for x, y in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, a.rows):
        if any(x % p != 0 for x in aug[i][a.cols:]):
            raise NotInvertible("inconsistent linear system over F_p")
    x = [[0] * b.cols for _ in range(a.cols)]
    for r, col in enumerate(pivots):
        for j in range(b.cols):
            x[col][j] = aug[r][a.cols + j] % p
    return Matrix.from_rows(a.domain, x, shape=(a.cols, b.cols))


def solve_right_int(a: Matrix, b: Matrix) -> Matrix:
    """One integral solution X of a*X = b over Z via Smith normal form,
    or NotInvertible if none exists."""
    if a.rows != b.rows:
        raise DimensionMismatch("row mismatch in solve")
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
