"""Exact matrix arithmetic over N, Z (arbitrary precision), and F_p.

Provides Kronecker products and ``apply_factor``, which applies a
matrix to one tensor factor without building one; the matrices of the
swap (``commutation``), of a biproduct's summand (``injection``) and
of the diagonal duality (``pairing``), which fix those basis orders
for every model; the Smith normal form with unimodular transforms,
invariant factors, saturated left kernels (from an echelon of m alone,
whose logged row operations are replayed for the kernel rows) and
integral solutions, all from one row echelon over Z; the rank, left null basis and solutions
over F_p, all from one forward elimination,
which packs each row it updates into one big integer and reduces mod p
only the pivot rows and, once, the rows it returns; and exact inverses,
as the solutions of m*X = I over the matrix's own domain.  The echelon,
the F_p elimination and the products run on plain rows in
``dualkit.introws`` (``echelon``, ``_forward_fp``, ``mul_rows`` and
``mul_packed``), whose packed kernels share one row format.
All arithmetic uses Python's arbitrary-precision integers; there are no
floats and no tolerances anywhere.

Scalar domains are tagged: ``"nat"``, ``"int"``, or ``("fp", p)`` with p
prime.  Matrices are immutable value objects.  Their entries are checked
where data comes in (direct construction, ``from_rows`` and the readers
built on it, ``retag``, ``scale``); the kernels, whose results are valid
whenever their inputs are, build their results with ``Matrix._trusted``,
which checks no entry and only reduces mod p; so do ``commutation``,
``injection`` and ``pairing``, whose entries are 0 and 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import add
from typing import Sequence, Union

from . import DomainError, Frozen, MalformedInput, clip
from .introws import (PACKED_NONZEROS, PACKED_ROWS, _forward_fp, echelon,
                      mul_packed, mul_pairs, mul_rows, nonzero_pairs,
                      transform_row)

Domain = Union[str, tuple]

NAT = "nat"
INT = "int"


@lru_cache(maxsize=256, typed=True)
def fp(p: int) -> Domain:
    """The scalar domain F_p.  A prime is proven once: the domains of
    the last 256 primes asked for are kept, while a refusal (not a prime,
    or PrimalityUnproven) is an exception, which is not kept, so it is
    raised again on every call."""
    if not is_prime(p):
        raise MalformedInput(f"F_p requires a prime, got {p}")
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


class FactorBudgetExceeded(DomainError):
    """Raised by ``pollard_brent`` for a composite whose factor it has
    not found within its budget, naming that composite (clipped);
    ``units`` is what the steps taken were charged."""

    def __init__(self, message: str, units: int):
        super().__init__(message)
        self.units = units


# rho needs about sqrt(p) steps for a prime factor p, so this bound
# covers cofactors below 2**128 whose second-largest prime has about 12
# digits (two 12-digit primes take 1,646,718 steps) and stops in about a
# second
RHO_STEPS = 1 << 21
# a step squares and multiplies modulo n, at a cost that grows as the
# square of n's size in 64-bit words; so each step is charged that
# square, and at least 4 units, which keeps RHO_STEPS steps below 2**128
RHO_UNITS = 4 * RHO_STEPS


def rho_step_units(n: int) -> int:
    """The units charged for one rho step modulo n: the squared number
    of 64-bit words of n, and at least 4."""
    return max(2, -(-n.bit_length() // 64)) ** 2


def pollard_brent(n: int) -> int:
    """A nontrivial factor of a composite n: Brent's variant of Pollard's
    rho (Brent 1980) on x -> x^2 + c from y = 2, taking differences in
    batches of 128 per gcd.  c starts at 1 and moves to the next integer
    when a cycle closes without a factor, so the result is deterministic.
    Raises FactorBudgetExceeded rather than start a round that would
    charge the steps of all rounds, ``rho_step_units(n)`` each, past
    RHO_UNITS."""
    if n % 2 == 0:
        return 2
    unit = rho_step_units(n)
    limit = RHO_UNITS // unit       # the steps the budget buys modulo n
    c, steps = 1, 0
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > limit:
                raise FactorBudgetExceeded(
                    f"no factor of the composite {clip(str(n))} found in "
                    f"{limit} Pollard-Brent rho steps", steps * unit)
            steps += 2 * r
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


def _perfect_root(n: int):
    """r with r ** k == n for some k >= 2, or None: isqrt for k = 2, else
    Newton's method down from a power of two above the k-th root.  n has
    no prime factor below 1000 > 2 ** 9, so only k <= bits / 9 can hold."""
    for k in range(2, n.bit_length() // 9 + 1):
        x = isqrt(n) if k == 2 else 1 << -(-n.bit_length() // k)
        while k > 2 and (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
            x = y
        if x ** k == n:
            return x
    return None


def prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, in increasing order: trial
    division below 1000, then on a composite cofactor its root if it is
    a perfect power (rho is slowest there) or Pollard-Brent rho.
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
        elif (root := _perfect_root(m)) is not None:
            todo.append(root)
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


class Matrix(Frozen):
    """An exact matrix over a tagged scalar domain.

    Entries are stored as a tuple of row tuples of Python ints.  For the
    "fp" domain entries are kept reduced mod p; for "nat" they must be
    nonnegative.
    """

    _fields = ("domain", "rows", "cols", "data")

    def __init__(self, domain: Domain, rows: int, cols: int,
                 data: tuple = ()):
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch("entry grid does not match declared shape")
        p = _domain_prime(domain)
        for row in data:
            for e in row:
                if not isinstance(e, int):
                    raise TypeError(f"non-integer entry {e!r}")
                if domain == NAT and e < 0:
                    raise MalformedInput("nat matrix entry must be >= 0")
                if p is not None and not (0 <= e < p):
                    raise ValueError(f"F_{p} entry {e} not reduced")
        self.__dict__.update(domain=domain, rows=rows, cols=cols, data=data)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain, self.rows, self.cols, self.data) == \
            (other.domain, other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.domain, self.rows, self.cols, self.data))

    # ---------------------------------------------------------- construction

    @staticmethod
    def _trusted(domain: Domain, rows: int, cols: int, data) -> "Matrix":
        """The rows x cols matrix with the rows data (lists or tuples of
        ints), built without the entry checks of ``__init__``: only for
        results that are valid whenever the inputs are.  Over F_p the
        entries are reduced mod p in the same pass; over N and Z a row
        that is already a tuple is kept, not copied.  Only the
        dimensions are checked, and the four fields are set by one update
        of the instance's ``__dict__``, as ``__init__`` sets them."""
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        p = _domain_prime(domain)
        data = (tuple([tuple([e % p for e in r]) for r in data]) if p
                else tuple(map(tuple, data)))
        m = object.__new__(Matrix)
        m.__dict__.update(domain=domain, rows=rows, cols=cols, data=data)
        return m

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
        return Matrix._trusted(domain, n, n, _identity_rows(n))

    @staticmethod
    def zeros(domain: Domain, rows: int, cols: int) -> "Matrix":
        # every row is the same immutable zero tuple
        return Matrix._trusted(domain, rows, cols, ((0,) * cols,) * rows)

    # --------------------------------------------------------------- access

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self.data[i][j]

    def tolist(self) -> list:
        return [list(r) for r in self.data]

    def is_identity(self) -> bool:
        return (self.rows == self.cols
                and all(self.data[i][j] == (1 if i == j else 0)
                        for i in range(self.rows) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.data for e in r)

    # ------------------------------------------------------------ arithmetic

    def add(self, other: "Matrix") -> "Matrix":
        if self.domain != other.domain:
            raise DimensionMismatch("domain mismatch in add")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        return Matrix._trusted(
            self.domain, self.rows, self.cols,
            [list(map(add, r, s)) for r, s in zip(self.data, other.data)])

    def sub(self, other: "Matrix") -> "Matrix":
        if self.domain == NAT:
            raise ValueError("subtraction undefined over nat")
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "Matrix":
        return Matrix.from_rows(
            self.domain, [[c * e for e in r] for r in self.data],
            shape=(self.rows, self.cols))

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other."""
        if self.domain != other.domain:
            raise DimensionMismatch("domain mismatch in mul")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = self.data
        product = mul_packed if self.rows >= PACKED_ROWS and (
            self.rows * self.cols - sum(r.count(0) for r in rows)
            >= PACKED_NONZEROS * self.rows) else mul_rows
        # _trusted reduces the integer product mod p
        return Matrix._trusted(self.domain, self.rows, other.cols,
                               product(rows, other.data, other.cols))

    def transpose(self) -> "Matrix":
        return Matrix._trusted(
            self.domain, self.cols, self.rows,
            zip(*self.data) if self.rows else [()] * self.cols)

    def retag(self, domain: Domain) -> "Matrix":
        """Reinterpret entries in another domain (reducing mod p if needed)."""
        return Matrix.from_rows(domain, self.tolist(), shape=(self.rows, self.cols))

    def mod(self, p: int) -> "Matrix":
        return Matrix._trusted(fp(p), self.rows, self.cols, self.data)

    # -------------------------------------------------------- serialization

    def to_json(self) -> dict:
        tag = {"fp": self.domain[1]} if isinstance(self.domain, tuple) \
            else self.domain
        return {"domain": tag, "rows": self.rows, "cols": self.cols,
                "entries": self.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "Matrix":
        """The inverse of to_json, as strict as direct construction: an
        unreduced F_p entry or a non-prime modulus raises."""
        tag = obj["domain"]
        domain: Domain = fp(tag["fp"]) if isinstance(tag, dict) else tag
        return Matrix(domain, obj["rows"], obj["cols"],
                      tuple(map(tuple, obj["entries"])))


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
    # row (i, k) is [a_ij * b_kl for j for l]; _trusted reduces mod p
    out = [[x * y for x in arow for y in brow]
           for arow in a.data for brow in b.data]
    return Matrix._trusted(a.domain, a.rows * b.rows, a.cols * b.cols, out)


def apply_factor(f: Matrix, m: Matrix, left: int, right: int) -> Matrix:
    """(I_left (x) f (x) I_right) * m without building the Kronecker
    product: row (l, i, r) of m, at index (l*a + i)*right + r with
    a = f.cols, is the i-th input of block (l, r), and row (l, j, r) of
    the result is row j of f times that block's a rows.  The nonzero
    entries of f are found once for all left * right blocks."""
    if f.domain != m.domain:
        raise DimensionMismatch("domain mismatch in apply_factor")
    a, b = f.cols, f.rows
    if m.rows != left * a * right:
        raise DimensionMismatch(
            f"cannot apply a {b}x{a} factor between {left} and {right} "
            f"to {m.rows} rows")
    pairs = nonzero_pairs(f.data)
    out = []
    for l in range(left):
        start = l * a * right
        # per offset r, the b rows f * (rows (l, 0, r), ..., (l, a-1, r))
        blocks = [mul_pairs(pairs, m.data[start + r:start + a * right:right],
                            m.cols) for r in range(right)]
        out += [blk[j] for j in range(b) for blk in blocks]
    # _trusted reduces the integer combinations mod p
    return Matrix._trusted(m.domain, left * b * right, m.cols, out)


def commutation(domain: Domain, a: int, b: int) -> Matrix:
    """The permutation matrix of the swap A (x) B -> B (x) A for
    dim A = a and dim B = b: basis (i, j) at index i*b + j goes to index
    j*a + i."""
    rows = [[0] * (a * b) for _ in range(a * b)]
    for i in range(a):
        for j in range(b):
            rows[j * a + i][i * b + j] = 1
    return Matrix._trusted(domain, a * b, a * b, rows)


def injection(domain: Domain, n: int, s: int, k: int) -> Matrix:
    """The s x n inclusion of a summand of dimension n into one of
    dimension s at the coordinates k..k+n-1; its transpose is the
    projection onto that summand."""
    if not 0 <= k <= s - n:
        raise DimensionMismatch(f"no {n} coordinates from {k} in {s}")
    rows = [[0] * n for _ in range(s)]
    for j in range(n):
        rows[k + j][j] = 1
    return Matrix._trusted(domain, s, n, rows)


def pairing(domain: Domain, n: int) -> Matrix:
    """The 1 x n^2 row of the diagonal pairing A (x) A -> 1 for dim A = n:
    a 1 at each index i*n + i of the basis (i, j) -> i*n + j."""
    row = [0] * (n * n)
    for i in range(n):
        row[i * n + i] = 1
    return Matrix._trusted(domain, 1, n * n, [row])


def _identity_rows(n: int) -> list:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _with_identity(m: Matrix) -> list:
    return [list(r) + e for r, e in zip(m.data, _identity_rows(m.rows))]


# ---------------------------------------------------------- smith normal form

def _smith(a: list, nc: int, u: list, vt: list) -> tuple:
    """Diagonalise the integer rows a (nc columns) as U*a*V = D with
    d1 | d2 | ... and every d_i >= 0, carrying the rows u of U and vt of
    V^T along: identity rows give Smith transforms, empty rows track
    nothing.  Row echelons of [a | U] and of [a^T | V^T] alternate until
    a is diagonal (Kannan & Bachem 1979): each either clears the first
    row and column not yet clear or lowers |pivot| there.  Then a gcd/lcm
    sweep of 2x2 unimodular steps makes the diagonal a divisor chain.
    Returns (the nonzero diagonal, u, vt)."""
    flips = 0
    while True:
        w = [x + y for x, y in zip(a, u)]
        echelon(w, nc)
        a, u = [r[:nc] for r in w], [r[nc:] for r in w]
        if not any(x for i, r in enumerate(a) for j, x in enumerate(r)
                   if i != j):
            break
        a, nc, u, vt = [list(c) for c in zip(*a)], len(a), vt, u
        flips += 1
    if flips % 2:
        u, vt = vt, u
    # the echelon pivots: nonzero entries first
    d = [a[i][i] for i in range(min(len(a), nc)) if a[i][i]]
    for i, x in enumerate(d):
        if x < 0:
            d[i], u[i] = -x, [-y for y in u[i]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            di, dj = d[i], d[j]
            if dj % di:
                # x*di + y*dj = g: U = [[x, y], [-dj/g, di/g]] and
                # V = [[1, -y*dj/g], [1, x*di/g]] take diag(di, dj) to
                # diag(g, di*dj/g)
                g = gcd(di, dj)
                s, t = dj // g, di // g
                x = pow(t, -1, s)
                y = (g - x * di) // dj
                ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
                u[i] = [x * p + y * q for p, q in zip(ui, uj)]
                u[j] = [t * q - s * p for p, q in zip(ui, uj)]
                vt[i] = [p + q for p, q in zip(vi, vj)]
                vt[j] = [x * t * q - y * s * p for p, q in zip(vi, vj)]
                d[i], d[j] = g, t * dj
    return d, u, vt


def smith_normal_form(m: Matrix) -> tuple:
    """Return (U, D, V) with U*m*V = D, U and V unimodular, D diagonal
    with d1 | d2 | ... and all d_i >= 0.

    ``invariant_factors`` gives the diagonal without U and V, whose
    entries grow far past those of D.
    """
    if m.domain not in (INT, NAT):
        raise ValueError("smith_normal_form requires an integer matrix")
    nr, nc = m.rows, m.cols
    d, u, vt = _smith([list(r) for r in m.data], nc, _identity_rows(nr),
                      _identity_rows(nc))
    return (Matrix._trusted(INT, nr, nr, u),
            Matrix._trusted(INT, nr, nc,
                            [[d[i] if i == j and i < len(d) else 0
                              for j in range(nc)] for i in range(nr)]),
            Matrix._trusted(INT, nc, nc, vt).transpose())


def invariant_factors(m: Matrix) -> list:
    """The nonzero invariant factors d1 | ... | dr of an integer matrix,
    diagonalised with no unimodular transforms."""
    if m.domain not in (INT, NAT):
        raise ValueError("invariant_factors requires an integer matrix")
    return _smith([list(r) for r in m.data], m.cols, [[]] * m.rows,
                  [[]] * m.cols)[0]


def _size_reduce(basis: list) -> None:
    """Reduce lattice basis rows against each other in place, taking a
    step only when it strictly shortens a row, so the loop ends."""
    norm = [sum(x * x for x in b) for b in basis]
    changed = True
    while changed:
        changed = False
        for i, j in ((i, j) for i in range(len(basis))
                     for j in range(len(basis)) if i != j):
            dot = sum(x * y for x, y in zip(basis[i], basis[j]))
            q = (2 * dot + norm[j]) // (2 * norm[j])
            if q * q * norm[j] < 2 * q * dot:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
                norm[i] = sum(x * x for x in basis[i])
                changed = True


def left_kernel_int(m: Matrix) -> tuple:
    """(invariant factors of m, q) with q a size-reduced Z-basis of the
    left kernel, (rows - rank) x rows.  q is rows r.. of the unimodular
    U with U*m = echelon, for the rank r, so q is saturated and is the
    free quotient of coker m.  The echelon runs on m alone and logs its
    rounds; each kernel row of U comes from replaying the log
    (``transform_row``), the same integers as the I-part of the echelon
    of [m | I] without the identity block in every row update."""
    n, c = m.rows, m.cols
    rows, log = list(m.data), []
    r = echelon(rows, c, log)
    kernel = [transform_row(log, n, k) for k in range(r, n)]
    _size_reduce(kernel)
    h = Matrix._trusted(INT, r, c, rows[:r])
    return invariant_factors(h), Matrix._trusted(INT, n - r, n, kernel)


def cokernel_decomposition(m: Matrix) -> tuple:
    """coker(m) = (+) Z/d_i (+) Z^free_rank as (torsion, free_rank); the
    torsion lists the invariant factors > 1 in divisibility order."""
    factors = invariant_factors(m)
    return [x for x in factors if x > 1], m.rows - len(factors)


# ------------------------------------------------------- elimination over F_p

def _fp_prime(*ms: Matrix) -> int:
    p = _domain_prime(ms[0].domain)
    if p is None or any(m.domain != ms[0].domain for m in ms):
        raise ValueError("expected F_p matrices over one prime")
    return p


def rank_fp(m: Matrix) -> int:
    """Rank of a matrix over its F_p domain."""
    return len(_forward_fp([list(r) for r in m.data], m.cols, _fp_prime(m)))


def left_null_basis_fp(m: Matrix) -> Matrix:
    """Deterministic basis of the left null space of an F_p matrix.

    Returns a k x rows matrix N of full rank k = rows - rank(m) with
    N*m = 0: the identity part of the rows of [m | I] whose m-part
    vanished under forward elimination.
    """
    a = _with_identity(m)
    k = len(_forward_fp(a, m.cols, _fp_prime(m)))
    return Matrix._trusted(m.domain, m.rows - k, m.rows,
                           [r[m.cols:] for r in a[k:]])


def solve_right_fp(a: Matrix, b: Matrix) -> Matrix:
    """One solution X of a*X = b over F_p, or NotInvertible if none exists.

    Deterministic: free variables are set to zero.
    """
    p = _fp_prime(a, b)
    if a.rows != b.rows:
        raise DimensionMismatch("row mismatch in solve")
    aug = [list(x) + list(y) for x, y in zip(a.data, b.data)]
    pivots = _forward_fp(aug, a.cols, p)
    if any(any(r[a.cols:]) for r in aug[len(pivots):]):
        raise NotInvertible("inconsistent linear system over F_p")
    # back-substitution in the b-part only: a later pivot row is zero in
    # every earlier pivot column, so the a-part needs none
    for r in range(len(pivots) - 1, 0, -1):
        col, tail = pivots[r], aug[r][a.cols:]
        for row in aug[:r]:
            c = row[col]
            if c:
                row[a.cols:] = [(x - c * y) % p
                                for x, y in zip(row[a.cols:], tail)]
    x = [[0] * b.cols for _ in range(a.cols)]
    for r, col in enumerate(pivots):
        x[col] = aug[r][a.cols:]
    return Matrix._trusted(a.domain, a.cols, b.cols, x)


# ------------------------------------------------- integral solve, inversion

def solve_right_int(a: Matrix, b: Matrix) -> Matrix:
    """One integral solution X of a*X = b, or NotInvertible if none
    exists.  The row echelon of [a^T | I] gives a unimodular V with
    V*a^T = H, so a*V^T = H^T: H^T*Y = b is solved forward from each
    pivot and X = V^T*Y.  A remainder left at a pivot (no integral Y) or
    below the last one (no rational Y) stays in b - H^T*Y."""
    if a.rows != b.rows:
        raise DimensionMismatch("row mismatch in solve")
    n, m = a.rows, a.cols
    w = _with_identity(a.transpose())
    r = echelon(w, n)
    res = [list(row) for row in b.data]  # b - H^T*Y so far
    y = []
    for h in w[:r]:
        c = next(j for j in range(n) if h[j])
        yi = [x // h[c] for x in res[c]]
        for j in range(c, n):
            if h[j]:
                res[j] = [x - h[j] * v for x, v in zip(res[j], yi)]
        y.append(yi)
    if any(map(any, res)):
        raise NotInvertible("no integral solution")
    vt = Matrix._trusted(INT, r, m, [h[n:] for h in w[:r]])
    return vt.transpose().mul(Matrix._trusted(INT, r, b.cols, y))


def invert_or_fail(m: Matrix) -> Matrix:
    """Two-sided inverse over the matrix's own scalar domain: the solution
    X of m*X = I, by ``solve_right_fp`` over F_p and ``solve_right_int``
    over Z and nat.  Over nat the inverse must also have no negative
    entry, so only permutation matrices invert.  Raises NotInvertible."""
    if m.rows != m.cols:
        raise NotInvertible("not square")
    eye = Matrix.identity(m.domain, m.rows)
    if _domain_prime(m.domain):
        return solve_right_fp(m, eye)
    inv = solve_right_int(m, eye)
    if m.domain == NAT:
        if any(e < 0 for r in inv.data for e in r):
            raise NotInvertible("inverse has negative entries over nat")
        return inv.retag(NAT)
    return inv
