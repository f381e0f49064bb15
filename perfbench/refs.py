"""Reference computations the benchmark checks dualkit's outputs against.

Everything here is written apart from dualkit and works on plain data:
matrix products, Bareiss determinants, F_p ranks, compositions of EvConst
morphisms in their JSON form, pullback counting, orbit counting, and a
deterministic Miller-Rabin test used only to pick the large primes that go
into generated inputs.
"""

from __future__ import annotations

import random


def matmul(a, b, p: int | None = None):
    """a @ b over Z, or over F_p when p is given."""
    bt = list(zip(*b))
    if not bt:
        return [[] for _ in a]
    out = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def ints(rows):
    """A matrix of ints from rows of ints or of decimal strings."""
    return [[int(x) for x in row] for row in rows]


def ev_identity(g, f, dom) -> bool:
    """g o f = id on dom, for EvConst morphisms and objects in their JSON
    form (as ``to_json`` and the CLI write them): the free parts compose to
    the identity, and so do the components at every exceptional prime."""
    exc = {int(p): int(d) for p, d in dom["exc"].items()}
    primes = {int(p) for m in (g, f) for p in m["explicit"]} | set(exc)
    if matmul(ints(g["free"]), ints(f["free"])) != identity(int(dom["f"])):
        return False
    for p in primes:
        gp = ints(g["explicit"].get(str(p), g["free"]))
        fp = ints(f["explicit"].get(str(p), f["free"]))
        if matmul(gp, fp, p) != identity(exc.get(p, int(dom["f"]))):
            return False
    return True


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def is_zero(a, p: int | None = None) -> bool:
    return all((x % p if p else x) == 0 for row in a for x in row)


def bareiss_det(m) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri, aik = a[i], a[i][k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * akk - aik * rk[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def rank_mod(m, p: int) -> int:
    """Rank over F_p by row echelon reduction."""
    a = [[x % p for x in row] for row in m]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        top = [x * inv % p for x in a[rank]]
        a[rank] = top
        for i in range(rank + 1, len(a)):
            if a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return rank


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def unimodular(rng: random.Random, n: int, dense: bool, steps: int = 0):
    """A random matrix of determinant 1: a product of unit triangular
    factors (dense) or of ``steps`` elementary row operations (sparse)."""
    if dense:
        lower = [[rng.randint(-3, 3) if j < i else int(i == j)
                  for j in range(n)] for i in range(n)]
        upper = [[rng.randint(-3, 3) if j > i else int(i == j)
                  for j in range(n)] for i in range(n)]
        return matmul(lower, upper)
    a = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    return a


def pullback_compose(g, f):
    """Compose spans given as count matrices (cod x dom) by building both
    apex sets element by element and counting the pullback."""
    apex_f = [(i, j) for j, row in enumerate(f) for i, c in enumerate(row)
              for _ in range(c)]
    apex_g = [(j, k) for k, row in enumerate(g) for j, c in enumerate(row)
              for _ in range(c)]
    dom = len(f[0]) if f else 0
    out = [[0] * dom for _ in g]
    for i, j in apex_f:
        for j2, k in apex_g:
            if j == j2:
                out[k][i] += 1
    return out


def kron(a, b):
    """Kronecker product by the entry formula (a (x) b)[ik][jl] = a_ij b_kl."""
    rb = len(b)
    cb = len(b[0]) if b else 0
    return [[a[r // rb][c // cb] * b[r % rb][c % cb]
             for c in range(len(a[0]) * cb if a else 0)]
            for r in range(len(a) * rb)]


def orbit_count(points: int, perms) -> int:
    """Number of orbits of the group generated by ``perms`` on range(points)."""
    parent = list(range(points))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in perms:
        for x in range(points):
            a, b = root(x), root(g[x])
            if a != b:
                parent[a] = b
    return sum(1 for x in range(points) if root(x) == x)


def compose_perm(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def inverse_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def closure(gens, degree: int) -> set:
    """All products of the generators, by breadth-first search."""
    seen = {tuple(range(degree))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose_perm(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def max_int_digits(obj) -> int:
    """Decimal digits of the largest integer anywhere inside ``obj``
    (ints, containers, dataclass fields and object attributes)."""
    best = 0
    seen = set()
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, bool) or x is None or isinstance(x, (str, float)):
            continue
        if isinstance(x, int):
            best = max(best, abs(x))
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        elif hasattr(x, "numerator") and hasattr(x, "denominator"):
            stack.extend((x.numerator, x.denominator))
        elif hasattr(x, "__dict__") or hasattr(x, "__dataclass_fields__"):
            if id(x) in seen:
                continue
            seen.add(id(x))
            if hasattr(x, "__dataclass_fields__"):
                stack.extend(getattr(x, f) for f in x.__dataclass_fields__)
            else:
                stack.extend(vars(x).values())
    return len(str(best))
