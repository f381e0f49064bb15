"""Tests for exact matrix arithmetic, Smith normal form, and inversion.

Oracles used here are independent of the implementation under test:
- Kronecker mixed-product identity checked by direct multiplication.
- SNF checked by its defining postconditions (U*m*V = D, unimodularity
  via integral inversion, divisibility chain) and, for invariant
  factors, an alternative maximal-pivot elimination strategy.
"""

import random
import time

import pytest

import dualkit.exactlin as exactlin
from dualkit import MalformedInput
from dualkit.exactlin import (
    INT, NAT, RHO_STEPS, RHO_UNITS, DimensionMismatch, FactorBudgetExceeded, Matrix,
    NotInvertible, PrimalityUnproven, cokernel_decomposition, commutation, fp, fp_matrix, int_matrix,
    injection, invert_or_fail, is_prime, kronecker, left_null_basis_fp,
    nat_matrix, pairing, pollard_brent, prime_factors, rank_fp,
    rho_step_units, smith_normal_form, solve_right_fp, solve_right_int,
)


def rand_int_matrix(rng, rows, cols, bound):
    return int_matrix([[rng.randint(-bound, bound) for _ in range(cols)]
                       for _ in range(rows)], shape=(rows, cols))


# ------------------------------------------------------------------- oracles

def snf_invariant_factors_maxpivot(m):
    """Invariant factors computed with a different pivot strategy
    (maximal |entry|) -- an independent cross-check of pivoting."""
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    t = 0
    diag = []
    while t < min(nr, nc):
        pivot, best = None, None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v != 0 and (best is None or v > best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        while True:
            # reduce column and row against a[t][t] using minimal remainders
            moved = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(nc):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        moved = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(nr):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        moved = True
            if all(a[i][t] == 0 for i in range(t + 1, nr)) and \
               all(a[t][j] == 0 for j in range(t + 1, nc)):
                break
            if not moved:
                break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        bad = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t]:
                    for k in range(nc):
                        a[t][k] += a[i][k]
                    bad = True
                    break
            if bad:
                break
        if bad:
            continue
        diag.append(a[t][t])
        t += 1
    return [d for d in diag if d != 0]


def is_unimodular(u):
    try:
        inv = invert_or_fail(u.retag(INT))
    except NotInvertible:
        return False
    return u.retag(INT).mul(inv).is_identity()


# --------------------------------------------------------------- basic shape

def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        Matrix(INT, 2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        nat_matrix([[-1]])
    with pytest.raises(ValueError):
        fp(4)


def test_mul_identity_and_mismatch():
    m = int_matrix([[1, 2], [3, 4]])
    assert m.mul(Matrix.identity(INT, 2)) == m
    with pytest.raises(DimensionMismatch):
        m.mul(int_matrix([[1, 2, 3]]))


def test_fp_reduction():
    m = fp_matrix(3, [[4, -1], [3, 5]])
    assert m.tolist() == [[1, 2], [0, 2]]


def test_json_roundtrip():
    for m in (int_matrix([[1, -2], [0, 5]]), nat_matrix([[3]]),
              fp_matrix(5, [[2, 4]])):
        assert Matrix.from_json(m.to_json()) == m


def test_json_reading_is_strict():
    one = {"rows": 1, "cols": 1}
    with pytest.raises(MalformedInput):         # 4 is not prime
        Matrix.from_json({**one, "domain": {"fp": 4}, "entries": [[1]]})
    with pytest.raises(ValueError):             # 9 is not reduced mod 7
        Matrix.from_json({**one, "domain": {"fp": 7}, "entries": [[9]]})
    with pytest.raises(MalformedInput):
        Matrix.from_json({**one, "domain": "nat", "entries": [[-1]]})
    m = Matrix.zeros(fp(7), 0, 3)
    assert Matrix.from_json(m.to_json()) == m


# ----------------------------------------------------------------- kronecker

def test_kron_identities():
    assert kronecker(Matrix.identity(NAT, 2), Matrix.identity(NAT, 3)) == \
        Matrix.identity(NAT, 6)
    m = int_matrix([[1, 2], [3, 4]])
    assert kronecker(int_matrix([[2]]), m) == m.scale(2)


def test_kron_mixed_product_exhaustive_small():
    # exhaustive over 2x2 nat matrices with entries <= 2 would be 3^16 pairs;
    # exhaust a structured slice and randomize the rest at entries <= 2
    rng = random.Random(0)
    for _ in range(300):
        a, b, c, d = (nat_matrix([[rng.randint(0, 2) for _ in range(2)]
                                  for _ in range(2)]) for _ in range(4))
        assert kronecker(a, b).mul(kronecker(c, d)) == \
            kronecker(a.mul(c), b.mul(d))


def test_kron_associative():
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (rand_int_matrix(rng, 2, 2, 3) for _ in range(3))
        assert kronecker(kronecker(a, b), c) == kronecker(a, kronecker(b, c))


# ----------------------------------------------------------------------- SNF

def test_snf_frozen_values():
    _, d, _ = smith_normal_form(int_matrix([[2, 0], [0, 3]]))
    assert d.tolist() == [[1, 0], [0, 6]]
    u, d, v = smith_normal_form(Matrix.zeros(INT, 2, 3))
    assert d.is_zero() and u.is_identity() and v.is_identity()


def test_snf_postconditions_random():
    rng = random.Random(42)
    for _ in range(1000):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_int_matrix(rng, nr, nc, 50)
        u, d, v = smith_normal_form(m)
        assert u.mul(m).mul(v) == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d.data[i][i] for i in range(min(nr, nc))]
        assert all(d.data[i][j] == 0
                   for i in range(nr) for j in range(nc) if i != j)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_invariant_factors_pivot_independence():
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_int_matrix(rng, nr, nc, 10)
        _, d, _ = smith_normal_form(m)
        mine = [d.data[i][i] for i in range(min(nr, nc)) if d.data[i][i] != 0]
        assert mine == snf_invariant_factors_maxpivot(m)


def test_cokernel_decomposition():
    assert cokernel_decomposition(int_matrix([[6]])) == ([6], 0)
    assert cokernel_decomposition(int_matrix([[1], [1]])) == ([], 1)
    assert cokernel_decomposition(int_matrix([[2, 0], [0, 0]])) == ([2], 1)


# ------------------------------------------------------------------ inverses

def test_invert_basics():
    assert invert_or_fail(Matrix.identity(INT, 3)).is_identity()
    with pytest.raises(NotInvertible):
        invert_or_fail(int_matrix([[2]]))
    assert invert_or_fail(fp_matrix(3, [[2]])) == fp_matrix(3, [[2]])
    with pytest.raises(NotInvertible):
        invert_or_fail(int_matrix([[1, 2]]))


def test_invert_unimodular_from_snf():
    rng = random.Random(3)
    for _ in range(100):
        m = rand_int_matrix(rng, 3, 3, 8)
        u, _, v = smith_normal_form(m)
        for w in (u, v):
            assert w.mul(invert_or_fail(w)).is_identity()
            assert invert_or_fail(w).mul(w).is_identity()


def test_invert_fp_random():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for _ in range(50):
            m = fp_matrix(p, [[rng.randrange(p) for _ in range(3)]
                              for _ in range(3)])
            try:
                inv = invert_or_fail(m)
            except NotInvertible:
                assert rank_fp(m) < 3
                continue
            assert m.mul(inv).is_identity() and inv.mul(m).is_identity()


# ------------------------------------------------------------ solving / rank

def test_rank_and_left_null():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(50):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = fp_matrix(p, [[rng.randrange(p) for _ in range(nc)]
                              for _ in range(nr)])
            n = left_null_basis_fp(m)
            assert n.rows == m.rows - rank_fp(m)
            assert n.mul(m).is_zero()
            if n.rows:
                assert rank_fp(n) == n.rows


def test_solve_right():
    rng = random.Random(6)
    for _ in range(50):
        a = rand_int_matrix(rng, 3, 2, 5)
        x = rand_int_matrix(rng, 2, 2, 5)
        b = a.mul(x)
        y = solve_right_int(a, b)
        assert a.mul(y) == b
    for p in (2, 5):
        for _ in range(50):
            a = fp_matrix(p, [[rng.randrange(p) for _ in range(3)]
                              for _ in range(2)])
            x = fp_matrix(p, [[rng.randrange(p)] for _ in range(3)])
            b = a.mul(x)
            y = solve_right_fp(a, b)
            assert a.mul(y) == b
    with pytest.raises(NotInvertible):
        solve_right_int(int_matrix([[2]]), int_matrix([[1]]))


# ---------------------------------------------------------------- primality

def test_is_prime_matches_sieve_below_1e5():
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [n for n in range(10 ** 5) if is_prime(n) != sieve[n]] == []


@pytest.mark.parametrize("n", [
    3215031751,            # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,   # strong pseudoprime to bases 2 through 23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(1000000000000000003)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 61 - 1) * 1000000000000000003)
    assert is_prime(662638805832249361537049)


def test_is_prime_refuses_an_unproven_probable_prime_at_once():
    start = time.perf_counter()
    with pytest.raises(PrimalityUnproven):
        is_prime(2 ** 89 - 1)
    with pytest.raises(PrimalityUnproven):
        fp(2 ** 127 - 1)
    assert time.perf_counter() - start < 1.0
    # above the proven bound a witness still settles composites
    assert not is_prime(2 ** 101 - 1)
    assert not is_prime((2 ** 89 - 1) * (2 ** 61 - 1))


def test_fp_proves_each_prime_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)
    monkeypatch.setattr(exactlin, "is_prime", counting_is_prime)
    fp.cache_clear()
    for _ in range(3):
        assert fp(999999999989) == ("fp", 999999999989)
        assert fp(5) == ("fp", 5)
    assert calls == [999999999989, 5]
    # a refusal is not kept: the test runs and raises on every call
    for _ in range(2):
        with pytest.raises(MalformedInput, match="got 4"):
            fp(4)
        with pytest.raises(PrimalityUnproven):
            fp(2 ** 89 - 1)
    assert calls[2:] == [4, 2 ** 89 - 1] * 2


# ---------------------------------------------------------------- commutation

def test_commutation_swaps_kronecker_factors():
    # K_{m,n} (x (x) y) = (y (x) x) K_{a,b} for x: a -> m, y: b -> n
    rng = random.Random(3)
    for a, b, m, n in ((2, 3, 1, 2), (3, 1, 2, 2), (0, 2, 1, 3)):
        x = rand_int_matrix(rng, m, a, 5)
        y = rand_int_matrix(rng, n, b, 5)
        assert commutation(INT, m, n).mul(kronecker(x, y)) == \
            kronecker(y, x).mul(commutation(INT, a, b))
    k = commutation(NAT, 2, 3)
    assert k.mul(commutation(NAT, 3, 2)).is_identity()


DOMAINS = [NAT, INT, fp(7)]


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_injection_is_the_hand_built_inclusion(domain, n):
    for s in (n, n + 2):
        for k in sorted({0, s - n}):
            rows = [[0] * n for _ in range(s)]
            for j in range(n):
                rows[k + j][j] = 1
            i = injection(domain, n, s, k)
            assert i == Matrix.from_rows(domain, rows, shape=(s, n))
            # its transpose, the projection, is a left inverse
            assert i.transpose().mul(i) == Matrix.identity(domain, n)
    with pytest.raises(DimensionMismatch):
        injection(domain, n, n + 2, 3)


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_pairing_is_the_hand_built_diagonal_row(domain, n):
    row = [int(idx in {i * n + i for i in range(n)}) for idx in range(n * n)]
    assert pairing(domain, n) == Matrix.from_rows(domain, [row],
                                                  shape=(1, n * n))
    # invariant under the swap of the two factors
    assert pairing(domain, n).mul(commutation(domain, n, n)) == \
        pairing(domain, n)


# ---------------------------------------------------------------- factoring

def trial_division_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def test_prime_factors_match_trial_division():
    assert [n for n in range(1, 3000)
            if prime_factors(n) != trial_division_factors(n)] == []
    rng = random.Random(5)
    for _ in range(200):
        primes = rng.sample((2, 3, 997, 1009, 65537, 999983, 1000003),
                            rng.randint(1, 4))
        n = 1
        for q in primes:
            n *= q ** rng.randint(1, 3)
        assert prime_factors(n) == sorted(primes)


@pytest.mark.parametrize("n, factors", [
    (999999999959 * 999999999989, [999999999959, 999999999989]),
    (1000003 ** 2, [1000003]),
    (2 ** 64 + 1, [274177, 67280421310721]),
    (561 * 1105 * 1729, [3, 5, 7, 11, 13, 17, 19]),
    (6 * 1000000000000000003, [2, 3, 1000000000000000003]),
])
def test_prime_factors_of_large_composites(n, factors):
    assert prime_factors(n) == factors


@pytest.mark.parametrize("k", [2, 3, 5])
def test_prime_factors_of_a_large_prime_power(k):
    # rho on the square of a 14-digit prime used to exhaust its budget
    q = 10 ** 13 + 37
    start = time.perf_counter()
    assert prime_factors(q ** k) == [q]
    assert time.perf_counter() - start < 0.1
    assert prime_factors(12 * q ** k * 1009 ** 2) == [2, 3, 1009, q]


def test_pollard_brent_finds_a_proper_factor():
    for n in (1009 * 1013, 1000003 ** 2, 3215031751, 3825123056546413051):
        d = pollard_brent(n)
        assert 1 < d < n and n % d == 0
    # deterministic: the same factor every time
    assert pollard_brent(1009 * 1013) == pollard_brent(1009 * 1013)


def test_prime_factors_refuse_an_unproven_prime_factor():
    with pytest.raises(PrimalityUnproven):
        prime_factors(3 * (2 ** 89 - 1))


def test_pollard_brent_gives_up_within_its_step_budget():
    # 10000000000000000051 * 10000000000000000087 needs about 10**10 steps
    n = 100000000000000001380000000000000004437
    start = time.perf_counter()
    with pytest.raises(FactorBudgetExceeded, match=str(n)):
        prime_factors(6 * n)   # rho runs on the cofactor n
    assert time.perf_counter() - start < 20.0   # a hang guard, not a timing
    assert RHO_STEPS >= 1646718   # the steps two 12-digit primes take


def test_rho_budget_charges_each_step_by_the_size_of_n():
    # 4 units a step below 2**128, so such an n keeps RHO_STEPS steps
    assert RHO_UNITS == 4 * RHO_STEPS
    assert [rho_step_units(n) for n in (15, 2 ** 64, 2 ** 128 - 1,
                                        2 ** 128, 2 ** 192, 2 ** 3482)] == \
        [4, 4, 4, 9, 16, 55 ** 2]


def test_pollard_brent_refuses_a_large_composite_within_its_units():
    # a 1049-digit product of two Mersenne primes, 55 words of 64 bits:
    # its budget buys 2773 steps, so rho stops after the rounds of
    # 2 + 4 + ... + 1024 steps, before the round of 2048
    n = (2 ** 1279 - 1) * (2 ** 2203 - 1)
    assert len(str(n)) == 1049 and rho_step_units(n) == 3025
    with pytest.raises(FactorBudgetExceeded) as caught:
        prime_factors(n)
    steps = sum(2 * 2 ** k for k in range(10))
    assert caught.value.units == steps * 3025 <= RHO_UNITS \
        < (steps + 2 * 2 ** 10) * 3025
    assert str(caught.value) == (
        f"no factor of the composite {str(n)[:40]}... found in 2773 "
        "Pollard-Brent rho steps")
