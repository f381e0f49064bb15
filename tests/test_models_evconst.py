"""EvConst model tests.

The cofiber oracle used here is independent of the implementation:
- abelian-group invariants of coker(free part) via a max-pivot
  elimination (different pivot strategy, coded in test_exactlin);
- per-prime ranks via nonzero-minor search (no Gaussian elimination).
"""

import itertools
import random
import time

import pytest

from dualkit import MalformedInput
from dualkit.exactlin import (INT, DimensionMismatch, Matrix, NotInvertible,
                              apply_factor, fp, int_matrix, invert_or_fail,
                              is_prime, kronecker, smith_normal_form,
                              solve_right_fp)
from dualkit.models import (EvConst, EvMorphism, EvObject, UNIT, ZERO,
                            biproduct_equations_hold, enumerate_homs,
                            ev_morphism, ev_object, hom_group_structure,
                            triangle_equations_hold)
from test_exactlin import commutation, snf_invariant_factors_maxpivot

C = EvConst()

S = UNIT
S2 = ev_object(0, {2: 1})       # cofiber of 2: S -> S
S3 = ev_object(0, {3: 1})
S_2 = ev_object(1, {2: 0})      # complement of S2


# -------------------------------------------------------------------- oracle

def minor_rank(m):
    """Rank via largest nonzero minor, entries over F_p or Z."""
    def det(rows, cols):
        if not rows:
            return 1
        i = rows[0]
        total = 0
        for k, j in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1:])
            total += (-1) ** k * m.data[i][j] * sub
        return total
    p = m.domain[1] if isinstance(m.domain, tuple) else None
    for r in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), r):
            for cols in itertools.combinations(range(m.cols), r):
                d = det(list(rows), list(cols))
                if (d % p if p else d) != 0:
                    return r
    return 0


def cofiber_object_oracle(f):
    """Predicted cofiber object from first principles."""
    inv = [d for d in snf_invariant_factors_maxpivot(f.free)]
    free_rank = f.cod.f - len(inv)
    primes = set(f.explicit_primes())
    for d in inv:
        rest, q = d, 2
        while q * q <= rest:
            if rest % q == 0:
                primes.add(q)
                while rest % q == 0:
                    rest //= q
            q += 1
        if rest > 1:
            primes.add(rest)
    dims = {p: f.cod.dim(p) - minor_rank(f.component(p)) for p in primes}
    return ev_object(free_rank, dims)


def rand_object(rng, primes=(2, 3, 5), maxdim=2):
    f = rng.randint(0, 2)
    exc = {}
    for p in primes:
        if rng.random() < 0.5:
            exc[p] = rng.randint(0, maxdim)
    return ev_object(f, exc)


def rand_morphism(rng, dom, cod, bound=10, primes=(2, 3, 5)):
    free = int_matrix([[rng.randint(-bound, bound) for _ in range(dom.f)]
                       for _ in range(cod.f)], shape=(cod.f, dom.f))
    expl = {}
    for p in set(dom.exc_primes()) | set(cod.exc_primes()) | \
            {q for q in primes if rng.random() < 0.3}:
        expl[p] = Matrix.from_rows(
            fp(p), [[rng.randrange(p) for _ in range(dom.dim(p))]
                    for _ in range(cod.dim(p))], shape=(cod.dim(p), dom.dim(p)))
    return ev_morphism(dom, cod, free, expl)


# ---------------------------------------------------------------- structure

def test_object_canonical_form():
    assert ev_object(1, {2: 1}) == S
    assert ev_object(0, {2: 1, 3: 0}) == S2
    assert str(S2) == "S/2"
    assert str(ZERO) == "0"


def test_compose_scalars():
    two = ev_morphism(S, S, [[2]])
    three = ev_morphism(S, S, [[3]])
    assert C.compose(two, three) == ev_morphism(S, S, [[6]])


def test_compose_reduction_then_inclusion():
    r = C.cofiber(ev_morphism(S, S, [[2]])).quotient
    assert r.dom == S and r.cod == S2
    i = ev_morphism(S2, S, [[]], {2: [[1]]})
    ir = C.compose(i, r)
    assert ir.free.tolist() == [[0]]
    assert dict(ir.explicit)[2].tolist() == [[1]]


def test_identity_composition():
    x = ev_object(1, {2: 2})
    rng = random.Random(0)
    f = rand_morphism(rng, x, x)
    assert C.compose(f, C.identity(x)) == f
    assert C.compose(C.identity(x), f) == f


def test_category_laws_random():
    rng = random.Random(1)
    for _ in range(250):
        a, b, c, d = (rand_object(rng) for _ in range(4))
        f = rand_morphism(rng, a, b, bound=4)
        g = rand_morphism(rng, b, c, bound=4)
        h = rand_morphism(rng, c, d, bound=4)
        assert C.compose(h, C.compose(g, f)) == C.compose(C.compose(h, g), f)


def test_tensor_functoriality():
    rng = random.Random(2)
    for _ in range(60):
        a, b, c, a2, b2, c2 = (rand_object(rng) for _ in range(6))
        f, g = rand_morphism(rng, a, b, 3), rand_morphism(rng, b, c, 3)
        f2, g2 = rand_morphism(rng, a2, b2, 3), rand_morphism(rng, b2, c2, 3)
        assert C.compose(C.tensor_mor(g, g2), C.tensor_mor(f, f2)) == \
            C.tensor_mor(C.compose(g, f), C.compose(g2, f2))


def test_braiding_naturality_and_symmetry():
    rng = random.Random(3)
    for _ in range(40):
        a, b, c, d = (rand_object(rng) for _ in range(4))
        f, g = rand_morphism(rng, a, c, 3), rand_morphism(rng, b, d, 3)
        assert C.compose(C.braiding(c, d), C.tensor_mor(f, g)) == \
            C.compose(C.tensor_mor(g, f), C.braiding(a, b))
        assert C.compose(C.braiding(b, a), C.braiding(a, b)) == \
            C.identity(C.tensor_obj(a, b))


def test_biproduct_canonical_forms():
    assert C.biproduct(S2, S_2).obj == S
    x = ev_object(1, {2: 2})
    assert C.biproduct(x, ZERO).obj == x
    assert C.biproduct(ev_object(1, {2: 0}), ev_object(1, {3: 0})).obj == \
        ev_object(2, {2: 1, 3: 1})


def test_biproduct_houston():
    rng = random.Random(4)
    for _ in range(25):
        x, y = rand_object(rng), rand_object(rng)
        bp = C.biproduct(x, y)
        assert biproduct_equations_hold(C, x, y, bp)


def test_duality():
    assert triangle_equations_hold(C, C.duality(S))
    assert triangle_equations_hold(C, C.duality(ZERO))
    dd = C.duality(S2)
    assert dict(dd.eta.explicit)[2].tolist() == [[1]]
    assert triangle_equations_hold(C, dd)
    assert triangle_equations_hold(C, C.duality(ev_object(1, {2: 2})))


def test_dualizables_closed_under_biproduct():
    rng = random.Random(5)
    for _ in range(15):
        x, y = rand_object(rng), rand_object(rng)
        assert triangle_equations_hold(C, C.duality(C.biproduct(x, y).obj))


# ------------------------------------------------------------------ cofibers

def test_cofiber_frozen_examples():
    c = C.cofiber(ev_morphism(S, S, [[6]]))
    assert c.obj == ev_object(0, {2: 1, 3: 1})
    x = ev_object(2, {2: 1})
    assert C.cofiber(C.identity(x)).obj == ZERO
    s2 = ev_object(2)
    c = C.cofiber(ev_morphism(s2, s2, [[2, 0], [0, 0]]))
    assert c.obj == ev_object(1, {2: 2})


def test_cofiber_with_a_24_digit_prime_factor():
    # the last invariant factor has 29 digits: 2 * 11^4 * a 24-digit prime
    rng = random.Random(2)
    rows = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
    s24 = ev_object(24)
    start = time.perf_counter()
    c = C.cofiber(ev_morphism(s24, s24, rows))
    assert time.perf_counter() - start < 1.0
    primes = c.obj.exc_primes()
    assert sorted(primes) == [2, 11, 662638805832249361537049]
    assert all(is_prime(p) for p in primes)
    # the torsion primes are exactly those of the invariant factors
    d = smith_normal_form(int_matrix(rows))[1]
    rest = 1
    for i in range(24):
        x = d.data[i][i]
        for p in primes:
            while x % p == 0:
                x //= p
        rest *= x
    assert rest == 1


def test_cofiber_against_oracle_300():
    rng = random.Random(6)
    for _ in range(300):
        dom = rand_object(rng, maxdim=2)
        cod = rand_object(rng, maxdim=2)
        # free parts up to 4x4: widen ranks
        dom = ev_object(min(dom.f + rng.randint(0, 2), 4), dict(dom.exc))
        f = rand_morphism(rng, dom, cod, bound=10)
        cof = C.cofiber(f)
        assert cof.obj == cofiber_object_oracle(f)
        # quotient kills the map and has full component ranks
        z = C.compose(cof.quotient, f)
        assert z == C.zero_mor(f.dom, cof.obj)
        for p in set(cof.obj.exc_primes()) | set(cof.quotient.explicit_primes()):
            assert minor_rank(cof.quotient.component(p)) == cof.obj.dim(p)


def test_cofiber_universal_property_exhaustive():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        dom = rand_object(rng, primes=(2, 3), maxdim=1)
        cod = rand_object(rng, primes=(2, 3), maxdim=1)
        dom = ev_object(0, dict(dom.exc))
        cod = ev_object(0, dict(cod.exc))
        f = rand_morphism(rng, dom, cod, primes=(2, 3))
        cof = C.cofiber(f)
        # test object: purely torsion with both primes available
        t = ev_object(0, {2: 1, 3: 1})
        homset = list(enumerate_homs(cod, t))
        if len(homset) > 81:
            continue
        through = list(enumerate_homs(cof.obj, t))
        for theta in homset:
            kills = C.mor_eq(C.compose(theta, f), C.zero_mor(dom, t))
            factors = [u for u in through
                       if C.mor_eq(C.compose(u, cof.quotient), theta)]
            if kills:
                assert len(factors) == 1
            else:
                assert len(factors) == 0
        checked += 1


def test_suspension_trivial():
    rng = random.Random(8)
    assert C.suspension(C.biproduct(S2, S).obj) == ZERO
    for _ in range(10):
        assert C.suspension(rand_object(rng)) == ZERO


# ----------------------------------------------------------------- hom-sets

def test_hom_set_predictions():
    for p in (2, 3, 5):
        sp = ev_object(0, {p: 1})
        assert len(list(enumerate_homs(sp, sp))) == p
    assert all(C.mor_eq(h, C.zero_mor(S2, S3)) or False
               for h in enumerate_homs(S2, S3)) and \
        len(list(enumerate_homs(S2, S3))) == 1
    # Hom(S/p, S(m)) = 0 when p | m
    s_m = ev_object(1, {2: 0, 3: 0})  # S(6)
    assert len(list(enumerate_homs(S2, s_m))) == 1
    # and has p elements when p does not divide m
    s_3only = ev_object(1, {3: 0})
    assert len(list(enumerate_homs(S2, s_3only))) == 2


def test_hom_group_structure():
    assert hom_group_structure(S, S) == {"free": 1, "torsion": {}}
    assert hom_group_structure(S2, S2) == {"free": 0, "torsion": {2: 1}}
    x = ev_object(1, {2: 2})
    assert hom_group_structure(x, x) == {"free": 1, "torsion": {2: 4}}


def test_invert():
    assert C.invert(C.identity(ev_object(1, {2: 2}))) == \
        C.identity(ev_object(1, {2: 2}))
    with pytest.raises(NotInvertible):
        C.invert(ev_morphism(S, S, [[2]]))
    u = ev_morphism(S, S, [[1]], {2: [[1]], 3: [[2]]})
    assert C.compose(C.invert(u), u) == C.identity(S)


def test_json_roundtrip():
    rng = random.Random(9)
    for _ in range(10):
        a, b = rand_object(rng), rand_object(rng)
        f = rand_morphism(rng, a, b)
        assert EvMorphism.from_json(f.to_json()) == f


# ------------------------------------------- structure maps, prime by prime
#
# Every structure map is checked against its definition one component at
# a time: the free part over Z and the F_p part at each prime of CHECKED,
# which holds every exceptional prime the inputs can have (a 12-digit
# one among them) and three primes at which every input is the reduction
# of its free part.  The references read the inputs only through `free`, `f`,
# `component` and `dim`, so they do not depend on which primes a map
# chooses to store.

BIG = 999999999989                   # the largest 12-digit prime
EXCEPTIONAL = (2, 3, 5, BIG)
CHECKED = (2, 3, 5, 7, 11, 13, BIG)


def dim_at(x, p):
    return x.f if p is None else x.dim(p)


def part_at(f, p):
    return f.free if p is None else f.component(p)


def domain_at(p):
    return INT if p is None else fp(p)


def assert_canonical(m):
    """m stores exactly the primes at which its component differs from
    the reduction of its free part or an endpoint is exceptional."""
    every = {p: m.component(p) for p in {*CHECKED, *m.explicit_primes()}}
    assert ev_morphism(m.dom, m.cod, m.free, every) == m
    assert list(m.explicit_primes()) == sorted(m.explicit_primes())


def assert_parts(m, ref):
    """m's free part is ref(None) and its component at p is ref(p)."""
    assert_canonical(m)
    assert m.free == ref(None)
    for p in CHECKED:
        assert m.component(p) == ref(p), p


def rand_wide_object(rng, maxdim=2):
    return rand_object(rng, primes=EXCEPTIONAL, maxdim=maxdim)


def rand_wide_morphism(rng, dom, cod, bound=5):
    return rand_morphism(rng, dom, cod, bound, primes=EXCEPTIONAL)


def rand_invertible(rng, x):
    """An automorphism of x: a unimodular free part and, at each explicit
    prime, an invertible F_p matrix (lower times upper unitriangular)."""
    def unitriangular(domain, n):
        lower = Matrix.from_rows(domain, [
            [rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
            for i in range(n)], shape=(n, n))
        upper = Matrix.from_rows(domain, [
            [rng.randint(-3, 3) if j > i else int(i == j) for j in range(n)]
            for i in range(n)], shape=(n, n))
        return lower.mul(upper)
    primes = {*x.exc_primes(), *(p for p in EXCEPTIONAL
                                 if rng.random() < 0.3)}
    return ev_morphism(x, x, unitriangular(INT, x.f),
                       {p: unitriangular(fp(p), x.dim(p)) for p in primes})


def test_structure_maps_match_the_components_prime_by_prime():
    rng = random.Random(22)
    for _ in range(40):
        x, y, z, w = (rand_wide_object(rng) for _ in range(4))
        f, f2 = rand_wide_morphism(rng, x, y), rand_wide_morphism(rng, x, y)
        g = rand_wide_morphism(rng, y, z)
        h = rand_wide_morphism(rng, z, w)

        assert_parts(C.identity(x),
                     lambda p: Matrix.identity(domain_at(p), dim_at(x, p)))
        assert_parts(C.compose(g, f),
                     lambda p: part_at(g, p).mul(part_at(f, p)))
        assert_parts(C.tensor_mor(f, h),
                     lambda p: kronecker(part_at(f, p), part_at(h, p)))
        assert_parts(C.braiding(x, z),
                     lambda p: commutation(domain_at(p), dim_at(x, p),
                                           dim_at(z, p)))
        assert_parts(C.zero_mor(x, z),
                     lambda p: Matrix.zeros(domain_at(p), dim_at(z, p),
                                            dim_at(x, p)))
        assert_parts(C.add_mor(f, f2),
                     lambda p: part_at(f, p).add(part_at(f2, p)))
        assert_parts(C.negate(f), lambda p: part_at(f, p).scale(-1))
        assert_parts(C.sub_mor(f, f2),
                     lambda p: part_at(f, p).sub(part_at(f2, p)))

        xz = C.tensor_obj(x, z)
        for p in (None,) + CHECKED:
            assert dim_at(xz, p) == dim_at(x, p) * dim_at(z, p)

        # act(out, left, mor, right) = (id_left (x) mor (x) id_right) o out
        out = rand_wide_morphism(rng, w, C.tensor_obj(C.tensor_obj(z, x), y))
        acted = C.act(out, z, f, y)
        assert acted.cod == C.tensor_obj(C.tensor_obj(z, y), y)
        assert_parts(acted, lambda p: apply_factor(
            part_at(f, p), part_at(out, p), dim_at(z, p), dim_at(y, p)))


def test_biproduct_and_duality_match_the_components_prime_by_prime():
    rng = random.Random(23)

    def block(p, rows, cols, offset):
        return Matrix.from_rows(
            domain_at(p), [[int(i == j + offset) for j in range(cols)]
                           for i in range(rows)], shape=(rows, cols))

    for _ in range(40):
        x, y = rand_wide_object(rng), rand_wide_object(rng)
        bp = C.biproduct(x, y)
        for p in (None,) + CHECKED:
            assert dim_at(bp.obj, p) == dim_at(x, p) + dim_at(y, p)
        for inj, proj, src, k in ((bp.inj1, bp.proj1, x, 0),
                                  (bp.inj2, bp.proj2, y, 1)):
            def ref(p, src=src, k=k):
                return block(p, dim_at(bp.obj, p), dim_at(src, p),
                             k * dim_at(x, p))
            assert_parts(inj, ref)
            assert_parts(proj, lambda p, ref=ref: ref(p).transpose())

        dd = C.duality(x)
        assert dd.dual == x

        def pairing(p):
            n = dim_at(x, p)
            return Matrix.from_rows(
                domain_at(p), [[int(k % (n + 1) == 0) for k in range(n * n)]],
                shape=(1, n * n))
        assert_parts(dd.eps, pairing)
        assert_parts(dd.eta, lambda p: pairing(p).transpose())


def test_invert_lift_and_extend_prime_by_prime():
    rng = random.Random(24)
    for _ in range(40):
        x, y, z = (rand_wide_object(rng) for _ in range(3))
        u = rand_invertible(rng, x)
        assert_parts(C.invert(u), lambda p: invert_or_fail(part_at(u, p)))

        # a lift of b = a o t along a, and an extension of c = t o a
        a, t = rand_wide_morphism(rng, y, z), rand_wide_morphism(rng, x, y)
        b = C.compose(a, t)
        lifted = C.lift(a, b)
        assert (lifted.dom, lifted.cod) == (x, y)
        assert_canonical(lifted)
        assert C.compose(a, lifted) == b
        for p in (None,) + CHECKED:
            assert part_at(a, p).mul(part_at(lifted, p)) == part_at(b, p)
        for p in {*a.explicit_primes(), *b.explicit_primes()}:
            assert lifted.component(p) == \
                solve_right_fp(a.component(p), b.component(p))

        a, t = rand_wide_morphism(rng, x, y), rand_wide_morphism(rng, y, z)
        c = C.compose(t, a)
        extended = C.extend(a, c)
        assert (extended.dom, extended.cod) == (y, z)
        assert_canonical(extended)
        assert C.compose(extended, a) == c
        for p in {*a.explicit_primes(), *c.explicit_primes()}:
            assert extended.component(p) == solve_right_fp(
                a.component(p).transpose(),
                c.component(p).transpose()).transpose()


def test_braiding_keeps_a_component_where_neither_endpoint_is_exceptional():
    x, y = ev_object(2, {5: 3}), ev_object(3, {5: 2})
    b = C.braiding(x, y)
    # both endpoints are S^6, yet at 5 the swap is of 3 (x) 2, not 2 (x) 3
    assert b.dom == b.cod == ev_object(6)
    assert b.explicit_primes() == (5,)
    assert b.component(5) == commutation(fp(5), 3, 2)
    assert b.component(5) != b.free.mod(5)
    assert C.compose(C.braiding(y, x), b) == C.identity(b.dom)


def test_the_free_part_is_the_component_at_no_prime():
    rng = random.Random(25)
    for _ in range(30):
        x, y = rand_wide_object(rng), rand_wide_object(rng)
        assert x.dim(None) == x.f
        f = rand_wide_morphism(rng, x, y)
        assert f.component(None) is f.free
        for p in CHECKED:
            assert f.component(p) == dict(f.explicit).get(p, f.free.mod(p))
    x = ev_object(2, {3: 0})
    assert (x.dim(None), x.dim(3), x.dim(5)) == (2, 0, 2)


def test_a_missing_component_names_the_smallest_prime():
    dom = ev_object(1, {5: 0, 11: 0})
    with pytest.raises(MalformedInput, match="at prime 5$"):
        EvMorphism(dom, S, int_matrix([[1]]))
    with pytest.raises(MalformedInput, match="at prime 11$"):
        ev_morphism(dom, S, [[1]], {5: [[]]})


# ------------------------------------- one-pass constructors, differentially
#
# ``ev_morphism`` and ``ev_object`` canonicalise and check in one pass and
# build their result without ``__post_init__``.  The oracles below are the
# path they replaced: canonicalise, construct, then check everything again
# with the checks ``__post_init__`` ran, copied verbatim, and the redundancy
# predicate that built ``free.mod(p)``.

def oracle_redundant(dom, cod, free, p, m):
    return dom.dim(p) == dom.f and cod.dim(p) == cod.f and m == free.mod(p)


def oracle_post_init_object(x):
    if x.f < 0 or any(d < 0 for _, d in x.exc):
        raise MalformedInput("negative dimension")
    if any(d == x.f for _, d in x.exc):
        raise ValueError("non-canonical object: exceptional dim equals f")
    if list(x.exc) != sorted(x.exc):
        raise ValueError("exceptional primes not sorted")


def oracle_post_init_morphism(mor):
    if mor.free.domain != INT or \
            (mor.free.rows, mor.free.cols) != (mor.cod.f, mor.dom.f):
        raise DimensionMismatch("free part shape mismatch")
    keys = [p for p, _ in mor.explicit]
    if keys != sorted(keys):
        raise ValueError("explicit primes not sorted")
    for p in sorted({*mor.dom.exc_primes(), *mor.cod.exc_primes()}):
        if p not in keys:
            raise MalformedInput(f"missing explicit component at prime {p}")
    for p, m in mor.explicit:
        if m.domain != fp(p) or \
                (m.rows, m.cols) != (mor.cod.dim(p), mor.dom.dim(p)):
            raise DimensionMismatch(f"component at {p} has wrong shape")
        if oracle_redundant(mor.dom, mor.cod, mor.free, p, m):
            raise ValueError(f"non-canonical: redundant explicit prime {p}")


def _constructed(cls, check, **fields):
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    check(obj)
    return obj


def oracle_ev_object(f, exc=None):
    exc = exc or {}
    return _constructed(
        EvObject, oracle_post_init_object, f=f,
        exc=tuple(sorted((p, d) for p, d in exc.items() if d != f)))


def oracle_ev_morphism(dom, cod, free, explicit=None):
    if not isinstance(free, Matrix):
        free = int_matrix(free, shape=(cod.f, dom.f))
    comps = {}
    for p, m in (explicit or {}).items():
        if not isinstance(m, Matrix):
            m = Matrix.from_rows(fp(p), m, shape=(cod.dim(p), dom.dim(p)))
        elif m.domain != fp(p):
            m = m.mod(p)
        comps[p] = m
    return _constructed(
        EvMorphism, oracle_post_init_morphism, dom=dom, cod=cod, free=free,
        explicit=tuple((p, comps[p]) for p in sorted(comps)
                       if not oracle_redundant(dom, cod, free, p, comps[p])))


def outcome(fn, *args):
    """(the value, None) or (None, (exception class, message))."""
    try:
        return fn(*args), None
    except Exception as e:  # noqa: BLE001 - the class is compared
        return None, (type(e), str(e))


def assert_same_outcome(new, oracle, *args):
    got, got_err = outcome(new, *args)
    want, want_err = outcome(oracle, *args)
    assert got_err == want_err, args
    assert got == want, args
    if got is not None:
        assert hash(got) == hash(want)
        # the stored fields themselves, in order, not only equality
        assert vars(got) == vars(want)


DIFF_PRIMES = (2, 3, 5, 7, BIG)


def rand_exc(rng, f):
    """Dimensions at a random subset of DIFF_PRIMES, some equal to f, in
    a shuffled insertion order."""
    primes = [p for p in DIFF_PRIMES if rng.random() < 0.4]
    rng.shuffle(primes)
    return {p: rng.choice((f, rng.randint(0, 3))) for p in primes}


def rand_part(rng, p, rows, cols, free=None):
    """A component at p as raw rows (some unreduced), an integer Matrix
    or an F_p Matrix; the reduction of free in one of those forms when
    free is given."""
    data = free.tolist() if free is not None else [
        [rng.randint(-2 * min(p, 50), 2 * min(p, 50)) for _ in range(cols)]
        for _ in range(rows)]
    form = rng.randrange(3)
    if form == 0:
        return data
    if form == 1:
        return int_matrix(data, shape=(rows, cols))
    return Matrix.from_rows(fp(p), data, shape=(rows, cols))


def rand_raw_morphism(rng, dom, cod):
    """(dom, cod, free, explicit) with every exceptional prime present
    and, at some other primes, a redundant or a differing component."""
    rows = [[rng.randint(-9, 9) for _ in range(dom.f)] for _ in range(cod.f)]
    free = rows if rng.random() < 0.5 else int_matrix(
        rows, shape=(cod.f, dom.f))
    reduced = int_matrix(rows, shape=(cod.f, dom.f))
    primes = {*dom.exc_primes(), *cod.exc_primes(),
              *(p for p in DIFF_PRIMES if rng.random() < 0.4)}
    explicit = {}
    for p in rng.sample(sorted(primes), len(primes)):
        exceptional = dom.dim(p) != dom.f or cod.dim(p) != cod.f
        redundant = not exceptional and rng.random() < 0.5
        explicit[p] = rand_part(rng, p, cod.dim(p), dom.dim(p),
                                reduced if redundant else None)
    return dom, cod, free, explicit


def test_ev_object_matches_the_construct_then_check_path():
    rng = random.Random(30)
    for _ in range(300):
        f = rng.randint(0, 3)
        assert_same_outcome(ev_object, oracle_ev_object, f, rand_exc(rng, f))
    assert_same_outcome(ev_object, oracle_ev_object, 2, None)
    for f, exc in ((-1, {}), (-1, {2: -1}), (1, {3: -1}), (0, {2: 1, 3: -2}),
                   (2, {5: 2, 3: -1})):
        assert_same_outcome(ev_object, oracle_ev_object, f, exc)


def test_ev_morphism_matches_the_construct_then_check_path():
    rng = random.Random(31)
    redundant = 0
    for _ in range(300):
        dom, cod = (ev_object(rng.randint(0, 3), rand_exc(rng, 2))
                    for _ in range(2))
        args = rand_raw_morphism(rng, dom, cod)
        assert_same_outcome(ev_morphism, oracle_ev_morphism, *args)
        redundant += len(args[3]) - len(ev_morphism(*args).explicit)
    assert redundant > 50  # the inputs exercise the redundancy test


def malformed_morphisms(rng):
    """(dom, cod, free, explicit) inputs each of which breaks at least
    one rule, some several at once."""
    yield from [
        # free part: a bad grid, a wrong shape, a wrong domain
        (S, S, [[1, 2]], {}),
        (S, S, int_matrix([[1, 2]]), {}),
        (S, S, Matrix.from_rows(fp(2), [[1]]), {}),
        # a missing component names the smallest missing prime
        (ev_object(1, {5: 0, 11: 0}), S, [[1]], {}),
        (ev_object(1, {5: 0, 11: 0}), S, [[1]], {5: [[]]}),
        # a component's grid, shape or domain
        (S2, S2, [], {2: [[1, 0]]}),
        (S2, S2, [], {2: Matrix.from_rows(fp(2), [[1, 0]])}),
        (S2, S2, [], {2: Matrix.from_rows(fp(2), [[1]] * 2)}),
        (S, S, [[1]], {4: [[1]]}),
        (S, S, [[1]], {3: Matrix.from_rows(fp(3), [[1, 1]])}),
        # a wrong-shape component where the free part has no rows: its
        # rows equal the reduced rows of the free part, so a redundancy
        # test run before the shape check would drop it silently
        (ev_object(2), ZERO, int_matrix([], shape=(0, 2)),
         {3: Matrix.zeros(fp(3), 0, 1)}),
        (ev_object(2), ZERO, [], {7: Matrix.zeros(fp(7), 0, 5)}),
        # the reduction of the free part, with its shape, at a prime where
        # an endpoint is exceptional: a wrong shape, not a redundancy
        (ev_object(1, {3: 0}), S, [[1]], {3: Matrix.from_rows(fp(3), [[1]])}),
        (ev_object(2, {5: 1}), ev_object(1, {5: 3}), [[4, 6]],
         {5: Matrix.from_rows(fp(5), [[4, 1]])}),
        # several faults at once: free shape before a missing prime,
        # a missing prime before a component's shape, shape before
        # redundancy
        (S2, S, int_matrix([[1, 2]]), {}),
        (ev_object(1, {3: 0}), S, [[1]],
         {2: Matrix.from_rows(fp(2), [[1, 1]])}),
        (S, S, [[2]], {3: Matrix.from_rows(fp(3), [[2], [0]])}),
    ]
    for _ in range(200):
        dom, cod = (ev_object(rng.randint(0, 2), rand_exc(rng, 1))
                    for _ in range(2))
        dom, cod, free, explicit = rand_raw_morphism(rng, dom, cod)
        fault = rng.randrange(5)
        exceptional = [*dom.exc_primes(), *cod.exc_primes()]
        if fault == 0 and explicit:
            del explicit[rng.choice(list(explicit))]
        elif fault == 4 and exceptional:
            p = rng.choice(exceptional)
            rows = free if isinstance(free, list) else free.tolist()
            explicit[p] = Matrix.from_rows(fp(p), rows, shape=(cod.f, dom.f))
        elif fault == 1 and explicit:
            p = rng.choice(list(explicit))
            explicit[p] = Matrix.zeros(fp(p), cod.dim(p), dom.dim(p) + 1)
        elif fault == 2:
            free = Matrix.zeros(INT, cod.f + rng.randint(0, 1), dom.f + 1)
        else:
            explicit[rng.choice((1, 4, 9))] = []
        yield dom, cod, free, explicit


def test_malformed_morphisms_raise_as_the_construct_then_check_path():
    rng = random.Random(32)
    raised = 0
    for args in malformed_morphisms(rng):
        assert_same_outcome(ev_morphism, oracle_ev_morphism, *args)
        raised += outcome(oracle_ev_morphism, *args)[1] is not None
    assert raised > 150  # a deleted component need not be exceptional
    _, err = outcome(ev_morphism, ev_object(2), ZERO,
                     int_matrix([], shape=(0, 2)),
                     {3: Matrix.zeros(fp(3), 0, 1)})
    assert err == (DimensionMismatch, "component at 3 has wrong shape")


# ----------------------------------------- hand-built values are checked

def test_a_hand_built_object_is_checked():
    assert EvObject(1, ((2, 0), (3, 2))) == ev_object(1, {3: 2, 2: 0})
    with pytest.raises(ValueError, match="^exceptional primes not sorted$"):
        EvObject(1, ((3, 0), (2, 0)))
    with pytest.raises(ValueError, match="exceptional dim equals f$"):
        EvObject(1, ((2, 1),))
    for f, exc in ((-1, ()), (1, ((2, -1),))):
        with pytest.raises(MalformedInput, match="^negative dimension$"):
            EvObject(f, exc)


def test_a_hand_built_morphism_is_checked():
    def fp_rows(p, rows, shape=None):
        return Matrix.from_rows(fp(p), rows, shape=shape)
    two = int_matrix([[2]])
    good = EvMorphism(S, S, two, ((3, fp_rows(3, [[1]])),
                                  (5, fp_rows(5, [[1]]))))
    assert good == ev_morphism(S, S, [[2]], {5: [[1]], 3: [[1]]})
    cases = [
        (ValueError, "^explicit primes not sorted$",
         (S, S, two, ((5, fp_rows(5, [[1]])), (3, fp_rows(3, [[1]]))))),
        (ValueError, "^non-canonical: redundant explicit prime 3$",
         (S, S, two, ((3, fp_rows(3, [[2]])),))),
        (MalformedInput, "^missing explicit component at prime 2$",
         (S2, S, int_matrix([[]], shape=(1, 0)), ())),
        (DimensionMismatch, "^free part shape mismatch$",
         (S, S, int_matrix([[2, 0]]), ())),
        (DimensionMismatch, "^free part shape mismatch$",
         (S, S, fp_rows(3, [[2]]), ())),
        (DimensionMismatch, "^component at 2 has wrong shape$",
         (S2, S2, int_matrix([], shape=(0, 0)), ((2, fp_rows(2, [[1, 0]])),))),
        (DimensionMismatch, "^component at 3 has wrong shape$",
         (S, S, two, ((3, int_matrix([[1]])),))),
        (DimensionMismatch, "^component at 3 has wrong shape$",
         (ev_object(2), ZERO, int_matrix([], shape=(0, 2)),
          ((3, Matrix.zeros(fp(3), 0, 1)),))),
    ]
    for exc, message, args in cases:
        with pytest.raises(exc, match=message):
            EvMorphism(*args)
