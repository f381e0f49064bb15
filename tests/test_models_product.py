"""Product model tests: every operation of ``product_category(EvConst(),
SpanFin())`` and of ``product_category(EvConst(), EvConst())`` is the
pair of its factors' results.

Objects and morphisms are seeded: EvConst ones with exceptional primes
among 2, 3 and 5, SpanFin ones of sizes 0-3.  A result is a pair of the
factors' results; a biproduct, a duality datum and a cofiber are paired
field by field, with the provenance ``"(first;second)"``; and where a
factor raises, the product raises the same class, the first factor's
before the second's.  ``scalar(n)`` is the pair of the factors' scalars,
``hom_dims`` adds the factors' hom-group dimensions, and on
evconst x evconst the complement of a clopen idempotent, the clopen
structure on a torsion retract and ``split_homs_check`` are the pairs of
the results on each factor.
"""

import random
from dataclasses import fields

import pytest

from dualkit import DomainError
from dualkit.idem import (ClopenIdempotent, char_clopen,
                          clopen_structure_on_torsion_retract,
                          complement_of_retract, split_homs_check)
from dualkit.models import (Biproduct, Cofiber, DualityDatum, EvConst,
                            SpanFin, UnsupportedShape, product_category)
from test_models_evconst import rand_morphism, rand_object
from test_models_spanfin import rand_span, star_span

EV, SP = EvConst(), SpanFin()
P = product_category(EV, SP)
STRUCTURES = (Biproduct, Cofiber, DualityDatum)


def outcome(call):
    try:
        return call()
    except DomainError as exc:
        return exc


def check(name, *args, pc=P):
    """The product pc's ``name`` on args against each factor's ``name``
    on the matching components."""
    first = outcome(lambda: getattr(pc.m1, name)(*[a[0] for a in args]))
    second = outcome(lambda: getattr(pc.m2, name)(*[a[1] for a in args]))
    got = outcome(lambda: getattr(pc, name)(*args))
    for part in (first, second):
        if isinstance(part, DomainError):
            assert type(got) is type(part), name
            return
    if isinstance(first, STRUCTURES):
        assert type(got) is type(first), name
        for f in fields(first):
            a, b = getattr(first, f.name), getattr(second, f.name)
            want = f"({a};{b})" if f.name == "provenance" else (a, b)
            assert getattr(got, f.name) == want, (name, f.name)
    else:
        assert got == (first, second), name


def rand_pair_object(rng):
    return (rand_object(rng), rng.randint(0, 3))


def rand_pair_morphism(rng, x, y):
    return (rand_morphism(rng, x[0], y[0], bound=4),
            rand_span(rng, x[1], y[1]))


def test_objects_of_no_argument():
    check("unit")
    check("zero_obj")
    assert P.unit() == (EV.unit(), SP.unit())


@pytest.mark.parametrize("seed", range(6))
def test_every_operation_is_the_pair_of_the_factors(seed):
    rng = random.Random(seed)
    for _ in range(8):
        x, y, z = (rand_pair_object(rng) for _ in range(3))
        f = rand_pair_morphism(rng, x, y)
        g = rand_pair_morphism(rng, y, z)
        h = rand_pair_morphism(rng, x, y)
        check("dom", f)
        check("cod", f)
        check("identity", x)
        check("compose", g, f)
        check("compose", f, f)          # a boundary mismatch, unless x = y
        check("tensor_obj", x, y)
        check("tensor_mor", f, g)
        check("braiding", x, y)
        check("zero_mor", x, y)
        check("add_mor", f, h)
        check("biproduct", x, y)
        check("duality", x)
        check("invert", f)
        check("invert", P.braiding(x, y))
        check("negate", f)
        check("sub_mor", f, h)
        check("lift", f, P.compose(f, P.identity(x)))
        check("extend", f, P.compose(P.identity(y), f))
        check("cofiber", f)
        # a SpanFin morphism of a supported shape, beside the random one
        s = star_span(rng)
        check("cofiber", (f[0], s))


@pytest.mark.parametrize("seed", range(4))
def test_act_is_the_pair_of_the_factors(seed):
    rng = random.Random(100 + seed)
    for _ in range(6):
        left, right, src = (rand_pair_object(rng) for _ in range(3))
        mor = rand_pair_morphism(rng, rand_pair_object(rng),
                                 rand_pair_object(rng))
        a = P.tensor_obj(P.tensor_obj(left, P.dom(mor)), right)
        out = rand_pair_morphism(rng, src, a)
        check("act", out, left, mor, right)
        check("act", mor, left, out, right)   # a boundary mismatch
        # the same endpoints: tensor products of dimensions commute
        check("act", out, right, mor, left)


def test_provenance_pairs_the_factors():
    x = rand_pair_object(random.Random(7))
    first = EV.cofiber(EV.identity(x[0]))
    second = SP.cofiber(SP.identity(x[1]))
    assert P.cofiber(P.identity(x)).provenance == \
        f"({first.provenance};{second.provenance})"


# ------------------------------------------------------ evconst x evconst

PP = product_category(EV, EV)


def rand_ev_pair_morphism(rng, x, y):
    return (rand_morphism(rng, x[0], y[0], bound=4),
            rand_morphism(rng, x[1], y[1], bound=4))


@pytest.mark.parametrize("seed", range(4))
def test_additive_operations_on_evconst_squared(seed):
    rng = random.Random(200 + seed)
    for _ in range(8):
        w, x, y, z = ((rand_object(rng), rand_object(rng)) for _ in range(4))
        f = rand_ev_pair_morphism(rng, x, y)
        check("negate", f, pc=PP)
        check("sub_mor", f, rand_ev_pair_morphism(rng, x, y), pc=PP)
        # solvable: f o g lifts along f, and h o f extends along f
        check("lift", f, PP.compose(f, rand_ev_pair_morphism(rng, w, x)),
              pc=PP)
        check("extend", f, PP.compose(rand_ev_pair_morphism(rng, y, z), f),
              pc=PP)
        # and a pair of random maps, solvable or not
        check("lift", f, rand_ev_pair_morphism(rng, w, y), pc=PP)
        check("extend", f, rand_ev_pair_morphism(rng, x, z), pc=PP)


@pytest.mark.parametrize("n", [0, 1, 2, -6])
def test_scalar_is_the_pair_of_the_factors(n):
    assert PP.scalar(n) == (EV.scalar(n), EV.scalar(n))
    with pytest.raises(UnsupportedShape, match="spanfin has no integer"):
        P.scalar(n)


def test_hom_dims_add_the_factors():
    rng = random.Random(31)
    for _ in range(200):
        x, y = ((rand_object(rng), rand_object(rng)) for _ in range(2))
        (g1, at1), (g2, at2) = (EV.hom_dims(x[k], y[k]) for k in (0, 1))
        g, at = PP.hom_dims(x, y)
        assert g == g1 + g2
        for p in (2, 3, 5, 7):
            assert at.get(p, g) == at1.get(p, g1) + at2.get(p, g2)
        assert all(d != g for d in at.values())
        assert list(at) == sorted(at)
    assert P.hom_dims((x[0], 1), (y[0], 2)) is None


def pair_clopen(first, second):
    return ClopenIdempotent(E=(first.E, second.E), r=(first.r, second.r),
                            i=(first.i, second.i))


CHARS = [(2, 2), (2, 3), (6, 12), (3, 1)]


@pytest.mark.parametrize("m1, m2", CHARS)
def test_clopen_structure_on_evconst_squared(m1, m2):
    cof = PP.cofiber((EV.scalar(m1), EV.scalar(m2)))
    assert clopen_structure_on_torsion_retract(
        PP, cof.obj, cof.quotient) == pair_clopen(char_clopen(EV, m1),
                                                  char_clopen(EV, m2))
    if m1 == m2:
        assert char_clopen(PP, m1) == pair_clopen(char_clopen(EV, m1),
                                                  char_clopen(EV, m1))


@pytest.mark.parametrize("m1, m2", CHARS)
def test_complement_on_evconst_squared(m1, m2):
    cl1, cl2 = char_clopen(EV, m1), char_clopen(EV, m2)
    (c1, comp1), (c2, comp2) = (complement_of_retract(EV, c.E, c.r, c.i)
                                for c in (cl1, cl2))
    cl = pair_clopen(cl1, cl2)
    assert complement_of_retract(PP, cl.E, cl.r, cl.i) == \
        ((c1, c2), pair_clopen(comp1, comp2))


@pytest.mark.parametrize("m1, m2", CHARS)
def test_split_homs_on_evconst_squared(m1, m2):
    rng = random.Random(m1 * 10 + m2)
    cls = [char_clopen(EV, m) for m in (m1, m2)]
    comps = [complement_of_retract(EV, c.E, c.r, c.i)[1] for c in cls]
    pairs = [((rand_object(rng), rand_object(rng)),
              (rand_object(rng), rand_object(rng))) for _ in range(6)]
    reports = [split_homs_check(EV, cls[k], comps[k],
                                [(x[k], y[k]) for x, y in pairs])
               for k in (0, 1)]
    got = split_homs_check(PP, pair_clopen(*cls), pair_clopen(*comps),
                           pairs)
    assert got.verdict == (reports[0].verdict and reports[1].verdict)
    for w, a, b in zip(got.pairs, *(r.pairs for r in reports)):
        assert w["ok"] == (a["ok"] and b["ok"])
        assert w["detail"] == {k: v and b["detail"][k]
                               for k, v in a["detail"].items()}
