"""Product model tests: every operation of ``product_category(EvConst(),
SpanFin())`` is the pair of its factors' results.

Objects and morphisms are seeded: EvConst ones with exceptional primes
among 2, 3 and 5, SpanFin ones of sizes 0-3.  A result is a pair of the
factors' results; a biproduct, a duality datum and a cofiber are paired
field by field, with the provenance ``"(first;second)"``; and where a
factor raises, the product raises the same class, the first factor's
before the second's.
"""

import random
from dataclasses import fields

import pytest

from dualkit import DomainError
from dualkit.models import (Biproduct, Cofiber, DualityDatum, EvConst,
                            SpanFin, product_category)
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


def check(name, *args):
    """The product's ``name`` on args against each factor's ``name`` on
    the matching components."""
    first = outcome(lambda: getattr(EV, name)(*[a[0] for a in args]))
    second = outcome(lambda: getattr(SP, name)(*[a[1] for a in args]))
    got = outcome(lambda: getattr(P, name)(*args))
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
