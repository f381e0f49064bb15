"""Idempotent machinery tests across the concrete models.

Independent checks: clopen data is re-verified against the raw
definitions, hom-splitting is counted exhaustively on finite hom-sets,
and characteristic splittings are compared against hand-computed
objects.
"""

import random

import pytest

from dualkit import DomainError
from dualkit.idem import (ClopenIdempotent, NotTwistedTrivial,
                          _dimension_count, char_clopen, char_split,
                          clopen_structure_on_torsion_retract,
                          complement_of_retract, derived_open_structure,
                          euler_twist, gp_idempotent, is_closed_idempotent,
                          is_clopen, split_homs_check, untwist)
from dualkit.models import (EvConst, SpanFin, UNIT, ZERO, UnsupportedShape,
                            enumerate_homs, ev_morphism, ev_object,
                            product_category, span)

EV = EvConst()
SP = SpanFin()

S = UNIT
S2 = ev_object(0, {2: 1})
S3 = ev_object(0, {3: 1})
S_2 = ev_object(1, {2: 0})
S_6 = ev_object(1, {2: 0, 3: 0})


def clopen_from_char(m):
    """Clopen structure on S/m built from the cofiber of m: S -> S."""
    cof = EV.cofiber(ev_morphism(S, S, [[m]]))
    return clopen_structure_on_torsion_retract(EV, cof.obj, cof.quotient)


# ------------------------------------------------------------ euler twists

def test_euler_twist_spanfin():
    dd = SP.duality(2)
    t = euler_twist(SP, dd)
    assert t.matrix.tolist() == [[2, 0], [0, 2]]
    t3 = euler_twist(SP, SP.duality(3))
    assert t3.matrix.tolist() == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]


def test_euler_twist_evconst_unit_is_identity():
    t = euler_twist(EV, EV.duality(S))
    assert EV.mor_eq(t, EV.identity(S))


def test_euler_twist_evconst_torsion():
    t = euler_twist(EV, EV.duality(S2))
    assert EV.mor_eq(t, EV.identity(S2))


# ---------------------------------------------------------------- untwist

@pytest.mark.parametrize("obj", [S, S2, S3, S_2])
def test_untwist_gives_clopen(obj):
    dd = EV.duality(obj)
    t = euler_twist(EV, dd)
    cl = untwist(EV, dd, t)
    assert EV.obj_eq(cl.E, EV.tensor_obj(dd.dual, dd.obj))
    assert is_clopen(EV, cl.E, cl.r, cl.i)
    assert is_closed_idempotent(EV, cl.E, cl.r)


def test_untwist_rejects_nontrivial_braiding():
    dd = SP.duality(2)
    with pytest.raises(NotTwistedTrivial):
        untwist(SP, dd, euler_twist(SP, dd))
    dd2 = EV.duality(ev_object(2))
    with pytest.raises(NotTwistedTrivial):
        untwist(EV, dd2, euler_twist(EV, dd2))


def test_untwist_spanfin_one_point_space():
    # T = 1 in SpanFin: braiding is trivially the identity
    dd = SP.duality(1)
    cl = untwist(SP, dd, euler_twist(SP, dd))
    assert cl.E == 1
    assert is_clopen(SP, cl.E, cl.r, cl.i)


def test_clopen_forces_trivial_braiding():
    for cl in (clopen_from_char(2), clopen_from_char(6)):
        ee = EV.tensor_obj(cl.E, cl.E)
        assert EV.mor_eq(EV.braiding(cl.E, cl.E), EV.identity(ee))


def test_derived_open_structure_agrees():
    for m in (2, 3, 6):
        cl = clopen_from_char(m)
        assert EV.mor_eq(derived_open_structure(EV, cl.E, cl.r, cl.i), cl.i)


# ------------------------------------------------------------- complements

def test_complement_of_s_mod_2():
    cl = clopen_from_char(2)
    c_obj, comp = complement_of_retract(EV, cl.E, cl.r, cl.i)
    assert c_obj == S_2
    assert is_clopen(EV, comp.E, comp.r, comp.i)
    # the two pieces reassemble the sphere
    assert EV.biproduct(cl.E, c_obj).obj == S


def test_complement_of_s_mod_6():
    cl = clopen_from_char(6)
    c_obj, comp = complement_of_retract(EV, cl.E, cl.r, cl.i)
    assert c_obj == S_6
    assert is_clopen(EV, comp.E, comp.r, comp.i)
    # complementary pieces are tensor-orthogonal
    assert EV.tensor_obj(cl.E, c_obj) == ZERO


def test_complement_is_involutive_on_objects():
    cl = clopen_from_char(2)
    _, comp = complement_of_retract(EV, cl.E, cl.r, cl.i)
    back, _ = complement_of_retract(EV, comp.E, comp.r, comp.i)
    assert back == cl.E


@pytest.mark.parametrize("model", [SP, product_category(EV, SP)],
                         ids=["spanfin", "product"])
def test_complement_needs_subtraction(model):
    # the unit is a clopen idempotent of itself, and its cofiber exists,
    # but 1 - i o r needs a subtraction SpanFin does not have; the
    # product subtracts in each factor, so it is SpanFin that raises
    r = model.identity(model.unit())
    with pytest.raises(UnsupportedShape, match="^spanfin has no subtraction"):
        complement_of_retract(model, model.unit(), r, r)


# ---------------------------------------------------------------- grouplike

def test_gp_idempotent_evconst_is_unit():
    g = gp_idempotent(EV)
    assert g.E == S
    assert is_closed_idempotent(EV, g.E, g.r)
    # r is multiplication by a unit
    assert g.r.free.tolist() in ([[1]], [[-1]])


def test_gp_idempotent_spanfin_is_zero():
    g = gp_idempotent(SP)
    assert g.E == 0
    assert is_closed_idempotent(SP, g.E, g.r)


def test_gp_idempotent_product():
    pc = product_category(EV, SP)
    g = gp_idempotent(pc)
    assert g.E == (S, 0)
    assert is_closed_idempotent(pc, g.E, g.r)


# --------------------------------------------------------------- char split

def test_char_split_frozen_examples():
    p1, p2, _ = char_split(EV, 6, S)
    assert p1 == ev_object(0, {2: 1, 3: 1}) and p2 == S_6
    p1, p2, _ = char_split(EV, 1, ev_object(1, {2: 2}))
    assert p1 == ZERO and p2 == ev_object(1, {2: 2})
    p1, p2, _ = char_split(EV, 4, S2)
    assert p1 == S2 and p2 == ZERO
    p1, p2, _ = char_split(EV, 12, ev_object(1, {2: 2}))
    assert p1 == ev_object(0, {2: 2, 3: 1})
    assert p2 == ev_object(1, {2: 0, 3: 0})


def test_char_split_random_objects():
    rng = random.Random(10)
    for m in (2, 3, 4, 6, 12):
        for _ in range(10):
            exc = {p: rng.randint(0, 2) for p in (2, 3, 5)
                   if rng.random() < 0.5}
            x = ev_object(rng.randint(0, 2), exc)
            p1, p2, (u, v) = char_split(EV, m, x)
            assert EV.biproduct(p1, p2).obj == \
                EV.biproduct(p2, p1).obj
            assert EV.mor_eq(EV.compose(v, u), EV.identity(x))


# ------------------------------------------------------------ hom splitting

def test_split_homs_exhaustive_torsion():
    cl = clopen_from_char(2)
    _, comp = complement_of_retract(EV, cl.E, cl.r, cl.i)
    x = ev_object(0, {2: 1, 3: 1})
    pairs = [(S2, S2), (S2, S3), (x, x), (x, S2), (S3, x)]
    rep = split_homs_check(EV, cl, comp, pairs,
                           enumerate_homs_fn=enumerate_homs)
    assert rep.verdict
    assert all(w["ok"] for w in rep.pairs)


def test_split_homs_structural_infinite():
    cl = clopen_from_char(2)
    _, comp = complement_of_retract(EV, cl.E, cl.r, cl.i)
    pairs = [(S, S), (S, ev_object(1, {2: 2})),
             (ev_object(2, {3: 1}), ev_object(1, {2: 0}))]
    rep = split_homs_check(EV, cl, comp, pairs)
    assert rep.verdict


def test_split_homs_product_model_samples():
    pc = product_category(EV, SP)
    cl = ClopenIdempotent(
        E=(S, 0),
        r=(EV.identity(S), SP.zero_mor(1, 0)),
        i=(EV.identity(S), SP.zero_mor(0, 1)))
    comp = ClopenIdempotent(
        E=(ZERO, 1),
        r=(EV.zero_mor(S, ZERO), SP.identity(1)),
        i=(EV.zero_mor(ZERO, S), SP.identity(1)))
    assert is_clopen(pc, cl.E, cl.r, cl.i)
    assert is_clopen(pc, comp.E, comp.r, comp.i)

    rng = random.Random(11)

    def sample(x, y, k):
        ev_x, sp_x = x
        ev_y, sp_y = y
        out = []
        for _ in range(k):
            free = [[rng.randint(-3, 3) for _ in range(ev_x.f)]
                    for _ in range(ev_y.f)]
            f1 = ev_morphism(ev_x, ev_y, free)
            f2 = span(sp_x, sp_y, [[rng.randint(0, 2) for _ in range(sp_x)]
                                   for _ in range(sp_y)])
            out.append((f1, f2))
        return out

    pairs = [((S, 2), (S, 3)), ((ev_object(2), 1), (S, 2))]
    rep = split_homs_check(pc, cl, comp, pairs, sample_fn=sample)
    assert rep.verdict


# ----------------------------------------------------- model-agnostic idem

def test_idem_binds_no_concrete_model():
    import dualkit.idem
    assert not {"EvConst", "EvMorphism", "EvObject", "ev_morphism"} & \
        set(vars(dualkit.idem))


@pytest.mark.parametrize("call", [
    lambda m: m.lift(m.identity(1), m.identity(1)),
    lambda m: m.extend(m.identity(1), m.identity(1)),
    lambda m: m.scalar(2)])
def test_spanfin_solves_nothing(call):
    with pytest.raises(DomainError):
        call(SP)
    assert SP.hom_dims(1, 2) is None


@pytest.mark.parametrize("m", [0, 1, 2, 6, -12])
def test_char_clopen_is_the_cofiber_then_retract(m):
    assert char_clopen(EV, m) == clopen_from_char(m)


def oracle_dimension_count(X, Y, E, C):
    """The dimension count split_homs_check made when it read EvConst
    objects itself: the free dimension and the dimension at every
    exceptional prime of X, Y, E and C."""
    primes = sorted({p for o in (X, Y, E, C) for p in o.exc_primes()})
    ex, cx = EV.tensor_obj(E, X), EV.tensor_obj(C, X)
    ey, cy = EV.tensor_obj(E, Y), EV.tensor_obj(C, Y)
    return X.f * Y.f == ex.f * ey.f + cx.f * cy.f and all(
        X.dim(p) * Y.dim(p) == ex.dim(p) * ey.dim(p) + cx.dim(p) * cy.dim(p)
        for p in primes)


def _random_ev_object(rng):
    return ev_object(rng.randint(0, 2), {p: rng.randint(0, 3)
                                         for p in (2, 3, 5)
                                         if rng.random() < 0.5})


def test_hom_dims_count_matches_the_evconst_oracle():
    rng = random.Random(23)
    verdicts = set()
    for trial in range(400):
        if trial % 2:   # a clopen idempotent and its complement
            cl = clopen_from_char(rng.choice((2, 3, 6, 12)))
            E, C = cl.E, complement_of_retract(EV, cl.E, cl.r, cl.i)[0]
        else:
            E, C = _random_ev_object(rng), _random_ev_object(rng)
        X, Y = _random_ev_object(rng), _random_ev_object(rng)
        got = _dimension_count(
            EV, (X, Y), (EV.tensor_obj(E, X), EV.tensor_obj(E, Y)),
            (EV.tensor_obj(C, X), EV.tensor_obj(C, Y)))
        assert got == oracle_dimension_count(X, Y, E, C), (X, Y, E, C)
        verdicts.add(got)
    assert verdicts == {True, False}
    assert _dimension_count(SP, (1, 2), (1, 2)) is None
