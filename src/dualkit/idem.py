"""Closed/open/clopen idempotent machinery over any model category.

Implements: detection of closed and clopen idempotents, the Euler
characteristic twist, untwisting of a symmetric dualizable object into
a clopen idempotent on T-dual (x) T, complements via cofibers, hom-set
splitting reports, the grouplike idempotent S_gp, and characteristic
splittings S/m, S(m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from . import DomainError
from .exactlin import NotInvertible
from .models.base import DualityDatum, ModelCategory


class NotTwistedTrivial(DomainError):
    """The twisted-trivial-braiding equation fails for the given twist."""


@dataclass(frozen=True)
class ClosedIdempotent:
    E: Any
    r: Any  # S -> E


@dataclass(frozen=True)
class ClopenIdempotent:
    E: Any
    r: Any  # S -> E
    i: Any  # E -> S


@dataclass
class SplitReport:
    pairs: list = field(default_factory=list)
    verdict: bool = True

    def record(self, label, ok, detail):
        self.pairs.append({"pair": label, "ok": ok, "detail": detail})
        self.verdict = self.verdict and ok

    def to_json(self):
        return {"check": "split-homs", "verdict": self.verdict,
                "witnesses": self.pairs}


def is_closed_idempotent(model: ModelCategory, E, r) -> bool:
    """True iff r (x) id_E : E -> E (x) E is invertible."""
    return model.is_invertible(model.tensor_mor(r, model.identity(E)))


def is_clopen(model: ModelCategory, E, r, i) -> bool:
    """Splitting r o i = id_E and stability (i o r) (x) id_E = id."""
    if not model.mor_eq(model.compose(r, i), model.identity(E)):
        return False
    ir = model.compose(i, r)
    stab = model.tensor_mor(ir, model.identity(E))
    return model.mor_eq(stab, model.identity(
        model.tensor_obj(model.unit(), E)))


def euler_twist(model: ModelCategory, dd: DualityDatum):
    """t = id_T (x) (eps o inverse-braiding o eta): multiplication by the
    Euler characteristic of T."""
    beta = model.braiding(dd.obj, dd.dual)  # T (x) Tv -> Tv (x) T
    scalar = model.compose_many(dd.eps, model.invert(beta), dd.eta)
    return model.tensor_mor(model.identity(dd.obj), scalar)


def untwist(model: ModelCategory, dd: DualityDatum, t) -> ClopenIdempotent:
    """Given the twisted-trivial braiding beta_{T,T} = id_T (x) t, build the
    clopen idempotent on Tv (x) T with r = (id (x) t) o eta, i = eps o beta."""
    beta_tt = model.braiding(dd.obj, dd.obj)
    if not model.mor_eq(beta_tt, model.tensor_mor(model.identity(dd.obj), t)):
        raise NotTwistedTrivial(
            "braiding on T (x) T is not id_T (x) t for the given twist")
    E = model.tensor_obj(dd.dual, dd.obj)
    r = model.compose(model.tensor_mor(model.identity(dd.dual), t), dd.eta)
    i = model.compose(dd.eps, model.braiding(dd.dual, dd.obj))
    return ClopenIdempotent(E=E, r=r, i=i)


def derived_open_structure(model: ModelCategory, E, r, i):
    """i' = i o (id_E (x) r)^-1 o (id_E (x) i)^-1, the open structure derived
    from a closed idempotent with a compatible i."""
    id_e = model.identity(E)
    inv_idr = model.invert(model.tensor_mor(id_e, r))   # E (x) E -> E
    inv_idi = model.invert(model.tensor_mor(id_e, i))   # E -> E (x) E
    return model.compose_many(i, inv_idr, inv_idi)


# ------------------------------------------------------- complements

def complement_of_retract(model: ModelCategory, E, r, i):
    """Complement of a clopen idempotent: the cofiber of i: E -> S with its
    own clopen structure (s = quotient, j the solved section).

    Requires an additive model that solves extensions (EvConst); on any
    other model ``sub_mor`` or ``extend`` raises UnsupportedShape.
    """
    cof = model.cofiber(i)
    c_obj, s = cof.obj, cof.quotient
    e = model.sub_mor(model.identity(model.unit()), model.compose(i, r))
    j = model.extend(s, e)  # j o s = 1 - i o r
    if not is_clopen(model, c_obj, s, j):
        raise NotInvertible("complement construction failed the clopen check")
    return c_obj, ClopenIdempotent(E=c_obj, r=s, i=j)


def clopen_structure_on_torsion_retract(model: ModelCategory, E, r):
    """Given the quotient r: S -> E of a cofiber with E purely torsion,
    solve for the inclusion i with r o i = id_E and return the clopen."""
    i = model.lift(r, model.identity(E))
    if not is_clopen(model, E, r, i):
        raise NotInvertible("no clopen structure on the given retract")
    return ClopenIdempotent(E=E, r=r, i=i)


def char_clopen(model: ModelCategory, m: int) -> ClopenIdempotent:
    """S/m, the cofiber of m: S -> S, with its quotient's clopen structure."""
    cof = model.cofiber(model.scalar(m))
    return clopen_structure_on_torsion_retract(model, cof.obj, cof.quotient)


# ----------------------------------------------------------- hom splitting

def _decomposition_witnesses(model, cl: ClopenIdempotent,
                             comp: ClopenIdempotent, X):
    """u: X -> E^X (+) C^X, its inverse v, the biproduct and (E^X, C^X)."""
    id_x = model.identity(X)
    ex = model.tensor_obj(cl.E, X)
    cx = model.tensor_obj(comp.E, X)
    bp = model.biproduct(ex, cx)
    u = model.add_mor(
        model.compose(bp.inj1, model.tensor_mor(cl.r, id_x)),
        model.compose(bp.inj2, model.tensor_mor(comp.r, id_x)))
    v = model.add_mor(
        model.compose(model.tensor_mor(cl.i, id_x), bp.proj1),
        model.compose(model.tensor_mor(comp.i, id_x), bp.proj2))
    return u, v, bp, (ex, cx)


def _dimension_count(model, whole, *parts):
    """Whether Hom(whole) has the summed dimension of the Hom(parts),
    generically and at each prime where one of them differs from its
    generic rank; None if the model does not count hom-groups."""
    dims = [model.hom_dims(x, y) for x, y in (whole, *parts)]
    if None not in dims:
        primes = sorted({p for _, at in dims for p in at})
        # the key None is no prime, so at.get(None, g) is the generic rank
        return all(w == sum(rest) for w, *rest in (
            [at.get(p, g) for g, at in dims] for p in [None, *primes]))


def split_homs_check(model: ModelCategory, cl: ClopenIdempotent,
                     comp: ClopenIdempotent, pairs,
                     enumerate_homs_fn: Callable | None = None,
                     sample_fn: Callable | None = None) -> SplitReport:
    """Check that f |-> (id_E (x) f, id_C (x) f) is a bijection
    Hom(X,Y) -> Hom(E^X, E^Y) x Hom(C^X, C^Y) on the given object pairs.

    With ``enumerate_homs_fn`` the check is exhaustive (finite hom-sets);
    with ``sample_fn(x, y, k)`` it verifies round-trips both ways on
    sampled morphisms via the biproduct decomposition witnesses.
    """
    report = SplitReport()
    id_e = model.identity(cl.E)
    id_c = model.identity(comp.E)
    for X, Y in pairs:
        label = f"({X}, {Y})"
        u_x, v_x, bpx, (ex, cx) = _decomposition_witnesses(model, cl, comp, X)
        u_y, v_y, bpy, (ey, cy) = _decomposition_witnesses(model, cl, comp, Y)
        ok = model.mor_eq(model.compose(v_x, u_x), model.identity(X)) and \
            model.mor_eq(model.compose(u_y, v_y),
                         model.identity(model.dom(v_y)))
        detail = {"decomposition": ok}
        if ok and enumerate_homs_fn is not None:
            homs = list(enumerate_homs_fn(X, Y))
            target = len(list(enumerate_homs_fn(ex, ey))) * \
                len(list(enumerate_homs_fn(cx, cy)))
            images = {(model.tensor_mor(id_e, f), model.tensor_mor(id_c, f))
                      for f in homs}
            injective = len(images) == len(homs)
            ok = injective and len(homs) == target
            detail.update({"hom_size": len(homs), "target_size": target,
                           "injective": injective})
        elif ok and sample_fn is not None:
            def reassemble(g, h):
                gh = model.add_mor(
                    model.compose_many(bpy.inj1, g, bpx.proj1),
                    model.compose_many(bpy.inj2, h, bpx.proj2))
                return model.compose_many(v_y, gh, u_x)

            # injectivity: f is recovered from its two tensor components
            for f in sample_fn(X, Y, 5):
                fe = model.tensor_mor(id_e, f)
                fc = model.tensor_mor(id_c, f)
                ok = ok and model.mor_eq(reassemble(fe, fc), f)
            # surjectivity: arbitrary component pairs arise from some f
            for g in sample_fn(ex, ey, 3):
                for h in sample_fn(cx, cy, 3):
                    f = reassemble(g, h)
                    ok = ok and model.mor_eq(model.tensor_mor(id_e, f), g) \
                        and model.mor_eq(model.tensor_mor(id_c, f), h)
            detail["sampled"] = True
        elif ok and (count := _dimension_count(
                model, (X, Y), (ex, ey), (cx, cy))) is not None:
            # structural mode: the splitting is a count of hom-group
            # dimensions, generically and at every prime
            ok = detail["dimension_count"] = count
        report.record(label, ok, detail)
    return report


# ----------------------------------------------------------- constructions

def gp_idempotent(model: ModelCategory) -> ClosedIdempotent:
    """S_gp = cofiber of the diagonal S -> S (+) S, with
    r = (quotient) o (first injection)."""
    s = model.unit()
    bp = model.biproduct(s, s)
    delta = model.add_mor(bp.inj1, bp.inj2)
    cof = model.cofiber(delta)
    r = model.compose(cof.quotient, bp.inj1)
    return ClosedIdempotent(E=cof.obj, r=r)


def char_split(model: ModelCategory, m: int, X):
    """Split X as (S/m ^ X) (+) (S(m) ^ X) with verified iso witnesses.

    Returns (torsion part, complement part, (u, v)) where u: X -> part1
    (+) part2 and v is its two-sided inverse.
    """
    cl = char_clopen(model, m)
    _, comp = complement_of_retract(model, cl.E, cl.r, cl.i)
    u, v, _, (part1, part2) = _decomposition_witnesses(model, cl, comp, X)
    if not (model.mor_eq(model.compose(v, u), model.identity(X))
            and model.mor_eq(model.compose(u, v),
                             model.identity(model.dom(v)))):
        raise NotInvertible("characteristic splitting witnesses failed")
    return part1, part2, (u, v)
