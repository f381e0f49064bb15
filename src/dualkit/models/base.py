"""Uniform computable-category interface shared by the concrete models.

``OPERATIONS`` names, once, the operations every model implements:
unit and zero objects, domain and codomain, identity, composition,
tensor of objects and of morphisms, the action of a morphism on one
tensor factor, braiding, zero morphisms and sums, biproducts, duality
data, cofibers and inverses.  ``ModelCategory`` defines none of them, so
a model that lacks one raises an ``AttributeError`` naming it; the
product of two models makes each of them from this list.

``ModelCategory`` itself defines object and morphism equality, the
derived suspension, invertibility test and iterated composition, and
the optional negatives, differences, lifts, extensions, scalars and hom
dimensions.  A model without an optional operation inherits a method
that raises ``UnsupportedShape`` naming the model (``hom_dims`` returns
None instead), so a caller such as ``idem.complement_of_retract`` fails
with a domain error on it.  Everything is exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .. import DomainError
from ..exactlin import NotInvertible


class UnsupportedShape(DomainError):
    """A partial operation (e.g. a shape-classified cofiber) rejected its input."""


@dataclass(frozen=True)
class DualityDatum:
    """Self-duality data for an object: unit eta: S -> Xv (x) X and counit
    eps: X (x) Xv -> S, satisfying both triangle equations."""
    obj: Any
    dual: Any
    eta: Any
    eps: Any


@dataclass(frozen=True)
class Biproduct:
    obj: Any
    inj1: Any
    inj2: Any
    proj1: Any
    proj2: Any


@dataclass(frozen=True)
class Cofiber:
    obj: Any
    quotient: Any
    provenance: str = ""


# The operations every model implements, each a method of the model's
# own class.
OPERATIONS = ("unit", "zero_obj", "dom", "cod", "identity", "compose",
              "tensor_obj", "tensor_mor", "act", "braiding", "zero_mor",
              "add_mor", "biproduct", "duality", "cofiber", "invert")


class ModelCategory:
    """Abstract surface.  A concrete model implements every operation of
    ``OPERATIONS``; ``act(out, left, mor, right)`` is
    (id_left (x) mor (x) id_right) o out, computed without the identities
    or their tensor products.  Equality, the optional operations below
    and the derived ones are defined here."""

    name: str = "abstract"

    def obj_eq(self, x, y) -> bool:
        return x == y

    def mor_eq(self, f, g) -> bool:
        return f == g

    # subtraction, solving and counting, for models with matrix
    # hom-groups: lift(a, b) is the X with a o X = b, and extend(a, b)
    # the X with X o a = b

    def negate(self, f):
        raise UnsupportedShape(f"{self.name} has no negatives")

    def sub_mor(self, f, g):
        raise UnsupportedShape(f"{self.name} has no subtraction")

    def lift(self, a, b):
        raise UnsupportedShape(f"{self.name} solves no lifting problems")

    def extend(self, a, b):
        raise UnsupportedShape(f"{self.name} solves no extension problems")

    def scalar(self, n: int):
        """n times the identity of the unit."""
        raise UnsupportedShape(f"{self.name} has no integer scalars")

    def hom_dims(self, x, y):
        """(generic rank of Hom(x, y), {prime: dimension where it differs}),
        or None if the model does not count hom-groups by dimension."""
        return None

    # derived ------------------------------------------------------------

    def suspension(self, x):
        """Suspension computed as the cofiber of x -> 0."""
        return self.cofiber(self.zero_mor(x, self.zero_obj())).obj

    def is_invertible(self, f) -> bool:
        try:
            self.invert(f)
            return True
        except NotInvertible:
            return False

    def compose_many(self, *fs):
        """compose_many(h, g, f) = h o g o f."""
        out = fs[0]
        for f in fs[1:]:
            out = self.compose(out, f)
        return out


def triangle_equations_hold(model: ModelCategory, dd: DualityDatum) -> bool:
    """Check both snake identities for a self-duality datum.

    With eta: S -> Xv (x) X and eps: X (x) Xv -> S these read
    (eps (x) id_X) o (id_X (x) eta) = id_X and
    (id_Xv (x) eps) o (eta (x) id_Xv) = id_Xv.
    """
    x, xv, s = dd.obj, dd.dual, model.unit()
    idx = model.identity(x)
    idxv = model.identity(xv)
    left = model.act(model.act(idx, x, dd.eta, s), s, dd.eps, x)
    right = model.act(model.act(idxv, s, dd.eta, xv), xv, dd.eps, s)
    return model.mor_eq(left, idx) and model.mor_eq(right, idxv)


def biproduct_equations_hold(model: ModelCategory, x, y, bp: Biproduct) -> bool:
    """p1 i1 = id_x, p2 i2 = id_y, p1 i2 = 0, p2 i1 = 0,
    i1 p1 + i2 p2 = id (so coproduct and product agree: Houston)."""
    checks = [
        model.mor_eq(model.compose(bp.proj1, bp.inj1), model.identity(x)),
        model.mor_eq(model.compose(bp.proj2, bp.inj2), model.identity(y)),
        model.mor_eq(model.compose(bp.proj1, bp.inj2), model.zero_mor(y, x)),
        model.mor_eq(model.compose(bp.proj2, bp.inj1), model.zero_mor(x, y)),
        model.mor_eq(
            model.add_mor(model.compose(bp.inj1, bp.proj1),
                          model.compose(bp.inj2, bp.proj2)),
            model.identity(bp.obj)),
    ]
    return all(checks)
