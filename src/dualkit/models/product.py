"""Product of two model categories: pairs of objects and morphisms,
with all structure computed componentwise by one rule.

``_componentwise(name)`` makes the operation ``name`` of the product: it
calls ``name`` on each factor with the matching components of its
arguments and pairs the two results, a tuple in general and a
``Biproduct``, ``DualityDatum`` or ``Cofiber`` field by field, with the
provenance ``"(first;second)"``.  One loop after the class sets this
operation for each name of ``base.OPERATIONS`` and for the four optional
matrix operations (negate, sub_mor, lift, extend), so an operation added
to the interface reaches the product without a second edit.  Each is
its own class attribute, so it can be wrapped by name like the factors'
methods.  The one exception is ``permute(out, objs, src)``: its objs is
a list of pairs, not a pair, so the loop cannot split it, and the class
defines it itself, splitting objs per factor; the loop sets only the
operations the class does not define.  ``scalar(n)`` pairs the factors'
scalars, and ``hom_dims`` adds the factors' hom-group dimensions.
"""

from __future__ import annotations

from .base import (OPERATIONS, Biproduct, Cofiber, DualityDatum,
                   ModelCategory)


def _pair(a, b):
    if not isinstance(a, (Biproduct, Cofiber, DualityDatum)):
        return (a, b)
    pairs = {name: (getattr(a, name), getattr(b, name))
             for name in a._fields}
    if "provenance" in pairs:
        pairs["provenance"] = "({};{})".format(*pairs["provenance"])
    return type(a)(**pairs)


def _componentwise(name: str):
    def operation(self, *args):
        return _pair(getattr(self.m1, name)(*[a[0] for a in args]),
                     getattr(self.m2, name)(*[a[1] for a in args]))
    return operation


class ProductCategory(ModelCategory):
    def __init__(self, m1: ModelCategory, m2: ModelCategory):
        self.m1 = m1
        self.m2 = m2
        self.name = f"{m1.name}x{m2.name}"

    def obj_eq(self, x, y):
        return self.m1.obj_eq(x[0], y[0]) and self.m2.obj_eq(x[1], y[1])

    def mor_eq(self, f, g):
        return self.m1.mor_eq(f[0], g[0]) and self.m2.mor_eq(f[1], g[1])

    def permute(self, out, objs, src):
        return (self.m1.permute(out[0], [x[0] for x in objs], src),
                self.m2.permute(out[1], [x[1] for x in objs], src))

    def scalar(self, n: int):
        return (self.m1.scalar(n), self.m2.scalar(n))

    def hom_dims(self, x, y):
        """Hom(x, y) is Hom(x1, y1) (+) Hom(x2, y2): the generic ranks
        add, and so do the dimensions at each prime where either factor
        differs from its generic rank; None if either factor does not
        count its hom-groups."""
        dims = (self.m1.hom_dims(x[0], y[0]), self.m2.hom_dims(x[1], y[1]))
        if None in dims:
            return None
        (g1, at1), (g2, at2) = dims
        at = {p: at1.get(p, g1) + at2.get(p, g2) for p in sorted({*at1, *at2})}
        return g1 + g2, {p: d for p, d in at.items() if d != g1 + g2}


for _name in OPERATIONS + ("negate", "sub_mor", "lift", "extend"):
    if _name not in vars(ProductCategory):
        setattr(ProductCategory, _name, _componentwise(_name))


def product_category(m1: ModelCategory, m2: ModelCategory) -> ProductCategory:
    return ProductCategory(m1, m2)
