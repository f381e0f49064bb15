"""Product of two model categories: pairs of objects and morphisms,
with all structure computed componentwise by one rule.

``_componentwise(name)`` makes the operation ``name`` of the product: it
calls ``name`` on each factor with the matching components of its
arguments and pairs the two results, a tuple in general and a
``Biproduct``, ``DualityDatum`` or ``Cofiber`` field by field, with the
provenance ``"(first;second)"``.  Each operation is its own class
attribute, so it can be wrapped by name like the factors' methods.
"""

from __future__ import annotations

from dataclasses import fields

from .base import Biproduct, Cofiber, DualityDatum, ModelCategory


def _pair(a, b):
    if not isinstance(a, (Biproduct, Cofiber, DualityDatum)):
        return (a, b)
    pairs = {f.name: (getattr(a, f.name), getattr(b, f.name))
             for f in fields(a)}
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

    unit = _componentwise("unit")
    zero_obj = _componentwise("zero_obj")
    dom = _componentwise("dom")
    cod = _componentwise("cod")
    identity = _componentwise("identity")
    compose = _componentwise("compose")
    tensor_obj = _componentwise("tensor_obj")
    tensor_mor = _componentwise("tensor_mor")
    act = _componentwise("act")
    braiding = _componentwise("braiding")
    zero_mor = _componentwise("zero_mor")
    add_mor = _componentwise("add_mor")
    biproduct = _componentwise("biproduct")
    duality = _componentwise("duality")
    cofiber = _componentwise("cofiber")
    invert = _componentwise("invert")


def product_category(m1: ModelCategory, m2: ModelCategory) -> ProductCategory:
    return ProductCategory(m1, m2)
