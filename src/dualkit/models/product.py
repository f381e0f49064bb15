"""Product of two model categories: pairs of objects and morphisms,
with all structure computed componentwise."""

from __future__ import annotations

from .base import Biproduct, Cofiber, DualityDatum, ModelCategory


class ProductCategory(ModelCategory):
    def __init__(self, m1: ModelCategory, m2: ModelCategory):
        self.m1 = m1
        self.m2 = m2
        self.name = f"{m1.name}x{m2.name}"

    def unit(self):
        return (self.m1.unit(), self.m2.unit())

    def zero_obj(self):
        return (self.m1.zero_obj(), self.m2.zero_obj())

    def obj_eq(self, x, y):
        return self.m1.obj_eq(x[0], y[0]) and self.m2.obj_eq(x[1], y[1])

    def dom(self, f):
        return (self.m1.dom(f[0]), self.m2.dom(f[1]))

    def cod(self, f):
        return (self.m1.cod(f[0]), self.m2.cod(f[1]))

    def mor_eq(self, f, g):
        return self.m1.mor_eq(f[0], g[0]) and self.m2.mor_eq(f[1], g[1])

    def identity(self, x):
        return (self.m1.identity(x[0]), self.m2.identity(x[1]))

    def compose(self, g, f):
        return (self.m1.compose(g[0], f[0]), self.m2.compose(g[1], f[1]))

    def tensor_obj(self, x, y):
        return (self.m1.tensor_obj(x[0], y[0]), self.m2.tensor_obj(x[1], y[1]))

    def tensor_mor(self, f, g):
        return (self.m1.tensor_mor(f[0], g[0]), self.m2.tensor_mor(f[1], g[1]))

    def act(self, out, left, mor, right):
        return (self.m1.act(out[0], left[0], mor[0], right[0]),
                self.m2.act(out[1], left[1], mor[1], right[1]))

    def braiding(self, x, y):
        return (self.m1.braiding(x[0], y[0]), self.m2.braiding(x[1], y[1]))

    def zero_mor(self, x, y):
        return (self.m1.zero_mor(x[0], y[0]), self.m2.zero_mor(x[1], y[1]))

    def add_mor(self, f, g):
        return (self.m1.add_mor(f[0], g[0]), self.m2.add_mor(f[1], g[1]))

    def biproduct(self, x, y):
        b1 = self.m1.biproduct(x[0], y[0])
        b2 = self.m2.biproduct(x[1], y[1])
        return Biproduct(obj=(b1.obj, b2.obj),
                         inj1=(b1.inj1, b2.inj1), inj2=(b1.inj2, b2.inj2),
                         proj1=(b1.proj1, b2.proj1), proj2=(b1.proj2, b2.proj2))

    def duality(self, x):
        d1 = self.m1.duality(x[0])
        d2 = self.m2.duality(x[1])
        return DualityDatum(obj=x, dual=(d1.dual, d2.dual),
                            eta=(d1.eta, d2.eta), eps=(d1.eps, d2.eps))

    def cofiber(self, f):
        c1 = self.m1.cofiber(f[0])
        c2 = self.m2.cofiber(f[1])
        return Cofiber(obj=(c1.obj, c2.obj),
                       quotient=(c1.quotient, c2.quotient),
                       provenance=f"({c1.provenance};{c2.provenance})")

    def invert(self, f):
        return (self.m1.invert(f[0]), self.m2.invert(f[1]))


def product_category(m1: ModelCategory, m2: ModelCategory) -> ProductCategory:
    return ProductCategory(m1, m2)
