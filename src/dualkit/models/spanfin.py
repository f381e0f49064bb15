"""Spans of finite sets, at the level of isomorphism classes.

Objects are finite sets up to isomorphism (a size n >= 0); a morphism
m -> n is an isomorphism class of spans m <- A -> n, recorded as the
n x m natural-number matrix counting apex elements over each pair.
Composition is then exactly matrix multiplication (pullback counting),
tensor is Kronecker (applied to one tensor factor, by ``apply_factor``),
and every object is self-dual via the diagonal span.

Cofibers are deliberately partial: only the shapes with a known answer
are accepted — backward maps (each apex element carries an identity
forward leg), forward maps (functions), and disjoint-union combinations
of those — classified from the row and column support counts of the
matrix.
"""

from __future__ import annotations

from .. import Frozen
from ..exactlin import (NAT, DimensionMismatch, Matrix, NotInvertible,
                        apply_factor, commutation, injection, invert_or_fail,
                        kronecker, nat_matrix, pairing)
from .base import Biproduct, Cofiber, DualityDatum, ModelCategory, UnsupportedShape


class SpanMorphism(Frozen):
    _fields = ("dom", "cod", "matrix")

    def __init__(self, dom: int, cod: int, matrix: Matrix):
        # matrix is cod x dom over nat
        if matrix.domain != NAT:
            raise ValueError("span matrices live over nat")
        if (matrix.rows, matrix.cols) != (cod, dom):
            raise DimensionMismatch("span matrix shape mismatch")
        self.__dict__.update(dom=dom, cod=cod, matrix=matrix)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.matrix) == \
            (other.dom, other.cod, other.matrix)

    def __hash__(self):
        return hash((self.dom, self.cod, self.matrix))

    def to_json(self) -> dict:
        return {"dom": self.dom, "cod": self.cod, "matrix": self.matrix.tolist()}

    @staticmethod
    def from_json(obj) -> "SpanMorphism":
        m = nat_matrix(obj["matrix"], shape=(obj["cod"], obj["dom"]))
        return SpanMorphism(obj["dom"], obj["cod"], m)


def span(dom: int, cod: int, rows) -> SpanMorphism:
    return SpanMorphism(dom, cod, nat_matrix(rows, shape=(cod, dom)))


def _transpose(f: SpanMorphism) -> SpanMorphism:
    """The opposite span: its legs swapped."""
    return SpanMorphism(f.cod, f.dom, f.matrix.transpose())


class SpanFin(ModelCategory):
    name = "spanfin"

    def unit(self) -> int:
        return 1

    def zero_obj(self) -> int:
        return 0

    def dom(self, f: SpanMorphism) -> int:
        return f.dom

    def cod(self, f: SpanMorphism) -> int:
        return f.cod

    def identity(self, x: int) -> SpanMorphism:
        return SpanMorphism(x, x, Matrix.identity(NAT, x))

    def compose(self, g: SpanMorphism, f: SpanMorphism) -> SpanMorphism:
        if f.cod != g.dom:
            raise DimensionMismatch("span composition boundary mismatch")
        return SpanMorphism(f.dom, g.cod, g.matrix.mul(f.matrix))

    def tensor_obj(self, x: int, y: int) -> int:
        return x * y

    def tensor_mor(self, f: SpanMorphism, g: SpanMorphism) -> SpanMorphism:
        return SpanMorphism(f.dom * g.dom, f.cod * g.cod,
                            kronecker(f.matrix, g.matrix))

    def act(self, out: SpanMorphism, left: int, mor: SpanMorphism,
            right: int) -> SpanMorphism:
        if out.cod != left * mor.dom * right:
            raise DimensionMismatch("span action boundary mismatch")
        return SpanMorphism(out.dom, left * mor.cod * right,
                            apply_factor(mor.matrix, out.matrix, left, right))

    def braiding(self, x: int, y: int) -> SpanMorphism:
        return SpanMorphism(x * y, y * x, commutation(NAT, x, y))

    def zero_mor(self, x: int, y: int) -> SpanMorphism:
        return SpanMorphism(x, y, Matrix.zeros(NAT, y, x))

    def add_mor(self, f: SpanMorphism, g: SpanMorphism) -> SpanMorphism:
        # disjoint union of spans = entrywise sum
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise DimensionMismatch("span addition boundary mismatch")
        return SpanMorphism(f.dom, f.cod, f.matrix.add(g.matrix))

    def biproduct(self, x: int, y: int) -> Biproduct:
        s = x + y
        i1 = SpanMorphism(x, s, injection(NAT, x, s, 0))
        i2 = SpanMorphism(y, s, injection(NAT, y, s, x))
        return Biproduct(obj=s, inj1=i1, inj2=i2,
                         proj1=_transpose(i1), proj2=_transpose(i2))

    def duality(self, x: int) -> DualityDatum:
        # self-dual via the diagonal span 1 <- x -> x*x
        eps = SpanMorphism(x * x, 1, pairing(NAT, x))
        return DualityDatum(obj=x, dual=x, eta=_transpose(eps), eps=eps)

    def invert(self, f: SpanMorphism) -> SpanMorphism:
        if f.dom != f.cod:
            raise NotInvertible("not square")
        return SpanMorphism(f.cod, f.dom, invert_or_fail(f.matrix))

    # ----------------------------------------------------------- cofibers

    def cofiber(self, f: SpanMorphism) -> Cofiber:
        """Shape-classified cofiber.

        Each connected block of the matrix's support must be a single row
        or a single column of ones: an all-zero column is a map 1 -> 0
        (backward, cofiber 0), an all-zero row 0 -> 1 (cofiber 1), a
        column of ones a backward map onto one source point (cofiber 0),
        and a row of two or more ones a forward fold n -> 1 (cofiber 0).
        A block is one row or one column exactly when no nonzero entry
        has another entry both in its row and in its column, so the
        blocks are counted from the row and column support counts.
        Anything else raises UnsupportedShape, an entry > 1 first.
        """
        m = f.matrix
        if any(e > 1 for row in m.data for e in row):
            raise UnsupportedShape("entry > 1 in a connected block")
        row_hits = [sum(row) for row in m.data]
        col_hits = [sum(col) for col in m.transpose().data]
        if any(e and row_hits[i] > 1 and col_hits[j] > 1
               for i, row in enumerate(m.data) for j, e in enumerate(row)):
            raise UnsupportedShape(
                "connected block is neither backward nor a forward fold")
        folds = [h for h in row_hits if h > 1]
        backward = len(col_hits) - col_hits.count(0) - sum(folds)
        rules = (["backward"] * backward + ["fold"] * len(folds)
                 + ["one-to-zero"] * col_hits.count(0)
                 + ["zero-to-one"] * row_hits.count(0))
        unhit_rows = [i for i, h in enumerate(row_hits) if not h]
        c = len(unhit_rows)
        q_rows = [[1 if j == b else 0 for j in range(f.cod)] for b in unhit_rows]
        quotient = SpanMorphism(f.cod, c, nat_matrix(q_rows, shape=(c, f.cod)))
        return Cofiber(obj=c, quotient=quotient,
                       provenance="+".join(rules) or "empty")
