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
of those — via a connected-block decomposition of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exactlin import (NAT, DimensionMismatch, Matrix, NotInvertible,
                        apply_factor, commutation, invert_or_fail, kronecker,
                        nat_matrix)
from .base import Biproduct, Cofiber, DualityDatum, ModelCategory, UnsupportedShape


@dataclass(frozen=True)
class SpanMorphism:
    dom: int
    cod: int
    matrix: Matrix  # cod x dom over nat

    def __post_init__(self):
        if self.matrix.domain != NAT:
            raise ValueError("span matrices live over nat")
        if (self.matrix.rows, self.matrix.cols) != (self.cod, self.dom):
            raise DimensionMismatch("span matrix shape mismatch")

    def to_json(self) -> dict:
        return {"dom": self.dom, "cod": self.cod, "matrix": self.matrix.tolist()}

    @staticmethod
    def from_json(obj) -> "SpanMorphism":
        m = nat_matrix(obj["matrix"], shape=(obj["cod"], obj["dom"]))
        return SpanMorphism(obj["dom"], obj["cod"], m)


def span(dom: int, cod: int, rows) -> SpanMorphism:
    return SpanMorphism(dom, cod, nat_matrix(rows, shape=(cod, dom)))


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
        i1, i2 = (span(n, s, [[int(i == j + k) for j in range(n)]
                              for i in range(s)]) for n, k in ((x, 0), (y, x)))
        return Biproduct(obj=s, inj1=i1, inj2=i2,
                         proj1=SpanMorphism(s, x, i1.matrix.transpose()),
                         proj2=SpanMorphism(s, y, i2.matrix.transpose()))

    def duality(self, x: int) -> DualityDatum:
        # self-dual via the diagonal span 1 <- x -> x*x
        diag = {i * x + i for i in range(x)}
        eta_rows = [[1 if k in diag else 0] for k in range(x * x)]
        eta = span(1, x * x, eta_rows)
        eps = SpanMorphism(x * x, 1, eta.matrix.transpose())
        return DualityDatum(obj=x, dual=x, eta=eta, eps=eps)

    def invert(self, f: SpanMorphism) -> SpanMorphism:
        if f.dom != f.cod:
            raise NotInvertible("not square")
        return SpanMorphism(f.cod, f.dom, invert_or_fail(f.matrix))

    # ----------------------------------------------------------- cofibers

    def cofiber(self, f: SpanMorphism) -> Cofiber:
        """Shape-classified cofiber.

        Decomposes the matrix into connected blocks and handles:
        all-zero column (a map 1 -> 0: backward, cofiber 0), all-zero row
        (0 -> 1: cofiber 1), a column of ones (backward map onto one
        source point: cofiber 0), a row of ones (forward fold n -> 1:
        cofiber 0).  Anything else raises UnsupportedShape.
        """
        m = f.matrix
        rules = []
        unhit_rows = []
        seen_rows, seen_cols = set(), set()
        # connected components of the bipartite support graph
        adj_row = {i: [j for j in range(m.cols) if m.data[i][j]]
                   for i in range(m.rows)}
        adj_col = {j: [i for i in range(m.rows) if m.data[i][j]]
                   for j in range(m.cols)}
        for start in range(m.rows):
            if start in seen_rows or not adj_row[start]:
                continue
            rows_, cols_ = set(), set()
            stack = [("r", start)]
            while stack:
                kind, k = stack.pop()
                if kind == "r":
                    if k in rows_:
                        continue
                    rows_.add(k)
                    stack.extend(("c", j) for j in adj_row[k])
                else:
                    if k in cols_:
                        continue
                    cols_.add(k)
                    stack.extend(("r", i) for i in adj_col[k])
            seen_rows |= rows_
            seen_cols |= cols_
            entries = [m.data[i][j] for i in rows_ for j in cols_]
            if any(e not in (0, 1) for e in entries):
                raise UnsupportedShape("entry > 1 in a connected block")
            if len(cols_) == 1 and all(
                    sum(m.data[i][j] for j in cols_) == 1 for i in rows_):
                rules.append("backward")
            elif len(rows_) == 1 and all(
                    sum(m.data[i][j] for i in rows_) == 1 for j in cols_):
                rules.append("fold" if len(cols_) > 1 else "backward")
            else:
                raise UnsupportedShape(
                    "connected block is neither backward nor a forward fold")
        for i in range(m.rows):
            if i not in seen_rows:
                unhit_rows.append(i)
                rules.append("zero-to-one")
        for j in range(m.cols):
            if j not in seen_cols:
                rules.append("one-to-zero")
        c = len(unhit_rows)
        q_rows = [[1 if j == b else 0 for j in range(f.cod)] for b in unhit_rows]
        quotient = SpanMorphism(f.cod, c, nat_matrix(q_rows, shape=(c, f.cod)))
        return Cofiber(obj=c, quotient=quotient,
                       provenance="+".join(sorted(rules)) or "empty")
