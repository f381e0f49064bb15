"""The eventually-constant product of the categories of F_p vector spaces.

An object is an infinite tuple (V_2, V_3, V_5, ...) of vector spaces
over the prime fields, identified at all but finitely many primes with
the reduction of a common free abelian group Z^f.  Canonical form:
store the free rank f and only the exceptional dimensions d_p != f.

A morphism carries an integer matrix between the free parts and, at an
explicit finite set of primes, F_p matrices; at every other prime the
component is the reduction of the free part.  Canonical form drops
explicit primes where both endpoints are non-exceptional and the stored
matrix equals that reduction.

Cofibers are computed from one integer row echelon of the free part:
its rank gives the new free rank, its invariant factors the relevant
primes, and its saturated left kernel the free part of the quotient; at
each relevant prime the component dimension is cod_p - rank_p(component).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .. import MalformedInput
from ..exactlin import (INT, DimensionMismatch, Matrix, NotInvertible,
                        apply_factor, commutation, fp, int_matrix,
                        invert_or_fail, kronecker, left_kernel_int,
                        left_null_basis_fp, prime_factors, solve_right_fp,
                        solve_right_int)
from .base import Biproduct, Cofiber, DualityDatum, ModelCategory


@dataclass(frozen=True)
class EvObject:
    """Canonical object: free rank + exceptional dimensions (sorted, != f)."""
    f: int
    exc: tuple = ()  # tuple of (prime, dim), sorted by prime, dim != f

    def __post_init__(self):
        if self.f < 0 or any(d < 0 for _, d in self.exc):
            raise MalformedInput("negative dimension")
        if any(d == self.f for _, d in self.exc):
            raise ValueError("non-canonical object: exceptional dim equals f")
        if list(self.exc) != sorted(self.exc):
            raise ValueError("exceptional primes not sorted")

    def dim(self, p: int) -> int:
        for q, d in self.exc:
            if q == p:
                return d
        return self.f

    def exc_primes(self) -> tuple:
        return tuple(p for p, _ in self.exc)

    def to_json(self) -> dict:
        return {"f": self.f, "exc": {str(p): d for p, d in self.exc}}

    @staticmethod
    def from_json(obj) -> "EvObject":
        return ev_object(obj["f"], {int(p): d for p, d in obj.get("exc", {}).items()})

    def __str__(self):
        if self.f == 0 and not self.exc:
            return "0"
        parts = []
        if self.f:
            parts.append("S" if self.f == 1 else f"S^{self.f}")
        for p, d in self.exc:
            delta = d - self.f
            if delta > 0:
                parts.append(f"S/{p}" + (f"^{delta}" if delta > 1 else ""))
            else:
                parts.append(f"S({p})-defect{delta}")
        return " + ".join(parts) if parts else "0"


def ev_object(f: int, exc: dict | None = None) -> EvObject:
    exc = exc or {}
    return EvObject(f, tuple(sorted((p, d) for p, d in exc.items() if d != f)))


UNIT = ev_object(1)
ZERO = ev_object(0)


@dataclass(frozen=True)
class EvMorphism:
    dom: EvObject
    cod: EvObject
    free: Matrix          # cod.f x dom.f over INT
    explicit: tuple = ()  # sorted tuple of (prime, F_p matrix cod.d_p x dom.d_p)

    def __post_init__(self):
        if self.free.domain != INT or \
                (self.free.rows, self.free.cols) != (self.cod.f, self.dom.f):
            raise DimensionMismatch("free part shape mismatch")
        keys = [p for p, _ in self.explicit]
        if list(self.explicit) != sorted(self.explicit, key=lambda t: t[0]):
            raise ValueError("explicit primes not sorted")
        for p in set(self.dom.exc_primes()) | set(self.cod.exc_primes()):
            if p not in keys:
                raise MalformedInput(
                    f"missing explicit component at prime {p}")
        for p, m in self.explicit:
            if m.domain != fp(p) or \
                    (m.rows, m.cols) != (self.cod.dim(p), self.dom.dim(p)):
                raise DimensionMismatch(f"component at {p} has wrong shape")
            if self.dom.dim(p) == self.dom.f and self.cod.dim(p) == self.cod.f \
                    and m == self.free.mod(p):
                raise ValueError(f"non-canonical: redundant explicit prime {p}")

    def component(self, p: int) -> Matrix:
        for q, m in self.explicit:
            if q == p:
                return m
        return self.free.mod(p)

    def explicit_primes(self) -> tuple:
        return tuple(p for p, _ in self.explicit)

    def to_json(self) -> dict:
        return {"dom": self.dom.to_json(), "cod": self.cod.to_json(),
                "free": self.free.tolist(),
                "explicit": {str(p): m.tolist() for p, m in self.explicit}}

    @staticmethod
    def from_json(obj) -> "EvMorphism":
        dom = EvObject.from_json(obj["dom"])
        cod = EvObject.from_json(obj["cod"])
        free = int_matrix(obj["free"], shape=(cod.f, dom.f))
        expl = {int(p): m for p, m in obj.get("explicit", {}).items()}
        return ev_morphism(dom, cod, free, expl)


def ev_morphism(dom: EvObject, cod: EvObject, free: Matrix,
                explicit: dict | None = None) -> EvMorphism:
    """Smart constructor: accepts raw row lists, canonicalizes."""
    explicit = dict(explicit or {})
    if not isinstance(free, Matrix):
        free = int_matrix(free, shape=(cod.f, dom.f))
    comps = {}
    for p, m in explicit.items():
        if not isinstance(m, Matrix):
            m = Matrix.from_rows(fp(p), m, shape=(cod.dim(p), dom.dim(p)))
        elif m.domain != fp(p):
            m = m.mod(p)
        comps[p] = m
    keep = []
    for p in sorted(comps):
        m = comps[p]
        if dom.dim(p) == dom.f and cod.dim(p) == cod.f and m == free.mod(p):
            continue
        keep.append((p, m))
    return EvMorphism(dom, cod, free, tuple(keep))


class EvConst(ModelCategory):
    name = "evconst"

    def unit(self) -> EvObject:
        return UNIT

    def zero_obj(self) -> EvObject:
        return ZERO

    def dom(self, f: EvMorphism) -> EvObject:
        return f.dom

    def cod(self, f: EvMorphism) -> EvObject:
        return f.cod

    def identity(self, x: EvObject) -> EvMorphism:
        expl = {p: Matrix.identity(fp(p), x.dim(p)) for p in x.exc_primes()}
        return ev_morphism(x, x, Matrix.identity(INT, x.f), expl)

    def compose(self, g: EvMorphism, f: EvMorphism) -> EvMorphism:
        if f.cod != g.dom:
            raise DimensionMismatch("evconst composition boundary mismatch")
        primes = sorted(set(f.explicit_primes()) | set(g.explicit_primes()))
        expl = {p: g.component(p).mul(f.component(p)) for p in primes}
        return ev_morphism(f.dom, g.cod, g.free.mul(f.free), expl)

    def tensor_obj(self, x: EvObject, y: EvObject) -> EvObject:
        primes = set(x.exc_primes()) | set(y.exc_primes())
        return ev_object(x.f * y.f, {p: x.dim(p) * y.dim(p) for p in primes})

    def tensor_mor(self, f: EvMorphism, g: EvMorphism) -> EvMorphism:
        dom = self.tensor_obj(f.dom, g.dom)
        cod = self.tensor_obj(f.cod, g.cod)
        primes = sorted(set(f.explicit_primes()) | set(g.explicit_primes()))
        expl = {p: kronecker(f.component(p), g.component(p)) for p in primes}
        return ev_morphism(dom, cod, kronecker(f.free, g.free), expl)

    def act(self, out: EvMorphism, left: EvObject, mor: EvMorphism,
            right: EvObject) -> EvMorphism:
        tensor = self.tensor_obj
        if out.cod != tensor(tensor(left, mor.dom), right):
            raise DimensionMismatch("evconst action boundary mismatch")
        # at any other prime every part is the reduction of the free one
        primes = (set(out.explicit_primes()) | set(mor.explicit_primes())
                  | set(left.exc_primes()) | set(right.exc_primes()))
        expl = {p: apply_factor(mor.component(p), out.component(p),
                                left.dim(p), right.dim(p)) for p in primes}
        return ev_morphism(out.dom, tensor(tensor(left, mor.cod), right),
                           apply_factor(mor.free, out.free, left.f, right.f),
                           expl)

    def braiding(self, x: EvObject, y: EvObject) -> EvMorphism:
        dom = self.tensor_obj(x, y)
        cod = self.tensor_obj(y, x)
        primes = set(x.exc_primes()) | set(y.exc_primes())
        expl = {p: commutation(fp(p), x.dim(p), y.dim(p)) for p in primes}
        return ev_morphism(dom, cod, commutation(INT, x.f, y.f), expl)

    def zero_mor(self, x: EvObject, y: EvObject) -> EvMorphism:
        primes = set(x.exc_primes()) | set(y.exc_primes())
        expl = {p: Matrix.zeros(fp(p), y.dim(p), x.dim(p)) for p in primes}
        return ev_morphism(x, y, Matrix.zeros(INT, y.f, x.f), expl)

    def add_mor(self, f: EvMorphism, g: EvMorphism) -> EvMorphism:
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise DimensionMismatch("evconst addition boundary mismatch")
        primes = sorted(set(f.explicit_primes()) | set(g.explicit_primes()))
        expl = {p: f.component(p).add(g.component(p)) for p in primes}
        return ev_morphism(f.dom, f.cod, f.free.add(g.free), expl)

    def negate(self, f: EvMorphism) -> EvMorphism:
        expl = {p: m.scale(-1) for p, m in f.explicit}
        return ev_morphism(f.dom, f.cod, f.free.scale(-1), expl)

    def sub_mor(self, f: EvMorphism, g: EvMorphism) -> EvMorphism:
        return self.add_mor(f, self.negate(g))

    def biproduct(self, x: EvObject, y: EvObject) -> Biproduct:
        primes = set(x.exc_primes()) | set(y.exc_primes())
        obj = ev_object(x.f + y.f, {p: x.dim(p) + y.dim(p) for p in primes})

        def block(domain, rows, cols, k):
            return Matrix.from_rows(
                domain, [[int(i == j + k) for j in range(cols)]
                         for i in range(rows)], shape=(rows, cols))

        def injection(src, second):
            # the identity onto the coordinates of the first or second
            # summand; its transpose is the projection
            free = block(INT, obj.f, src.f, second * x.f)
            i = ev_morphism(src, obj, free, {
                p: block(fp(p), obj.dim(p), src.dim(p), second * x.dim(p))
                for p in primes})
            return i, ev_morphism(obj, src, i.free.transpose(),
                                  {p: m.transpose() for p, m in i.explicit})

        (i1, p1), (i2, p2) = injection(x, 0), injection(y, 1)
        return Biproduct(obj=obj, inj1=i1, inj2=i2, proj1=p1, proj2=p2)

    def duality(self, x: EvObject) -> DualityDatum:
        xx = self.tensor_obj(x, x)

        def pairing(domain, n, transposed):
            diag = {i * n + i for i in range(n)}
            col = [[1 if k in diag else 0] for k in range(n * n)]
            m = Matrix.from_rows(domain, col, shape=(n * n, 1))
            return m.transpose() if transposed else m

        primes = x.exc_primes()
        eta = ev_morphism(UNIT, xx, pairing(INT, x.f, False),
                          {p: pairing(fp(p), x.dim(p), False)
                           for p in primes})
        eps = ev_morphism(xx, UNIT, pairing(INT, x.f, True),
                          {p: pairing(fp(p), x.dim(p), True)
                           for p in primes})
        return DualityDatum(obj=x, dual=x, eta=eta, eps=eps)

    def invert(self, f: EvMorphism) -> EvMorphism:
        if f.dom.f != f.cod.f or any(
                f.dom.dim(p) != f.cod.dim(p)
                for p in set(f.dom.exc_primes()) | set(f.cod.exc_primes())):
            raise NotInvertible("objects have different dimensions")
        free_inv = invert_or_fail(f.free)
        expl = {p: invert_or_fail(m) for p, m in f.explicit}
        return ev_morphism(f.cod, f.dom, free_inv, expl)

    # ------------------------------------------------ solving and counting

    def _solve(self, a, b, dom, cod, t):
        """X: dom -> cod with t(a) * t(X) = t(b) at the free part and at
        each explicit prime of a or b; t is the identity or the transpose."""
        primes = sorted(set(a.explicit_primes()) | set(b.explicit_primes()))
        free = t(solve_right_int(t(a.free), t(b.free)))
        return ev_morphism(dom, cod, free, {
            p: t(solve_right_fp(t(a.component(p)), t(b.component(p))))
            for p in primes})

    def lift(self, a: EvMorphism, b: EvMorphism) -> EvMorphism:
        return self._solve(a, b, b.dom, a.dom, lambda m: m)

    def extend(self, a: EvMorphism, b: EvMorphism) -> EvMorphism:
        return self._solve(a, b, a.cod, b.cod, Matrix.transpose)

    def scalar(self, n: int) -> EvMorphism:
        return ev_morphism(UNIT, UNIT, [[n]])

    def hom_dims(self, x: EvObject, y: EvObject) -> tuple:
        # Hom(x, y) has the dimensions of x (x) y: every object is self-dual
        xy = self.tensor_obj(x, y)
        return xy.f, dict(xy.exc)

    # ----------------------------------------------------------- cofibers

    def cofiber(self, f: EvMorphism) -> Cofiber:
        factors, q_free = left_kernel_int(f.free)
        relevant = set(f.explicit_primes())
        if factors:
            # d1 | d2 | ... | dr, so the primes of dr are those of them all
            relevant.update(prime_factors(factors[-1]))
        # one elimination per prime: the cokernel's dimension is the
        # number of rows of the left null basis
        quot_expl = {p: left_null_basis_fp(f.component(p))
                     for p in sorted(relevant)}
        cobj = ev_object(f.cod.f - len(factors),
                         {p: q.rows for p, q in quot_expl.items()})
        quotient = ev_morphism(f.cod, cobj, q_free, quot_expl)
        return Cofiber(obj=cobj, quotient=quotient, provenance="snf")


def enumerate_homs(x: EvObject, y: EvObject):
    """Yield every morphism x -> y when the hom-set is finite
    (requires x.f * y.f = 0, so the free part is empty): the entries of
    the components in lexicographic order, the smallest prime slowest."""
    if x.f * y.f != 0:
        raise ValueError("infinite hom-set: free parts are nonzero")
    primes = sorted(set(x.exc_primes()) | set(y.exc_primes()))
    free = Matrix.zeros(INT, y.f, x.f)
    choices = [[Matrix.from_rows(fp(p), [e[i * c:(i + 1) * c]
                                         for i in range(r)], shape=(r, c))
                for e in product(range(p), repeat=r * c)]
               for p, r, c in ((p, y.dim(p), x.dim(p)) for p in primes)]
    for comps in product(*choices):
        yield ev_morphism(x, y, free, dict(zip(primes, comps)))


def hom_group_structure(x: EvObject, y: EvObject) -> dict:
    """The hom-group Hom(x, y) as (free rank, torsion multiplicities).

    Hom = Z^(x.f*y.f) + sum over exceptional primes p of
    Mat_{y.d_p x x.d_p}(F_p); returns {"free": rank, "torsion": {p: dim}}.
    """
    primes = sorted(set(x.exc_primes()) | set(y.exc_primes()))
    torsion = {}
    for p in primes:
        n = x.dim(p) * y.dim(p)
        if n:
            torsion[p] = n
    return {"free": x.f * y.f, "torsion": torsion}
