"""The eventually-constant product of the categories of F_p vector spaces.

An object is an infinite tuple (V_2, V_3, V_5, ...) of vector spaces
over the prime fields, identified at all but finitely many primes with
the reduction of a common free abelian group Z^f.  Canonical form:
store the free rank f and only the exceptional dimensions d_p != f.

A morphism carries an integer matrix between the free parts and, at an
explicit finite set of primes, F_p matrices; at every other prime the
component is the reduction of the free part.  The free part is the
component at no prime: ``dim(None)`` is f and ``component(None)`` is the
integer matrix.  Canonical form drops explicit primes where both
endpoints are non-exceptional and the stored matrix equals that
reduction.

Each canonical-form property is checked or established once per value.
``ev_object`` establishes ``exc`` sorted with no d = f by building it so,
and ``_check_object`` checks the dimensions nonnegative.  ``ev_morphism``
establishes each component over F_p as it reads it and the primes
sorted, and ``_check_components`` checks, in this order, the free
part's domain and shape, that no exceptional prime lacks its component,
and each component's shape before it tests that component with
``_redundant`` and drops it if redundant.  Both then build their result
without running ``__init__``.  On a hand-built ``EvObject(...)`` or
``EvMorphism(...)``, ``__init__`` runs the same two helpers, which
then also check what the smart constructors establish: ``exc`` sorted
with no d = f, the primes sorted, each component over F_p, and no
redundant component.  So ``_redundant`` is still the one predicate for
the constructor and the check; it compares the component's shape and
rows with those of the free part, reduced mod p, building no
``Matrix``.

Every structure map is one call of ``_build``: one ``part(domain, p)``
gives the free part at p = None over Z and the component at each prime
of ``_primes`` over F_p, and ``ev_morphism`` canonicalises the result
once.  ``_primes`` is the one prime rule: each explicit prime of an input
morphism and each exceptional prime of an input object; at any other
prime every input, and so the map, is the reduction of its free part.
It reads the input objects, not only the endpoints of the result: the
braiding of S^2 (dimension 3 at 5) with S^3 (dimension 2 at 5), which
``permute`` builds from the identity of S^6 and the two factors' objects,
goes S^6 -> S^6, yet at 5 it swaps 3 (x) 2 and is not the reduction of
the free swap of 2 (x) 3.

Cofibers are computed from one integer row echelon of the free part F
alone (``left_kernel_int``): its rank gives the new free rank, the
invariant factors of its rows the relevant primes, and its saturated
left kernel, replayed from the echelon's logged row operations rather
than carried as an identity block beside F, the free part of the
quotient; at each relevant prime the component dimension is
cod_p - rank_p(component).
"""

from __future__ import annotations

from itertools import product

from .. import Frozen, MalformedInput
from ..exactlin import (INT, DimensionMismatch, Matrix, NotInvertible,
                        apply_factor, fp, injection, int_matrix,
                        invert_or_fail, kronecker, left_kernel_int,
                        left_null_basis_fp, pairing, permute_factors,
                        prime_factors, solve_right_fp, solve_right_int)
from .base import Biproduct, Cofiber, DualityDatum, ModelCategory


class EvObject(Frozen):
    """Canonical object: free rank + exceptional dimensions (sorted, != f)."""
    _fields = ("f", "exc")

    def __init__(self, f: int, exc: tuple = ()):
        # exc is a tuple of (prime, dim), sorted by prime, dim != f
        _check_object(f, exc, established=False)
        self.__dict__.update(f=f, exc=exc)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.f, self.exc) == (other.f, other.exc)

    def __hash__(self):
        return hash((self.f, self.exc))

    def dim(self, p: int | None) -> int:
        """The dimension at the prime p; at p = None, the free rank."""
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


def _trusted(cls, **fields):
    """The value of class cls with these fields, set in its ``__dict__``
    without running ``__init__`` and its checks: only for values the
    caller has checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_object(f: int, exc, established: bool) -> None:
    """Raise unless no dimension is negative and, unless the caller
    established it, exc is sorted with no d = f."""
    if f < 0 or any(d < 0 for _, d in exc):
        raise MalformedInput("negative dimension")
    if established:
        return
    if any(d == f for _, d in exc):
        raise ValueError("non-canonical object: exceptional dim equals f")
    if list(exc) != sorted(exc):
        raise ValueError("exceptional primes not sorted")


def ev_object(f: int, exc: dict | None = None) -> EvObject:
    """Smart constructor: drops each d = f, sorts, checks once."""
    exc = tuple(sorted((p, d) for p, d in (exc or {}).items() if d != f))
    _check_object(f, exc, established=True)
    return _trusted(EvObject, f=f, exc=exc)


UNIT = ev_object(1)
ZERO = ev_object(0)


class EvMorphism(Frozen):
    _fields = ("dom", "cod", "free", "explicit")

    def __init__(self, dom: EvObject, cod: EvObject, free: Matrix,
                 explicit: tuple = ()):
        # free is cod.f x dom.f over INT; explicit a sorted tuple of
        # (prime, F_p matrix cod.d_p x dom.d_p)
        _check_components(dom, cod, free, explicit, established=False)
        self.__dict__.update(dom=dom, cod=cod, free=free, explicit=explicit)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.free, self.explicit) == \
            (other.dom, other.cod, other.free, other.explicit)

    def __hash__(self):
        return hash((self.dom, self.cod, self.free, self.explicit))

    def component(self, p: int | None) -> Matrix:
        """The F_p matrix at the prime p; at p = None, the free part."""
        if p is None:
            return self.free
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
    """Smart constructor: accepts raw row lists, canonicalizes and
    checks in one pass."""
    if not isinstance(free, Matrix):
        free = int_matrix(free, shape=(cod.f, dom.f))
    comps = {}
    for p, m in (explicit or {}).items():
        if not isinstance(m, Matrix):
            m = Matrix.from_rows(fp(p), m, shape=(cod.dim(p), dom.dim(p)))
        elif m.domain != fp(p):
            m = m.mod(p)
        comps[p] = m
    explicit = _check_components(dom, cod, free,
                                 [(p, comps[p]) for p in sorted(comps)],
                                 established=True)
    return _trusted(EvMorphism, dom=dom, cod=cod, free=free,
                    explicit=explicit)


def _check_components(dom: EvObject, cod: EvObject, free: Matrix,
                      explicit, established: bool) -> tuple:
    """The components of explicit that are not redundant, after checking
    the free part's domain and shape, that each exceptional prime of dom
    and cod has a component, and each component's domain and shape
    before testing it with ``_redundant``.  Where the caller established
    the primes sorted and each component over F_p, a redundant component
    is dropped; otherwise those are checked too and a redundant
    component raises."""
    if free.domain != INT or free.rows != cod.f or free.cols != dom.f:
        raise DimensionMismatch("free part shape mismatch")
    keys = [p for p, _ in explicit]
    if not established and keys != sorted(keys):
        raise ValueError("explicit primes not sorted")
    missing = [p for x in (dom, cod) for p, _ in x.exc if p not in keys]
    if missing:
        raise MalformedInput(
            f"missing explicit component at prime {min(missing)}")
    kept = []
    for p, m in explicit:
        if (not established and m.domain != fp(p)) or \
                m.rows != cod.dim(p) or m.cols != dom.dim(p):
            raise DimensionMismatch(f"component at {p} has wrong shape")
        if not _redundant(free, p, m):
            kept.append((p, m))
        elif not established:
            raise ValueError(f"non-canonical: redundant explicit prime {p}")
    return tuple(kept)


def _redundant(free: Matrix, p: int, m: Matrix) -> bool:
    """Whether the component m at p is implied: both endpoints are
    non-exceptional at p and m is the reduction of the free part.  Once
    the shapes of free and of m are checked, m has the shape of free
    exactly when neither endpoint is exceptional at p; then m's rows
    decide, compared with the reduced rows of free, with no Matrix
    built."""
    return (m.rows == free.rows and m.cols == free.cols and m.data
            == tuple([tuple([e % p for e in r]) for r in free.data]))


def _primes(*inputs) -> list:
    """The one prime rule: the sorted primes at which a map built from
    these objects and morphisms needs its own component."""
    return sorted({p for x in inputs for p, _ in
                   (x.exc if isinstance(x, EvObject) else x.explicit)})


def _build(dom: EvObject, cod: EvObject, part, *inputs) -> EvMorphism:
    """The morphism dom -> cod with free part part(INT, None) and the
    component part(fp(p), p) at each prime p of _primes(*inputs)."""
    return ev_morphism(dom, cod, part(INT, None),
                       {p: part(fp(p), p) for p in _primes(*inputs)})


def _transpose(f: EvMorphism) -> EvMorphism:
    """f.cod -> f.dom with every component transposed."""
    return _build(f.cod, f.dom, lambda d, p: f.component(p).transpose(), f)


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
        return _build(x, x, lambda d, p: Matrix.identity(d, x.dim(p)), x)

    def compose(self, g: EvMorphism, f: EvMorphism) -> EvMorphism:
        if f.cod != g.dom:
            raise DimensionMismatch("evconst composition boundary mismatch")
        return _build(f.dom, g.cod,
                      lambda d, p: g.component(p).mul(f.component(p)), f, g)

    def tensor_obj(self, x: EvObject, y: EvObject) -> EvObject:
        return ev_object(x.f * y.f,
                         {p: x.dim(p) * y.dim(p) for p in _primes(x, y)})

    def tensor_mor(self, f: EvMorphism, g: EvMorphism) -> EvMorphism:
        return _build(self.tensor_obj(f.dom, g.dom),
                      self.tensor_obj(f.cod, g.cod),
                      lambda d, p: kronecker(f.component(p), g.component(p)),
                      f, g)

    def act(self, out: EvMorphism, left: EvObject, mor: EvMorphism,
            right: EvObject) -> EvMorphism:
        tensor = self.tensor_obj
        if out.cod != tensor(tensor(left, mor.dom), right):
            raise DimensionMismatch("evconst action boundary mismatch")
        return _build(out.dom, tensor(tensor(left, mor.cod), right),
                      lambda d, p: apply_factor(
                          mor.component(p), out.component(p),
                          left.dim(p), right.dim(p)),
                      out, mor, left, right)

    def permute(self, out: EvMorphism, objs, src) -> EvMorphism:
        # tensor_obj multiplies dimensions, so every order of the
        # factors is the one object out.cod
        return _build(out.dom, out.cod,
                      lambda d, p: permute_factors(
                          out.component(p), [x.dim(p) for x in objs], src),
                      out, *objs)

    def braiding(self, x: EvObject, y: EvObject) -> EvMorphism:
        return self.permute(self.identity(self.tensor_obj(x, y)), (x, y),
                            (1, 0))

    def zero_mor(self, x: EvObject, y: EvObject) -> EvMorphism:
        return _build(x, y, lambda d, p: Matrix.zeros(d, y.dim(p), x.dim(p)),
                      x, y)

    def add_mor(self, f: EvMorphism, g: EvMorphism) -> EvMorphism:
        if (f.dom, f.cod) != (g.dom, g.cod):
            raise DimensionMismatch("evconst addition boundary mismatch")
        return _build(f.dom, f.cod,
                      lambda d, p: f.component(p).add(g.component(p)), f, g)

    def negate(self, f: EvMorphism) -> EvMorphism:
        return _build(f.dom, f.cod, lambda d, p: f.component(p).scale(-1), f)

    def sub_mor(self, f: EvMorphism, g: EvMorphism) -> EvMorphism:
        return self.add_mor(f, self.negate(g))

    def biproduct(self, x: EvObject, y: EvObject) -> Biproduct:
        obj = ev_object(x.f + y.f,
                        {p: x.dim(p) + y.dim(p) for p in _primes(x, y)})
        i1 = _build(x, obj, lambda d, p: injection(d, x.dim(p), obj.dim(p), 0),
                    x, y)
        i2 = _build(y, obj, lambda d, p: injection(d, y.dim(p), obj.dim(p),
                                                   x.dim(p)), x, y)
        return Biproduct(obj=obj, inj1=i1, inj2=i2,
                         proj1=_transpose(i1), proj2=_transpose(i2))

    def duality(self, x: EvObject) -> DualityDatum:
        eps = _build(self.tensor_obj(x, x), UNIT,
                     lambda d, p: pairing(d, x.dim(p)), x)
        return DualityDatum(obj=x, dual=x, eta=_transpose(eps), eps=eps)

    def invert(self, f: EvMorphism) -> EvMorphism:
        # canonical objects are equal exactly when their free ranks and
        # their dimensions at every prime agree
        if f.dom != f.cod:
            raise NotInvertible("objects have different dimensions")
        return _build(f.cod, f.dom,
                      lambda d, p: invert_or_fail(f.component(p)), f)

    # ------------------------------------------------ solving and counting

    def _solve(self, a, b, dom, cod, t):
        """X: dom -> cod with t(a) * t(X) = t(b) at the free part and at
        each explicit prime of a or b; t is the identity or the transpose."""
        def part(domain, p):
            solve = solve_right_int if p is None else solve_right_fp
            return t(solve(t(a.component(p)), t(b.component(p))))
        return _build(dom, cod, part, a, b)

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
    primes = _primes(x, y)
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
    torsion = {p: n for p in _primes(x, y) if (n := x.dim(p) * y.dim(p))}
    return {"free": x.f * y.f, "torsion": torsion}
