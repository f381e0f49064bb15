"""Exact rational representations of permutation groups.

A representation is given by one square rational matrix per group
generator.  Internally every matrix is a pair ``(rows, den)``: a tuple
of integer row tuples and one positive denominator, reduced so that the
denominator and all entries have no common factor, which makes equal
matrices equal pairs.  A generator of integer entries is its own rows
over den 1; only other entries go through ``Fraction``, and
``gen_matrices`` is a view of the pairs as Fractions.

The homomorphism property is verified while the assignment is extended
over the Cayley graph (``PermGroup.table``): each edge e -> g e either
defines the matrix of g e or is compared with it.  The (column, entry)
pairs of the nonzero entries of each generator are found once, and each
product M(g) M(e) visits only those pairs (``introws.mul_pairs``); a row
of M(g) that is a single entry 1 is a row of M(e) itself, so a
permutation matrix costs one step per row.

Each element keeps its character as an integer trace over its den.
``fixed_dim`` computes dim V^H as the character average over H in
integers, over the lcm of the dens with one exact division.
``fixed_projector_rank`` computes it on its own route, never reading the
character: the rank of the sum of the matrices of H, by the integer row
echelon of ``dualkit.introws``; it cross-checks ``fixed_dim``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .. import DomainError
from ..introws import echelon, mul_pairs, nonzero_pairs
from .groups import PermGroup


class RepresentationError(DomainError):
    """The generator matrices do not define a group homomorphism."""


class NonIntegralAverage(DomainError):
    """A character average came out non-integral (invalid representation)."""


def _reduced(rows, den: int) -> tuple:
    """(rows, den) with the common factor of den and every entry removed."""
    if den != 1:
        g = gcd(den, *(v for row in rows for v in row))
        if g != 1:
            rows = tuple(tuple(v // g for v in row) for row in rows)
            den //= g
    return rows, den


def from_fractions(rows) -> tuple:
    """The (rows, den) form of a matrix of ints and Fractions."""
    den = lcm(1, *(v.denominator for row in rows for v in row))
    return _reduced(tuple(tuple(v.numerator * (den // v.denominator)
                                for v in row) for row in rows), den)


def _exact(m) -> tuple:
    """The (rows, den) form of a matrix whose entries are ints or
    anything ``Fraction`` takes; a matrix of ints is its own rows over
    den 1."""
    rows = tuple(map(tuple, m))
    if all(type(v) is int for row in rows for v in row):
        return rows, 1
    return from_fractions(tuple(tuple(v if type(v) is int else Fraction(v)
                                      for v in row) for row in rows))


def to_fractions(a) -> tuple:
    rows, den = a
    return tuple(tuple(Fraction(v, den) for v in row) for row in rows)


def mat_sum(mats):
    """The sum of a nonempty list of matrices."""
    den = lcm(*(d for _, d in mats))
    scaled = [rows if d == den else
              tuple(tuple(v * (den // d) for v in row) for row in rows)
              for rows, d in mats]
    return _reduced(tuple(tuple(map(sum, zip(*rows)))
                          for rows in zip(*scaled)), den)


def mat_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1


def mat_rank(a) -> int:
    """Rank over the rationals: the rank of the echelon of the distinct
    integer rows (a repeated row does not change the rank)."""
    rows = list(dict.fromkeys(a[0]))
    return echelon(rows, len(rows[0]) if rows else 0)


class Representation:
    def __init__(self, group: PermGroup, dim: int, gen_matrices):
        if dim < 0:
            raise RepresentationError(f"dimension {dim} is negative")
        self.group = group
        self.dim = dim
        self._gens = tuple(map(_exact, gen_matrices))
        if len(self._gens) != len(group.generators):
            raise RepresentationError("one matrix per generator required")
        for rows, _ in self._gens:
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise RepresentationError("matrices must be dim x dim")
        self._matrices = self._extend()
        # the character of each element as (integer trace, den)
        self._character = [(sum(rows[i][i] for i in range(dim)), den)
                           for rows, den in self._matrices]

    @property
    def gen_matrices(self) -> tuple:
        """The generator matrices, with Fraction entries."""
        return tuple(map(to_fractions, self._gens))

    def _extend(self) -> list:
        """Matrices by element index, from a breadth-first walk of the
        Cayley graph checking every edge e -> g e against M(g) M(e)."""
        t = self.group.table
        index, mul, dim = t.index, t.mul, self.dim
        gens = [(index[g], nonzero_pairs(rows), den)
                for g, (rows, den) in zip(self.group.generators, self._gens)]
        out = [None] * self.group.order
        out[t.identity] = mat_identity(dim)
        frontier = [t.identity]
        while frontier:
            nxt = []
            for e in frontier:
                rows, den = out[e]
                for g, pairs, gden in gens:
                    f = mul[g][e]
                    m = _reduced(tuple(map(tuple, mul_pairs(pairs, rows,
                                                            dim))), gden * den)
                    if out[f] is None:
                        out[f] = m
                        nxt.append(f)
                    elif out[f] != m:
                        raise RepresentationError(
                            "generator matrices are not a homomorphism")
            frontier = nxt
        return out

    def matrix(self, element):
        return to_fractions(self._matrices[self.group.table.index[
            tuple(element)]])

    def character(self, element) -> Fraction:
        return Fraction(*self._character[self.group.table.index[
            tuple(element)]])

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "matrices": [[[str(v) for v in row] for row in m]
                             for m in self.gen_matrices]}

    @staticmethod
    def from_json(group: PermGroup, obj) -> "Representation":
        return Representation(group, obj["dim"], obj["matrices"])


def _indices(rep: Representation, H) -> list:
    index = rep.group.table.index
    return [index[tuple(h)] for h in H]


def fixed_dim(rep: Representation, H) -> int:
    """dim V^H as the exact character average (1/|H|) sum_{h in H} chi(h),
    in integers: the traces over the lcm of their dens, divided once."""
    chars = [rep._character[h] for h in _indices(rep, H)]
    den = lcm(*(d for _, d in chars))
    total = sum(t if d == den else t * (den // d) for t, d in chars)
    avg, rem = divmod(total, den * len(chars))
    if rem or avg < 0:
        raise NonIntegralAverage(
            f"character average {Fraction(total, den * len(chars))} is not "
            "a nonnegative integer")
    return avg


def fixed_projector_rank(rep: Representation, H) -> int:
    """dim V^H as the rank of the averaged projector (1/|H|) sum ρ(h),
    which is the rank of the sum; an independent route used to
    cross-check ``fixed_dim``."""
    return mat_rank(mat_sum([rep._matrices[h] for h in _indices(rep, H)]))


# ------------------------------------------------------------- presets

def trivial_representation(G: PermGroup) -> Representation:
    return Representation(G, 1, [[[1]] for _ in G.generators])


def _perm_matrix(p):
    n = len(p)
    return [[int(p[j] == i) for j in range(n)] for i in range(n)]


def permutation_representation(G: PermGroup) -> Representation:
    """The natural degree-n permutation representation."""
    return Representation(G, G.degree,
                          [_perm_matrix(g) for g in G.generators])


def _translation(G: PermGroup, g) -> tuple:
    return tuple(G.table.mul[G.table.index[g]])


def regular_representation(G: PermGroup) -> Representation:
    """Left translation on the group elements."""
    return Representation(G, G.order,
                          [_perm_matrix(_translation(G, g))
                           for g in G.generators])


def _reduced_matrix(sigma) -> list:
    # on the sum-zero subspace with basis v_k = e_k - e_0 (k = 1..n-1):
    # P v_k = v_{sigma(k)} - v_{sigma(0)}, with v_0 = 0
    n = len(sigma)
    out = [[0] * (n - 1) for _ in range(n - 1)]
    for k in range(1, n):
        if sigma[k] != 0:
            out[sigma[k] - 1][k - 1] += 1
        if sigma[0] != 0:
            out[sigma[0] - 1][k - 1] -= 1
    return out


def reduced_regular_representation(G: PermGroup) -> Representation:
    """The regular representation minus its trivial summand
    (dimension |G| - 1)."""
    return Representation(G, G.order - 1,
                          [_reduced_matrix(_translation(G, g))
                           for g in G.generators])


def reduced_permutation_representation(G: PermGroup) -> Representation:
    """The natural permutation representation restricted to the sum-zero
    subspace; for a transitive degree-n action this is the standard
    (n-1)-dimensional representation.  Of degree 0 it is 0-dimensional:
    the sum-zero subspace of Q^0 is {0}."""
    return Representation(G, max(G.degree - 1, 0),
                          [_reduced_matrix(g) for g in G.generators])


REP_PRESETS = {
    "trivial": trivial_representation,
    "permutation": permutation_representation,
    "regular": regular_representation,
    "reduced-regular": reduced_regular_representation,
    "standard": reduced_permutation_representation,
}
