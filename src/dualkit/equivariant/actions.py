"""Finite G-sets and the untwisting bijection.

A G-set on points {0..m-1} is an action table mapping every group
element to the tuple of images of the points.  The untwisting map
phi(g, x) = (g, g.x) intertwines the left-on-first-factor action with
the diagonal action on G x X, with inverse psi(g, x) = (g, g^-1 x).

The checks run on the group's Cayley table (``PermGroup.table``): the
rows of an action are listed by element index, so g h, g^-1 and the
identity are table lookups, and each pair (g, h) compares whole rows.
"""

from __future__ import annotations

from operator import itemgetter

from .. import DomainError
from .groups import PermGroup


class InvalidAction(DomainError):
    """The table is not a group action."""


def _after(b):
    """The map a -> a o b on point tuples: x -> a[b[x]]."""
    if len(b) < 2:
        return lambda a: tuple(a[x] for x in b)
    return itemgetter(*b)


def _action_rows(G: PermGroup, action: dict) -> tuple:
    """(rows, after) of a checked action: its rows by element index, and
    after[h] mapping the row of g to the row of g h."""
    if set(action) != set(G.elements):
        raise InvalidAction("table does not cover the group exactly")
    rows = [action[g] for g in G.elements]
    if len({len(v) for v in rows}) != 1:
        raise InvalidAction("rows have different lengths")
    points = list(range(len(rows[0])))
    for v in rows:
        if sorted(v) != points:
            raise InvalidAction(f"row {v} is not a permutation of the points")
    t = G.table
    if rows[t.identity] != tuple(points):
        raise InvalidAction("identity does not act trivially")
    after = [_after(r) for r in rows]
    for g, row in enumerate(t.mul):
        rg = rows[g]
        for h, gh in enumerate(row):
            if after[h](rg) != rows[gh]:
                raise InvalidAction(
                    "table is not associative with the group law")
    return rows, after


def validate_action(G: PermGroup, action: dict) -> int:
    """Check the action table (element -> image tuple) for every pair of
    group elements; returns the number of points."""
    return len(_action_rows(G, action)[0][0])


def untwisting_check(G: PermGroup, action: dict) -> bool:
    """True iff phi(g,x) = (g, g.x) is an equivariant bijection from the
    left-on-first-factor action to the diagonal action, with
    psi(g,x) = (g, g^-1 x) a two-sided inverse (checked exhaustively)."""
    rows, after = _action_rows(G, action)
    t = G.table
    points = tuple(range(len(rows[0])))
    # two-sided inverse, hence bijectivity: psi(phi(g, x)) and
    # phi(psi(g, x)) keep g and send x to g^-1 g x and g g^-1 x
    for g, gi in enumerate(t.inv):
        if after[g](rows[gi]) != points or after[gi](rows[g]) != points:
            return False
    # equivariance: phi(h.(g,x)) = h.phi(g,x) with the source acting on
    # the first factor only and the target acting diagonally; both have
    # first factor h g, and the second factors are (h g).x and h.(g.x)
    for h, row in enumerate(t.mul):
        rh = rows[h]
        for g, hg in enumerate(row):
            if rows[hg] != after[g](rh):
                return False
    return True


def left_translation_action(G: PermGroup) -> dict:
    return {g: tuple(row) for g, row in zip(G.elements, G.table.mul)}


def natural_action(G: PermGroup) -> dict:
    return {g: g for g in G.elements}


def coset_action(G: PermGroup, H) -> dict:
    """The transitive action on the left cosets of H, listed in order of
    their least elements."""
    t = G.table
    hmembers = [t.index[h] for h in H]
    coset_of = [-1] * G.order
    least = []
    for g in range(G.order):
        if coset_of[g] < 0:
            for x in (t.mul[g][h] for h in hmembers):
                coset_of[x] = len(least)
            least.append(g)
    return {p: tuple(coset_of[row[r]] for r in least)
            for p, row in zip(G.elements, t.mul)}


def transitive_actions(G: PermGroup, poset) -> list:
    """One transitive G-set per subgroup-conjugacy class (its coset
    action)."""
    return [coset_action(G, poset.representative(i))
            for i in range(poset.n)]
