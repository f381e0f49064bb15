"""Finite G-sets and the untwisting bijection.

A G-set on points {0..m-1} is an action table mapping every group
element to the tuple of images of the points.  The untwisting map
phi(g, x) = (g, g.x) intertwines the left-on-first-factor action with
the diagonal action on G x X, with inverse psi(g, x) = (g, g^-1 x).

The checks run on the group's Cayley table (``PermGroup.table``): the
rows of an action are listed by element index, so g h, g^-1 and the
identity are table lookups, and each check compares whole rows.

A map from a finite group is fixed by its values on generators (Holt,
Eick & O'Brien, *Handbook of Computational Group Theory*, 2005, 2.1), so
the action axiom rho(g s) = rho(g) rho(s) is checked for every g but for
the generators s only: every h is a product s_1 ... s_k of generators
(a ``PermGroup`` computes its elements as their closure), and
induction on k with rho(1) = 1 gives rho(g h) = rho(g) rho(h).  That is
|G|·|S| row compositions instead of |G|^2.
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


def _action_rows(G: PermGroup, action: dict) -> list:
    """The rows of a checked action, by element index."""
    if set(action) != set(G.elements):
        raise InvalidAction("table does not cover the group exactly")
    rows = [tuple(v) if isinstance(v, list) else v
            for v in map(action.__getitem__, G.elements)]
    if len({len(v) for v in rows}) != 1:
        raise InvalidAction("rows have different lengths")
    points = list(range(len(rows[0])))
    for g, v in zip(G.elements, rows):
        if sorted(v) != points:
            raise InvalidAction(
                f"row {action[g]} is not a permutation of the points")
    t = G.table
    if rows[t.identity] != tuple(points):
        raise InvalidAction("identity does not act trivially")
    # rho(1) rho(h) is a tuple, so a row of any other type (a dict or a
    # set, say) fails the axiom at (1, h); a list row was read as a tuple
    if not all(isinstance(v, tuple) for v in rows):
        raise InvalidAction("table is not associative with the group law")
    for s in _generator_indices(G):
        step = _after(rows[s])
        for g, row in enumerate(t.mul):
            if step(rows[g]) != rows[row[s]]:
                raise InvalidAction(
                    "table is not associative with the group law")
    return rows


def _generator_indices(G: PermGroup) -> list:
    index = G.table.index
    return [index[s] for s in G.generators]


def validate_action(G: PermGroup, action: dict) -> int:
    """Check the action table (element -> image tuple) on every element
    and every generator, which fixes it on every pair of elements;
    returns the number of points."""
    return len(_action_rows(G, action)[0])


def untwisting_check(G: PermGroup, action: dict) -> bool:
    """True iff phi(g,x) = (g, g.x) is an equivariant bijection from the
    left-on-first-factor action to the diagonal action, with
    psi(g,x) = (g, g^-1 x) a two-sided inverse.  That holds for every
    G-action, so this returns True once ``_action_rows`` has checked the
    table, and raises InvalidAction otherwise.

    Proof, with rho the checked action (rho(1) = 1 and
    rho(g h) = rho(g) rho(h) for all g, h, as the module docstring
    shows):
    - inverse: psi(phi(g, x)) = (g, rho(g^-1) rho(g) x) = (g, rho(1) x)
      = (g, x), and phi(psi(g, x)) = (g, rho(g) rho(g^-1) x) = (g, x),
      so phi is a bijection;
    - equivariance: h.(g, x) = (h g, x) in the source and
      h.(g, y) = (h g, h.y) in the target, so
      phi(h.(g, x)) = (h g, rho(h g) x) = (h g, rho(h) rho(g) x)
      = h.phi(g, x)."""
    _action_rows(G, action)
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
