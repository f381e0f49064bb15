"""Interval spheres over a subgroup-conjugacy poset.

An interval sphere is supported on an order-convex set of classes
(the intersection of an upset and a downset); smashing two interval
spheres intersects their supports, and every downset sits in a cofiber
sequence S^D -> S^0 -> S^U with U the complementary upset.
"""

from __future__ import annotations

from .. import DomainError, Frozen
from .groups import ConjugacyPoset


class NotADownset(DomainError):
    """The given class set is not downward closed."""


class NotConvex(DomainError):
    """The given class set is not order-convex."""


def is_downset(poset: ConjugacyPoset, classes) -> bool:
    s = frozenset(classes)
    return all(j in s
               for i in s for j in range(poset.n) if poset.leq[j][i])


def is_upset(poset: ConjugacyPoset, classes) -> bool:
    s = frozenset(classes)
    return all(j in s
               for i in s for j in range(poset.n) if poset.leq[i][j])


def down_closure(poset: ConjugacyPoset, i: int) -> frozenset:
    return frozenset(j for j in range(poset.n) if poset.leq[j][i])


def up_closure(poset: ConjugacyPoset, i: int) -> frozenset:
    return frozenset(j for j in range(poset.n) if poset.leq[i][j])


class IntervalSphere(Frozen):
    _fields = ("poset", "classes")

    def __init__(self, poset: ConjugacyPoset, classes: frozenset):
        s = frozenset(classes)
        for h in s:
            for l in s:
                for k in range(poset.n):
                    if poset.leq[h][k] and poset.leq[k][l] and k not in s:
                        raise NotConvex(
                            f"class {k} lies between {h} and {l} but is "
                            "missing from the support")
        self.__dict__.update(poset=poset, classes=s)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poset, self.classes) == (other.poset, other.classes)

    def __hash__(self):
        return hash((self.poset, self.classes))

    def to_json(self) -> dict:
        return {"classes": sorted(self.classes)}


def interval_smash(i: IntervalSphere, j: IntervalSphere) -> IntervalSphere:
    """S^I smash S^J = S^(I intersect J)."""
    if i.poset is not j.poset and i.poset != j.poset:
        raise ValueError("interval spheres over different posets")
    return IntervalSphere(i.poset, i.classes & j.classes)


class CofiberUpsetSequence(Frozen):
    _fields = ("downset_sphere", "unit_sphere", "upset_sphere")

    def __init__(self, downset_sphere: IntervalSphere,
                 unit_sphere: IntervalSphere, upset_sphere: IntervalSphere):
        # S^D, S^0 (supported everywhere) and S^U, U the complementary
        # upset
        self.__dict__.update(downset_sphere=downset_sphere,
                             unit_sphere=unit_sphere,
                             upset_sphere=upset_sphere)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.downset_sphere, self.unit_sphere, self.upset_sphere) == \
            (other.downset_sphere, other.unit_sphere, other.upset_sphere)

    def __hash__(self):
        return hash((self.downset_sphere, self.unit_sphere,
                     self.upset_sphere))

    def to_json(self) -> dict:
        return {"downset": sorted(self.downset_sphere.classes),
                "unit": sorted(self.unit_sphere.classes),
                "upset": sorted(self.upset_sphere.classes)}


def cofiber_upset_sequence(poset: ConjugacyPoset,
                           downset) -> CofiberUpsetSequence:
    d = frozenset(downset)
    if not is_downset(poset, d):
        raise NotADownset(f"{sorted(d)} is not downward closed")
    everything = frozenset(range(poset.n))
    u = everything - d
    assert is_upset(poset, u)
    return CofiberUpsetSequence(IntervalSphere(poset, d),
                                IntervalSphere(poset, everything),
                                IntervalSphere(poset, u))
