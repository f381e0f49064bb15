"""Finite permutation groups and their subgroup-conjugacy lattices.

Permutations are tuples ``p`` of length ``degree`` with ``p[i]`` the
image of point ``i`` (0-based internally; JSON uses 1-based points).
Subgroups are frozensets of permutations; the lattice groups them into
conjugacy classes ordered by subconjugacy.

Internally the lattice runs on element indices: ``PermGroup.table`` is a
Cayley table over the sorted element list, built on first use, and a
subgroup is a bitmask with bit ``i`` set when element ``i`` belongs to
it.  Because the element list is sorted, comparing sorted index tuples
orders subgroups exactly as comparing their sorted permutations does.
"""

from __future__ import annotations

from functools import cached_property

from .. import DomainError, Frozen, MalformedInput, has_shape

# The largest group order a PermGroup may have: every consumer builds
# its Cayley table of |G|^2 entries, and the lattice searches subgroups.
DEFAULT_ORDER_BOUND = 60
GROUP_SHAPE = {"degree": int, "generators": [[int]]}


class GroupTooLarge(DomainError):
    """The group order exceeds DEFAULT_ORDER_BOUND."""


def p_identity(n: int) -> tuple:
    return tuple(range(n))


def p_mul(p: tuple, q: tuple) -> tuple:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


def p_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _closure(degree: int, gens) -> frozenset:
    """The group the permutations gens generate; GroupTooLarge as soon
    as it has more than DEFAULT_ORDER_BOUND elements."""
    gens = [tuple(g) for g in gens]
    seen = {p_identity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p_mul(g, p)
                if q not in seen:
                    if len(seen) == DEFAULT_ORDER_BOUND:
                        raise GroupTooLarge(
                            f"|G| exceeds the bound {DEFAULT_ORDER_BOUND}")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


class CayleyTable:
    """The group law on element indices (positions in ``elements``).

    ``mul[i][j]`` is the index of ``elements[i]`` after ``elements[j]``,
    ``inv[i]`` the index of the inverse, ``identity`` the index of the
    identity and ``index`` maps each permutation to its index.
    """

    def __init__(self, degree: int, elements: tuple):
        index = {p: i for i, p in enumerate(elements)}
        self.index = index
        self.mul = [[index[tuple(map(p.__getitem__, q))] for q in elements]
                    for p in elements]
        self.identity = index[p_identity(degree)]
        self.inv = [row.index(self.identity) for row in self.mul]

    def conjugate_mask(self, members, x: int) -> int:
        """The bitmask of x H x^-1 for H given by its element indices."""
        row, xi, mul = self.mul[x], self.inv[x], self.mul
        out = 0
        for h in members:
            out |= 1 << mul[row[h]][xi]
        return out


class PermGroup(Frozen):
    """The permutation group of the given degree that the generators
    generate.  ``elements`` is not an argument: it is the sorted closure
    of the generators, computed once on construction (after each
    generator is checked to be a permutation), so every element is a
    product of generators, as the action checks and ``Representation``,
    which test products with the generators only, need.  GroupTooLarge
    if the closure has more than DEFAULT_ORDER_BOUND elements."""
    _fields = ("degree", "generators", "elements")
    _derived = ("elements",)

    def __init__(self, degree: int, generators: tuple):
        # generators is a tuple of permutation tuples
        _check_permutations(degree, generators)
        elements = tuple(sorted(_closure(degree, generators)))
        self.__dict__.update(degree=degree, generators=generators,
                             elements=elements)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.generators, self.elements) == \
            (other.degree, other.generators, other.elements)

    def __hash__(self):
        return hash((self.degree, self.generators, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def table(self) -> CayleyTable:
        """The Cayley table on element indices, built on first use."""
        return CayleyTable(self.degree, self.elements)

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "generators": [[i + 1 for i in g] for g in self.generators]}

    @staticmethod
    def from_json(obj) -> "PermGroup":
        if not (has_shape(obj, GROUP_SHAPE) and obj["degree"] >= 0):
            raise MalformedInput('expected a group {"degree": n, '
                                 '"generators": [[image of 1, ..., image '
                                 'of n], ...]}')
        gens = [tuple(i - 1 for i in g) for g in obj["generators"]]
        return perm_group(obj["degree"], gens)


def _check_permutations(degree: int, generators):
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise MalformedInput(f"{g} is not a permutation of the degree")


def perm_group(degree: int, generators) -> PermGroup:
    return PermGroup(degree, tuple(map(tuple, generators)))


# ------------------------------------------------------------ subgroups

def generated_subgroup(G: PermGroup, gens) -> frozenset:
    return _closure(G.degree, gens)


def cyclic_subgroups(G: PermGroup) -> set:
    return {generated_subgroup(G, [g]) for g in G.elements}


def _members(mask: int) -> tuple:
    """The set bits of a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _join(mul, hmask: int, hmembers, gens) -> int:
    """The mask of the subgroup generated by ``gens``, which must include
    generators of the subgroup H = (hmask, hmembers).

    Dimino's method: the result is a union of left cosets r H, closed
    under left multiplication by every generator."""
    mask = hmask
    reps = [hmembers[0]]
    for r in reps:
        for s in gens:
            x = mul[s][r]
            if not mask >> x & 1:
                reps.append(x)
                row = mul[x]
                for h in hmembers:
                    mask |= 1 << row[h]
    return mask


def _subgroup_classes(G: PermGroup) -> list:
    """Every conjugacy class of subgroups as a list of member masks.

    Cyclic extension by one class representative at a time: every
    subgroup K > H is reached from H by adjoining elements one at a time,
    <H, g> depends only on the coset g H, and the extensions of a
    conjugate of H are the conjugates of the extensions of H."""
    t = G.table
    mul, n = t.mul, G.order
    seen = set()
    classes = []
    todo = []

    def add_class(mask, gens):
        members = _members(mask)
        orbit = {t.conjugate_mask(members, x) for x in range(n)}
        seen.update(orbit)
        classes.append(orbit)
        todo.append((mask, members, gens))

    add_class(1 << t.identity, [])
    for hmask, hmembers, hgens in todo:
        covered = hmask
        for g in range(n):
            if covered >> g & 1:
                continue
            row = mul[g]
            for h in hmembers:
                covered |= 1 << row[h]
            kgens = hgens + [g]
            kmask = _join(mul, hmask, hmembers, kgens)
            if kmask not in seen:
                add_class(kmask, kgens)
    return classes


def _to_subgroup(G: PermGroup, members) -> frozenset:
    elements = G.elements
    return frozenset(elements[i] for i in members)


def all_subgroups(G: PermGroup) -> list:
    """Every subgroup, sorted by (order, sorted elements)."""
    found = sorted((_members(m) for cl in _subgroup_classes(G) for m in cl),
                   key=lambda s: (len(s), s))
    return [_to_subgroup(G, s) for s in found]


def conjugate_subgroup(H: frozenset, g: tuple) -> frozenset:
    gi = p_inv(g)
    return frozenset(p_mul(g, p_mul(h, gi)) for h in H)


def is_subconjugate(G: PermGroup, H: frozenset, K: frozenset) -> bool:
    """H contained in some conjugate of K."""
    if len(K) % len(H) != 0:
        return False
    return any(H <= conjugate_subgroup(K, g) for g in G.elements)


def _normalizer(G: PermGroup, H: frozenset) -> list:
    """Indices of N_G(H), ascending."""
    t = G.table
    hmembers = [t.index[h] for h in H]
    hmask = sum(1 << h for h in hmembers)
    return [x for x in range(G.order)
            if t.conjugate_mask(hmembers, x) == hmask]


def normalizer(G: PermGroup, H: frozenset) -> frozenset:
    return _to_subgroup(G, _normalizer(G, H))


# ------------------------------------------------------- conjugacy poset

class ConjugacyPoset(Frozen):
    """Conjugacy classes of subgroups ordered by subconjugacy.

    Classes are indexed 0..n-1, sorted by (subgroup order, lexicographic
    element set of the canonical representative); index 0 is the trivial
    class and index n-1 is the class of the whole group.
    """
    _fields = ("group", "classes", "leq", "weyl_orders")

    def __init__(self, group: PermGroup, classes: tuple, leq: tuple,
                 weyl_orders: tuple):
        # classes maps each class index to its tuple of subgroups
        # (sorted); leq[i][j] iff class i is subconjugate to class j
        self.__dict__.update(group=group, classes=classes, leq=leq,
                             weyl_orders=weyl_orders)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.classes, self.leq, self.weyl_orders) == \
            (other.group, other.classes, other.leq, other.weyl_orders)

    def __hash__(self):
        return hash((self.group, self.classes, self.leq, self.weyl_orders))

    @property
    def n(self) -> int:
        return len(self.classes)

    def representative(self, i: int) -> frozenset:
        return self.classes[i][0]

    def class_order(self, i: int) -> int:
        return len(self.representative(i))

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "classes": [
                {"index": i,
                 "subgroup_order": self.class_order(i),
                 "class_size": len(cl),
                 "representative": [[p + 1 for p in perm]
                                    for perm in sorted(cl[0])]}
                for i, cl in enumerate(self.classes)],
            "leq": [[bool(v) for v in row] for row in self.leq],
            "weyl_orders": list(self.weyl_orders),
        }


def enumerate_subgroup_classes(G: PermGroup) -> ConjugacyPoset:
    classes = sorted((sorted((_members(m), m) for m in orbit)
                      for orbit in _subgroup_classes(G)),
                     key=lambda cl: (len(cl[0][0]), cl[0][0]))
    leq = tuple(tuple(any(ci[0][1] & ~m == 0 for _, m in cj)
                      for cj in classes) for ci in classes)
    weyl = tuple(G.order // (len(cl) * len(cl[0][0])) for cl in classes)
    return ConjugacyPoset(
        G, tuple(tuple(_to_subgroup(G, s) for s, _ in cl) for cl in classes),
        leq, weyl)


def weyl_group(poset: ConjugacyPoset, class_idx: int):
    """(order, coset representatives) of N_G(H)/H for the class
    representative H: the least element of each coset g H in N_G(H)."""
    G = poset.group
    H = poset.representative(class_idx)
    t = G.table
    hmembers = [t.index[h] for h in H]
    N = _normalizer(G, H)
    reps = []
    covered = 0
    for g in N:
        if covered >> g & 1:
            continue
        reps.append(G.elements[g])
        row = t.mul[g]
        for h in hmembers:
            covered |= 1 << row[h]
    assert len(reps) == len(N) // len(H)
    return len(reps), tuple(reps)
