"""Differential tests for the index-table equivariant layer.

The oracles below are the earlier tuple-based implementations: subgroups
as the cyclic subgroups closed under pairwise joins, conjugacy classes,
subconjugacy and normalisers from conjugating permutation tuples, coset
actions and the untwisting check over (g, x) pairs of permutations and
points, and rank by Gaussian elimination over Fractions.  Every group is
compared after a seeded relabelling of its points, which changes every
permutation (and so the element order) but none of the structure.
"""

import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dualkit.equivariant import rep as rep_module
from dualkit.equivariant import (REP_PRESETS, InvalidAction,
                                 NonIntegralAverage, Representation,
                                 RepresentationError,
                                 all_subgroups, coset_action,
                                 enumerate_subgroup_classes, fixed_dim,
                                 fixed_projector_rank, generated_subgroup,
                                 get_group, left_translation_action,
                                 p_identity, p_inv, p_mul, perm_group,
                                 reduced_permutation_representation,
                                 transitive_actions, untwisting_check,
                                 validate_action, weyl_group)
from dualkit.equivariant.rep import from_fractions, mat_rank
from dualkit.introws import echelon, mul_pairs

PRESETS = ["c2", "c4", "s3", "d4", "q8", "a4"]
EXTRA = {
    "s4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "d6": (6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "a5": (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
    "s4xc2": (6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5),
                  (0, 1, 2, 3, 5, 4)]),
}
GROUPS = PRESETS + list(EXTRA)


def relabelled(name: str, seed: int = 1):
    """The group with its points renamed by a seeded permutation."""
    if name in EXTRA:
        degree, gens = EXTRA[name]
    else:
        G = get_group(name)
        degree, gens = G.degree, G.generators
    sigma = list(range(degree))
    random.Random(f"{name}-{seed}").shuffle(sigma)
    sigma = tuple(sigma)
    return perm_group(degree, [p_mul(sigma, p_mul(g, p_inv(sigma)))
                               for g in gens])


# ------------------------------------------------------------------ oracles

def oracle_all_subgroups(G):
    """Every subgroup: cyclic subgroups closed under pairwise join,
    semi-naively: a round joins only the pairs with a subgroup found in
    the round before, since every other pair was joined already."""
    key = lambda h: tuple(sorted(h))  # noqa: E731
    found = {generated_subgroup(G, [g]) for g in G.elements}
    frontier = found
    while frontier:
        new = set()
        pool = sorted(found, key=key)
        for a in sorted(frontier, key=key):
            for b in pool:
                if a < b or b < a or a == b:
                    continue
                j = generated_subgroup(G, tuple(a) + tuple(b))
                if j not in found:
                    new.add(j)
        found |= new
        frontier = new
    return sorted(found, key=lambda h: (len(h), tuple(sorted(h))))


def oracle_conjugate(H, g):
    gi = p_inv(g)
    return frozenset(p_mul(g, p_mul(h, gi)) for h in H)


def oracle_normalizer(G, H):
    return frozenset(g for g in G.elements if oracle_conjugate(H, g) == H)


def oracle_poset(G, subgroups):
    """(classes, leq, weyl orders, Weyl groups) from tuple arithmetic."""
    key = lambda h: (len(h), tuple(sorted(h)))  # noqa: E731
    remaining = set(subgroups)
    classes = []
    while remaining:
        H = min(remaining, key=key)
        orbit = {oracle_conjugate(H, g) for g in G.elements}
        classes.append(tuple(sorted(orbit, key=key)))
        remaining -= orbit
    classes.sort(key=lambda cl: key(cl[0]))
    # a class is the set of all conjugates of its representative
    leq = tuple(tuple(any(ci[0] <= K for K in cj) for cj in classes)
                for ci in classes)
    weyl = tuple(len(oracle_normalizer(G, cl[0])) // len(cl[0])
                 for cl in classes)
    groups = []
    for cl in classes:
        H = cl[0]
        reps, covered = [], set()
        for g in sorted(oracle_normalizer(G, H)):
            if g not in covered:
                reps.append(g)
                covered |= {p_mul(g, h) for h in H}
        groups.append((len(reps), tuple(reps)))
    return tuple(classes), leq, weyl, groups


def oracle_validate_action(G, action):
    if set(action) != set(G.elements):
        raise InvalidAction("table does not cover the group exactly")
    sizes = {len(v) for v in action.values()}
    if len(sizes) != 1:
        raise InvalidAction("rows have different lengths")
    m = sizes.pop()
    for v in action.values():
        if sorted(v) != list(range(m)):
            raise InvalidAction("row is not a permutation of the points")
    if action[p_identity(G.degree)] != tuple(range(m)):
        raise InvalidAction("identity does not act trivially")
    for g in G.elements:
        for h in G.elements:
            if tuple(action[g][action[h][x]] for x in range(m)) != \
                    action[p_mul(g, h)]:
                raise InvalidAction("not associative with the group law")
    return m


def oracle_coset_action(G, H):
    cosets, seen = [], set()
    for g in G.elements:
        c = frozenset(p_mul(g, h) for h in H)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    index = {e: i for i, c in enumerate(cosets) for e in c}
    return {g: tuple(index[p_mul(g, min(c))] for c in cosets)
            for g in G.elements}


def oracle_untwisting_check(G, action):
    m = oracle_validate_action(G, action)

    def phi(g, x):
        return g, action[g][x]

    def psi(g, x):
        return g, action[p_inv(g)][x]

    pairs = [(g, x) for g in G.elements for x in range(m)]
    for g, x in pairs:
        if psi(*phi(g, x)) != (g, x) or phi(*psi(g, x)) != (g, x):
            return False
    for h in G.elements:
        for g, x in pairs:
            gd, xd = phi(g, x)
            if phi(p_mul(h, g), x) != (p_mul(h, gd), action[h][xd]):
                return False
    return True


def oracle_rank(rows) -> int:
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [v - c * p for v, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def frac_product(a, b) -> tuple:
    """a*b for square matrices over Fractions, row by row, skipping the
    zero entries of a and of b."""
    out = []
    for arow in a:
        acc = [Fraction(0)] * len(arow)
        for x, brow in zip(arow, b):
            if x:
                acc = [s + x * e if e else s for s, e in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def frac_inverse(m) -> list:
    """The inverse of an invertible square Fraction matrix, or None for a
    singular one, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [v - c * p for v, p in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def oracle_representation(G, dim, gen_matrices) -> tuple:
    """(generators, matrices by element) as the earlier Representation
    found them: every entry a Fraction, and the matrices by a
    breadth-first walk from the identity along the generators on
    permutation tuples, one Fraction product per edge e -> g e, each
    compared with the matrix already found for g e."""
    gens = tuple(tuple(tuple(Fraction(v) for v in row) for row in m)
                 for m in gen_matrices)
    identity = p_identity(G.degree)
    mats = {identity: tuple(tuple(Fraction(int(i == j)) for j in range(dim))
                            for i in range(dim))}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g, mg in zip(G.generators, gens):
                f, m = p_mul(g, e), frac_product(mg, mats[e])
                if f not in mats:
                    mats[f] = m
                    nxt.append(f)
                else:
                    assert mats[f] == m, "not a homomorphism"
        frontier = nxt
    return gens, mats


def oracle_fixed_dim(mats, H) -> Fraction:
    """The character average over H, as a Fraction."""
    return sum((sum(mats[tuple(h)][i][i] for i in range(len(mats[tuple(h)])))
                for h in H), Fraction(0)) / len(H)


def cauchy_frobenius(perms) -> int:
    """Orbits of a permutation group given by its elements: the average
    number of fixed points."""
    perms = list(perms)
    fixed = sum(sum(1 for i, j in enumerate(p) if i == j) for p in perms)
    assert fixed % len(perms) == 0
    return fixed // len(perms)


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", GROUPS)
def test_lattice_matches_pairwise_join_oracle(name):
    G = relabelled(name)
    subgroups = oracle_all_subgroups(G)
    assert all_subgroups(G) == subgroups
    classes, leq, weyl, groups = oracle_poset(G, subgroups)
    poset = enumerate_subgroup_classes(G)
    assert poset.classes == classes
    assert poset.leq == leq
    assert poset.weyl_orders == weyl
    assert [weyl_group(poset, i) for i in range(poset.n)] == groups


@pytest.mark.parametrize("name", GROUPS)
def test_untwisting_matches_tuple_oracle(name):
    G = relabelled(name)
    poset = enumerate_subgroup_classes(G)
    actions = transitive_actions(G, poset)
    assert actions == [oracle_coset_action(G, poset.representative(i))
                       for i in range(poset.n)]
    actions.append(left_translation_action(G))
    for action in actions:
        assert untwisting_check(G, action) is \
            oracle_untwisting_check(G, action) is True
        assert validate_action(G, action) == oracle_validate_action(
            G, action)


def test_corrupted_action_table_rejected():
    G = relabelled("a5")
    H = enumerate_subgroup_classes(G).representative(3)
    action = coset_action(G, H)
    # swap the rows of two non-identity elements: every row is still a
    # permutation and the identity still acts trivially
    a, b = sorted(action)[1], sorted(action)[-1]
    assert action[a] != action[b]
    action[a], action[b] = action[b], action[a]
    for check in (untwisting_check, oracle_untwisting_check,
                  validate_action, oracle_validate_action):
        with pytest.raises(InvalidAction):
            check(G, action)


def corrupted(action, rng):
    """Seeded corruptions of an action table that keep every row a
    permutation: two rows swapped, and one row with two points
    transposed, four times each."""
    keys = sorted(action)
    m = len(action[keys[0]])
    out = []
    for _ in range(4):
        bad = dict(action)
        a, b = rng.sample(keys, 2)
        bad[a], bad[b] = bad[b], bad[a]
        out.append(bad)
        bad = dict(action)
        g = rng.choice(keys)
        x, y = rng.sample(range(m), 2)
        row = list(bad[g])
        row[x], row[y] = row[y], row[x]
        bad[g] = tuple(row)
        out.append(bad)
    return out


def outcome(check, G, action):
    try:
        return check(G, action)
    except InvalidAction:
        return InvalidAction


@pytest.mark.parametrize("name", GROUPS)
def test_corrupted_tables_match_the_oracles(name):
    G = relabelled(name)
    actions = transitive_actions(G, enumerate_subgroup_classes(G))
    actions.append(left_translation_action(G))
    rng = random.Random(f"corrupt-{name}")
    verdicts = set()
    for action in actions:
        if len(action[G.elements[0]]) < 2:
            continue        # one point: nothing to swap or transpose
        for bad in corrupted(action, rng):
            want = outcome(oracle_validate_action, G, bad)
            assert outcome(validate_action, G, bad) == want
            want = outcome(oracle_untwisting_check, G, bad)
            assert outcome(untwisting_check, G, bad) == want
            verdicts.add(want)
    assert InvalidAction in verdicts


def test_skipping_the_last_generator_misses_a_corruption():
    """Mutant check: the generator checks see a corruption only through
    every generator.  In the left translation action of S4, swapping the
    rows of a and a s, with s the first generator (a transposition), is
    consistent with s, since (a s) s = a.  Only the last generator, a
    4-cycle, exposes it."""
    G = relabelled("s4")
    s, _ = G.generators
    a = next(g for g in G.elements if g not in (p_identity(4), s))
    bad = left_translation_action(G)
    b = p_mul(a, s)
    bad[a], bad[b] = bad[b], bad[a]
    for check in (oracle_validate_action, oracle_untwisting_check,
                  validate_action, untwisting_check):
        with pytest.raises(InvalidAction):
            check(G, bad)
    # a PermGroup with the last generator dropped is the order-2 group it
    # generates, so the mutant keeps the elements and table of S4
    assert dataclasses.replace(G, generators=(s,)).elements == \
        (p_identity(4), s)
    mutant = SimpleNamespace(elements=G.elements, generators=(s,),
                             table=G.table)
    assert validate_action(mutant, bad) == 24
    assert untwisting_check(mutant, bad) is True


@pytest.mark.parametrize("name", GROUPS)
def test_fixed_dims_match_orbit_counts(name):
    G = relabelled(name)
    poset = enumerate_subgroup_classes(G)
    translations = left_translation_action(G)
    for rep_name, make in REP_PRESETS.items():
        rep = make(G)
        for i in range(poset.n):
            H = poset.representative(i)
            if rep_name == "trivial":
                want = 1
            elif rep_name in ("permutation", "standard"):
                want = cauchy_frobenius(H)
            else:
                want = cauchy_frobenius(translations[h] for h in H)
            if rep_name in ("standard", "reduced-regular"):
                want -= 1
            assert fixed_dim(rep, H) == fixed_projector_rank(rep, H) == want


ROUNDTRIP_P = [[Fraction(1, 2), Fraction(1, 3)],
               [Fraction(-2, 5), Fraction(3)]]


def test_non_integral_representation_json_roundtrip():
    G = get_group("s3")
    std = reduced_permutation_representation(G)
    P = ROUNDTRIP_P
    det = P[0][0] * P[1][1] - P[0][1] * P[1][0]
    P_inv = [[P[1][1] / det, -P[0][1] / det], [-P[1][0] / det, P[0][0] / det]]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    mats = [mul(mul(P, m), P_inv) for m in std.gen_matrices]
    rep = Representation(G, 2, mats)
    obj = rep.to_json()
    assert any("/" in v for m in obj["matrices"] for row in m for v in row)
    back = Representation.from_json(G, obj)
    assert back.gen_matrices == rep.gen_matrices
    assert back.to_json() == obj
    for g in G.elements:
        assert back.character(g) == rep.character(g) == std.character(g)
        assert back.matrix(g) == rep.matrix(g)
        assert mul(P_inv, mul(rep.matrix(g), P)) == \
            [list(r) for r in std.matrix(g)]
    poset = enumerate_subgroup_classes(G)
    for i in range(poset.n):
        H = poset.representative(i)
        assert fixed_dim(back, H) == fixed_projector_rank(back, H) == \
            fixed_dim(std, H)


def test_mat_rank_matches_fraction_elimination():
    rng = random.Random(3)
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                  for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        m = [[sum(rng.randint(-2, 2) * b[j] for b in basis)
              for j in range(cols)] for _ in range(rows)]
        if not m:
            continue
        assert mat_rank(from_fractions(m)) == oracle_rank(m)


def repeated_row_cases() -> list:
    """Matrices whose rows repeat: seeded rows of Fractions drawn with
    repetition, and the projector sums over the elements of H of the
    permutation matrices of a group's nontrivial subgroups H, whose rows
    repeat once per H-orbit."""
    rng = random.Random(4)
    cases = []
    for _ in range(200):
        cols = rng.randint(1, 6)
        pool = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        cases.append([list(rng.choice(pool))
                      for _ in range(len(pool) + rng.randint(1, 4))])
    for name in ("s3", "d4", "a4", "s4"):
        G = relabelled(name)
        cases += [[[sum(h[j] == i for h in H) for j in range(G.degree)]
                   for i in range(G.degree)]
                  for H in all_subgroups(G) if len(H) > 1]
    return cases


def rank_mismatches(rank) -> list:
    """The repeated-row cases on which rank (of a (rows, den) matrix)
    and the Fraction elimination disagree."""
    return [m for m in repeated_row_cases()
            if rank(from_fractions(m)) != oracle_rank(m)]


def test_mat_rank_on_repeated_rows():
    cases = repeated_row_cases()
    assert all(len(set(map(tuple, m))) < len(m) for m in cases)
    assert rank_mismatches(mat_rank) == []


def test_mat_rank_dropping_a_distinct_row_fails():
    def mutant(a):
        rows = list(dict.fromkeys(a[0]))[:-1]
        return echelon(rows, len(a[0][0]))
    assert rank_mismatches(mutant) != []


def test_zero_dimensional_representation():
    # the standard representation of the trivial group of degree 1
    rep = reduced_permutation_representation(perm_group(1, [(0,)]))
    assert rep.dim == 0
    assert fixed_dim(rep, [(0,)]) == fixed_projector_rank(rep, [(0,)]) == 0


def test_negative_dimension_is_rejected():
    with pytest.raises(RepresentationError, match="negative"):
        Representation(perm_group(0, []), -1, [])
    # of degree 0 the standard representation is 0-dimensional
    G = perm_group(0, [])
    rep = reduced_permutation_representation(G)
    assert rep.dim == 0
    assert fixed_dim(rep, G.elements) == \
        fixed_projector_rank(rep, G.elements) == 0


@pytest.mark.parametrize("character, shown", [((1, 2), "1/2"), ((-2, 1), "-2"),
                                              ((-3, 2), "-3/2")])
def test_non_integral_average_names_the_average(character, shown):
    # no homomorphism has such a character, so it is set by hand
    G = get_group("c2")
    rep = REP_PRESETS["trivial"](G)
    rep._character = [character] * G.order
    with pytest.raises(NonIntegralAverage, match=(
            f"^character average {shown} is not a nonnegative integer$")):
        fixed_dim(rep, G.elements)


def test_projector_rank_never_reads_the_character():
    G = relabelled("s4")
    poset = enumerate_subgroup_classes(G)
    subgroups = [poset.representative(i) for i in range(poset.n)]
    rep = REP_PRESETS["reduced-regular"](G)
    want = [fixed_dim(rep, H) for H in subgroups]
    rep._character = None
    assert [fixed_projector_rank(rep, H) for H in subgroups] == want


# ------------------------------------------ representations against the oracle

def oracle_mismatches(G, dim, gen_matrices) -> list:
    """Where Representation(G, dim, gen_matrices) differs from
    ``oracle_representation``: its Fraction view of the generators, the
    matrix and character of each element, and ``rep.fixed_dim`` against
    the Fraction average on a representative of each class."""
    gens, mats = oracle_representation(G, dim, gen_matrices)
    try:
        rep = Representation(G, dim, gen_matrices)
    except RepresentationError as exc:
        return [f"rejected: {exc}"]
    bad = []
    view = rep.gen_matrices
    if view != gens or any(type(v) is not Fraction
                           for m in view for row in m for v in row):
        bad.append("gen_matrices")
    for g, m in mats.items():
        if rep.matrix(g) != m:
            bad.append(("matrix", g))
        chi = rep.character(g)
        if type(chi) is not Fraction or chi != sum(m[i][i]
                                                   for i in range(dim)):
            bad.append(("character", g))
    poset = enumerate_subgroup_classes(G)
    for i in range(poset.n):
        H = poset.representative(i)
        try:
            got = rep_module.fixed_dim(rep, H)
        except NonIntegralAverage:
            got = None
        if type(got) is not int or got != oracle_fixed_dim(mats, H):
            bad.append(("fixed_dim", i))
    return bad


def preset_input(G, make) -> tuple:
    """(dim, generator matrices of ints) of a preset representation."""
    rep = make(G)
    assert all(v.denominator == 1 for m in rep.gen_matrices for row in m
               for v in row)
    return rep.dim, [[[int(v) for v in row] for row in m]
                     for m in rep.gen_matrices]


def conjugated(mats, P) -> list:
    """P m P^-1 for each matrix m, over Fractions."""
    P_inv = frac_inverse(P)
    return [frac_product(frac_product(P, m), P_inv) for m in mats]


def rational_conjugates(count: int, seed: int) -> list:
    """count cases (G, dim, matrices): a preset representation of
    dimension 2 to 6 of a group of GROUPS, conjugated by a seeded
    rational matrix so that some generator has den != 1."""
    rng = random.Random(seed)
    pool = []
    for name in GROUPS:
        G = relabelled(name)
        for make in REP_PRESETS.values():
            dim, mats = preset_input(G, make)
            if 2 <= dim <= 6:
                pool.append((G, dim, mats))
    cases = []
    while len(cases) < count:
        G, dim, mats = rng.choice(pool)
        P = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
              for _ in range(dim)] for _ in range(dim)]
        if frac_inverse(P) is None:
            continue
        out = conjugated(mats, P)
        if any(v.denominator != 1 for m in out for row in m for v in row):
            cases.append((G, dim, out))
    return cases


@pytest.mark.parametrize("name", GROUPS)
def test_presets_match_the_fraction_oracle(name):
    G = relabelled(name)
    for make in REP_PRESETS.values():
        dim, mats = preset_input(G, make)
        assert oracle_mismatches(G, dim, mats) == []


def test_roundtrip_conjugate_matches_the_fraction_oracle():
    G = get_group("s3")
    _, mats = preset_input(G, reduced_permutation_representation)
    mats = conjugated(mats, ROUNDTRIP_P)
    assert any(v.denominator != 1 for m in mats for row in m for v in row)
    assert oracle_mismatches(G, 2, mats) == []


def test_rational_conjugates_match_the_fraction_oracle():
    for G, dim, mats in rational_conjugates(50, seed=20):
        assert oracle_mismatches(G, dim, mats) == []


def mixed_entries(mats, rng) -> list:
    """Each entry as an int where it is integral, a Fraction or a string,
    chosen by rng."""
    def mix(v):
        v = Fraction(v)
        k = rng.randrange(3)
        if k == 0 and v.denominator == 1:
            return int(v)
        return str(v) if k == 1 else v
    return [[[mix(v) for v in row] for row in m] for m in mats]


def test_mixed_entry_types_match_the_fraction_oracle():
    rng = random.Random(5)
    cases = rational_conjugates(10, seed=21)
    cases += [(G, *preset_input(G, make)) for G in (relabelled("s4"),)
              for make in REP_PRESETS.values()]
    kinds = set()
    for G, dim, mats in cases:
        mixed = mixed_entries(mats, rng)
        kinds |= {type(v) for m in mixed for row in m for v in row}
        assert oracle_mismatches(G, dim, mixed) == []
    assert kinds == {int, Fraction, str}


def drop_last_pair(pairs, b, ncols):
    """Mutant product: each row of the left factor loses its last
    nonzero entry."""
    return mul_pairs([p[:-1] for p in pairs], b, ncols)


def fixed_dim_ignoring_den(rep, H):
    """Mutant fixed_dim: the integer traces averaged as if every den
    were 1."""
    index = rep.group.table.index
    total = sum(rep._character[index[tuple(h)]][0] for h in H)
    avg, rem = divmod(total, len(H))
    if rem or avg < 0:
        raise NonIntegralAverage(f"character average {total}/{len(H)}")
    return avg


@pytest.mark.parametrize("target, mutant", [
    ("mul_pairs", drop_last_pair), ("fixed_dim", fixed_dim_ignoring_den)])
def test_mutants_fail_the_fraction_oracle(target, mutant, monkeypatch):
    cases = rational_conjugates(50, seed=20)
    monkeypatch.setattr(rep_module, target, mutant)
    assert any(oracle_mismatches(*case) for case in cases)
