"""Workload ``equivariant``: subgroup lattices, Weyl groups, fixed-point
dimensions, collapse certificates and the untwisting bijection.

The groups are the six presets plus S4, D6 and A5.  The seed relabels the
points of each group by a random permutation, which changes every element
and generator but none of the counts the checks rely on.  A pass first
builds each group's lattice (phase 0); the other jobs of the pass use those
lattices.  The regular representation and its reduced form are built only
up to order 12: for S4 the two take 11 s, which would leave room for one
pass per run instead of the three whose per-job median times the
metrics use.  No job calls ``exactlin``.
"""

from __future__ import annotations

import dataclasses
import random

import dualkit.equivariant as eq

from common import Job
import refs

EXTRA = {
    "s4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "d6": (6, [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
    "a5": (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
}
# (conjugacy classes, subgroups), as published
SUBGROUP_COUNTS = {"c2": (2, 2), "c4": (3, 3), "s3": (4, 6), "d4": (8, 10),
                   "q8": (6, 6), "a4": (5, 10), "s4": (11, 30),
                   "d6": (10, 16), "a5": (9, 59)}
REGULAR_MAX_ORDER = 12
CERT_CORRUPTIONS = ("drop-step", "wrong-class", "final-fact")


@dataclasses.dataclass
class Inputs:
    groups: dict         # name -> PermGroup (relabelled)
    class_counts: dict   # name -> number of conjugacy classes
    reps: list           # (group name, representation preset)
    corruption: dict     # group name -> certificate corruption
    posets: dict         # filled by the lattice jobs of each pass


def _relabel(rng, degree, gens):
    sigma = list(range(degree))
    rng.shuffle(sigma)
    inv = refs.inverse_perm(sigma)
    return [refs.compose_perm(sigma, refs.compose_perm(g, inv)) for g in gens]


def build(seed: int, workdir=None) -> Inputs:
    rng = random.Random(seed)
    groups = {}
    for name in list(eq.GROUP_PRESETS) + list(EXTRA):
        if name in EXTRA:
            degree, gens = EXTRA[name]
        else:
            preset = eq.get_group(name)
            degree, gens = preset.degree, preset.generators
        gens = _relabel(rng, degree, gens)
        rng.shuffle(gens)
        groups[name] = eq.perm_group(degree, gens)
    reps = [(g, r) for g in groups for r in eq.REP_PRESETS
            if "regular" not in r or groups[g].order <= REGULAR_MAX_ORDER]
    corruption = {g: rng.choice(CERT_CORRUPTIONS) for g in groups}
    counts = {g: SUBGROUP_COUNTS[g][0] for g in groups}
    return Inputs(groups, counts, reps, corruption, {})


def _lattice(inputs, name):
    poset = eq.enumerate_subgroup_classes(inputs.groups[name])
    inputs.posets[name] = poset
    return poset


def _fixdims(inputs, name, rep_name):
    poset = inputs.posets[name]
    rep = eq.REP_PRESETS[rep_name](inputs.groups[name])
    return rep.dim, [(eq.fixed_dim(rep, poset.representative(i)),
                      eq.fixed_projector_rank(rep, poset.representative(i)))
                     for i in range(poset.n)]


def _certificate(inputs, name):
    poset = inputs.posets[name]
    cert = eq.generate_collapse_certificate(poset, "reduced-regular")
    return cert, eq.validate_collapse_certificate(cert, poset)


def _untwist(inputs, name, i):
    G = inputs.groups[name]
    action = eq.coset_action(G, inputs.posets[name].representative(i))
    return action, eq.untwisting_check(G, action)


def jobs(inputs: Inputs) -> list:
    out = [Job(("lattice", g), "lattice", lambda g=g: _lattice(inputs, g))
           for g in inputs.groups]
    for g, n in inputs.class_counts.items():
        out += [Job(("weyl", g, i), "weyl",
                    lambda g=g, i=i: eq.weyl_group(inputs.posets[g], i),
                    phase=1) for i in range(n)]
        out += [Job(("untwist", g, i), "untwist",
                    lambda g=g, i=i: _untwist(inputs, g, i), phase=1)
                for i in range(n)]
        out.append(Job(("cert", g), "cert",
                       lambda g=g: _certificate(inputs, g), phase=1))
    out += [Job(("fixdim", g, r), "fixdim",
                lambda g=g, r=r: _fixdims(inputs, g, r), phase=1)
            for g, r in inputs.reps]
    return out


# ------------------------------------------------------------------ checks

def _conj(g, H):
    gi = refs.inverse_perm(g)
    return {refs.compose_perm(g, refs.compose_perm(h, gi)) for h in H}


def _subconjugate(elements, H, K) -> bool:
    return len(K) % len(H) == 0 and any(set(H) <= _conj(g, K)
                                        for g in elements)


def _expected_fixdim(rep_name, G, elements, H) -> tuple:
    """(dimension, dim V^H) from orbit counting on the permuted points."""
    if rep_name == "trivial":
        return 1, 1
    if rep_name in ("permutation", "standard"):
        n, orbits = G.degree, refs.orbit_count(G.degree, H)
    else:
        index = {e: k for k, e in enumerate(elements)}
        n = len(elements)
        orbits = refs.orbit_count(n, [
            [index[refs.compose_perm(h, e)] for e in elements] for h in H])
    if rep_name in ("standard", "reduced-regular"):
        return n - 1, orbits - 1
    return n, orbits


def _corrupt(cert, kind):
    if kind == "drop-step":
        return dataclasses.replace(cert, steps=cert.steps[:-1])
    if kind == "final-fact":
        return dataclasses.replace(cert, final_fact="F(S^1) = 0")
    steps = list(cert.steps)
    k = next(i for i, s in enumerate(steps) if s.rule == eq.COFIBER_LOCAL)
    bad = max(steps[k].upset)
    steps[k] = dataclasses.replace(steps[k], cls=bad)
    return dataclasses.replace(cert, steps=tuple(steps))


def check(inputs: Inputs, outputs: dict) -> list:
    errors = []

    def err(tag, key, msg):
        errors.append(f"[{tag}] {key}: {msg}")

    elements = {g: sorted(refs.closure(G.generators, G.degree))
                for g, G in inputs.groups.items()}
    bad_lattice = set()     # later checks need a correct lattice
    for g, G in inputs.groups.items():
        poset = outputs.get(("lattice", g))
        if poset is None:
            continue
        order = len(elements[g])
        classes = [len(c) for c in poset.classes]
        if (len(classes), sum(classes)) != SUBGROUP_COUNTS[g]:
            err("subgroups", g, f"{len(classes)} classes / {sum(classes)} "
                f"subgroups, published {SUBGROUP_COUNTS[g]}")
        for i, cl in enumerate(poset.classes):
            H = cl[0]
            if refs.closure(list(H), G.degree) != set(H):
                err("subgroups", (g, i), "representative is not a subgroup")
            if len(cl) * len(H) * poset.weyl_orders[i] != order:
                err("subgroups", (g, i), "|G| != class size * |H| * Weyl")
        if errors and errors[-1].startswith("[subgroups]"):
            bad_lattice.add(g)
            continue
        for i in range(poset.n):
            res = outputs.get(("weyl", g, i))
            if res is None:
                continue
            w, reps = res
            H = poset.representative(i)
            cosets = {frozenset(refs.compose_perm(r, h) for h in H)
                      for r in reps}
            if w != poset.weyl_orders[i] or len(reps) != w or \
                    len(cosets) != w or \
                    any(_conj(r, H) != set(H) for r in reps):
                err("weyl", (g, i), "not a transversal of N(H)/H")
            res = outputs.get(("untwist", g, i))
            if res is not None:
                action, ok = res
                m = len(next(iter(action.values())))
                if not ok or m * len(H) != order or refs.orbit_count(
                        m, list(action.values())) != 1:
                    err("actions", (g, i), "coset action is not transitive of "
                        "size |G:H| or fails the untwisting check")
        res = outputs.get(("cert", g))
        if res is not None:
            cert, report = res
            if not report or cert.removal_count() != poset.n:
                err("certificate", g, "generated certificate does not "
                    "validate")
            removed = [s.cls for s in cert.steps if s.rule == eq.SMASH_REMOVE]
            reps = [poset.representative(i) for i in range(poset.n)]
            for k, h in enumerate(removed):
                if any(_subconjugate(elements[g], reps[j], reps[h])
                       for j in removed[k + 1:] if j != h):
                    err("certificate", g, f"class {h} removed before a class "
                        "below it")
            bad = _corrupt(cert, inputs.corruption[g])
            if eq.validate_collapse_certificate(bad, poset):
                err("certificate", g, "corrupted certificate accepted "
                    f"({inputs.corruption[g]})")
    for g, r in inputs.reps:
        res = outputs.get(("fixdim", g, r))
        poset = outputs.get(("lattice", g))
        if res is None or poset is None or g in bad_lattice:
            continue
        dim, rows = res
        for i, (d, rank) in enumerate(rows):
            want = _expected_fixdim(r, inputs.groups[g], elements[g],
                                    poset.representative(i))
            if (dim, d, rank) != (want[0], want[1], want[1]):
                err("fixdim", (g, r, i), f"dim {dim}, fixed {d}, rank {rank}; "
                    f"orbit count gives {want}")
    return errors
