"""Time the largest equivariant cases in one fresh interpreter.

Run from the repository root:

    python3 scripts/equivariant_timings.py

The group is S4 x C2 acting on 6 points (order 48, 98 subgroups in 33
conjugacy classes).  The script times its subgroup-conjugacy lattice and
its regular representation (extension over the Cayley graph with every
edge verified), each with a cold Cayley table, then generating and
validating the collapse certificate on that lattice.  It prints the
times with the lattice's size and the certificate's length.

It then prints a scaling series for ``untwisting_check``, which checks
the action axiom on generators only (the bijection and its equivariance
follow from the axiom): for D4 (8), S4
(24), S4 x C2 (48) and A5 (60), the total time over every transitive
G-set plus the left translation action, beside the exhaustive check over
all pairs (``oracle_untwisting_check`` in
``tests/test_equivariant_differential.py``) on the same tables.

Last it prints a representation series over the same four groups: for
the regular, reduced-regular and standard representations, the time to
build the representation (every Cayley edge verified), the total time of
``fixed_dim`` (the character average) over one subgroup of each
conjugacy class, and the total time of ``fixed_projector_rank`` (the
rank of the summed matrices) over the same subgroups.

It exits with status 1 if any of the first four steps takes a second or
more, the certificate fails validation, ``untwisting_check`` and the
oracle disagree on any table, or ``fixed_dim`` and
``fixed_projector_rank`` disagree on any class.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dualkit.equivariant import (REP_PRESETS,  # noqa: E402
                                 enumerate_subgroup_classes, fixed_dim,
                                 fixed_projector_rank,
                                 generate_collapse_certificate, get_group,
                                 left_translation_action, perm_group,
                                 regular_representation, transitive_actions,
                                 untwisting_check,
                                 validate_collapse_certificate)
from test_equivariant_differential import (  # noqa: E402
    oracle_untwisting_check)

S4_X_C2 = (6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])
SERIES = {
    "D4": None,
    "S4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    "S4 x C2": S4_X_C2,
    "A5": (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
}


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main() -> int:
    poset, lattice_s = timed(lambda: enumerate_subgroup_classes(
        perm_group(*S4_X_C2)))
    rep, rep_s = timed(lambda: regular_representation(perm_group(*S4_X_C2)))
    print(f"S4 x C2 lattice: {poset.n} classes, "
          f"{sum(len(c) for c in poset.classes)} subgroups, {lattice_s:.3f} s")
    print(f"S4 x C2 regular representation: dimension {rep.dim}, "
          f"{rep_s:.3f} s")
    cert, generate_s = timed(lambda: generate_collapse_certificate(
        poset, "reduced-regular"))
    report, validate_s = timed(lambda: validate_collapse_certificate(
        cert, poset))
    print(f"S4 x C2 collapse certificate: {len(cert.steps)} steps, "
          f"generated in {generate_s:.3f} s, validated in {validate_s:.3f} s"
          f" ({'ok' if report.ok else report.message})")
    slowest = max(lattice_s, rep_s, generate_s, validate_s)
    untwist_ok = untwist_series()
    fixdim_ok = representation_series()
    return 0 if slowest < 1.0 and report.ok and untwist_ok and fixdim_ok \
        else 1


def untwist_series() -> bool:
    """Print the untwisting series; True iff every verdict agrees."""
    agree = True
    print("untwisting check, all transitive G-sets plus left translation:")
    for name, spec in SERIES.items():
        G = get_group("d4") if spec is None else perm_group(*spec)
        actions = transitive_actions(G, enumerate_subgroup_classes(G))
        actions.append(left_translation_action(G))
        fast, fast_s = timed(lambda: [untwisting_check(G, a)
                                      for a in actions])
        slow, slow_s = timed(lambda: [oracle_untwisting_check(G, a)
                                      for a in actions])
        agree = agree and fast == slow
        print(f"  {name:8} |G| = {G.order:2}, {len(actions):2} tables: "
              f"{fast_s * 1e3:8.2f} ms generators, {slow_s * 1e3:8.1f} ms "
              f"exhaustive oracle{'' if fast == slow else ', VERDICTS DIFFER'}")
    return agree


def representation_series() -> bool:
    """Print the representation series; True iff ``fixed_dim`` and
    ``fixed_projector_rank`` agree on every class."""
    agree = True
    print("representations: build, then fixed_dim and fixed_projector_rank "
          "over one subgroup per class:")
    for name, spec in SERIES.items():
        G = get_group("d4") if spec is None else perm_group(*spec)
        poset = enumerate_subgroup_classes(G)
        subgroups = [poset.representative(i) for i in range(poset.n)]
        for rep_name in ("regular", "reduced-regular", "standard"):
            rep, build_s = timed(lambda: REP_PRESETS[rep_name](G))
            dims, dim_s = timed(lambda: [fixed_dim(rep, H)
                                         for H in subgroups])
            ranks, rank_s = timed(lambda: [fixed_projector_rank(rep, H)
                                           for H in subgroups])
            agree = agree and dims == ranks
            print(f"  {name:8} {rep_name:15} dimension {rep.dim:2}: "
                  f"{build_s * 1e3:7.2f} ms build, {dim_s * 1e3:6.2f} ms "
                  f"fixed_dim, {rank_s * 1e3:7.2f} ms projector rank"
                  f"{'' if dims == ranks else ', DIMENSIONS DIFFER'}")
    return agree


if __name__ == "__main__":
    sys.exit(main())
