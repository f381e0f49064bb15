"""Time the largest equivariant cases in one fresh interpreter.

Run from the repository root:

    python3 scripts/equivariant_timings.py

The group is S4 x C2 acting on 6 points (order 48, 98 subgroups in 33
conjugacy classes).  The script times its subgroup-conjugacy lattice and
its regular representation (extension over the Cayley graph with every
edge verified), each with a cold Cayley table, then generating and
validating the collapse certificate on that lattice.  It prints the
times with the lattice's size and the certificate's length, and exits
with status 1 if any step takes a second or more or the certificate
fails validation.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dualkit.equivariant import (enumerate_subgroup_classes,  # noqa: E402
                                 generate_collapse_certificate, perm_group,
                                 regular_representation,
                                 validate_collapse_certificate)

S4_X_C2 = (6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])


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
    return 0 if slowest < 1.0 and report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
