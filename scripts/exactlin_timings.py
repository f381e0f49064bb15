"""Print a scaling series for the exact linear algebra layer.

Run from the repository root:

    python3 scripts/exactlin_timings.py [repeats]

For n = 16, 24, 32 and 48 it times, each as the median of ``repeats``
calls (default 3) in this one interpreter:

- ``smith_normal_form``, the min-pivot SNF it replaced (``oracle_snf``
  in ``tests/test_exactlin_differential.py``) and ``invariant_factors``
  on a random n x n matrix with entries in [-9, 9] drawn row by row
  from ``Random(2)``;
- ``EvConst.cofiber`` of an endomorphism of the free object of rank n
  whose free part is U * D * V, with U and V products of 5n random
  elementary row operations and D the diagonal 1, ..., 1, 2, 6, 30, 210
  followed by two zeros (so the quotient's free part has two rows);
- ``left_null_basis_fp`` on a random n x n matrix over F_101 whose last
  quarter of rows are sums of two earlier rows;
- ``solve_right_int`` beside the Smith-normal-form solve it replaced
  (the oracle in ``tests/test_exactlin_differential.py``), on a*X = b
  for a unit lower-triangular a with entries in [-3, 3] below the
  diagonal (as the benchmark's solve-int inputs) and for a rank-deficient
  a = L*R through an inner dimension n - n/4, each with b = a*x for a
  random n x 2 matrix x, plus a random b that the deficient a cannot
  reach.

For the same n it times the integer row echelon ``introws.echelon``
beside the list loop it replaced (``oracle_echelon`` in
``tests/test_exactlin_differential.py``) on the two inputs where it
packs its rows: the cofiber's [F | I] for the free part F above, and the
Smith form's first [M | I] for the matrix M above.  It then sweeps the
switch point ``introws.PACKED_UPDATES`` over 4, 8, 16, 32 and 64 row
updates per row and prints the time of the cofibers and of the Smith
forms of all four sizes against the list loop alone.

For the same n it times ``left_kernel_int`` on the cofiber's free part
F above, which echelons F alone, logging its rounds, and replays the
log for the kernel rows, beside the echelon of [F | I] it replaced
(``oracle_left_kernel_int`` in ``tests/test_exactlin_differential.py``),
and prints both times and their ratio.

For n = 32, 64 and 128 and p = 2, 7, 1000003 and 999999999989 it
times ``rank_fp`` and ``left_null_basis_fp`` on an n x n matrix over
F_p whose last quarter of rows are sums of two earlier rows, once with
the packed F_p elimination ``introws._forward_fp`` and once with the
list loop it replaced (``oracle_forward_fp`` in
``tests/test_exactlin_differential.py``) in its place, under the name
``exactlin`` calls it by.

For n = 8, 16, 32, 64 and 128 it times the two row products of
``dualkit.introws``, ``mul_rows`` and ``mul_packed``, on n x n times
n x n integer matrices with entries in [-9, 9], dense and with about 10 %
of the entries nonzero, and prints the dispatch rule ``Matrix.mul``
applies between them.

For k = 0, 1, 2, 3 and 4 explicit primes it times, per call as the
best of ``repeats`` rounds of ``MODEL_CALLS`` calls, ``ev_morphism``
on the parts of a random endomorphism of the object of free rank 3
with dimension 2 at each of 2 and 5 among the first k primes of 2, 3, 5
and 7, its components given as F_p matrices at those k primes (3 and 7
are explicit only because the component there differs from the
reduction of the free part), beside the construct-then-check
path it replaced (``oracle_ev_morphism`` in
``tests/test_models_evconst.py``), and ``EvConst.compose`` of two such
endomorphisms.  It then times one ``idem.char_split``, best of
``repeats`` rounds of ten calls, of the object
of free rank 2 with dimensions 3, 1 and 0 at 2, 3 and 5 for m = 2, 6,
30 and 60.

It also prints the largest entry of the transforms U and V of both
SNFs and of the cofiber's free quotient, in decimal digits, and exits
with status 1 if the two SNF diagonals differ, U*m*V is not D,
``invariant_factors`` differs from the SNF diagonal, the cofiber's free
rank is not 2, the two solves disagree on whether a system has a
solution, a returned X does not satisfy a*X = b, the two row
products differ, the two echelons differ in a row or in the rank, a
switch point changes a Smith form or a cofiber, the two left kernels
differ in q or in the invariant factors, the two F_p eliminations
differ in a row, a pivot or a result, or ``ev_morphism`` and its oracle
build different morphisms.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dualkit.exactlin import (PACKED_NONZEROS,  # noqa: E402
                              PACKED_ROWS, NotInvertible, fp_matrix,
                              int_matrix, invariant_factors,
                              left_kernel_int, left_null_basis_fp, rank_fp,
                              smith_normal_form, solve_right_int)
from dualkit import exactlin, introws  # noqa: E402
from dualkit.introws import echelon, mul_packed, mul_rows  # noqa: E402
from dualkit import idem  # noqa: E402
from dualkit.models import EvConst, ev_morphism, ev_object  # noqa: E402
from test_exactlin_differential import (oracle_echelon,  # noqa: E402
                                        oracle_forward_fp,
                                        oracle_left_kernel_int, oracle_snf,
                                        oracle_solve_int, run_echelon,
                                        run_forward, with_identity)
from test_models_evconst import oracle_ev_morphism  # noqa: E402

SIZES = (16, 24, 32, 48)
SWITCHES = (4, 8, 16, 32, 64)
PRODUCT_SIZES = (8, 16, 32, 64, 128)
P = 101
FP_SIZES = (32, 64, 128)
FP_PRIMES = (2, 7, 1000003, 999999999989)
MODEL_PRIMES = (2, 3, 5, 7)
MODEL_CALLS = 500
CHAR_SPLIT_M = (2, 6, 30, 60)


def timed(fn, repeats):
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def digits(*matrices) -> int:
    return len(str(max((abs(e) for m in matrices for r in m.data for e in r),
                       default=0)))


def elementary_product(rng, n):
    """A product of 5n elementary row operations r_i += c * r_j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(5 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return int_matrix(u)


def cofiber_input(rng, n):
    diag = [1] * (n - 6) + [2, 6, 30, 210, 0, 0]
    d = int_matrix([[diag[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])
    free = elementary_product(rng, n).mul(d).mul(elementary_product(rng, n))
    return ev_morphism(ev_object(n), ev_object(n), free)


def fp_input(rng, n, p=P):
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n - n // 4)]
    while len(rows) < n:
        a, b = rng.sample(rows, 2)
        rows.append([(x + y) % p for x, y in zip(a, b)])
    return fp_matrix(p, rows)


def solve_inputs(rng, n):
    """(name, a, b) for the consistent and inconsistent systems above."""
    lower = int_matrix([[rng.randint(-3, 3) if j < i else int(i == j)
                         for j in range(n)] for i in range(n)])
    k = n - n // 4
    left, right = (int_matrix([[rng.randint(-3, 3) for _ in range(c)]
                               for _ in range(r)])
                   for r, c in ((n, k), (k, n)))
    deficient = left.mul(right)
    x = int_matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(n)])
    return [("lower", lower, lower.mul(x)),
            ("deficient", deficient, deficient.mul(x)),
            ("unreachable", deficient, x)]


def snf_and_cofiber_inputs(n):
    """(M, the cofiber's morphism, the generator that drew them) for the
    series at n."""
    rng = random.Random(2)
    m = int_matrix([[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(n)])
    return m, cofiber_input(rng, n), rng


def echelon_series(repeats) -> bool:
    ok = True
    print(f"\n{'n':>3} {'echelon of':>15} {'list loop':>10} {'packed':>10}"
          f"  ratio")
    for n in SIZES:
        m, f, _ = snf_and_cofiber_inputs(n)
        for name, rows in (("cofiber [F | I]", with_identity(f.free.data)),
                           ("snf [M | I]", with_identity(m.data))):
            want, list_s = timed(
                lambda: run_echelon(oracle_echelon, rows, n), repeats)
            got, packed_s = timed(lambda: run_echelon(echelon, rows, n),
                                  repeats)
            ok = ok and got == want
            print(f"{n:>3} {name:>15} {list_s * 1e3:>8.1f}ms "
                  f"{packed_s * 1e3:>8.1f}ms  {list_s / packed_s:>5.2f}"
                  + ("" if got == want else "  DIFFER"))
    return ok


def kernel_series(repeats) -> bool:
    """left_kernel_int, the echelon of F with the log replayed, against
    the echelon of [F | I] it replaced, on the cofibers' free parts."""
    ok = True
    print(f"\n{'n':>3} {'kernel rows':>11} {'[F | I]':>10} {'F, replay':>10}"
          f"  ratio")
    for n in SIZES:
        free = snf_and_cofiber_inputs(n)[1].free
        want, old_s = timed(lambda: oracle_left_kernel_int(free), repeats)
        got, new_s = timed(lambda: left_kernel_int(free), repeats)
        ok = ok and got == want
        print(f"{n:>3} {want[1].rows:>11} {old_s * 1e3:>8.1f}ms "
              f"{new_s * 1e3:>8.1f}ms  {old_s / new_s:>5.2f}"
              + ("" if got == want else "  DIFFER"))
    return ok


def switch_sweep(repeats) -> bool:
    """The cofibers and Smith forms of the series with the echelon's
    switch at each point of SWITCHES, against the list loop alone."""
    model = EvConst()
    inputs = [snf_and_cofiber_inputs(n) for n in SIZES]

    def run(kind):
        if kind == "snf":
            return [smith_normal_form(m) for m, _, _ in inputs]
        return [model.cofiber(f) for _, f, _ in inputs]
    default, ok = introws.PACKED_UPDATES, True
    print(f"\nswitch point (row updates per row), n = "
          f"{', '.join(map(str, SIZES))} together; list loop / packed")
    try:
        for kind in ("cofiber", "snf"):
            introws.PACKED_UPDATES = float("inf")
            want, list_s = timed(lambda: run(kind), repeats)
            cells = []
            for k in SWITCHES:
                introws.PACKED_UPDATES = k
                got, packed_s = timed(lambda: run(kind), repeats)
                ok = ok and got == want
                cells.append(f"{k}: x{list_s / packed_s:.2f}"
                             + ("" if got == want else " DIFFER"))
            print(f"{kind:>8} (list loop {list_s * 1e3:.0f}ms)  "
                  + "  ".join(cells))
    finally:
        introws.PACKED_UPDATES = default
    print(f"echelon switches at {default} row updates per row")
    return ok


def fp_series(repeats) -> bool:
    """rank_fp and left_null_basis_fp with the list loop in place of the
    packed F_p elimination, and with the packed one."""
    ok, packed = True, introws._forward_fp
    print(f"\n{'n':>4} {'p':>13} {'call':>18} {'list loop':>10} {'packed':>10}"
          f"  ratio")
    for n in FP_SIZES:
        for p in FP_PRIMES:
            m = fp_input(random.Random(5), n, p)
            for fn, rows in ((rank_fp, m.data),
                             (left_null_basis_fp, with_identity(m.data))):
                try:
                    exactlin._forward_fp = oracle_forward_fp
                    want, list_s = timed(lambda: fn(m), repeats)
                finally:
                    exactlin._forward_fp = packed
                got, packed_s = timed(lambda: fn(m), repeats)
                same = got == want and (
                    run_forward(packed, rows, n, p)
                    == run_forward(oracle_forward_fp, rows, n, p))
                ok = ok and same
                print(f"{n:>4} {p:>13} {fn.__name__:>18} "
                      f"{list_s * 1e3:>8.2f}ms {packed_s * 1e3:>8.2f}ms  "
                      f"{list_s / packed_s:>5.2f}"
                      + ("" if same else "  DIFFER"))
    return ok


def outcome(fn, a, b):
    try:
        return fn(a, b)
    except NotInvertible:
        return None


def solve_series(repeats) -> bool:
    ok = True
    print(f"\n{'n':>3} {'system':>11} {'solve_int':>10} {'snf solve':>10}"
          f"  solvable")
    for n in SIZES:
        for name, a, b in solve_inputs(random.Random(3), n):
            x, new_s = timed(lambda: outcome(solve_right_int, a, b), repeats)
            y, old_s = timed(lambda: outcome(oracle_solve_int, a, b), repeats)
            agree = (x is None) == (y is None) and (
                x is None or a.mul(x) == b)
            ok = ok and agree
            print(f"{n:>3} {name:>11} {new_s * 1e3:>8.2f}ms "
                  f"{old_s * 1e3:>8.2f}ms  {x is not None}"
                  + ("" if agree else "  DISAGREE"))
    return ok


def product_series(repeats) -> bool:
    ok = True
    print(f"\n{'n':>3} {'density':>7} {'mul_rows':>10} {'mul_packed':>10}"
          f"  ratio")
    rng = random.Random(4)
    for n in PRODUCT_SIZES:
        for density in (1.0, 0.1):
            a, b = ([[rng.randint(-9, 9) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            rows, rows_s = timed(lambda: mul_rows(a, b, n), repeats)
            packed, packed_s = timed(lambda: mul_packed(a, b, n), repeats)
            same = packed == [list(r) for r in rows]
            ok = ok and same
            print(f"{n:>3} {density:>7.0%} {rows_s * 1e3:>8.2f}ms "
                  f"{packed_s * 1e3:>8.2f}ms  {rows_s / packed_s:>5.2f}"
                  + ("" if same else "  DIFFER"))
    print(f"Matrix.mul uses mul_packed when its left factor has at least "
          f"{PACKED_ROWS} rows and at least {PACKED_NONZEROS} nonzero "
          f"entries per row on average, and mul_rows otherwise")
    return ok


def per_call(fn, repeats, calls=MODEL_CALLS):
    """fn() and the time per call of calls calls, best of repeats rounds
    (a few microseconds a call drown in the machine's noise, which only
    ever adds time)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best / calls


def model_parts(rng, x, k):
    """The free part and the components at the first k primes of
    MODEL_PRIMES of a random endomorphism of x."""
    free = int_matrix([[rng.randint(-9, 9) for _ in range(x.f)]
                       for _ in range(x.f)])
    return free, {p: fp_matrix(p, [[rng.randrange(p) for _ in range(x.dim(p))]
                                   for _ in range(x.dim(p))],
                               shape=(x.dim(p), x.dim(p)))
                  for p in MODEL_PRIMES[:k]}


def models_series(repeats) -> bool:
    """ev_morphism beside its oracle and EvConst.compose at 0-4
    explicit primes, then one idem.char_split per m."""
    model, ok = EvConst(), True
    print(f"\n{'primes':>6} {'ev_morphism':>12} {'oracle':>9} "
          f"{'compose':>9}  (per call)")
    for k in range(len(MODEL_PRIMES) + 1):
        rng = random.Random(6)
        x = ev_object(3, {p: 2 for p in (2, 5) if p in MODEL_PRIMES[:k]})
        free, comps = model_parts(rng, x, k)
        f = ev_morphism(x, x, free, comps)
        g = ev_morphism(x, x, *model_parts(rng, x, k))
        assert f.explicit_primes() == MODEL_PRIMES[:k]
        got, new_s = per_call(lambda: ev_morphism(x, x, free, comps), repeats)
        want, old_s = per_call(
            lambda: oracle_ev_morphism(x, x, free, comps), repeats)
        _, compose_s = per_call(lambda: model.compose(g, f), repeats)
        ok = ok and got == want
        print(f"{k:>6} {new_s * 1e6:>10.1f}us {old_s * 1e6:>7.1f}us "
              f"{compose_s * 1e6:>7.1f}us" + ("" if got == want else
                                             "  DIFFER"))
    obj = ev_object(2, {2: 3, 3: 1, 5: 0})
    print(f"\nchar_split of {obj}, per call")
    for m in CHAR_SPLIT_M:
        _, split_s = per_call(lambda: idem.char_split(model, m, obj),
                              repeats, calls=10)
        print(f"  m = {m:>2} {split_s * 1e3:>7.3f}ms")
    return ok


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    model = EvConst()
    ok = True
    print(f"{'n':>3} {'snf':>9} {'oracle':>9} {'inv.fact.':>9} "
          f"{'cofiber':>9} {'null_fp':>9}   U/V digits (oracle)  "
          f"quotient digits")
    for n in SIZES:
        m, f, rng = snf_and_cofiber_inputs(n)
        (u, d, v), snf_s = timed(lambda: smith_normal_form(m), repeats)
        (ou, od, ov), oracle_s = timed(lambda: oracle_snf(m), repeats)
        factors, inv_s = timed(lambda: invariant_factors(m), repeats)
        cof, cof_s = timed(lambda: model.cofiber(f), repeats)
        a = fp_input(rng, n)
        _, null_s = timed(lambda: left_null_basis_fp(a), repeats)
        diag = [d.data[i][i] for i in range(n) if d.data[i][i]]
        snf_ok = d == od and u.mul(m).mul(v) == d
        ok = ok and snf_ok and factors == diag and cof.obj.f == 2
        print(f"{n:>3} {snf_s * 1e3:>7.1f}ms {oracle_s * 1e3:>7.1f}ms "
              f"{inv_s * 1e3:>7.1f}ms {cof_s * 1e3:>7.1f}ms "
              f"{null_s * 1e3:>7.1f}ms   {digits(u, v):>10} "
              f"{'(' + str(digits(ou, ov)) + ')':>8}  "
              f"{digits(cof.quotient.free):>15}"
              + ("" if snf_ok else "  SNF WRONG"))
    if not ok:
        print("SNF, invariant factors or cofiber free rank WRONG")
    if not echelon_series(repeats):
        print("the packed echelon and the list loop DIFFER")
        ok = False
    if not kernel_series(repeats):
        print("the replayed left kernel and the [F | I] echelon DIFFER")
        ok = False
    if not switch_sweep(repeats):
        print("a switch point CHANGES a Smith form or a cofiber")
        ok = False
    if not fp_series(repeats):
        print("the packed F_p elimination and the list loop DIFFER")
        ok = False
    if not solve_series(repeats):
        print("solve_right_int and the SNF solve DISAGREE")
        ok = False
    if not product_series(repeats):
        print("mul_rows and mul_packed DIFFER")
        ok = False
    if not models_series(repeats):
        print("ev_morphism and the construct-then-check path DIFFER")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
