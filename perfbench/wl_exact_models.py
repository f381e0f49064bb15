"""Workload ``exact-models``: exact linear algebra and the two model
categories, with no diagram or equivariant code.

Integer matrices are built as U.D.V with U, V of determinant 1 and a chosen
diagonal D, so their invariant factors are known.  The factors are products
of 2, 3, 5, 7 and, in a few matrices, one prime of about 12 digits (in
[9e11, 1e12), so trial division up to its square root costs the same on
every seed) or of about 7 digits.  Larger prime factors are left out:
``EvConst.cofiber`` factors by trial division and does not return on them.

About a quarter of the jobs are SpanFin operations of well under a
millisecond, about half are idempotent constructions of a few milliseconds
(characteristic splittings, complements, hom-set splitting checks), and the
rest are kernels of 10 ms to 1 s: cofibers, Smith normal forms, products,
F_p elimination and integer solving.
"""

from __future__ import annotations

import dataclasses
import math
import random

import dualkit.exactlin as el
import dualkit.idem as idem
import dualkit.models as md

from common import Job
import refs

SMALL_PRIMES = (2, 3, 5, 7)
P12 = (900_000_000_000, 1_000_000_000_000)
P7 = (1_000_000, 10_000_000)

# (rows = cols, mixing, large prime range or None, zero invariant factors)
COFIBER_SCHEDULE = (
    (16, "sparse", P12, 2), (24, "sparse", P12, 3), (32, "sparse", P12, 2),
) + ((28, "dense", P7, 3),) * 10 + (
    (24, "sparse", None, 2), (32, "sparse", None, 3), (40, "sparse", None, 2),
    (48, "sparse", None, 3),
)
SNF_SIZES = (16, 20) + (28,) * 8
MUL_SIZES = (64, 96, 128)
RANK_FP = ((64, 3), (128, 2))
SOLVE_FP = ((96, 7),)
NULL_FP = ((64, 48, 5),)
SOLVE_INT = (64, 96)
CHAR_SPLIT_M = (2, 3, 4, 6, 10, 12, 30, 60)
COMPLEMENT_M = (2, 3, 5, 7, 4, 6, 10, 12)
SPLIT_DIMS = 10
SPLIT_EXHAUSTIVE = 10
SPAN_COMPOSE, SPAN_TENSOR, SPAN_COFIBER = 10, 6, 8


@dataclasses.dataclass
class Inputs:
    seed: int
    snf: list            # (M rows, D diagonal)
    cofiber: list        # (EvMorphism, D diagonal, primes dividing D)
    mul: list            # (Matrix, Matrix)
    rank_fp: list        # Matrix over F_p
    solve_fp: list       # (A, B) over F_p
    null_fp: list        # Matrix over F_p
    solve_int: list      # (A, B) over Z
    char_split: list     # (m, X)
    complement: list     # m
    split_dims: list     # (m, [(X, Y), ...])
    split_exhaustive: list
    span_compose: list   # (g, f)
    span_tensor: list    # (f, g)
    span_cofiber: list   # span


def _chain(rng, n_nonzero, large):
    """Invariant factors d1 | d2 | ... built from the small primes, with the
    last one times ``large`` when given."""
    d, out = 1, []
    for i in range(n_nonzero):
        if i >= n_nonzero - 4:
            d *= rng.choice(SMALL_PRIMES)
        out.append(d)
    if large:
        out[-1] *= large
    return out


def _udv(rng, n, diag, mixing):
    dense = mixing == "dense"
    steps = 5 * n
    u = refs.unimodular(rng, n, dense, steps)
    ud = [[x * (diag[k] if k < len(diag) else 0) for k, x in enumerate(row)]
          for row in u]
    return refs.matmul(ud, refs.unimodular(rng, n, dense, steps))


def _fp_rows(rng, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def _ev_obj(rng, free_max, primes, dim_max):
    f = rng.randint(0, free_max)
    return md.ev_object(f, {p: rng.randint(0, dim_max) for p in primes
                            if rng.random() < 0.7})


def _span_rows(rng, dom, cod, top=3):
    return [[rng.randint(0, top) for _ in range(dom)] for _ in range(cod)]


def _cofiber_shape(rng):
    """A span whose connected blocks are backward maps or forward folds,
    plus unhit rows and columns, in shuffled order."""
    n_r = n_c = 0
    blocks = []             # (row ids, column ids) per connected block
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            k = rng.randint(1, 3)            # backward: one column, k rows
            blocks.append((list(range(n_r, n_r + k)), [n_c]))
            n_r, n_c = n_r + k, n_c + 1
        else:
            k = rng.randint(2, 3)            # fold: one row, k columns
            blocks.append(([n_r], list(range(n_c, n_c + k))))
            n_r, n_c = n_r + 1, n_c + k
    zero_rows = list(range(n_r, n_r + rng.randint(0, 2)))
    n_r += len(zero_rows)
    n_c += rng.randint(0, 2)
    m = [[0] * n_c for _ in range(n_r)]
    for rs, cs in blocks:
        for r in rs:
            for c in cs:
                m[r][c] = 1
    rows, cols = list(range(n_r)), list(range(n_c))
    rng.shuffle(rows)
    rng.shuffle(cols)
    shuffled = [[m[rows[i]][cols[j]] for j in range(n_c)] for i in range(n_r)]
    return md.span(n_c, n_r, shuffled)


def build(seed: int, workdir=None) -> Inputs:
    rng = random.Random(seed)
    snf = []
    for n in SNF_SIZES:
        diag = _chain(rng, n - 2, None) + [0, 0]
        snf.append((el.int_matrix(_udv(rng, n, diag, "dense")), diag))
    cofiber = []
    for n, mixing, large, zeros in COFIBER_SCHEDULE:
        big = refs.random_prime(rng, *large) if large else None
        diag = _chain(rng, n - zeros, big) + [0] * zeros
        rows = _udv(rng, n, diag, mixing)
        primes = set(SMALL_PRIMES) | ({big} if big else set())
        f = md.ev_morphism(md.ev_object(n), md.ev_object(n), rows)
        cofiber.append((f, diag, sorted(p for p in primes
                                         if any(d % p == 0 for d in diag
                                                if d))))
    mul = [tuple(el.int_matrix([[rng.randint(-9, 9) for _ in range(n)]
                                for _ in range(n)]) for _ in range(2))
           for n in MUL_SIZES]
    rank_fp = []
    for n, p in RANK_FP:
        rows = _fp_rows(rng, n - rng.randint(4, 12), n, p)
        while len(rows) < n:        # dependent rows: sums of two others
            a, b = rng.sample(rows, 2)
            rows.append([(x + y) % p for x, y in zip(a, b)])
        rng.shuffle(rows)
        rank_fp.append(el.fp_matrix(p, rows))
    solve_fp = []
    for n, p in SOLVE_FP:
        a = _fp_rows(rng, n, n, p)
        b = refs.matmul(a, _fp_rows(rng, n, 4, p), p)
        solve_fp.append((el.fp_matrix(p, a), el.fp_matrix(p, b)))
    null_fp = [el.fp_matrix(p, _fp_rows(rng, r, c, p)) for r, c, p in NULL_FP]
    solve_int = []
    for n in SOLVE_INT:
        a = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
        b = refs.matmul(a, [[rng.randint(-9, 9) for _ in range(2)]
                            for _ in range(n)])
        solve_int.append((el.int_matrix(a), el.int_matrix(b)))
    char_split = [(m, _ev_obj(rng, 2, (2, 3, 5), 3))
                  for m in CHAR_SPLIT_M for _ in range(2)]
    split_dims = [(rng.choice((2, 3, 5, 7)),
                   [(_ev_obj(rng, 2, SMALL_PRIMES, 3),
                     _ev_obj(rng, 2, SMALL_PRIMES, 3)) for _ in range(2)])
                  for _ in range(SPLIT_DIMS)]
    split_exhaustive = [(rng.choice((2, 3)),
                         [(_ev_obj(rng, 0, (2, 3), 1),
                           _ev_obj(rng, 0, (2, 3), 2))])
                        for _ in range(SPLIT_EXHAUSTIVE)]
    span_compose = []
    for _ in range(SPAN_COMPOSE):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        span_compose.append((md.span(b, c, _span_rows(rng, b, c)),
                             md.span(a, b, _span_rows(rng, a, b))))
    span_tensor = []
    for _ in range(SPAN_TENSOR):
        a, b, c, d = (rng.randint(1, 4) for _ in range(4))
        span_tensor.append((md.span(a, b, _span_rows(rng, a, b)),
                            md.span(c, d, _span_rows(rng, c, d))))
    span_cofiber = [_cofiber_shape(rng) for _ in range(SPAN_COFIBER)]
    return Inputs(seed, snf, cofiber, mul, rank_fp, solve_fp, null_fp,
                  solve_int, char_split, list(COMPLEMENT_M), split_dims,
                  split_exhaustive, span_compose, span_tensor, span_cofiber)


def _clopen(model, m):
    s = model.unit()
    cof = model.cofiber(md.ev_morphism(s, s, [[m]]))
    return idem.clopen_structure_on_torsion_retract(model, cof.obj,
                                                    cof.quotient)


def _complement(model, m):
    cl = _clopen(model, m)
    c_obj, comp = idem.complement_of_retract(model, cl.E, cl.r, cl.i)
    return cl, comp


def _split(model, m, pairs, exhaustive):
    cl, comp = _complement(model, m)
    return idem.split_homs_check(model, cl, comp, pairs,
                                 md.enumerate_homs if exhaustive else None)


def jobs(inputs: Inputs) -> list:
    ev, sf = md.EvConst(), md.SpanFin()
    out = []

    def add(kind, items, fn):
        out.extend(Job((kind, i), kind, lambda x=x: fn(x))
                   for i, x in enumerate(items))

    add("snf", inputs.snf, lambda x: el.smith_normal_form(x[0]))
    add("cofiber", inputs.cofiber, lambda x: ev.cofiber(x[0]))
    add("mul", inputs.mul, lambda x: x[0].mul(x[1]))
    add("rank-fp", inputs.rank_fp, el.rank_fp)
    add("solve-fp", inputs.solve_fp, lambda x: el.solve_right_fp(*x))
    add("null-fp", inputs.null_fp, el.left_null_basis_fp)
    add("solve-int", inputs.solve_int, lambda x: el.solve_right_int(*x))
    add("char-split", inputs.char_split,
        lambda x: idem.char_split(ev, x[0], x[1]))
    add("complement", inputs.complement, lambda m: _complement(ev, m))
    add("split-dims", inputs.split_dims,
        lambda x: _split(ev, x[0], x[1], False))
    add("split-exhaustive", inputs.split_exhaustive,
        lambda x: _split(ev, x[0], x[1], True))
    add("span-compose", inputs.span_compose, lambda x: sf.compose(*x))
    add("span-tensor", inputs.span_tensor, lambda x: sf.tensor_mor(*x))
    add("span-cofiber", inputs.span_cofiber, sf.cofiber)
    return out


# ------------------------------------------------------------------ checks

def _dim(obj, p):
    return dict(obj.exc).get(p, obj.f)


def _comp(mor, p):
    expl = dict(mor.explicit)
    return expl[p].tolist() if p in expl else \
        [[x % p for x in row] for row in mor.free.tolist()]


def _primes(*items):
    out = set()
    for x in items:
        out |= {p for p, _ in (x.explicit if hasattr(x, "explicit")
                               else x.exc)}
    return sorted(out)


def _is_identity(g, f, obj) -> bool:
    return refs.ev_identity(g.to_json(), f.to_json(), obj.to_json())


def _tensor_is_zero(x, y) -> bool:
    return x.f * y.f == 0 and all(_dim(x, p) * _dim(y, p) == 0
                                  for p in _primes(x, y))


def _hom_size(x, y) -> int:
    assert x.f * y.f == 0
    return math.prod(p ** (_dim(x, p) * _dim(y, p)) for p in _primes(x, y))


def _tensor_obj(x, y):
    primes = _primes(x, y)
    return md.EvObject(x.f * y.f, tuple(
        (p, _dim(x, p) * _dim(y, p)) for p in primes
        if _dim(x, p) * _dim(y, p) != x.f * y.f))


def _freivalds(a, b, c, rng) -> bool:
    for _ in range(2):
        v = [[rng.randint(-10**6, 10**6)] for _ in range(len(c[0]))]
        if refs.matmul(c, v) != refs.matmul(a, refs.matmul(b, v)):
            return False
    return True


def check(inputs: Inputs, outputs: dict) -> list:
    errors = []
    rng = random.Random(inputs.seed)

    def err(tag, key, msg):
        errors.append(f"[{tag}] {key}: {msg}")

    for i, (m, diag) in enumerate(inputs.snf):
        res = outputs.get(("snf", i))
        if res is None:
            continue
        u, d, v = (x.tolist() for x in res)
        if [d[k][k] for k in range(len(d))] != diag:
            err("snf", i, "invariant factors differ from the built diagonal")
        if refs.matmul(refs.matmul(u, m.tolist()), v) != d:
            err("snf", i, "U.M.V != D")
        if abs(refs.bareiss_det(u)) != 1 or abs(refs.bareiss_det(v)) != 1:
            err("snf", i, "U or V is not unimodular")

    for i, (f, diag, primes) in enumerate(inputs.cofiber):
        cof = outputs.get(("cofiber", i))
        if cof is None:
            continue
        n, m = f.cod.f, f.free.tolist()
        rank = sum(1 for d in diag if d)
        if cof.obj.f != n - rank:
            err("cofiber", i, f"free rank {cof.obj.f} != {n - rank}")
        for p in primes:
            want = n - refs.rank_mod(m, p)
            if want != n - sum(1 for d in diag if d and d % p):
                err("cofiber", i, f"reference ranks disagree at {p}")
            if _dim(cof.obj, p) != want:
                err("cofiber", i, f"dimension at {p} is {_dim(cof.obj, p)}, "
                    f"expected {want}")
        if {p for p, _ in cof.obj.exc} - set(primes):
            err("cofiber", i, "exceptional prime not dividing any factor")
        q = cof.quotient
        if not refs.is_zero(refs.matmul(q.free.tolist(), m)) or not all(
                refs.is_zero(refs.matmul(_comp(q, p), _comp(f, p), p), p)
                for p in _primes(q)):
            err("cofiber", i, "quotient o f != 0")

    for i, (a, b) in enumerate(inputs.mul):
        c = outputs.get(("mul", i))
        if c is not None and not _freivalds(a.tolist(), b.tolist(),
                                            c.tolist(), rng):
            err("mul", i, "product fails the Freivalds check")
    for i, a in enumerate(inputs.rank_fp):
        r = outputs.get(("rank-fp", i))
        if r is not None and r != refs.rank_mod(a.tolist(), a.domain[1]):
            err("rank-fp", i, f"rank {r} differs from the reference")
    for i, (a, b) in enumerate(inputs.solve_fp):
        x = outputs.get(("solve-fp", i))
        p = a.domain[1]
        if x is not None and refs.matmul(a.tolist(), x.tolist(), p) != \
                b.tolist():
            err("solve-fp", i, "A.X != B over F_p")
    for i, a in enumerate(inputs.null_fp):
        nb = outputs.get(("null-fp", i))
        if nb is None:
            continue
        p, rows = a.domain[1], nb.tolist()
        if nb.rows != a.rows - refs.rank_mod(a.tolist(), p) or \
                refs.rank_mod(rows, p) != nb.rows or \
                not refs.is_zero(refs.matmul(rows, a.tolist(), p), p):
            err("null-fp", i, "not a basis of the left null space")
    for i, (a, b) in enumerate(inputs.solve_int):
        x = outputs.get(("solve-int", i))
        if x is not None and refs.matmul(a.tolist(), x.tolist()) != \
                b.tolist():
            err("solve-int", i, "A.X != B")

    for i, (m, x) in enumerate(inputs.char_split):
        res = outputs.get(("char-split", i))
        if res is None:
            continue
        _, _, (u, v) = res
        if not (_is_identity(v, u, x) and _is_identity(u, v, u.cod)):
            err("char-split", i, "witnesses are not mutually inverse")
    for i, m in enumerate(inputs.complement):
        res = outputs.get(("complement", i))
        if res is None:
            continue
        cl, comp = res
        if not _tensor_is_zero(cl.E, comp.E):
            err("complement", i, "E smashed with its complement is not 0")
        if not _is_identity(comp.r, comp.i, comp.E):
            err("complement", i, "r o i != id on the complement")
    for kind, items in (("split-dims", inputs.split_dims),
                        ("split-exhaustive", inputs.split_exhaustive)):
        for i, (m, pairs) in enumerate(items):
            rep = outputs.get((kind, i))
            if rep is None:
                continue
            if not rep.verdict or len(rep.pairs) != len(pairs):
                err(kind, i, "splitting not confirmed on every pair")
            if kind == "split-dims":
                continue
            cl, comp = _complement(md.EvConst(), m)
            for (x, y), got in zip(pairs, rep.pairs):
                det = got["detail"]
                target = _hom_size(_tensor_obj(cl.E, x),
                                   _tensor_obj(cl.E, y)) * \
                    _hom_size(_tensor_obj(comp.E, x), _tensor_obj(comp.E, y))
                if det.get("hom_size") != _hom_size(x, y) or \
                        det.get("target_size") != target:
                    err("hom-sizes", (kind, i), f"sizes {det} differ from "
                        f"{_hom_size(x, y)}, {target}")

    for i, (g, f) in enumerate(inputs.span_compose):
        h = outputs.get(("span-compose", i))
        if h is not None and h.matrix.tolist() != refs.pullback_compose(
                g.matrix.tolist(), f.matrix.tolist()):
            err("span-compose", i, "differs from pullback counting")
    for i, (f, g) in enumerate(inputs.span_tensor):
        h = outputs.get(("span-tensor", i))
        if h is not None and h.matrix.tolist() != refs.kron(
                f.matrix.tolist(), g.matrix.tolist()):
            err("span-tensor", i, "differs from the entry formula")
    for i, f in enumerate(inputs.span_cofiber):
        cof = outputs.get(("span-cofiber", i))
        if cof is None:
            continue
        zero_rows = [r for r, row in enumerate(f.matrix.tolist())
                     if not any(row)]
        proj = [[int(j == r) for j in range(f.cod)] for r in zero_rows]
        if cof.obj != len(zero_rows) or cof.quotient.matrix.tolist() != proj:
            err("span-cofiber", i, "cofiber is not the unhit rows")
    return errors
