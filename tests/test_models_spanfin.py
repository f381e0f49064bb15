"""SpanFin model tests.

The composition oracle below works with explicit spans of sets: an
apex element list with legs, composed by enumerating the set-level
pullback.  This is independent of the matrix-product implementation.
The cofiber oracle is the previous classification, which finds the
connected blocks of the support by a depth-first search.
"""

import random
from itertools import product

import pytest

from dualkit.exactlin import NotInvertible
from dualkit.models import (Cofiber, SpanFin, UnsupportedShape,
                            biproduct_equations_hold, span,
                            triangle_equations_hold)

C = SpanFin()


# -------------------------------------------------------------------- oracle

def explicit_span_from_matrix(m):
    """List of apex elements (a, b) with multiplicity tags."""
    apex = []
    for b in range(m.rows):
        for a in range(m.cols):
            for t in range(m.data[b][a]):
                apex.append((a, b, t))
    return apex


def pullback_compose_oracle(g, f):
    """Count the apex of the pullback of explicit spans for g o f."""
    fa = explicit_span_from_matrix(f.matrix)
    ga = explicit_span_from_matrix(g.matrix)
    counts = [[0] * f.dom for _ in range(g.cod)]
    for (a, b1, _) in fa:
        for (b2, c, _) in ga:
            if b1 == b2:
                counts[c][a] += 1
    return counts


def dfs_cofiber_oracle(f):
    """The cofiber of f, found by walking each connected block of the
    bipartite support graph; raises UnsupportedShape where the cofiber
    is not classified."""
    m = f.matrix
    rules = []
    unhit_rows = []
    seen_rows, seen_cols = set(), set()
    adj_row = {i: [j for j in range(m.cols) if m.data[i][j]]
               for i in range(m.rows)}
    adj_col = {j: [i for i in range(m.rows) if m.data[i][j]]
               for j in range(m.cols)}
    for start in range(m.rows):
        if start in seen_rows or not adj_row[start]:
            continue
        rows_, cols_ = set(), set()
        stack = [("r", start)]
        while stack:
            kind, k = stack.pop()
            if kind == "r":
                if k in rows_:
                    continue
                rows_.add(k)
                stack.extend(("c", j) for j in adj_row[k])
            else:
                if k in cols_:
                    continue
                cols_.add(k)
                stack.extend(("r", i) for i in adj_col[k])
        seen_rows |= rows_
        seen_cols |= cols_
        entries = [m.data[i][j] for i in rows_ for j in cols_]
        if any(e not in (0, 1) for e in entries):
            raise UnsupportedShape("entry > 1 in a connected block")
        if len(cols_) == 1 and all(
                sum(m.data[i][j] for j in cols_) == 1 for i in rows_):
            rules.append("backward")
        elif len(rows_) == 1 and all(
                sum(m.data[i][j] for i in rows_) == 1 for j in cols_):
            rules.append("fold" if len(cols_) > 1 else "backward")
        else:
            raise UnsupportedShape(
                "connected block is neither backward nor a forward fold")
    for i in range(m.rows):
        if i not in seen_rows:
            unhit_rows.append(i)
            rules.append("zero-to-one")
    for j in range(m.cols):
        if j not in seen_cols:
            rules.append("one-to-zero")
    c = len(unhit_rows)
    quotient = span(f.cod, c, [[1 if j == b else 0 for j in range(f.cod)]
                               for b in unhit_rows])
    return Cofiber(obj=c, quotient=quotient,
                   provenance="+".join(sorted(rules)) or "empty")


def cofiber_outcome(cofiber, f):
    """(obj, quotient JSON, provenance) of cofiber(f), or the class it
    raises."""
    try:
        cof = cofiber(f)
    except UnsupportedShape as exc:
        return type(exc)
    return cof.obj, cof.quotient.to_json(), cof.provenance


def star_span(rng):
    """A random span whose support blocks are single rows and columns of
    ones, with one entry changed by chance."""
    blocks = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(("fold", "backward", "zero row", "zero column"))
        k = rng.randint(2, 4) if kind == "fold" else rng.randint(1, 4)
        blocks.append({"fold": (1, k), "backward": (k, 1),
                       "zero row": (1, 0), "zero column": (0, 1)}[kind])
    cod, dom = (sum(b[0] for b in blocks), sum(b[1] for b in blocks))
    rows, cols = rng.sample(range(cod), cod), rng.sample(range(dom), dom)
    matrix = [[0] * dom for _ in range(cod)]
    r = c = 0
    for h, w in blocks:
        if h and w:
            for i in range(r, r + h):
                for j in range(c, c + w):
                    matrix[rows[i]][cols[j]] = 1
        r, c = r + h, c + w
    if cod and dom and rng.random() < 0.3:
        matrix[rng.randrange(cod)][rng.randrange(dom)] = rng.randint(0, 2)
    return span(dom, cod, matrix)


def rand_span(rng, dom, cod, maxent=3):
    return span(dom, cod, [[rng.randint(0, maxent) for _ in range(dom)]
                           for _ in range(cod)])


# --------------------------------------------------------------------- tests

def test_compose_matches_pullback_oracle():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rng.randint(0, 4) for _ in range(3))
        f = rand_span(rng, a, b)
        g = rand_span(rng, b, c)
        assert C.compose(g, f).matrix.tolist() == pullback_compose_oracle(g, f)


def test_compose_frozen_example():
    f = span(2, 2, [[0, 1], [1, 0]])
    g = span(2, 2, [[1, 1], [0, 1]])
    assert C.compose(g, f).matrix.tolist() == [[1, 1], [1, 0]]


def test_category_laws():
    rng = random.Random(1)
    for _ in range(250):
        a, b, c, d = (rng.randint(0, 3) for _ in range(4))
        f = rand_span(rng, a, b)
        g = rand_span(rng, b, c)
        h = rand_span(rng, c, d)
        assert C.compose(h, C.compose(g, f)) == C.compose(C.compose(h, g), f)
        assert C.compose(f, C.identity(a)) == f
        assert C.compose(C.identity(b), f) == f


def test_tensor_functoriality():
    rng = random.Random(2)
    for _ in range(100):
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        a2, b2, c2 = (rng.randint(0, 3) for _ in range(3))
        f, g = rand_span(rng, a, b), rand_span(rng, b, c)
        f2, g2 = rand_span(rng, a2, b2), rand_span(rng, b2, c2)
        assert C.compose(C.tensor_mor(g, g2), C.tensor_mor(f, f2)) == \
            C.tensor_mor(C.compose(g, f), C.compose(g2, f2))


def test_braiding_naturality():
    rng = random.Random(3)
    for _ in range(50):
        a, b, c, d = (rng.randint(0, 3) for _ in range(4))
        f, g = rand_span(rng, a, c), rand_span(rng, b, d)
        lhs = C.compose(C.braiding(c, d), C.tensor_mor(f, g))
        rhs = C.compose(C.tensor_mor(g, f), C.braiding(a, b))
        assert lhs == rhs


def test_duality_snakes():
    for n in range(5):
        dd = C.duality(n)
        assert triangle_equations_hold(C, dd)
    assert C.duality(1).eta.matrix.tolist() == [[1]]
    assert C.duality(2).eta.matrix.tolist() == [[1], [0], [0], [1]]


def test_biproduct_houston():
    rng = random.Random(4)
    for _ in range(30):
        x, y = rng.randint(0, 4), rng.randint(0, 4)
        bp = C.biproduct(x, y)
        assert bp.obj == x + y
        assert biproduct_equations_hold(C, x, y, bp)


def test_zero_object_duality():
    assert triangle_equations_hold(C, C.duality(0))


def test_cofiber_table():
    # 0 -> 1 (all-zero row)
    assert C.cofiber(span(0, 1, [[]])).obj == 1
    # forward fold 2 -> 1
    assert C.cofiber(span(2, 1, [[1, 1]])).obj == 0
    # backward map 1 <- 2 -> 2 seen from 1: matrix is the column of ones
    assert C.cofiber(span(1, 2, [[1], [1]])).obj == 0
    # 1 -> 0 (all-zero column)
    assert C.cofiber(span(1, 0, [])).obj == 0
    # identity
    assert C.cofiber(C.identity(3)).obj == 0


def test_cofiber_random_backward_maps():
    # any map whose matrix rows each contain exactly one 1 has cofiber 0
    rng = random.Random(5)
    for _ in range(50):
        dom, apex = rng.randint(1, 4), rng.randint(0, 5)
        rows = []
        for _ in range(apex):
            r = [0] * dom
            r[rng.randrange(dom)] = 1
            rows.append(r)
        c = C.cofiber(span(dom, apex, rows))
        assert c.obj == 0


def test_cofiber_forward_functions():
    # a function dom -> cod: cofiber counts the unhit points
    rng = random.Random(6)
    for _ in range(50):
        dom, cod = rng.randint(0, 4), rng.randint(1, 4)
        fn = [rng.randrange(cod) for _ in range(dom)]
        rows = [[1 if fn[a] == b else 0 for a in range(dom)] for b in range(cod)]
        c = C.cofiber(span(dom, cod, rows))
        unhit = cod - len(set(fn))
        assert c.obj == unhit
        # quotient projects onto the unhit points
        assert c.quotient.dom == cod and c.quotient.cod == unhit
        assert C.compose(c.quotient, span(dom, cod, rows)) == \
            C.zero_mor(dom, unhit)


def test_cofiber_matches_the_block_search_on_small_spans():
    provenances, raised = set(), 0
    for dom in range(9):
        for cod in range(9):
            if dom * cod > 8:
                continue
            for entries in product((0, 1, 2), repeat=dom * cod):
                f = span(dom, cod, [list(entries[i * dom:(i + 1) * dom])
                                    for i in range(cod)])
                expected = cofiber_outcome(dfs_cofiber_oracle, f)
                assert cofiber_outcome(C.cofiber, f) == expected, f
                if expected is UnsupportedShape:
                    raised += 1
                else:
                    provenances.add(expected[2])
    rules = {rule for p in provenances for rule in p.split("+")}
    assert rules == {"empty", "backward", "fold", "one-to-zero",
                     "zero-to-one"}
    assert raised and len(provenances) > 20


def test_cofiber_matches_the_block_search_on_seeded_spans():
    rng = random.Random(7)
    outcomes = []
    for _ in range(500):
        f = star_span(rng)
        outcomes.append(cofiber_outcome(dfs_cofiber_oracle, f))
        assert cofiber_outcome(C.cofiber, f) == outcomes[-1], f
    assert 50 < outcomes.count(UnsupportedShape) < 250
    assert max(o[0] for o in outcomes if o is not UnsupportedShape) >= 4


def test_cofiber_rejects_general_spans():
    with pytest.raises(UnsupportedShape):
        C.cofiber(span(1, 1, [[2]]))
    with pytest.raises(UnsupportedShape):
        C.cofiber(span(2, 2, [[1, 1], [0, 1]]))


def test_suspension():
    assert C.suspension(1) == 0
    assert C.suspension(0) == 0
    assert C.suspension(3) == 0


def test_invert():
    perm = span(2, 2, [[0, 1], [1, 0]])
    assert C.invert(perm) == perm
    with pytest.raises(NotInvertible):
        C.invert(span(1, 1, [[2]]))


def test_json_roundtrip():
    f = span(2, 3, [[1, 0], [2, 1], [0, 0]])
    from dualkit.models import SpanMorphism
    assert SpanMorphism.from_json(f.to_json()) == f
