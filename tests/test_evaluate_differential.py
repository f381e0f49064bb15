"""Differential tests for factor-local evaluation.

``ModelCategory.act(out, left, mor, right)`` and the kernel under it,
``exactlin.apply_factor``, replace the whiskering that ``evaluate`` used
to do for every slice: build id_left and id_right, tensor them onto the
slice's morphism and compose.  That whiskering (``whisker``) and the
loop built on it (``whiskered_evaluate``, which also inverted the
opposite braiding for a negative braid) are kept here as oracles.  The
new path must agree with them on seeded random morphisms and diagrams in
SpanFin, EvConst and their product, and a kernel that emits its rows in
the wrong order must be caught.
"""

import importlib
import inspect
import random

import pytest

from dualkit.diagram import (BRAID, CAP, CUP, GEN, GEN_INV, Cell, Diagram,
                             Interpretation, Letter, dual_letter, evaluate,
                             signature)
from dualkit.diagram.diagram import cell_arity
from dualkit.exactlin import (INT, NAT, DimensionMismatch, Matrix,
                              apply_factor, fp, kronecker)
from dualkit.models import (EvConst, SpanFin, ev_morphism, ev_object,
                            product_category, span)
from dualkit.models import evconst as evconst_module
from dualkit.models import spanfin as spanfin_module

# the package's name evaluate is the function, not its module
evaluate_module = importlib.import_module("dualkit.diagram.evaluate")

SF = SpanFin()
EV = EvConst()
PROD = product_category(EV, SF)


# ------------------------------------------------------------------ oracles

def whisker(model, out, left, mor, right):
    """(id_left (x) mor (x) id_right) o out, built as evaluate used to."""
    slice_mor = model.tensor_mor(model.tensor_mor(model.identity(left), mor),
                                 model.identity(right))
    return model.compose(slice_mor, out)


def whiskered_evaluate(diagram, interp):
    """The slice-by-slice evaluation loop that ``evaluate`` replaced."""
    model = interp.model
    words = diagram.boundaries()
    out = model.identity(interp.word_obj(diagram.dom))
    for t, cell in enumerate(diagram.slices):
        consumed, _ = cell_arity(diagram.sig, cell, words[t])
        w = cell.offset
        if cell.kind == GEN:
            mor = interp.gen_mor(cell.data)
        elif cell.kind == GEN_INV:
            mor = model.invert(interp.gen_mor(cell.data))
        elif cell.kind == BRAID:
            a = interp.obj(words[t][w])
            b = interp.obj(words[t][w + 1])
            if cell.data == 1:
                mor = model.braiding(a, b)
            else:
                mor = model.invert(model.braiding(b, a))
        elif cell.kind == CUP:
            mor = model.duality(interp.obj(cell.data)).eta
        else:
            mor = model.duality(interp.obj(cell.data)).eps
        out = whisker(model, out, interp.word_obj(words[t][:w]), mor,
                      interp.word_obj(words[t][w + len(consumed):]))
    return out


def kronecker_apply(f, m, left, right):
    """(I_left (x) f (x) I_right) * m through two Kronecker products."""
    return kronecker(kronecker(Matrix.identity(f.domain, left), f),
                     Matrix.identity(f.domain, right)).mul(m)


# ---------------------------------------------------------- random inputs

def _random_matrix(rng, domain, rows, cols):
    p = domain[1] if isinstance(domain, tuple) else None
    lo, hi = (-4, 4) if domain == INT else (0, p - 1 if p else 3)
    return Matrix.from_rows(domain, [[rng.randint(lo, hi) if rng.random() < 0.7
                                      else 0 for _ in range(cols)]
                                     for _ in range(rows)], shape=(rows, cols))


EV_OBJECTS = (
    ev_object(0), ev_object(1), ev_object(2), ev_object(0, {2: 1}),
    ev_object(1, {3: 2}), ev_object(2, {2: 1, 5: 0}), ev_object(1, {2: 0}),
)


def _random_ev(rng, dom, cod):
    """A random morphism dom -> cod, explicit at every exceptional prime
    and sometimes at 7, where neither end is exceptional."""
    primes = set(dom.exc_primes()) | set(cod.exc_primes())
    if rng.random() < 0.3:
        primes.add(7)
    return ev_morphism(dom, cod, _random_matrix(rng, INT, cod.f, dom.f), {
        p: _random_matrix(rng, fp(p), cod.dim(p), dom.dim(p))
        for p in primes})


def _random_span(rng, dom, cod):
    return span(dom, cod, _random_matrix(rng, NAT, cod, dom).tolist())


def _case(rng, model, left=None, right=None):
    """(out, left, mor, right) with out ending at left (x) dom mor (x)
    right; left and right are drawn unless given."""
    if model is PROD:
        e = _case(rng, EV, *(None if x is None else x[0]
                             for x in (left, right)))
        s = _case(rng, SF, *(None if x is None else x[1]
                             for x in (left, right)))
        return tuple(zip(e, s))
    if model is SF:
        obj, mor_of = (lambda: rng.randint(0, 3)), _random_span
    else:
        obj, mor_of = (lambda: rng.choice(EV_OBJECTS)), _random_ev
    left = obj() if left is None else left
    right = obj() if right is None else right
    mor = mor_of(rng, obj(), obj())
    mid = model.tensor_obj(model.tensor_obj(left, model.dom(mor)), right)
    return mor_of(rng, obj(), mid), left, mor, right


def _cases(model, seed, count=60):
    rng = random.Random(seed)
    unit = model.unit()
    return ([_case(rng, model) for _ in range(count)]
            + [_case(rng, model, left=unit) for _ in range(count // 4)]
            + [_case(rng, model, right=unit) for _ in range(count // 4)]
            + [_case(rng, model, left=unit, right=unit)
               for _ in range(count // 4)])


def _act_mismatches(model, seed):
    return [case for case in _cases(model, seed)
            if not model.mor_eq(model.act(*case), whisker(model, *case))]


# ------------------------------------------------------------- the kernel

@pytest.mark.parametrize("domain", [NAT, INT, fp(2), fp(7)],
                         ids=["nat", "int", "f2", "f7"])
def test_apply_factor_matches_kronecker(domain):
    rng = random.Random(repr(domain))
    for left in (0, 1, 2, 3):
        for right in (0, 1, 2, 3):
            for a, b, n in ((2, 3, 2), (3, 1, 4), (0, 2, 3), (2, 0, 1),
                            (1, 1, 0), (3, 3, 3)):
                f = _random_matrix(rng, domain, b, a)
                m = _random_matrix(rng, domain, left * a * right, n)
                assert apply_factor(f, m, left, right) == \
                    kronecker_apply(f, m, left, right)


def test_apply_factor_rejects_mismatches():
    f = Matrix.identity(INT, 2)
    with pytest.raises(DimensionMismatch):
        apply_factor(f, Matrix.zeros(INT, 5, 1), 1, 2)
    with pytest.raises(DimensionMismatch):
        apply_factor(f, Matrix.zeros(NAT, 4, 1), 1, 2)


# ------------------------------------------------------------- the models

@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_act_matches_whiskering(model, seed):
    assert _act_mismatches(model, seed) == []


def test_act_with_a_prime_exceptional_only_beside_the_factor():
    # 3 is exceptional in left or right alone: mor is explicit at 3
    # only if an end of it is, and none is
    rng = random.Random(11)
    odd = ev_object(1, {3: 2})
    plain = [x for x in EV_OBJECTS if 3 not in x.exc_primes()]
    for left, right in ((odd, ev_object(2)), (ev_object(2), odd),
                        (odd, odd), (ev_object(0, {3: 1}), ev_object(1))):
        for _ in range(10):
            mor = _random_ev(rng, rng.choice(plain), rng.choice(plain))
            mid = EV.tensor_obj(EV.tensor_obj(left, mor.dom), right)
            out = _random_ev(rng, rng.choice(EV_OBJECTS), mid)
            assert EV.act(out, left, mor, right) == \
                whisker(EV, out, left, mor, right)


@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
def test_act_rejects_a_boundary_mismatch(model):
    out, left, mor, right = _case(random.Random(4), model)
    other = model.biproduct(model.cod(out), model.unit()).obj
    with pytest.raises(DimensionMismatch):
        model.act(model.identity(other), left, mor, right)


def _wrong_order(f, m, left, right):
    """apply_factor with each block's rows emitted in (l, r, j) order."""
    a, b = f.cols, f.rows
    rows = []
    for l in range(left):
        for r in range(right):
            start = l * a * right + r
            block = m.data[start:start + a * right - r:right]
            rows += [[sum(x * row[c] for x, row in zip(frow, block))
                      for c in range(m.cols)] for frow in f.data]
    return Matrix.from_rows(m.domain, rows, shape=(left * b * right, m.cols))


# ------------------------------------------------------------- evaluation

T = Letter("T")
SIG = signature(["T"], {
    "f": (("T",), ("T",), True),
    "h": (("T", "T"), ("T", "T"), True),
    "m": (("T", "T"), ("T",)),
    "d": (("T",), ("T", "T")),
    "u": ((), ("T",)),
    "c": (("T",), ()),
})
MAX_WIRES = 4


def _interpretations():
    # T |-> 2 in SpanFin, and in EvConst T is S^2 with dimension 1 at 3
    # and 0 at 5; m also carries an explicit component at 7
    t = ev_object(2, {3: 1, 5: 0})
    tt = EV.tensor_obj(t, t)
    unit = EV.unit()
    ev_gens = {
        "f": ev_morphism(t, t, [[1, 1], [0, 1]], {3: [[2]], 5: []}),
        "h": ev_morphism(tt, tt, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                  [2, 0, 0, 1]], {3: [[2]], 5: []}),
        "m": ev_morphism(tt, t, [[1, 2, 0, -1], [0, 1, 3, 1]],
                         {3: [[2]], 5: [], 7: [[1, 0, 0, 0], [0, 0, 0, 1]]}),
        "d": ev_morphism(t, tt, [[1, 0], [2, 1], [0, -1], [1, 1]],
                         {3: [[1]], 5: []}),
        "u": ev_morphism(unit, t, [[3], [-2]], {3: [[1]], 5: []}),
        "c": ev_morphism(t, unit, [[1, 4]], {3: [[2]], 5: [[]]}),
    }
    sf_gens = {
        "f": span(2, 2, [[0, 1], [1, 0]]),
        "h": span(4, 4, [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1],
                         [0, 1, 0, 0]]),
        "m": span(4, 2, [[1, 2, 0, 0], [0, 1, 3, 1]]),
        "d": span(2, 4, [[1, 0], [2, 1], [0, 0], [1, 1]]),
        "u": span(1, 2, [[3], [1]]),
        "c": span(2, 1, [[1, 4]]),
    }
    return {
        "spanfin": Interpretation(SF, {"T": 2}, sf_gens),
        "evconst": Interpretation(EV, {"T": t}, ev_gens),
        "product": Interpretation(PROD, {"T": (t, 2)}, {
            name: (ev_gens[name], sf_gens[name]) for name in sf_gens}),
    }


INTERPS = _interpretations()


def _candidates(current):
    """Every cell that fits ``current`` and keeps at most MAX_WIRES."""
    n = len(current)
    out = []
    for name in ("f", "h", "m", "d", "u", "c"):
        gt = SIG.gen(name)
        kinds = (GEN, GEN_INV) if gt.invertible else (GEN,)
        for kind in kinds:
            dom, cod = (gt.dom, gt.cod) if kind == GEN else (gt.cod, gt.dom)
            if n - len(dom) + len(cod) > MAX_WIRES:
                continue
            out += [Cell(kind, w, name) for w in range(n - len(dom) + 1)
                    if current[w:w + len(dom)] == tuple(dom)]
    out += [Cell(BRAID, w, s) for w in range(n - 1) for s in (1, -1)]
    if n + 2 <= MAX_WIRES:
        out += [Cell(CUP, w, letter) for w in range(n + 1)
                for letter in (T, dual_letter(T))]
    out += [Cell(CAP, w, current[w]) for w in range(n - 1)
            if current[w + 1] == dual_letter(current[w])]
    return out


def _random_diagram(rng):
    dom = tuple(rng.choice((T, dual_letter(T)))
                for _ in range(rng.randint(0, 3)))
    cells, current = [], dom
    for _ in range(rng.randint(1, 7)):
        cell = rng.choice(_candidates(current))
        cells.append(cell)
        current = Diagram(SIG, current, (cell,)).cod
    return Diagram(SIG, dom, tuple(cells))


DIAGRAMS = [_random_diagram(random.Random(seed)) for seed in range(60)]


def test_random_diagrams_cover_every_cell_kind():
    seen = {(c.kind, c.data if c.kind == BRAID else None)
            for d in DIAGRAMS for c in d.slices}
    assert seen == {(GEN, None), (GEN_INV, None), (BRAID, 1), (BRAID, -1),
                    (CUP, None), (CAP, None)}


@pytest.mark.parametrize("name", sorted(INTERPS))
def test_evaluate_matches_the_whiskered_loop(name):
    interp = INTERPS[name]
    for d in DIAGRAMS:
        assert interp.model.mor_eq(evaluate(d, interp),
                                   whiskered_evaluate(d, interp)), str(d)


@pytest.mark.parametrize("name", sorted(INTERPS))
def test_row_order_mutant_is_caught(name, monkeypatch):
    monkeypatch.setattr(spanfin_module, "apply_factor", _wrong_order)
    monkeypatch.setattr(evconst_module, "apply_factor", _wrong_order)
    interp = INTERPS[name]
    assert _act_mismatches(interp.model, 1)
    assert any(not interp.model.mor_eq(evaluate(d, interp),
                                       whiskered_evaluate(d, interp))
               for d in DIAGRAMS)


# ----------------------------------------- sub-words that repeat, two objects

S = Letter("S")
SIG2 = signature(["S", "T"], {"f": (("S",), ("S",)), "g": (("T",), ("T",)),
                              "k": (("S", "T"), ("T", "S"))})


def _two_object_interpretation(model, s, t, f, g):
    """S |-> s and T |-> t, f and g as given, k the braiding followed by
    g (x) f."""
    k = model.compose(model.braiding(s, t), model.tensor_mor(g, f))
    return Interpretation(model, {"S": s, "T": t}, {"f": f, "g": g, "k": k})


def _two_object_interpretations():
    s, t = ev_object(1, {3: 1}), ev_object(2)
    ev = (s, t, ev_morphism(s, s, [[2]], {3: [[1]]}),
          ev_morphism(t, t, [[1, 1], [0, 1]], {}))
    sf = (2, 3, span(2, 2, [[1, 1], [0, 1]]),
          span(3, 3, [[0, 1, 0], [2, 0, 1], [1, 0, 0]]))
    return {"spanfin": _two_object_interpretation(SF, *sf),
            "evconst": _two_object_interpretation(EV, *ev),
            "product": _two_object_interpretation(
                PROD, *((e, x) for e, x in zip(ev, sf)))}


INTERPS2 = _two_object_interpretations()


def _repeating_diagram(rng):
    """Eight to twelve boxes and braids on a word of three or four
    letters S and T, so that the words left and right of the slices
    repeat within the diagram."""
    current = tuple(rng.choice((S, T)) for _ in range(rng.randint(3, 4)))
    dom, cells = current, []
    for _ in range(rng.randint(8, 12)):
        n = len(current)
        options = [Cell(BRAID, w, rng.choice((1, -1))) for w in range(n - 1)]
        options += [Cell(GEN, w, "f" if x == S else "g")
                    for w, x in enumerate(current)]
        options += [Cell(GEN, w, "k") for w in range(n - 1)
                    if current[w:w + 2] == (S, T)]
        cell = rng.choice(options)
        cells.append(cell)
        current = Diagram(SIG2, current, (cell,)).cod
    return Diagram(SIG2, dom, tuple(cells))


REPEATING = [_repeating_diagram(random.Random(seed)) for seed in range(30)]


def test_repeating_pool_repeats_sub_words_of_unequal_objects():
    # a sub-word occurs twice in a diagram, and two sub-words of one
    # length differ, so a cache keyed wrongly would be seen
    repeats = unequal = 0
    for d in REPEATING:
        words = d.boundaries()
        subs = [part for t, c in enumerate(d.slices) for part in (
            words[t][:c.offset],
            words[t][c.offset + len(cell_arity(SIG2, c, words[t])[0]):])]
        repeats += len(subs) > len(set(subs))
        unequal += any(len(a) == len(b) and a != b
                       for a in subs for b in subs)
    assert repeats == len(REPEATING) and unequal >= len(REPEATING) // 2


@pytest.mark.parametrize("name", sorted(INTERPS2))
def test_evaluate_matches_the_whiskered_loop_on_repeating_words(name):
    interp = INTERPS2[name]
    for d in REPEATING:
        assert interp.model.mor_eq(evaluate(d, interp),
                                   whiskered_evaluate(d, interp)), str(d)


def test_a_cache_keyed_by_length_is_caught(monkeypatch):
    source = inspect.getsource(evaluate_module.evaluate)
    keyed = source.replace("objs[w]", "objs[len(w)]").replace(
        "w not in objs", "len(w) not in objs")
    assert keyed.count("len(w)") == 3
    namespace = dict(vars(evaluate_module))
    exec(keyed, namespace)
    monkeypatch.setattr(evaluate_module, "evaluate", namespace["evaluate"])
    interp = INTERPS2["spanfin"]

    def caught(d):
        try:
            return evaluate_module.evaluate(d, interp) != \
                whiskered_evaluate(d, interp)
        except DimensionMismatch:
            return True
    assert any(map(caught, REPEATING))


@pytest.mark.parametrize("model, objects", [
    (SF, (0, 1, 2, 3)),
    (EV, EV_OBJECTS),
    (PROD, tuple(zip(EV_OBJECTS, (0, 1, 2, 3, 2, 1, 3)))),
], ids=["spanfin", "evconst", "product"])
def test_negative_braid_is_the_braiding(model, objects):
    # every bundled model is symmetric, so b(b, a)^-1 = b(a, b)
    for a in objects:
        for b in objects:
            assert model.mor_eq(model.braiding(a, b),
                                model.invert(model.braiding(b, a)))
