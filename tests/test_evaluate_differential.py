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

``evaluate`` builds a diagram's leading layer of boxes that each take one
letter to one letter as one tensor product, and only the slices after it
act.  Seeded pools of such layers (inverse boxes, several boxes on one
strand, boxes that change the letter, layers over some strands, the empty
domain, no layer, a cup or cap after it) must agree with the whiskered
loop; a layer with a box of the wrong shape, or a missing object or
generator, must raise what the slice loop alone raised; and counting the
calls of ``act`` pins which slices the layer took.

``evaluate`` applies each maximal run of braids as one
``ModelCategory.permute``.  Its oracle is the braid-by-braid path it
replaced, one ``braiding`` and one ``act`` per braid
(``_braid_by_braid``), on seeded objects, runs and morphisms in all
three models; counting the calls of ``act``, ``permute`` and
``braiding`` pins one ``permute`` per run and no braiding; and a run
over a letter with no object raises the message the whiskered loop
raises.
"""

import importlib
import inspect
import random
from functools import reduce

import pytest

from dualkit import DomainError
from dualkit.diagram import (BRAID, CAP, CUP, GEN, GEN_INV, Cell, Diagram,
                             EvaluationError, Interpretation, Letter,
                             dual_letter, evaluate, signature)
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


def _candidates(current, sig=SIG, names=("f", "h", "m", "d", "u", "c"),
                letters=(T,)):
    """Every cell of ``sig`` that fits ``current`` and keeps at most
    MAX_WIRES, its boxes those of ``names`` and its cups of ``letters``
    and their duals."""
    n = len(current)
    out = []
    for name in names:
        gt = sig.gen(name)
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
                for x in letters for letter in (x, dual_letter(x))]
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


# ------------------------------------------ the leading layer, two letters

A, B = Letter("A"), Letter("B")
SIG3 = signature(["A", "B"], {
    "a": (("A",), ("A",), True),
    "b": (("B",), ("B",)),
    "x": (("A",), ("B",)),
    "y": (("B",), ("A",)),
    "m": (("A", "B"), ("A",)),
    "u": ((), ("B",)),
})
SIG3_NAMES = ("a", "b", "x", "y", "m", "u")
STRAND_BOXES = {A: (Cell(GEN, 0, "a"), Cell(GEN_INV, 0, "a"),
                    Cell(GEN, 0, "x")),
                B: (Cell(GEN, 0, "b"), Cell(GEN, 0, "y"))}


def _layered_interpretations():
    # A and B have different objects in every model, so a box A -> B
    # changes the shape of its strand; a is invertible and not its own
    # inverse
    sf_objects = {"A": 3, "B": 2}
    sf_gens = {
        "a": span(3, 3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        "b": span(2, 2, [[1, 1], [0, 2]]),
        "x": span(3, 2, [[1, 0, 1], [0, 2, 1]]),
        "y": span(2, 3, [[1, 0], [2, 1], [0, 1]]),
        "m": span(6, 3, [[1, 0, 2, 0, 0, 1], [0, 1, 0, 3, 1, 0],
                         [0, 0, 1, 0, 0, 2]]),
        "u": span(1, 2, [[1], [2]]),
    }
    a, b = ev_object(1, {3: 2}), ev_object(2)
    ev_objects = {"A": a, "B": b}
    ev_gens = {
        "a": ev_morphism(a, a, [[-1]], {3: [[1, 1], [0, 1]]}),
        "b": ev_morphism(b, b, [[1, 1], [0, 1]], {}),
        "x": ev_morphism(a, b, [[1], [2]], {3: [[1, 0], [1, 1]]}),
        "y": ev_morphism(b, a, [[1, -1]], {3: [[1, 1], [0, 2]]}),
        "m": ev_morphism(EV.tensor_obj(a, b), a, [[2, 1]],
                         {3: [[1, 0, 0, 1], [0, 2, 1, 0]]}),
        "u": ev_morphism(EV.unit(), b, [[3], [-1]], {}),
    }
    return {
        "spanfin": Interpretation(SF, sf_objects, sf_gens),
        "evconst": Interpretation(EV, ev_objects, ev_gens),
        "product": Interpretation(
            PROD, {n: (ev_objects[n], sf_objects[n]) for n in sf_objects},
            {n: (ev_gens[n], sf_gens[n]) for n in sf_gens}),
    }


LAYERED_INTERPS = _layered_interpretations()


def _layered_diagram(rng):
    """Zero to five boxes on one strand each, on a word of zero to four
    letters A, B and their duals, then zero to three cells of any kind
    (at least one if there is no box), the first often a cap."""
    dom = tuple(rng.choice((A, B, dual_letter(A), dual_letter(B)))
                for _ in range(rng.randint(0, 4)))
    cells, current = [], dom
    for _ in range(rng.randint(0, 5)):
        options = [box.shifted(w) for w, x in enumerate(current)
                   for box in STRAND_BOXES.get(x, ())]
        if not options:
            break
        cells.append(rng.choice(options))
        current = Diagram(SIG3, current, cells[-1:]).cod
    for i in range(rng.randint(0 if cells else 1, 3)):
        options = _candidates(current, SIG3, SIG3_NAMES, (A, B))
        caps = [cell for cell in options if cell.kind == CAP]
        if i == 0 and caps and rng.random() < 0.5:
            options = caps  # else a cap right after the layer is rare
        cells.append(rng.choice(options))
        current = Diagram(SIG3, current, cells[-1:]).cod
    return Diagram(SIG3, dom, tuple(cells))


LAYERED = [_layered_diagram(random.Random(seed)) for seed in range(80)]


def _layer_slices(d):
    """The leading slices that are boxes taking one letter to one."""
    n = 0
    for cell in d.slices:
        if cell.kind not in (GEN, GEN_INV) or \
                tuple(map(len, cell_arity(d.sig, cell))) != (1, 1):
            break
        n += 1
    return d.slices[:n]


def test_layered_pool_covers_every_kind_of_layer():
    seen = set()
    for d in LAYERED:
        layer = _layer_slices(d)
        strands = {cell.offset for cell in layer}
        after = d.slices[len(layer)].kind if len(d.slices) > len(layer) \
            else None
        seen |= {name for name, present in (
            ("inverse box", any(c.kind == GEN_INV for c in layer)),
            ("boxes on one strand", len(strands) < len(layer)),
            ("letter change", any(c.data in ("x", "y") for c in layer)),
            ("some strands", 0 < len(strands) < len(d.dom)),
            ("every strand", 0 < len(strands) == len(d.dom)),
            ("empty domain", not d.dom),
            ("no leading box", not layer and d.dom),
            ("then cup", layer and after == CUP),
            ("then cap", layer and after == CAP),
            ("then nothing", layer and after is None)) if present}
    assert len(seen) == 10, seen


@pytest.mark.parametrize("name", sorted(LAYERED_INTERPS))
def test_evaluate_matches_the_whiskered_loop_on_leading_layers(name):
    interp = LAYERED_INTERPS[name]
    for d in LAYERED:
        assert interp.model.mor_eq(evaluate(d, interp),
                                   whiskered_evaluate(d, interp)), str(d)


# ------------------------------------ the leading layer, faults as before

SIG4 = signature(["S", "T"], {name: (("T",), ("T",)) for name in "fgkn"}
                 | {"e": (("T",), ("S",))})


F3 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def _shape_cases(model):
    """(T's object, f: T -> T, g from a smaller object into T's, k from
    T's object into a smaller one) in ``model``."""
    if model is PROD:
        return tuple(zip(_shape_cases(EV), _shape_cases(SF)))
    into = [r[:2] for r in F3]
    if model is SF:
        return 3, span(3, 3, F3), span(2, 3, into), span(3, 2, F3[:2])
    t, small = ev_object(3), ev_object(2)
    return t, ev_morphism(t, t, F3), ev_morphism(small, t, into), \
        ev_morphism(t, small, F3[:2])


def _fault_cases(model):
    """(interpretation, diagram) pairs that evaluate to an error."""
    t, f, g, k = _shape_cases(model)
    full = {"f": f, "g": g, "k": k, "n": f, "e": f}
    tt = (Letter("T"), Letter("T"))

    def case(objects, gens, dom, *cells):
        return Interpretation(model, objects, gens), \
            Diagram(SIG4, dom, tuple(Cell(*c) for c in cells))
    no_n = {name: m for name, m in full.items() if name != "n"}
    return [
        # g's domain is not T's object: one box, and a box then a braid
        case({"T": t}, full, tt, (GEN, 0, "g")),
        case({"T": t}, full, tt, (GEN, 0, "g"), (BRAID, 0, 1)),
        # k's codomain is not T's object, then a second box on its strand
        case({"T": t}, full, tt, (GEN, 0, "k"), (GEN, 0, "f")),
        # no object for S: in the domain, and made by a leading box
        case({"T": t}, full, (Letter("T"), Letter("S")), (GEN, 0, "f")),
        case({"T": t}, full, tt, (GEN, 0, "e"), (BRAID, 0, 1)),
        # no morphism for n, after a box that the layer takes
        case({"T": t}, no_n, tt, (GEN, 0, "f"), (GEN, 1, "n")),
        # both: the domain's missing object is reported first
        case({"T": t}, no_n, (Letter("T"), Letter("S")), (GEN, 0, "n")),
    ]


def _raised(fn, *args):
    try:
        fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
def test_leading_layer_faults_are_raised_as_before(model, monkeypatch):
    cases = _fault_cases(model)
    now = [_raised(evaluate, d, interp) for interp, d in cases]
    oracle = [_raised(whiskered_evaluate, d, interp) for interp, d in cases]
    # the slice loop alone, from the identity, as before the layer
    monkeypatch.setattr(evaluate_module, "_leading_layer",
                        lambda *args: (0, None))
    loop = [_raised(evaluate, d, interp) for interp, d in cases]
    assert None not in now and now == loop
    assert [r[0] for r in now] == [r[0] for r in oracle]
    # whiskering composes where act acts, so only the messages of the
    # interpretation's own faults are the oracle's
    assert [r for r in now if r[0] is EvaluationError] == \
        [r for r in oracle if r[0] is EvaluationError]
    assert [r[0] for r in now].count(DimensionMismatch) == 3


# ---------------------------------------------- the layer's work, in units

def _count_calls(monkeypatch):
    """Count calls of each model class's act, permute and braiding, keyed
    by (class, name)."""
    counts = {}
    for cls in (type(SF), type(EV), type(PROD)):
        for name in ("act", "permute", "braiding"):
            def counted(self, *args, _op=getattr(cls, name), _key=(cls, name)):
                counts[_key] = counts.get(_key, 0) + 1
                return _op(self, *args)
            monkeypatch.setattr(cls, name, counted)
    return counts


@pytest.mark.parametrize("name", sorted(INTERPS))
@pytest.mark.parametrize("k, m", [(1, 1), (3, 1), (3, 4), (4, 2)])
def test_leading_boxes_make_no_act_call(name, k, m, monkeypatch):
    # a run of m braids is one permute; only a box after a braid acts
    interp = INTERPS[name]
    cls = type(interp.model)
    dom = (T,) * k
    boxes = tuple(Cell(GEN, w, "f") for w in range(k))
    braids = tuple(Cell(BRAID, i % (k - 1) if k > 1 else 0,
                        1 if i % 2 else -1) for i in range(m))
    if k == 1:      # a braid needs two strands: a wire beside the box
        dom = (T, T)
    counts = _count_calls(monkeypatch)
    for cells, acts, permutes in ((boxes + braids, 0, 1),
                                  (braids + boxes, k, 1),
                                  (braids + boxes[:1] + braids, 1, 2)):
        counts.clear()
        d = Diagram(SIG, dom, cells)
        value = evaluate(d, interp)
        assert (counts.get((cls, "act"), 0), counts.get((cls, "permute"), 0),
                counts.get((cls, "braiding"), 0)) == (acts, permutes, 0), cells
        assert interp.model.mor_eq(value, whiskered_evaluate(d, interp))


@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
def test_a_last_box_into_a_letter_with_no_object_evaluates(model):
    # S has no object, but no word after the box is read
    t, f, _, _ = _shape_cases(model)
    interp = Interpretation(model, {"T": t}, {"e": f})
    d = Diagram(SIG4, (Letter("T"), Letter("T")), (Cell(GEN, 1, "e"),))
    assert model.mor_eq(evaluate(d, interp), whiskered_evaluate(d, interp))


@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
def test_a_braid_run_over_a_letter_with_no_object_raises_as_before(model):
    # the box makes S, which has no object; the run of braids after it
    # reads S, on a braid over S or beside it
    t, f, _, _ = _shape_cases(model)
    interp = Interpretation(model, {"T": t}, {"e": f})
    ts = (Letter("T"),) * 3
    for cells in (((GEN, 1, "e"), (BRAID, 0, 1)),
                  ((GEN, 2, "e"), (BRAID, 1, -1), (BRAID, 0, 1)),
                  ((GEN, 2, "e"), (BRAID, 0, 1))):
        d = Diagram(SIG4, ts[:max(c[1] for c in cells) + 1],
                    tuple(Cell(*c) for c in cells))
        assert _raised(evaluate, d, interp) == \
            _raised(whiskered_evaluate, d, interp) == \
            (EvaluationError, "no object assigned to S"), cells


# ------------------------------------------------ a run of braids, permuted

def _braid_by_braid(model, out, objs, offsets):
    """out followed by the braiding at each offset in turn, each acting
    on its two factors: evaluate's path for a run of braids before
    ``permute``."""
    objs = list(objs)
    for w in offsets:
        left = reduce(model.tensor_obj, objs[:w], model.unit())
        right = reduce(model.tensor_obj, objs[w + 2:], model.unit())
        out = model.act(out, left, model.braiding(objs[w], objs[w + 1]),
                        right)
        objs[w], objs[w + 1] = objs[w + 1], objs[w]
    return out


def _random_into(rng, model, cod):
    """A random morphism into cod from a random object of the model."""
    if model is PROD:
        return (_random_into(rng, EV, cod[0]), _random_into(rng, SF, cod[1]))
    if model is SF:
        return _random_span(rng, rng.randint(0, 3), cod)
    return _random_ev(rng, rng.choice(EV_OBJECTS), cod)


PERMUTE_OBJECTS = {SF: (0, 1, 2, 3), EV: EV_OBJECTS,
                   PROD: tuple(zip(EV_OBJECTS, (0, 1, 2, 3, 2, 1, 3)))}


@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
def test_permute_matches_the_braid_by_braid_acts(model):
    rng = random.Random(model.name)
    pool = PERMUTE_OBJECTS[model]
    for _ in range(80):
        objs = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        offsets = [rng.randrange(len(objs) - 1)
                   for _ in range(rng.randint(0, 6))]
        src = list(range(len(objs)))
        for w in offsets:
            src[w], src[w + 1] = src[w + 1], src[w]
        out = _random_into(rng, model,
                           reduce(model.tensor_obj, objs, model.unit()))
        assert model.mor_eq(model.permute(out, objs, src),
                            _braid_by_braid(model, out, objs, offsets)), \
            (objs, offsets)


@pytest.mark.parametrize("model", [SF, EV, PROD], ids=lambda m: m.name)
def test_permute_refuses_a_wrong_word_or_a_repeated_position(model):
    pool = PERMUTE_OBJECTS[model]
    x, y = pool[2], pool[-3]
    out = model.identity(model.tensor_obj(x, y))
    with pytest.raises(DimensionMismatch):
        model.permute(out, [x, y, x], (2, 1, 0))
    with pytest.raises(ValueError):
        model.permute(out, [x, y], (1, 1))
