"""dualkit's value classes behave as the dataclasses they replace.

Each class below is a twin: the ``@dataclass`` declaration, with the
same name, fields, defaults and flags (frozen, order), of one of
dualkit's 28 value classes, which are plain classes that write out
their ``__init__``, ``__eq__`` and ``__hash__``.  The twins leave out
the input checks of ``__post_init__`` (the value tests of each layer
cover them), except that ``PermGroup`` computes its elements.  For
seeded field values, each class must be equal and unequal to other
values as its twin is, hash and print as its twin does, refuse
assignment and deletion when its twin is frozen, and, for ``Letter``,
order as its twin does.  The values carry a stopgap
``__dataclass_fields__`` table because the benchmark corrupts traces and
certificates with ``dataclasses.replace`` and its digit count reads the
table; ``replace``, ``fields`` and ``asdict`` must work on the values as
on the twins, and the digit count must read the same on both.
"""

import dataclasses
import importlib
import operator
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import pytest

from dualkit.exactlin import fp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_refs",
                                               PERFBENCH / "refs.py")
refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refs)

HOMES = {
    "dualkit.exactlin": ("Matrix",),
    "dualkit.models.base": ("DualityDatum", "Biproduct", "Cofiber"),
    "dualkit.models.evconst": ("EvObject", "EvMorphism"),
    "dualkit.models.spanfin": ("SpanMorphism",),
    "dualkit.idem": ("ClosedIdempotent", "ClopenIdempotent", "SplitReport"),
    "dualkit.diagram.signature": ("Letter", "GenType", "Signature"),
    "dualkit.diagram.diagram": ("Cell", "Diagram"),
    "dualkit.diagram.graph": ("OpenGraph", "NormalForm"),
    "dualkit.diagram.rewrite": ("RewriteRule", "Step", "RewriteTrace",
                                "TraceReport"),
    "dualkit.equivariant.groups": ("PermGroup", "ConjugacyPoset"),
    "dualkit.equivariant.certificate": ("CertStep", "CollapseCertificate",
                                        "CertReport"),
    "dualkit.equivariant.spheres": ("IntervalSphere", "CofiberUpsetSequence"),
}
REAL = {name: getattr(importlib.import_module(module), name)
        for module, names in HOMES.items() for name in names}
dk = SimpleNamespace(**REAL)    # the real classes: dk.Matrix, ...
groups = importlib.import_module("dualkit.equivariant.groups")
spheres = importlib.import_module("dualkit.equivariant.spheres")
evconst = importlib.import_module("dualkit.models.evconst")


# ----------------------------------------------------------------- twins

@dataclass(frozen=True)
class Matrix:
    domain: Any
    rows: int
    cols: int
    data: tuple = field(default=())


@dataclass(frozen=True)
class DualityDatum:
    obj: Any
    dual: Any
    eta: Any
    eps: Any


@dataclass(frozen=True)
class Biproduct:
    obj: Any
    inj1: Any
    inj2: Any
    proj1: Any
    proj2: Any


@dataclass(frozen=True)
class Cofiber:
    obj: Any
    quotient: Any
    provenance: str = ""


@dataclass(frozen=True)
class EvObject:
    f: int
    exc: tuple = ()


@dataclass(frozen=True)
class EvMorphism:
    dom: Any
    cod: Any
    free: Any
    explicit: tuple = ()


@dataclass(frozen=True)
class SpanMorphism:
    dom: int
    cod: int
    matrix: Any


@dataclass(frozen=True)
class ClosedIdempotent:
    E: Any
    r: Any


@dataclass(frozen=True)
class ClopenIdempotent:
    E: Any
    r: Any
    i: Any


@dataclass
class SplitReport:
    pairs: list = field(default_factory=list)
    verdict: bool = True


@dataclass(frozen=True, order=True)
class Letter:
    name: str
    dual: bool = False


@dataclass(frozen=True)
class GenType:
    dom: tuple
    cod: tuple
    invertible: bool = False


@dataclass(frozen=True)
class Signature:
    objects: tuple
    generators: tuple = ()


@dataclass(frozen=True)
class Cell:
    kind: str
    offset: int
    data: object


@dataclass(frozen=True)
class Diagram:
    sig: Any
    dom: tuple
    slices: tuple = ()


@dataclass(frozen=True)
class OpenGraph:
    dom: tuple
    cod: tuple
    boxes: tuple
    wires: tuple
    loops: tuple


@dataclass(frozen=True)
class NormalForm:
    dom: tuple
    cod: tuple
    boxes: tuple
    wires: tuple
    loops: tuple


@dataclass(frozen=True)
class RewriteRule:
    rule_id: str
    kind: str
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Step:
    rule: str
    direction: str
    slice_idx: int
    offset: int


@dataclass(frozen=True)
class RewriteTrace:
    name: str
    sig: Any
    rules: tuple
    start: Any
    end: Any
    steps: tuple


@dataclass
class TraceReport:
    name: str
    ok: bool
    steps_applied: int
    message: str = ""


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple
    elements: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(
            groups._closure(self.degree, self.generators))))


@dataclass(frozen=True)
class ConjugacyPoset:
    group: Any
    classes: tuple
    leq: tuple
    weyl_orders: tuple


@dataclass(frozen=True)
class CertStep:
    rule: str
    cls: int
    upset: tuple
    premises: tuple
    conclusion: str


@dataclass(frozen=True)
class CollapseCertificate:
    group: dict
    axioms: tuple
    steps: tuple
    final_fact: str


@dataclass
class CertReport:
    ok: bool
    message: str = ""
    step_index: int = -1
    checked_steps: int = 0


@dataclass(frozen=True)
class IntervalSphere:
    poset: Any
    classes: frozenset


@dataclass(frozen=True)
class CofiberUpsetSequence:
    downset_sphere: Any
    unit_sphere: Any
    upset_sphere: Any


TWIN = {name: globals()[name] for name in REAL}
MUTABLE = {"SplitReport", "TraceReport", "CertReport"}


# ------------------------------------------------------ seeded field values
# Each maker draws the __init__ arguments of one class from small pools,
# so that equal values occur among a few dozen draws.

def _rows(rng, r, c, hi=1):
    return tuple(tuple(rng.randint(0, hi) for _ in range(c))
                 for _ in range(r))


def _matrix(rng, domain=None, shape=None):
    domain = domain or rng.choice(["nat", "int", fp(2)])
    r, c = shape or (rng.randint(0, 2), rng.randint(0, 2))
    return dk.Matrix(domain, r, c, _rows(rng, r, c))


def _ev_object(rng):
    f = rng.randint(0, 2)
    return evconst.ev_object(f, {p: rng.randint(0, 2) for p in (2, 3)
                                 if rng.random() < 0.4})


def _ev_morphism(rng):
    dom, cod = _ev_object(rng), _ev_object(rng)
    primes = sorted({*dom.exc_primes(), *cod.exc_primes()} |
                    ({5} if rng.random() < 0.3 else set()))
    return evconst.ev_morphism(dom, cod, _rows(rng, cod.f, dom.f), {
        p: _rows(rng, cod.dim(p), dom.dim(p)) for p in primes})


def _span(rng):
    dom, cod = rng.randint(0, 2), rng.randint(0, 2)
    return dk.SpanMorphism(dom, cod, _matrix(rng, "nat", (cod, dom)))


SIG = dk.Signature(("S", "T"), (("f", dk.GenType(
    (dk.Letter("S"),), (dk.Letter("T"),))),))


ID = dk.Diagram(SIG, ())
CUP = dk.Diagram(SIG, (), (dk.Cell("cup", 0, dk.Letter("S")),))


def _letter(rng):
    return dk.Letter(rng.choice("ST"), rng.random() < 0.5)


def _word(rng, n=2):
    return tuple(_letter(rng) for _ in range(rng.randint(0, n)))


def _cell(rng):
    kind = rng.choice(["gen", "gen-inv", "braid", "cup", "cap"])
    data = {"gen": "f", "gen-inv": "f", "braid": rng.choice([1, -1])}.get(
        kind) or _letter(rng)
    return {"kind": kind, "offset": rng.randint(0, 1), "data": data}


def _diagram(rng, dom=None):
    dom = _word(rng) if dom is None else dom
    slices = () if rng.random() < 0.5 else (
        dk.Cell("cup", rng.randint(0, len(dom)), _letter(rng)),)
    return dk.Diagram(SIG, dom, slices)


def _rule(rng):
    dom = _word(rng, 1)
    lhs = dk.Diagram(SIG, dom)
    return dk.RewriteRule(rng.choice("ab"), rng.choice(
        ["hypothesis", "lemma", "definition"]), lhs, lhs)


def _step(rng):
    return dk.Step(rng.choice("ab"), rng.choice(["fwd", "bwd"]),
                   rng.randint(0, 1), rng.randint(0, 1))


def _graph_fields(rng):
    return {"dom": _word(rng, 1), "cod": _word(rng, 1),
            "boxes": tuple(("gen", "f") for _ in range(rng.randint(0, 1))),
            "wires": tuple(frozenset({("dom", 0), ("cod", i)})
                           for i in range(rng.randint(0, 1))),
            "loops": tuple("S" for _ in range(rng.randint(0, 1)))}


PERMS = [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1)]


def _group(rng):
    return dk.PermGroup(3, tuple(rng.sample(PERMS, rng.randint(0, 2))))


def _poset(rng):
    return groups.enumerate_subgroup_classes(_group(rng))


def _sphere(rng, poset=None):
    poset = poset or _poset(rng)
    i = rng.randrange(poset.n)
    closure = rng.choice([spheres.up_closure, spheres.down_closure])
    return dk.IntervalSphere(poset, closure(poset, i))


def _cert_step(rng):
    return dk.CertStep(rng.choice(["SingletonKill", "SmashRemove"]),
                       rng.randint(0, 1), tuple(range(rng.randint(0, 2))),
                       ("F(S^V) = 0",) * rng.randint(0, 1),
                       rng.choice(["F(S^0) = 0", "x"]))


def _small(rng):
    return rng.choice([0, (0, 1)])


MAKERS = {
    "Matrix": lambda rng: vars(_matrix(rng)),
    "DualityDatum": lambda rng: {k: _small(rng)
                                 for k in ("obj", "dual", "eta", "eps")},
    "Biproduct": lambda rng: {k: _small(rng) for k in (
        "obj", "inj1", "inj2", "proj1", "proj2")},
    "Cofiber": lambda rng: {"obj": rng.randint(0, 1), "quotient": _span(rng),
                            "provenance": rng.choice(["", "backward"])},
    "EvObject": lambda rng: vars(_ev_object(rng)),
    "EvMorphism": lambda rng: vars(_ev_morphism(rng)),
    "SpanMorphism": lambda rng: vars(_span(rng)),
    "ClosedIdempotent": lambda rng: {"E": _small(rng), "r": _small(rng)},
    "ClopenIdempotent": lambda rng: {k: _small(rng) for k in "Eri"},
    "SplitReport": lambda rng: {
        "pairs": [{"pair": rng.randint(0, 1)}] * rng.randint(0, 2),
        "verdict": rng.random() < 0.5},
    "Letter": lambda rng: vars(_letter(rng)),
    "GenType": lambda rng: {"dom": _word(rng), "cod": _word(rng),
                            "invertible": rng.random() < 0.5},
    "Signature": lambda rng: {
        "objects": rng.choice([("S", "T"), ("T", "S"), ("S",)]),
        "generators": rng.choice([(), (("g", dk.GenType(
            (dk.Letter("S"),), ())),)])},
    "Cell": _cell,
    "Diagram": lambda rng: vars(_diagram(rng)),
    "OpenGraph": _graph_fields,
    "NormalForm": _graph_fields,
    "RewriteRule": lambda rng: vars(_rule(rng)),
    "Step": lambda rng: vars(_step(rng)),
    "RewriteTrace": lambda rng: {
        "name": rng.choice("xy"), "sig": SIG,
        "rules": rng.choice([(), (dk.RewriteRule("a", "lemma", ID, ID),)]),
        "start": rng.choice([ID, CUP]), "end": rng.choice([ID, CUP]),
        "steps": rng.choice([(), (dk.Step("a", "fwd", 0, 0),)])},
    "TraceReport": lambda rng: {"name": rng.choice("xy"),
                                "ok": rng.random() < 0.5,
                                "steps_applied": rng.randint(0, 1),
                                "message": rng.choice(["", "m"])},
    "PermGroup": lambda rng: vars(_group(rng)),
    "ConjugacyPoset": lambda rng: vars(_poset(rng)),
    "CertStep": lambda rng: vars(_cert_step(rng)),
    "CollapseCertificate": lambda rng: {
        "group": {"degree": rng.randint(1, 2)},
        "axioms": ("F(S^V) = 0",) * rng.randint(0, 1),
        "steps": tuple(_cert_step(rng) for _ in range(rng.randint(0, 1))),
        "final_fact": rng.choice(["F(S^0) = 0", "x"])},
    "CertReport": lambda rng: {"ok": rng.random() < 0.5,
                               "message": rng.choice(["", "m"]),
                               "step_index": rng.randint(-1, 0),
                               "checked_steps": rng.randint(0, 1)},
    "IntervalSphere": lambda rng: vars(_sphere(rng)),
    "CofiberUpsetSequence": lambda rng: (lambda poset: {
        k: _sphere(rng, poset) for k in (
            "downset_sphere", "unit_sphere", "upset_sphere")})(
                _poset(rng)),
}
NAMES = sorted(REAL)
DRAWS = 30


def draws(name):
    """DRAWS pairs (value, twin) built from the same seeded arguments."""
    rng = random.Random(f"value-types {name}")
    out = []
    init = [f.name for f in dataclasses.fields(TWIN[name]) if f.init]
    for _ in range(DRAWS):
        values = MAKERS[name](rng)
        kwargs = {f: values[f] for f in init}
        out.append((REAL[name](**kwargs), TWIN[name](**kwargs)))
    return out


def outcome(fn, *args):
    """fn(*args), or the class of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def refused(fn, *args) -> bool:
    """Whether fn(*args) raises an AttributeError."""
    result = outcome(fn, *args)
    return isinstance(result, type) and issubclass(result, AttributeError)


def test_every_replaced_class_has_a_twin_and_a_maker():
    assert len(REAL) == 28 and set(MAKERS) == set(REAL)
    for name, cls in REAL.items():
        twin = dataclasses.fields(TWIN[name])
        assert cls._fields == tuple(f.name for f in twin), name
        assert cls._derived == tuple(f.name for f in twin if not f.init)


@pytest.mark.parametrize("name", NAMES)
def test_equality_hash_and_repr_match_the_twin(name):
    pairs = draws(name)
    equal = unequal = 0
    for x, tx in pairs:
        assert repr(x) == repr(tx)
        assert outcome(hash, x) == outcome(hash, tx)
        fields = tuple(getattr(x, f) for f in x._fields)
        for other in (None, fields, object()):
            assert (x == other) is (tx == other) is False
            assert (x != other) is (tx != other) is True
        for y, ty in pairs:
            assert (x == y) is (tx == ty)
            assert (x != y) is (tx != ty)
            equal += x == y and x is not y
            unequal += x != y
    assert equal and unequal, "the draws must hold equal and unequal values"


@pytest.mark.parametrize("name", NAMES)
def test_values_refuse_assignment_and_deletion_as_the_twin(name):
    frozen = name not in MUTABLE
    (x, tx), (y, _) = draws(name)[:2]
    before = repr(x)
    for f in (*x._fields, "new_attribute"):
        for v in (x, tx):
            assert refused(setattr, v, f, getattr(y, f, 0)) is frozen
            assert refused(delattr, v, f) is frozen
    if frozen:
        assert repr(x) == before


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt,
                                operator.ge], ids=lambda op: op.__name__)
def test_letters_order_as_the_twin(op):
    pairs = draws("Letter")
    for x, tx in pairs:
        for y, ty in pairs:
            assert op(x, y) is op(tx, ty)
        assert outcome(op, x, (x.name, x.dual)) is TypeError
        assert outcome(op, tx, (tx.name, tx.dual)) is TypeError
    assert list(map(repr, sorted(x for x, _ in pairs))) == \
        list(map(repr, sorted(tx for _, tx in pairs)))


@pytest.mark.parametrize("name", NAMES)
def test_dataclasses_functions_work_as_on_the_twin(name):
    pairs = draws(name)
    for (x, tx), (y, ty) in zip(pairs, pairs[1:]):
        assert [f.name for f in dataclasses.fields(x)] == \
            [f.name for f in dataclasses.fields(tx)]
        assert dataclasses.asdict(x) == dataclasses.asdict(tx)
        assert refs.max_int_digits(x) == refs.max_int_digits(tx)
        assert type(dataclasses.replace(x)) is type(x)
        assert repr(dataclasses.replace(x)) == repr(x)
        # every argument of __init__ taken from y
        change = {f.name: getattr(y, f.name)
                  for f in dataclasses.fields(ty) if f.init}
        new = dataclasses.replace(x, **change)
        assert repr(new) == repr(dataclasses.replace(tx, **change)) == \
            repr(y)
