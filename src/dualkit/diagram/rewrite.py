"""Rewriting of string diagrams: declared rules, built-in isotopy moves,
and machine-checkable rewrite traces.

A trace is a start diagram, an end diagram, and a list of steps.  Each
step names a rule (a declared hypothesis/lemma/definition rule matched
by an exact window, or one of the built-in moves below), a direction, a
slice index, and a horizontal offset w.  Validation replays every step
and compares the result with the end diagram syntactically.

Built-in moves (forward, then backward, unless the move is its own
inverse):

- ``interchange``       swap two adjacent slices acting on disjoint wires
- ``braid-nat``         slide a 1-in/1-out box through an elementary braid
- ``unit-slide+``/``-`` a 0-in/1-out (or 1-in/0-out) box absorbs/emits a
                        braid of the given sign next to it
- ``cupcap-slide``      slide a cup or cap through a braid, flipping its sign
- ``braid-cancel``      delete/insert an adjacent (+, -) braid pair
- ``braid-cancel-rev``  the (-, +) variant
- ``inv-cancel:g``      delete/insert a (g, g-inverse) pair
- ``inv-cancel-rev:g``  the (g-inverse, g) variant
- ``triangle-A``/``-B`` delete/insert a cup-cap snake on strand w: the two
                        snake identities for cups and caps
"""

from __future__ import annotations

from .. import DomainError, Frozen, MalformedInput, Record, has_shape
from .diagram import (BRAID, CAP, CUP, GEN, GEN_INV, Cell, Diagram,
                      TypingError, cell_arity)
from .signature import Signature, dual_letter, word_str

FWD = "fwd"
BWD = "bwd"

RULE_KINDS = ("hypothesis", "lemma", "definition")


class RewriteError(DomainError):
    """A rewrite step does not apply at the given location."""


class RewriteRule(Frozen):
    """A declared rule between two parallel diagrams."""
    _fields = ("rule_id", "kind", "lhs", "rhs")

    def __init__(self, rule_id: str, kind: str, lhs: Diagram, rhs: Diagram):
        if kind not in RULE_KINDS:
            raise MalformedInput(f"unknown rule kind {kind}")
        if lhs.sig != rhs.sig:
            raise MalformedInput("rule sides use different signatures")
        if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
            raise MalformedInput("rule sides are not parallel")
        self.__dict__.update(rule_id=rule_id, kind=kind, lhs=lhs, rhs=rhs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rule_id, self.kind, self.lhs, self.rhs) == \
            (other.rule_id, other.kind, other.lhs, other.rhs)

    def __hash__(self):
        return hash((self.rule_id, self.kind, self.lhs, self.rhs))

    def to_json(self) -> dict:
        return {"id": self.rule_id, "kind": self.kind,
                "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json()}

    @staticmethod
    def from_json(sig: Signature, obj) -> "RewriteRule":
        return RewriteRule(obj["id"], obj["kind"],
                           Diagram.from_json(sig, obj["lhs"]),
                           Diagram.from_json(sig, obj["rhs"]))


class Step(Frozen):
    _fields = ("rule", "direction", "slice_idx", "offset")

    def __init__(self, rule: str, direction: str, slice_idx: int,
                 offset: int):
        if direction not in (FWD, BWD):
            raise MalformedInput(f"unknown direction {direction}")
        self.__dict__.update(rule=rule, direction=direction,
                             slice_idx=slice_idx, offset=offset)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rule, self.direction, self.slice_idx, self.offset) == \
            (other.rule, other.direction, other.slice_idx, other.offset)

    def __hash__(self):
        return hash((self.rule, self.direction, self.slice_idx, self.offset))

    def to_json(self) -> dict:
        return {"rule": self.rule, "dir": self.direction,
                "slice": self.slice_idx, "offset": self.offset}

    @staticmethod
    def from_json(obj) -> "Step":
        return Step(obj["rule"], obj["dir"], obj["slice"], obj["offset"])


# ----------------------------------------------------------- declared rules

def _window(diagram: Diagram, k: int, n: int) -> tuple:
    """The n slices from slice k (none, for an insertion point)."""
    if k + n > len(diagram.slices):
        raise RewriteError(f"slices [{k}, {k + n}) out of range")
    return diagram.slices[k:k + n]


def _splice(diagram: Diagram, k: int, n: int, new) -> Diagram:
    return Diagram(diagram.sig, diagram.dom,
                   diagram.slices[:k] + tuple(new) + diagram.slices[k + n:])


def _apply_declared(diagram: Diagram, rule: RewriteRule, direction: str,
                    k: int, w: int) -> Diagram:
    lhs, rhs = (rule.lhs, rule.rhs) if direction == FWD else \
        (rule.rhs, rule.lhs)
    found = _window(diagram, k, len(lhs.slices))
    for j, cell in enumerate(lhs.slices):
        if found[j] != cell.shifted(w):
            raise RewriteError(
                f"slice {k + j} is {found[j]}, rule "
                f"{rule.rule_id} expects {cell.shifted(w)}")
    here = diagram.boundaries()[k]
    if here[w:w + len(lhs.dom)] != lhs.dom or w + len(lhs.dom) > len(here):
        raise RewriteError(
            f"rule {rule.rule_id} expects context {word_str(lhs.dom)} at "
            f"offset {w} in {word_str(here)}")
    return _splice(diagram, k, len(lhs.slices),
                   (c.shifted(w) for c in rhs.slices))


# ----------------------------------------------------------- builtin moves
# A move is move(diagram, direction, k, w, arg): the diagram after the
# step at slice k and offset w, both at least 0, where arg is the
# generator named after the colon of inv-cancel:g and empty otherwise.
# A move raises RewriteError where the step does not apply; apply_rule
# turns an ill-typed result into one.

def _lens(sig, cell) -> tuple:
    """How many strands the cell consumes and how many it produces."""
    if cell.kind == BRAID:
        return 2, 2
    consumed, produced = cell_arity(sig, cell)
    return len(consumed), len(produced)


def _interchange(diagram: Diagram, direction: str, k: int, w: int,
                 arg: str) -> Diagram:
    a, b = _window(diagram, k, 2)
    if a.offset != w:
        raise RewriteError(f"offset {w} does not match first cell {a}")
    a_in, a_out = _lens(diagram.sig, a)
    b_in, b_out = _lens(diagram.sig, b)
    if b.offset + b_in <= a.offset:
        # b acts entirely to the left of a's output
        new = (b, Cell(a.kind, a.offset - b_in + b_out, a.data))
    elif b.offset >= a.offset + a_out:
        new = (Cell(b.kind, b.offset - a_out + a_in, b.data), a)
    else:
        raise RewriteError(f"cells {a} and {b} overlap; cannot interchange")
    return _splice(diagram, k, 2, new)


def _across(sig, box: Cell, w: int) -> tuple:
    """(box moved to the other strand of a braid at offset w, its lens);
    the box must be a generator on strand w or w + 1."""
    if box.kind not in (GEN, GEN_INV):
        raise RewriteError(f"{box} is not a box")
    if box.offset not in (w, w + 1):
        raise RewriteError(f"box {box} not on a braid strand at {w}")
    return Cell(box.kind, 2 * w + 1 - box.offset, box.data), _lens(sig, box)


def _braid_nat(diagram: Diagram, direction: str, k: int, w: int,
               arg: str) -> Diagram:
    a, b = _window(diagram, k, 2)
    box, braid = (a, b) if direction == FWD else (b, a)
    if braid.kind != BRAID or braid.offset != w:
        raise RewriteError(f"no braid at offset {w}")
    moved, lens = _across(diagram.sig, box, w)
    if lens != (1, 1):
        raise RewriteError(f"{box} is not a 1-in/1-out box")
    return _splice(diagram, k, 2,
                   (braid, moved) if direction == FWD else (moved, braid))


def _unit_slide(sign: int):
    """The move that takes a unit box then a braid of this sign, or the
    braid then a counit box, to the box alone on the braid's other
    strand (forward), and back."""
    def move(diagram: Diagram, direction: str, k: int, w: int,
             arg: str) -> Diagram:
        braid = Cell(BRAID, w, sign)
        found = _window(diagram, k, 2 if direction == FWD else 1)
        box = found[-1] if found[0].kind == BRAID else found[0]
        moved, lens = _across(diagram.sig, box, w)
        if lens not in ((0, 1), (1, 0)):
            raise RewriteError(f"{box} is not a unit/counit-shaped box")
        unit = lens == (0, 1)
        if direction == BWD:
            return _splice(diagram, k, 1,
                           (moved, braid) if unit else (braid, moved))
        if found != ((box, braid) if unit else (braid, box)):
            raise RewriteError(f"no sign-{sign} braid at offset {w} "
                               f"beside {box}")
        return _splice(diagram, k, 2, (moved,))
    return move


def _cupcap_slide(diagram: Diagram, direction: str, k: int, w: int,
                  arg: str) -> Diagram:
    """A cup followed by a braid, or a braid followed by a cap, on
    adjacent strands: the cup or cap takes the braid's offset, and the
    braid takes the cup's or cap's offset with its sign flipped.  The
    move is its own inverse."""
    a, b = _window(diagram, k, 2)
    if a.offset != w:
        raise RewriteError(f"offset {w} does not match first cell {a}")
    if (a.kind, b.kind) not in ((CUP, BRAID), (BRAID, CAP)):
        raise RewriteError(f"no cup/braid or braid/cap pair at slice {k}")
    if abs(a.offset - b.offset) != 1:
        raise RewriteError(f"cells {a} and {b} are not adjacent")
    new = (Cell(a.kind, b.offset, -a.data if a.kind == BRAID else a.data),
           Cell(b.kind, a.offset, -b.data if b.kind == BRAID else b.data))
    return _splice(diagram, k, 2, new)


def _strand(diagram: Diagram, k: int, w: int):
    """The letter of strand w before slice k."""
    here = diagram.boundaries()[k]
    if w >= len(here):
        raise RewriteError(f"no strand at offset {w}")
    return here[w]


def _cancel(pair, strand: bool = False):
    """The move that deletes the cells pair(w, x) at slice k going
    forward and inserts them there going backward, where x is the letter
    of strand w before slice k if strand is set, else the rule's arg."""
    def move(diagram: Diagram, direction: str, k: int, w: int,
             arg: str) -> Diagram:
        found = _window(diagram, k, 2 if direction == FWD else 0)
        cells = pair(w, _strand(diagram, k, w) if strand else arg)
        if direction == BWD:
            return _splice(diagram, k, 0, cells)
        if found != cells:
            raise RewriteError(
                f"expected [{cells[0]}; {cells[1]}] at slice {k}, found "
                f"[{found[0]}; {found[1]}]")
        return _splice(diagram, k, 2, ())
    return move


# rule name -> move; a name ending in ":" takes a generator after it
_MOVES = {
    "interchange": _interchange,
    "braid-nat": _braid_nat,
    "unit-slide+": _unit_slide(1),
    "unit-slide-": _unit_slide(-1),
    "cupcap-slide": _cupcap_slide,
    "braid-cancel": _cancel(
        lambda w, _: (Cell(BRAID, w, 1), Cell(BRAID, w, -1))),
    "braid-cancel-rev": _cancel(
        lambda w, _: (Cell(BRAID, w, -1), Cell(BRAID, w, 1))),
    "inv-cancel:": _cancel(
        lambda w, g: (Cell(GEN, w, g), Cell(GEN_INV, w, g))),
    "inv-cancel-rev:": _cancel(
        lambda w, g: (Cell(GEN_INV, w, g), Cell(GEN, w, g))),
    "triangle-A": _cancel(
        lambda w, x: (Cell(CUP, w + 1, x), Cell(CAP, w, x)), strand=True),
    "triangle-B": _cancel(
        lambda w, x: (Cell(CUP, w, dual_letter(x)),
                      Cell(CAP, w + 1, dual_letter(x))), strand=True),
}
BUILTIN_RULES = tuple(_MOVES)


# -------------------------------------------------------------- dispatcher

def apply_rule(diagram: Diagram, rule: str, direction: str, slice_idx: int,
               offset: int, rules: dict | None = None) -> Diagram:
    """The diagram after one rewrite step: a declared rule from rules, or
    a built-in move.  RewriteError when the step does not apply: a
    negative slice index or offset, an unknown rule, no redex at the
    location, or an ill-typed result (an unknown generator among them)."""
    k, w = slice_idx, offset
    if k < 0 or w < 0:
        raise RewriteError(f"slice {k} or offset {w} is negative")
    try:
        if rules and rule in rules:
            return _apply_declared(diagram, rules[rule], direction, k, w)
        name, colon, arg = rule.partition(":")
        if name + colon not in _MOVES:
            raise RewriteError(f"unknown rule {rule}")
        return _MOVES[name + colon](diagram, direction, k, w, arg)
    except (TypingError, MalformedInput) as exc:
        raise RewriteError(
            f"rewrite produced an ill-typed diagram: {exc}") from None


# ------------------------------------------------------------------ traces

_WORD = [str]
_DIAGRAM = {"dom": _WORD, "slices": [{"kind": str, "offset": int,
                                      "sign?": int, "letter?": str,
                                      "gen?": str}]}
TRACE_SHAPE = {
    "name": str,
    "signature": {"objects": [str],
                  "generators?": {str: {"dom": _WORD, "cod": _WORD}}},
    "rules": [{"id": str, "kind": str, "lhs": _DIAGRAM, "rhs": _DIAGRAM}],
    "start": _DIAGRAM, "end": _DIAGRAM,
    "steps": [{"rule": str, "dir": str, "slice": int, "offset": int}]}


class RewriteTrace(Frozen):
    _fields = ("name", "sig", "rules", "start", "end", "steps")

    def __init__(self, name: str, sig: Signature, rules: tuple,
                 start: Diagram, end: Diagram, steps: tuple):
        # rules are the declared RewriteRules usable by the steps, steps
        # a tuple of Step
        self.__dict__.update(name=name, sig=sig, rules=rules, start=start,
                             end=end, steps=steps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.sig, self.rules, self.start, self.end,
                self.steps) == (other.name, other.sig, other.rules,
                                other.start, other.end, other.steps)

    def __hash__(self):
        return hash((self.name, self.sig, self.rules, self.start, self.end,
                     self.steps))

    def to_json(self) -> dict:
        return {"name": self.name,
                "signature": self.sig.to_json(),
                "rules": [r.to_json() for r in self.rules],
                "start": self.start.to_json(),
                "end": self.end.to_json(),
                "steps": [s.to_json() for s in self.steps]}

    @staticmethod
    def from_json(obj) -> "RewriteTrace":
        if not has_shape(obj, TRACE_SHAPE):
            raise MalformedInput("not a rewrite trace: expected an object "
                                 f"with the fields {sorted(TRACE_SHAPE)}")
        sig = Signature.from_json(obj["signature"])
        rules = tuple(RewriteRule.from_json(sig, r) for r in obj["rules"])
        return RewriteTrace(
            obj["name"], sig, rules,
            Diagram.from_json(sig, obj["start"]),
            Diagram.from_json(sig, obj["end"]),
            tuple(Step.from_json(s) for s in obj["steps"]))


class TraceReport(Record):
    _fields = ("name", "ok", "steps_applied", "message")

    def __init__(self, name: str, ok: bool, steps_applied: int,
                 message: str = ""):
        self.name = name
        self.ok = ok
        self.steps_applied = steps_applied
        self.message = message

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.ok, self.steps_applied, self.message) == \
            (other.name, other.ok, other.steps_applied, other.message)

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "steps_applied": self.steps_applied, "message": self.message}


def validate_trace(trace: RewriteTrace) -> TraceReport:
    """Replay every step of the trace; ok iff all steps apply and the
    final diagram equals the declared end diagram syntactically."""
    rules = {r.rule_id: r for r in trace.rules}
    current = trace.start
    for n, s in enumerate(trace.steps):
        try:
            current = apply_rule(current, s.rule, s.direction, s.slice_idx,
                                 s.offset, rules)
        except RewriteError as exc:
            return TraceReport(trace.name, False, n,
                               f"step {n} ({s.rule} {s.direction} at "
                               f"{s.slice_idx}/{s.offset}): {exc}")
    if current.dom != trace.end.dom or current.slices != trace.end.slices:
        return TraceReport(
            trace.name, False, len(trace.steps),
            f"final diagram {current} differs from declared end {trace.end}")
    return TraceReport(trace.name, True, len(trace.steps))
