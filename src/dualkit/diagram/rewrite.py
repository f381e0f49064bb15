"""Rewriting of string diagrams: declared rules, built-in isotopy moves,
and machine-checkable rewrite traces.

A trace is a start diagram, an end diagram, and a list of steps.  Each
step names a rule (a declared hypothesis/lemma/definition rule matched
by an exact window, or one of the built-in move schemas below), a
direction, a slice index, and a horizontal offset.  Validation replays
every step and compares the result with the end diagram syntactically.

Built-in schemas (each is its own inverse or has an explicit direction):

- ``interchange``       swap two adjacent slices acting on disjoint wires
- ``braid-nat``         slide a 1-in/1-out box through an elementary braid
- ``unit-slide+``/``-`` a 0-in/1-out (or 1-in/0-out) box absorbs/emits a
                        braid of the given sign next to it
- ``cupcap-slide``      slide a cup or cap through a braid, flipping its sign
- ``braid-cancel``      delete/insert an adjacent (+, -) braid pair
- ``braid-cancel-rev``  the (-, +) variant
- ``inv-cancel:g``      delete/insert a (g, g-inverse) pair
- ``inv-cancel-rev:g``  the (g-inverse, g) variant
- ``triangle-A``/``-B`` the two snake identities for cups and caps
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import DomainError, MalformedInput, has_shape
from .diagram import (BRAID, CAP, CUP, GEN, GEN_INV, Cell, Diagram,
                      TypingError, cell_arity)
from .signature import Signature, dual_letter, word_str

FWD = "fwd"
BWD = "bwd"

RULE_KINDS = ("hypothesis", "lemma", "definition")


class RewriteError(DomainError):
    """A rewrite step does not apply at the given location."""


@dataclass(frozen=True)
class RewriteRule:
    """A declared rule between two parallel diagrams."""
    rule_id: str
    kind: str
    lhs: Diagram
    rhs: Diagram

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise MalformedInput(f"unknown rule kind {self.kind}")
        if self.lhs.sig != self.rhs.sig:
            raise MalformedInput("rule sides use different signatures")
        if self.lhs.dom != self.rhs.dom or self.lhs.cod != self.rhs.cod:
            raise MalformedInput("rule sides are not parallel")

    def to_json(self) -> dict:
        return {"id": self.rule_id, "kind": self.kind,
                "lhs": self.lhs.to_json(), "rhs": self.rhs.to_json()}

    @staticmethod
    def from_json(sig: Signature, obj) -> "RewriteRule":
        return RewriteRule(obj["id"], obj["kind"],
                           Diagram.from_json(sig, obj["lhs"]),
                           Diagram.from_json(sig, obj["rhs"]))


@dataclass(frozen=True)
class Step:
    rule: str
    direction: str
    slice_idx: int
    offset: int

    def __post_init__(self):
        if self.direction not in (FWD, BWD):
            raise MalformedInput(f"unknown direction {self.direction}")

    def to_json(self) -> dict:
        return {"rule": self.rule, "dir": self.direction,
                "slice": self.slice_idx, "offset": self.offset}

    @staticmethod
    def from_json(obj) -> "Step":
        return Step(obj["rule"], obj["dir"], obj["slice"], obj["offset"])


def step(rule: str, direction: str, slice_idx: int, offset: int) -> Step:
    return Step(rule, direction, slice_idx, offset)


# ----------------------------------------------------------- declared rules

def _apply_declared(diagram: Diagram, rule: RewriteRule, direction: str,
                    k: int, w: int) -> Diagram:
    lhs, rhs = (rule.lhs, rule.rhs) if direction == FWD else \
        (rule.rhs, rule.lhs)
    n = len(lhs.slices)
    if not 0 <= k <= len(diagram.slices) - n:
        raise RewriteError(f"window [{k}, {k + n}) out of range")
    for j, cell in enumerate(lhs.slices):
        if diagram.slices[k + j] != cell.shifted(w):
            raise RewriteError(
                f"slice {k + j} is {diagram.slices[k + j]}, rule "
                f"{rule.rule_id} expects {cell.shifted(w)}")
    here = diagram.boundaries()[k]
    if here[w:w + len(lhs.dom)] != lhs.dom or w + len(lhs.dom) > len(here):
        raise RewriteError(
            f"rule {rule.rule_id} expects context {word_str(lhs.dom)} at "
            f"offset {w} in {word_str(here)}")
    new = diagram.slices[:k] + tuple(c.shifted(w) for c in rhs.slices) + \
        diagram.slices[k + n:]
    return Diagram(diagram.sig, diagram.dom, new)


# ----------------------------------------------------------- builtin moves

def _need_slices(diagram, k, n):
    if not 0 <= k <= len(diagram.slices) - n:
        raise RewriteError(f"slices [{k}, {k + n}) out of range")


def _arity_lens(sig, cell, current):
    consumed, produced = cell_arity(sig, cell, current)
    return len(consumed), len(produced)


def _interchange(diagram: Diagram, direction: str, k: int, w: int) -> Diagram:
    _need_slices(diagram, k, 2)
    words = diagram.boundaries()
    a, b = diagram.slices[k], diagram.slices[k + 1]
    if a.offset != w:
        raise RewriteError(f"offset {w} does not match first cell {a}")
    a_in, a_out = _arity_lens(diagram.sig, a, words[k])
    b_in, b_out = _arity_lens(diagram.sig, b, words[k + 1])
    wa, wb = a.offset, b.offset
    if wb + b_in <= wa:
        # b acts entirely to the left of a's output
        new = (b, Cell(a.kind, wa - b_in + b_out, a.data))
    elif wb >= wa + a_out:
        new = (Cell(b.kind, wb - a_out + a_in, b.data), a)
    else:
        raise RewriteError(f"cells {a} and {b} overlap; cannot interchange")
    return _splice(diagram, k, 2, new)


def _is_box(sig, cell, n_in, n_out):
    if cell.kind not in (GEN, GEN_INV):
        return False
    consumed, produced = cell_arity(sig, cell)
    return (len(consumed), len(produced)) == (n_in, n_out)


def _braid_nat(diagram: Diagram, direction: str, k: int, w: int) -> Diagram:
    _need_slices(diagram, k, 2)
    a, b = diagram.slices[k], diagram.slices[k + 1]
    if direction == FWD:
        box, braid, box_first = a, b, True
    else:
        braid, box, box_first = a, b, False
    if braid.kind != BRAID or braid.offset != w:
        raise RewriteError(f"no braid at offset {w}")
    if not _is_box(diagram.sig, box, 1, 1):
        raise RewriteError(f"{box} is not a 1-in/1-out box")
    if box.offset not in (w, w + 1):
        raise RewriteError(f"box {box} not adjacent to braid at {w}")
    moved = Cell(box.kind, 2 * w + 1 - box.offset, box.data)
    new = (braid, moved) if box_first else (moved, braid)
    return _splice(diagram, k, 2, new)


def _unit_slide(diagram: Diagram, sign: int, direction: str, k: int,
                w: int) -> Diagram:
    if direction == FWD:
        _need_slices(diagram, k, 2)
        a, b = diagram.slices[k], diagram.slices[k + 1]
        if a.kind == BRAID:
            braid, box = a, b
            shape = (1, 0)
        else:
            box, braid = a, b
            shape = (0, 1)
        if braid.kind != BRAID or braid.offset != w or braid.data != sign:
            raise RewriteError(f"no sign-{sign} braid at offset {w}")
        if not _is_box(diagram.sig, box, *shape):
            raise RewriteError(f"{box} is not a {shape[0]}-in/{shape[1]}-out box")
        if box.offset not in (w, w + 1):
            raise RewriteError(f"box {box} not on a braid strand at {w}")
        moved = Cell(box.kind, 2 * w + 1 - box.offset, box.data)
        return _splice(diagram, k, 2, (moved,))
    # backward: re-insert the braid next to the lone box
    _need_slices(diagram, k, 1)
    box = diagram.slices[k]
    if box.kind not in (GEN, GEN_INV):
        raise RewriteError(f"{box} is not a box")
    consumed, produced = cell_arity(diagram.sig, box)
    if (len(consumed), len(produced)) == (0, 1):
        after_braid = True
    elif (len(consumed), len(produced)) == (1, 0):
        after_braid = False
    else:
        raise RewriteError(f"{box} is not a unit/counit-shaped box")
    if box.offset not in (w, w + 1):
        raise RewriteError(f"box {box} not on a braid strand at {w}")
    moved = Cell(box.kind, 2 * w + 1 - box.offset, box.data)
    braid = Cell(BRAID, w, sign)
    new = (moved, braid) if after_braid else (braid, moved)
    return _splice(diagram, k, 1, new)


def _cupcap_slide(diagram: Diagram, direction: str, k: int, w: int) -> Diagram:
    """A cup followed by a braid, or a braid followed by a cap, on
    adjacent strands: the cup or cap takes the braid's offset, and the
    braid takes the cup's or cap's offset with its sign flipped."""
    del direction  # the move is its own inverse
    _need_slices(diagram, k, 2)
    a, b = diagram.slices[k], diagram.slices[k + 1]
    if a.offset != w:
        raise RewriteError(f"offset {w} does not match first cell {a}")
    if (a.kind, b.kind) not in ((CUP, BRAID), (BRAID, CAP)):
        raise RewriteError(f"no cup/braid or braid/cap pair at slice {k}")
    if abs(a.offset - b.offset) != 1:
        raise RewriteError(f"cells {a} and {b} are not adjacent")
    new = (Cell(a.kind, b.offset, -a.data if a.kind == BRAID else a.data),
           Cell(b.kind, a.offset, -b.data if b.kind == BRAID else b.data))
    return _splice(diagram, k, 2, new)


def _pair_cancel(diagram: Diagram, first: Cell, second: Cell, direction: str,
                 k: int) -> Diagram:
    if direction == FWD:
        _need_slices(diagram, k, 2)
        if diagram.slices[k] != first or diagram.slices[k + 1] != second:
            raise RewriteError(
                f"expected [{first}; {second}] at slice {k}, found "
                f"[{diagram.slices[k]}; {diagram.slices[k + 1]}]")
        return _splice(diagram, k, 2, ())
    if not 0 <= k <= len(diagram.slices):
        raise RewriteError(f"insertion point {k} out of range")
    return _splice(diagram, k, 0, (first, second))


def _triangle(diagram: Diagram, variant: str, direction: str, k: int,
              w: int) -> Diagram:
    if direction == FWD:
        _need_slices(diagram, k, 2)
        a, b = diagram.slices[k], diagram.slices[k + 1]
        if variant == "A":
            good = a.kind == CUP and b.kind == CAP and a.data == b.data and \
                a.offset == w + 1 and b.offset == w
        else:
            good = a.kind == CUP and b.kind == CAP and a.data == b.data and \
                a.offset == w and b.offset == w + 1
        if not good:
            raise RewriteError(
                f"no triangle-{variant} redex [{a}; {b}] at offset {w}")
        return _splice(diagram, k, 2, ())
    if not 0 <= k <= len(diagram.slices):
        raise RewriteError(f"insertion point {k} out of range")
    here = diagram.boundaries()[k]
    if w >= len(here):
        raise RewriteError(f"no strand at offset {w}")
    if variant == "A":
        letter = here[w]
        new = (Cell(CUP, w + 1, letter), Cell(CAP, w, letter))
    else:
        letter = dual_letter(here[w])
        new = (Cell(CUP, w, letter), Cell(CAP, w + 1, letter))
    return _splice(diagram, k, 0, new)


def _splice(diagram: Diagram, k: int, n: int, new) -> Diagram:
    slices = diagram.slices[:k] + tuple(new) + diagram.slices[k + n:]
    try:
        return Diagram(diagram.sig, diagram.dom, slices)
    except TypingError as exc:
        raise RewriteError(f"rewrite produced an ill-typed diagram: {exc}")


# -------------------------------------------------------------- dispatcher

def apply_rule(diagram: Diagram, rule: str, direction: str, slice_idx: int,
               offset: int, rules: dict | None = None) -> Diagram:
    """Apply one rewrite step and return the new diagram (or raise
    RewriteError)."""
    rules = rules or {}
    if rule in rules:
        return _apply_declared(diagram, rules[rule], direction, slice_idx,
                               offset)
    k, w = slice_idx, offset
    if rule == "interchange":
        return _interchange(diagram, direction, k, w)
    if rule == "braid-nat":
        return _braid_nat(diagram, direction, k, w)
    if rule == "unit-slide+":
        return _unit_slide(diagram, 1, direction, k, w)
    if rule == "unit-slide-":
        return _unit_slide(diagram, -1, direction, k, w)
    if rule == "cupcap-slide":
        return _cupcap_slide(diagram, direction, k, w)
    if rule == "braid-cancel":
        return _pair_cancel(diagram, Cell(BRAID, w, 1), Cell(BRAID, w, -1),
                            direction, k)
    if rule == "braid-cancel-rev":
        return _pair_cancel(diagram, Cell(BRAID, w, -1), Cell(BRAID, w, 1),
                            direction, k)
    if rule.startswith("inv-cancel-rev:"):
        g = rule.split(":", 1)[1]
        return _pair_cancel(diagram, Cell(GEN_INV, w, g), Cell(GEN, w, g),
                            direction, k)
    if rule.startswith("inv-cancel:"):
        g = rule.split(":", 1)[1]
        return _pair_cancel(diagram, Cell(GEN, w, g), Cell(GEN_INV, w, g),
                            direction, k)
    if rule == "triangle-A":
        return _triangle(diagram, "A", direction, k, w)
    if rule == "triangle-B":
        return _triangle(diagram, "B", direction, k, w)
    raise RewriteError(f"unknown rule {rule}")


BUILTIN_RULES = ("interchange", "braid-nat", "unit-slide+", "unit-slide-",
                 "cupcap-slide", "braid-cancel", "braid-cancel-rev",
                 "triangle-A", "triangle-B")


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


@dataclass(frozen=True)
class RewriteTrace:
    name: str
    sig: Signature
    rules: tuple          # declared RewriteRules usable by the steps
    start: Diagram
    end: Diagram
    steps: tuple          # of Step

    def rules_by_id(self) -> dict:
        return {r.rule_id: r for r in self.rules}

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


@dataclass
class TraceReport:
    name: str
    ok: bool
    steps_applied: int
    message: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "steps_applied": self.steps_applied, "message": self.message}


def validate_trace(trace: RewriteTrace) -> TraceReport:
    """Replay every step of the trace; ok iff all steps apply and the
    final diagram equals the declared end diagram syntactically."""
    rules = trace.rules_by_id()
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
