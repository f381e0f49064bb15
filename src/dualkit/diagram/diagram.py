"""String diagrams as sequences of one-cell slices.

A diagram is stored in a left-to-right normal form: a tuple of slices,
each containing exactly one non-identity cell (a generator box, an
elementary braiding, a cup, or a cap) at a horizontal offset; identity
slices are never stored.  The boundary word is threaded through the
slices and validated on construction.
"""

from __future__ import annotations

from .. import DomainError, Frozen, MalformedInput
from .signature import (Letter, Signature, dual_letter, word_from_json,
                        word_str, word_to_json)

GEN = "gen"
GEN_INV = "gen-inv"
BRAID = "braid"
CUP = "cup"
CAP = "cap"
# the JSON field that holds the data of each kind of cell
_DATA_FIELD = {GEN: "gen", GEN_INV: "gen", BRAID: "sign", CUP: "letter",
               CAP: "letter"}


class TypingError(DomainError):
    """A cell does not fit the word it is applied to."""


class Cell(Frozen):
    """One non-identity cell at a horizontal offset within a slice.

    kind = "gen"/"gen-inv": data is the generator name.
    kind = "braid": data is the sign +1 or -1; acts on two letters.
    kind = "cup": data is a letter l; emits (dual l, l) from nothing.
    kind = "cap": data is a letter l; consumes (l, dual l).
    """
    _fields = ("kind", "offset", "data")

    def __init__(self, kind: str, offset: int, data: object):
        if kind not in _DATA_FIELD:
            raise MalformedInput(f"unknown cell kind {kind}")
        if kind == BRAID and data not in (1, -1):
            raise MalformedInput("braid sign must be +1 or -1")
        if offset < 0:
            raise TypingError("negative offset")
        self.__dict__.update(kind=kind, offset=offset, data=data)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.offset, self.data) == \
            (other.kind, other.offset, other.data)

    def __hash__(self):
        return hash((self.kind, self.offset, self.data))

    def shifted(self, delta: int) -> "Cell":
        return Cell(self.kind, self.offset + delta, self.data)

    def to_json(self) -> dict:
        data = self.data.to_json() if self.kind in (CUP, CAP) else self.data
        return {"kind": self.kind, "offset": self.offset,
                _DATA_FIELD[self.kind]: data}

    @staticmethod
    def from_json(obj) -> "Cell":
        kind = obj["kind"]
        key = _DATA_FIELD.get(kind)
        if key is None:
            raise MalformedInput(f"unknown cell kind {kind}")
        if key not in obj:
            raise MalformedInput(f"a {kind} cell needs the field {key!r}")
        if obj["offset"] < 0:
            raise MalformedInput("negative offset")
        data = obj[key]
        return Cell(kind, obj["offset"],
                    Letter.from_json(data) if key == "letter" else data)

    def __str__(self):
        if self.kind == BRAID:
            return f"b{'+' if self.data == 1 else '-'}@{self.offset}"
        if self.kind in (CUP, CAP):
            return f"{self.kind}[{self.data}]@{self.offset}"
        tag = self.data if self.kind == GEN else f"{self.data}~"
        return f"{tag}@{self.offset}"


def cell_arity(sig: Signature, cell: Cell, current=None):
    """(consumed word, produced word) for a cell; braids need the current
    word to know which letters they exchange."""
    if cell.kind in (GEN, GEN_INV):
        gt = sig.gen(cell.data)
        if cell.kind == GEN_INV and not gt.invertible:
            raise TypingError(f"generator {cell.data} is not invertible")
        return (gt.dom, gt.cod) if cell.kind == GEN else (gt.cod, gt.dom)
    if cell.kind == CUP:
        return (), (dual_letter(cell.data), cell.data)
    if cell.kind == CAP:
        return (cell.data, dual_letter(cell.data)), ()
    # braid: consumes (a, b), produces (b, a)
    if current is None or cell.offset + 2 > len(current):
        raise TypingError("braid out of range")
    a, b = current[cell.offset], current[cell.offset + 1]
    return (a, b), (b, a)


def apply_cell(sig: Signature, current: tuple, cell: Cell) -> tuple:
    """The word obtained by applying one cell to ``current``."""
    consumed, produced = cell_arity(sig, cell, current)
    w = cell.offset
    if w + len(consumed) > len(current):
        raise TypingError(f"cell {cell} out of range on {word_str(current)}")
    if current[w:w + len(consumed)] != tuple(consumed):
        raise TypingError(
            f"cell {cell} expects {word_str(tuple(consumed))} at {w} "
            f"in {word_str(current)}")
    return current[:w] + tuple(produced) + current[w + len(consumed):]


class Diagram(Frozen):
    _fields = ("sig", "dom", "slices")

    def __init__(self, sig: Signature, dom: tuple, slices: tuple = ()):
        for letter in dom:
            sig.check_letter(letter)
        self.__dict__.update(sig=sig, dom=dom, slices=slices)
        self.boundaries()  # validates every slice

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.sig, self.dom, self.slices) == \
            (other.sig, other.dom, other.slices)

    def __hash__(self):
        return hash((self.sig, self.dom, self.slices))

    def boundaries(self) -> list:
        """Words before/after each slice; length = len(slices) + 1."""
        words = [self.dom]
        for cell in self.slices:
            words.append(apply_cell(self.sig, words[-1], cell))
        return words

    @property
    def cod(self) -> tuple:
        return self.boundaries()[-1]

    def to_json(self) -> dict:
        return {"dom": word_to_json(self.dom),
                "slices": [c.to_json() for c in self.slices]}

    @staticmethod
    def from_json(sig: Signature, obj) -> "Diagram":
        return Diagram(sig, word_from_json(obj["dom"]),
                       tuple(Cell.from_json(c) for c in obj["slices"]))

    def __str__(self):
        body = "; ".join(str(c) for c in self.slices) or "id"
        return f"{word_str(self.dom)} --[{body}]--> {word_str(self.cod)}"


def identity_diagram(sig: Signature, dom) -> Diagram:
    return Diagram(sig, tuple(dom), ())


def compose(g: Diagram, f: Diagram) -> Diagram:
    """g after f (diagrammatically: f's slices first)."""
    if f.sig != g.sig:
        raise TypingError("composition across different signatures")
    if f.cod != g.dom:
        raise TypingError(
            f"boundary mismatch: {word_str(f.cod)} vs {word_str(g.dom)}")
    return Diagram(f.sig, f.dom, f.slices + g.slices)


def tensor(f: Diagram, g: Diagram) -> Diagram:
    """Horizontal juxtaposition, normalized left-to-right: all of f's
    cells fire first, then g's cells shifted past f's codomain."""
    if f.sig != g.sig:
        raise TypingError("tensor across different signatures")
    shift = len(f.cod)
    slices = f.slices + tuple(c.shifted(shift) for c in g.slices)
    return Diagram(f.sig, f.dom + g.dom, slices)


def cell_diagram(sig: Signature, dom, cell: Cell) -> Diagram:
    """A single-cell diagram on the given domain word."""
    return Diagram(sig, tuple(dom), (cell,))
