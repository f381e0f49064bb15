"""Signatures for string diagrams in braided monoidal categories with
chosen duals.

Object words are tuples of letters; a letter is a named generating
object or its dual.  Generators are typed morphism symbols between
words, optionally marked invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import MalformedInput


@dataclass(frozen=True, order=True)
class Letter:
    name: str
    dual: bool = False

    def to_json(self) -> str:
        return self.name + ("^" if self.dual else "")

    @staticmethod
    def from_json(s: str) -> "Letter":
        if s.endswith("^"):
            return Letter(s[:-1], True)
        return Letter(s)

    def __str__(self):
        return self.to_json()


def dual_letter(letter: Letter) -> Letter:
    """The dual of a letter; duals are involutive."""
    return Letter(letter.name, not letter.dual)


def word(*names: str) -> tuple:
    """Build an object word from letter strings, e.g. word("T", "T^")."""
    return tuple(Letter.from_json(n) for n in names)


def word_to_json(w) -> list:
    return [letter.to_json() for letter in w]


def word_from_json(obj) -> tuple:
    return tuple(Letter.from_json(s) for s in obj)


def word_str(w) -> str:
    return "(" + ", ".join(str(letter) for letter in w) + ")"


@dataclass(frozen=True)
class GenType:
    dom: tuple
    cod: tuple
    invertible: bool = False


@dataclass(frozen=True)
class Signature:
    objects: tuple            # generating object names
    generators: tuple = ()    # sorted tuple of (name, GenType)

    def __post_init__(self):
        names = set(self.objects)
        if len(names) != len(self.objects):
            raise MalformedInput("duplicate object names")
        for gname, gt in self.generators:
            for letter in gt.dom + gt.cod:
                if letter.name not in names:
                    raise MalformedInput(
                        f"generator {gname} uses unknown object {letter.name}")

    def gen(self, name: str) -> GenType:
        for gname, gt in self.generators:
            if gname == name:
                return gt
        raise MalformedInput(f"unknown generator {name}")

    def check_letter(self, letter: Letter):
        if letter.name not in self.objects:
            raise MalformedInput(f"unknown object {letter.name}")

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "generators": {
                name: {"dom": word_to_json(gt.dom),
                       "cod": word_to_json(gt.cod),
                       "invertible": gt.invertible}
                for name, gt in self.generators},
        }

    @staticmethod
    def from_json(obj) -> "Signature":
        gens = tuple(sorted(
            (name, GenType(word_from_json(g["dom"]), word_from_json(g["cod"]),
                           bool(g.get("invertible", False))))
            for name, g in obj.get("generators", {}).items()))
        return Signature(tuple(obj["objects"]), gens)


def signature(objects, generators=None) -> Signature:
    """Convenience constructor: generators maps name -> (dom strs, cod strs)
    or (dom strs, cod strs, invertible)."""
    gens = []
    for name, spec in (generators or {}).items():
        dom, cod = word(*spec[0]), word(*spec[1])
        inv = bool(spec[2]) if len(spec) > 2 else False
        gens.append((name, GenType(dom, cod, inv)))
    return Signature(tuple(objects), tuple(sorted(gens)))
