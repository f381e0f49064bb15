"""Signatures for string diagrams in braided monoidal categories with
chosen duals.

Object words are tuples of letters; a letter is a named generating
object or its dual.  Generators are typed morphism symbols between
words, optionally marked invertible.
"""

from __future__ import annotations

from .. import Frozen, MalformedInput


class Letter(Frozen):
    """A named generating object, or its dual; letters are ordered by
    (name, dual)."""
    _fields = ("name", "dual")

    def __init__(self, name: str, dual: bool = False):
        self.__dict__.update(name=name, dual=dual)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.dual) == (other.name, other.dual)

    def __hash__(self):
        return hash((self.name, self.dual))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.dual) < (other.name, other.dual)

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.dual) <= (other.name, other.dual)

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.dual) > (other.name, other.dual)

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.dual) >= (other.name, other.dual)

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


class GenType(Frozen):
    _fields = ("dom", "cod", "invertible")

    def __init__(self, dom: tuple, cod: tuple, invertible: bool = False):
        self.__dict__.update(dom=dom, cod=cod, invertible=invertible)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.cod, self.invertible) == \
            (other.dom, other.cod, other.invertible)

    def __hash__(self):
        return hash((self.dom, self.cod, self.invertible))


class Signature(Frozen):
    _fields = ("objects", "generators")

    def __init__(self, objects: tuple, generators: tuple = ()):
        # objects are the generating object names; generators a sorted
        # tuple of (name, GenType)
        names = set(objects)
        if len(names) != len(objects):
            raise MalformedInput("duplicate object names")
        for gname, gt in generators:
            for letter in gt.dom + gt.cod:
                if letter.name not in names:
                    raise MalformedInput(
                        f"generator {gname} uses unknown object {letter.name}")
        self.__dict__.update(objects=objects, generators=generators)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.objects, self.generators) == \
            (other.objects, other.generators)

    def __hash__(self):
        return hash((self.objects, self.generators))

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
