"""Evaluation of string diagrams in a concrete model category.

An interpretation assigns a model object to every generating object and
a model morphism to every generator.  Cups and caps evaluate through
the model's duality data (the bundled models are strictly self-dual),
braids of either sign through the model braiding (the bundled models
are symmetric), and inverse boxes through exact inversion.  Each slice
is applied to its tensor factor alone: no identity on the other wires,
and no Kronecker product with one, is ever built.  The words around each
slice are the boundary words the diagram kept when it was built, and
within one evaluation the model object of each such sub-word is built
once: the words left and right of the slices repeat from slice to slice.
"""

from __future__ import annotations

from .. import DomainError
from .diagram import BRAID, CAP, CUP, GEN, GEN_INV, Diagram, cell_arity
from .signature import Letter


class EvaluationError(DomainError):
    """The interpretation does not cover the diagram."""


class Interpretation:
    def __init__(self, model, objects: dict, generators: dict | None = None):
        self.model = model
        self.objects = dict(objects)
        self.generators = dict(generators or {})
        for name, obj in self.objects.items():
            dd = model.duality(obj)
            if not model.obj_eq(dd.dual, dd.obj):
                raise EvaluationError(
                    f"model object for {name} is not strictly self-dual")

    def obj(self, letter: Letter):
        if letter.name not in self.objects:
            raise EvaluationError(f"no object assigned to {letter.name}")
        # a dual letter too: __init__ checked every object strictly self-dual
        return self.objects[letter.name]

    def word_obj(self, w):
        out = self.model.unit()
        for letter in w:
            out = self.model.tensor_obj(out, self.obj(letter))
        return out

    def gen_mor(self, name: str):
        if name not in self.generators:
            raise EvaluationError(f"no morphism assigned to {name}")
        return self.generators[name]


def evaluate(diagram: Diagram, interp: Interpretation):
    """The model morphism denoted by the diagram: each slice acts on the
    running morphism at its own tensor factor (``ModelCategory.act``)."""
    model = interp.model
    words = diagram.boundaries()
    objs = {}       # sub-word -> its model object, for this call

    def word_obj(w):
        if w not in objs:
            objs[w] = interp.word_obj(w)
        return objs[w]

    out = model.identity(word_obj(diagram.dom))
    for t, cell in enumerate(diagram.slices):
        consumed, _ = cell_arity(diagram.sig, cell, words[t])
        w = cell.offset
        if cell.kind == GEN:
            mor = interp.gen_mor(cell.data)
        elif cell.kind == GEN_INV:
            mor = model.invert(interp.gen_mor(cell.data))
        elif cell.kind == BRAID:
            # the models are symmetric: either sign is the braiding a, b
            mor = model.braiding(interp.obj(words[t][w]),
                                 interp.obj(words[t][w + 1]))
        elif cell.kind == CUP:
            mor = model.duality(interp.obj(cell.data)).eta
        elif cell.kind == CAP:
            mor = model.duality(interp.obj(cell.data)).eps
        else:  # pragma: no cover - exhaustive
            raise EvaluationError(f"unknown cell {cell}")
        out = model.act(out, word_obj(words[t][:w]), mor,
                        word_obj(words[t][w + len(consumed):]))
    return out
