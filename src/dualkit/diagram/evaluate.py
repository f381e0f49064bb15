"""Evaluation of string diagrams in a concrete model category.

An interpretation assigns a model object to every generating object and
a model morphism to every generator.  Cups and caps evaluate through
the model's duality data (the bundled models are strictly self-dual),
braids of either sign through the model's symmetry (the bundled models
are symmetric), and inverse boxes through exact inversion.

The diagram's leading layer is built as one tensor product.  The
longest prefix of slices that are boxes taking one letter to one letter,
each with the model shape of its letters, leaves every strand in place,
so by the interchange law it is the tensor product over the word it
ends on of one factor per strand: the composite of the boxes on a
strand, or one identity for each maximal run of strands no box touched.
After it, each maximal run of braid slices, of either sign, is one
``ModelCategory.permute``: by coherence for symmetric monoidal
categories the run denotes the symmetry of the permutation it makes of
the strands, which reorders the rows of the running morphism and builds
no braiding.  Every other slice acts on the running morphism at its own
tensor factor alone (``ModelCategory.act``): no identity on the other
wires is tensored onto it.  The words around each slice are the
boundary words the diagram kept when it was built, and within one
evaluation the model object of each such sub-word is built once: the
words left and right of the slices repeat from slice to slice.
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


def _strand_box(diagram: Diagram, cell, interp: Interpretation):
    """The morphism of ``cell`` if it is a box that takes one letter to
    one letter and whose morphism runs between the model objects of
    those letters; else None, and the slice loop evaluates the cell."""
    if cell.kind not in (GEN, GEN_INV):
        return None
    consumed, produced = cell_arity(diagram.sig, cell)
    # a produced letter with no object is left to the slice loop, which
    # reports it only where a later slice reads it
    if len(consumed) != 1 or len(produced) != 1 \
            or produced[0].name not in interp.objects:
        return None
    model = interp.model
    mor = interp.gen_mor(cell.data)
    if cell.kind == GEN_INV:
        mor = model.invert(mor)
    if model.obj_eq(model.dom(mor), interp.obj(consumed[0])) and \
            model.obj_eq(model.cod(mor), interp.obj(produced[0])):
        return mor
    return None


def _leading_layer(diagram: Diagram, interp: Interpretation, word_obj):
    """(p, f): the first p slices are boxes on one strand each
    (``_strand_box``), and f is their morphism, the tensor product of
    the composite on each strand a box touched and the identity of each
    maximal run of strands none touched; f is None when p is 0."""
    model = interp.model
    factors = {}    # strand -> the composite of its boxes so far
    p = 0
    for cell in diagram.slices:
        mor = _strand_box(diagram, cell, interp)
        if mor is None:
            break
        w = cell.offset
        factors[w] = model.compose(mor, factors[w]) if w in factors else mor
        p += 1
    if not factors:
        return 0, None
    # an untouched strand keeps its letter of the domain
    dom = diagram.dom
    parts, run = [], 0      # run: where the current untouched run starts
    for w in sorted(factors):
        if run < w:
            parts.append(model.identity(word_obj(dom[run:w])))
        parts.append(factors[w])
        run = w + 1
    if run < len(dom):
        parts.append(model.identity(word_obj(dom[run:])))
    out = parts[0]
    for part in parts[1:]:
        out = model.tensor_mor(out, part)
    return p, out


def evaluate(diagram: Diagram, interp: Interpretation):
    """The model morphism denoted by the diagram: the leading layer of
    one-strand boxes as one tensor product (``_leading_layer``), then
    each maximal run of braids as one symmetry of the strands
    (``ModelCategory.permute``) and each other slice acting on the
    running morphism at its own tensor factor (``ModelCategory.act``)."""
    model = interp.model
    slices = diagram.slices
    words = diagram.boundaries()
    objs = {}       # sub-word -> its model object, for this call

    def word_obj(w):
        if w not in objs:
            objs[w] = interp.word_obj(w)
        return objs[w]

    # before any box: a letter of the domain with no object is the
    # first fault reported
    dom = word_obj(diagram.dom)
    t, out = _leading_layer(diagram, interp, word_obj)
    if out is None:
        out = model.identity(dom)
    while t < len(slices):
        cell = slices[t]
        if cell.kind == BRAID:
            # the models are symmetric: a run of braids of either sign is
            # the symmetry of the permutation it makes of the strands;
            # src[q] is the place in the run's first word of the strand
            # the run leaves at q
            run = words[t]
            src = list(range(len(run)))
            while t < len(slices) and slices[t].kind == BRAID:
                w = slices[t].offset
                src[w], src[w + 1] = src[w + 1], src[w]
                t += 1
            out = model.permute(out, [interp.obj(x) for x in run], src)
            continue
        consumed, _ = cell_arity(diagram.sig, cell, words[t])
        w = cell.offset
        if cell.kind == GEN:
            mor = interp.gen_mor(cell.data)
        elif cell.kind == GEN_INV:
            mor = model.invert(interp.gen_mor(cell.data))
        elif cell.kind == CUP:
            mor = model.duality(interp.obj(cell.data)).eta
        elif cell.kind == CAP:
            mor = model.duality(interp.obj(cell.data)).eps
        else:  # pragma: no cover - exhaustive
            raise EvaluationError(f"unknown cell {cell}")
        out = model.act(out, word_obj(words[t][:w]), mor,
                        word_obj(words[t][w + len(consumed):]))
        t += 1
    return out
