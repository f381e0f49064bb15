"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of each dualkit layer from
the outside: class attributes are replaced on the class, and module-level
functions are replaced in every loaded ``dualkit`` module that holds them,
which covers names bound elsewhere with ``from ... import``.  Each call
records one span (name, start, end, parent) in flat arrays kept in memory.
A layer's self time is its spans' time minus the time of their direct
child spans.  ``uninstall`` restores every original object.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

def _max_digits(*matrices) -> int:
    big = max((abs(e) for m in matrices for row in m.data for e in row),
              default=0)
    return len(str(big))


def _labellings(diagram) -> int:
    classes = Counter((c.kind, c.data) for c in diagram.slices
                      if c.kind in ("gen", "gen-inv"))
    return math.prod(math.factorial(k) for k in classes.values())


def _count(key, fn=lambda args, result: 1):
    def counter(counts, args, result):
        counts[key] += fn(args, result)
    return counter


def _maximum(key, fn):
    def counter(counts, args, result):
        counts[key] = max(counts[key], fn(args, result))
    return counter


def _invert_span(args):
    domain = args[0].domain
    return "exactlin.elim_fp" if isinstance(domain, tuple) else \
        "exactlin.invert"


# (module, qualified name, span name or callable on the arguments, counters)
TARGETS = [
    ("dualkit.exactlin", "Matrix.from_rows", "exactlin.from_rows", ()),
    ("dualkit.exactlin", "Matrix.mul", "exactlin.mul",
     (_count("exactlin.mul.madds",
             lambda a, r: a[0].rows * a[0].cols * a[1].cols),)),
    ("dualkit.exactlin", "kronecker", "exactlin.kronecker",
     (_count("exactlin.kronecker.entries", lambda a, r: r.rows * r.cols),)),
    ("dualkit.exactlin", "smith_normal_form", "exactlin.snf",
     (_maximum("exactlin.snf.max_digits",
               lambda a, r: _max_digits(r[0], r[2])),)),
    ("dualkit.exactlin", "rank_fp", "exactlin.elim_fp", ()),
    ("dualkit.exactlin", "left_null_basis_fp", "exactlin.elim_fp", ()),
    ("dualkit.exactlin", "solve_right_fp", "exactlin.elim_fp", ()),
    ("dualkit.exactlin", "invert_or_fail", _invert_span, ()),
    ("dualkit.exactlin", "solve_right_int", "exactlin.solve_int", ()),
    ("dualkit.exactlin", "is_prime", "exactlin.is_prime", ()),
] + [("dualkit.exactlin", name, "exactlin.other", ()) for name in (
    "fp", "nat_matrix", "int_matrix", "fp_matrix", "cokernel_decomposition",
    "Matrix.identity", "Matrix.zeros", "Matrix.add", "Matrix.sub",
    "Matrix.scale", "Matrix.transpose", "Matrix.retag", "Matrix.mod",
    "Matrix.tolist", "Matrix.to_json", "Matrix.from_json",
    "Matrix.is_identity", "Matrix.is_zero")]

_MODEL_METHODS = {
    "compose": "models.compose", "tensor_mor": "models.tensor",
    "tensor_obj": "models.tensor", "cofiber": "models.cofiber",
}
for _module, _cls, _methods in (
        ("dualkit.models.base", "ModelCategory",
         ("compose_many", "suspension", "is_invertible")),
        ("dualkit.models.spanfin", "SpanFin",
         ("identity", "compose", "tensor_obj", "tensor_mor", "braiding",
          "zero_mor", "add_mor", "biproduct", "duality", "invert",
          "cofiber")),
        ("dualkit.models.evconst", "EvConst",
         ("identity", "compose", "tensor_obj", "tensor_mor", "braiding",
          "zero_mor", "add_mor", "negate", "sub_mor", "biproduct",
          "duality", "invert", "cofiber")),
        ("dualkit.models.product", "ProductCategory",
         ("identity", "compose", "tensor_obj", "tensor_mor", "braiding",
          "zero_mor", "add_mor", "biproduct", "duality", "invert",
          "cofiber"))):
    TARGETS += [(_module, f"{_cls}.{m}", _MODEL_METHODS.get(m, "models.other"),
                 ()) for m in _methods]
TARGETS += [
    ("dualkit.models.evconst", "enumerate_homs", "models.other",
     (_count("idem.homs_enumerated"),)),
] + [(module, name, "models.other", ()) for module, name in (
    ("dualkit.models.evconst", "ev_object"),
    ("dualkit.models.evconst", "ev_morphism"),
    ("dualkit.models.evconst", "hom_group_structure"),
    ("dualkit.models.evconst", "EvMorphism.component"),
    ("dualkit.models.spanfin", "span"),
    ("dualkit.models.base", "triangle_equations_hold"),
    ("dualkit.models.base", "biproduct_equations_hold"))]

TARGETS += [
    ("dualkit.diagram.graph", "normalize_symmetric", "diagram.normalize",
     (_count("diagram.normalize.labellings",
             lambda a, r: _labellings(a[0])),)),
    ("dualkit.diagram.graph", "diagram_to_open_graph", "diagram.open_graph",
     ()),
    ("dualkit.diagram.evaluate", "evaluate", "diagram.evaluate",
     (_count("diagram.evaluate.slices", lambda a, r: len(a[0].slices)),)),
    ("dualkit.diagram.rewrite", "apply_rule", "diagram.rewrite",
     (_count("diagram.rewrite.steps"),)),
    ("dualkit.diagram.rewrite", "validate_trace", "diagram.rewrite", ()),
] + [("dualkit.diagram.corpus", name, "diagram.corpus", ()) for name in (
    "list_traces", "load_trace", "load_all", "validate_corpus")] + [
    ("dualkit.diagram.diagram", name, "diagram.other", ()) for name in (
        "compose", "tensor", "cell_diagram", "identity_diagram")]

TARGETS += [
    ("dualkit.idem", "split_homs_check", "idem.op",
     (_count("idem.split_pairs", lambda a, r: len(a[3])),)),
] + [("dualkit.idem", name, "idem.op", ()) for name in (
    "is_closed_idempotent", "is_clopen", "euler_twist", "untwist",
    "derived_open_structure", "complement_of_retract",
    "clopen_structure_on_torsion_retract", "gp_idempotent", "char_split")]

TARGETS += [
    ("dualkit.equivariant.groups", "generated_subgroup", "equivariant.lattice",
     (_count("equivariant.closures"),)),
    ("dualkit.equivariant.groups", "all_subgroups", "equivariant.lattice",
     (_count("equivariant.subgroups", lambda a, r: len(r)),)),
    ("dualkit.equivariant.rep", "Representation.__init__", "equivariant.rep",
     (_count("equivariant.rep.dense_entries",
             lambda a, r: a[0].group.order * a[0].dim ** 2),)),
] + [("dualkit.equivariant.groups", name, "equivariant.lattice", ()) for name in (
    "enumerate_subgroup_classes", "cyclic_subgroups", "conjugate_subgroup",
    "is_subconjugate", "normalizer", "weyl_group")] + [
    ("dualkit.equivariant.groups", "perm_group", "equivariant.other", ()),
    ("dualkit.equivariant.rep", "fixed_dim", "equivariant.fixdim", ()),
    ("dualkit.equivariant.rep", "fixed_projector_rank", "equivariant.fixdim",
     ()),
] + [("dualkit.equivariant.certificate", name, "equivariant.cert", ())
     for name in ("generate_collapse_certificate",
                  "validate_collapse_certificate", "minimal_classes")] + [
    ("dualkit.equivariant.spheres", name, "equivariant.cert", ())
    for name in ("interval_smash", "down_closure", "up_closure", "is_upset",
                 "is_downset", "cofiber_upset_sequence")] + [
    ("dualkit.equivariant.actions", name, "equivariant.actions", ())
    for name in ("untwisting_check", "validate_action", "transitive_actions",
                 "coset_action", "left_translation_action", "natural_action")]


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span, counters):
        name_of = span if callable(span) else (lambda args: span)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                name = name_of(args)
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    for counter in counters:
                        counter(tracer.counts, args, item)
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            for counter in counters:
                counter(tracer.counts, args, result)
            return result
        return wrapper

    def install(self, targets=TARGETS):
        for module_name, *_ in targets:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dualkit" or n.startswith("dualkit.")]
        for module_name, qualname, span, counters in targets:
            module = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, span, counters))
                else:
                    new = self._wrap(raw, span, counters)
                setattr(owner, attr, new)
                self._restore.append((owner, attr, raw))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, span, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: [calls, total self time] over spans lo..hi."""
        hi = len(self.start) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict = {}
        for i in range(lo, hi):
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i - lo]
        return out

    def dump(self, path, lo: int, hi: int):
        """Write spans lo..hi as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for i in range(lo, hi):
                fh.write(f'["{self.names[self.name[i]]}",{self.start[i]!r},'
                         f'{self.end[i]!r},{self.parent[i]}]\n')
