"""Command-line front end for the workbench.

Subcommands: ``diagrams`` (trace-corpus verification), ``span`` and
``evconst`` (model-category computations), ``idem`` (idempotent
machinery), ``equi`` (equivariant lattices and collapse certificates).

Exit codes: 0 success / verdict true, 1 verdict false or domain error
(any ``dualkit.DomainError``), 2 usage error.  JSON output is
deterministic (sorted keys).  The environment variable DUALKIT_SEED
(default 0) seeds all sampling.

Importing this module loads no dualkit layer: each command imports the
layer it runs inside its body, so a command pays only for its own layer
at start-up.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from typing import TYPE_CHECKING

import click

from . import DomainError, has_shape

if TYPE_CHECKING:
    from .models import EvMorphism, EvObject, SpanMorphism

# The names of dualkit.equivariant.REP_PRESETS, written out so that the
# option can be declared without importing the equivariant layer.
REP_NAMES = ("permutation", "reduced-regular", "regular", "standard",
             "trivial")


def get_seed() -> int:
    return int(os.environ.get("DUALKIT_SEED", "0"))


def _render_text(data, indent=0):
    pad = "  " * indent
    if not isinstance(data, (dict, list)):
        return [f"{pad}{data}"]
    lines = []
    for label, v in (((f"{k}:", v) for k, v in data.items())
                     if isinstance(data, dict) else (("-", v) for v in data)):
        if isinstance(v, (dict, list)):
            lines += [f"{pad}{label}", *_render_text(v, indent + 1)]
        else:
            lines.append(f"{pad}{label} {v}")
    return lines


def emit(data: dict, fmt: str, code: int = 0):
    if fmt == "json":
        click.echo(json.dumps(data, sort_keys=True, indent=2))
    else:
        click.echo("\n".join(_render_text(data)))
    sys.exit(code)


def fail(message: str, fmt: str):
    emit({"ok": False, "error": message}, fmt, code=1)


def format_option(fn):
    return click.option("--format", "fmt",
                        type=click.Choice(["text", "json"]),
                        default="text", help="Output format.")(fn)


def guarded(fn):
    """Turn domain errors into structured exit-1 reports."""
    def wrapper(*args, fmt="text", **kwargs):
        try:
            return fn(*args, fmt=fmt, **kwargs)
        except (DomainError, KeyError, ValueError, FileNotFoundError) as exc:
            fail(f"{type(exc).__name__}: {exc}", fmt)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
def main():
    """Workbench for duals, idempotent splittings, and collapse
    certificates in exact model categories."""


# ---------------------------------------------------------------- diagrams

@main.group()
def diagrams():
    """String-diagram rewrite traces."""


@diagrams.command("verify")
@click.option("--all", "verify_all", is_flag=True,
              help="Verify the whole bundled corpus (default).")
@click.option("--trace", "trace_name", default=None,
              help="Verify one bundled trace by name, or a JSON file.")
@format_option
@guarded
def diagrams_verify(verify_all, trace_name, fmt):
    """Replay rewrite traces and check them step by step."""
    from . import diagram as dg
    if verify_all and trace_name is not None:
        raise click.UsageError("give at most one of --all / --trace")
    if trace_name is None:
        reports = dg.validate_corpus()
    else:
        reports = [dg.validate_trace(dg.load_trace(trace_name))]
    ok = all(r.ok for r in reports)
    data = {"ok": ok, "traces": [r.to_json() for r in reports]}
    emit(data, fmt, code=0 if ok else 1)


# ------------------------------------------------------------ JSON inputs
# Spans, EvConst objects and EvConst morphisms given as JSON are checked
# for shape here, so that a malformed value is a usage error (exit 2)
# and never reaches the models.

EV_OBJECT = {"f": int, "exc?": {str.isdecimal: int}}


def _is_ev_morphism(v) -> bool:
    return has_shape(v, {"free": [[int]],
                         "explicit?": {str.isdecimal: [[int]]}}) and (
        "dom" not in v or has_shape(v, {"dom": EV_OBJECT, "cod": EV_OBJECT}))


def _json_option(blob: str, param: str | None, shape, expected: str):
    try:
        obj = json.loads(blob)
    except ValueError:
        raise click.BadParameter(f"not JSON; expected {expected}",
                                 param_hint=param) from None
    if not has_shape(obj, shape):
        raise click.BadParameter(f"expected {expected}", param_hint=param)
    return obj


# -------------------------------------------------------------------- span

def _span_from_json(blob: str, param: str) -> SpanMorphism:
    from .models import SpanMorphism
    return SpanMorphism.from_json(_json_option(
        blob, param, {"dom": int, "cod": int, "matrix": [[int]]},
        'a span {"dom": m, "cod": n, "matrix": [[int, ...], ...]}'))


@main.group("span")
def span_group():
    """Spans of finite sets (matrices over the natural numbers)."""


@span_group.command("compose")
@click.option("--left", required=True, help="Outer span as JSON.")
@click.option("--right", required=True, help="Inner span as JSON.")
@format_option
@guarded
def span_compose(left, right, fmt):
    """Compose two spans (left after right)."""
    from .models import SpanFin
    model = SpanFin()
    out = model.compose(_span_from_json(left, "--left"),
                        _span_from_json(right, "--right"))
    emit({"ok": True, "result": out.to_json()}, fmt)


@span_group.command("tensor")
@click.option("--left", required=True, help="First span as JSON.")
@click.option("--right", required=True, help="Second span as JSON.")
@format_option
@guarded
def span_tensor(left, right, fmt):
    """Tensor (cartesian product) of two spans."""
    from .models import SpanFin
    model = SpanFin()
    out = model.tensor_mor(_span_from_json(left, "--left"),
                           _span_from_json(right, "--right"))
    emit({"ok": True, "result": out.to_json()}, fmt)


@span_group.command("dual-check")
@click.option("--size", type=click.IntRange(0, 32), default=2,
              show_default=True,
              help="Cardinality of the self-dual object (the check's "
                   "memory grows as its fourth power).")
@format_option
@guarded
def span_dual_check(size, fmt):
    """Check both snake identities for the diagonal self-duality."""
    from .models import SpanFin, triangle_equations_hold
    model = SpanFin()
    dd = model.duality(size)
    ok = triangle_equations_hold(model, dd)
    emit({"ok": ok, "object": size,
          "eta": dd.eta.to_json(), "eps": dd.eps.to_json()},
         fmt, code=0 if ok else 1)


def _span_shape(shape: str, sizes) -> SpanMorphism:
    from .models import span
    d, c = sizes
    if shape == "zero-to-one":
        return span(0, 1, [[]])
    if shape == "fold":
        return span(d, c, [[int(i == j % c) for j in range(d)]
                           for i in range(c)])
    if shape == "backward":
        # the reverse of a function cod -> dom (one 1 per row)
        return span(d, c, [[int(j == min(i, d - 1)) for j in range(d)]
                           for i in range(c)])
    if shape == "zero":
        return span(d, c, [[0] * d for _ in range(c)])
    raise ValueError(f"unknown shape {shape}")


def _parse_sizes(ctx, param, value: str) -> tuple:
    parts = value.split(",")
    try:
        sizes = tuple(int(p) for p in parts if p.strip().isdecimal())
    except ValueError:      # more digits than int() converts
        sizes = ()
    if len(parts) != 2 or len(sizes) != 2 or max(sizes) > 256:
        raise click.BadParameter("expected two integers dom,cod in [0, 256]")
    return sizes


@span_group.command("cofiber")
@click.option("--morphism", default=None, help="Span as JSON.")
@click.option("--shape",
              type=click.Choice(["zero-to-one", "fold", "backward", "zero"]),
              default=None, help="Build the span from a named shape.")
@click.option("--sizes", default="2,1", show_default=True,
              callback=_parse_sizes,
              help="dom,cod sizes for --shape, each at most 256.")
@format_option
@guarded
def span_cofiber(morphism, shape, sizes, fmt):
    """Shape-classified cofiber of a span."""
    from .models import SpanFin
    if (morphism is None) == (shape is None):
        raise click.UsageError("give exactly one of --morphism / --shape")
    if morphism is not None:
        f = _span_from_json(morphism, "--morphism")
    else:
        f = _span_shape(shape, sizes)
    cof = SpanFin().cofiber(f)
    emit({"ok": True, "input": f.to_json(),
          "cofiber": {"obj": cof.obj, "quotient": cof.quotient.to_json(),
                      "provenance": cof.provenance}}, fmt)


# ----------------------------------------------------------------- evconst

def parse_ev_object(text: str) -> EvObject:
    """Accept JSON or compact names: '0', 'S', 'S^2', 'S/2', 'S/2^3',
    and '+'-separated sums of those."""
    from .models import EvObject, ev_object
    text = text.strip()
    if text.startswith("{"):
        return EvObject.from_json(_json_option(
            text, None, EV_OBJECT, 'an object {"f": int, "exc": {p: int}}'))
    if text == "0":
        return ev_object(0)
    f = 0
    torsion = {}
    for part in text.split("+"):
        part = part.strip()
        m = re.fullmatch(r"S(\^(\d+))?", part)
        if m:
            f += int(m.group(2) or 1)
            continue
        m = re.fullmatch(r"S/(\d+)(\^(\d+))?", part)
        if m:
            p = int(m.group(1))
            torsion[p] = torsion.get(p, 0) + int(m.group(3) or 1)
            continue
        raise ValueError(f"cannot parse object {part!r}")
    return ev_object(f, {p: f + d for p, d in torsion.items()})


def _ev_morphism_from_json(blob: str, param: str) -> EvMorphism:
    from .models import EvMorphism, ev_morphism, ev_object
    obj = _json_option(
        blob, param, _is_ev_morphism,
        'a morphism {"free": [[int, ...], ...]}, optionally with '
        '"explicit": {p: rows} and "dom"/"cod": {"f": int, "exc": {p: int}}')
    if "dom" not in obj:
        # free-only shorthand: infer free objects from the matrix shape
        rows = obj["free"]
        c = len(rows)
        d = len(rows[0]) if c else 0
        return ev_morphism(ev_object(d), ev_object(c), rows,
                           {int(p): m for p, m in
                            obj.get("explicit", {}).items()})
    return EvMorphism.from_json(obj)


@main.group("evconst")
def evconst_group():
    """Eventually-constant products of prime-field vector spaces."""


@evconst_group.command("compose")
@click.option("--left", required=True, help="Outer morphism as JSON.")
@click.option("--right", required=True, help="Inner morphism as JSON.")
@format_option
@guarded
def evconst_compose(left, right, fmt):
    """Compose two morphisms (left after right)."""
    from .models import EvConst
    model = EvConst()
    out = model.compose(_ev_morphism_from_json(left, "--left"),
                        _ev_morphism_from_json(right, "--right"))
    emit({"ok": True, "result": out.to_json()}, fmt)


@evconst_group.command("biproduct")
@click.option("--x", "x_str", required=True, help="First object.")
@click.option("--y", "y_str", required=True, help="Second object.")
@format_option
@guarded
def evconst_biproduct(x_str, y_str, fmt):
    """Biproduct of two objects, with its equations re-checked."""
    from .models import EvConst, biproduct_equations_hold
    model = EvConst()
    x, y = parse_ev_object(x_str), parse_ev_object(y_str)
    bp = model.biproduct(x, y)
    ok = biproduct_equations_hold(model, x, y, bp)
    emit({"ok": ok, "object": str(bp.obj), "json": bp.obj.to_json()},
         fmt, code=0 if ok else 1)


@evconst_group.command("cofiber")
@click.option("--morphism", required=True, help="Morphism as JSON.")
@format_option
@guarded
def evconst_cofiber(morphism, fmt):
    """Cofiber (exact cokernel) of a morphism."""
    from .models import EvConst
    f = _ev_morphism_from_json(morphism, "--morphism")
    cof = EvConst().cofiber(f)
    emit({"ok": True, "input": f.to_json(),
          "cofiber": {"obj": str(cof.obj), "json": cof.obj.to_json(),
                      "quotient": cof.quotient.to_json(),
                      "provenance": cof.provenance}}, fmt)


@evconst_group.command("split")
@click.option("--m", "modulus", type=int, required=True,
              help="Characteristic modulus.")
@click.option("--object", "obj_str", default="S", show_default=True,
              help="Object to split.")
@format_option
@guarded
def evconst_split(modulus, obj_str, fmt):
    """Split an object along S/m and its complement S(m)."""
    from . import idem
    from .models import EvConst
    model = EvConst()
    x = parse_ev_object(obj_str)
    part1, part2, (u, v) = idem.char_split(model, modulus, x)
    emit({"ok": True, "object": str(x), "m": modulus,
          "torsion_part": str(part1), "complement_part": str(part2),
          "witness_u": u.to_json(), "witness_v": v.to_json()}, fmt)


# -------------------------------------------------------------------- idem

def _get_model(name: str):
    from .models import EvConst, SpanFin, product_category
    if name == "spanfin":
        return SpanFin()
    if name == "evconst":
        return EvConst()
    if name == "product":
        return product_category(EvConst(), SpanFin())
    raise ValueError(f"unknown model {name}")


def _mor_json(f):
    if hasattr(f, "to_json"):
        return f.to_json()
    if isinstance(f, tuple):
        return [_mor_json(c) for c in f]
    return str(f)


def _obj_str(x):
    if isinstance(x, tuple):
        return "(" + ", ".join(_obj_str(c) for c in x) + ")"
    return str(x)


def model_option(fn):
    return click.option("--model", "model_name",
                        type=click.Choice(["spanfin", "evconst", "product"]),
                        default="evconst", show_default=True)(fn)


@main.group("idem")
def idem_group():
    """Closed/clopen idempotent machinery."""


def _default_clopen(model, model_name, obj_str):
    """A concrete clopen idempotent to test: S/m machinery on evconst,
    the unit object elsewhere."""
    from . import idem
    if model_name == "evconst":
        primes = parse_ev_object(obj_str or "S/2").exc_primes()
        return idem.char_clopen(model, primes[0] if primes else 2)
    r = model.identity(model.unit())
    return idem.ClopenIdempotent(E=model.unit(), r=r, i=r)


@idem_group.command("closed")
@model_option
@format_option
@guarded
def idem_closed(model_name, fmt):
    """Check that the grouplike idempotent S_gp is closed."""
    from . import idem
    model = _get_model(model_name)
    ci = idem.gp_idempotent(model)
    ok = idem.is_closed_idempotent(model, ci.E, ci.r)
    emit({"ok": ok, "model": model_name, "E": _obj_str(ci.E),
          "r": _mor_json(ci.r)}, fmt, code=0 if ok else 1)


@idem_group.command("clopen")
@model_option
@click.option("--object", "obj_str", default=None,
              help="Torsion object selecting the idempotent (evconst).")
@format_option
@guarded
def idem_clopen(model_name, obj_str, fmt):
    """Check the splitting and stability equations of a clopen
    idempotent."""
    from . import idem
    model = _get_model(model_name)
    cl = _default_clopen(model, model_name, obj_str)
    ok = idem.is_clopen(model, cl.E, cl.r, cl.i)
    emit({"ok": ok, "model": model_name, "E": _obj_str(cl.E),
          "r": _mor_json(cl.r), "i": _mor_json(cl.i)},
         fmt, code=0 if ok else 1)


@idem_group.command("untwist")
@model_option
@format_option
@guarded
def idem_untwist(model_name, fmt):
    """Untwist the unit object's trivial braiding into a clopen
    idempotent."""
    from . import idem
    model = _get_model(model_name)
    dd = model.duality(model.unit())
    t = model.identity(model.unit())
    cl = idem.untwist(model, dd, t)
    ok = idem.is_clopen(model, cl.E, cl.r, cl.i)
    emit({"ok": ok, "model": model_name, "E": _obj_str(cl.E)},
         fmt, code=0 if ok else 1)


@idem_group.command("euler")
@model_option
@click.option("--size", type=click.IntRange(0, 32), default=2,
              show_default=True,
              help="Object size (spanfin; memory grows as its fourth "
                   "power).")
@format_option
@guarded
def idem_euler(model_name, size, fmt):
    """Euler-characteristic twist of a self-dual object."""
    from . import idem
    model = _get_model(model_name)
    obj = size if model_name == "spanfin" else model.unit()
    t = idem.euler_twist(model, model.duality(obj))
    emit({"ok": True, "model": model_name, "object": _obj_str(obj),
          "twist": _mor_json(t)}, fmt)


@idem_group.command("complement")
@model_option
@click.option("--object", "obj_str", default="S/2", show_default=True)
@format_option
@guarded
def idem_complement(model_name, obj_str, fmt):
    """Complement of a clopen idempotent via the cofiber of its
    inclusion."""
    from . import idem
    model = _get_model(model_name)
    if model_name != "evconst":
        raise ValueError("complements need the additive evconst model")
    cl = _default_clopen(model, model_name, obj_str)
    c_obj, comp = idem.complement_of_retract(model, cl.E, cl.r, cl.i)
    smash = model.tensor_obj(cl.E, comp.E)
    ok = model.obj_eq(smash, model.zero_obj())
    emit({"ok": ok, "model": model_name, "E": str(cl.E),
          "complement": str(c_obj), "smash_with_complement": str(smash)},
         fmt, code=0 if ok else 1)


def _sample_torsion_objects(rng, k):
    from .models import ev_object
    out = []
    for _ in range(k):
        exc = {}
        for p in (2, 3):
            if rng.random() < 0.8:
                exc[p] = rng.randint(1, 2)
        out.append(ev_object(0, exc))
    return out


@idem_group.command("split-homs")
@model_option
@click.option("--object", "obj_str", default="S/2", show_default=True)
@click.option("--pairs", type=click.IntRange(min=1), default=10,
              show_default=True)
@format_option
@guarded
def idem_split_homs(model_name, obj_str, pairs, fmt):
    """Check hom-set splitting along a clopen idempotent and its
    complement on sampled object pairs."""
    from . import idem
    model = _get_model(model_name)
    if model_name != "evconst":
        raise ValueError("hom splitting is checked in the evconst model")
    cl = _default_clopen(model, model_name, obj_str)
    _, comp = idem.complement_of_retract(model, cl.E, cl.r, cl.i)
    rng = random.Random(get_seed())
    xs = _sample_torsion_objects(rng, pairs)
    ys = _sample_torsion_objects(rng, pairs)
    report = idem.split_homs_check(model, cl, comp, list(zip(xs, ys)))
    data = report.to_json()
    data["ok"] = report.verdict
    data["seed"] = get_seed()
    emit(data, fmt, code=0 if report.verdict else 1)


@idem_group.command("gp")
@model_option
@format_option
@guarded
def idem_gp(model_name, fmt):
    """The grouplike idempotent S_gp (cofiber of the diagonal)."""
    from . import idem
    model = _get_model(model_name)
    ci = idem.gp_idempotent(model)
    emit({"ok": True, "model": model_name, "E": _obj_str(ci.E),
          "r": _mor_json(ci.r)}, fmt)


# -------------------------------------------------------------------- equi

def group_option(fn):
    return click.option("--group", "group_name", default="s3",
                        show_default=True,
                        help="Group preset name or JSON file.")(fn)


@main.group("equi")
def equi_group():
    """Equivariant lattices, spheres, and collapse certificates."""


@equi_group.command("lattice")
@group_option
@format_option
@guarded
def equi_lattice(group_name, fmt):
    """Subgroup-conjugacy classes with subconjugacy order and Weyl
    orders."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    data = poset.to_json()
    data["ok"] = True
    emit(data, fmt)


@equi_group.command("weyl")
@group_option
@click.option("--class", "class_idx", type=int, default=None,
              help="Class index (default: all classes).")
@format_option
@guarded
def equi_weyl(group_name, class_idx, fmt):
    """Weyl groups N_G(H)/H per subgroup class."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    if class_idx is not None and class_idx not in range(poset.n):
        raise click.BadParameter(
            f"{class_idx} is not a class index 0..{poset.n - 1}",
            param_hint="'--class'")
    indices = range(poset.n) if class_idx is None else [class_idx]
    rows = []
    for i in indices:
        order, reps = eq.weyl_group(poset, i)
        rows.append({"class": i, "subgroup_order": poset.class_order(i),
                     "weyl_order": order,
                     "representatives": [[p + 1 for p in g] for g in reps]})
    emit({"ok": True, "group": group_name, "weyl": rows}, fmt)


@equi_group.command("fixdim")
@group_option
@click.option("--rep", "rep_name",
              type=click.Choice(REP_NAMES),
              default="reduced-regular", show_default=True)
@format_option
@guarded
def equi_fixdim(group_name, rep_name, fmt):
    """Fixed-point dimensions per class, cross-checked against the
    averaged-projector rank."""
    from . import equivariant as eq
    G = eq.get_group(group_name)
    poset = eq.enumerate_subgroup_classes(G)
    rep = eq.REP_PRESETS[rep_name](G)
    rows = []
    ok = True
    for i in range(poset.n):
        H = poset.representative(i)
        d = eq.fixed_dim(rep, H)
        rk = eq.fixed_projector_rank(rep, H)
        ok = ok and d == rk
        rows.append({"class": i, "subgroup_order": len(H),
                     "fixed_dim": d, "projector_rank": rk})
    emit({"ok": ok, "group": group_name, "rep": rep_name, "dim": rep.dim,
          "classes": rows}, fmt, code=0 if ok else 1)


@equi_group.command("collapse")
@group_option
@click.option("--rep", "rep_name",
              type=click.Choice(REP_NAMES),
              default="reduced-regular", show_default=True,
              help="Axiom representation name.")
@format_option
@guarded
def equi_collapse(group_name, rep_name, fmt):
    """Generate a collapse certificate and re-validate it."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    cert = eq.generate_collapse_certificate(poset, rep_name)
    report = eq.validate_collapse_certificate(cert, poset)
    data = cert.to_json()
    data["ok"] = bool(report)
    data["validation"] = report.to_json()
    emit(data, fmt, code=0 if report else 1)


@equi_group.command("validate")
@group_option
@click.option("--cert", "cert_path", required=True,
              type=click.Path(exists=True), help="Certificate JSON file.")
@format_option
@guarded
def equi_validate(group_name, cert_path, fmt):
    """Validate a collapse certificate against the group's lattice."""
    from . import equivariant as eq
    with open(cert_path) as fh:
        cert = eq.CollapseCertificate.from_json(json.load(fh))
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    report = eq.validate_collapse_certificate(cert, poset)
    data = report.to_json()
    emit(data, fmt, code=0 if report else 1)


if __name__ == "__main__":
    main()
