"""Command-line front end for the workbench.

Subcommands: ``diagrams`` (trace-corpus verification), ``span`` and
``evconst`` (model-category computations), ``idem`` (idempotent
machinery), ``equi`` (equivariant lattices and collapse certificates).

Exit codes: 0 success / verdict true, 1 verdict false or domain error
(any ``dualkit.DomainError``), 2 usage error.  JSON output is
deterministic (sorted keys).  The environment variable DUALKIT_SEED
(default 0) seeds all sampling.

Importing this module loads no dualkit layer: each command imports
what it runs inside its body, and ``dualkit.models`` and
``dualkit.equivariant`` load a submodule only when one of its names is
first used, so a command pays at start-up only for the submodules it
runs.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import sys
from typing import TYPE_CHECKING

import click

from . import DomainError, MalformedInput, clip, has_shape, read_json

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


def command(group: click.Group, name: str):
    """Register the decorated function as command ``name`` of ``group``,
    with a last option ``--format text|json``.  The function takes the
    parsed options and returns its report, a dict with an "ok" verdict; a
    DomainError it raises becomes the report {"ok": false, "error":
    "<Class>: <message>"}.  The command prints the report and exits 0
    when its "ok" is true, else 1.  Any other exception is a defect and
    propagates."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(fmt, **options):
            try:
                report = fn(**options)
            except DomainError as exc:
                report = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            click.echo(json.dumps(report, sort_keys=True, indent=2)
                       if fmt == "json" else "\n".join(_render_text(report)))
            sys.exit(0 if report["ok"] else 1)
        cmd = group.command(name)(run)
        cmd.params.append(click.Option(
            ["--format", "fmt"], type=click.Choice(["text", "json"]),
            default="text", help="Output format."))
        return cmd
    return decorate


@click.group()
def main():
    """Workbench for duals, idempotent splittings, and collapse
    certificates in exact model categories."""


# ---------------------------------------------------------------- diagrams

@main.group()
def diagrams():
    """String-diagram rewrite traces."""


@command(diagrams, "verify")
@click.option("--all", "verify_all", is_flag=True,
              help="Verify the whole bundled corpus (default).")
@click.option("--trace", "trace_name", default=None,
              help="Verify one bundled trace by name, or a JSON file.")
def diagrams_verify(verify_all, trace_name):
    """Replay rewrite traces and check them step by step."""
    from . import diagram as dg
    if verify_all and trace_name is not None:
        raise click.UsageError("give at most one of --all / --trace")
    if trace_name is None:
        reports = dg.validate_corpus()
    else:
        reports = [dg.validate_trace(dg.load_trace(trace_name))]
    return {"ok": all(r.ok for r in reports),
            "traces": [r.to_json() for r in reports]}


# ------------------------------------------------------------ JSON inputs
# Spans, EvConst objects and EvConst morphisms given as JSON are checked
# for shape here, so that a malformed value is a usage error (exit 2)
# and never reaches the models, which are imported only after the check.

# A prime as a JSON key is written in canonical decimal, so that two keys
# such as "2" and "02" cannot name one prime, and has at most 25 digits:
# is_prime proves primality only below 3.3e24, and int() refuses 4300.
PRIME_KEY = re.compile("0|[1-9][0-9]{0,24}").fullmatch
EV_OBJECT = {"f": int, "exc?": {PRIME_KEY: int}}


def _is_ev_morphism(v) -> bool:
    return has_shape(v, {"free": [[int]],
                         "explicit?": {PRIME_KEY: [[int]]}}) and (
        "dom" not in v or has_shape(v, {"dom": EV_OBJECT, "cod": EV_OBJECT}))


def _json_option(blob: str, param: str | None, shape, expected: str):
    try:
        obj = json.loads(blob)
    except ValueError:
        raise click.BadParameter(f"not JSON; expected {expected}",
                                 param_hint=param) from None
    except RecursionError:
        raise click.BadParameter(f"nests too deeply; expected {expected}",
                                 param_hint=param) from None
    if not has_shape(obj, shape):
        raise click.BadParameter(f"expected {expected}", param_hint=param)
    return obj


# -------------------------------------------------------------------- span

def _span_from_json(blob: str, param: str) -> SpanMorphism:
    obj = _json_option(
        blob, param, {"dom": int, "cod": int, "matrix": [[int]]},
        'a span {"dom": m, "cod": n, "matrix": [[int, ...], ...]}')
    from .models import SpanMorphism
    return SpanMorphism.from_json(obj)


@main.group("span")
def span_group():
    """Spans of finite sets (matrices over the natural numbers)."""


@command(span_group, "compose")
@click.option("--left", required=True, help="Outer span as JSON.")
@click.option("--right", required=True, help="Inner span as JSON.")
def span_compose(left, right):
    """Compose two spans (left after right)."""
    f, g = _span_from_json(left, "--left"), _span_from_json(right, "--right")
    from .models import SpanFin
    out = SpanFin().compose(f, g)
    return {"ok": True, "result": out.to_json()}


@command(span_group, "tensor")
@click.option("--left", required=True, help="First span as JSON.")
@click.option("--right", required=True, help="Second span as JSON.")
def span_tensor(left, right):
    """Tensor (cartesian product) of two spans."""
    f, g = _span_from_json(left, "--left"), _span_from_json(right, "--right")
    from .models import SpanFin
    out = SpanFin().tensor_mor(f, g)
    return {"ok": True, "result": out.to_json()}


@command(span_group, "dual-check")
@click.option("--size", type=click.IntRange(0, 32), default=2,
              show_default=True,
              help="Cardinality of the self-dual object (the check's "
                   "memory grows as its fourth power).")
def span_dual_check(size):
    """Check both snake identities for the diagonal self-duality."""
    from .models import SpanFin, triangle_equations_hold
    model = SpanFin()
    dd = model.duality(size)
    return {"ok": triangle_equations_hold(model, dd), "object": size,
            "eta": dd.eta.to_json(), "eps": dd.eps.to_json()}


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
    return span(d, c, [[0] * d for _ in range(c)])     # "zero"


def _parse_sizes(ctx, param, value: str) -> tuple:
    parts = value.split(",")
    try:
        sizes = tuple(int(p) for p in parts if p.strip().isdecimal())
    except ValueError:      # more digits than int() converts
        sizes = ()
    if len(parts) != 2 or len(sizes) != 2 or max(sizes) > 256:
        raise click.BadParameter("expected two integers dom,cod in [0, 256]")
    return sizes


@command(span_group, "cofiber")
@click.option("--morphism", default=None, help="Span as JSON.")
@click.option("--shape",
              type=click.Choice(["zero-to-one", "fold", "backward", "zero"]),
              default=None, help="Build the span from a named shape.")
@click.option("--sizes", default="2,1", show_default=True,
              callback=_parse_sizes,
              help="dom,cod sizes for --shape, each at most 256.")
def span_cofiber(morphism, shape, sizes):
    """Shape-classified cofiber of a span."""
    if (morphism is None) == (shape is None):
        raise click.UsageError("give exactly one of --morphism / --shape")
    if morphism is not None:
        f = _span_from_json(morphism, "--morphism")
    else:
        f = _span_shape(shape, sizes)
    from .models import SpanFin
    cof = SpanFin().cofiber(f)
    return {"ok": True, "input": f.to_json(),
            "cofiber": {"obj": cof.obj, "quotient": cof.quotient.to_json(),
                        "provenance": cof.provenance}}


# ----------------------------------------------------------------- evconst

def parse_ev_object(text: str) -> EvObject:
    """Accept JSON or compact names: '0', 'S', 'S^2', 'S/2', 'S/2^3',
    and '+'-separated sums of those, of dimension at most 256 at every
    prime; any other text is a usage error.  A torsion index that is not
    a prime (S/4, or "4" as a JSON key) is MalformedInput."""
    from .exactlin import is_prime
    from .models import EvObject, ev_object
    text = text.strip()
    if text.startswith("{"):
        x = EvObject.from_json(_json_option(
            text, None, EV_OBJECT, 'an object {"f": int, "exc": {p: int}}'))
    else:
        f, torsion = 0, {}
        for part in re.split(r"\s*\+\s*", text) if text != "0" else ():
            # an exponent of five digits or more is above the bound, and
            # int() refuses one of 4300, so such a name does not parse;
            # nor does a prime of more than 25 digits, as in PRIME_KEY
            m = re.fullmatch(r"S(/(?P<p>\d{1,25}))?(\^0*(?P<n>\d{1,4}))?",
                             part)
            if not m:
                raise click.BadParameter(
                    f"cannot parse object {clip(part)!r}")
            n = int(m["n"] or 1)
            if m["p"]:
                p = int(m["p"])
                torsion[p] = torsion.get(p, 0) + n
            else:
                f += n
        x = ev_object(f, {p: f + d for p, d in torsion.items()})
    if max([x.f, *(d for _, d in x.exc)]) > 256:
        raise click.BadParameter(f"{clip(str(x))} has a dimension above 256")
    for p in x.exc_primes():
        if not is_prime(p):
            raise MalformedInput(f"the torsion index {p} of {clip(str(x))} "
                                 "is not a prime")
    return x


def _ev_morphism_from_json(blob: str, param: str) -> EvMorphism:
    obj = _json_option(
        blob, param, _is_ev_morphism,
        'a morphism {"free": [[int, ...], ...]}, optionally with '
        '"explicit": {p: rows} and "dom"/"cod": {"f": int, "exc": {p: int}}')
    from .models import EvMorphism, ev_morphism, ev_object
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


@command(evconst_group, "compose")
@click.option("--left", required=True, help="Outer morphism as JSON.")
@click.option("--right", required=True, help="Inner morphism as JSON.")
def evconst_compose(left, right):
    """Compose two morphisms (left after right)."""
    f = _ev_morphism_from_json(left, "--left")
    g = _ev_morphism_from_json(right, "--right")
    from .models import EvConst
    out = EvConst().compose(f, g)
    return {"ok": True, "result": out.to_json()}


@command(evconst_group, "biproduct")
@click.option("--x", "x_str", required=True, help="First object.")
@click.option("--y", "y_str", required=True, help="Second object.")
def evconst_biproduct(x_str, y_str):
    """Biproduct of two objects, with its equations re-checked."""
    from .models import EvConst, biproduct_equations_hold
    model = EvConst()
    x, y = parse_ev_object(x_str), parse_ev_object(y_str)
    bp = model.biproduct(x, y)
    return {"ok": biproduct_equations_hold(model, x, y, bp),
            "object": str(bp.obj), "json": bp.obj.to_json()}


@command(evconst_group, "cofiber")
@click.option("--morphism", required=True, help="Morphism as JSON.")
def evconst_cofiber(morphism):
    """Cofiber (exact cokernel) of a morphism."""
    f = _ev_morphism_from_json(morphism, "--morphism")
    from .models import EvConst
    cof = EvConst().cofiber(f)
    return {"ok": True, "input": f.to_json(),
            "cofiber": {"obj": str(cof.obj), "json": cof.obj.to_json(),
                        "quotient": cof.quotient.to_json(),
                        "provenance": cof.provenance}}


@command(evconst_group, "split")
@click.option("--m", "modulus", type=int, required=True,
              help="Characteristic modulus.")
@click.option("--object", "obj_str", default="S", show_default=True,
              help="Object to split.")
def evconst_split(modulus, obj_str):
    """Split an object along S/m and its complement S(m)."""
    from . import idem
    from .models import EvConst
    model = EvConst()
    x = parse_ev_object(obj_str)
    part1, part2, (u, v) = idem.char_split(model, modulus, x)
    return {"ok": True, "object": str(x), "m": modulus,
            "torsion_part": str(part1), "complement_part": str(part2),
            "witness_u": u.to_json(), "witness_v": v.to_json()}


# -------------------------------------------------------------------- idem

def _get_model(name: str):
    """The model named name, importing only the submodules it needs."""
    if name == "spanfin":
        from .models import SpanFin
        return SpanFin()
    from .models import EvConst
    if name == "evconst":
        return EvConst()
    from .models import SpanFin, product_category
    return product_category(EvConst(), SpanFin())     # "product"


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
    """A concrete clopen idempotent to test: on evconst, S/p for the first
    prime p of the torsion of --object (S/2 if it is omitted); the unit
    object elsewhere.  An evconst --object with no torsion selects no
    idempotent and is a usage error."""
    from . import idem
    if model_name == "evconst":
        primes = parse_ev_object(obj_str or "S/2").exc_primes()
        if not primes:
            raise click.BadParameter(f"{clip(obj_str)} has no torsion, so "
                                     "it selects no clopen idempotent",
                                     param_hint="--object")
        return idem.char_clopen(model, primes[0])
    r = model.identity(model.unit())
    return idem.ClopenIdempotent(E=model.unit(), r=r, i=r)


@command(idem_group, "closed")
@model_option
def idem_closed(model_name):
    """Check that the grouplike idempotent S_gp is closed."""
    from . import idem
    model = _get_model(model_name)
    ci = idem.gp_idempotent(model)
    return {"ok": idem.is_closed_idempotent(model, ci.E, ci.r),
            "model": model_name, "E": _obj_str(ci.E), "r": _mor_json(ci.r)}


@command(idem_group, "clopen")
@model_option
@click.option("--object", "obj_str", default=None,
              help="Torsion object selecting the idempotent (evconst).")
def idem_clopen(model_name, obj_str):
    """Check the splitting and stability equations of a clopen
    idempotent."""
    from . import idem
    model = _get_model(model_name)
    cl = _default_clopen(model, model_name, obj_str)
    return {"ok": idem.is_clopen(model, cl.E, cl.r, cl.i),
            "model": model_name, "E": _obj_str(cl.E),
            "r": _mor_json(cl.r), "i": _mor_json(cl.i)}


@command(idem_group, "untwist")
@model_option
def idem_untwist(model_name):
    """Untwist the unit object's trivial braiding into a clopen
    idempotent."""
    from . import idem
    model = _get_model(model_name)
    dd = model.duality(model.unit())
    t = model.identity(model.unit())
    cl = idem.untwist(model, dd, t)
    return {"ok": idem.is_clopen(model, cl.E, cl.r, cl.i),
            "model": model_name, "E": _obj_str(cl.E)}


@command(idem_group, "euler")
@model_option
@click.option("--size", type=click.IntRange(0, 32), default=2,
              show_default=True,
              help="Object size (spanfin; memory grows as its fourth "
                   "power).")
def idem_euler(model_name, size):
    """Euler-characteristic twist of a self-dual object."""
    from . import idem
    model = _get_model(model_name)
    obj = size if model_name == "spanfin" else model.unit()
    t = idem.euler_twist(model, model.duality(obj))
    return {"ok": True, "model": model_name, "object": _obj_str(obj),
            "twist": _mor_json(t)}


@command(idem_group, "complement")
@model_option
@click.option("--object", "obj_str", default="S/2", show_default=True)
def idem_complement(model_name, obj_str):
    """Complement of a clopen idempotent via the cofiber of its
    inclusion."""
    from . import idem
    model = _get_model(model_name)
    cl = _default_clopen(model, model_name, obj_str)
    c_obj, comp = idem.complement_of_retract(model, cl.E, cl.r, cl.i)
    smash = model.tensor_obj(cl.E, comp.E)
    return {"ok": model.obj_eq(smash, model.zero_obj()), "model": model_name,
            "E": str(cl.E), "complement": str(c_obj),
            "smash_with_complement": str(smash)}


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


@command(idem_group, "split-homs")
@model_option
@click.option("--object", "obj_str", default="S/2", show_default=True)
@click.option("--pairs", type=click.IntRange(1, 1000), default=10,
              show_default=True)
def idem_split_homs(model_name, obj_str, pairs):
    """Check hom-set splitting along a clopen idempotent and its
    complement on sampled object pairs."""
    from . import idem
    model = _get_model(model_name)
    cl = _default_clopen(model, model_name, obj_str)
    _, comp = idem.complement_of_retract(model, cl.E, cl.r, cl.i)
    rng = random.Random(get_seed())
    xs = _sample_torsion_objects(rng, pairs)
    ys = _sample_torsion_objects(rng, pairs)
    report = idem.split_homs_check(model, cl, comp, list(zip(xs, ys)))
    data = report.to_json()
    data["ok"] = report.verdict
    data["seed"] = get_seed()
    return data


@command(idem_group, "gp")
@model_option
def idem_gp(model_name):
    """The grouplike idempotent S_gp (cofiber of the diagonal)."""
    from . import idem
    model = _get_model(model_name)
    ci = idem.gp_idempotent(model)
    return {"ok": True, "model": model_name, "E": _obj_str(ci.E),
            "r": _mor_json(ci.r)}


# -------------------------------------------------------------------- equi

def group_option(fn):
    return click.option("--group", "group_name", default="s3",
                        show_default=True,
                        help="Group preset name or JSON file.")(fn)


@main.group("equi")
def equi_group():
    """Equivariant lattices, spheres, and collapse certificates."""


@command(equi_group, "lattice")
@group_option
def equi_lattice(group_name):
    """Subgroup-conjugacy classes with subconjugacy order and Weyl
    orders."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    data = poset.to_json()
    data["ok"] = True
    return data


@command(equi_group, "weyl")
@group_option
@click.option("--class", "class_idx", type=int, default=None,
              help="Class index (default: all classes).")
def equi_weyl(group_name, class_idx):
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
    return {"ok": True, "group": group_name, "weyl": rows}


@command(equi_group, "fixdim")
@group_option
@click.option("--rep", "rep_name",
              type=click.Choice(REP_NAMES),
              default="reduced-regular", show_default=True)
def equi_fixdim(group_name, rep_name):
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
    return {"ok": ok, "group": group_name, "rep": rep_name, "dim": rep.dim,
            "classes": rows}


@command(equi_group, "collapse")
@group_option
@click.option("--rep", "rep_name",
              type=click.Choice(REP_NAMES),
              default="reduced-regular", show_default=True,
              help="Axiom representation name.")
def equi_collapse(group_name, rep_name):
    """Generate a collapse certificate and re-validate it."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    cert = eq.generate_collapse_certificate(poset, rep_name)
    report = eq.validate_collapse_certificate(cert, poset)
    data = cert.to_json()
    data["ok"] = bool(report)
    data["validation"] = report.to_json()
    return data


@command(equi_group, "validate")
@group_option
@click.option("--cert", "cert_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Certificate JSON file.")
def equi_validate(group_name, cert_path):
    """Validate a collapse certificate against the group's lattice."""
    from . import equivariant as eq
    cert = eq.CollapseCertificate.from_json(read_json(cert_path))
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    return eq.validate_collapse_certificate(cert, poset).to_json()


if __name__ == "__main__":
    main()
