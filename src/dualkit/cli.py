"""The command-line front end of the workbench for duals, idempotent
splittings, and collapse certificates in exact model categories.

Subcommands: ``diagrams`` (trace-corpus verification), ``span`` and
``evconst`` (model-category computations), ``idem`` (idempotent
machinery), ``equi`` (equivariant lattices and collapse certificates).

One table, ``_TABLE``, holds each group's help and, per command, its
runner and its options; ``main`` builds from it, when it runs, the
``argparse`` parsers of the groups and of the commands of the group it
is given, with ``--format text|json`` on every command.  Options are
never abbreviated, and a repeated option takes its last value.  A JSON
matrix or object option with a dimension above 256 is a usage error.

Exit codes: 0 success / verdict true, 1 verdict false or domain error
(any ``dualkit.DomainError``), 2 usage error, with nothing on standard
output.  JSON output is deterministic (sorted keys).  The environment
variable DUALKIT_SEED (default 0) seeds all sampling.

Importing this module loads no dualkit layer and not ``argparse``: each
command imports what it runs inside its body, and ``dualkit.models`` and
``dualkit.equivariant`` load a submodule only when one of its names is
first used, so a command pays at start-up only for the submodules it
runs.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from typing import TYPE_CHECKING

from . import DomainError, MalformedInput, clip, has_shape, read_json

if TYPE_CHECKING:
    from .models import EvMorphism, EvObject, SpanMorphism

# The names of dualkit.equivariant.REP_PRESETS, written out so that the
# option can be declared without importing the equivariant layer.
REP_NAMES = ("permutation", "reduced-regular", "regular", "standard",
             "trivial")
# The largest dimension of an EvConst object at any prime, and of each
# side of a span built by ``span cofiber --shape``.
_DIM_MAX = 256


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


class _UsageError(Exception):
    """A command's input that its options' types cannot reject: it exits
    2 with the message, as an option that does not parse does."""


# The command table: per group, its help and its commands; per command,
# its runner and its options.  An option is a flag and its argparse
# keywords (dest, type, choices, default, required, help, action,
# metavar); a bounded option's type is an _in_range.
_TABLE = {group: (text, {}) for group, text in {
    "diagrams": "String-diagram rewrite traces.",
    "span": "Spans of finite sets (matrices over the natural numbers).",
    "evconst": "Eventually-constant products of prime-field vector spaces.",
    "idem": "Closed/clopen idempotent machinery.",
    "equi": "Equivariant lattices, spheres, and collapse certificates.",
}.items()}


def _option(flag: str, **settings) -> tuple:
    """flag and its argparse keywords, with the flag's name as the
    metavar of a value that has no choices, and the default, if there is
    one, at the end of the help."""
    if "action" not in settings and "choices" not in settings:
        settings.setdefault("metavar", flag[2:].upper())
    if settings.get("default") is not None:
        settings["help"] = f"{settings.get('help', '')} (default: %(default)s)"
    return flag, settings


_FORMAT = _option("--format", dest="fmt", choices=("text", "json"),
                  default="text", help="Output format.")


def command(group: str, name: str, *options):
    """Enter the decorated function in ``_TABLE`` as command ``name`` of
    ``group``, taking ``options`` and a last option ``--format
    text|json``.  The function takes the parsed options by their dest
    and returns its report, a dict with an "ok" verdict; a DomainError
    it raises becomes the report {"ok": false, "error": "<Class>:
    <message>"}, and a _UsageError a usage error."""
    def enter(fn):
        _TABLE[group][1][name] = (fn, (*options, _FORMAT))
        return fn
    return enter


def _in_range(lo: int, hi: int, parse=int, what: str = "an integer"):
    """An argparse type: parse's value, if it and every integer in it
    (a tuple's entries) lie in lo..hi; its ``bounds`` are (lo, hi)."""
    def value(text: str):
        try:
            v = parse(text)
            if all(lo <= x <= hi for x in (v if isinstance(v, tuple) else
                                           (v,))):
                return v
        except ValueError:
            pass
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(
            f"expected {what} in {lo}..{hi}, not {clip(text)!r}")
    value.bounds = (lo, hi)
    return value


def _parser():
    """The argparse parser of the command groups in ``_TABLE``.  A
    group's parser adds its commands' parsers only when it is the one
    that parses, so a run builds the parsers of one group's commands.
    No option is abbreviated, and each parser takes ``--help``."""
    import argparse

    class Group(argparse.ArgumentParser):
        def parse_known_args(self, args=None, namespace=None):
            names = self.add_subparsers(parser_class=argparse.ArgumentParser,
                                        **listing)
            for name, (fn, options) in self.commands.items():
                parser = names.add_parser(name, help=fn.__doc__,
                                          description=fn.__doc__, **common)
                for flag, settings in options:
                    parser.add_argument(flag, **settings)
                parser.set_defaults(_command=(fn, parser))
            return super().parse_known_args(args, namespace)

    helper = argparse.ArgumentParser(add_help=False)
    helper.add_argument("--help", action="help",
                        help="Show this message and exit.")
    common = {"add_help": False, "allow_abbrev": False, "parents": [helper]}
    listing = {"metavar": "COMMAND", "required": True}
    top = argparse.ArgumentParser(prog="dualkit", description=(
        __doc__ or "").partition("\n\n")[0], **common)
    groups = top.add_subparsers(parser_class=Group, **listing)
    for group, (text, commands) in _TABLE.items():
        groups.add_parser(group, help=text, description=text,
                          **common).commands = commands
    return top


def main(argv=None):
    """Run the command that argv (default: sys.argv[1:]) names, print
    its report and exit 0 when the report's "ok" is true, else 1; a
    usage error exits 2 and prints to standard error only."""
    options = vars(_parser().parse_args(argv))
    (fn, parser), fmt = options.pop("_command"), options.pop("fmt")
    try:
        report = fn(**options)
    except DomainError as exc:
        report = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    except _UsageError as exc:
        parser.error(str(exc))
    try:
        print(json.dumps(report, sort_keys=True, indent=2) if fmt == "json"
              else "\n".join(_render_text(report)), flush=True)
    except BrokenPipeError:     # the reader left early, as ``| head`` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)             # its report was not delivered
    sys.exit(0 if report["ok"] else 1)


# perfbench/wl_cli.py runs its in-process pass through click's test
# runner, which reads ``main.name`` and calls ``main.main(args=...,
# prog_name=...)``.  This adapter keeps that protocol until the benchmark
# calls ``main(argv)`` itself; it imports nothing.
main.name = "dualkit"
main.main = lambda args, prog_name: main(list(args))


# ---------------------------------------------------------------- diagrams

@command("diagrams", "verify",
         _option("--all", dest="verify_all", action="store_true",
                 help="Verify the whole bundled corpus (default)."),
         _option("--trace", dest="trace_name",
                 help="Verify one bundled trace by name, or a JSON file."))
def diagrams_verify(verify_all, trace_name):
    """Replay rewrite traces and check them step by step."""
    from . import diagram as dg
    if verify_all and trace_name is not None:
        raise _UsageError("give at most one of --all / --trace")
    reports = dg.validate_corpus() if trace_name is None else [
        dg.validate_trace(dg.load_trace(trace_name))]
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
    hint = f"argument {param}: " if param else ""
    try:
        obj = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        why = "nests too deeply" if isinstance(exc, RecursionError) else \
            "not JSON"
        raise _UsageError(f"{hint}{why}; expected {expected}") from None
    if not has_shape(obj, shape):
        raise _UsageError(f"{hint}expected {expected}")
    return obj


def _matrix_dims(rows) -> list:
    """The row count and every row length of a JSON matrix."""
    return [len(rows), *map(len, rows)]


def _bound_dims(param: str, what: str, dims) -> None:
    """A usage error unless every one of dims is at most _DIM_MAX."""
    if max(dims, default=0) > _DIM_MAX:
        raise _UsageError(f"argument {param}: the {what} has a dimension "
                          f"above {_DIM_MAX}")


# -------------------------------------------------------------------- span

def _span_from_json(blob: str, param: str) -> SpanMorphism:
    obj = _json_option(
        blob, param, {"dom": int, "cod": int, "matrix": [[int]]},
        'a span {"dom": m, "cod": n, "matrix": [[int, ...], ...]}')
    _bound_dims(param, "span", [obj["dom"], obj["cod"],
                                *_matrix_dims(obj["matrix"])])
    from .models import SpanMorphism
    return SpanMorphism.from_json(obj)


@command("span", "compose",
         _option("--left", required=True, help="Outer span as JSON."),
         _option("--right", required=True, help="Inner span as JSON."))
def span_compose(left, right):
    """Compose two spans (left after right)."""
    f, g = _span_from_json(left, "--left"), _span_from_json(right, "--right")
    from .models import SpanFin
    out = SpanFin().compose(f, g)
    return {"ok": True, "result": out.to_json()}


@command("span", "tensor",
         _option("--left", required=True, help="First span as JSON."),
         _option("--right", required=True, help="Second span as JSON."))
def span_tensor(left, right):
    """Tensor (cartesian product) of two spans."""
    f, g = _span_from_json(left, "--left"), _span_from_json(right, "--right")
    from .models import SpanFin
    out = SpanFin().tensor_mor(f, g)
    return {"ok": True, "result": out.to_json()}


@command("span", "dual-check",
         _option("--size", type=_in_range(0, 32), default=2,
                 help="Cardinality of the self-dual object (the check's "
                      "memory grows as its fourth power)."))
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


def _sizes(text: str) -> tuple:
    """dom,cod as two naturals; ValueError if text is not two decimals."""
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
        raise ValueError(text)
    return tuple(int(p) for p in parts)     # ValueError past 4300 digits


@command("span", "cofiber",
         _option("--morphism", help="Span as JSON."),
         _option("--shape", choices=("zero-to-one", "fold", "backward",
                                     "zero"),
                 help="Build the span from a named shape."),
         _option("--sizes", metavar="DOM,COD", default="2,1",
                 type=_in_range(0, _DIM_MAX, _sizes, "dom,cod"),
                 help=f"Sizes for --shape, each at most {_DIM_MAX}."))
def span_cofiber(morphism, shape, sizes):
    """Shape-classified cofiber of a span."""
    if (morphism is None) == (shape is None):
        raise _UsageError("give exactly one of --morphism / --shape")
    f = _span_shape(shape, sizes) if morphism is None else \
        _span_from_json(morphism, "--morphism")
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
                raise _UsageError(f"cannot parse object {clip(part)!r}")
            n = int(m["n"] or 1)
            if m["p"]:
                p = int(m["p"])
                torsion[p] = torsion.get(p, 0) + n
            else:
                f += n
        x = ev_object(f, {p: f + d for p, d in torsion.items()})
    if max([x.f, *(d for _, d in x.exc)]) > _DIM_MAX:
        raise _UsageError(f"{clip(str(x))} has a dimension above {_DIM_MAX}")
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
    objects = [obj[end] for end in ("dom", "cod") if end in obj]
    _bound_dims(param, "morphism", [
        *_matrix_dims(obj["free"]),
        *(d for m in obj.get("explicit", {}).values()
          for d in _matrix_dims(m)),
        *(d for x in objects for d in (x["f"], *x.get("exc", {}).values()))])
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


@command("evconst", "compose",
         _option("--left", required=True, help="Outer morphism as JSON."),
         _option("--right", required=True, help="Inner morphism as JSON."))
def evconst_compose(left, right):
    """Compose two morphisms (left after right)."""
    f = _ev_morphism_from_json(left, "--left")
    g = _ev_morphism_from_json(right, "--right")
    from .models import EvConst
    out = EvConst().compose(f, g)
    return {"ok": True, "result": out.to_json()}


@command("evconst", "biproduct",
         _option("--x", dest="x_str", required=True, help="First object."),
         _option("--y", dest="y_str", required=True, help="Second object."))
def evconst_biproduct(x_str, y_str):
    """Biproduct of two objects, with its equations re-checked."""
    from .models import EvConst, biproduct_equations_hold
    model = EvConst()
    x, y = parse_ev_object(x_str), parse_ev_object(y_str)
    bp = model.biproduct(x, y)
    return {"ok": biproduct_equations_hold(model, x, y, bp),
            "object": str(bp.obj), "json": bp.obj.to_json()}


@command("evconst", "cofiber",
         _option("--morphism", required=True, help="Morphism as JSON."))
def evconst_cofiber(morphism):
    """Cofiber (exact cokernel) of a morphism."""
    f = _ev_morphism_from_json(morphism, "--morphism")
    from .models import EvConst
    cof = EvConst().cofiber(f)
    return {"ok": True, "input": f.to_json(),
            "cofiber": {"obj": str(cof.obj), "json": cof.obj.to_json(),
                        "quotient": cof.quotient.to_json(),
                        "provenance": cof.provenance}}


@command("evconst", "split",
         _option("--m", dest="modulus", type=int, required=True,
                 help="Characteristic modulus."),
         _option("--object", dest="obj_str", default="S",
                 help="Object to split."))
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


_MODEL = _option("--model", dest="model_name",
                 choices=("spanfin", "evconst", "product"),
                 default="evconst")


def _default_clopen(model, model_name, obj_str):
    """A concrete clopen idempotent to test: on evconst, S/p for the first
    prime p of the torsion of --object (S/2 if it is omitted); the unit
    object elsewhere.  An evconst --object with no torsion selects no
    idempotent and is a usage error."""
    from . import idem
    if model_name == "evconst":
        primes = parse_ev_object(obj_str or "S/2").exc_primes()
        if not primes:
            raise _UsageError(f"argument --object: {clip(obj_str)} has no "
                              "torsion, so it selects no clopen idempotent")
        return idem.char_clopen(model, primes[0])
    r = model.identity(model.unit())
    return idem.ClopenIdempotent(E=model.unit(), r=r, i=r)


@command("idem", "closed", _MODEL)
def idem_closed(model_name):
    """Check that the grouplike idempotent S_gp is closed."""
    from . import idem
    model = _get_model(model_name)
    ci = idem.gp_idempotent(model)
    return {"ok": idem.is_closed_idempotent(model, ci.E, ci.r),
            "model": model_name, "E": _obj_str(ci.E), "r": _mor_json(ci.r)}


@command("idem", "clopen", _MODEL,
         _option("--object", dest="obj_str",
                 help="Torsion object selecting the idempotent (evconst)."))
def idem_clopen(model_name, obj_str):
    """Check the splitting and stability equations of a clopen
    idempotent."""
    from . import idem
    model = _get_model(model_name)
    cl = _default_clopen(model, model_name, obj_str)
    return {"ok": idem.is_clopen(model, cl.E, cl.r, cl.i),
            "model": model_name, "E": _obj_str(cl.E),
            "r": _mor_json(cl.r), "i": _mor_json(cl.i)}


@command("idem", "untwist", _MODEL)
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


@command("idem", "euler", _MODEL,
         _option("--size", type=_in_range(0, 32), default=2,
                 help="Object size (spanfin; memory grows as its fourth "
                      "power)."))
def idem_euler(model_name, size):
    """Euler-characteristic twist of a self-dual object."""
    from . import idem
    model = _get_model(model_name)
    obj = size if model_name == "spanfin" else model.unit()
    t = idem.euler_twist(model, model.duality(obj))
    return {"ok": True, "model": model_name, "object": _obj_str(obj),
            "twist": _mor_json(t)}


@command("idem", "complement", _MODEL,
         _option("--object", dest="obj_str", default="S/2"))
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
    # per object and prime, one draw decides the torsion, a second its
    # dimension
    return [ev_object(0, {p: rng.randint(1, 2) for p in (2, 3)
                          if rng.random() < 0.8}) for _ in range(k)]


@command("idem", "split-homs", _MODEL,
         _option("--object", dest="obj_str", default="S/2"),
         _option("--pairs", type=_in_range(1, 1000), default=10))
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
    return {**report.to_json(), "ok": report.verdict, "seed": get_seed()}


@command("idem", "gp", _MODEL)
def idem_gp(model_name):
    """The grouplike idempotent S_gp (cofiber of the diagonal)."""
    from . import idem
    model = _get_model(model_name)
    ci = idem.gp_idempotent(model)
    return {"ok": True, "model": model_name, "E": _obj_str(ci.E),
            "r": _mor_json(ci.r)}


# -------------------------------------------------------------------- equi

_GROUP = _option("--group", dest="group_name", default="s3",
                 help="Group preset name or JSON file.")


@command("equi", "lattice", _GROUP)
def equi_lattice(group_name):
    """Subgroup-conjugacy classes with subconjugacy order and Weyl
    orders."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    return {**poset.to_json(), "ok": True}


@command("equi", "weyl", _GROUP,
         _option("--class", dest="class_idx", type=int,
                 help="Class index (default: all classes)."))
def equi_weyl(group_name, class_idx):
    """Weyl groups N_G(H)/H per subgroup class."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    if class_idx is not None and class_idx not in range(poset.n):
        raise _UsageError(f"argument --class: {class_idx} is not a class "
                          f"index 0..{poset.n - 1}")
    indices = range(poset.n) if class_idx is None else [class_idx]
    rows = []
    for i in indices:
        order, reps = eq.weyl_group(poset, i)
        rows.append({"class": i, "subgroup_order": poset.class_order(i),
                     "weyl_order": order,
                     "representatives": [[p + 1 for p in g] for g in reps]})
    return {"ok": True, "group": group_name, "weyl": rows}


@command("equi", "fixdim", _GROUP,
         _option("--rep", dest="rep_name", choices=REP_NAMES,
                 default="reduced-regular"))
def equi_fixdim(group_name, rep_name):
    """Fixed-point dimensions per class, cross-checked against the
    averaged-projector rank."""
    from . import equivariant as eq
    G = eq.get_group(group_name)
    poset = eq.enumerate_subgroup_classes(G)
    rep = eq.REP_PRESETS[rep_name](G)
    rows = []
    for i in range(poset.n):
        H = poset.representative(i)
        rows.append({"class": i, "subgroup_order": len(H),
                     "fixed_dim": eq.fixed_dim(rep, H),
                     "projector_rank": eq.fixed_projector_rank(rep, H)})
    return {"ok": all(r["fixed_dim"] == r["projector_rank"] for r in rows),
            "group": group_name, "rep": rep_name, "dim": rep.dim,
            "classes": rows}


@command("equi", "collapse", _GROUP,
         _option("--rep", dest="rep_name", choices=REP_NAMES,
                 default="reduced-regular",
                 help="Axiom representation name."))
def equi_collapse(group_name, rep_name):
    """Generate a collapse certificate and re-validate it."""
    from . import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    cert = eq.generate_collapse_certificate(poset, rep_name)
    report = eq.validate_collapse_certificate(cert, poset)
    return {**cert.to_json(), "ok": bool(report),
            "validation": report.to_json()}


@command("equi", "validate", _GROUP,
         _option("--cert", dest="cert_path", required=True,
                 help="Certificate JSON file."))
def equi_validate(group_name, cert_path):
    """Validate a collapse certificate against the group's lattice."""
    if not os.path.exists(cert_path) or os.path.isdir(cert_path):
        raise _UsageError(f"argument --cert: no file {clip(cert_path)!r}")
    from . import equivariant as eq
    cert = eq.CollapseCertificate.from_json(read_json(cert_path))
    poset = eq.enumerate_subgroup_classes(eq.get_group(group_name))
    return eq.validate_collapse_certificate(cert, poset).to_json()


if __name__ == "__main__":
    main()
