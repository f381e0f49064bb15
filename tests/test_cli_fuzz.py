"""Property tests of the CLI contract on generated arguments.

Every input must end in exit code 0 (success), 1 (domain failure) or 2
(usage error), never in any other exception, and the ``--format json``
output of exit codes 0 and 1 must parse.  The strategies generate both
well-formed and malformed JSON payloads and object or group names, with
entries |x| <= 10**6 and dimensions <= 4, and trace and certificate
files: arbitrary JSON, or a valid document with one node replaced by
arbitrary JSON or removed.  Runs are derandomized, so the suite is
deterministic, and each example has a deadline, so a call that runs
away fails the suite instead of stalling it.
"""

import json
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualkit.cli import main

runner = CliRunner()
FUZZ = settings(derandomize=True, database=None, max_examples=100,
                deadline=timedelta(seconds=5),
                suppress_health_check=[HealthCheck.too_slow])

ENTRY = st.integers(-10 ** 6, 10 ** 6)
DIM = st.integers(0, 4)
# primes, non-primes and malformed keys for "exc" and "explicit" maps
PRIME_KEY = st.sampled_from(["2", "3", "5", "7", "0", "1", "4", "-3", "x"])
MODEL = st.sampled_from(["evconst", "spanfin", "product"])


def rows(entry=ENTRY):
    """Integer rows of one length, at most 4 x 4."""
    return DIM.flatmap(lambda c: st.lists(
        st.lists(entry, min_size=c, max_size=c), max_size=4))


# Arbitrary JSON, for the shape checks at the CLI boundary.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | ENTRY | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["dom", "cod", "matrix", "free", "explicit", "f",
                         "exc", "2"]) | st.text(max_size=3),
        inner, max_size=4),
    max_leaves=12)

SPAN = st.one_of(
    st.fixed_dictionaries({"dom": st.integers(-1, 4), "cod": st.integers(-1, 4),
                           "matrix": rows(st.integers(-2, 10 ** 6))}),
    DIM.flatmap(lambda d: DIM.flatmap(lambda c: st.fixed_dictionaries({
        "dom": st.just(d), "cod": st.just(c),
        "matrix": st.lists(st.lists(st.integers(0, 10 ** 6), min_size=d,
                                    max_size=d), min_size=c, max_size=c)}))),
    ANY_JSON)

EV_OBJECT = st.fixed_dictionaries(
    {"f": st.integers(-1, 4)},
    optional={"exc": st.dictionaries(PRIME_KEY, st.integers(-1, 4),
                                     max_size=3)})

EV_MORPHISM = st.one_of(
    st.fixed_dictionaries(
        {"free": rows()},
        optional={"explicit": st.dictionaries(PRIME_KEY, rows(),
                                              max_size=2)}),
    st.fixed_dictionaries(
        {"free": rows(), "dom": EV_OBJECT, "cod": EV_OBJECT},
        optional={"explicit": st.dictionaries(PRIME_KEY, rows(),
                                              max_size=2)}),
    ANY_JSON)


def _term():
    p = st.integers(-1, 40).map(str) | st.sampled_from(["97", "1000003"])
    k = st.integers(0, 4).map(str)
    return st.one_of(
        st.just("S"), k.map(lambda e: f"S^{e}"), p.map(lambda q: f"S/{q}"),
        st.tuples(p, k).map(lambda t: f"S/{t[0]}^{t[1]}"))


OBJECT_STR = st.one_of(
    st.just("0"),
    st.lists(_term(), min_size=1, max_size=3).map(" + ".join),
    EV_OBJECT.map(json.dumps),
    st.text(max_size=8))

GROUP_JSON = st.one_of(
    st.fixed_dictionaries({
        "degree": st.integers(0, 4),
        "generators": st.lists(st.lists(st.integers(-1, 5), max_size=4),
                               max_size=3)}),
    st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
        "degree": st.just(n),
        "generators": st.lists(st.permutations(list(range(1, n + 1))),
                               max_size=3)})),
    ANY_JSON)


def check(*args):
    res = runner.invoke(main, [*args, "--format", "json"])
    if res.exception is not None:
        assert isinstance(res.exception, SystemExit), \
            f"{args}: {type(res.exception).__name__}: {res.exception}"
    assert res.exit_code in (0, 1, 2), args
    if res.exit_code != 2:
        assert isinstance(json.loads(res.stdout), dict), args


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


@FUZZ
@given(st.sampled_from(["compose", "tensor"]), SPAN, SPAN)
def test_span_binary(cmd, left, right):
    check("span", cmd, "--left", json.dumps(left),
          "--right", json.dumps(right))


@FUZZ
@given(SPAN, st.integers(-2, 4))
def test_span_cofiber_and_dual_check(f, size):
    check("span", "cofiber", "--morphism", json.dumps(f))
    check("span", "dual-check", "--size", str(size))


@FUZZ
@given(EV_MORPHISM, EV_MORPHISM)
def test_evconst_morphisms(left, right):
    check("evconst", "compose", "--left", json.dumps(left),
          "--right", json.dumps(right))
    check("evconst", "cofiber", "--morphism", json.dumps(left))


@FUZZ
@given(OBJECT_STR, OBJECT_STR, st.integers(-2, 60))
def test_evconst_objects(x, y, m):
    check("evconst", "biproduct", "--x", x, "--y", y)
    check("evconst", "split", "--m", str(m), "--object", x)


@FUZZ
@given(st.sampled_from(["clopen", "complement", "split-homs"]), MODEL,
       OBJECT_STR)
def test_idem_object(cmd, model, obj):
    extra = ("--pairs", "2") if cmd == "split-homs" else ()
    check("idem", cmd, "--model", model, "--object", obj, *extra)


@FUZZ
@given(st.sampled_from(["lattice", "weyl", "fixdim", "collapse"]),
       st.sampled_from(["s3", "c4", "d4", "q8", "a4"]) | st.text(max_size=8)
       | GROUP_JSON)
def test_equi_group(scratch, cmd, group):
    if not isinstance(group, str):
        path = scratch / "group.json"
        path.write_text(json.dumps(group))
        group = str(path)
    check("equi", cmd, "--group", group)


# ------------------------------------------------------ trace and cert files

def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, new):
    """A copy of doc with the node at path replaced by new, or removed
    when new is _REMOVE (the root is then replaced by null)."""
    if not path:
        return None if new is _REMOVE else new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


_REMOVE = object()


def mutants(doc):
    """Arbitrary JSON, or doc with one node replaced or removed."""
    return ANY_JSON | st.tuples(
        st.sampled_from(list(_nodes(doc))),
        ANY_JSON | st.just(_REMOVE)).map(lambda t: _replace(doc, *t))


def _trace_doc():
    from dualkit.diagram import load_trace
    return load_trace("dual-euler-twist").to_json()


def _cert_doc():
    from dualkit import equivariant as eq
    poset = eq.enumerate_subgroup_classes(eq.get_group("s3"))
    return eq.generate_collapse_certificate(poset).to_json()


@FUZZ
@given(mutants(_trace_doc()))
def test_diagrams_verify_trace_file(scratch, doc):
    path = scratch / "trace.json"
    path.write_text(json.dumps(doc))
    check("diagrams", "verify", "--trace", str(path))


@FUZZ
@given(mutants(_cert_doc()))
def test_equi_validate_cert_file(scratch, doc):
    path = scratch / "cert.json"
    path.write_text(json.dumps(doc))
    check("equi", "validate", "--group", "s3", "--cert", str(path))
