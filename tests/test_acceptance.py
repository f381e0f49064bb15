"""Acceptance gate: one test (one pass/fail line under ``pytest -v``)
per top-level criterion.

1. rewrite-trace corpus validates, single-step mutations fail, < 5 s
2. span composition matches the pullback-counting oracle; snake laws
3. span cofiber case table and the vanishing grouplike idempotent
4. eventually-constant cofibers vs the SNF oracle; universal property
5. characteristic splittings S/m with exact hom-set counts
6. three-fold structure of the product model
7. equivariant lattice/fixed-point/certificate suite, < 10 s
8. untwisting bijection on all transitive G-sets, exhaustive
"""

import math
import random
import time
from itertools import combinations

from values import replace

from dualkit import idem
from dualkit.diagram import Step, load_all, validate_corpus, validate_trace
from dualkit.equivariant import (enumerate_subgroup_classes, fixed_dim,
                                 fixed_projector_rank, all_subgroups,
                                 generate_collapse_certificate,
                                 generated_subgroup, get_group,
                                 permutation_representation,
                                 reduced_regular_representation,
                                 transitive_actions, trivial_representation,
                                 untwisting_check,
                                 validate_collapse_certificate)
from dualkit.models import (EvConst, SpanFin, enumerate_homs, ev_morphism,
                            ev_object, product_category, span,
                            triangle_equations_hold)
from test_exactlin import snf_invariant_factors_maxpivot
from test_models_evconst import (cofiber_object_oracle, rand_morphism,
                                 rand_object)
from test_models_spanfin import pullback_compose_oracle, rand_span

del snf_invariant_factors_maxpivot  # used indirectly via the oracle import

GROUPS = ["c2", "c4", "s3", "d4", "q8", "a4"]


def test_criterion_1_trace_corpus_validates_and_rejects_mutations():
    start = time.monotonic()
    reports = validate_corpus()
    assert len(reports) >= 12
    assert all(r.ok for r in reports), \
        [f"{r.name}: {r.message}" for r in reports if not r.ok]
    names = {r.name for r in reports}
    required = {
        "twist-right-to-left", "twist-left-to-right",
        "twist-right-to-inverse-left", "inverse-twist-left-to-right",
        "twist-left-to-inverse-right", "inverse-twist-right-to-left",
        "crossings-collapse", "dual-euler-twist",
        "untwist-splitting", "untwist-stability",
        "smashing-faithfulness", "smashing-unit-commutes",
        "smashing-trivial-braiding", "clopen-inclusion-unique",
        "clopen-retract-idempotent",
    }
    assert required <= names
    # corrupting any single step of any trace must fail validation
    for trace in load_all():
        for n, s in enumerate(trace.steps):
            other = "braid-nat" if s.rule != "braid-nat" else "interchange"
            for bad in (Step(other, s.direction, s.slice_idx, s.offset),
                        Step(s.rule, s.direction, s.slice_idx,
                             s.offset + 1)):
                mutated = replace(
                    trace, steps=trace.steps[:n] + (bad,)
                    + trace.steps[n + 1:])
                assert not validate_trace(mutated).ok, \
                    f"{trace.name} step {n} survived corruption"
    assert time.monotonic() - start < 5.0


def test_criterion_2_span_composition_oracle_and_snakes():
    model = SpanFin()
    rng = random.Random(20)
    for _ in range(200):
        a, b, c = (rng.randint(0, 4) for _ in range(3))
        f = rand_span(rng, a, b)
        g = rand_span(rng, b, c)
        assert model.compose(g, f).matrix.tolist() == \
            pullback_compose_oracle(g, f)
    for n in range(5):
        assert triangle_equations_hold(model, model.duality(n))


def test_criterion_3_span_cofiber_table_and_gp_vanishing():
    model = SpanFin()
    assert model.cofiber(span(0, 1, [[]])).obj == 1
    assert model.cofiber(span(2, 1, [[1, 1]])).obj == 0
    # backward maps: reverses of functions cod -> dom
    rng = random.Random(30)
    for _ in range(25):
        d = rng.randint(1, 4)
        c = rng.randint(1, 4)
        h = [rng.randrange(d) for _ in range(c)]
        back = span(d, c, [[int(h[i] == j) for j in range(d)]
                           for i in range(c)])
        assert model.cofiber(back).obj == 0
    gp = idem.gp_idempotent(model)
    assert gp.E == 0 and idem.is_closed_idempotent(model, gp.E, gp.r)


def test_criterion_4_evconst_cofiber_oracle_and_universal_property():
    model = EvConst()
    rng = random.Random(40)
    for _ in range(300):
        dom = rand_object(rng)
        cod = rand_object(rng)
        f = rand_morphism(rng, dom, cod)
        assert model.cofiber(f).obj == cofiber_object_oracle(f)
    # universal property on purely-torsion instances with hom-sets <= 81
    checked = 0
    while checked < 25:
        dom = ev_object(0, dict(rand_object(rng, primes=(2, 3),
                                            maxdim=1).exc))
        cod = ev_object(0, dict(rand_object(rng, primes=(2, 3),
                                            maxdim=1).exc))
        f = rand_morphism(rng, dom, cod, primes=(2, 3))
        cof = model.cofiber(f)
        t = ev_object(0, {2: 1, 3: 1})
        homset = list(enumerate_homs(cod, t))
        if not 0 < len(homset) <= 81:
            continue
        through = list(enumerate_homs(cof.obj, t))
        for theta in homset:
            kills = model.mor_eq(model.compose(theta, f),
                                 model.zero_mor(dom, t))
            factors = [u for u in through
                       if model.mor_eq(model.compose(u, cof.quotient),
                                       theta)]
            assert len(factors) == (1 if kills else 0)
        checked += 1


def test_criterion_5_characteristic_splittings_exact_counts():
    model = EvConst()
    rng = random.Random(50)
    pairs_per_m = 20
    for m in (2, 3, 4, 6, 12):
        cof = model.cofiber(ev_morphism(model.unit(), model.unit(), [[m]]))
        cl = idem.clopen_structure_on_torsion_retract(model, cof.obj,
                                                      cof.quotient)
        assert idem.is_clopen(model, cl.E, cl.r, cl.i)
        c_obj, comp = idem.complement_of_retract(model, cl.E, cl.r, cl.i)
        assert model.obj_eq(model.tensor_obj(cl.E, c_obj), model.zero_obj())
        pairs = []
        while len(pairs) < pairs_per_m:
            x = ev_object(0, dict(rand_object(rng, primes=(2, 3),
                                              maxdim=1).exc))
            y = ev_object(0, dict(rand_object(rng, primes=(2, 3),
                                              maxdim=1).exc))
            pairs.append((x, y))
        report = idem.split_homs_check(model, cl, comp, pairs,
                                       enumerate_homs_fn=enumerate_homs)
        assert report.verdict, report.to_json()


def test_criterion_6_product_model_three_fold_structure():
    ev, sp = EvConst(), SpanFin()
    model = product_category(ev, sp)
    gp = idem.gp_idempotent(model)
    assert model.obj_eq(gp.E, (ev.unit(), sp.zero_obj()))
    assert idem.is_closed_idempotent(model, gp.E, gp.r)
    # suspension vanishes identically in both factors
    rng = random.Random(60)
    for _ in range(20):
        x = (rand_object(rng), rng.randint(0, 3))
        assert model.obj_eq(model.suspension(x), model.zero_obj())
    # hom-splitting along (S, 0) and its complement (0, S) separates the
    # two factors: a morphism is recovered from its two components
    e_obj = (ev.unit(), sp.zero_obj())
    c_obj = (ev.zero_obj(), sp.unit())
    r_e = (ev.identity(ev.unit()), sp.zero_mor(1, 0))
    i_e = (ev.identity(ev.unit()), sp.zero_mor(0, 1))
    r_c = (ev.zero_mor(ev.unit(), ev.zero_obj()), sp.identity(1))
    i_c = (ev.zero_mor(ev.zero_obj(), ev.unit()), sp.identity(1))
    cl = idem.ClopenIdempotent(E=e_obj, r=r_e, i=i_e)
    comp = idem.ClopenIdempotent(E=c_obj, r=r_c, i=i_c)
    assert idem.is_clopen(model, cl.E, cl.r, cl.i)
    assert idem.is_clopen(model, comp.E, comp.r, comp.i)

    def sample(x, y, k):
        return [(rand_morphism(rng, x[0], y[0]),
                 rand_span(rng, x[1], y[1])) for _ in range(k)]

    pairs = [((rand_object(rng), rng.randint(0, 3)),
              (rand_object(rng), rng.randint(0, 3))) for _ in range(50)]
    report = idem.split_homs_check(model, cl, comp, pairs,
                                   sample_fn=sample)
    assert report.verdict, report.to_json()


def test_criterion_7_equivariant_suite():
    start = time.monotonic()
    for name in GROUPS:
        G = get_group(name)
        assert G.order <= 24
        # power-set-style oracle: close every generating set of size
        # at most log2|G|
        k = max(1, math.ceil(math.log2(G.order)))
        oracle = set()
        for size in range(1, k + 1):
            for gens in combinations(G.elements, size):
                oracle.add(generated_subgroup(G, gens))
        assert set(all_subgroups(G)) == oracle
        poset = enumerate_subgroup_classes(G)
        for rep in (trivial_representation(G),
                    permutation_representation(G),
                    reduced_regular_representation(G)):
            for i in range(poset.n):
                H = poset.representative(i)
                assert fixed_dim(rep, H) == fixed_projector_rank(rep, H)
        cert = generate_collapse_certificate(poset, "reduced-regular")
        assert validate_collapse_certificate(cert, poset)
        assert cert.removal_count() == poset.n
    assert time.monotonic() - start < 10.0


def test_criterion_8_untwisting_exhaustive():
    for name in GROUPS:
        G = get_group(name)
        poset = enumerate_subgroup_classes(G)
        actions = transitive_actions(G, poset)
        assert len(actions) == poset.n
        for action in actions:
            assert untwisting_check(G, action)
