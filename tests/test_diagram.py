"""Tests for string diagrams: typing, composition, rewriting, canonical
forms, and evaluation in the span model."""

import itertools

import pytest

from dualkit import MalformedInput
from dualkit.diagram import (BUILTIN_RULES, Cell, Diagram, GenType,
                             Interpretation, Letter, RewriteRule,
                             RewriteTrace, RewriteError, Signature, Step,
                             TypingError, apply_rule, compose,
                             diagram_to_open_graph, evaluate,
                             identity_diagram, normalize_symmetric, signature,
                             tensor, validate_trace, word)
from dualkit.models import SpanFin
from dualkit.models.spanfin import span

T = Letter("T")
Td = Letter("T", dual=True)

SIG = signature(["T"], {
    "t": (("T",), ("T",), True),
    "u": ((), ("T",)),
    "c": (("T",), ()),
    "m": (("T", "T"), ("T",)),
})

SF = SpanFin()
# a discriminating interpretation: |T| = 2 with non-symmetric matrices
INTERP = Interpretation(SF, {"T": 2}, {
    "t": span(2, 2, [[0, 1], [1, 0]]),
    "u": span(1, 2, [[1], [2]]),
    "c": span(2, 1, [[3, 1]]),
    "m": span(4, 2, [[1, 0, 0, 2], [0, 1, 1, 0]]),
})


def dia(dom, *cells):
    return Diagram(SIG, word(*dom), tuple(cells))


def ev(d):
    return evaluate(d, INTERP)


def assert_same_denotation(d1, d2):
    assert d1.dom == d2.dom and d1.cod == d2.cod
    assert SF.mor_eq(ev(d1), ev(d2))


# ------------------------------------------------------------------ typing

class TestTyping:
    def test_identity_boundaries(self):
        d = identity_diagram(SIG, word("T", "T"))
        assert d.dom == d.cod == word("T", "T")

    def test_generator_threading(self):
        d = dia(("T", "T"), Cell("gen", 0, "m"), Cell("gen", 0, "t"))
        assert d.cod == word("T")

    def test_cup_emits_dual_then_base(self):
        d = dia((), Cell("cup", 0, T))
        assert d.cod == (Td, T)

    def test_cap_consumes_base_then_dual(self):
        d = dia((), Cell("cup", 0, T), Cell("cap", 0, Td))
        assert d.cod == ()

    def test_braid_swaps_letters(self):
        d = dia((), Cell("cup", 0, T), Cell("braid", 0, 1))
        assert d.cod == (T, Td)

    def test_misplaced_cap_rejected(self):
        with pytest.raises(TypingError):
            dia((), Cell("cup", 0, T), Cell("cap", 0, T))

    def test_generator_on_wrong_word_rejected(self):
        with pytest.raises(TypingError):
            dia(("T",), Cell("gen", 0, "m"))

    def test_out_of_range_rejected(self):
        with pytest.raises(TypingError):
            dia(("T",), Cell("braid", 0, 1))

    def test_noninvertible_generator_has_no_inverse_cell(self):
        with pytest.raises(TypingError):
            dia(("T",), Cell("gen-inv", 0, "c"))

    def test_duplicate_generator_names_rejected(self):
        # a name names one generator, so lookup by name is well defined
        one, other = GenType(word("T"), word("T")), GenType((), word("T"))
        with pytest.raises(MalformedInput, match="duplicate generator"):
            Signature(("T",), (("f", one), ("f", other)))
        with pytest.raises(MalformedInput, match="duplicate generator"):
            Signature(("T",), (("f", one), ("f", one)))
        sig = Signature(("T",), (("f", one), ("g", other)))
        assert (sig.gen("f"), sig.gen("g")) == (one, other)
        with pytest.raises(MalformedInput, match="unknown generator h"):
            sig.gen("h")


class TestComposeTensor:
    def test_compose_concatenates_slices(self):
        f = dia(("T",), Cell("gen", 0, "t"))
        g = dia(("T",), Cell("gen", 0, "c"))
        assert compose(g, f).slices == (Cell("gen", 0, "t"),
                                        Cell("gen", 0, "c"))

    def test_compose_boundary_mismatch(self):
        f = dia(("T",), Cell("gen", 0, "c"))
        with pytest.raises(TypingError):
            compose(f, f)

    def test_tensor_shifts_by_left_codomain(self):
        f = dia(("T", "T"), Cell("gen", 0, "m"))          # cod (T)
        g = dia(("T",), Cell("gen", 0, "t"))
        ft = tensor(f, g)
        assert ft.dom == word("T", "T", "T")
        assert ft.slices == (Cell("gen", 0, "m"), Cell("gen", 1, "t"))

    def test_tensor_evaluates_to_kronecker(self):
        f = dia(("T",), Cell("gen", 0, "t"))
        g = dia(("T",), Cell("gen", 0, "c"))
        lhs = ev(tensor(f, g))
        rhs = SF.tensor_mor(ev(f), ev(g))
        assert SF.mor_eq(lhs, rhs)

    def test_json_roundtrip(self):
        d = dia(("T", "T"), Cell("braid", 0, -1), Cell("gen", 0, "m"),
                Cell("cup", 1, Td))
        assert Diagram.from_json(SIG, d.to_json()) == d


# ----------------------------------------------------------- builtin moves

def roundtrip(d, rule, k, w, fwd="fwd", bwd="bwd"):
    """Apply a move and its inverse; both results must be well typed,
    denotationally equal to d, and the roundtrip syntactically equal."""
    mid = apply_rule(d, rule, fwd, k, w)
    assert_same_denotation(d, mid)
    back = apply_rule(mid, rule, bwd, k, w)
    assert back.slices == d.slices
    return mid


class TestBuiltinMoves:
    def test_interchange_disjoint_right(self):
        d = dia(("T", "T"), Cell("gen", 0, "t"), Cell("gen", 1, "t"))
        mid = apply_rule(d, "interchange", "fwd", 0, 0)
        assert mid.slices == (Cell("gen", 1, "t"), Cell("gen", 0, "t"))
        assert_same_denotation(d, mid)

    def test_interchange_disjoint_left(self):
        d = dia(("T", "T"), Cell("gen", 1, "t"), Cell("gen", 0, "t"))
        mid = apply_rule(d, "interchange", "fwd", 0, 1)
        assert mid.slices == (Cell("gen", 0, "t"), Cell("gen", 1, "t"))
        assert_same_denotation(d, mid)

    def test_interchange_tracks_arity_change(self):
        # a 2-to-1 box left of a 1-to-1 box shifts it by one
        d = dia(("T", "T", "T"), Cell("gen", 0, "m"), Cell("gen", 1, "t"))
        mid = apply_rule(d, "interchange", "fwd", 0, 0)
        assert mid.slices == (Cell("gen", 2, "t"), Cell("gen", 0, "m"))
        assert_same_denotation(d, mid)

    def test_interchange_unit_box_tiebreak(self):
        # two unit-shaped boxes at the same offset satisfy the
        # interchange law: [u@0; u@0] = u (x) u = [u@0; u@1]
        d = dia((), Cell("gen", 0, "u"), Cell("gen", 0, "u"))
        mid = apply_rule(d, "interchange", "fwd", 0, 0)
        assert mid.slices == (Cell("gen", 0, "u"), Cell("gen", 1, "u"))
        assert_same_denotation(d, mid)

    def test_interchange_overlap_rejected(self):
        d = dia(("T", "T"), Cell("braid", 0, 1), Cell("gen", 0, "m"))
        with pytest.raises(RewriteError):
            apply_rule(d, "interchange", "fwd", 0, 0)

    def test_braid_nat_forward(self):
        # box before braid reflects to the other strand after the braid
        d = dia(("T", "T"), Cell("gen", 0, "t"), Cell("braid", 0, 1))
        mid = roundtrip(d, "braid-nat", 0, 0)
        assert mid.slices == (Cell("braid", 0, 1), Cell("gen", 1, "t"))

    def test_braid_nat_backward_direction(self):
        d = dia(("T", "T"), Cell("braid", 0, 1), Cell("gen", 0, "t"))
        mid = roundtrip(d, "braid-nat", 0, 0, fwd="bwd", bwd="fwd")
        assert mid.slices == (Cell("gen", 1, "t"), Cell("braid", 0, 1))

    def test_unit_slide_plus(self):
        d = dia(("T",), Cell("gen", 0, "u"), Cell("braid", 0, 1))
        mid = roundtrip(d, "unit-slide+", 0, 0)
        assert mid.slices == (Cell("gen", 1, "u"),)

    def test_unit_slide_minus_counit(self):
        d = dia(("T", "T"), Cell("braid", 0, -1), Cell("gen", 0, "c"))
        mid = roundtrip(d, "unit-slide-", 0, 0)
        assert mid.slices == (Cell("gen", 1, "c"),)

    def test_cupcap_slide_cup(self):
        d = dia(("T",), Cell("cup", 0, T), Cell("braid", 1, 1))
        mid = apply_rule(d, "cupcap-slide", "fwd", 0, 0)
        assert mid.slices == (Cell("cup", 1, T), Cell("braid", 0, -1))
        assert_same_denotation(d, mid)
        back = apply_rule(mid, "cupcap-slide", "fwd", 0, 1)
        assert back.slices == d.slices

    def test_cupcap_slide_cap(self):
        d = dia(("T", "T^", "T^"), Cell("braid", 1, 1), Cell("cap", 0, T))
        mid = apply_rule(d, "cupcap-slide", "fwd", 0, 1)
        assert mid.slices == (Cell("braid", 0, -1), Cell("cap", 1, T))
        assert_same_denotation(d, mid)
        back = apply_rule(mid, "cupcap-slide", "fwd", 0, 0)
        assert back.slices == d.slices

    @pytest.mark.parametrize("cells", [
        (("T", "T"), Cell("cup", 0, T), Cell("braid", 2, 1)),
        (("T", "T"), Cell("cup", 2, T), Cell("braid", 0, 1)),
        (("T", "T", "T", "T^"), Cell("braid", 0, 1), Cell("cap", 2, T)),
        (("T", "T^", "T", "T"), Cell("braid", 2, 1), Cell("cap", 0, T)),
    ])
    def test_cupcap_slide_needs_adjacent_strands(self, cells):
        d = dia(*cells)
        with pytest.raises(RewriteError, match="not adjacent"):
            apply_rule(d, "cupcap-slide", "fwd", 0, d.slices[0].offset)

    def test_braid_cancel(self):
        d = dia(("T", "T"), Cell("braid", 0, 1), Cell("braid", 0, -1))
        mid = roundtrip(d, "braid-cancel", 0, 0)
        assert mid.slices == ()

    def test_braid_cancel_rev(self):
        d = dia(("T", "T"), Cell("braid", 0, -1), Cell("braid", 0, 1))
        mid = roundtrip(d, "braid-cancel-rev", 0, 0)
        assert mid.slices == ()

    def test_inv_cancel(self):
        d = dia(("T",), Cell("gen", 0, "t"), Cell("gen-inv", 0, "t"))
        mid = roundtrip(d, "inv-cancel:t", 0, 0)
        assert mid.slices == ()

    def test_inv_cancel_rev(self):
        d = dia(("T",), Cell("gen-inv", 0, "t"), Cell("gen", 0, "t"))
        mid = roundtrip(d, "inv-cancel-rev:t", 0, 0)
        assert mid.slices == ()

    def test_triangle_a(self):
        d = dia(("T",), Cell("cup", 1, T), Cell("cap", 0, T))
        mid = roundtrip(d, "triangle-A", 0, 0)
        assert mid.slices == ()

    def test_triangle_b(self):
        d = dia(("T^",), Cell("cup", 0, T), Cell("cap", 1, T))
        mid = roundtrip(d, "triangle-B", 0, 0)
        assert mid.slices == ()

    def test_unknown_rule(self):
        with pytest.raises(RewriteError):
            apply_rule(identity_diagram(SIG, word("T")), "no-such", "fwd",
                       0, 0)


# ----------------------------------------------------------- declared rules

class TestDeclaredRules:
    RULE = RewriteRule(
        "fold-unit", "hypothesis",
        Diagram(SIG, word("T"), (Cell("gen", 0, "u"), Cell("gen", 0, "m"))),
        Diagram(SIG, word("T"), ()))

    def test_window_match_with_shift(self):
        d = dia(("T", "T"), Cell("gen", 1, "u"), Cell("gen", 1, "m"))
        out = apply_rule(d, "fold-unit", "fwd", 0, 1,
                         {"fold-unit": self.RULE})
        assert out.slices == ()

    def test_backward_inserts(self):
        d = identity_diagram(SIG, word("T"))
        out = apply_rule(d, "fold-unit", "bwd", 0, 0,
                         {"fold-unit": self.RULE})
        assert out.slices == (Cell("gen", 0, "u"), Cell("gen", 0, "m"))

    def test_context_mismatch_rejected(self):
        d = dia((), Cell("gen", 0, "u"), Cell("gen", 0, "u"),
                Cell("gen", 0, "m"))
        # cells match at slices 1-2 but the context word offset is wrong
        with pytest.raises(RewriteError):
            apply_rule(d, "fold-unit", "fwd", 1, 1, {"fold-unit": self.RULE})

    def test_cell_mismatch_rejected(self):
        d = dia(("T",), Cell("gen", 0, "t"), Cell("gen", 0, "t"))
        with pytest.raises(RewriteError):
            apply_rule(d, "fold-unit", "fwd", 0, 0, {"fold-unit": self.RULE})

    def test_nonparallel_rule_rejected(self):
        with pytest.raises(ValueError):
            RewriteRule("bad", "hypothesis",
                        identity_diagram(SIG, word("T")),
                        identity_diagram(SIG, word("T", "T")))


class TestTraces:
    def make_trace(self, steps, end):
        start = dia(("T", "T"), Cell("gen", 0, "t"), Cell("gen", 1, "t"))
        return RewriteTrace("demo", SIG, (), start, end, steps)

    def test_validate_ok(self):
        end = dia(("T", "T"), Cell("gen", 1, "t"), Cell("gen", 0, "t"))
        tr = self.make_trace((Step("interchange", "fwd", 0, 0),), end)
        report = validate_trace(tr)
        assert report.ok and report.steps_applied == 1

    def test_validate_wrong_end(self):
        end = dia(("T", "T"), Cell("gen", 0, "t"), Cell("gen", 1, "t"))
        tr = self.make_trace((Step("interchange", "fwd", 0, 0),), end)
        assert not validate_trace(tr).ok

    def test_validate_bad_step(self):
        end = dia(("T", "T"), Cell("gen", 1, "t"), Cell("gen", 0, "t"))
        tr = self.make_trace((Step("braid-nat", "fwd", 0, 0),), end)
        report = validate_trace(tr)
        assert not report.ok and report.steps_applied == 0

    def test_trace_json_roundtrip(self):
        end = dia(("T", "T"), Cell("gen", 1, "t"), Cell("gen", 0, "t"))
        tr = self.make_trace((Step("interchange", "fwd", 0, 0),), end)
        back = RewriteTrace.from_json(tr.to_json())
        assert back == tr


# ----------------------------------------------- symmetric canonical forms

class TestNormalizeSymmetric:
    def test_swap_squared_is_identity(self):
        d = dia(("T", "T"), Cell("braid", 0, 1), Cell("braid", 0, 1))
        assert normalize_symmetric(d) == \
            normalize_symmetric(identity_diagram(SIG, word("T", "T")))

    def test_swap_not_identity(self):
        d = dia(("T", "T"), Cell("braid", 0, 1))
        assert normalize_symmetric(d) != \
            normalize_symmetric(identity_diagram(SIG, word("T", "T")))

    def test_braid_sign_irrelevant_symmetrically(self):
        dp = dia(("T", "T"), Cell("braid", 0, 1))
        dm = dia(("T", "T"), Cell("braid", 0, -1))
        assert normalize_symmetric(dp) == normalize_symmetric(dm)

    def test_closed_loop_recorded(self):
        d = dia((), Cell("cup", 0, T), Cell("cap", 0, Td))
        nf = normalize_symmetric(d)
        assert nf.loops == ("T",) and nf.wires == ()

    def test_snake_equals_identity(self):
        d = dia(("T",), Cell("cup", 1, T), Cell("cap", 0, T))
        assert normalize_symmetric(d) == \
            normalize_symmetric(identity_diagram(SIG, word("T")))

    def test_interchanged_diagrams_equal(self):
        d1 = dia(("T", "T"), Cell("gen", 0, "t"), Cell("gen", 1, "t"))
        d2 = dia(("T", "T"), Cell("gen", 1, "t"), Cell("gen", 0, "t"))
        assert normalize_symmetric(d1) == normalize_symmetric(d2)

    def test_box_occurrence_relabeling(self):
        # u (x) u composed with the swap equals u (x) u
        d1 = dia((), Cell("gen", 0, "u"), Cell("gen", 1, "u"))
        d2 = dia((), Cell("gen", 0, "u"), Cell("gen", 1, "u"),
                 Cell("braid", 0, 1))
        assert normalize_symmetric(d1) == normalize_symmetric(d2)

    def test_distinct_wirings_distinct(self):
        # c after t is not c
        d1 = dia(("T",), Cell("gen", 0, "t"), Cell("gen", 0, "c"))
        d2 = dia(("T",), Cell("gen", 0, "c"))
        assert normalize_symmetric(d1) != normalize_symmetric(d2)

    def test_open_graph_wire_count(self):
        d = dia(("T", "T"), Cell("gen", 0, "m"), Cell("gen", 0, "t"))
        g = diagram_to_open_graph(d)
        assert len(g.boxes) == 2 and len(g.wires) == 4 and g.loops == ()


def enumerate_small_diagrams(sig, dom, max_slices, max_width=3):
    """All well-typed diagrams from ``dom`` with at most ``max_slices``
    slices, bounded width."""
    base = [Letter(o) for o in sig.objects]
    letters = base + [Letter(o, dual=True) for o in sig.objects]
    out = [Diagram(sig, dom, ())]
    frontier = [Diagram(sig, dom, ())]
    for _ in range(max_slices):
        nxt = []
        for d in frontier:
            width = len(d.cod)
            candidates = []
            for w in range(width + 1):
                for name, _gt in sig.generators:
                    candidates.append(Cell("gen", w, name))
                for letter in letters:
                    candidates.append(Cell("cup", w, letter))
                    candidates.append(Cell("cap", w, letter))
                if w + 2 <= width:
                    candidates.append(Cell("braid", w, 1))
            for cell in candidates:
                try:
                    new = Diagram(sig, dom, d.slices + (cell,))
                except TypingError:
                    continue
                if len(new.cod) > max_width:
                    continue
                nxt.append(new)
        out.extend(nxt)
        frontier = nxt
    return out


class TestDecisionProcedureSoundness:
    def test_equal_normal_forms_evaluate_equal(self):
        # exhaustive check on small diagrams: the canonical form only
        # identifies diagrams with the same span-model denotation
        sig = signature(["A"], {"u": ((), ("A",)), "c": (("A",), ())})
        interp = Interpretation(SpanFin(), {"A": 2}, {
            "u": span(1, 2, [[1], [2]]),
            "c": span(2, 1, [[3, 1]]),
        })
        diagrams = enumerate_small_diagrams(sig, word("A"), 3)
        assert len(diagrams) > 200
        by_nf = {}
        for d in diagrams:
            by_nf.setdefault(normalize_symmetric(d), []).append(d)
        merged = 0
        for group in by_nf.values():
            ref = evaluate(group[0], interp)
            merged += len(group) - 1
            for other in group[1:]:
                got = evaluate(other, interp)
                assert SF.mor_eq(got, ref), f"{group[0]} vs {other}"
        # the procedure must actually merge syntactically distinct diagrams
        assert merged > 50


# ----------------------------------------------------------------- evaluate

class TestEvaluate:
    def test_identity(self):
        d = identity_diagram(SIG, word("T", "T"))
        assert SF.mor_eq(ev(d), SF.identity(4))

    def test_gen_inverse(self):
        d = dia(("T",), Cell("gen", 0, "t"), Cell("gen-inv", 0, "t"))
        assert SF.mor_eq(ev(d), SF.identity(2))

    def test_braid_inverse_pair(self):
        d = dia(("T", "T"), Cell("braid", 0, 1), Cell("braid", 0, -1))
        assert SF.mor_eq(ev(d), SF.identity(4))

    def test_snake_evaluates_to_identity(self):
        d = dia(("T",), Cell("cup", 1, T), Cell("cap", 0, T))
        assert SF.mor_eq(ev(d), SF.identity(2))

    def test_closed_loop_is_cardinality(self):
        d = dia((), Cell("cup", 0, T), Cell("cap", 0, Td))
        assert SF.mor_eq(ev(d), span(1, 1, [[2]]))

    def test_unit_word_generator(self):
        d = dia((), Cell("gen", 0, "u"), Cell("gen", 0, "c"))
        assert SF.mor_eq(ev(d), span(1, 1, [[5]]))
