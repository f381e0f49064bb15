"""Tests for the equivariant module: subgroup lattices vs a brute-force
oracle, Weyl groups, fixed-point dimensions vs projector ranks, interval
spheres, untwisting, and collapse certificates."""

import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import pytest

from dualkit import MalformedInput
from dualkit.equivariant import (COFIBER_LOCAL, FINAL_FACT, SINGLETON_KILL,
                                 SMASH_REMOVE, CertStep, CollapseCertificate,
                                 GroupTooLarge, IntervalSphere, InvalidAction,
                                 NonIntegralAverage, NotADownset, NotConvex,
                                 PermGroup, Representation,
                                 RepresentationError, all_subgroups,
                                 cofiber_upset_sequence, coset_action,
                                 down_closure, enumerate_subgroup_classes,
                                 fixed_dim, fixed_projector_rank,
                                 generate_collapse_certificate,
                                 generated_subgroup, get_group,
                                 interval_smash, is_downset, is_subconjugate,
                                 is_upset, kill_fact, local_fact,
                                 natural_action,
                                 perm_group, permutation_representation,
                                 reduced_permutation_representation,
                                 reduced_regular_representation,
                                 regular_representation, transitive_actions,
                                 trivial_representation, untwisting_check,
                                 validate_action,
                                 validate_collapse_certificate, weyl_group)

PRESETS = ["c2", "c4", "s3", "d4", "q8", "a4"]


def oracle_subgroups(G):
    """Brute force: close every generating subset of size at most
    log2|G| (every subgroup has such a generating set)."""
    k = max(1, math.ceil(math.log2(G.order)))
    found = set()
    for size in range(1, k + 1):
        for gens in combinations(G.elements, size):
            found.add(generated_subgroup(G, gens))
    return found


class TestSubgroupLattice:
    @pytest.mark.parametrize("name", PRESETS)
    def test_matches_power_set_oracle(self, name):
        G = get_group(name)
        assert set(all_subgroups(G)) == oracle_subgroups(G)

    def test_s3_classes(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        assert poset.n == 4
        assert [poset.class_order(i) for i in range(4)] == [1, 2, 3, 6]

    def test_c4_classes(self):
        poset = enumerate_subgroup_classes(get_group("c4"))
        assert [poset.class_order(i) for i in range(3)] == [1, 2, 4]

    def test_a4_classes(self):
        poset = enumerate_subgroup_classes(get_group("a4"))
        assert [poset.class_order(i) for i in range(5)] == [1, 2, 3, 4, 12]

    def test_q8_classes(self):
        poset = enumerate_subgroup_classes(get_group("q8"))
        assert [poset.class_order(i) for i in range(6)] == [1, 2, 4, 4, 4, 8]

    @pytest.mark.parametrize("name", PRESETS)
    def test_poset_structure(self, name):
        poset = enumerate_subgroup_classes(get_group(name))
        n = poset.n
        # partial order with trivial bottom and the whole group on top
        for i in range(n):
            assert poset.leq[i][i]
            assert poset.leq[0][i] and poset.leq[i][n - 1]
        for i in range(n):
            for j in range(n):
                if i != j and poset.leq[i][j] and poset.leq[j][i]:
                    pytest.fail("antisymmetry violated")
                for k in range(n):
                    if poset.leq[i][j] and poset.leq[j][k]:
                        assert poset.leq[i][k]
        assert poset.class_order(0) == 1
        assert poset.class_order(n - 1) == poset.group.order

    @pytest.mark.parametrize("name", PRESETS)
    def test_weyl_orders(self, name):
        poset = enumerate_subgroup_classes(get_group(name))
        for i in range(poset.n):
            order, reps = weyl_group(poset, i)
            assert order == poset.weyl_orders[i] == len(reps)
        # the whole group always has trivial Weyl group
        assert poset.weyl_orders[poset.n - 1] == 1
        assert poset.weyl_orders[0] == poset.group.order

    def test_s3_weyl_examples(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        assert weyl_group(poset, 1)[0] == 1   # C2
        assert weyl_group(poset, 2)[0] == 2   # C3

    def test_group_too_large(self):
        # S5, of order 120 > DEFAULT_ORDER_BOUND
        with pytest.raises(GroupTooLarge):
            perm_group(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])

    def test_json_roundtrip(self):
        G = get_group("s3")
        assert PermGroup.from_json(G.to_json()) == G

    @pytest.mark.parametrize("generators, elements", [
        ((), ((0, 1, 2), (1, 0, 2))),               # a generator missing
        (((1, 0, 2),), ((0, 1, 2),)),               # an element missing
        (((1, 0, 2),), ((1, 0, 2), (0, 1, 2))),     # not sorted
        (((1, 0, 2),), ((1, 0, 2),)),               # no identity
    ])
    def test_elements_must_be_the_closure(self, generators, elements):
        # the action checks and Representation test generators only, so
        # elements is never an argument: it is the sorted closure
        with pytest.raises(TypeError):
            PermGroup(3, generators, elements)
        G = PermGroup(3, generators)
        # each generator here is a transposition, so it and the identity
        # are the whole closure
        assert G.elements == tuple(sorted({(0, 1, 2), *generators}))
        assert G.order == len(G.table.mul) == regular_representation(G).dim


class TestRepresentations:
    def test_homomorphism_rejected(self):
        G = get_group("c2")
        with pytest.raises(RepresentationError):
            Representation(G, 1, [[[2]]])   # 2 squared is not 1

    def test_s3_standard_fixed_dims(self):
        G = get_group("s3")
        poset = enumerate_subgroup_classes(G)
        std = reduced_permutation_representation(G)
        dims = [fixed_dim(std, poset.representative(i)) for i in range(4)]
        assert dims == [2, 1, 0, 0]

    def test_trivial_rep_fixed_dims(self):
        G = get_group("d4")
        poset = enumerate_subgroup_classes(G)
        triv = trivial_representation(G)
        assert all(fixed_dim(triv, poset.representative(i)) == 1
                   for i in range(poset.n))

    @pytest.mark.parametrize("name", PRESETS)
    def test_regular_rep_counts_cosets(self, name):
        G = get_group(name)
        poset = enumerate_subgroup_classes(G)
        reg = regular_representation(G)
        for i in range(poset.n):
            H = poset.representative(i)
            assert fixed_dim(reg, H) == G.order // len(H)

    @pytest.mark.parametrize("name", PRESETS)
    def test_fixed_dim_matches_projector_rank(self, name):
        G = get_group(name)
        poset = enumerate_subgroup_classes(G)
        reps = [trivial_representation(G), permutation_representation(G),
                reduced_regular_representation(G)]
        for rep in reps:
            for i in range(poset.n):
                H = poset.representative(i)
                assert fixed_dim(rep, H) == fixed_projector_rank(rep, H)

    @pytest.mark.parametrize("name", PRESETS)
    def test_fixed_dim_antitone_in_subconjugacy(self, name):
        G = get_group(name)
        poset = enumerate_subgroup_classes(G)
        rep = reduced_regular_representation(G)
        dims = [fixed_dim(rep, poset.representative(i))
                for i in range(poset.n)]
        for i in range(poset.n):
            for j in range(poset.n):
                if poset.leq[i][j]:
                    assert dims[j] <= dims[i]

    def test_character_is_class_function_input(self):
        G = get_group("s3")
        rep = permutation_representation(G)
        chars = sorted(rep.character(g) for g in G.elements)
        assert chars == [0, 0, 1, 1, 1, 3]
        assert all(isinstance(c, Fraction) for c in chars)


class TestIntervalSpheres:
    def poset(self):
        return enumerate_subgroup_classes(get_group("s3"))

    def all_intervals(self, poset):
        out = []
        classes = range(poset.n)
        for r in range(poset.n + 1):
            for sub in combinations(classes, r):
                try:
                    out.append(IntervalSphere(poset, frozenset(sub)))
                except NotConvex:
                    pass
        return out

    def test_smash_is_intersection_and_convex(self):
        poset = self.poset()
        intervals = self.all_intervals(poset)
        assert len(intervals) > 4
        for i in intervals:
            assert interval_smash(i, i).classes == i.classes
            for j in intervals:
                s = interval_smash(i, j)
                assert s.classes == i.classes & j.classes
                assert s.classes == interval_smash(j, i).classes
                for k in intervals:
                    assert interval_smash(interval_smash(i, j), k).classes \
                        == interval_smash(i, interval_smash(j, k)).classes

    def test_non_convex_rejected(self):
        poset = self.poset()
        # trivial class and the whole group without anything in between
        with pytest.raises(NotConvex):
            IntervalSphere(poset, frozenset({0, poset.n - 1}))

    def test_cofiber_sequence(self):
        poset = self.poset()
        seq = cofiber_upset_sequence(poset, {0})
        assert seq.upset_sphere.classes == frozenset({1, 2, 3})
        assert seq.unit_sphere.classes == frozenset(range(4))
        assert cofiber_upset_sequence(poset, set(range(4))) \
            .upset_sphere.classes == frozenset()
        assert cofiber_upset_sequence(poset, set()) \
            .downset_sphere.classes == frozenset()

    def test_not_a_downset(self):
        poset = self.poset()
        with pytest.raises(NotADownset):
            cofiber_upset_sequence(poset, {poset.n - 1})

    def test_upset_downset_predicates(self):
        poset = self.poset()
        assert is_downset(poset, {0, 1}) and is_upset(poset, {1, 2, 3})
        assert not is_downset(poset, {1}) and not is_upset(poset, {0, 1})
        assert down_closure(poset, poset.n - 1) == frozenset(range(poset.n))


class TestUntwisting:
    @pytest.mark.parametrize("name", PRESETS)
    def test_all_transitive_gsets(self, name):
        G = get_group(name)
        poset = enumerate_subgroup_classes(G)
        actions = transitive_actions(G, poset)
        assert len(actions) == poset.n
        for action in actions:
            assert untwisting_check(G, action)

    def test_natural_action(self):
        G = get_group("s3")
        assert untwisting_check(G, natural_action(G))

    def test_coset_action_sizes(self):
        G = get_group("s3")
        poset = enumerate_subgroup_classes(G)
        sizes = [len(next(iter(coset_action(G, poset.representative(i))
                               .values())))
                 for i in range(poset.n)]
        assert sizes == [6, 3, 2, 1]

    def test_list_rows(self):
        G = get_group("s3")
        rows = {g: list(v) for g, v in natural_action(G).items()}
        assert validate_action(G, rows) == 3
        assert untwisting_check(G, rows)
        rows[sorted(rows)[1]] = [0, 0, 1]
        with pytest.raises(InvalidAction,
                           match=r"^row \[0, 0, 1\] is not a permutation"):
            validate_action(G, rows)
        # rows that are neither tuples nor lists are not read as tuples
        for row in ({0: 1, 1: 0, 2: 2}, {1, 0, 2}):
            rows[sorted(rows)[1]] = row
            for check in (validate_action, untwisting_check):
                with pytest.raises(InvalidAction, match="not associative"):
                    check(G, rows)

    def test_invalid_action_rejected(self):
        G = get_group("s3")
        bad = natural_action(G)
        k = sorted(bad)[2]
        bad[k] = tuple(reversed(range(3)))  # break associativity
        with pytest.raises(InvalidAction):
            untwisting_check(G, bad)


class TestCollapseCertificates:
    @pytest.mark.parametrize("name", PRESETS)
    def test_roundtrip_and_counts(self, name):
        poset = enumerate_subgroup_classes(get_group(name))
        cert = generate_collapse_certificate(poset, "reduced-regular")
        assert validate_collapse_certificate(cert, poset)
        assert cert.removal_count() == poset.n
        assert cert.final_fact == "F(S^0) = 0"
        back = CollapseCertificate.from_json(cert.to_json())
        assert validate_collapse_certificate(back, poset)

    def test_trivial_group(self):
        poset = enumerate_subgroup_classes(perm_group(1, []))
        cert = generate_collapse_certificate(poset)
        assert validate_collapse_certificate(cert, poset)
        assert cert.removal_count() == 1

    def test_c2_removal_order(self):
        poset = enumerate_subgroup_classes(get_group("c2"))
        cert = generate_collapse_certificate(poset, "sign")
        removed = [s.cls for s in cert.steps if s.rule == SMASH_REMOVE]
        assert removed == [0, 1]    # trivial class first, then the group

    def test_swapped_removals_rejected(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        cert = generate_collapse_certificate(poset)
        steps = list(cert.steps)
        # swap the two full removal rounds so a non-minimal class goes first
        steps[0:3], steps[3:6] = steps[3:6], steps[0:3]
        bad = dataclasses.replace(cert, steps=tuple(steps))
        report = validate_collapse_certificate(bad, poset)
        assert not report.ok and report.step_index == 0

    def test_missing_kill_premise_rejected(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        cert = generate_collapse_certificate(poset)
        steps = [s for s in cert.steps
                 if not (s.rule == SINGLETON_KILL and s.cls == 0)]
        bad = dataclasses.replace(cert, steps=tuple(steps))
        report = validate_collapse_certificate(bad, poset)
        assert not report.ok

    def test_wrong_conclusion_rejected(self):
        poset = enumerate_subgroup_classes(get_group("c2"))
        cert = generate_collapse_certificate(poset)
        steps = list(cert.steps)
        s = steps[1]
        assert s.rule == COFIBER_LOCAL
        steps[1] = CertStep(s.rule, s.cls, s.upset, s.premises,
                            local_fact(frozenset()))
        bad = dataclasses.replace(cert, steps=tuple(steps))
        assert not validate_collapse_certificate(bad, poset)

    def test_certificate_bound_to_its_group(self):
        c4 = enumerate_subgroup_classes(get_group("c4"))
        cert = generate_collapse_certificate(c4)
        # C9 and C4 both have three classes in a chain
        c9 = enumerate_subgroup_classes(
            perm_group(9, [(1, 2, 3, 4, 5, 6, 7, 8, 0)]))
        report = validate_collapse_certificate(cert, c9)
        assert not report.ok and "degree" in report.message
        # same degree, different elements: the Klein four-group
        v4 = enumerate_subgroup_classes(
            perm_group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]))
        assert not validate_collapse_certificate(cert, v4)
        # the same group from another generator is accepted
        inverse = enumerate_subgroup_classes(perm_group(4, [(3, 0, 1, 2)]))
        assert validate_collapse_certificate(cert, inverse)
        for group in ({"degree": 4}, {"degree": 4, "generators": [[5, 1]]},
                      {"degree": 4, "generators": [["a", "b", "c", "d"]]},
                      [], {"degree": 4, "generators": [[2, 3, 4, 1.5]]}):
            bad = dataclasses.replace(cert, group=group)
            assert not validate_collapse_certificate(bad, c4)

    def test_determinism(self):
        poset = enumerate_subgroup_classes(get_group("d4"))
        c1 = generate_collapse_certificate(poset)
        c2 = generate_collapse_certificate(poset)
        assert c1.to_json() == c2.to_json()

    def test_smash_removals_alone_with_their_conclusions_as_axioms(self):
        # the certificate's locality facts listed as extra axioms would
        # let its SmashRemove steps alone cite only "derived" facts
        poset = enumerate_subgroup_classes(get_group("s3"))
        report = validate_collapse_certificate(
            smash_removals_only(generate_collapse_certificate(poset)), poset)
        assert not report.ok and report.step_index == -1
        assert "axioms" in report.message

    def test_smash_remove_conclusion_is_checked(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        cert = generate_collapse_certificate(poset)
        everything = frozenset(range(poset.n))
        for n, s in enumerate(cert.steps):
            if s.rule != SMASH_REMOVE:
                continue
            u = frozenset(s.upset)
            others = {local_fact(u), local_fact(frozenset()),
                      local_fact(everything), kill_fact(s.cls), FINAL_FACT,
                      "anything"} - {s.conclusion}
            for other in others:
                steps = list(cert.steps)
                steps[n] = dataclasses.replace(s, conclusion=other)
                report = validate_collapse_certificate(
                    dataclasses.replace(cert, steps=tuple(steps)), poset)
                assert not report.ok and report.step_index == n, other

    @pytest.mark.parametrize("axiom_name", ["0", "{class 0}", "{class 3}"])
    def test_a_vanishing_axiom_stating_a_derived_fact_is_refused(
            self, axiom_name):
        poset = enumerate_subgroup_classes(get_group("s3"))
        with pytest.raises(MalformedInput, match="vanishing axiom"):
            generate_collapse_certificate(poset, axiom_name)

    def test_an_axiom_naming_no_class_of_the_poset_is_accepted(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        cert = generate_collapse_certificate(poset, "{class 4}")
        assert validate_collapse_certificate(cert, poset)

    def test_a_forged_vanishing_axiom_is_rejected(self):
        poset = enumerate_subgroup_classes(get_group("s3"))
        cert = generate_collapse_certificate(poset)
        report = validate_collapse_certificate(forged_axiom(cert), poset)
        assert not report.ok and report.step_index == -1
        assert "vanishing axiom" in report.message
        for i in range(poset.n):
            report = validate_collapse_certificate(
                forged_axiom(cert, kill_fact(i)), poset)
            assert not report.ok and report.step_index == -1, i

    @pytest.mark.parametrize("name", PRESETS)
    def test_every_single_step_mutant_is_rejected(self, name):
        poset = enumerate_subgroup_classes(get_group(name))
        cert = generate_collapse_certificate(poset, "reduced-regular")
        assert validate_collapse_certificate(cert, poset)
        assert validate_collapse_certificate(
            CollapseCertificate.from_json(cert.to_json()), poset)
        mutants = list(certificate_mutants(cert, poset.n))
        # 3n steps: 3n deletions, 3n - 1 swaps, two other rules and n - 1
        # other classes for each step, and four field edits per step
        n = poset.n
        assert len(mutants) == 3 * n * (n + 7) - 1
        for what, steps in mutants:
            bad = dataclasses.replace(cert, steps=steps)
            assert not validate_collapse_certificate(bad, poset), \
                f"{name}: {what} still validates"


def forged_axiom(cert, fact=FINAL_FACT):
    """cert with its vanishing axiom replaced by fact, in its axioms and
    in every premise that cites it."""
    axiom = cert.axioms[0]

    def swap(facts):
        return tuple(fact if f == axiom else f for f in facts)
    return dataclasses.replace(
        cert, axioms=swap(cert.axioms),
        steps=tuple(dataclasses.replace(s, premises=swap(s.premises))
                    for s in cert.steps))


def smash_removals_only(cert):
    """cert with its SmashRemove conclusions appended to the axioms and
    only its SmashRemove steps kept."""
    removals = tuple(s for s in cert.steps if s.rule == SMASH_REMOVE)
    return dataclasses.replace(
        cert, axioms=cert.axioms + tuple(s.conclusion for s in removals),
        steps=removals)


def certificate_mutants(cert, n_classes):
    """(what, steps) for every single-step corruption of cert: a step
    deleted or swapped with the next; its rule or class replaced by each
    other one; its first upset entry or first premise dropped; an axiom
    appended to its premises; its conclusion set to the final fact."""
    steps = cert.steps
    rules = (SINGLETON_KILL, COFIBER_LOCAL, SMASH_REMOVE)
    for n, s in enumerate(steps):
        def at(**change):
            return steps[:n] + (dataclasses.replace(s, **change),) + \
                steps[n + 1:]
        yield f"step {n} deleted", steps[:n] + steps[n + 1:]
        if n + 1 < len(steps):
            yield f"steps {n}, {n + 1} swapped", \
                steps[:n] + (steps[n + 1], s) + steps[n + 2:]
        for rule in rules:
            if rule != s.rule:
                yield f"step {n} rule {rule}", at(rule=rule)
        for c in range(n_classes):
            if c != s.cls:
                yield f"step {n} class {c}", at(cls=c)
        yield f"step {n} upset cut", at(upset=s.upset[1:])
        yield f"step {n} premise cut", at(premises=s.premises[1:])
        yield f"step {n} axiom cited", at(
            premises=s.premises + (cert.axioms[1],))
        yield f"step {n} final conclusion", at(conclusion=FINAL_FACT)
