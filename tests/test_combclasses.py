from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribboncalc import combclasses
from ribboncalc.combclasses import (
    RhoAssignment,
    SetPartition,
    all_partitions,
    ambient_genus,
    ambient_surface,
    delta_class,
    double_factorial,
    forget_multiplicity,
    kappa_polynomial,
    merge_coefficient,
    merge_relation,
    node_class,
    one_vertex_relation,
    partition_coefficient,
    tails_class,
    two_vertex_check,
    valency_class,
)
from ribboncalc.enumeration import Profile
from ribboncalc.errors import (
    DomainMismatch,
    EvenInput,
    InconsistentProfile,
    NegativeCount,
)
from ribboncalc.tautring import ONE, TautPoly, kappa, kappa_cycle_sum, map_generators, psi

BELL = [1, 1, 2, 5, 15, 52]


def gen_of(sym_poly):
    """The single generator tuple of a one-symbol polynomial."""
    ((mono, _),) = sym_poly.terms().items()
    ((gen, exp),) = mono
    assert exp == 1
    return gen


def tails_with_weight(w):
    """All tuples (m_1, m_2, ...) with sum of i*m_i equal to w."""
    def parts(rest, top):
        if rest == 0:
            yield []
            return
        for i in range(min(rest, top), 0, -1):
            for sub in parts(rest - i, i):
                yield [i] + sub

    for p in parts(w, w):
        counts = [0] * max(p)
        for i in p:
            counts[i - 1] += 1
        yield tuple(counts)


class TestArithmetic:
    def test_double_factorial_values(self):
        assert [double_factorial(n) for n in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]

    def test_double_factorial_guards(self):
        for n in (0, 4, -2):
            with pytest.raises(EvenInput):
                double_factorial(n)
        with pytest.raises(DomainMismatch):
            double_factorial(-3)

    def test_merge_coefficient_golden(self):
        assert merge_coefficient(0, 1) == 1
        assert merge_coefficient(5, 1) == 1
        assert merge_coefficient(2, 2) == 7
        assert merge_coefficient(2, 3) == 63
        assert merge_coefficient(3, 3) == 99

    @given(st.integers(0, 8), st.integers(1, 5))
    def test_merge_coefficient_is_a_double_factorial_ratio(self, r, h):
        top = double_factorial(2 * r + 2 * h - 1)
        bottom = double_factorial(2 * r + 1)
        assert merge_coefficient(r, h) * bottom == top

    def test_partition_coefficient(self):
        rho = {"q1": 1, "q2": 1, "q3": 1}
        assert partition_coefficient(rho, SetPartition.discrete(rho)) == 1
        assert partition_coefficient(rho, SetPartition([["q1", "q2"], ["q3"]])) == 7
        assert partition_coefficient(rho, SetPartition([["q1", "q2", "q3"]])) == 99


class TestPartitions:
    def test_bell_counts(self):
        for n in range(6):
            labels = [f"x{i}" for i in range(n)]
            assert sum(1 for _ in all_partitions(labels)) == BELL[n]

    def test_every_partition_covers(self):
        labels = {"a", "b", "c", "d"}
        for M in all_partitions(labels):
            assert M.ground() == labels

    def test_splits(self):
        M = SetPartition([["a", "b"], ["c"]])
        assert M.splits({"a", "c"})
        assert M.splits(set())
        assert not M.splits({"a", "b"})
        assert SetPartition.discrete("abc").splits({"a", "b", "c"})

    def test_block_of(self):
        M = SetPartition([["a", "b"], ["c"]])
        assert M.block_of("b") == frozenset({"a", "b"})
        with pytest.raises(DomainMismatch):
            M.block_of("z")

    def test_validation(self):
        with pytest.raises(DomainMismatch):
            SetPartition([["a"], ["a", "b"]])
        with pytest.raises(DomainMismatch):
            SetPartition([[]])

    def test_rho_assignment(self):
        rho = RhoAssignment({"q2": 0, "q1": 3})
        assert rho.labels() == ("q1", "q2")
        assert rho.value("q1") == 3
        assert rho.count(0) == 1 and rho.count(1) == 0
        assert rho.total() == 3
        assert "q2" in rho and "p" not in rho
        with pytest.raises(DomainMismatch):
            RhoAssignment({"q": -1})
        with pytest.raises(DomainMismatch):
            rho.value("absent")


class TestForgetMultiplicity:
    def test_discrete_nothing_kept(self):
        # two order-1 labels: the profile factor 2! survives
        rho = {"q1": 1, "q2": 1}
        M = SetPartition.discrete(rho)
        assert forget_multiplicity(Profile([5, 2]), M, rho) == 2

    def test_merged_pair(self):
        rho = {"q1": 1, "q2": 1}
        M = SetPartition([["q1", "q2"]])
        assert forget_multiplicity(Profile([5, 0, 1]), M, rho) == 1

    def test_everything_kept_cancels(self):
        rho = {"q1": 1, "q2": 1}
        M = SetPartition.discrete(rho)
        assert forget_multiplicity(Profile([5, 2]), M, rho, kept=("q1", "q2")) == 1

    def test_trivalent_marking_counts_slots(self):
        rho = {"q": 0}
        M = SetPartition.discrete(rho)
        assert forget_multiplicity(Profile([4]), M, rho) == 4

    def test_mixed_profile_factor(self):
        rho = {"a": 1, "b": 1, "c": 2}
        M = SetPartition.discrete(rho)
        assert forget_multiplicity(Profile([1, 2, 1]), M, rho) == 2

    def test_negative_counts(self):
        rho = {"q": 1}
        M = SetPartition.discrete(rho)
        with pytest.raises(NegativeCount):
            forget_multiplicity(Profile([3]), M, rho, kept=("q",))

    def test_bad_inputs(self):
        rho = {"q1": 1, "q2": 1}
        with pytest.raises(DomainMismatch):
            forget_multiplicity(Profile([5, 2]), SetPartition([["q1"]]), rho)
        M = SetPartition([["q1", "q2"]])
        with pytest.raises(DomainMismatch):
            forget_multiplicity(Profile([5, 0, 1]), M, rho, kept=("q1", "q2"))


class TestSymbols:
    def test_valency_class_names(self):
        assert valency_class([5, 5]).text() == "[locus_5,5|2]"
        assert valency_class([7, 3, 5]).text() == "[locus_7,5|3]"
        marked = valency_class([5, 5], {"q2": 1, "q1": 1})
        assert marked.text() == "[locus_5,5;q1=1,q2=1|4]"
        assert valency_class([3], {"q": 0}).text() == "[locus;q=0|1]"

    def test_trivial_locus_is_one(self):
        assert valency_class([3, 3, 3]) == ONE
        assert valency_class([]) == ONE

    def test_valency_class_guards(self):
        with pytest.raises(DomainMismatch):
            valency_class([5], {"a": 1, "b": 1})
        with pytest.raises(DomainMismatch):
            valency_class([5], {"a": -1})
        with pytest.raises(InconsistentProfile):
            valency_class([4])

    def test_tails_class(self):
        rho = {"q1": 1, "q2": 1, "q3": 0}
        M = SetPartition([["q1", "q2"], ["q3"]])
        assert tails_class(M, rho).text() == "[tails;q1.q2=2/q3=0|5]"
        with pytest.raises(DomainMismatch):
            tails_class(SetPartition([["q1"]]), rho)

    def test_node_class(self):
        assert node_class(3, 1).text() == "[node_1,3|2]"
        assert node_class(1, 3, label="q").text() == "[node_1,3;q|3]"
        with pytest.raises(DomainMismatch):
            node_class(2, 4)

    def test_delta_class(self):
        assert delta_class("irr", 1).text() == "[delta_irr|1]"
        assert delta_class("irr", 2, label="q").text() == "[delta_irr;q|2]"

    def test_class_symbols_do_not_multiply(self):
        with pytest.raises(DomainMismatch):
            valency_class([5]) * valency_class([7])


class TestOneVertexRelation:
    def test_r1_golden(self):
        rel = one_vertex_relation(1)
        assert rel.psi_form.lhs == valency_class([5], {"q": 1}) + node_class(1, 1, label="q")
        assert rel.psi_form.rhs == 12 * psi("q") ** 2
        assert rel.kappa_form.lhs == valency_class([5]) + node_class(1, 1)
        assert rel.kappa_form.rhs == 12 * kappa(1)

    def test_r0_no_corrections(self):
        rel = one_vertex_relation(0)
        assert rel.psi_form == (valency_class([3], {"q": 0}), 2 * psi("q"))
        assert rel.kappa_form is None

    def test_r_minus_one_fundamental(self):
        rel = one_vertex_relation(-1)
        assert rel.psi_form.lhs == ONE and rel.psi_form.rhs == ONE
        assert rel.kappa_form is None
        with pytest.raises(DomainMismatch):
            one_vertex_relation(-2)

    def test_r2_aggregates_symmetric_nodes(self):
        rel = one_vertex_relation(2, label="z")
        expected = valency_class([7], {"z": 2}) + 6 * node_class(1, 3, label="z")
        assert rel.psi_form.lhs == expected
        assert rel.psi_form.rhs == 120 * psi("z") ** 3
        assert rel.kappa_form.rhs == 120 * kappa(2)

    def test_r3_correction_spread(self):
        rel = one_vertex_relation(3)
        expected = (
            valency_class([9], {"q": 3})
            + 10 * node_class(1, 5, label="q")
            + 9 * node_class(3, 3, label="q")
        )
        assert rel.psi_form.lhs == expected
        assert rel.psi_form.rhs == 1680 * psi("q") ** 4

    @given(st.integers(0, 9))
    def test_coefficient_identity(self, r):
        from math import factorial

        assert factorial(2 * r + 2) // factorial(r + 1) == 2 ** (r + 1) * double_factorial(2 * r + 1)


class TestMergeRelation:
    def test_two_order_one_labels(self):
        rel = merge_relation(2, ["p"], {"q1": 1, "q2": 1})
        assert rel.lhs == 144 * (kappa(1) ** 2 + kappa(2))
        assert rel.rhs == 2 * valency_class([5, 5]) + 7 * valency_class([7])

    def test_single_label(self):
        for r in (1, 2, 3):
            rel = merge_relation(3, ["p"], {"q": r})
            assert rel.lhs == 2 ** (r + 1) * double_factorial(2 * r + 1) * kappa(r)
            assert rel.rhs == valency_class([2 * r + 3])

    def test_everything_kept_is_the_unforgotten_display(self):
        rel = merge_relation(2, ["p"], {"q1": 1, "q2": 1}, kept=["q1", "q2"])
        assert rel.lhs == 144 * psi("q1") ** 2 * psi("q2") ** 2
        merged = SetPartition([["q1", "q2"]])
        expected = valency_class([5, 5], {"q1": 1, "q2": 1}) + 7 * tails_class(
            merged, {"q1": 1, "q2": 1}
        )
        assert rel.rhs == expected

    def test_partial_keep(self):
        rel = merge_relation(2, ["p"], {"q1": 1, "q2": 1}, kept=["q1"])
        assert rel.lhs == 144 * kappa(1) * psi("q1") ** 2
        expected = valency_class([5, 5], {"q1": 1}) + 7 * valency_class([7], {"q1": 2})
        assert rel.rhs == expected

    def test_order_zero_label_counts_trivalent_slots(self):
        rel = merge_relation(1, ["p", "p2"], {"q": 0})
        assert rel.lhs == 2 * kappa(0)
        assert rel.rhs == TautPoly.constant(4)

    def test_label_names_do_not_matter(self):
        a = merge_relation(3, ["p"], {"q1": 1, "q2": 2})
        b = merge_relation(3, ["p"], {"zz": 2, "a0": 1})
        assert a == b

    def test_sides_homogeneous_of_equal_weight(self):
        cases = [
            ({"q1": 1, "q2": 1}, ()),
            ({"q1": 1, "q2": 1}, ("q1",)),
            ({"q1": 1, "q2": 2, "q3": 1}, ("q2", "q3")),
            ({"q1": 2, "q2": 2}, ("q1", "q2")),
        ]
        for rho, kept in cases:
            rel = merge_relation(4, ["p"], rho, kept=kept)
            assert rel.lhs.is_homogeneous() and rel.rhs.is_homogeneous()
            assert rel.lhs.weights() == rel.rhs.weights()

    def test_substituting_solved_loci_closes_the_relation(self):
        rel = merge_relation(2, ["p"], {"q1": 1, "q2": 1})
        mapping = {
            gen_of(valency_class([5, 5])): kappa_polynomial(Profile([0, 2]), 2, 1),
            gen_of(valency_class([7])): kappa_polynomial(Profile([0, 0, 1]), 2, 1),
        }
        assert map_generators(rel.rhs, mapping) == rel.lhs

    def test_three_labels_against_solver(self):
        rho = {"a": 1, "b": 1, "c": 1}
        rel = merge_relation(3, ["p"], rho)
        mapping = {
            gen_of(valency_class([5, 5, 5])): kappa_polynomial(Profile([0, 3]), 3, 1),
            gen_of(valency_class([5, 7])): kappa_polynomial(Profile([0, 1, 1]), 3, 1),
            gen_of(valency_class([9])): kappa_polynomial(Profile([0, 0, 0, 1]), 3, 1),
        }
        assert map_generators(rel.rhs, mapping) == rel.lhs

    def test_guards(self):
        with pytest.raises(InconsistentProfile):
            merge_relation(0, ["p"], {"q": 1})
        with pytest.raises(InconsistentProfile):
            merge_relation(1, ["p"], {f"q{i}": 0 for i in range(5)})
        with pytest.raises(InconsistentProfile):
            merge_relation(2, [], {"q": 1})
        with pytest.raises(DomainMismatch):
            merge_relation(2, ["p"], {"q": 1}, kept=["other"])
        with pytest.raises(DomainMismatch):
            merge_relation(2, ["q"], {"q": 1})
        with pytest.raises(DomainMismatch):
            merge_relation(2, ["p", "p"], {"q": 1})


class TestKappaPolynomial:
    GOLDEN = {
        (0, 1): "12*k1",
        (0, 0, 1): "120*k2",
        (0, 0, 0, 1): "1680*k3",
        (0, 2): "72*k1^2 - 348*k2",
        (0, 1, 1): "1440*k1*k2 - 13680*k3",
        (0, 3): "288*k1^3 - 4176*k1*k2 + 20736*k3",
        (0, 0, 2): "7200*k2^2 - 159120*k4",
        (0, 1, 0, 1): "20160*k1*k3 - 312480*k4",
    }

    def test_golden_values(self):
        for m, text in self.GOLDEN.items():
            prof = Profile(m)
            g = (prof.weight() + 5) // 4
            assert kappa_polynomial(prof, g, 1) == TautPoly.parse(text)

    def test_trivial_profile(self):
        assert kappa_polynomial(Profile([]), 1, 1) == ONE
        assert kappa_polynomial(Profile([6]), 2, 1) == ONE

    def test_independent_of_g_and_n(self):
        prof = Profile([0, 3])
        a = kappa_polynomial(prof, 3, 1)
        assert a == kappa_polynomial(prof, 2, 3)
        assert a == kappa_polynomial(Profile([1, 3]), 3, 1)
        assert a == kappa_polynomial(prof, 5, 4)

    def test_homogeneous(self):
        for w in range(1, 5):
            for tail in tails_with_weight(w):
                prof = Profile([0] + list(tail))
                g = (prof.weight() + 5) // 4
                poly = kappa_polynomial(prof, g, 1)
                assert poly.weights() == {w}

    def test_leading_coefficient_law(self):
        for w in range(1, 5):
            for tail in tails_with_weight(w):
                prof = Profile([0] + list(tail))
                g = (prof.weight() + 5) // 4
                poly = kappa_polynomial(prof, g, 1)
                lead_poly = ONE
                for i, mi in enumerate(tail, start=1):
                    lead_poly = lead_poly * kappa(i) ** mi
                ((lead, _),) = lead_poly.terms().items()
                expect = Fraction(1)
                from math import factorial

                for i, mi in enumerate(tail, start=1):
                    if mi:
                        expect *= Fraction(
                            (2 ** (i + 1) * double_factorial(2 * i + 1)) ** mi,
                            factorial(mi),
                        )
                assert poly.terms()[lead] == expect

    def test_rejects_inconsistent(self):
        with pytest.raises(InconsistentProfile):
            kappa_polynomial(Profile([0, 1]), 0, 3)
        with pytest.raises(InconsistentProfile):
            kappa_polynomial(Profile([2, 1]), 2, 1)
        with pytest.raises(InconsistentProfile):
            kappa_polynomial(Profile([0, 1]), 0, 1)
        with pytest.raises(InconsistentProfile):
            kappa_polynomial(Profile([0, 1]), 2, 0)


def solve_by_set_partitions(tail, memo):
    """Oracle: the solver walking all Bell(m) labelled set partitions."""
    if tail in memo:
        return memo[tail]
    rho = {}
    for i, mi in enumerate(tail, start=1):
        for _ in range(mi):
            rho[f"v{len(rho) + 1}"] = i
    rho = RhoAssignment(rho)
    labels = rho.labels()
    scale = 1
    for q in labels:
        scale *= 2 ** (rho.value(q) + 1) * double_factorial(2 * rho.value(q) + 1)
    acc = scale * kappa_cycle_sum([rho.value(q) for q in labels])
    for M in all_partitions(labels):
        if M.is_discrete():
            continue
        merged = Counter(sum(rho.value(q) for q in b) for b in M.blocks)
        sub_tail = tuple(merged.get(i, 0) for i in range(1, max(merged) + 1))
        mult = 1
        for cnt in merged.values():
            mult *= factorial(cnt)
        acc = acc - mult * partition_coefficient(rho, M) * solve_by_set_partitions(sub_tail, memo)
    denom = 1
    for mi in tail:
        denom *= factorial(mi)
    memo[tail] = acc * Fraction(1, denom)
    return memo[tail]


class TestSolver:
    def test_matches_the_set_partition_walk(self):
        memo = {}
        for w in range(9):
            for tail in tails_with_weight(w) if w else [()]:
                want = solve_by_set_partitions(tail, memo)
                combclasses._SOLVED.clear()
                assert combclasses._solve(tail) == want, tail

    def test_product_rule_up_to_ten_vertices(self):
        # the pure kappa monomial of m_1 = k five-valent vertices is 12^k/k! k1^k
        for k in range(1, 11):
            poly = kappa_polynomial(Profile([0, k]), (3 * k + 5) // 4, 1)
            ((lead, _),) = (kappa(1) ** k).terms().items()
            assert poly.terms()[lead] == Fraction(12**k, factorial(k))
            assert poly.weights() == {k}


class TestTwoVertexCheck:
    def test_golden_formulas(self):
        assert two_vertex_check(1, 1).formula == TautPoly.parse("72*k1^2 - 348*k2")
        assert two_vertex_check(1, 2).formula == TautPoly.parse("1440*k1*k2 - 13680*k3")
        assert two_vertex_check(2, 2).formula == TautPoly.parse("7200*k2^2 - 159120*k4")

    def test_agreement(self):
        for a in range(1, 7):
            for b in range(1, 7):
                chk = two_vertex_check(a, b)
                assert chk.agree and chk.solved == chk.formula, (a, b)

    def test_symmetry(self):
        assert two_vertex_check(1, 2).formula == two_vertex_check(2, 1).formula

    def test_guards(self):
        with pytest.raises(DomainMismatch):
            two_vertex_check(0, 1)


class TestAmbientDefaults:
    def test_surface_always_fits_the_profile(self):
        for prof in ([0, 1], [0, 3], [1, 1], [2], [1, 0, 1], [0, 0, 0, 1]):
            g, n = ambient_surface(prof)
            assert 4 * g - 4 + 2 * n > 0
            kappa_polynomial(prof, g, n)

    def test_declared_trivalent_count_pins_the_weight(self):
        assert ambient_surface([2]) == (1, 1)
        assert ambient_surface([1, 1]) == (1, 2)

    def test_odd_declared_weight_is_unrealizable(self):
        with pytest.raises(InconsistentProfile):
            ambient_surface([1])

    def test_genus_is_minimal_for_the_relation(self):
        rho = {"q1": 1, "q2": 1}
        g = ambient_genus(rho)
        assert g == 2
        merge_relation(g, ["p"], rho)
        with pytest.raises(InconsistentProfile):
            merge_relation(g - 1, ["p"], rho)

    def test_order_zero_labels_need_spare_trivalent_slots(self):
        assert ambient_genus({"q": 0}) == 1
        merge_relation(1, ["p"], {"q": 0})
