import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ribboncalc import combclasses
from ribboncalc.combclasses import (
    ambient_genus,
    ambient_surface,
    delta_class,
    double_factorial,
    kappa_polynomial,
    merge_coefficient,
    merge_relation,
    node_class,
    one_vertex_relation,
    tails_class,
    two_vertex_check,
    valency_class,
)
from ribboncalc.enumeration import Profile
from ribboncalc.errors import DomainMismatch, EvenInput, InconsistentProfile, TooLarge
from ribboncalc.tautring import (
    ONE,
    TautPoly,
    kappa,
    kappa_cycle_sum,
    map_generators,
    psi,
    symbol,
)

BELL = [1, 1, 2, 5, 15, 52]


def set_partitions(labels):
    """Oracle: every partition of the labels (Bell-number many), each block
    sorted and the blocks sorted by their sorted label lists."""
    items = sorted({str(x) for x in labels})

    def rec(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for sub in rec(tail):
            yield [[first]] + sub
            for k in range(len(sub)):
                yield sub[:k] + [sub[k] + [first]] + sub[k + 1:]

    for raw in rec(items):
        yield sorted(sorted(b) for b in raw)


def block_coefficient(rho, blocks):
    """Product of merge coefficients over the blocks; 1 on the discrete partition."""
    out = 1
    for b in blocks:
        out *= merge_coefficient(sum(rho[q] for q in b), len(b))
    return out


def merge_relation_by_set_partitions(g, P, rho, kept=()):
    """Oracle: the merging relation walking all Bell(m) labelled partitions."""
    clean = {}
    for q, v in dict(rho).items():
        if int(v) < 0:
            raise DomainMismatch("negative marking orders are not supported")
        clean[str(q)] = int(v)
    rho = clean
    holes = [str(p) for p in P]
    if not holes:
        raise InconsistentProfile("need at least one hole")
    if len(set(holes)) != len(holes):
        raise DomainMismatch("duplicate hole labels")
    labels = set(rho)
    if labels & set(holes):
        raise DomainMismatch("marking labels collide with hole labels")
    kept = {str(x) for x in kept}
    if not kept <= labels:
        raise DomainMismatch("kept labels must be marked")

    total = 4 * g - 4 + 2 * len(holes)
    spent = sum(2 * v + 1 for v in rho.values())
    if total - spent < sum(1 for v in rho.values() if v == 0):
        raise InconsistentProfile(
            f"profile needs {spent} of 4g-4+2n = {total} plus a trivalent slot per order-0 label"
        )
    lhs = TautPoly.constant(1)
    for v in rho.values():
        lhs = lhs * (2 ** (v + 1) * double_factorial(2 * v + 1))
    for q in sorted(kept):
        lhs = lhs * psi(q) ** (rho[q] + 1)
    lhs = lhs * kappa_cycle_sum([rho[q] for q in sorted(labels - kept)])

    rhs = TautPoly()
    loci = Counter()  # (valencies, marked orders) -> coefficient
    for blocks in set_partitions(labels):
        if kept == labels:
            if len(blocks) == len(labels):
                rhs = rhs + valency_class([2 * v + 3 for v in rho.values()], rho)
            else:
                name = "/".join(".".join(b) + "=" + str(sum(rho[q] for q in b)) for b in blocks)
                tails = symbol("tails;" + name, sum(v + 1 for v in rho.values()))
                rhs = rhs + block_coefficient(rho, blocks) * tails
            continue
        if any(len(kept.intersection(b)) > 1 for b in blocks):
            continue
        block_sum = {q: sum(rho[x] for x in b) for b in blocks for q in b}
        merged = Counter(sum(rho[q] for q in b) for b in blocks)
        tau = {q: block_sum[q] for q in kept}
        held = Counter(tau.values())
        # forgetting the unkept labels: (m0 - held_0)! / (m0 - merged_0)! on the
        # trivalent slots, and (m_i - held_i)! on each larger valency
        m0 = total - sum((2 * i + 1) * cnt for i, cnt in merged.items() if i >= 1)
        mult = factorial(m0 - held[0]) // factorial(m0 - merged[0])
        for i, cnt in merged.items():
            if i >= 1:
                mult *= factorial(cnt - held[i])
        vals = [2 * i + 3 for i, cnt in merged.items() if i >= 1 for _ in range(cnt)]
        vals += [3] * held[0]
        loci[tuple(sorted(vals)), tuple(sorted(tau.items()))] += mult * block_coefficient(rho, blocks)
    for (vals, tau), c in loci.items():
        rhs = rhs + c * valency_class(vals, dict(tau))
    return combclasses.Relation(lhs, rhs)


def gen_of(sym_poly):
    """The single generator tuple of a one-symbol polynomial."""
    ((mono, _),) = sym_poly.terms().items()
    ((gen, exp),) = mono
    assert exp == 1
    return gen


def coefficient(poly, sym_poly):
    """The coefficient in ``poly`` of the one-term polynomial ``sym_poly``."""
    ((mono, _),) = sym_poly.terms().items()
    return poly.terms().get(mono, 0)


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
        # an all-kept relation weights each partition by the product of its
        # blocks' merge coefficients, 1 on the discrete one
        rho = {"q1": 1, "q2": 1, "q3": 1}
        rel = merge_relation(3, ["p"], rho, kept=rho)
        assert coefficient(rel.rhs, valency_class([5, 5, 5], rho)) == 1
        assert coefficient(rel.rhs, tails_class([["q1", "q2"], ["q3"]], rho)) == 7
        assert coefficient(rel.rhs, tails_class([["q1", "q2", "q3"]], rho)) == 99


class TestPartitions:
    def test_bell_counts(self):
        # an all-kept relation has one term per labelled partition
        for n in range(6):
            rho = {f"x{i}": 1 for i in range(n)}
            rel = merge_relation(ambient_genus(rho), ["p"], rho, kept=rho)
            assert len(rel.rhs.terms()) == BELL[n]

    def test_every_partition_covers(self):
        labels = ["a", "b", "c", "d"]
        seen = set()
        for blocks in combclasses._set_partitions(labels):
            assert sorted(q for b in blocks for q in b) == labels
            seen.add(frozenset(frozenset(b) for b in blocks))
        assert len(seen) == BELL[4]

    def test_validation(self):
        rho = {"a": 1, "b": 0}
        for bad in ([["a"], ["a", "b"]], [["a", "b"], []], [["a"]]):
            with pytest.raises(DomainMismatch):
                tails_class(bad, rho)

    def test_rho_assignment(self):
        # labels are read as strings and orders as integers
        a = merge_relation(3, ["p"], {2: "1", 1: 3}, kept=[2])
        assert a == merge_relation(3, ["p"], {"2": 1, "1": 3}, kept=["2"])
        for call in (
            lambda: merge_relation(2, ["p"], {"q": -1}),
            lambda: merge_relation(2, ["p"], {"q1": 1, "q2": -2}, kept=["q1"]),
            lambda: ambient_genus({"q": -1}),
        ):
            with pytest.raises(DomainMismatch, match="negative marking orders are not supported"):
                call()


class TestForgetMultiplicity:
    # the fiber count of forgetting the unkept labels, read off merge_relation
    def test_discrete_nothing_kept(self):
        # two order-1 labels: the profile factor 2! survives
        rel = merge_relation(2, ["p"], {"q1": 1, "q2": 1})
        assert coefficient(rel.rhs, valency_class([5, 5])) == 2

    def test_merged_pair(self):
        # one fiber, times the merge coefficient 7
        rel = merge_relation(2, ["p"], {"q1": 1, "q2": 1})
        assert coefficient(rel.rhs, valency_class([7])) == 7

    def test_everything_kept_cancels(self):
        rho = {"q1": 1, "q2": 1}
        rel = merge_relation(2, ["p"], rho, kept=("q1", "q2"))
        assert coefficient(rel.rhs, valency_class([5, 5], rho)) == 1

    def test_trivalent_marking_counts_slots(self):
        # one order-0 label on the 4 trivalent vertices of (1, 2)
        assert merge_relation(1, ["p", "p2"], {"q": 0}).rhs == TautPoly.constant(4)

    def test_mixed_profile_factor(self):
        # profile [1, 2, 1] on (3, 2): the two 5-valent vertices give 2!
        rel = merge_relation(3, ["p", "p2"], {"a": 1, "b": 1, "c": 2})
        assert coefficient(rel.rhs, valency_class([7, 5, 5])) == 2


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
        assert tails_class([["q2", "q1"], ["q3"]], rho).text() == "[tails;q1.q2=2/q3=0|5]"
        assert tails_class([["q3"], ["q1", "q2"]], rho) == tails_class([["q1", "q2"], ["q3"]], rho)
        with pytest.raises(DomainMismatch):
            tails_class([["q1"]], rho)

    def test_tails_blocks_sort_by_label_lists(self):
        # "a" < "a!" as labels, but "a!" < "a.b" as joined strings
        rho = {"a": 1, "b": 0, "a!": 2}
        assert tails_class([["a!"], ["b", "a"]], rho).text() == "[tails;a.b=1/a!=2|6]"

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
        expected = valency_class([5, 5], {"q1": 1, "q2": 1}) + 7 * tails_class(
            [["q1", "q2"]], {"q1": 1, "q2": 1}
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

    def test_keeping_every_label_is_bounded_before_any_walk(self, monkeypatch):
        def walk(items):
            raise AssertionError("the partitions were walked")

        monkeypatch.setattr(combclasses, "_set_partitions", walk)
        top = combclasses.MAX_KEPT_LABELS
        assert top == 10
        rho = {f"q{i}": 1 for i in range(1, top + 2)}
        with pytest.raises(TooLarge):
            merge_relation(ambient_genus(rho), ["p"], rho, kept=list(rho))
        # forgetting one label sums by value and never walks the partitions
        rel = merge_relation(ambient_genus(rho), ["p"], rho, kept=list(rho)[1:])
        assert not rel.rhs.is_zero()

    def test_everything_kept_has_one_term_per_partition(self):
        rho = {f"q{i}": 1 for i in range(1, 7)}
        rel = merge_relation(ambient_genus(rho), ["p"], rho, kept=list(rho))
        assert len(rel.rhs.terms()) == 203  # Bell(6)


def _outcome(call):
    """What a relation call gives, as text, JSON and error type and message."""
    try:
        rel = call()
    except Exception as err:  # the error itself is compared
        return type(err).__name__, str(err)
    return rel.lhs, rel.rhs, rel.lhs.text(), rel.rhs.text(), rel.lhs.to_json(), rel.rhs.to_json()


# the second naming has labels whose string order differs from the order of
# the tails blocks they form ("a" < "a!" but "a!" < "a.b"); up to four labels
NAMINGS = [(["q1", "q2", "q3", "q4", "q5"], 5), (["a", "a!", "b", "a!!"], 4)]
CASES = [(i, size) for i, (_, top) in enumerate(NAMINGS) for size in range(top + 1)]


class TestMergeRelationAgainstSetPartitions:
    def test_oracle_counts_bell_partitions(self):
        for n in range(6):
            assert sum(1 for _ in set_partitions(f"x{i}" for i in range(n))) == BELL[n]

    @pytest.mark.parametrize("naming,size", CASES)
    def test_every_small_relation_matches(self, naming, size):
        # every multiset of orders 0..3 on `size` labels, every kept subset,
        # one and two holes, and the genera around the least one
        names = NAMINGS[naming][0][:size]
        for orders in combinations_with_replacement(range(4), size):
            rho = dict(zip(names, orders))
            for r in range(size + 1):
                for kept in combinations(sorted(rho), r):
                    for holes in (["p"], ["p", "p2"]):
                        g = ambient_genus(rho, len(holes))
                        for genus in (g - 1, g, g + 1):
                            args = (genus, holes, rho, kept)
                            want = _outcome(lambda: merge_relation_by_set_partitions(*args))
                            assert _outcome(lambda: merge_relation(*args)) == want, args

    def test_odd_inputs_match(self):
        cases = [
            (2, ["p"], {"q": -1}, ()),
            (2, ["p"], {1: 1, 2: 1}, ("1",)),
            (2, ["p"], {"q": 1}, ("r",)),
            (2, ["q"], {"q": 1}, ()),
            (2, [], {"q": 1}, ()),
            (2, ["p", "p"], {"q": 1}, ()),
            (3, ["p"], {}, ()),
        ]
        for args in cases:
            want = _outcome(lambda: merge_relation_by_set_partitions(*args))
            assert _outcome(lambda: merge_relation(*args)) == want, args

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_solved_loci_close_the_relation_beyond_the_walk(self, k):
        # the Bell walk takes 0.03-0.7 s here; the relation must still close
        rho = {f"q{i}": 1 for i in range(k)}
        rel = merge_relation(ambient_genus(rho), ["p"], rho)
        mapping = {}
        for mono in rel.rhs.terms():
            ((gen, _),) = mono
            vals = [int(v) for v in gen[1].removeprefix("locus_").split(",")]
            prof = Profile.from_valencies(vals)
            mapping[gen] = kappa_polynomial(prof, (prof.weight() + 5) // 4, 1)
        assert len(mapping) == len(rel.rhs.terms()) > 1
        assert map_generators(rel.rhs, mapping) == rel.lhs


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
    labels = sorted(rho)
    scale = 1
    for q in labels:
        scale *= 2 ** (rho[q] + 1) * double_factorial(2 * rho[q] + 1)
    acc = scale * kappa_cycle_sum([rho[q] for q in labels])
    for blocks in set_partitions(labels):
        if len(blocks) == len(labels):
            continue
        merged = Counter(sum(rho[q] for q in b) for b in blocks)
        sub_tail = tuple(merged.get(i, 0) for i in range(1, max(merged) + 1))
        mult = 1
        for cnt in merged.values():
            mult *= factorial(cnt)
        acc = acc - mult * block_coefficient(rho, blocks) * solve_by_set_partitions(sub_tail, memo)
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
                combclasses._solve.cache_clear()
                assert combclasses._solve(tail) == want, tail

    def test_product_rule_up_to_ten_vertices(self):
        # the pure kappa monomial of m_1 = k five-valent vertices is 12^k/k! k1^k
        for k in range(1, 11):
            poly = kappa_polynomial(Profile([0, k]), (3 * k + 5) // 4, 1)
            ((lead, _),) = (kappa(1) ** k).terms().items()
            assert poly.terms()[lead] == Fraction(12**k, factorial(k))
            assert poly.weights() == {k}


class TestKappaDigest:
    def test_outputs_beyond_the_set_partition_walk(self):
        """A differential guard past the oracle's weight 8: three kappa
        polynomials, a nine-value cycle sum and two partly kept relations,
        hashed as text and JSON.  The digest was recorded before the solver
        accumulated integers over a shared partition-sum table.
        """
        digest = hashlib.sha256()
        for m in ([0, 12], [0, 4, 3, 2], [0, 3, 2]):
            prof = Profile(m)
            g, n = ambient_surface(prof)
            digest.update(kappa_polynomial(prof, g, n).text().encode())
        digest.update(kappa_cycle_sum(range(1, 10)).text().encode())
        for orders, kept in (([1, 2, 1, 1, 1], ["q1"]), ([1] * 5, ["q1", "q2"])):
            rho = {f"q{i + 1}": r for i, r in enumerate(orders)}
            rel = merge_relation(ambient_genus(rho), ["p"], rho, kept=kept)
            blob = {"lhs": rel.lhs.to_json(), "rhs": rel.rhs.to_json()}
            digest.update(json.dumps(blob, sort_keys=True).encode())
        assert digest.hexdigest() == (
            "de400d2c07d38af3b4c16af6f6f259d92b81a754056a2a5aebefe1f7b320ff0e"
        )


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
