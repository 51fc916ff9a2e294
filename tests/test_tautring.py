from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ribboncalc.tautring as tt
from ribboncalc.errors import DomainMismatch
from ribboncalc.tautring import (
    ONE,
    ZERO,
    TautPoly,
    kappa,
    kappa_cycle_sum,
    psi,
    symbol,
)

GENS = [kappa(0), kappa(1), kappa(2), psi("p1"), psi("p2")]


@st.composite
def polys(draw, symbols=False):
    # symbols=True sprinkles in at most one opaque symbol per term, since
    # the ring rejects symbol products.
    n_terms = draw(st.integers(0, 4))
    out = ZERO
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        term = TautPoly.constant(coeff)
        for _ in range(draw(st.integers(0, 3))):
            term = term * draw(st.sampled_from(GENS))
        if symbols and draw(st.booleans()):
            term = term * symbol("D", 2)
        out = out + term
    return out


class TestRing:
    def test_no_zero_terms_stored(self):
        p = kappa(1) - kappa(1)
        assert p.is_zero()
        assert p.terms() == {}

    def test_scalar_coercion(self):
        assert kappa(0) * 0 == ZERO
        assert 2 + psi("q") - 2 == psi("q")
        assert (1 - ONE).is_zero()

    def test_power(self):
        assert psi("q") ** 0 == 1
        assert (kappa(1) + 1) ** 2 == kappa(1) ** 2 + 2 * kappa(1) + 1
        with pytest.raises(DomainMismatch):
            kappa(1) ** -1

    def test_symbols_stay_linear(self):
        d, e = symbol("D", 2), symbol("E", 1)
        assert d * kappa(1) * 3 + d == d * (3 * kappa(1) + 1)
        for blowup in (
            lambda: d * d,
            lambda: d**2,
            lambda: d * e,
            lambda: (d + kappa(1)) * (e + 1) * e,
            lambda: TautPoly.parse("[D|2]^2"),
            lambda: TautPoly.parse("[D|2]*[E|1]"),
        ):
            with pytest.raises(DomainMismatch):
                blowup()

    def test_homogeneous_parts(self):
        p = kappa(2) + 3 * psi("q") * kappa(1) + 5
        assert p.homogeneous_part(2) == kappa(2) + 3 * psi("q") * kappa(1)
        assert p.homogeneous_part(0) == 5
        assert p.homogeneous_part(1).is_zero()
        assert not p.is_homogeneous()
        assert p.weights() == {0, 2}

    @settings(max_examples=50)
    @given(polys(), polys(), polys())
    def test_algebra_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


class TestTextForm:
    def test_golden_ordering(self):
        p = 288 * kappa(1) ** 3 - 4176 * kappa(1) * kappa(2) + 20736 * kappa(3)
        assert p.text() == "288*k1^3 - 4176*k1*k2 + 20736*k3"

    def test_mixed_generators(self):
        p = psi("q") * kappa(1) - Fraction(1, 2) * symbol("N", 2)
        assert p.text() == "k1*psi(q) - 1/2*[N|2]"
        assert TautPoly.parse(p.text()) == p

    def test_zero_and_constants(self):
        assert ZERO.text() == "0"
        assert TautPoly.constant(Fraction(-7, 3)).text() == "-7/3"
        assert TautPoly.parse("-7/3") == TautPoly.constant(Fraction(-7, 3))

    def test_parse_errors(self):
        for bad in ["", "k1 +", "q^2", "k1**2", "[odd"]:
            with pytest.raises(DomainMismatch):
                TautPoly.parse(bad)

    def test_symbol_name_guard(self):
        with pytest.raises(DomainMismatch):
            symbol("a+b", 1)

    @settings(max_examples=50)
    @given(polys(symbols=True))
    def test_order_is_weight_then_the_dense_exponent_vector(self, p):
        gens = sorted({g for m in p.terms() for g, _ in m})

        def dense(mono):
            exps = dict(mono)
            return tt._mono_weight(mono), tuple(exps.get(g, 0) for g in gens)

        assert p._sorted_monomials() == sorted(p.terms(), key=dense, reverse=True)

    @settings(max_examples=50)
    @given(polys(symbols=True))
    def test_round_trips(self, p):
        assert TautPoly.parse(p.text()) == p
        assert TautPoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize("exp", [-1, 0, 1.0, "1", True])
    def test_from_json_refuses_a_nonpositive_or_non_integer_exponent(self, exp):
        data = [
            {"coeff": "1/1", "monomial": [{"kind": "kappa", "index": 2, "exp": 1}]},
            {
                "coeff": "1/1",
                "monomial": [
                    {"kind": "kappa", "index": 1, "exp": exp},
                    {"kind": "kappa", "index": 3, "exp": 1},
                ],
            },
        ]
        with pytest.raises(DomainMismatch, match="not a positive integer"):
            TautPoly.from_json(data)
        data[1]["monomial"][0]["exp"] = 2
        assert TautPoly.from_json(data) == kappa(2) + kappa(1) ** 2 * kappa(3)


class TestFaber:
    """Closed forms of Faber's K(b_1, ..., b_m) for one, two and three points."""

    def test_single_point_formula(self):
        for b in range(7):
            assert kappa_cycle_sum([b]) == kappa(b)

    def test_two_points(self):
        for a in range(3):
            for b in range(3):
                got = kappa_cycle_sum([a, b])
                assert got == kappa(a) * kappa(b) + kappa(a + b)

    def test_three_points(self):
        want = kappa(1) ** 3 + 3 * kappa(1) * kappa(2) + 2 * kappa(3)
        assert kappa_cycle_sum([1, 1, 1]) == want

    def test_kappa_cycle_sum_small(self):
        assert kappa_cycle_sum([]) == 1
        assert kappa_cycle_sum([2]) == kappa(2)
        assert kappa_cycle_sum([1, 1]) == kappa(1) ** 2 + kappa(2)


def cycle_sum_by_permutations(values):
    """Oracle: walk all m! permutations, one kappa factor per cycle."""
    m = len(values)
    tally = Counter()
    for sigma in permutations(range(m)):
        seen = [False] * m
        sums = []
        for start in range(m):
            if seen[start]:
                continue
            acc = 0
            j = start
            while not seen[j]:
                seen[j] = True
                acc += values[j]
                j = sigma[j]
            sums.append(acc)
        tally[tuple(sorted(sums))] += 1
    total = ZERO
    for sums, count in tally.items():
        term = TautPoly.constant(count)
        for s in sums:
            term = term * kappa(s)
        total = total + term
    return total


def integer_partitions(m, top=None):
    """Partitions of m as descending tuples."""
    top = m if top is None else top
    if m == 0:
        yield ()
        return
    for part in range(min(m, top), 0, -1):
        for rest in integer_partitions(m - part, part):
            yield (part,) + rest


class TestCycleSum:
    def test_matches_the_permutation_walk(self):
        for m in range(7):
            for values in combinations_with_replacement(range(4), m):
                want = cycle_sum_by_permutations(list(values))
                assert kappa_cycle_sum(list(values)) == want, values
                assert kappa_cycle_sum(list(reversed(values))) == want, values
        values = [1, 2, 3, 4, 5, 6, 7]
        assert kappa_cycle_sum(values) == cycle_sum_by_permutations(values)

    @pytest.mark.parametrize("b", [1, 2])
    def test_equal_values_give_class_sizes(self, b):
        # sigma in S_m of cycle type lambda contributes prod kappa(b*lambda_i),
        # and the class of cycle type lambda has m!/z_lambda elements
        for m in range(1, 13):
            got = kappa_cycle_sum([b] * m)
            want = {}
            for lam in integer_partitions(m):
                z = 1
                for part, mult in Counter(lam).items():
                    z *= part**mult * factorial(mult)
                term = ONE
                for part in lam:
                    term = term * kappa(b * part)
                ((mono, _),) = term.terms().items()
                want[mono] = Fraction(factorial(m), z)
            assert got.terms() == want, m

    def test_ten_distinct_values(self):
        values = list(range(1, 11))
        terms = kappa_cycle_sum(values).terms()
        ((top, _),) = kappa(sum(values)).terms().items()
        assert sum(terms.values()) == factorial(10)
        assert terms[top] == factorial(9)

    def test_recursion_stays_off_the_public_name(self, monkeypatch):
        calls = []
        public = tt.kappa_cycle_sum

        def counted(values):
            calls.append(values)
            return public(values)

        monkeypatch.setattr(tt, "kappa_cycle_sum", counted)
        tt.kappa_cycle_sum([1, 2, 3, 4])
        assert len(calls) == 1
