import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribboncalc.clusters import (
    _case_counts,
    closed_count,
    count_admissible,
    count_by_recurrence,
)
from ribboncalc.combclasses import merge_coefficient
from ribboncalc.errors import DomainMismatch, TooLarge
from ribboncalc.ribbon import MarkedMetricGraph


class TestSpec:
    """A cluster is specified by its excess values rho; every census checks them."""

    CENSUSES = [count_admissible, count_by_recurrence, closed_count]

    def test_accepts_plain_values(self):
        assert [census([0, 2, 1]) for census in self.CENSUSES] == [99, 99, 99]

    def test_leading_loop_value_allowed(self):
        assert count_admissible([-1, 2]) == count_by_recurrence((-1, 2)) == 5

    def test_rejects_empty(self):
        for census in self.CENSUSES:
            with pytest.raises(DomainMismatch, match="^a cluster holds at least one hole$"):
                census([])

    @pytest.mark.parametrize("rho", [[-2, 1], [0, -1], [1, 0, -1]])
    def test_rejects_bad_excess(self, rho):
        for census in self.CENSUSES:
            with pytest.raises(DomainMismatch, match=r"^bad excess values \("):
                census(rho)

    def test_equality(self):
        # lists, tuples and integer strings name the same cluster
        for census in self.CENSUSES:
            assert census([1, 1]) == census((1, 1)) == census(["1", "1"])
            assert census([1, 1]) != census([1, 2])


class TestBruteForce:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_single_hole_is_unique(self, r):
        assert count_admissible([r]) == 1

    def test_two_holes_smallest(self):
        assert count_admissible([0, 0]) == 3

    @pytest.mark.parametrize("rho", [(0, 1), (1, 0), (1, 1), (0, 2)])
    def test_two_holes_formula(self, rho):
        assert count_admissible(rho) == 2 * sum(rho) + 3

    def test_three_holes_smallest(self):
        assert count_admissible([0, 0, 0]) == 15

    def test_loop_step_counts_too(self):
        # the definition keeps making sense with a -1 up front; these are
        # the recursion's intermediate configurations
        assert count_admissible([-1, 1]) == 3
        assert count_admissible([-1, 2, 1]) == 63

    @pytest.mark.parametrize(
        "rho, want", [((0,), 1), ((0, 0), 3), ((2, 1), 9), ((1, 1, 1), 99)]
    )
    def test_the_chain_collapses_zones_without_metrics(self, monkeypatch, rho, want):
        def refuse(*args, **kwargs):
            raise AssertionError("the shrink chain built a metric graph")

        monkeypatch.setattr(MarkedMetricGraph, "__init__", refuse)
        assert count_admissible(rho) == want

    def test_side_budget_enforced(self):
        with pytest.raises(TooLarge):
            count_admissible([3, 3], max_sides=20)
        with pytest.raises(TooLarge):
            count_admissible([2, 1, 1])  # 34 sides against the default 30


class TestRecurrence:
    @pytest.mark.parametrize("rho", [(0, 0), (3, 2), (0, 7), (4, 4)])
    def test_pair_formula(self, rho):
        assert count_by_recurrence(rho) == 2 * sum(rho) + 3

    @pytest.mark.parametrize("rho", [(0, 0, 0), (-1, 2, 1), (1, 0, 2), (0, 3, 0)])
    def test_triple_formula(self, rho):
        s = sum(rho)
        assert count_by_recurrence(rho) == (2 * s + 3) * (2 * s + 5)

    def test_single_hole(self):
        assert count_by_recurrence([0]) == 1
        assert count_by_recurrence([-1]) == 1

    def test_depends_only_on_first_pair_sum(self):
        for rest in [(), (0,), (1,), (0, 2)]:
            reference = count_by_recurrence((0, 2) + rest)
            assert count_by_recurrence((1, 1) + rest) == reference
            assert count_by_recurrence((2, 0) + rest) == reference

    def test_vertex_case_needs_excess_at_the_shared_slot(self):
        # a shared vertex must absorb excess, so a lone excess-0 third
        # hole kills the case
        for r1, r2 in [(0, 0), (1, 0), (1, 1), (0, 2)]:
            assert _case_counts((r1, r2, 0))[1] == 0
        assert _case_counts((0, 0, 1))[1] > 0

    def test_a_walk_past_the_bound_is_refused(self):
        # t = 9 slots for a first pair (1, 1): 9^5 = 59,049 assignments
        # for seven holes, 9^6 = 531,441 for eight
        assert count_by_recurrence((1,) * 7) == 105306075
        assert count_by_recurrence((-1,) + (1,) * 7) == 15 * 105306075
        for rho in [(1,) * 8, (-1,) + (1,) * 8]:
            with pytest.raises(TooLarge, match="531441 slot assignments"):
                count_by_recurrence(rho)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    def test_matches_closed_form(self, rho):
        expected = merge_coefficient(sum(rho), len(rho))
        assert count_by_recurrence(rho) == expected


class TestThreeWayAgreement:
    @pytest.mark.parametrize(
        "rho",
        [
            rho
            for h in (1, 2, 3)
            for rho in itertools.product(range(3), repeat=h)
            if sum(rho) <= 2
        ],
    )
    def test_small_grid(self, rho):
        brute = count_admissible(rho)
        assert brute == count_by_recurrence(rho)
        assert brute == merge_coefficient(sum(rho), len(rho))

    def test_brute_force_sum_dependence(self):
        # the proof's key symmetry, at the smallest sizes the search can
        # reach: only the sum of the first two excesses matters
        assert count_admissible((0, 2)) == count_admissible((1, 1))
        values = {
            count_admissible((0, 2, 0)),
            count_admissible((1, 1, 0)),
            count_admissible((2, 0, 0)),
        }
        assert len(values) == 1


class TestClosedForm:
    def test_matches_recurrence_on_a_grid(self):
        for h in (1, 2, 3):
            for rho in itertools.product(range(3), repeat=h):
                assert closed_count(rho) == count_by_recurrence(rho)

    def test_negative_total_is_out_of_range(self):
        with pytest.raises(DomainMismatch):
            closed_count([-1])
