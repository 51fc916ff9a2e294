from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribboncalc import permutations as perms
from ribboncalc.combclasses import merge_coefficient
from ribboncalc.tautring import _cycle_orders, kappa_cycle_sum
from ribboncalc.ribbon import validate


def any_graph(data, max_edges=6):
    """Draw a ribbon graph, connected or not, from a hypothesis data object."""
    n = 2 * data.draw(st.integers(1, max_edges), label="edges")
    one_line = data.draw(st.permutations(range(1, n + 1)), label="sigma0")
    s0 = {i + 1: one_line[i] for i in range(n)}
    shuffled = data.draw(st.permutations(range(1, n + 1)), label="matching")
    s1 = {}
    for i in range(0, n, 2):
        a, b = shuffled[i], shuffled[i + 1]
        s1[a], s1[b] = b, a
    return validate(s0, s1)


class TestBlocks:
    @settings(max_examples=80)
    @given(st.data())
    def test_agrees_with_graph_components(self, data):
        g = any_graph(data)
        links = [(x, g.sigma0[x]) for x in g.sides] + [(x, g.sigma1[x]) for x in g.sides]
        assert perms.blocks(g.sides, links) == g.components()

    def test_isolated_items_are_singletons(self):
        assert perms.blocks([1, 2, 3, 4], [(2, 3)]) == [
            frozenset({1}),
            frozenset({2, 3}),
            frozenset({4}),
        ]

    def test_no_links(self):
        assert perms.blocks("abc", []) == [frozenset("a"), frozenset("b"), frozenset("c")]
        assert perms.blocks([], []) == []

    def test_self_links(self):
        assert perms.blocks([1, 2], [(1, 1), (2, 2)]) == [frozenset({1}), frozenset({2})]
        assert perms.blocks([1, 2], [(1, 1), (1, 2), (2, 2)]) == [frozenset({1, 2})]

    def test_blocks_come_in_order_of_their_first_item(self):
        assert perms.blocks([5, 3, 1, 4], [(1, 5), (3, 4)]) == [
            frozenset({1, 5}),
            frozenset({3, 4}),
        ]


def partition_sums_per_call(values, block_weight):
    """Oracle: the partition-sum recursion with a memo that lives for one call."""
    memo = {(): {(): 1}}

    def rec(key):
        hit = memo.get(key)
        if hit is not None:
            return hit
        first, rest = key[0], key[1:]
        out = {}
        for inside, outside, ways in perms._sub_multisets(rest):
            block = first + sum(inside)
            weight = ways * block_weight(block, 1 + len(inside))
            for sums, coeff in rec(outside).items():
                merged = tuple(sorted(sums + (block,)))
                out[merged] = out.get(merged, 0) + weight * coeff
        memo[key] = out
        return out

    return rec(tuple(sorted(values, reverse=True)))


MU = (1, 1, 2, 3, 5)
SUBS = sorted({c for r in range(len(MU) + 1) for c in combinations(MU, r)})
WEIGHTS = (_cycle_orders, merge_coefficient)


class TestPartitionSums:
    @pytest.mark.parametrize("weight", WEIGHTS, ids=lambda w: w.__name__)
    def test_cold_table_matches_per_call_recursion(self, weight):
        for sub in SUBS:
            perms._partition_table.cache_clear()
            assert perms._partition_sums(sub, weight) == partition_sums_per_call(sub, weight), sub

    @pytest.mark.parametrize("weight", WEIGHTS, ids=lambda w: w.__name__)
    def test_table_warmed_by_a_superset(self, weight):
        perms._partition_sums(MU, weight)
        for sub in SUBS:
            # ascending input reaches the same descending key
            assert perms._partition_sums(sub, weight) == partition_sums_per_call(sub, weight), sub

    @pytest.mark.parametrize("weight,other", [WEIGHTS, WEIGHTS[::-1]], ids=["cycles", "merges"])
    def test_table_warmed_by_the_other_weight(self, weight, other):
        for sub in SUBS:
            perms._partition_sums(sub, other)
        for sub in SUBS:
            assert perms._partition_sums(sub, weight) == partition_sums_per_call(sub, weight), sub

    def test_callers_cannot_change_the_table(self):
        sums = perms._partition_sums([1, 2], _cycle_orders)
        with pytest.raises(TypeError):
            sums[(3,)] = 99
        assert kappa_cycle_sum([2, 1]) == kappa_cycle_sum([1]) * kappa_cycle_sum([2]) + kappa_cycle_sum([3])

    def test_repeated_cycle_sum_adds_no_miss(self):
        first = kappa_cycle_sum([3, 1, 2, 1, 5])
        misses = perms._partition_table.cache_info().misses
        assert kappa_cycle_sum([1, 1, 2, 3, 5]) == first
        assert perms._partition_table.cache_info().misses == misses
