from hypothesis import given, settings
from hypothesis import strategies as st

from ribboncalc import permutations as perms
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
