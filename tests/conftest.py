import pytest

from ribboncalc import clusters, enumeration
from ribboncalc.ribbon import RibbonGraph


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test without the per-process class and core caches.

    The unlabelled classes and the cluster cores are built once per process
    and kept; a test that counts the work of building them needs them cold.
    """
    enumeration._unlabeled_sorted.cache_clear()
    clusters._cores.cache_clear()


def fresh_copy(graph):
    """The same graph as a new object, with none of its caches filled.

    A graph keeps what it has worked out (orbits, zones, its Pfaffian), so
    a test that counts that work, or patches a routine behind it, needs a
    graph no earlier test has touched.
    """
    return RibbonGraph(dict(graph.sigma0), dict(graph.sigma1), graph.sides)
