import importlib
import pkgutil

import pytest

import ribboncalc
from ribboncalc.ribbon import HOLE, Marking, RibbonGraph


def _process_caches():
    """Every ``functools.cache`` function defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(ribboncalc.__path__):
        module = importlib.import_module(f"{ribboncalc.__name__}.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                found.append(obj)
    return found


PROCESS_CACHES = _process_caches()


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test without the package's per-process caches.

    The unlabelled classes, the cluster cores, the rooted-map counts, the
    partition-sum table and the solved kappa polynomials are built once per
    process and kept; a test that counts the work of building them needs
    them cold.
    """
    for cached in PROCESS_CACHES:
        cached.cache_clear()


def fresh_copy(graph):
    """The same graph as a new object, with none of its caches filled.

    A graph keeps what it has worked out (orbits, zones, its Pfaffian), so
    a test that counts that work, or patches a routine behind it, needs a
    graph no earlier test has touched.
    """
    return RibbonGraph(dict(graph.sigma0), dict(graph.sigma1), graph.sides)


def mark_all_holes(graph, labels):
    """The marking that gives ``labels`` to the holes in min-side order."""
    holes = graph.holes()
    return Marking(graph, {l: (HOLE, frozenset(h)) for l, h in zip(labels, holes, strict=True)})
