import pytest

from ribboncalc import clusters, enumeration


@pytest.fixture(autouse=True)
def cold_caches():
    """Start every test without the per-process class and core caches.

    The unlabelled classes and the cluster cores are built once per process
    and kept; a test that counts the work of building them needs them cold.
    """
    enumeration._unlabeled_sorted.cache_clear()
    clusters._cores.cache_clear()
