from ribboncalc import checks


def test_cluster_census_agrees_three_ways():
    assert checks.check_cluster_census() == (
        True,
        "3-way agreement on 34 censuses (h <= 3, total excess <= 3)",
    )
