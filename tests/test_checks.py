from fractions import Fraction

import pytest

from ribboncalc import checks, plforms


def test_cluster_census_agrees_three_ways():
    assert checks.check_cluster_census() == (
        True,
        "3-way agreement on 34 censuses (h <= 3, total excess <= 3)",
    )


def test_relation_agrees_with_the_solver():
    assert checks.check_relation_vs_solver() == (
        True,
        "pair locus from the relation: 72*k1^2 - 348*k2; direct solve: 72*k1^2 - 348*k2",
    )


def test_polynomial_goldens_reproduce():
    assert checks.check_polynomial_goldens() == (
        True,
        "12*k1 and the m1=3 polynomial reproduced; "
        "two-vertex formula agrees at [(1, 1), (1, 2), (2, 2), (1, 3)]",
    )


def test_leading_coefficients_obey_the_product_rule():
    assert checks.check_leading_coefficients() == (
        True,
        "7 profiles of weight <= 6 obey the coefficient product rule",
    )


def test_euler_characteristics_match_both_closed_forms():
    assert checks.check_euler_characteristics() == (
        True,
        "all 14 (g,n) with at most 30 sides match -B_2g/2g and the Harer-Zagier step; "
        "(2,1) = 1/120, (3,1) = -1/252",
    )


def test_fiber_integrals_obey_both_laws():
    assert checks.check_fiber_integrals() == (
        True,
        "disk law holds for r <= 3 at three scales; "
        "cylinder law holds for 16 splits with v1+v2 <= 8",
    )


def test_structure_sweeps_pass():
    assert checks.check_structure_sweeps() == (
        True,
        "dual involution x50; V-E+H bookkeeping on 52 cells; "
        "contraction closure over 9 edges; "
        "pairing nondegenerate on 78 top cells x 100 metrics; "
        "exceptional bijection x50; quotient=contraction x50; "
        "shrink trichotomy census (cylinder 144, disk 908, surface 258)",
    )


def test_nondegeneracy_sweep_wants_the_closed_form(monkeypatch):
    # a Pfaffian that is nonzero and metric-independent but off by 2 fails
    real = plforms.nondegeneracy_check

    def doubled(mmg):
        ok, pf = real(mmg)
        return ok, 2 * pf

    monkeypatch.setattr(plforms, "nondegeneracy_check", doubled)
    with pytest.raises(checks._Failed, match="not 2\\^-0"):
        checks._nondegeneracy_sweep(metrics=1)


def test_nondegeneracy_sweep_wants_one_value_per_cell(monkeypatch):
    real = plforms.nondegeneracy_check

    def metric_dependent(mmg):
        ok, pf = real(mmg)
        return ok, pf * Fraction(sum(mmg.lengths.values()))

    monkeypatch.setattr(plforms, "nondegeneracy_check", metric_dependent)
    with pytest.raises(checks._Failed, match="depended on the metric"):
        checks._nondegeneracy_sweep(metrics=2)


@pytest.mark.slow
def test_the_whole_registry_passes():
    results = checks.run_all()
    assert [r.name for r in results] == [name for name, _ in checks.CHECKS]
    assert len(results) == 7
    assert all(isinstance(r, checks.CheckResult) and r.ok for r in results)
