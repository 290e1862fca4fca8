import math

import numpy as np
import pytest
import sympy

from tangency_lab.atlas import (
    FAMILIES,
    MIN_D,
    PuiseuxApprox,
    eval_series,
    predicted_loss,
    refine_critical,
    refined_minimum,
    seed_minimum,
    series_table,
)
from tangency_lab.errors import DimensionMismatch, UnsupportedFamily
from tangency_lab.kernel import loss


def refined(family, d):
    chart, xi0 = seed_minimum(family, d)
    return refine_critical(chart, xi0)


def test_refinement_converges_for_all_families():
    for fam in FAMILIES:
        for d in (7, 20):
            rec = refined(fam, d)
            assert rec.grad_norm <= 1e-11
            assert rec.family == fam
            assert rec.d == d


def test_identity_family_is_the_global_minimum():
    rec = refined("C0II", 9)
    assert abs(rec.loss_value) <= 1e-14
    assert rec.grad_norm <= 1e-14
    from tangency_lab.symmetry import embed

    assert np.max(np.abs(embed(rec.chart, rec.xi) - np.eye(9))) <= 1e-12


def test_refinement_is_basin_stable():
    chart, xi0 = seed_minimum("C1II", 8)
    base = refine_critical(chart, xi0)
    rng = np.random.default_rng(7)
    for _ in range(3):
        bumped = refine_critical(chart, base.xi + 1e-3 * rng.normal(size=chart.dim))
        assert np.max(np.abs(bumped.xi - base.xi)) <= 1e-9


def test_loss_ordering_across_families():
    for d in (7, 20):
        vals = {fam: refined(fam, d).loss_value for fam in FAMILIES}
        assert vals["C0I"] > vals["C1I"] > vals["C1II"] > 1e-3
        assert abs(vals["C0II"]) <= 1e-14


def test_frozen_values_at_d7():
    rec = refined("C0I", 7)
    assert rec.loss_value == pytest.approx(6.221098077259e-02, abs=1e-10)
    np.testing.assert_allclose(
        rec.xi, [-1.885436945858, 1.837258249388], atol=1e-9)

    rec = refined("C1I", 7)
    assert rec.loss_value == pytest.approx(5.532160754797e-02, abs=1e-10)

    rec = refined("C1II", 7)
    assert rec.loss_value == pytest.approx(2.320271491357e-02, abs=1e-10)
    np.testing.assert_allclose(
        rec.xi,
        [2.441952170015, -0.1921419272204, 0.6410096059661,
         0.4555831601522, -0.6327039049153],
        atol=1e-9)


def test_loss_value_matches_direct_evaluation():
    from tangency_lab.symmetry import embed

    for fam in FAMILIES:
        rec = refined(fam, 7)
        assert rec.loss_value == pytest.approx(loss(embed(rec.chart, rec.xi)), abs=1e-14)


def test_classify_type_agrees_with_family_tag():
    for fam in FAMILIES:
        rec = refined(fam, 10)
        assert rec.type_label == fam[2:]
        assert rec.family == fam


def test_type_i_loss_prediction_error_scales_like_inverse_d():
    # the two-term series undershoots by c/d with c around 0.28
    for d in (20, 100):
        rec = refined("C0I", d)
        gap = abs(rec.loss_value - predicted_loss("C0I", d)) * d
        assert 0.25 <= gap <= 0.32


def test_predicted_loss_matches_symbolic_forms():
    d = sympy.Symbol("d", positive=True)
    forms = {
        "C0I": sympy.Rational(1, 2) - 1 / sympy.pi - 4 / (3 * sympy.pi * sympy.sqrt(d)),
        "C1I": sympy.Rational(1, 2) - 1 / sympy.pi - 4 / (3 * sympy.pi * sympy.sqrt(d)),
        "C0II": sympy.Integer(0),
        "C1II": (sympy.pi ** 2 - 4) / (2 * sympy.pi ** 2 * d)
        - 32 / (3 * sympy.pi ** 4 * d ** sympy.Rational(3, 2)),
    }
    for fam, expr in forms.items():
        for n in (7, 25, 64, 100):
            want = float(expr.subs(d, n).evalf(30))
            assert predicted_loss(fam, n) == pytest.approx(want, rel=1e-14, abs=1e-16)


def test_predicted_loss_rejects_unknown_family():
    with pytest.raises(UnsupportedFamily):
        predicted_loss("C2I", 10)


def test_eval_series_matches_symbolic_resummation():
    d = sympy.Symbol("d", positive=True)
    table = series_table()
    for fam, params in table.items():
        for name, series in params.items():
            expr = sum(
                (sympy.Float(c, 25) * d ** (-sympy.Rational(e).limit_denominator(4))
                 for c, e in series.terms),
                sympy.Integer(0),
            )
            for n in (9, 36, 100):
                want = float(sympy.N(expr.subs(d, n), 30))
                assert eval_series(series, n) == pytest.approx(want, rel=1e-13, abs=1e-18)


def test_series_validation():
    with pytest.raises(ValueError):
        PuiseuxApprox(((np.nan, 0.0),))
    with pytest.raises(ValueError):
        PuiseuxApprox(((1.0, -0.5),))
    with pytest.raises(ValueError):
        PuiseuxApprox(((1.0, 0.3),))
    with pytest.raises(ValueError):
        PuiseuxApprox(((1.0, 0.0), (2.0, 0.0)))
    series = PuiseuxApprox(((1.0, 0.0), (2.0, 0.5), (3.0, 1.0)))
    assert eval_series(series, 4) == pytest.approx(1.0 + 1.0 + 0.75)
    with pytest.raises(DimensionMismatch):
        eval_series(series, 3)


def test_seed_gating():
    with pytest.raises(UnsupportedFamily):
        seed_minimum("C9X", 10)
    with pytest.raises(DimensionMismatch):
        seed_minimum("C0I", MIN_D - 1)


def test_seed_is_close_to_refined_point():
    for fam in FAMILIES:
        chart, xi0 = seed_minimum(fam, 30)
        rec = refine_critical(chart, xi0)
        assert np.max(np.abs(rec.xi - xi0)) <= 0.2


def test_refined_minimum_is_shared_and_read_only():
    rec = refined_minimum("C0I", 9)
    assert refined_minimum("C0I", 9) is rec
    assert not rec.xi.flags.writeable
    assert rec.grad_norm <= 1e-11


def test_c1ii_seed_is_already_refined():
    # the C1II seed is the refined point its probe converged to, so a
    # second refinement changes nothing
    chart, xi0 = seed_minimum("C1II", 8)
    rec = refine_critical(chart, xi0)
    assert np.array_equal(rec.xi, xi0)
