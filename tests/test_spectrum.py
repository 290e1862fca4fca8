import sys

import numpy as np
import pytest

import tangency_lab.spectrum as spectrum_module
from tangency_lab import kernel, symmetry
from tangency_lab.atlas import (
    FAMILIES,
    CriticalPointRecord,
    refine_critical,
    refined_minimum,
    seed_minimum,
)
from tangency_lab.errors import TooLarge
from tangency_lab.spectrum import (
    brute_spectrum,
    expand_report,
    full_spectrum,
    predicted_spectrum,
)
from tangency_lab.symmetry import build_chart, embed, isotypic_project, project


@pytest.fixture(scope="module")
def records():
    out = {}
    for fam in FAMILIES:
        for d in (7, 8):
            chart, xi0 = seed_minimum(fam, d)
            out[(fam, d)] = refine_critical(chart, xi0)
    return out


def test_multiplicities_sum_to_d_squared(records):
    for (fam, d), rec in records.items():
        rep = full_spectrum(rec)
        assert sum(m for _, m, _ in rep.entries) == d * d
        assert rep.d == d


def test_multiplicity_layout(records):
    mults = {"C0I": {"t": [1, 1], "s": [6, 6, 6], "x": [15], "y": [14]},
             "C1I": {"t": [1] * 5, "s": [5] * 5, "x": [10], "y": [9]}}
    mults["C0II"] = mults["C0I"]
    mults["C1II"] = mults["C1I"]
    for fam, want in mults.items():
        rep = full_spectrum(records[(fam, 7)])
        got = {}
        for _, m, lab in rep.entries:
            got.setdefault(lab, []).append(m)
        assert got == want


def test_matches_dense_hessian_eigenvalues(records):
    # the labeled per-component calculation against one big eigh
    for fam in FAMILIES:
        for d in (7, 8):
            rec = records[(fam, d)]
            flat = expand_report(full_spectrum(rec))
            dense = brute_spectrum(embed(rec.chart, rec.xi))
            assert np.max(np.abs(np.array(flat) - np.array(dense))) <= 1e-6


def test_frozen_eigenvalues_at_d7(records):
    want = {
        "C0I": {"t": [0.9905112661816, 2.253535852428],
                "s": [0.05842873893349, 0.1875086785683, 1.893362920897],
                "x": [0.006847352211466], "y": [0.3258672209845]},
        # C0II is W = I: s_1 = x = (pi - 2)/(4 pi), y = (pi + 2)/(4 pi)
        "C0II": {"t": [1.028911263220, 2.335173338424],
                 "s": [(np.pi - 2) / (4 * np.pi), 0.2815678306084, 1.968432169392],
                 "x": [(np.pi - 2) / (4 * np.pi)], "y": [(np.pi + 2) / (4 * np.pi)]},
        "C1I": {"t": [0.07813581329589, 0.2360489093861, 0.9968904643361,
                      1.901337174179, 2.268785278743],
                "s": [0.03042883397134, 0.06596876790125, 0.1931210919483,
                      0.3544634221286, 1.899867493788],
                "x": [0.001661975094992], "y": [0.3211109008389]},
        "C1II": {"t": [0.06834910726858, 0.2194945398683, 1.013195634467,
                       1.880596345587, 2.295489717211],
                 "s": [0.01405901319022, 0.0804075164428, 0.2381736178738,
                       0.3477210792752, 1.931566057936],
                 "x": [0.05217454887796], "y": [0.3694552618241]},
    }
    for fam, by_label in want.items():
        rep = full_spectrum(records[(fam, 7)])
        got = {}
        for ev, _, lab in rep.entries:
            got.setdefault(lab, []).append(ev)
        for lab, evs in by_label.items():
            np.testing.assert_allclose(got[lab], evs, atol=2e-9)


def test_all_families_are_local_minima(records):
    for (fam, d), rec in records.items():
        flat = expand_report(full_spectrum(rec))
        assert flat[0] > 0, (fam, d)


def _single(rep, label):
    (ev,) = [ev for ev, _, lab in rep.entries if lab == label]
    return ev


def test_near_degenerate_pair_for_identity_family(records):
    # the lowest standard and skew eigenvalues coincide analytically at
    # (pi - 2) / (4 pi); with the exact Hessian only rounding splits them
    rep = full_spectrum(records[("C0II", 7)])
    exact = (np.pi - 2) / (4 * np.pi)
    x = _single(rep, "x")
    assert abs(x - exact) <= 1e-12
    s_low = min(ev for ev, _, lab in rep.entries if lab == "s")
    assert abs(s_low - exact) <= 1e-12
    assert abs(s_low - x) <= 1e-12


def test_skew_and_hollow_eigenvalues_are_rayleigh_consistent(records):
    rep = full_spectrum(records[("C0I", 7)])
    assert 0 < _single(rep, "x") < _single(rep, "y")


def test_prediction_layout_matches_computation():
    for fam in FAMILIES:
        pred = predicted_spectrum(fam, 20)
        chart, xi0 = seed_minimum(fam, 20)
        rep = full_spectrum(refine_critical(chart, xi0))
        assert [(m, lab) for _, m, lab in pred.entries] == [
            (m, lab) for _, m, lab in rep.entries]


def test_predictions_converge_at_large_d():
    # at d = 400 the dropped terms are O(1/d) ~ 3e-3 on the bounded slots
    # and O(1/sqrt(d)) relative on the slots that grow like d
    fam = "C0I"
    chart, xi0 = seed_minimum(fam, 400)
    rec = refine_critical(chart, xi0)
    rep = full_spectrum(rec)
    pred = predicted_spectrum(fam, 400)
    for (ev, _, lab), (pv, _, plab) in zip(rep.entries, pred.entries):
        assert lab == plab
        assert abs(ev - pv) <= max(3e-3, 1e-3 * abs(ev)), (lab, ev, pv)


def test_predictions_at_d20_within_quarter():
    for fam in FAMILIES:
        chart, xi0 = seed_minimum(fam, 20)
        rep = full_spectrum(refine_critical(chart, xi0))
        pred = predicted_spectrum(fam, 20)
        for (ev, _, lab), (pv, _, _) in zip(rep.entries, pred.entries):
            assert abs(ev - pv) <= 0.25, (fam, lab, ev, pv)


def test_brute_spectrum_rejects_large_matrices():
    with pytest.raises(TooLarge):
        brute_spectrum(np.eye(13))


def test_brute_spectrum_on_identity_is_positive():
    evs = brute_spectrum(np.eye(7))
    assert len(evs) == 49
    assert evs[0] > 0
    assert evs == sorted(evs)


def _dense_component_eigenvalues(rec, label, c):
    """One component's eigenvalues from d x d matrices and dense hvp.

    The dense projector maps the basis of the (q-c, 1^(p+c)) chart onto
    the component; the Hessian is compressed onto representatives that
    form an orthonormal basis of that range.
    """
    d = rec.d
    q = rec.chart.group.blocks[0]
    chart = build_chart(d, (q - c,) + (1,) * (d - q + c))
    A = np.array([isotypic_project(embed(chart, e), label, special=range(q, d))
                  for e in np.eye(chart.dim)])
    U, sv, _ = np.linalg.svd(A.reshape(len(A), -1).T, full_matrices=False)
    R = U[:, sv > 1e-8].T.reshape(-1, d, d)
    HR = kernel.hvp(embed(rec.chart, rec.xi), R)
    alpha = np.tensordot(R, HR, axes=([1, 2], [1, 2]))
    return np.linalg.eigvalsh(0.5 * (alpha + alpha.T))


def test_chart_spectrum_matches_dense_representatives_at_d20():
    for fam in FAMILIES:
        rec = refined_minimum(fam, 20)
        rep = full_spectrum(rec)
        for label, c in (("t", 0), ("s", 1), ("x", 2), ("y", 2)):
            got = [ev for ev, _, lab in rep.entries if lab == label]
            np.testing.assert_allclose(got, _dense_component_eigenvalues(rec, label, c),
                                       rtol=1e-10, atol=1e-12, err_msg=f"{fam} {label}")


def test_spectrum_at_a_noncritical_point_with_two_fixed_coordinates():
    # the Hessian at any point fixed by S_5 x 1 x 1 commutes with that
    # group, so the labeled spectrum holds there too
    d = 7
    chart = build_chart(d, (5, 1, 1))
    rng = np.random.default_rng(7)
    xi = project(chart, np.eye(d)) + 0.3 * rng.normal(size=chart.dim)
    W = embed(chart, xi)
    rec = CriticalPointRecord(family="C0I", d=d, chart=chart, xi=xi,
                              loss_value=kernel.loss(W), grad_norm=np.nan, type_label="I")
    rep = full_spectrum(rec)
    mults = {}
    for _, m, lab in rep.entries:
        mults.setdefault(lab, []).append(m)
    assert mults == {"t": [1] * 10, "s": [4] * 7, "x": [6], "y": [5]}
    np.testing.assert_allclose(expand_report(rep), brute_spectrum(W), rtol=0, atol=1e-10)


def test_spectrum_at_d1000_forms_no_dense_kernel_call(monkeypatch):
    # refinement and spectrum run on chart orbits only: every binding of
    # the d x d kernel, embedding and isotypic projection in the package
    # raises
    def forbidden(*args, **kwargs):
        raise AssertionError("dense function called")

    def forbid(source, names):
        dense = {fn: getattr(source, fn) for fn in names}
        for name, module in list(sys.modules.items()):
            if name.startswith("tangency_lab"):
                for fn, original in dense.items():
                    if getattr(module, fn, None) is original:
                        monkeypatch.setattr(module, fn, forbidden)

    forbid(kernel, ("loss", "grad_loss", "hvp"))
    forbid(symmetry, ("embed", "isotypic_project"))
    assert spectrum_module.hvp is forbidden
    assert symmetry.embed is forbidden
    d = 1000
    for fam in FAMILIES:
        rec = refine_critical(*seed_minimum(fam, d))
        rep = full_spectrum(rec)
        pred = predicted_spectrum(fam, d)
        assert sum(m for _, m, _ in rep.entries) == d * d
        assert min(ev for ev, _, _ in rep.entries) > 0
        for (ev, _, lab), (pv, _, _) in zip(rep.entries, pred.entries):
            assert abs(ev - pv) <= max(0.05, 1e-3 * abs(pv)), (fam, lab, ev, pv)
