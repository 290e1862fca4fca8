"""Acceptance suite: one test per shipping criterion.

Each test prints its measurements and asserts every clause of its
criterion at the stated tolerance, so `pytest -v` gives one verdict
line per criterion. Criteria that the implementation cannot reproduce
are allowed to fail here; they must not be weakened.
"""

import itertools
import math
import time

import numpy as np
import pytest

from tangency_lab.atlas import (
    FAMILIES,
    chart_hessian,
    predicted_loss,
    refine_critical,
    refined_minimum,
    seed_minimum,
)
from tangency_lab.kernel import grad_loss, hvp, loss
from tangency_lab.spectrum import (
    brute_spectrum,
    expand_report,
    full_spectrum,
    predicted_spectrum,
)
from tangency_lab.symmetry import (
    ISOTYPIC_LABELS,
    YoungPartitionGroup,
    build_chart,
    detect_diagonal_isotropy,
    embed,
    isotypic_project,
    project,
)
from tangency_lab.toy import trace_from
from tangency_lab.tracer import (
    TraceConfig,
    arc_radius_table,
    minimal_eig_directions,
    sphere_extremize,
    trace_arc,
)

def test_criterion_1_refined_loss_values():
    failures = []
    for fam, d, check in (("C0I", 25, "abs"), ("C0I", 100, "abs"),
                          ("C1II", 100, "rel")):
        t0 = time.perf_counter()
        rec = refine_critical(*seed_minimum(fam, d))
        dt = time.perf_counter() - t0
        pred = predicted_loss(fam, d)
        gap = abs(rec.loss_value - pred)
        if check == "abs":
            ok = gap <= 3.0 / d
            print(f"{fam} d={d}: loss={rec.loss_value:.8f} pred={pred:.8f} "
                  f"|gap|={gap:.2e} tol={3.0 / d:.2e} [{dt:.1f}s]")
        else:
            ok = gap <= 0.15 * abs(pred)
            print(f"{fam} d={d}: loss={rec.loss_value:.8f} pred={pred:.8f} "
                  f"rel={gap / abs(pred):.3f} tol=0.15 [{dt:.1f}s]")
        if not ok:
            failures.append(f"{fam}@d={d} loss gap {gap:.3e}")
        if dt > 60.0:
            failures.append(f"{fam}@d={d} took {dt:.0f}s > 60s")
    assert not failures, "; ".join(failures)


def test_criterion_2_spectrum_vs_two_term_predictions():
    d = 100
    tol = 5.0 / d
    failures = []
    for fam in FAMILIES:
        t0 = time.perf_counter()
        rep = full_spectrum(refined_minimum(fam, d))
        dt = time.perf_counter() - t0
        pred = predicted_spectrum(fam, d)
        if [(m, l) for _, m, l in rep.entries] != [(m, l) for _, m, l in pred.entries]:
            failures.append(f"{fam}: multiplicity layout mismatch")
            continue
        gaps = [abs(ev - pv) for (ev, _, _), (pv, _, _) in
                zip(rep.entries, pred.entries)]
        worst = max(range(len(gaps)), key=gaps.__getitem__)
        label = rep.entries[worst][2]
        print(f"{fam}: worst |gap|={gaps[worst]:.4f} ({label}-slot) "
              f"tol={tol} [{dt:.1f}s]")
        if gaps[worst] > tol:
            failures.append(f"{fam}: {label}-slot gap {gaps[worst]:.4f} > {tol}")
        if dt > 300.0:
            failures.append(f"{fam}: spectrum took {dt:.0f}s > 300s")
    assert not failures, "; ".join(failures)


def test_criterion_3_block_dense_equivalence():
    failures = []
    for fam, d in itertools.product(FAMILIES, (7, 8)):
        rec = refined_minimum(fam, d)
        flat = np.array(expand_report(full_spectrum(rec)))
        dense = np.array(brute_spectrum(embed(rec.chart, rec.xi)))
        gap = float(np.max(np.abs(flat - dense)))
        print(f"{fam} d={d}: multiset gap {gap:.2e}")
        if gap > 1e-6:
            failures.append(f"{fam}@d={d} gap {gap:.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_4_sign_type_spectral_agreement():
    failures = []
    for d in (25, 100):
        a = full_spectrum(refined_minimum("C0I", d)).entries
        b = full_spectrum(refined_minimum("C0II", d)).entries
        assert [(m, l) for _, m, l in a] == [(m, l) for _, m, l in b]
        gaps = [abs(x[0] - y[0]) for x, y in zip(a, b)]
        tol = 5.0 / math.sqrt(d)
        print(f"d={d}: max |gap|={max(gaps):.4f} tol={tol:.4f}")
        if max(gaps) > tol:
            failures.append(f"d={d}: {max(gaps):.4f} > {tol:.4f}")
    assert not failures, "; ".join(failures)


# reference terminal radii; None marks the unbounded cell
_RADIUS_GRID = {
    7: {(1, "C0I"): 1.16, (1, "C0II"): 1.16, (1, "C1I"): 1.25, (1, "C1II"): 0.90,
        (2, "C0I"): 0.62, (2, "C0II"): 1.75, (2, "C1I"): 1.12, (2, "C1II"): 0.31,
        (3, "C0I"): 0.62, (3, "C0II"): None, (3, "C1I"): 0.29, (3, "C1II"): 0.31},
    20: {(1, "C0I"): 1.05, (1, "C0II"): 1.05, (1, "C1I"): 1.10, (1, "C1II"): 0.90,
         (2, "C0I"): 1.01, (2, "C0II"): 1.53, (2, "C1I"): 1.08, (2, "C1II"): 0.81,
         (3, "C0I"): 1.01, (3, "C0II"): 1.45, (3, "C1I"): 1.01, (3, "C1II"): 0.81},
}


def test_criterion_5_arc_radius_grid():
    failures = []
    for d in (7, 20):
        for k in (1, 2, 3):
            for fam in FAMILIES:
                t0 = time.perf_counter()
                cell = arc_radius_table(fam, k, d)
                dt = time.perf_counter() - t0
                target = _RADIUS_GRID[d][(k, fam)]
                if target is None:
                    ok = cell["value"] == "inf" and all(
                        tag == "ReachedRmax" for tag, _ in cell["runs"])
                    got = cell["value"]
                else:
                    ok = (cell.get("radius") is not None
                          and abs(cell["radius"] - target) <= 0.05)
                    got = cell["value"]
                print(f"{fam} k={k} d={d}: got {got} want "
                      f"{'inf' if target is None else target} "
                      f"{'OK' if ok else 'MISS'} [{dt:.0f}s]")
                if not ok:
                    failures.append(
                        f"{fam} k={k} d={d}: {got} != "
                        f"{'inf' if target is None else target}")
                if dt > 600.0:
                    failures.append(f"{fam} k={k} d={d}: {dt:.0f}s > 600s")
    assert not failures, "; ".join(failures)


def test_criterion_6_minimal_direction_symmetry():
    cases = {"C0I": (2, "x", (lambda d: (d - 2, 1, 1))),
             "C1I": (3, "x", (lambda d: (d - 2, 1, 1))),
             "C1II": (2, "s", (lambda d: (d - 1, 1)))}
    failures = []
    for d in (20, 100):
        for fam, (k, label, stated) in cases.items():
            rec = refined_minimum(fam, d)
            chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
            center = project(chart, embed(rec.chart, rec.xi))
            dirs, _ = minimal_eig_directions(chart, chart_hessian(chart, center))
            V = embed(chart, dirs[0])
            special = (d - 1,) if fam.startswith("C1") else ()
            resid = float(np.linalg.norm(V - isotypic_project(V, label, special=special)))
            blocks = detect_diagonal_isotropy(chart, center + 1e-2 * dirs[0]).blocks
            print(f"{fam} d={d}: {label}-residual {resid:.2e}; "
                  f"displaced isotropy {blocks} want {stated(d)}")
            if resid > 1e-4:
                failures.append(f"{fam}@d={d}: residual {resid:.2e} > 1e-4")
            if blocks != stated(d):
                failures.append(f"{fam}@d={d}: isotropy {blocks} != {stated(d)}")
    assert not failures, "; ".join(failures)


def test_criterion_7_sphere_minimum_rate_and_arc_agreement():
    d = 20
    charts = {"C0I": 2, "C0II": 2, "C1I": 3, "C1II": 2}
    failures = []
    for fam, k in charts.items():
        rec = refined_minimum(fam, d)
        lam_min = min(ev for ev, _, _ in full_spectrum(rec).entries)
        chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
        center = project(chart, embed(rec.chart, rec.xi))
        dirs, _ = minimal_eig_directions(chart, chart_hessian(chart, center))
        r = 1e-3
        [(_, m_r)] = sphere_extremize(chart, rec, [(r, "min")])
        ratio = (m_r - rec.loss_value) / r ** 2
        rel = abs(ratio - lam_min / 2.0) / (lam_min / 2.0)
        print(f"{fam}: [m(r)-L]/r^2 = {ratio:.6f}, lam_min/2 = "
              f"{lam_min / 2:.6f}, rel err {rel:.4f}")
        if rel > 0.10:
            failures.append(f"{fam}: rate off by {rel:.3f}")
        cfg = TraceConfig(delta_r=1e-3, r_max=0.02)
        arcs = [trace_arc(chart, rec, s * v, cfg)
                for v in dirs for s in (1.0, -1.0)]
        for rr in (1e-3, 1e-2):
            [(_, m)] = sphere_extremize(chart, rec, [(rr, "min")])
            arc_best = min(loss(embed(chart, xi))
                           for a in arcs for q, xi, _ in a.samples
                           if abs(q - rr) <= 1e-6)
            gap = abs(m - arc_best)
            print(f"   r={rr:g}: |m(r) - arc loss| = {gap:.2e}")
            if gap > 1e-6:
                failures.append(f"{fam}@r={rr:g}: sphere/arc gap {gap:.2e}")
    assert not failures, "; ".join(failures)


def test_criterion_8_planar_model_arcs():
    t0 = time.perf_counter()
    failures = []
    a = math.sqrt(2.0 / 3.0)
    launches = [
        ((1.0, 0.0), np.array([1.0, 0.0])),
        ((1.0, 0.0), np.array([0.0, 1.0])),
        ((a, a), np.array([1.0, -1.0]) / math.sqrt(2.0)),
        ((a, a), np.array([1.0, 1.0]) / math.sqrt(2.0)),
    ]
    cfg = TraceConfig(delta_r=1e-4, r_max=2e-3)
    for c, v in launches:
        samples, _, _ = trace_from(c, v, cfg)
        r, p, _ = samples[-1]
        u = (p - np.array(c)) / r
        angle = math.atan2(abs(u[0] * v[1] - u[1] * v[0]), abs(float(u @ v)))
        print(f"launch {c} along {v}: tangent angle {angle:.2e} rad")
        if angle > 1e-2:
            failures.append(f"launch angle {angle:.2e} at {c}")
    cfg = TraceConfig(delta_r=1e-4, r_max=3.0)
    samples, termination, _ = trace_from(
        (a, a), np.array([1.0, -1.0]) / math.sqrt(2.0), cfg)
    end = samples[-1][1]
    dist = min(math.hypot(end[0] - sx, end[1] - sy)
               for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    dt = time.perf_counter() - t0
    print(f"minimum-to-saddle arc: distance {dist:.2e}, "
          f"termination {termination}, total {dt:.1f}s")
    if dist > 1e-3:
        failures.append(f"saddle reach distance {dist:.2e}")
    if dt > 10.0:
        failures.append(f"runtime {dt:.1f}s > 10s")
    assert not failures, "; ".join(failures)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20240817)

    # isotypic projectors: complete, idempotent, mutually orthogonal
    worst = 0.0
    for d in (6, 9):
        M = rng.normal(size=(d, d))
        parts = {lab: isotypic_project(M, lab) for lab in ISOTYPIC_LABELS}
        worst = max(worst, float(np.linalg.norm(sum(parts.values()) - M)))
        for lab, P in parts.items():
            worst = max(worst, float(np.linalg.norm(
                isotypic_project(P, lab) - P)))
        for a, b in itertools.combinations(ISOTYPIC_LABELS, 2):
            worst = max(worst, abs(float(np.sum(parts[a] * parts[b]))))
    print(f"projector algebra worst residual {worst:.2e}")
    if worst > 1e-12:
        failures.append(f"projector residual {worst:.2e}")

    # analytic gradient against central differences
    d = 5
    W = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    G = grad_loss(W)
    h = 1e-6
    worst = 0.0
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = h
            fd = (loss(W + E) - loss(W - E)) / (2 * h)
            worst = max(worst, abs(fd - G[i, j]))
    print(f"gradient vs finite differences worst {worst:.2e}")
    if worst > 1e-6:
        failures.append(f"gradient FD gap {worst:.2e}")

    # Hessian-vector products define a symmetric form
    worst = 0.0
    for _ in range(5):
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        A /= np.linalg.norm(A)
        B /= np.linalg.norm(B)
        worst = max(worst, abs(float(np.sum(A * hvp(W, B)) -
                                     np.sum(B * hvp(W, A)))))
    print(f"hvp symmetry worst {worst:.2e}")
    if worst > 1e-6:
        failures.append(f"hvp asymmetry {worst:.2e}")

    # loss is invariant under simultaneous row/column permutation
    worst = 0.0
    for _ in range(10):
        perm = rng.permutation(d)
        P = np.eye(d)[perm]
        worst = max(worst, abs(loss(P @ W @ P.T) - loss(W)))
    print(f"permutation invariance worst {worst:.2e}")
    if worst > 1e-12:
        failures.append(f"permutation gap {worst:.2e}")

    # Monte-Carlo estimate of the closed form (student sums of ramps)
    d = 5
    W = np.eye(d) + 0.2 * np.random.default_rng(12345).normal(size=(d, d))
    closed = loss(W)
    means = []
    mc_rng = np.random.default_rng(12345)
    for _ in range(20):
        Z = mc_rng.normal(size=(500_000, d))
        A = np.maximum(Z @ W.T, 0.0).sum(axis=1)
        B = np.maximum(Z, 0.0).sum(axis=1)
        means.append(0.5 * np.mean((A - B) ** 2))
    mc = float(np.mean(means))
    sem = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    print(f"Monte-Carlo: closed {closed:.6f}, sampled {mc:.6f} +- {sem:.6f}")
    if abs(mc - closed) > 3 * sem:
        failures.append(f"MC gap {abs(mc - closed):.2e} > 3 sigma {3 * sem:.2e}")

    dt = time.perf_counter() - t0
    print(f"property run total {dt:.1f}s")
    if dt > 900.0:
        failures.append(f"runtime {dt:.0f}s > 900s")
    assert not failures, "; ".join(failures)
