import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tangency_lab import toy
from tangency_lab.errors import CoincidentPoint, NonFiniteGrid
from tangency_lab.toy import (
    CRITICAL_POINTS,
    PlanePoint,
    b2_orbit,
    grad_h,
    h,
    hess_h,
    points_to_csv,
    sample_tangency_set,
    tangency_residual,
    trace_from,
)
from tangency_lab.toy import _grad, _grid_residual
from tangency_lab.tracer import TraceConfig

A = math.sqrt(2.0 / 3.0)

SQUARE_SYMMETRIES = [
    np.array([[sx, 0.0], [0.0, sy]]) if not swap else np.array([[0.0, sx], [sy, 0.0]])
    for swap in (False, True) for sx in (1.0, -1.0) for sy in (1.0, -1.0)
]


def test_critical_point_values():
    vals = {(0.0, 0.0): 0.0, (1.0, 0.0): -1.0, (0.0, 1.0): -1.0,
            (A, A): -4.0 / 3.0}
    for p in CRITICAL_POINTS:
        assert np.linalg.norm(grad_h(p)) <= 1e-14
        key = (abs(p.x), abs(p.y))
        assert h(p) == pytest.approx(vals[key], abs=1e-14)


def test_hessian_classification():
    assert np.allclose(hess_h((0.0, 0.0)), -4.0 * np.eye(2))
    np.testing.assert_allclose(hess_h((1.0, 0.0)), np.diag([8.0, -2.0]), atol=1e-14)
    Hm = hess_h((A, A))
    evals, evecs = np.linalg.eigh(Hm)
    np.testing.assert_allclose(evals, [8.0 / 3.0, 8.0], atol=1e-12)
    soft = evecs[:, 0]
    assert abs(abs(soft @ np.array([1.0, -1.0]) / np.sqrt(2.0)) - 1.0) <= 1e-12


def test_orbit_sizes():
    assert len(b2_orbit((0.3, 0.7))) == 8
    assert len(b2_orbit((1.0, 0.0))) == 4
    assert len(b2_orbit((A, A))) == 4
    assert len(b2_orbit((0.0, 0.0))) == 1


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_h_and_grad_are_equivariant(x, y):
    p = np.array([x, y])
    for S in SQUARE_SYMMETRIES:
        q = S @ p
        assert h(tuple(q)) == pytest.approx(h(tuple(p)), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad_h(tuple(q)), S @ grad_h(tuple(p)),
                                   rtol=1e-12, atol=1e-12)


def test_residual_vanishes_on_symmetry_lines():
    # from the origin, gradients point radially along both axes and both
    # diagonals, so those rays lie in the tangency set
    for t in (0.25, 0.8, 1.3):
        for p in ((t, 0.0), (0.0, t), (t, t), (t, -t)):
            assert abs(tangency_residual((0.0, 0.0), p)) <= 1e-12


def test_residual_rejects_center():
    with pytest.raises(CoincidentPoint):
        tangency_residual((0.5, 0.5), (0.5, 0.5))


def test_critical_points_lie_in_every_tangency_set():
    for c in ((0.0, 0.0), (1.0, 0.0), (A, A)):
        for p in CRITICAL_POINTS:
            if (p.x, p.y) == c:
                continue
            assert abs(tangency_residual(c, p)) <= 1e-10


def test_sampled_set_is_thin_on_grid():
    pts = sample_tangency_set((1.0, 0.0), resolution=128)
    assert len(pts) > 50
    cell = 4.0 / 128
    for row in pts:
        assert abs(tangency_residual((1.0, 0.0), row)) <= 25.0 * cell
        assert math.hypot(row[0] - 1.0, row[1]) > 1e-6


def test_sampled_set_bisection_accuracy():
    # walking the sign change across one crossed edge reproduces the
    # sampled point to the linear-interpolation error of the grid
    c = (1.0, 0.0)
    pts = sample_tangency_set(c, resolution=256)
    px, py = pts[len(pts) // 3]
    if abs(tangency_residual(c, (px + 1e-4, py))) > abs(
            tangency_residual(c, (px - 1e-4, py))):
        lo, hi = px - 1e-2, px
    else:
        lo, hi = px, px + 1e-2
    f = lambda x: tangency_residual(c, (x, py))
    if f(lo) * f(hi) < 0:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - px) <= 2e-2


def test_sampled_set_is_equivariant():
    c = (1.0, 0.0)
    S = np.array([[0.0, 1.0], [1.0, 0.0]])  # swap: maps c to (0, 1)
    a = sample_tangency_set(c, resolution=128)
    b = sample_tangency_set((0.0, 1.0), resolution=128)
    cell = 4.0 / 128
    worst = 0.0
    for row in a:
        q = S @ row
        worst = max(worst, float(np.min(np.hypot(*(b - q).T))))
    assert worst <= 2.0 * cell


def _broadcast_residual(c, xs):
    """Reference grid: `tangency_residual`'s operations on broadcast arrays."""
    X, Y = xs[:, None], xs[None, :]
    gx, gy = _grad(X, Y)
    return gx * (Y - c[1]) - gy * (X - c[0])


def _loop_tangency_set(c, resolution, extent):
    """Reference sampler: one Python call per grid edge, same float operations."""
    xs = np.linspace(extent[0], extent[1], resolution + 1)
    F = _broadcast_residual(c, xs)
    pts = []
    for di, dj in ((0, 1), (1, 0)):
        for i in range(resolution + 1 - di):
            for j in range(resolution + 1 - dj):
                v0, v1 = F[i, j], F[i + di, j + dj]
                if (v0 == 0.0 and v1 == 0.0) or v0 * v1 > 0.0:
                    continue
                t = v0 / (v0 - v1)
                x0, x1, y0, y1 = xs[i], xs[i + di], xs[j], xs[j + dj]
                pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return sorted((x, y) for x, y in pts if math.hypot(x - c[0], y - c[1]) > 1e-6)


@pytest.mark.parametrize("c, resolution, extent", [
    ((0.0, 0.0), 64, (-2.0, 2.0)),  # both axes are zero rows of the grid
    ((1.0, 0.0), 96, (-2.0, 2.0)),
    ((0.3, -0.7), 65, (-3.0, 1.5)),
])
def test_sampled_set_matches_edge_loop(c, resolution, extent):
    got = sample_tangency_set(c, resolution=resolution, extent=extent)
    assert [tuple(row) for row in got.tolist()] == _loop_tangency_set(c, resolution, extent)
    xs = np.linspace(extent[0], extent[1], resolution + 1)
    np.testing.assert_array_equal(_grid_residual(*c, xs), _broadcast_residual(c, xs))


def test_sampled_set_is_one_sorted_array():
    pts = sample_tangency_set((0.3, -0.7), resolution=64)
    assert pts.dtype == np.float64 and pts.ndim == 2 and pts.shape[1] == 2
    assert pts.flags.c_contiguous and len(pts) > 50
    assert pts.tolist() == sorted(pts.tolist())


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_tangency_set((0.0, 0.0), resolution=32)
    with pytest.raises(ValueError):
        sample_tangency_set((0.0, 0.0), extent=(2.0, -2.0))


def test_sampler_rejects_a_grid_on_which_the_quartic_overflows():
    # the residual overflows to inf and nan well inside this extent; the
    # sampler raises without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteGrid, match="not finite"):
            sample_tangency_set((1.0, 0.0), resolution=64, extent=(-1e200, 1e200))


def test_sampler_rejects_a_point_that_is_not_finite(monkeypatch):
    # equal end values whose product underflows to 0 count as a crossing,
    # and t = v0 / (v0 - v1) is then infinite
    monkeypatch.setattr(toy, "_grid_residual", lambda cx, cy, xs: np.full((xs.size,) * 2, 1e-170))
    with pytest.raises(NonFiniteGrid, match="not finite"):
        sample_tangency_set((0.0, 0.0), resolution=64)


def test_arcs_launch_along_hessian_eigenvectors():
    # near the center every tangency arc leaves tangent to an eigenvector
    cases = [
        ((1.0, 0.0), np.array([1.0, 0.0])),
        ((1.0, 0.0), np.array([0.0, 1.0])),
        ((A, A), np.array([1.0, -1.0]) / np.sqrt(2.0)),
        ((A, A), np.array([1.0, 1.0]) / np.sqrt(2.0)),
    ]
    cfg = TraceConfig(delta_r=1e-4, r_max=2e-3)
    for c, v in cases:
        samples, _, _ = trace_from(c, v, cfg)
        r, p, _ = samples[-1]
        u = (p - np.array(c)) / r
        angle = math.atan2(abs(u[0] * v[1] - u[1] * v[0]), abs(u @ v))
        assert angle <= 1e-2


def test_arc_from_minimum_reaches_saddle_orbit():
    t0 = time.time()
    cfg = TraceConfig(delta_r=1e-4, r_max=3.0)
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    samples, termination, terminal = trace_from((A, A), v, cfg)
    end = samples[-1][1]
    saddles = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    dist = min(math.hypot(end[0] - sx, end[1] - sy) for sx, sy in saddles)
    assert dist <= 1e-3
    assert termination == "SingularJacobian"
    assert time.time() - t0 <= 10.0


def test_points_to_csv_layout():
    clouds = {"min": np.array([[0.5, 0.25]]), "max": np.array([[0.0, 1.0]])}
    text = points_to_csv(clouds)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,center"
    assert lines[1] == "0,1,max"
    assert lines[2] == "0.5,0.25,min"


def _points_to_csv_per_point(clouds):
    """Reference writer: one `%` format per row."""
    lines = ["x,y,center"]
    for cid in sorted(clouds):
        for x, y in clouds[cid].tolist():
            lines.append("%.17g,%.17g,%s" % (x, y, cid))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("resolution", [64, 65, 128])
def test_points_to_csv_matches_the_per_point_writer(resolution):
    centers = {"max": CRITICAL_POINTS[0], "saddle": CRITICAL_POINTS[1],
               "min": CRITICAL_POINTS[5], "0.3:-0.7": (0.3, -0.7)}
    clouds = {cid: sample_tangency_set(c, resolution=resolution) for cid, c in centers.items()}
    clouds["empty"] = np.empty((0, 2))
    clouds["%s 100%"] = clouds["max"][:3]  # an id is text, not a format
    text = points_to_csv(clouds)
    assert text == _points_to_csv_per_point(clouds)
    assert points_to_csv({"empty": np.empty((0, 2))}) == "x,y,center\n"


def test_plane_point_validation():
    with pytest.raises(ValueError):
        PlanePoint(float("nan"), 0.0)
