"""Planar quartic with the symmetries of the square.

h(x, y) = x^4 + x^2 y^2 + y^4 - 2 x^2 - 2 y^2 has nine critical points:
a local maximum at the origin, four saddles on the axes, and four minima
on the diagonals at coordinate sqrt(2/3). Everything about its tangency
sets is computable in closed form, which makes it a full end-to-end
check for the arc tracer: the set of points where grad h is parallel to
the ray from a chosen center contains every critical point, and arcs
leave a center tangent to Hessian eigenvectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoint, NonFiniteGrid
from .stats import counts
from .tracer import TraceConfig, continue_arc

__all__ = [
    "PlanePoint",
    "CRITICAL_POINTS",
    "b2_orbit",
    "h",
    "grad_h",
    "hess_h",
    "tangency_residual",
    "sample_tangency_set",
    "trace_from",
    "points_to_csv",
]


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("plane points must be finite")


def _xy(p):
    if isinstance(p, PlanePoint):
        return p.x, p.y
    x, y = p
    return float(x), float(y)


_A = math.sqrt(2.0 / 3.0)

CRITICAL_POINTS = (
    PlanePoint(0.0, 0.0),
    PlanePoint(1.0, 0.0),
    PlanePoint(-1.0, 0.0),
    PlanePoint(0.0, 1.0),
    PlanePoint(0.0, -1.0),
    PlanePoint(_A, _A),
    PlanePoint(_A, -_A),
    PlanePoint(-_A, _A),
    PlanePoint(-_A, -_A),
)


def b2_orbit(p):
    """The orbit of p under the eight symmetries of the square."""
    x, y = _xy(p)
    seen = []
    for u, v in ((x, y), (y, x)):
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                q = (sx * u, sy * v)
                if q not in seen:
                    seen.append(q)
    return tuple(PlanePoint(*q) for q in seen)


def h(p):
    x, y = _xy(p)
    return x**4 + x**2 * y**2 + y**4 - 2.0 * x**2 - 2.0 * y**2


def _grad(x, y):
    """(gx, gy) of grad h at scalars or broadcast arrays x, y."""
    return 4.0 * x**3 + 2.0 * x * y**2 - 4.0 * x, 2.0 * x**2 * y + 4.0 * y**3 - 4.0 * y


def grad_h(p):
    return np.array(_grad(*_xy(p)))


def hess_h(p):
    x, y = _xy(p)
    return np.array(
        [
            [12.0 * x**2 + 2.0 * y**2 - 4.0, 4.0 * x * y],
            [4.0 * x * y, 2.0 * x**2 + 12.0 * y**2 - 4.0],
        ]
    )


def tangency_residual(c, p):
    """Cross product of grad h at p with the ray c -> p.

    Vanishes exactly when the gradient is parallel to the ray, i.e. when
    p lies on the tangency set of the center c (critical points of h
    included, where the gradient is zero).
    """
    cx, cy = _xy(c)
    px, py = _xy(p)
    dx, dy = px - cx, py - cy
    if dx == 0.0 and dy == 0.0:
        raise CoincidentPoint("tangency residual is undefined at the center itself")
    gx, gy = _grad(px, py)
    return float(gx * dy - gy * dx)


def _grid_residual(cx, cy, xs):
    # `_grad` at nodes (xs[i], xs[j]) in place, a column against a row
    X, Y = xs[:, None], xs[None, :]
    gx = 2.0 * X * Y**2
    gx += 4.0 * X**3
    gx -= 4.0 * X
    gx *= Y - cy
    gy = 2.0 * X**2 * Y
    gy += 4.0 * Y**3
    gy -= 4.0 * Y
    gy *= X - cx
    gx -= gy
    return gx


def sample_tangency_set(c, resolution=512, extent=(-2.0, 2.0)):
    """Zero contour of the tangency residual of center c on a square grid.

    Marching squares with linear interpolation along cell edges: one
    point per crossed edge, with a 1e-6 disk around the center removed,
    as an (N, 2) array of rows in lexicographic order. resolution is the
    number of cells per axis and must be at least 64. Raises
    NonFiniteGrid when the residual or a point is not finite.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    lo, hi = float(extent[0]), float(extent[1])
    if not lo < hi:
        raise ValueError("extent must be an increasing pair")
    cx, cy = _xy(c)
    xs = np.linspace(lo, hi, resolution + 1)
    with np.errstate(all="ignore"):
        F = _grid_residual(cx, cy, xs)

        # vertical edges join nodes (i, j) and (i, j+1), horizontal ones
        # (i, j) and (i+1, j); an edge is crossed unless its end values
        # share a strict sign or are both zero
        pts = []
        for di, dj in ((0, 1), (1, 0)):
            v0 = F[:resolution + 1 - di, :resolution + 1 - dj]
            v1 = F[di:, dj:]
            i, j = np.nonzero(~((v0 == 0.0) & (v1 == 0.0)) & ~(v0 * v1 > 0.0))
            v0, v1 = v0[i, j], v1[i, j]
            t = v0 / (v0 - v1)
            x0, x1, y0, y1 = xs[i], xs[i + di], xs[j], xs[j + dj]
            pts.append(np.column_stack((x0 + t * (x1 - x0), y0 + t * (y1 - y0))))
    P = np.concatenate(pts)
    if not (np.isfinite(F).all() and np.isfinite(P).all()):
        raise NonFiniteGrid("the tangency residual or a point sampled from it is not finite")
    counts["toy.crossed_edges"] += len(P)
    # only a point within 2e-6 of the center in both coordinates can lie
    # in the disk, and math.hypot decides those
    near = np.flatnonzero((np.abs(P - (cx, cy)) <= 2e-6).all(axis=1)).tolist()
    P = np.delete(P, [k for k in near if math.hypot(P[k, 0] - cx, P[k, 1] - cy) <= 1e-6], axis=0)
    P = P[np.lexsort((P[:, 1], P[:, 0]))]
    counts["toy.points"] += len(P)
    return P


def trace_from(center, direction, cfg=None):
    """Trace a tangency arc of h from a critical center.

    direction is a unit 2-vector, normally a Hessian eigenvector at the
    center. Returns (samples, termination, terminal_radius) with samples
    a tuple of (radius, point, multiplier) entries.
    """
    cfg = cfg or TraceConfig()
    c = np.array(_xy(center))
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    rayleigh = float(v @ hess_h(c) @ v)
    grads = lambda P: np.array([grad_h(p) for p in P])
    samples, termination, terminal = continue_arc(
        grads, lambda P: (grads(P), np.array([hess_h(p) for p in P])), c, v, rayleigh, cfg
    )
    return samples, termination, terminal


def points_to_csv(clouds):
    """CSV rows (x, y, center-id) for a dict mapping id -> (N, 2) point array."""
    parts = ["x,y,center\n"]
    for cid in sorted(clouds):
        row = "%.17g,%.17g," + str(cid).replace("%", "%%") + "\n"
        parts.append(row * len(clouds[cid]) % tuple(np.ravel(clouds[cid]).tolist()))
    return "".join(parts)
