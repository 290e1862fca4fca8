"""Families of symmetric critical points: series seeds and Newton refinement.

Four families are supported, tagged C0I, C0II, C1I, C1II. The C0 pair
lives in the two-parameter chart of the full diagonal symmetry, the C1
pair in the five-parameter chart fixing the first d-1 coordinates. Seeds
for C0I, C0II and C1I come from a truncated power-series table in 1/d
shipped with the package; C1II has no trustworthy series (the only
printed candidate duplicates the C1I one), so it is recovered by Newton
from one perturbation of the identity and accepted only when its
fingerprints (isotropy, sign type, loss scale) match.
"""

import functools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import (
    AmbiguousType,
    DimensionMismatch,
    NewtonDiverged,
    NoConvergence,
    SingularJacobian,
    TangencyLabError,
    UnsupportedFamily,
)
from .kernel import OrbitPoint
from .stats import counts
from .symmetry import (
    FixedPointChart,
    YoungPartitionGroup,
    build_chart,
    detect_diagonal_isotropy,
    orbit_coordinates,
)

FAMILIES = ("C0I", "C0II", "C1I", "C1II")

#: smallest supported width; below this the families are unreliable
#: (arcs of critical points can bifurcate).
MIN_D = 7

# expected loss of C1II at width d, used to validate recovered seeds
def _c1ii_loss_target(d):
    return (np.pi ** 2 - 4) / (2 * np.pi ** 2 * d) - 32.0 / (3 * np.pi ** 4 * d ** 1.5)


def predicted_loss(family, d):
    """Truncated large-d loss approximation for a family at width d.

    Type I families approach 1/2 - 1/pi from below with a d**-0.5
    correction; C0II sits exactly at zero loss; C1II decays like 1/d.
    """
    if family in ("C0I", "C1I"):
        return 0.5 - 1.0 / np.pi - 4.0 / (3.0 * np.pi * np.sqrt(d))
    if family == "C0II":
        return 0.0
    if family == "C1II":
        return _c1ii_loss_target(d)
    raise UnsupportedFamily(f"unknown family {family!r}")


@dataclass(frozen=True)
class PuiseuxApprox:
    """Truncated series in d**(-1/2): sum of coeff * d**(-exponent)."""

    terms: tuple

    def __post_init__(self):
        last = -np.inf
        for coeff, exponent in self.terms:
            if not np.isfinite(coeff):
                raise ValueError("series coefficients must be finite")
            if exponent < 0 or 2 * exponent != round(2 * exponent):
                raise ValueError("exponents must be nonnegative half-integers")
            if exponent <= last:
                raise ValueError("exponents must be strictly increasing")
            last = exponent


def eval_series(series, d):
    """Evaluate the truncated series at integer width d >= 4."""
    if d < 4:
        raise DimensionMismatch("series are used for d >= 4")
    return float(sum(c * d ** -e for c, e in series.terms))


@functools.lru_cache(maxsize=1)
def series_table():
    """Seed-coefficient table: family tag -> parameter name -> PuiseuxApprox."""
    raw = json.loads(
        resources.files("tangency_lab").joinpath("data/puiseux_series.json").read_text()
    )
    return {
        fam: {
            name: PuiseuxApprox(tuple((t["value"], t["exponent"]) for t in terms))
            for name, terms in xis.items()
        }
        for fam, xis in raw.items()
    }


@dataclass(frozen=True)
class CriticalPointRecord:
    family: str
    d: int
    chart: FixedPointChart
    xi: np.ndarray
    loss_value: float
    grad_norm: float
    type_label: str


def _type_label(chart, xi):
    # coordinate 0 is the diagonal orbit of the big block
    v = float(xi[0]) / chart.layout.sqrt_sizes[0]
    if abs(v) < 0.5:
        raise AmbiguousType(f"big-block diagonal {v:.3f} is not near -1 or +1")
    return "I" if v < 0 else "II"


def chart_point(chart, xi):
    """The loss and its chart derivatives at chart coordinates xi, from one
    evaluation of the orbit terms (a `kernel.OrbitPoint`); xi may also be
    a stack (B, n) of points, for the loss, gradient and gradient-Hessian
    of each."""
    return OrbitPoint(chart.layout, xi)


def chart_gradient(chart, xi):
    """Gradient of the loss restricted to the chart (orthonormal coordinates)."""
    return chart_point(chart, xi).gradient()


def chart_hessian(chart, xi):
    """Exact Hessian of the restricted loss, from one batched evaluation over the chart basis."""
    return chart_point(chart, xi).gradient_hessian()[1]


#: refine_critical stops at this chart-gradient norm, or fails after
#: this many Newton steps
_REFINE_TOL = 1e-11
_REFINE_MAX_ITER = 50


def refine_critical(chart, xi0):
    """Newton-polish a chart seed to a critical point of the restricted loss.

    Each step solves with the exact chart Hessian; an iterate's gradient,
    Hessian and, for the last one, loss come from one `chart_point`.
    Raises NewtonDiverged if the residual fails to decrease five times in
    a row or the iteration budget runs out, SingularJacobian if the
    Hessian condition number exceeds 1e14.
    """
    xi = np.asarray(xi0, dtype=float).copy()
    point = chart_point(chart, xi)
    g = point.gradient()
    res = np.linalg.norm(g)
    stall = 0
    for _ in range(_REFINE_MAX_ITER):
        if res <= _REFINE_TOL:
            break
        J = point.gradient_hessian()[1]
        if np.linalg.cond(J) > 1e14:
            raise SingularJacobian("chart Hessian is numerically singular")
        xi = xi + np.linalg.solve(J, -g)
        counts["refine.iterations"] += 1
        point = chart_point(chart, xi)
        g = point.gradient()
        new_res = np.linalg.norm(g)
        stall = stall + 1 if new_res >= res else 0
        res = new_res
        if stall >= 5:
            raise NewtonDiverged(f"residual stalled at {res:.3e}")
    if res > _REFINE_TOL:
        raise NewtonDiverged(f"residual {res:.3e} above tolerance after {_REFINE_MAX_ITER} iterations")

    type_label = _type_label(chart, xi)
    p = chart.d - chart.group.blocks[0]
    # the gradient of a fixed matrix is fixed, so its Frobenius norm is
    # the norm of the chart gradient
    return CriticalPointRecord(
        family=f"C{p}{type_label}",
        d=chart.d,
        chart=chart,
        xi=xi,
        loss_value=point.loss(),
        grad_norm=float(res),
        type_label=type_label,
    )


def _series_seed(family, d):
    tab = series_table()[family]
    # the series give the entry value on each orbit, in chart order
    if family in ("C0I", "C0II"):
        chart = build_chart(d, YoungPartitionGroup((d,)))
    else:
        chart = build_chart(d, YoungPartitionGroup((d - 1, 1)))
    values = [eval_series(tab[f"xi{k}"], d) for k in range(1, chart.dim + 1)]
    return chart, orbit_coordinates(chart, values)


def _c1ii_seed(d):
    chart = build_chart(d, YoungPartitionGroup((d - 1, 1)))
    target = _c1ii_loss_target(d)
    # the target formula itself truncates at O(1/d^2); widen the relative
    # gate accordingly so the true point is not rejected at moderate d
    gate = max(0.1 * target, 2.5 / d ** 2)
    # identity with row/column d overwritten by a type-I-style pattern:
    # cross entries near 2/d, last diagonal entry swung to about -1.
    xi0 = orbit_coordinates(chart, (1.0, 0.0, 2.0 / d, 2.0 / d, -1.0 + 2.0 / d))
    try:
        rec = refine_critical(chart, xi0)
    except TangencyLabError:
        rec = None
    if (rec is None
            or rec.type_label != "II"
            or rec.loss_value <= 1e-8  # fell back to the global minimum
            or detect_diagonal_isotropy(chart, rec.xi).blocks != (d - 1, 1)
            or (d >= 20 and abs(rec.loss_value - target) > gate)
            or (d < 20 and not 0.1 * target < rec.loss_value < 5 * target)):
        raise NoConvergence(f"no identity perturbation recovered C1II at d={d}")
    return chart, rec.xi


def seed_minimum(family, d):
    """Chart and chart coordinates of the seed for one of the four families."""
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}")
    if d < MIN_D:
        raise DimensionMismatch(f"families are supported for d >= {MIN_D}")
    if family == "C1II":
        return _c1ii_seed(d)
    return _series_seed(family, d)


@functools.lru_cache(maxsize=64)
def refined_minimum(family, d):
    """The refined critical point of a family at width d, memoized.

    Every caller receives the same record, so its `xi` is read-only.
    """
    rec = refine_critical(*seed_minimum(family, d))
    rec.xi.setflags(write=False)
    return rec
