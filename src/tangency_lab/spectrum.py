"""Hessian spectra at symmetric critical points, assembled from chart Hessians.

The Hessian of the closed-form loss at a point fixed by a diagonal
permutation group splits along isotypic components, and each component
is read off the exact Hessian restricted to one fixed-point chart:

- t: the Hessian on the record's own chart (multiplicity one each);
- s: the Hessian on the (d-p-1, 1^(p+1)) chart compressed onto the
  standard-copy representatives (multiplicity d-p-1 each);
- x and y: Rayleigh quotients of one Hessian on the (d-p-2, 1^(p+2))
  chart (multiplicities quadratic in d),

for a record with p fixed coordinates. The record's coordinates on the
finer charts, the copies and the representatives are read off one entry
per orbit, and chart Hessians come from the orbit evaluator of `kernel`,
so no d x d matrix is formed and the cost does not grow with d. A dense
eigensolve over all d^2 elementary directions serves as the oracle at
small d.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    MultiplicityMismatch,
    RepresentativeDegenerate,
    TooLarge,
    UnsupportedFamily,
)
from .atlas import chart_hessian
from .kernel import hvp
from .symmetry import build_chart, orbit_coordinates, representative_entries, transfer


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with multiplicities and isotypic labels; sums to d^2."""

    entries: tuple  # of (eigenvalue, multiplicity, label)
    d: int


def _split_p(record):
    blocks = record.chart.group.blocks
    if blocks == (record.d,):
        return 0
    if blocks == (record.d - 1, 1):
        return 1
    raise UnsupportedFamily(f"spectra support partitions (d,) and (d-1,1), got {blocks}")


def _finer_chart(record, extra):
    """The (d-p-extra, 1^(p+extra)) chart and the record's coordinates on it."""
    d, p = record.d, _split_p(record)
    chart = build_chart(d, (d - p - extra,) + (1,) * (p + extra))
    return chart, transfer(record.chart, record.xi, chart)


def t_block_spectrum(record):
    """Eigenvalues of the Hessian restricted to the isotropy chart."""
    _split_p(record)
    return list(np.linalg.eigvalsh(chart_hessian(record.chart, record.xi)))


def _s_copies(chart, q):
    """Chart coordinates of the standard copies of a point permuting q indices.

    The three copies of representative('s', c, q), and for each fixed
    coordinate f >= q the vector u = (1, ..., 1, -(q-1)) put into column f
    and into row f.
    """
    i, j = chart.rep_rows, chart.rep_cols
    u = lambda k: representative_entries("s", 1, q, k, k)  # zero past q
    entries = [representative_entries("s", c, q, i, j) for c in (1, 2, 3)]
    for f in range(q, chart.d):
        entries.append(np.where(j == f, u(i), 0.0))
        entries.append(np.where(i == f, u(j), 0.0))
    return orbit_coordinates(chart, entries)


def s_block_spectrum(record):
    """Eigenvalues of the interaction matrix over the standard copies.

    Copies are normalized to unit Frobenius norm first; their span is
    invariant and the Hessian is exact, so the interaction matrix is
    symmetric up to rounding and symmetrization is safe.
    """
    chart, xi = _finer_chart(record, 1)
    copies = _s_copies(chart, record.d - _split_p(record))
    norms = np.linalg.norm(copies, axis=1)
    if np.any(norms < 1e-10):
        raise RepresentativeDegenerate("standard-copy representative has tiny norm")
    copies /= norms[:, None]
    alpha = copies @ chart_hessian(chart, xi) @ copies.T
    alpha = 0.5 * (alpha + alpha.T)
    return list(np.linalg.eigvalsh(alpha))


def _xy_eigenvalues(record):
    """The x and y eigenvalues: Rayleigh quotients of one chart Hessian."""
    q = record.d - _split_p(record)
    chart, xi = _finer_chart(record, 2)
    H = chart_hessian(chart, xi)
    out = []
    for label in ("x", "y"):
        r = orbit_coordinates(
            chart, representative_entries(label, 1, q, chart.rep_rows, chart.rep_cols))
        nrm2 = float(r @ r)
        if np.sqrt(nrm2) < 1e-10:
            raise RepresentativeDegenerate(f"{label}-representative has tiny norm")
        out.append(float(r @ H @ r) / nrm2)
    return out


def full_spectrum(record):
    """All d^2 Hessian eigenvalues grouped by isotypic label."""
    d = record.d
    p = _split_p(record)
    entries = []
    for ev in t_block_spectrum(record):
        entries.append((float(ev), 1, "t"))
    for ev in s_block_spectrum(record):
        entries.append((float(ev), d - p - 1, "s"))
    q = d - p
    x, y = _xy_eigenvalues(record)
    entries.append((x, (q - 1) * (q - 2) // 2, "x"))
    entries.append((y, q * (q - 3) // 2, "y"))
    total = sum(mult for _, mult, _ in entries)
    if total != d * d:
        raise MultiplicityMismatch(f"multiplicities sum to {total}, expected {d * d}")
    return SpectrumReport(entries=tuple(entries), d=d)


def predicted_spectrum(family, d):
    """Two-term large-d eigenvalue approximations, grouped like full_spectrum.

    Every entry is the sum of a leading term and one correction in powers
    of d**-0.5. Blocks are sorted ascending at the evaluation width so
    entries pair off against computed spectra slot by slot.
    """
    pi = np.pi
    rd = np.sqrt(d)
    t_growth = [
        d / (2 * pi) + (-pi**2 - 4 + 6 * pi) / (4 * pi * (2 - pi)),
        d / 4 + (-pi**2 - 2 * pi + 4) / (4 * pi * (2 - pi)),
    ]
    if family == "C0I":
        p = 0
        t = list(t_growth)
        s = [(pi - 2) / (4 * pi), 0.25 - 2 / (pi * rd), d / 4 + 0.25]
        x = (pi - 2) / (4 * pi) - 1 / (pi * rd)
        y = (pi + 2) / (4 * pi) - 1 / (pi * rd)
    elif family == "C0II":
        p = 0
        t = list(t_growth)
        s = [(pi - 2) / (4 * pi), 0.25 + (pi - 1) / (pi**2 * d), d / 4 + 0.25]
        x = (pi - 2) / (4 * pi)
        y = (pi + 2) / (4 * pi)
    elif family == "C1I":
        p = 1
        t = [
            (pi - 2) / (4 * pi) + 4 * (pi - 1) / (pi**3 * d),
            0.25 + (pi**3 + 10 * pi**2 - 50 * pi + 24) / (pi**4 * d**2),
            d / 4 + 0.25,
        ] + t_growth
        s = [
            (pi - 2) / (4 * pi) + (2 - pi) / (2 * pi**2 * d),
            (pi - 2) / (4 * pi),
            0.25 + (2 * pi - 3) / (pi**2 * d),
            (pi + 2) / (4 * pi) + 3 * (2 - pi) / (2 * pi**2 * d),
            d / 4 + 0.25,
        ]
        x = (pi - 2) / (4 * pi) - 1 / (pi * rd)
        y = (pi + 2) / (4 * pi) - 1 / (pi * rd)
    elif family == "C1II":
        p = 1
        t = [
            (pi - 2) / (4 * pi) + 2 * (pi - 2) / (pi**2 * d),
            0.25 + (2 * pi - 1) / (pi**2 * d),
            d / 4 + 0.25,
        ] + t_growth
        s = [
            (pi - 2) / (4 * pi) - 1 / (pi**2 * rd),
            (pi - 2) / (4 * pi) + (-(pi**3) / 2 - 8 - pi) / (pi**4 * d),
            0.25 + (-2 * pi**2 - 8 + 7 * pi) / (pi**3 * d),
            (pi + 2) / (4 * pi) - 1 / (pi**2 * rd),
            d / 4 + 0.25,
        ]
        x = (pi - 2) / (4 * pi) - 1 / (pi * d)
        y = (pi + 2) / (4 * pi)
    else:
        raise UnsupportedFamily(f"unknown family {family!r}")
    q = d - p
    entries = [(float(ev), 1, "t") for ev in sorted(t)]
    entries += [(float(ev), d - p - 1, "s") for ev in sorted(s)]
    entries.append((float(x), (q - 1) * (q - 2) // 2, "x"))
    entries.append((float(y), q * (q - 3) // 2, "y"))
    return SpectrumReport(entries=tuple(entries), d=d)


def brute_spectrum(W):
    """Dense Hessian spectrum via hvp on all d^2 elementary directions."""
    W = np.asarray(W, dtype=float)
    d = W.shape[0]
    if d > 12:
        raise TooLarge("dense spectra are limited to d <= 12")
    n = d * d
    H = hvp(W, np.eye(n).reshape(n, d, d)).reshape(n, n)
    H = 0.5 * (H + H.T)
    return list(np.linalg.eigvalsh(H))


def expand_report(report):
    """Sorted list of all d^2 eigenvalues, multiplicities expanded."""
    out = []
    for ev, mult, _ in report.entries:
        out.extend([ev] * mult)
    return sorted(out)
