"""Hessian spectra at symmetric critical points, assembled from chart Hessians.

The Hessian of the closed-form loss at a point fixed by a diagonal
permutation group commutes with that group, so it splits along the
isotypic components of the permutations of the q = d - p non-fixed
coordinates (for a record on the (q, 1^p) chart). Each component is
read off one chart: with c = 0 for t, 1 for s and 2 for x and y, the
chart Hessian on the (q-c, 1^(p+c)) chart compressed onto the range of
`symmetry.chart_isotypic_projector` (special = the p fixed coordinates)
has the component's eigenvalues, each of multiplicity the dimension of
its irreducible representation (1, q-1, (q-1)(q-2)/2 and q(q-3)/2).
Coordinates move between charts one entry per orbit, and chart Hessians
come from the orbit evaluator of `kernel`, so no d x d matrix is formed
and the cost does not grow with d. A dense eigensolve over all d^2
elementary directions serves as the oracle at small d.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MultiplicityMismatch, TooLarge, UnsupportedFamily
from .atlas import chart_hessian
from .kernel import hvp
from .symmetry import build_chart, chart_isotypic_projector, transfer


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues with multiplicities and isotypic labels; sums to d^2."""

    entries: tuple  # of (eigenvalue, multiplicity, label)
    d: int


def _split_p(record):
    """The number p of fixed coordinates of a record on a (q, 1^p) chart."""
    _, *rest = record.chart.group.blocks
    if any(b != 1 for b in rest):
        raise UnsupportedFamily(
            f"spectra support partitions (q, 1^p), got {record.chart.group.blocks}")
    return len(rest)


def full_spectrum(record):
    """All d^2 Hessian eigenvalues grouped by isotypic label."""
    d = record.d
    p = _split_p(record)
    q = d - p
    mult = {"t": 1, "s": q - 1, "x": (q - 1) * (q - 2) // 2, "y": q * (q - 3) // 2}
    entries = []
    for c, labels in enumerate((("t",), ("s",), ("x", "y"))):
        chart = build_chart(d, (q - c,) + (1,) * (p + c))
        H = chart_hessian(chart, transfer(record.chart, record.xi, chart))
        for label in labels:
            w, V = np.linalg.eigh(chart_isotypic_projector(chart, label, range(q, d)))
            Q = V[:, w > 0.5]
            entries += [(float(ev), mult[label], label)
                        for ev in np.linalg.eigvalsh(Q.T @ H @ Q)]
    total = sum(m for _, m, _ in entries)
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
