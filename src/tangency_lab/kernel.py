"""Closed-form expected loss of the student-teacher ReLU network.

The student and the teacher each have d ReLU units with unit second-layer
weights; the teacher weight matrix is fixed to the identity.  Under standard
Gaussian inputs the population loss is a finite sum of arccos-kernel terms,

    phi(w, v) = (1/pi) |w||v| (sin t + (pi - t) cos t),   t = angle(w, v),

and k = phi/2 equals E[relu(<w,x>) relu(<v,x>)].  This module evaluates the
loss, its analytic gradient, and exact Hessian-vector products on d x d
matrices, and the same formulas on fixed-point charts from one
representative row per block (`OrbitPoint`, which serves the loss, the
chart gradient and the chart Hessian at one point, or at each point of a
stack, from one evaluation of the orbit terms).
"""

import numpy as np

from .errors import DegenerateVector, DimensionMismatch, NearParallelRows
from .stats import counts

EPS_NORM = 1e-12
# Distinct antiparallel rows sit on the angle-gradient singularity; the
# parallel side has a smooth limit and is allowed.
ANTIPARALLEL_TOL = 1e-9


def _as_weight_matrix(W):
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {W.shape}")
    if W.shape[0] < 4:
        raise DimensionMismatch(f"d >= 4 required, got d = {W.shape[0]}")
    if not np.all(np.isfinite(W)):
        raise DegenerateVector("weight matrix has non-finite entries")
    return W


def _row_norms(W):
    n = np.linalg.norm(W, axis=1)
    if np.any(n <= EPS_NORM):
        raise DegenerateVector("a student row has norm <= 1e-12")
    return n


def _angles_student_student(W, n):
    cos = np.clip((W @ W.T) / np.outer(n, n), -1.0, 1.0)
    return np.arccos(cos)

def _angles_student_teacher(W, n):
    cos = np.clip(W / n[:, None], -1.0, 1.0)
    return np.arccos(cos)


def loss(W):
    """Population loss 0.5 E[(student(x) - teacher(x))^2] at weight matrix W.

    Parameters
    ----------
    W : (d, d) array_like
        Student first-layer weights, d >= 4; every row must have norm > 1e-12.

    Returns
    -------
    float
        0.5 [ sum_ij k(w_i, w_j) - 2 sum_ij k(w_i, e_j) + sum_ij k(e_i, e_j) ]
        with k = phi/2.  Nonnegative up to round-off; zero at W = I.
    """
    W = _as_weight_matrix(W)
    d = W.shape[0]
    n = _row_norms(W)

    theta_ww = _angles_student_student(W, n)
    g_ww = np.sin(theta_ww) + (np.pi - theta_ww) * np.cos(theta_ww)
    s_ww = float(np.sum(np.outer(n, n) * g_ww)) / (2.0 * np.pi)

    theta_wt = _angles_student_teacher(W, n)
    g_wt = np.sin(theta_wt) + (np.pi - theta_wt) * np.cos(theta_wt)
    s_wt = float(np.sum(n[:, None] * g_wt)) / (2.0 * np.pi)

    s_tt = d / 2.0 + d * (d - 1) / (2.0 * np.pi)
    return 0.5 * (s_ww - 2.0 * s_wt + s_tt)


def _checked_angles(W):
    """Row norms, unit rows and both angle matrices of a valid weight matrix.

    Raises NearParallelRows for distinct antiparallel rows, where the
    angle gradient is singular.
    """
    W = _as_weight_matrix(W)
    n = _row_norms(W)
    w_hat = W / n[:, None]

    theta_ww = _angles_student_student(W, n)
    theta_wt = _angles_student_teacher(W, n)
    # self angles are 0, so the largest angle comes from a distinct pair
    if np.pi - max(theta_ww.max(), theta_wt.max()) < ANTIPARALLEL_TOL:
        raise NearParallelRows("antiparallel row pair within 1e-9 of the singularity")
    return W, n, w_hat, theta_ww, theta_wt


def grad_loss(W):
    """Analytic gradient of the loss with respect to W.

    Row i is sum_j d_w k(w_i, w_j) - sum_j d_w k(w_i, e_j), where for w not
    parallel to v

        d_w k(w, v) = (1/2pi) (|v| sin t * w/|w| + (pi - t) v),

    and the smooth limit d_w k(w, w) = w/2 covers coincident directions (so
    the self term contributes w_i/2, i.e. the derivative of k(w, w) = |w|^2/2
    split once per slot).  Exact antiparallel row pairs raise NearParallelRows
    instead of silently using a one-sided subgradient.

    Parameters
    ----------
    W : (d, d) array_like
        Weight matrix as for `loss`.

    Returns
    -------
    (d, d) ndarray
        The Euclidean gradient; matches central finite differences of `loss`
        to about 1e-6 per component at step 1e-6 (1 + |W|).
    """
    W, n, w_hat, theta_ww, theta_wt = _checked_angles(W)
    # a_i = sum_j |w_j| sin t_ij (students), b_i the same against teacher rows.
    a = np.sum(np.sin(theta_ww) * n[None, :], axis=1)
    b = np.sum(np.sin(theta_wt), axis=1)
    grad = (a - b)[:, None] * w_hat + (np.pi - theta_ww) @ W - (np.pi - theta_wt)
    return grad / (2.0 * np.pi)


def _inverse_sine(sin):
    """1 / sin, and 0 where the rows are parallel (sin = 0)."""
    return np.divide(1.0, sin, out=np.zeros_like(sin), where=sin > 0.0)


def hvp(W, V):
    """Exact Hessian-vector product of the loss at W.

    Differentiating `grad_loss` along V gives row i of 2 pi H[V] as

        (sum_j n'_j sin t_ij) u_i + (a_i - b_i) u'_i + sum_j (pi - t_ij) v_j
          + sum_j t'_ij (n_j cos t_ij u_i - w_j)
          - sum_j s'_ij (cos s_ij u_i - e_j),

    with n_i = |w_i|, u_i = w_i / n_i, t_ij and s_ij the student-student
    and student-teacher angles, a_i and b_i the sine sums of `grad_loss`,
    and the first-order changes n'_i = u_i . v_i, u'_i = (v_i - n'_i u_i)
    / n_i, t'_ij = -(u'_i . u_j + u_i . u'_j) / sin t_ij and
    s'_ij = -u'_ij / sin s_ij. The bracket multiplying each angle change
    vanishes as its two rows become parallel while the angle change stays
    bounded, so parallel pairs, every self pair t_ii = 0 among them,
    contribute no angle terms: the parallel-row limit `grad_loss` takes
    one order lower. Antiparallel rows raise NearParallelRows.

    The terms that depend on W alone are computed once per call; the
    directions of a stack are then processed one at a time, so only one
    direction's temporaries are alive at once.

    Parameters
    ----------
    W : (d, d) array_like
        Base point.
    V : (d, d) or (m, d, d) array_like
        One direction or a stack of m directions.

    Returns
    -------
    ndarray of V's shape
        H[V] for each direction, H the Hessian of `loss` at W.
    """
    W, n, w_hat, theta_ww, theta_wt = _checked_angles(W)
    V = np.asarray(V, dtype=float)
    if V.ndim not in (2, 3) or V.shape[-2:] != W.shape:
        raise DimensionMismatch(
            f"directions must have shape {W.shape} or (m, *{W.shape}), got {V.shape}"
        )
    # terms that depend on W alone, in place where possible: at large d the
    # d x d temporaries, not the flops, set the peak memory
    np.fill_diagonal(theta_ww, 0.0)
    sin_ww = np.sin(theta_ww)
    inv_ww = _inverse_sine(sin_ww)
    cot_n_ww = np.cos(theta_ww) * inv_ww * n[None, :]
    pi_ww = np.subtract(np.pi, theta_ww, out=theta_ww)
    sin_wt = np.sin(theta_wt)
    a_minus_b = sin_ww @ n - np.sum(sin_wt, axis=1)
    inv_wt = _inverse_sine(sin_wt)
    del sin_wt
    cot_wt = np.cos(theta_wt, out=theta_wt)
    cot_wt *= inv_wt
    # (a_i - b_i) u'_i + sum_j s'_ij e_j is du_coef * u', as s'_ij = -u'_ij / sin s_ij
    du_coef = np.subtract(a_minus_b[:, None], inv_wt, out=inv_wt)

    d = W.shape[0]
    out = np.empty(V.shape)
    for Vk, Hk in zip(V.reshape(-1, d, d), out.reshape(-1, d, d)):
        dn = np.einsum("ij,ij->i", Vk, w_hat)  # n'
        du = Vk - dn[:, None] * w_hat
        du /= n[:, None]  # u'
        mt = du @ w_hat.T
        mt = mt + mt.T  # -t' sin t
        coef = sin_ww @ dn - np.einsum("ij,ij->i", mt, cot_n_ww) + np.einsum("ij,ij->i", du, cot_wt)
        mt *= inv_ww  # -t'
        np.matmul(mt, W, out=Hk)
        del mt
        Hk += pi_ww @ Vk
        Hk += coef[:, None] * w_hat
        du *= du_coef
        Hk += du
        Hk /= 2.0 * np.pi
    return out


# ------------------------------------------------------------------
# Orbit-reduced evaluation on fixed-point charts.
#
# A matrix fixed by a diagonal Young subgroup with q blocks takes O(q^2)
# distinct values, and so do its row norms, Gram entries and angles. An
# `OrbitPoint` evaluates the loss, the chart gradient and the exact chart
# Hessian from chart coordinates on a `symmetry.OrbitLayout`: every row
# sum runs over the q representative rows with their block sizes as
# weights, every column sum over the m <= 3q representative coordinates
# with their weights, so the cost does not grow with d. They are the
# formulas of `loss`, `grad_loss` and `hvp` term by term, which stay as
# the d x d oracle.
#
# The orbit terms, the loss, the gradient and the Hessian take one point
# or a stack of points on a leading axis, and each row of a stack gets
# the bits of that row evaluated alone. That holds because every array a
# BLAS product reads is C-ordered slice by slice, as it is for one point:
# fancy indexing of a stack returns other memory orders, so the gathers
# use `take` or copy to C order, and a dot product per row is a stacked
# (1, k) @ (k, 1) product, which reaches the same BLAS kernel as `a @ b`.


def _g(theta):
    return np.sin(theta) + (np.pi - theta) * np.cos(theta)


def _orbit_terms(layout, xi):
    """Representative submatrix, row norms and both angle arrays at xi.

    For one point xi (n,) returns WC (m, m), WR (q, m) its representative
    rows, n (q,), nC (m,) the norms of the m representative rows, and the
    (q, m) student and teacher angles; self angles are exactly 0. For a
    stack xi (B, n) each array gains the leading axis B, and the stack
    raises if any of its rows would.
    """
    xi = np.ascontiguousarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != layout.sqrt_sizes.shape[0]:
        raise DimensionMismatch(
            f"expected {layout.sqrt_sizes.shape[0]} coordinates, got shape {xi.shape}"
        )
    counts["orbit.stacked_calls" if xi.ndim == 2 else "orbit.single_calls"] += 1
    counts["orbit.rows"] += len(xi) if xi.ndim == 2 else 1
    if not np.isfinite(xi).all():
        raise DegenerateVector("chart coordinates are not finite")
    values = xi / layout.sqrt_sizes
    WC = values.take(layout.cc_orbit, axis=-1)
    WR = values.take(layout.row_orbit, axis=-1)
    n = np.sqrt((WR * WR) @ layout.weights)
    if n.min() <= EPS_NORM:
        raise DegenerateVector("a student row has norm <= 1e-12")
    nC = n.take(layout.block_of, axis=-1)
    # minimum/maximum in place of np.clip: these arrays are tiny and
    # every call's fixed cost counts in the continuation loops
    gram = ((WR * layout.weights) @ WC.swapaxes(-1, -2)).take(layout.twin, axis=-1)
    cos = gram / (n[..., :, None] * nC[..., None, :])
    theta_ww = np.arccos(np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos))
    theta_ww[layout.self_angle] = 0.0
    cos = WR / n[..., None]
    theta_wt = np.arccos(np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos))
    return WC, WR, n, nC, theta_ww, theta_wt


def _orbit_loss(layout, terms):
    """`loss` at the point, or at each point of the stack, of these orbit terms."""
    _, _, n, nC, theta_ww, theta_wt = terms
    # (1, q) @ (q, m) @ (m, 1) per point: a vector-matrix product, then the
    # dot product that `rows @ M @ w` ends with on one point
    rows = (n * layout.row_weights)[..., None, :]
    w = layout.weights[:, None]
    s_ww = (rows @ (_g(theta_ww) * nC[..., None, :]) @ w)[..., 0, 0] / (2.0 * np.pi)
    s_wt = (rows @ _g(theta_wt) @ w)[..., 0, 0] / (2.0 * np.pi)
    d = layout.d
    s_tt = d / 2.0 + d * (d - 1) / (2.0 * np.pi)
    return 0.5 * (s_ww - 2.0 * s_wt + s_tt)


def _orbit_gradient(layout, terms):
    """Chart gradient at the point, or at each point of the stack, of these
    orbit terms, and the terms the Hessian shares with it: both sine
    arrays, a - b and the weighted pi - t of the student angles.

    Raises NearParallelRows if any point has antiparallel rows.
    """
    WC, WR, n, nC, theta_ww, theta_wt = terms
    # self angles are 0, so the largest angle comes from a distinct pair
    if np.pi - max(theta_ww.max(), theta_wt.max()) < ANTIPARALLEL_TOL:
        raise NearParallelRows("antiparallel row pair within 1e-9 of the singularity")
    w = layout.weights
    sin_ww = np.sin(theta_ww)
    sin_wt = np.sin(theta_wt)
    a_minus_b = (sin_ww * nC[..., None, :]) @ w - sin_wt @ w
    pi_ww = (np.pi - theta_ww) * w
    G = a_minus_b[..., None] * (WR / n[..., None]) + pi_ww @ WC - (np.pi - theta_wt)
    # a gather from a stack is not C-ordered; the dot products of its rows need it
    G = np.ascontiguousarray(G[..., layout.out_row, layout.out_col])
    g = layout.sqrt_sizes * G / (2.0 * np.pi)
    return g, sin_ww, sin_wt, a_minus_b, pi_ww


def _per_direction(a):
    """A point's (r, c) array, or a stack's (..., r, c), with an axis
    before its own on which it broadcasts over the chart directions."""
    return a[..., None, :, :]


class OrbitPoint:
    """The loss and its chart derivatives at one point of a chart, or at
    each point of a stack.

    Construction validates the chart coordinates xi, one point (n,) or a
    stack (B, n) (DimensionMismatch, DegenerateVector), and computes the
    orbit terms once; `loss`, `gradient` and `gradient_hessian` read them
    and keep what they computed, so each is evaluated at most once per
    point and the gradient-Hessian reuses the gradient. On a stack, each
    gives one row per point, with the bits of that point evaluated
    alone. The derivatives raise NearParallelRows at antiparallel rows,
    where the loss is still defined; on a stack, if any row has them.
    """

    __slots__ = ("layout", "_terms", "_loss", "_grad", "_grad_hess")

    def __init__(self, layout, xi):
        self.layout = layout
        self._terms = _orbit_terms(layout, xi)
        self._loss = self._grad = self._grad_hess = None

    def loss(self):
        """`loss` at the fixed matrix with these chart coordinates."""
        if self._loss is None:
            self._loss = _orbit_loss(self.layout, self._terms)
        return self._loss

    def _gradient_terms(self):
        if self._grad is None:
            self._grad = _orbit_gradient(self.layout, self._terms)
        return self._grad

    def gradient(self):
        """Chart gradient: sqrt(|o|) times `grad_loss` at one entry of each orbit o."""
        return self._gradient_terms()[0]

    def gradient_hessian(self):
        """Chart gradient and exact chart Hessian, at the point or at each
        point of the stack.

        Hessian entry (o, o') is sqrt(|o|) times H[B_o'] at one entry of
        orbit o, H[B_o'] being `hvp` along chart basis direction B_o'
        (fixed like B_o'); the whole stack of basis directions is
        processed at once, on an axis before each point's own arrays, and
        the result is symmetrized.
        """
        if self._grad_hess is None:
            counts["orbit.hessian_rows"] += self._terms[2][..., 0].size  # one per point
            g, sin_ww, sin_wt, a_minus_b, pi_ww = self._gradient_terms()
            layout = self.layout
            WC, _, _, nC, theta_ww, theta_wt = self._terms
            w = layout.weights
            R = layout.row_reps
            UC = WC / nC[..., :, None]
            UR = UC.take(R, axis=-2)

            inv_ww = _inverse_sine(sin_ww)
            cot_n_ww = np.cos(theta_ww) * inv_ww * nC[..., None, :]
            inv_wt = _inverse_sine(sin_wt)
            cot_wt = np.cos(theta_wt) * inv_wt
            du_coef = a_minus_b[..., None] - inv_wt

            V = layout.directions  # (k, m, m)
            at = _per_direction  # a point's array, on the axis of the directions
            dn = (V.take(R, axis=1) * at(UR)) @ w  # n' of each block, (..., k, q)
            dnC = dn.take(layout.block_of, axis=-1)
            dUC = (V - dnC[..., None] * at(UC)) / at(nC[..., :, None])  # u'
            dUR = dUC.take(R, axis=-2)
            mt = ((dUR * w) @ at(UC.swapaxes(-1, -2))
                  + at(UR * w) @ dUC.swapaxes(-1, -2)).take(layout.twin, axis=-1)  # -t' sin t
            coef = ((dnC * w) @ sin_ww.swapaxes(-1, -2)
                    - np.sum(mt * at(cot_n_ww * w), axis=-1)
                    + np.sum(dUR * at(cot_wt * w), axis=-1))
            HR = ((mt * at(inv_ww * w)) @ at(WC) + at(pi_ww) @ V
                  + coef[..., None] * at(UR) + dUR * at(du_coef)) / (2.0 * np.pi)
            H = layout.sqrt_sizes[:, None] * HR[..., layout.out_row, layout.out_col].swapaxes(-1, -2)
            self._grad_hess = g, 0.5 * (H + H.swapaxes(-1, -2))
        return self._grad_hess
