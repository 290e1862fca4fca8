"""Symmetry machinery for the diagonal permutation action on square matrices.

A permutation pi acts on W by simultaneous row and column permutation,
W -> P W P^T.  This module builds orthonormal charts of the fixed-point
subspaces of diagonal Young subgroups, the four isotypic projectors of the
full diagonal action (labels t, s, x, y), canonical representative matrices
for the nontrivial components, and a detector for the largest diagonal Young
subgroup fixing a given matrix.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPartition,
    UnsupportedLabel,
)

ISOTYPIC_LABELS = ("t", "s", "x", "y")


@dataclass(frozen=True)
class YoungPartitionGroup:
    """Ordered partition (a_1, ..., a_q) of d, standing for the diagonal
    action of S_{a_1} x ... x S_{a_q} on consecutive coordinate blocks."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(int(a) for a in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) == 0 or any(a < 1 for a in blocks):
            raise InvalidPartition(f"invalid block sizes {blocks}")

    @property
    def d(self):
        return sum(self.blocks)

    def index_blocks(self):
        """Consecutive coordinate index ranges, one per block."""
        out = []
        start = 0
        for a in self.blocks:
            out.append(range(start, start + a))
            start += a
        return out


@dataclass(frozen=True)
class FixedPointChart:
    """Orthonormal basis of the subspace of matrices fixed by a diagonal
    Young subgroup; chart coordinates are Frobenius inner products."""

    group: YoungPartitionGroup
    basis: np.ndarray = field(repr=False)

    @property
    def d(self):
        return self.group.d

    @property
    def dim(self):
        return self.basis.shape[0]


def build_chart(d, group):
    """Orthonormal chart of M(d,d)^G for G the given diagonal Young subgroup.

    The basis lists one normalized orbit-indicator matrix per coordinate
    orbit, ordered deterministically: block pairs (a, b) in lexicographic
    order; a diagonal pair contributes its diagonal orbit first, then its
    off-diagonal orbit (sizes >= 2 only).  For the two-block partition
    (d-1, 1) this ordering reproduces the familiar five-parameter layout
    (in-block diagonal, in-block off-diagonal, last column, last row,
    corner entry).

    Charts are memoized on (d, blocks): equal arguments return the same
    chart object, whose basis is read-only, so records and arcs on one
    chart share a single dense basis.
    """
    blocks = group.blocks if isinstance(group, YoungPartitionGroup) else tuple(group)
    return _build_chart(int(d), tuple(int(a) for a in blocks))


# bounded, because one chart at large d holds several dense d x d matrices
@functools.lru_cache(maxsize=64)
def _build_chart(d, blocks):
    group = YoungPartitionGroup(blocks)
    if group.d != d:
        raise InvalidPartition(f"partition {group.blocks} does not sum to d = {d}")
    if d < 4:
        raise InvalidPartition("charts require d >= 4")

    idx = group.index_blocks()
    q = len(idx)
    basis = []
    for a in range(q):
        for b in range(q):
            B = np.zeros((d, d))
            if a == b:
                rows = np.asarray(idx[a])
                B[rows, rows] = 1.0
                basis.append(B / np.linalg.norm(B))
                size = len(rows)
                if size >= 2:
                    B2 = np.zeros((d, d))
                    B2[np.ix_(rows, rows)] = 1.0
                    B2[rows, rows] = 0.0
                    basis.append(B2 / np.linalg.norm(B2))
            else:
                B[np.ix_(np.asarray(idx[a]), np.asarray(idx[b]))] = 1.0
                basis.append(B / np.linalg.norm(B))
    arr = np.array(basis)
    arr.setflags(write=False)
    return FixedPointChart(group=group, basis=arr)


def embed(chart, xi):
    """Linear isometry from chart coordinates to a d x d matrix."""
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape[0] != chart.dim:
        raise DimensionMismatch(f"expected {chart.dim} coordinates, got {xi.shape[0]}")
    return np.tensordot(xi, chart.basis, axes=1)


def project(chart, M):
    """Adjoint of embed: Frobenius inner products with the chart basis."""
    M = np.asarray(M, dtype=float)
    if M.shape != (chart.d, chart.d):
        raise DimensionMismatch(f"expected a {chart.d} x {chart.d} matrix, got {M.shape}")
    return np.tensordot(chart.basis, M, axes=2)


def _split_parts(M):
    """Diagonal part, hollow symmetric part, skew part (orthogonal pieces)."""
    sym = 0.5 * (M + M.T)
    skew = 0.5 * (M - M.T)
    diag = np.diag(np.diag(sym))
    hollow = sym - diag
    return diag, hollow, skew


def isotypic_project(M, label, special=()):
    """Orthogonal projection of M onto the isotypic component named by label.

    The full diagonal action splits M(d,d) into four components:
    two trivial copies (t, the span of I and of the hollow all-ones matrix),
    three standard copies (s: traceless diagonal, symmetric x_i + x_j
    patterns, skew x_i - x_j patterns), the skew matrices with zero row sums
    (x), and the hollow symmetric matrices with zero row sums (y).  The four
    projections are mutually orthogonal and sum to M.

    `special` lists row indices excluded from the permutation action;
    the projection is then taken under the stabilizer permuting the
    remaining indices. The block on the remaining indices decomposes as
    above, the special rows and columns carry trivial (constant) and
    standard (centered) parts, and entries with both indices special
    are invariant. Points whose isotropy fixes a few coordinates get
    their spectra and escape directions labeled by this decomposition.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if special:
        d = M.shape[0]
        special = tuple(sorted(set(int(i) for i in special)))
        if any(i < 0 or i >= d for i in special):
            raise DimensionMismatch("special indices out of range")
        keep = [i for i in range(d) if i not in special]
        if len(keep) < 4:
            raise DimensionMismatch("isotypic projection requires >= 4 permuted indices")
        out = np.zeros_like(M)
        out[np.ix_(keep, keep)] = isotypic_project(M[np.ix_(keep, keep)], label)
        if label == "s":
            for f in special:
                row = M[f, keep]
                out[f, keep] = row - row.mean()
                col = M[keep, f]
                out[keep, f] = col - col.mean()
        elif label == "t":
            for f in special:
                out[f, keep] = M[f, keep].mean()
                out[keep, f] = M[keep, f].mean()
                for g in special:
                    out[f, g] = M[f, g]
        return out
    d = M.shape[0]
    if d < 4:
        raise DimensionMismatch("isotypic projection requires d >= 4")
    if label not in ISOTYPIC_LABELS:
        raise UnsupportedLabel(f"unknown isotypic label {label!r}")

    diag, hollow, skew = _split_parts(M)
    if label == "t":
        trace_part = (np.trace(diag) / d) * np.eye(d)
        mu = hollow.sum() / (d * (d - 1))
        return trace_part + mu * (np.ones((d, d)) - np.eye(d))
    if label == "s":
        diag_part = diag - (np.trace(diag) / d) * np.eye(d)
        s_rows = hollow.sum(axis=1)
        mu = s_rows.sum() / (d * (d - 1))
        sp = s_rows - mu * (d - 1)
        sym_part = (sp[:, None] + sp[None, :]) / (d - 2)
        np.fill_diagonal(sym_part, 0.0)
        r = skew.sum(axis=1)
        skew_part = (r[:, None] - r[None, :]) / d
        return diag_part + sym_part + skew_part
    if label == "x":
        r = skew.sum(axis=1)
        return skew - (r[:, None] - r[None, :]) / d
    # label == "y": hollow symmetric with zero row sums
    s_rows = hollow.sum(axis=1)
    mu = s_rows.sum() / (d * (d - 1))
    sp = s_rows - mu * (d - 1)
    sym_part = (sp[:, None] + sp[None, :]) / (d - 2)
    np.fill_diagonal(sym_part, 0.0)
    return hollow - mu * (np.ones((d, d)) - np.eye(d)) - sym_part


def representative(label, copy, d):
    """Canonical unit-pattern matrix inside one irreducible copy.

    For label 's' the three copies are built from x = (1, ..., 1, -(d-1)):
    copy 1 is diag(x), copy 2 the hollow symmetric matrix with entries
    x_i + x_j, copy 3 the skew matrix with entries x_i - x_j; all three are
    fixed by the (d-1, 1) block action.  For 'x' (one copy) the matrix is
    the skew zero-row-sum pattern supported on the last two coordinates and
    their complement; for 'y' the analogous hollow symmetric pattern.  Both
    are fixed by the (d-2, 1, 1) block action.
    """
    if label == "t":
        raise UnsupportedLabel("the trivial component has no single representative; build a chart")
    if label not in ("s", "x", "y"):
        raise UnsupportedLabel(f"unknown isotypic label {label!r}")
    if d < 4:
        raise DimensionMismatch("representatives require d >= 4")

    if label == "s":
        if copy not in (1, 2, 3):
            raise UnsupportedLabel("label 's' has copies 1, 2, 3")
        x = np.ones(d)
        x[-1] = -(d - 1)
        if copy == 1:
            return np.diag(x)
        if copy == 2:
            R = x[:, None] + x[None, :]
            np.fill_diagonal(R, 0.0)
            return R
        R = x[:, None] - x[None, :]
        return R

    if copy != 1:
        raise UnsupportedLabel(f"label {label!r} has a single copy")
    m = d - 2
    R = np.zeros((d, d))
    if label == "x":
        R[:m, m] = -1.0 / m
        R[:m, m + 1] = 1.0 / m
        R[m, :m] = 1.0 / m
        R[m + 1, :m] = -1.0 / m
        R[m, m + 1] = -1.0
        R[m + 1, m] = 1.0
        return R
    # label == "y"
    R[:m, :m] = 2.0 / (m * (d - 3))
    np.fill_diagonal(R[:m, :m], 0.0)
    R[:m, m] = R[:m, m + 1] = -1.0 / m
    R[m, :m] = R[m + 1, :m] = -1.0 / m
    R[m, m + 1] = R[m + 1, m] = 1.0
    return R


def _pair_fixes(W, i, j, tol):
    """True if transposing coordinates i and j (rows and columns) fixes W."""
    if abs(W[i, i] - W[j, j]) > tol or abs(W[i, j] - W[j, i]) > tol:
        return False
    row = np.abs(W[i, :] - W[j, :])
    col = np.abs(W[:, i] - W[:, j])
    row[[i, j]] = 0.0
    col[[i, j]] = 0.0
    return row.max() <= tol and col.max() <= tol


def detect_diagonal_isotropy(W, tol=1e-8):
    """Partition of the coordinates into the largest swappable blocks.

    Two coordinates belong to the same block when their transposition fixes
    W entrywise within tol under the simultaneous action; the relation is an
    equivalence (conjugating one fixing transposition by another yields a
    third), so its classes generate the largest diagonal Young subgroup
    fixing W.  Block sizes are returned in descending order.
    """
    W = np.asarray(W, dtype=float)
    d = W.shape[0]
    parent = list(range(d))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for i in range(d):
        for j in range(i + 1, d):
            if find(i) == find(j):
                continue
            if _pair_fixes(W, i, j, tol):
                parent[find(j)] = find(i)
    sizes = {}
    for u in range(d):
        root = find(u)
        sizes[root] = sizes.get(root, 0) + 1
    return YoungPartitionGroup(tuple(sorted(sizes.values(), reverse=True)))
