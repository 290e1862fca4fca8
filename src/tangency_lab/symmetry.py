"""Symmetry machinery for the diagonal permutation action on square matrices.

A permutation pi acts on W by simultaneous row and column permutation,
W -> P W P^T.  This module builds orthonormal charts of the fixed-point
subspaces of diagonal Young subgroups, the four isotypic projectors of the
full diagonal action (labels t, s, x, y), and a detector for the largest
diagonal Young subgroup fixing a chart point. The projectors exist twice:
on d x d matrices (`isotypic_project`), and as dim x dim matrices on a
chart, read off its orbit values (`chart_isotypic_projector`), which is
what spectra and sphere labels use. The detector reads a chart point's
representative coordinates, so no d x d matrix is formed. The dense
forms, `embed`, `project` and `isotypic_project`, are the oracle the
chart forms are tested against; the cluster labels of
`tracer.minimal_eig_directions` and `spectrum --brute` still use them.
"""

import functools
import itertools
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


@dataclass(frozen=True, eq=False)
class OrbitLayout:
    """Representative rows and columns on which `kernel` evaluates a chart.

    Every block keeps up to three representative coordinates: its first,
    its second, and its third standing for the remaining s - 2, with
    column weights (1, 1, s - 2). The first coordinate of each block is
    its representative row, of row weight s. A fixed matrix, a fixed
    direction and the loss terms between a representative row and any
    coordinate are then constant on the coordinates a representative
    stands for, so sums over d rows or columns become weighted sums over
    the m <= 3q representatives. The exception is a Gram or angle entry
    against a third representative, whose column sum would meet its own
    diagonal: it copies the entry against the second representative of
    its block, to which a swap fixing the row is a symmetry.
    """

    d: int
    sqrt_sizes: np.ndarray  # (n,) square roots of the orbit sizes
    row_weights: np.ndarray  # (q,) block sizes
    weights: np.ndarray  # (m,) coordinates each representative stands for
    block_of: np.ndarray  # (m,) block of each representative
    row_reps: np.ndarray  # (q,) position of each block's first coordinate
    self_angle: tuple  # index of the q self angles in (..., q, m) angle arrays
    twin: np.ndarray  # (m,) representative whose Gram entries each one copies
    cc_orbit: np.ndarray  # (m, m) orbit of each representative entry
    row_orbit: np.ndarray  # (q, m) the representative rows of cc_orbit
    directions: np.ndarray  # (n, m, m) the chart basis on the representatives
    out_row: np.ndarray  # (n,) block of each orbit's representative entry
    out_col: np.ndarray  # (n,) position of that entry's column


@dataclass(frozen=True, eq=False)
class FixedPointChart:
    """Orthonormal chart of the subspace of matrices fixed by a diagonal
    Young subgroup; chart coordinates are Frobenius inner products.

    Coordinate o belongs to the orbit `orbits[o]` = (a, b, diagonal) of
    matrix entries with row in block a and column in block b (for a = b
    either the diagonal or the off-diagonal entries). Its basis matrix is
    the orbit indicator over sqrt(|o|), so a fixed matrix whose entries
    on o equal v has xi_o = sqrt(|o|) v. `rep_rows`/`rep_cols` name one
    entry of each orbit, and `layout` holds the arrays of the orbit
    evaluator.
    """

    group: YoungPartitionGroup
    orbits: tuple
    rep_rows: np.ndarray = field(repr=False)
    rep_cols: np.ndarray = field(repr=False)
    orbit_table: np.ndarray = field(repr=False)  # (q, q, 2): orbit of (a, b, i == j)
    layout: OrbitLayout = field(repr=False)

    @property
    def d(self):
        return self.group.d

    @property
    def dim(self):
        return len(self.orbits)


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
    chart object. A chart holds O(q^2) numbers.
    """
    blocks = group.blocks if isinstance(group, YoungPartitionGroup) else tuple(group)
    return _build_chart(int(d), tuple(int(a) for a in blocks))


def _orbit_index(blocks, table, i, j):
    """Orbit of each matrix entry (i, j), for integer arrays i and j."""
    stops = np.cumsum(blocks)
    a = np.searchsorted(stops, i, side="right")
    b = np.searchsorted(stops, j, side="right")
    return table[a, b, (np.asarray(i) == np.asarray(j)).astype(int)]


@functools.lru_cache(maxsize=64)
def _build_chart(d, blocks):
    group = YoungPartitionGroup(blocks)
    if group.d != d:
        raise InvalidPartition(f"partition {group.blocks} does not sum to d = {d}")
    if d < 4:
        raise InvalidPartition("charts require d >= 4")

    q = len(blocks)
    starts = [r.start for r in group.index_blocks()]
    orbits, sizes, rows, cols = [], [], [], []
    table = np.full((q, q, 2), -1)

    def add(a, b, diagonal, size, col):
        table[a, b, int(diagonal)] = len(orbits)
        orbits.append((a, b, diagonal))
        sizes.append(size)
        rows.append(starts[a])
        cols.append(col)

    for a in range(q):
        for b in range(q):
            if a == b:
                add(a, a, True, blocks[a], starts[a])
                if blocks[a] >= 2:
                    add(a, a, False, blocks[a] * (blocks[a] - 1), starts[a] + 1)
            else:
                add(a, b, False, blocks[a] * blocks[b], starts[b])
    coords, weights, block_of = [], [], []
    for a, size in enumerate(blocks):
        for r, w in zip(range(min(size, 3)), (1, 1, size - 2)):
            coords.append(starts[a] + r)
            weights.append(w)
            block_of.append(a)
    coords = np.array(coords)
    pos = {int(c): k for k, c in enumerate(coords)}
    cc_orbit = _orbit_index(blocks, table, coords[:, None], coords[None, :])
    sizes = np.array(sizes, dtype=float)
    sqrt_sizes = np.sqrt(sizes)
    row_reps = np.array([pos[s] for s in starts])
    layout = OrbitLayout(
        d=d,
        sqrt_sizes=sqrt_sizes,
        row_weights=np.array(blocks, dtype=float),
        weights=np.array(weights, dtype=float),
        block_of=np.array(block_of),
        row_reps=row_reps,
        self_angle=(..., np.arange(q), row_reps),
        twin=np.array([k - 1 if c - starts[block_of[k]] == 2 else k
                       for k, c in enumerate(coords)]),
        cc_orbit=cc_orbit,
        row_orbit=cc_orbit[row_reps],
        directions=(cc_orbit == np.arange(len(orbits))[:, None, None]) / sqrt_sizes[:, None, None],
        out_row=np.array([a for a, _, _ in orbits]),
        out_col=np.array([pos[c] for c in cols]),
    )
    return FixedPointChart(
        group=group,
        orbits=tuple(orbits),
        rep_rows=np.array(rows),
        rep_cols=np.array(cols),
        orbit_table=table,
        layout=layout,
    )


def orbit_coordinates(chart, values):
    """Chart coordinates of the fixed matrix with the given value on each orbit."""
    return chart.layout.sqrt_sizes * np.asarray(values, dtype=float)


def transfer(chart, xi, target):
    """Coordinates on `target` of the matrix with coordinates xi on `chart`.

    Works on one entry per orbit of the two charts' common refinement; no
    d x d matrix is formed. Raises DimensionMismatch if the charts differ
    in d or if the matrix is not fixed by the target's group (Frobenius
    distance to its projection above 1e-8).
    """
    if chart.d != target.d:
        raise DimensionMismatch(f"charts have d = {chart.d} and d = {target.d}")
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape[0] != chart.dim:
        raise DimensionMismatch(f"expected {chart.dim} coordinates, got {xi.shape[0]}")
    # np.unique would import numpy.ma, about 1 MB of resident memory
    cuts = sorted(set(itertools.accumulate(chart.group.blocks))
                  | set(itertools.accumulate(target.group.blocks)))
    common = _build_chart(chart.d, tuple(b - a for a, b in zip([0] + cuts, cuts)))
    values = (xi / chart.layout.sqrt_sizes)[
        _orbit_index(chart.group.blocks, chart.orbit_table, common.rep_rows, common.rep_cols)]
    into = _orbit_index(target.group.blocks, target.orbit_table, common.rep_rows, common.rep_cols)
    # the projection averages each target orbit over the common orbits it
    # contains, weighted by their sizes (integers, recovered exactly)
    weights = np.rint(common.layout.sqrt_sizes ** 2)
    mean = (np.bincount(into, weights=weights * values, minlength=target.dim)
            / np.bincount(into, weights=weights, minlength=target.dim))
    if np.sqrt(np.sum(weights * (values - mean[into]) ** 2)) > 1e-8:
        raise DimensionMismatch("the matrix is not fixed by the target chart's group")
    return orbit_coordinates(target, mean)


def embed(chart, xi):
    """Linear isometry from chart coordinates to a d x d matrix."""
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape[0] != chart.dim:
        raise DimensionMismatch(f"expected {chart.dim} coordinates, got {xi.shape[0]}")
    values = xi / chart.layout.sqrt_sizes
    idx = [slice(r.start, r.stop) for r in chart.group.index_blocks()]
    W = np.empty((chart.d, chart.d))
    # whole blocks first, then the diagonals they contain
    for (a, b, diagonal), v in zip(chart.orbits, values):
        if not diagonal:
            W[idx[a], idx[b]] = v
    for (a, b, diagonal), v in zip(chart.orbits, values):
        if diagonal:
            np.fill_diagonal(W[idx[a], idx[a]], v)
    return W


def project(chart, M):
    """Adjoint of embed: Frobenius inner products with the chart basis."""
    M = np.asarray(M, dtype=float)
    if M.shape != (chart.d, chart.d):
        raise DimensionMismatch(f"expected a {chart.d} x {chart.d} matrix, got {M.shape}")
    idx = [slice(r.start, r.stop) for r in chart.group.index_blocks()]
    sums = np.empty(chart.dim)
    for o, (a, b, diagonal) in enumerate(chart.orbits):
        blk = M[idx[a], idx[b]]
        if diagonal:
            sums[o] = np.trace(blk)
        elif a == b:
            sums[o] = blk.sum() - np.trace(blk)
        else:
            sums[o] = blk.sum()
    return sums / chart.layout.sqrt_sizes


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


def chart_isotypic_projector(chart, label, special=()):
    """The isotypic projector named by label, as a matrix on chart coordinates.

    Returns the read-only dim x dim matrix of
    `project(chart, isotypic_project(embed(chart, .), label, special))`.
    The projectors commute with every permutation of the non-special
    indices, so each maps the chart's fixed-point space to itself; the
    matrix is read off orbit values on `chart.layout`, with row and
    column sums over the representatives, and no d x d array is formed.
    `special` must name the chart's trailing singleton blocks (those
    indices are then excluded from the permutation action). Memoized on
    (chart, label, special).
    """
    if label not in ISOTYPIC_LABELS:
        raise UnsupportedLabel(f"unknown isotypic label {label!r}")
    special = tuple(sorted(set(int(i) for i in special)))
    d, p = chart.d, len(special)
    if d - p < 4:
        raise DimensionMismatch("isotypic projection requires >= 4 permuted indices")
    blocks = chart.group.blocks
    if special != tuple(range(d - p, d)) or any(b != 1 for b in blocks[len(blocks) - p:]):
        raise DimensionMismatch("special indices must name trailing singleton blocks")
    return _chart_isotypic_projector(chart, label, p)


@functools.lru_cache(maxsize=256)
def _chart_isotypic_projector(chart, label, p):
    lay = chart.layout
    d = chart.d - p  # the number of permuted indices
    permuted = np.arange(lay.row_weights.size) < lay.row_weights.size - p
    col_w = np.where(permuted[lay.block_of], lay.weights, 0.0)
    row_w = np.where(permuted, lay.row_weights, 0.0)
    # per basis matrix (axis 0) and block (axis 1): the diagonal entry, and
    # row and column sums over the permuted indices, at the block's row
    D, rr = lay.directions, lay.row_reps
    diag = D[:, rr, rr]
    rows = D[:, rr, :] @ col_w
    cols = col_w @ D[:, :, rr]
    trace = (diag @ row_w)[:, None] / d
    hollow = 0.5 * (rows + cols) - diag  # symmetric off-diagonal row sums
    mu = (hollow @ row_w)[:, None] / (d * (d - 1))
    sp = (hollow - (d - 1) * mu) / (d - 2)
    r = 0.5 * (rows - cols) / d
    # each output orbit is read at its representative entry (i, j)
    a, c = lay.out_row, lay.out_col
    b = lay.block_of[c]
    Mij, Mji = D[:, rr[a], c], D[:, c, rr[a]]
    on_diag = c == rr[a]
    both = permuted[a] & permuted[b]
    row_only = permuted[a] & ~permuted[b]  # column special
    col_only = ~permuted[a] & permuted[b]  # row special
    if label == "t":
        out = np.select([both & on_diag, both, row_only, col_only],
                        [trace, mu, cols[:, b] / d, rows[:, a] / d], Mij)
    elif label == "s":
        out = np.select([both & on_diag, both, row_only, col_only],
                        [diag[:, a] - trace, sp[:, a] + sp[:, b] + r[:, a] - r[:, b],
                         Mij - cols[:, b] / d, Mij - rows[:, a] / d], 0.0)
    elif label == "x":
        out = np.where(both & ~on_diag, 0.5 * (Mij - Mji) - r[:, a] + r[:, b], 0.0)
    else:
        out = np.where(both & ~on_diag, 0.5 * (Mij + Mji) - mu - sp[:, a] - sp[:, b], 0.0)
    P = (out * lay.sqrt_sizes).T
    P.setflags(write=False)
    return P


def _fixing_pairs(W, F, U, tol):
    """Boolean (len(F), len(U)) array: does transposing coordinates f and u
    (rows and columns) fix W entrywise within tol?"""
    ok = np.abs(W[F, F][:, None] - W[U, U][None, :]) <= tol
    ok &= np.abs(W[np.ix_(F, U)] - W[np.ix_(U, F)].T) <= tol
    for M in (W, W.T):  # rows, then columns, off the swapped pair
        D = np.abs(M[F][:, None, :] - M[U][None, :, :])
        D[np.arange(F.size), :, F] = 0.0
        D[:, np.arange(U.size), U] = 0.0
        ok &= D.max(axis=2) <= tol
    return ok


def detect_diagonal_isotropy(chart, xi, tol=1e-8):
    """Largest diagonal Young subgroup fixing the matrix W with chart
    coordinates xi, as a partition of its coordinates.

    Two coordinates belong to the same block when their transposition fixes
    W entrywise within tol under the simultaneous action; the relation is an
    equivalence (conjugating one fixing transposition by another yields a
    third), so its classes generate the largest diagonal Young subgroup
    fixing W.  The blocks are the connected components of the fixing-pair
    graph, found breadth first: each level tests every newly reached
    coordinate against all unreached ones at once. Block sizes are returned
    in descending order.

    The graph is read on the m <= 3q representative coordinates of the
    chart's layout, from the m x m principal submatrix of W, and each
    representative counts for the coordinates it stands for. This is
    exact: the submatrix holds the bits `embed` writes there; the chart's
    group swaps each coordinate with the representative standing for it,
    so they join; and for representatives f and u, every row and column of
    W off the pair equals, at f and u, one of a representative off the
    pair (a block of four or more coordinates has three representatives),
    so the test over d coordinates compares the same numbers as over m.
    """
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape[0] != chart.dim:
        raise DimensionMismatch(f"expected {chart.dim} coordinates, got {xi.shape[0]}")
    lay = chart.layout
    W = (xi / lay.sqrt_sizes)[lay.cc_orbit]
    unreached = np.ones(len(W), dtype=bool)
    sizes = []
    for start in range(len(W)):
        if not unreached[start]:
            continue
        unreached[start] = False
        frontier = np.array([start])
        size = lay.weights[start]
        while frontier.size and unreached.any():
            U = np.flatnonzero(unreached)
            frontier = U[_fixing_pairs(W, frontier, U, tol).any(axis=0)]
            unreached[frontier] = False
            size += lay.weights[frontier].sum()
        sizes.append(int(size))
    return YoungPartitionGroup(tuple(sorted(sizes, reverse=True)))
