import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tangency_lab.errors import DimensionMismatch, InvalidPartition, UnsupportedLabel
from tangency_lab.symmetry import (
    ISOTYPIC_LABELS,
    YoungPartitionGroup,
    build_chart,
    chart_isotypic_projector,
    detect_diagonal_isotropy,
    embed,
    isotypic_project,
    orbit_coordinates,
    project,
    transfer,
)


def random_matrix(d, seed):
    return np.random.default_rng(seed).normal(size=(d, d))


def dense_basis(chart):
    """The chart's orthonormal basis as a (dim, d, d) stack of matrices."""
    return np.array([embed(chart, e) for e in np.eye(chart.dim)])


def block_permutation_matrices(d, blocks):
    """Generators of the Young subgroup: adjacent swaps inside each block."""
    mats = []
    start = 0
    for b in blocks:
        for i in range(start, start + b - 1):
            perm = list(range(d))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            mats.append(np.eye(d)[perm])
        start += b
    return mats


# ------------------------------------------------------------------- charts


def test_chart_dimension_formula():
    # one-singleton tails: dim = k^2 + 2k + 2
    for d, k in ((7, 1), (7, 2), (7, 3), (12, 2), (20, 3)):
        chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
        assert chart.dim == k * k + 2 * k + 2


def test_chart_basis_orthonormal():
    chart = build_chart(8, YoungPartitionGroup((6, 1, 1)))
    B = dense_basis(chart).reshape(chart.dim, -1)
    G = B @ B.T
    assert np.max(np.abs(G - np.eye(chart.dim))) <= 1e-12


def test_chart_embeds_fixed_matrices():
    d = 7
    blocks = (5, 1, 1)
    chart = build_chart(d, YoungPartitionGroup(blocks))
    xi = np.random.default_rng(0).normal(size=chart.dim)
    W = embed(chart, xi)
    for P in block_permutation_matrices(d, blocks):
        assert np.max(np.abs(P @ W @ P.T - W)) <= 1e-12
    assert np.max(np.abs(project(chart, W) - xi)) <= 1e-12


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        YoungPartitionGroup((0, 3))
    with pytest.raises(InvalidPartition):
        YoungPartitionGroup(())
    with pytest.raises(InvalidPartition):
        build_chart(6, YoungPartitionGroup((5, 2)))


# --------------------------------------------------------------- projectors


def test_projector_algebra():
    for d, seed in ((6, 0), (9, 1)):
        M = random_matrix(d, seed)
        parts = {lab: isotypic_project(M, lab) for lab in ISOTYPIC_LABELS}
        total = sum(parts.values())
        assert np.linalg.norm(total - M) <= 1e-12
        for a, b in itertools.combinations(ISOTYPIC_LABELS, 2):
            assert abs(np.sum(parts[a] * parts[b])) <= 1e-12
        for lab, part in parts.items():
            again = isotypic_project(part, lab)
            assert np.linalg.norm(again - part) <= 1e-12


def test_projector_ranks_at_d6():
    d = 6
    ranks = {}
    for lab in ISOTYPIC_LABELS:
        cols = []
        for k in range(d * d):
            E = np.zeros((d, d))
            E.flat[k] = 1.0
            cols.append(isotypic_project(E, lab).ravel())
        ranks[lab] = np.linalg.matrix_rank(np.stack(cols), tol=1e-10)
    assert ranks == {"t": 2, "s": 3 * (d - 1), "x": (d - 1) * (d - 2) // 2,
                     "y": d * (d - 3) // 2}


def _cycle_stats(perm):
    seen = [False] * len(perm)
    fixes = twos = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        fixes += n == 1
        twos += n == 2
    return fixes, twos


def test_projectors_match_group_averaging():
    # character-weighted averages over all of S_5 are the isotypic
    # projectors; this checks every closed-form branch independently
    d = 5
    M = random_matrix(d, seed=11)
    chars = {
        "t": lambda f, c2: 1.0,
        "s": lambda f, c2: f - 1.0,
        "x": lambda f, c2: 0.5 * (f - 1) * (f - 2) - c2,
        "y": lambda f, c2: 0.5 * f * (f - 3) + c2,
    }
    dims = {"t": 1, "s": d - 1, "x": (d - 1) * (d - 2) // 2, "y": d * (d - 3) // 2}
    acc = {lab: np.zeros((d, d)) for lab in chars}
    count = 0
    for perm in itertools.permutations(range(d)):
        count += 1
        P = np.eye(d)[list(perm)]
        f, c2 = _cycle_stats(perm)
        PM = P @ M @ P.T
        for lab, ch in chars.items():
            acc[lab] += ch(f, c2) * PM
    for lab in chars:
        avg = dims[lab] / count * acc[lab]
        assert np.linalg.norm(avg - isotypic_project(M, lab)) <= 1e-12


def test_projector_rejects_unknown_label():
    with pytest.raises(UnsupportedLabel):
        isotypic_project(np.eye(5), "z")


def test_projector_rejects_small_d():
    with pytest.raises(DimensionMismatch):
        isotypic_project(np.eye(3), "t")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 9))
def test_projectors_commute_with_conjugation(seed, d):
    M = random_matrix(d, seed)
    perm = np.random.default_rng(seed + 5).permutation(d)
    P = np.eye(d)[perm]
    for lab in ISOTYPIC_LABELS:
        left = isotypic_project(P @ M @ P.T, lab)
        right = P @ isotypic_project(M, lab) @ P.T
        assert np.max(np.abs(left - right)) <= 1e-12


# ----------------------------------------------- stabilizer-adapted variant


def test_adapted_projectors_form_orthogonal_decomposition():
    rng = np.random.default_rng(2)
    for d, special in ((7, (6,)), (8, (0,)), (9, (2, 5))):
        M = rng.normal(size=(d, d))
        parts = {lab: isotypic_project(M, lab, special=special)
                 for lab in ISOTYPIC_LABELS}
        assert np.linalg.norm(sum(parts.values()) - M) <= 1e-12
        for a, b in itertools.combinations(ISOTYPIC_LABELS, 2):
            assert abs(np.sum(parts[a] * parts[b])) <= 1e-12
        for lab, part in parts.items():
            again = isotypic_project(part, lab, special=special)
            assert np.linalg.norm(again - part) <= 1e-12


def test_adapted_projectors_commute_with_stabilizer():
    d = 7
    special = (6,)
    M = random_matrix(d, seed=9)
    for P in block_permutation_matrices(d, (6, 1)):
        for lab in ISOTYPIC_LABELS:
            left = isotypic_project(P @ M @ P.T, lab, special=special)
            right = P @ isotypic_project(M, lab, special=special) @ P.T
            assert np.max(np.abs(left - right)) <= 1e-12


def test_adapted_empty_special_matches_plain():
    M = random_matrix(6, seed=14)
    for lab in ISOTYPIC_LABELS:
        a = isotypic_project(M, lab, special=())
        b = isotypic_project(M, lab)
        assert np.array_equal(a, b)


def test_adapted_special_validation():
    with pytest.raises(DimensionMismatch):
        isotypic_project(np.eye(7), "s", special=(9,))
    with pytest.raises(DimensionMismatch):
        isotypic_project(np.eye(6), "s", special=(0, 1, 2))


# ------------------------------------------------------ projectors on charts

# the partitions of test_orbit_path_matches_dense_oracle
CHART_PARTITIONS = [(7,), (6, 1), (5, 1, 1), (2, 2, 3), (1, 6), (3, 1, 2, 1),
                    (20,), (17, 1, 1, 1), (5, 4, 3), (100,), (99, 1), (98, 1, 1)]


def _trailing_specials(blocks):
    """No special index, then each run of the chart's trailing singletons."""
    d = sum(blocks)
    ones = next((i for i, b in enumerate(reversed(blocks)) if b != 1), len(blocks))
    return [tuple(range(d - p, d)) for p in range(ones + 1) if d - p >= 4]


@pytest.mark.parametrize("blocks", CHART_PARTITIONS)
def test_chart_projector_matches_dense_oracle(blocks):
    d = sum(blocks)
    chart = build_chart(d, YoungPartitionGroup(blocks))
    for special in _trailing_specials(blocks):
        for lab in ISOTYPIC_LABELS:
            P = chart_isotypic_projector(chart, lab, special)
            dense = np.column_stack([project(chart, isotypic_project(B, lab, special=special))
                                     for B in dense_basis(chart)])
            assert np.max(np.abs(P - dense)) <= 1e-12, (special, lab)


@pytest.mark.parametrize("blocks", CHART_PARTITIONS)
def test_chart_projectors_decompose_the_chart(blocks):
    # symmetric, idempotent, mutually orthogonal and summing to the identity
    d = sum(blocks)
    chart = build_chart(d, YoungPartitionGroup(blocks))
    for special in _trailing_specials(blocks):
        Ps = [chart_isotypic_projector(chart, lab, special) for lab in ISOTYPIC_LABELS]
        for P in Ps:
            assert not P.flags.writeable
            assert np.max(np.abs(P - P.T)) <= 1e-12
            assert np.max(np.abs(P @ P - P)) <= 1e-12
        for P, R in itertools.combinations(Ps, 2):
            assert np.max(np.abs(P @ R)) <= 1e-12
        assert np.max(np.abs(sum(Ps) - np.eye(chart.dim))) <= 1e-12
        assert chart_isotypic_projector(chart, "s", list(special)) is Ps[1]


def test_chart_projector_validation():
    chart = build_chart(7, YoungPartitionGroup((4, 1, 2)))
    with pytest.raises(UnsupportedLabel):
        chart_isotypic_projector(chart, "z")
    for special in ((4,), (6,), (5, 6)):  # not singleton blocks at the end
        with pytest.raises(DimensionMismatch):
            chart_isotypic_projector(chart, "t", special)
    with pytest.raises(DimensionMismatch):  # three permuted indices
        chart_isotypic_projector(build_chart(6, (3, 1, 1, 1)), "t", (3, 4, 5))


# ------------------------------------------------------------ representatives


def _representatives(chart, label):
    """An orthonormal basis of the projector's range, embedded as d x d matrices."""
    w, V = np.linalg.eigh(chart_isotypic_projector(chart, label))
    return [embed(chart, v) for v in V[:, w > 0.5].T]


def test_representatives_live_in_their_component():
    d = 7
    copies = {"s": 3, "x": 1, "y": 1}
    for lab, n in copies.items():
        chart = build_chart(d, (6, 1) if lab == "s" else (5, 1, 1))
        reps = _representatives(chart, lab)
        assert len(reps) == n
        for R in reps:
            assert np.linalg.norm(R) > 1e-8
            proj = isotypic_project(R, lab)
            assert np.linalg.norm(proj - R) <= 1e-12


def test_representative_copies_are_independent():
    d = 7
    mats = [R.ravel() for R in _representatives(build_chart(d, (6, 1)), "s")]
    assert np.linalg.matrix_rank(np.stack(mats), tol=1e-10) == 3
    # the copies of all four components together span the chart
    chart = build_chart(d, (5, 1, 1))
    mats = [R.ravel() for lab in ISOTYPIC_LABELS for R in _representatives(chart, lab)]
    assert len(mats) == chart.dim
    assert np.linalg.matrix_rank(np.stack(mats), tol=1e-10) == chart.dim


# ----------------------------------------------------------------- detection


def test_detect_isotropy_on_symmetric_patterns():
    # blocks of the chart merge when the point is symmetric across them
    d = 7
    chart = build_chart(d, YoungPartitionGroup((1, 1, d - 2)))
    W = np.eye(d)
    assert detect_diagonal_isotropy(chart, project(chart, W)).blocks == (d,)
    W[0, 0] = 2.0
    assert detect_diagonal_isotropy(chart, project(chart, W)).blocks == (d - 1, 1)
    W[1, 1] = 3.0
    assert detect_diagonal_isotropy(chart, project(chart, W)).blocks == (d - 2, 1, 1)


def test_detect_isotropy_of_chart_points():
    d = 8
    for blocks in ((7, 1), (6, 1, 1), (5, 1, 1, 1)):
        chart = build_chart(d, YoungPartitionGroup(blocks))
        xi = np.random.default_rng(3).normal(size=chart.dim)
        detected = detect_diagonal_isotropy(chart, xi)
        assert detected.blocks == tuple(sorted(blocks, reverse=True))


def test_embed_project_roundtrip():
    chart = build_chart(9, YoungPartitionGroup((6, 2, 1)))
    xi = np.random.default_rng(4).normal(size=chart.dim)
    assert np.max(np.abs(project(chart, embed(chart, xi)) - xi)) <= 1e-13


def test_build_chart_is_shared_for_equal_arguments():
    chart = build_chart(9, YoungPartitionGroup((7, 1, 1)))
    assert build_chart(9, (7, 1, 1)) is chart
    assert build_chart(9, YoungPartitionGroup((7, 1, 1))) is chart
    assert build_chart(9, (8, 1)) is not chart


def _pair_loop_isotropy(W, tol=1e-8):
    """Reference: union of every fixing transposition, one pair at a time."""
    d = W.shape[0]
    parent = list(range(d))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for i in range(d):
        for j in range(i + 1, d):
            if abs(W[i, i] - W[j, j]) > tol or abs(W[i, j] - W[j, i]) > tol:
                continue
            keep = [k for k in range(d) if k not in (i, j)]
            if (np.max(np.abs(W[i, keep] - W[j, keep])) <= tol
                    and np.max(np.abs(W[keep, i] - W[keep, j])) <= tol):
                parent[find(j)] = find(i)
    sizes = {}
    for u in range(d):
        sizes[find(u)] = sizes.get(find(u), 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def _coarsening(blocks, rng):
    """The partition with random runs of adjacent blocks merged."""
    out = [blocks[0]]
    for b in blocks[1:]:
        if rng.random() < 0.5:
            out[-1] += b
        else:
            out.append(b)
    return tuple(out)


def test_detect_isotropy_matches_pair_loop():
    # the chart detector against the dense pair loop on generic fixed
    # points, on points with equal blocks (fixed by a coarser group, or
    # with integer orbit values), and on those perturbed around the
    # tolerances
    for blocks in CHART_PARTITIONS:
        d = sum(blocks)
        chart = build_chart(d, YoungPartitionGroup(blocks))
        rng = np.random.default_rng(d + len(blocks))
        coarse = build_chart(d, _coarsening(blocks, rng))
        equal = [transfer(coarse, rng.normal(size=coarse.dim), chart),
                 orbit_coordinates(chart, rng.integers(-2, 3, size=chart.dim))]
        points = [rng.normal(size=chart.dim)] + equal + [
            xi + rng.choice([1e-9, 1e-7, 0.2]) * rng.normal(size=chart.dim) for xi in equal]
        for xi in points:
            W = embed(chart, xi)
            for tol in (1e-8, 0.3, 1.5):
                assert (detect_diagonal_isotropy(chart, xi, tol).blocks
                        == _pair_loop_isotropy(W, tol)), (blocks, tol)


def test_transfer_reads_fixed_matrices_between_charts():
    d = 9
    coarse = build_chart(d, YoungPartitionGroup((8, 1)))
    fine = build_chart(d, YoungPartitionGroup((6, 1, 1, 1)))
    xi = np.random.default_rng(8).normal(size=coarse.dim)
    moved = transfer(coarse, xi, fine)
    assert np.max(np.abs(moved - project(fine, embed(coarse, xi)))) <= 1e-13
    assert np.max(np.abs(transfer(fine, moved, coarse) - xi)) <= 1e-13
    # a generic point of the finer chart is not fixed by the coarser group
    with pytest.raises(DimensionMismatch):
        transfer(fine, np.random.default_rng(9).normal(size=fine.dim), coarse)
    with pytest.raises(DimensionMismatch):
        transfer(coarse, xi, build_chart(8, YoungPartitionGroup((7, 1))))
