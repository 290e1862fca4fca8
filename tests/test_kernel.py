import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tangency_lab.atlas import chart_gradient, chart_hessian, chart_point
from tangency_lab.errors import DegenerateVector, DimensionMismatch, NearParallelRows
from tangency_lab.kernel import grad_loss, hvp, loss
from tangency_lab.symmetry import YoungPartitionGroup, build_chart, embed, project


def random_matrix(d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.normal(size=(d, d))


# The arccos kernel phi(w, v) = (1/pi)|w||v|(sin t + (pi - t) cos t) enters
# the loss as k = phi/2.  Each check below picks a W whose loss isolates the
# kernel at one angle, so the expected value also follows from
# E[relu(a) relu(b)] for standard Gaussian inputs.


def test_phi_aligned_vectors():
    # only row 0 differs from the teacher: 0.5 (k(3e,3e) - 2k(3e,e) + k(e,e))
    # with phi(w, c w) = c |w|^2, i.e. 0.5 E[(relu(3x) - relu(x))^2] = 1
    assert loss(np.diag([3.0, 1.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_phi_orthogonal_vectors():
    # scaling two rows adds one cross pair between orthogonal rows,
    # 2 * 0.5 * (3 - 1)^2 * k(e_0, e_1), with phi(e_0, e_1) = 1/pi
    one = loss(np.diag([3.0, 1.0, 1.0, 1.0]))
    two = loss(np.diag([3.0, 3.0, 1.0, 1.0]))
    assert two - 2 * one == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_phi_antiparallel_vanishes():
    # a flipped row leaves 0.5 (k(-e,-e) + k(e,e)) - k(-e,e) = 1/2 - k(-e,e),
    # and relu(-x) - relu(x) = -x gives 0.5 E[x^2] = 1/2
    assert loss(np.diag([-1.0, 1.0, 1.0, 1.0])) == pytest.approx(0.5, abs=1e-12)
    for d in (4, 7):
        assert loss(-np.eye(d)) == pytest.approx(d / 2, abs=1e-12)


def test_loss_at_teacher_is_zero():
    for d in (4, 7, 11):
        assert abs(loss(np.eye(d))) <= 1e-12


def test_loss_at_doubled_teacher():
    # at W = 2I the student-teacher cross sum cancels the student-student
    # sum exactly, leaving the pure teacher term: d diagonal quarters plus
    # d(d-1) orthogonal pairs worth 1/(4*pi) each
    for d in (4, 6, 9):
        expected = d / 4 + d * (d - 1) / (4 * np.pi)
        assert loss(2 * np.eye(d)) == pytest.approx(expected, rel=1e-13)


def test_loss_rejects_zero_rows():
    from tangency_lab.errors import DegenerateVector

    W = np.eye(4)
    W[2] = 0.0
    with pytest.raises(DegenerateVector):
        loss(W)


def test_loss_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        loss(np.zeros((3, 5)))
    with pytest.raises(DimensionMismatch):
        loss(np.zeros((3, 3)))


def test_grad_matches_finite_differences():
    d = 5
    W = np.eye(d) + 0.3 * random_matrix(d, seed=7)
    g = grad_loss(W)
    h = 1e-6
    fd = np.zeros_like(W)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d))
            E[i, j] = h
            fd[i, j] = (loss(W + E) - loss(W - E)) / (2 * h)
    assert np.max(np.abs(g - fd)) <= 1e-6


def test_grad_raises_on_antiparallel_rows():
    W = np.eye(4)
    W[1] = -W[0]
    with pytest.raises(NearParallelRows):
        grad_loss(W)


def test_loss_is_finite_on_antiparallel_rows():
    W = np.eye(4)
    W[1] = -W[0]
    assert np.isfinite(loss(W))


def test_monte_carlo_loss_agreement():
    # sample the population risk directly; the closed form must sit
    # within three standard errors of the chunked estimate
    d = 5
    W = np.eye(d) + 0.4 * random_matrix(d, seed=3)
    rng = np.random.default_rng(12345)
    chunk, n_chunks = 500_000, 20
    means = []
    for _ in range(n_chunks):
        X = rng.normal(size=(chunk, d))
        student = np.maximum(X @ W.T, 0.0).sum(axis=1)
        teacher = np.maximum(X, 0.0).sum(axis=1)
        means.append(0.5 * np.mean((student - teacher) ** 2))
    means = np.array(means)
    est = means.mean()
    sem = means.std(ddof=1) / np.sqrt(n_chunks)
    assert abs(loss(W) - est) <= 3 * sem


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 6))
def test_loss_nonnegative_and_permutation_invariant(seed, d):
    W = random_matrix(d, seed)
    base = loss(W)
    assert base >= -1e-12
    perm = np.random.default_rng(seed + 1).permutation(d)
    P = np.eye(d)[perm]
    assert loss(P @ W @ P.T) == pytest.approx(base, rel=1e-11, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_grad_permutation_equivariant(seed):
    d = 5
    W = np.eye(d) + 0.5 * random_matrix(d, seed)
    perm = np.random.default_rng(seed + 13).permutation(d)
    P = np.eye(d)[perm]
    left = grad_loss(P @ W @ P.T)
    right = P @ grad_loss(W) @ P.T
    assert np.max(np.abs(left - right)) <= 1e-10


def test_hvp_is_symmetric_bilinear():
    d = 5
    W = np.eye(d) + 0.3 * random_matrix(d, seed=21)
    rng = np.random.default_rng(22)
    V1, V2 = rng.normal(size=(2, d, d))
    h1 = hvp(W, V1)
    h2 = hvp(W, V2)
    assert abs(np.sum(h1 * V2) - np.sum(h2 * V1)) <= 1e-12
    combo = hvp(W, 2.0 * V1 - 0.5 * V2)
    assert np.max(np.abs(combo - 2.0 * h1 + 0.5 * h2)) <= 1e-12


def test_hvp_matches_dense_quadratic_form():
    d = 4
    W = np.eye(d) + 0.2 * random_matrix(d, seed=31)
    V = random_matrix(d, seed=32)
    h = 1e-5
    fd = (loss(W + h * V) - 2 * loss(W) + loss(W - h * V)) / h**2
    assert np.sum(hvp(W, V) * V) == pytest.approx(fd, rel=5e-4, abs=5e-6)


@pytest.mark.parametrize("d,seed", [(5, 41), (7, 42), (11, 43)])
def test_hvp_matches_central_differences_of_the_gradient(d, seed):
    # the FD error is O(h^2) at a point with no parallel rows
    W = np.eye(d) + 0.3 * random_matrix(d, seed)
    V = random_matrix(d, seed + 100)
    exact = hvp(W, V)
    h = 1e-5
    fd = (grad_loss(W + h * V) - grad_loss(W - h * V)) / (2 * h)
    assert np.max(np.abs(exact - fd)) <= 1e-7 * np.max(np.abs(exact))


def test_stacked_hvp_equals_per_direction_calls():
    d = 6
    W = np.eye(d) + 0.3 * random_matrix(d, seed=51)
    V = np.random.default_rng(52).normal(size=(4, d, d))
    stacked = hvp(W, V)
    assert stacked.shape == V.shape
    for k in range(4):
        assert np.array_equal(stacked[k], hvp(W, V[k]))


def test_hvp_rejects_antiparallel_rows_and_bad_shapes():
    W = np.eye(4)
    W[1] = -W[0]
    with pytest.raises(NearParallelRows):
        hvp(W, np.ones((4, 4)))
    with pytest.raises(DimensionMismatch):
        hvp(np.eye(4), np.ones((5, 5)))
    with pytest.raises(DimensionMismatch):
        hvp(np.eye(4), np.ones((2, 2, 4, 4)))


@pytest.mark.parametrize("d", [7, 20])
def test_identity_has_exact_triple_eigenvalue_on_split_chart(d):
    # at W = I every student row is parallel to its teacher row; the
    # parallel-row limit must give the analytic (pi - 2)/(4 pi) exactly
    chart = build_chart(d, YoungPartitionGroup((d - 2, 1, 1)))
    evals = np.linalg.eigvalsh(chart_hessian(chart, project(chart, np.eye(d))))
    exact = (np.pi - 2) / (4 * np.pi)
    assert np.max(np.abs(evals[:3] - exact)) <= 1e-12
    assert evals[3] > exact + 0.01


# ------------------------------------------------- orbit-reduced chart path

ORBIT_PARTITIONS = [(7,), (6, 1), (5, 1, 1), (2, 2, 3), (1, 6), (3, 1, 2, 1),
                    (20,), (17, 1, 1, 1), (5, 4, 3), (100,), (99, 1), (98, 1, 1)]


def _dense_chart_values(chart, xi):
    W = embed(chart, xi)
    B = np.array([embed(chart, e) for e in np.eye(chart.dim)])
    H = np.tensordot(B, hvp(W, B), axes=([1, 2], [1, 2]))
    return loss(W), project(chart, grad_loss(W)), 0.5 * (H + H.T)


@pytest.mark.parametrize("blocks", ORBIT_PARTITIONS)
def test_orbit_path_matches_dense_oracle(blocks):
    # chart loss, gradient and Hessian from one representative row per
    # block against the d x d kernel, at random points and at W = I
    d = sum(blocks)
    chart = build_chart(d, YoungPartitionGroup(blocks))
    rng = np.random.default_rng(d + len(blocks))
    points = [project(chart, np.eye(d))]
    points += [project(chart, np.eye(d) + 0.3 * embed(chart, rng.normal(size=chart.dim)))
               for _ in range(2)]
    for xi in points:
        L, g, H = _dense_chart_values(chart, xi)
        assert abs(chart_point(chart, xi).loss() - L) <= 1e-10 * max(1.0, abs(L))
        gap = np.max(np.abs(chart_gradient(chart, xi) - g))
        assert gap <= 1e-10 * max(1.0, np.max(np.abs(g)))
        gap = np.max(np.abs(chart_hessian(chart, xi) - H))
        assert gap <= 1e-10 * max(1.0, np.max(np.abs(H)))
        # the combined evaluation returns both exactly
        g2, H2 = chart_point(chart, xi).gradient_hessian()
        assert np.array_equal(g2, chart_gradient(chart, xi))
        assert np.array_equal(H2, chart_hessian(chart, xi))
        # and so does one point, whichever value is read first
        for first in ("loss", "gradient", "gradient_hessian"):
            point = chart_point(chart, xi)
            getattr(point, first)()
            assert point.loss() == chart_point(chart, xi).loss()
            assert np.array_equal(point.gradient(), g2)
            g3, H3 = point.gradient_hessian()
            assert np.array_equal(g3, g2) and np.array_equal(H3, H2)


def test_orbit_path_raises_the_dense_error_types():
    chart = build_chart(7, YoungPartitionGroup((1, 1, 5)))
    fns = (lambda chart, xi: chart_point(chart, xi).loss(), chart_gradient, chart_hessian,
           chart_point)
    for fn in fns:
        with pytest.raises(DimensionMismatch):
            fn(chart, np.ones(chart.dim + 1))
        with pytest.raises(DegenerateVector):
            fn(chart, np.full(chart.dim, np.nan))
        with pytest.raises(DegenerateVector):
            fn(chart, np.zeros(chart.dim))
    # student row 1 = -(student row 0), and W = -I (every student row
    # antiparallel to its teacher row): the dense gradient raises too
    W = embed(chart, np.random.default_rng(5).normal(size=chart.dim))
    W[1] = -W[0]
    for M in (W, -np.eye(7)):
        xi = project(chart, M)
        with pytest.raises(NearParallelRows):
            grad_loss(embed(chart, xi))
        for fn in (chart_gradient, chart_hessian):
            with pytest.raises(NearParallelRows):
                fn(chart, xi)
        assert np.isfinite(chart_point(chart, xi).loss())
        assert chart_point(chart, xi).loss() == pytest.approx(loss(embed(chart, xi)), abs=1e-12)
        # a point there serves the loss and refuses the derivatives
        point = chart_point(chart, xi)
        assert point.loss() == chart_point(chart, xi).loss()
        for read in (point.gradient, point.gradient_hessian):
            with pytest.raises(NearParallelRows):
                read()


@pytest.mark.parametrize("blocks", ORBIT_PARTITIONS)
def test_stacked_points_match_single_points(blocks):
    # a stack of points gives every row the bits of that point evaluated
    # alone, whatever the stack's size and memory layout
    d = sum(blocks)
    chart = build_chart(d, YoungPartitionGroup(blocks))
    rng = np.random.default_rng(d + len(blocks))
    scales = rng.choice([1e-3, 0.3], size=(33, 1))
    X = project(chart, np.eye(d)) + scales * rng.normal(size=(33, chart.dim))
    X[0] = project(chart, np.eye(d))
    singles = [chart_point(chart, xi) for xi in X]
    stacks = [(X[:b], np.arange(b)) for b in (1, 2, 8, 33)]
    subset = np.array([30, 4, 17, 4, 0])
    stacks += [(X[subset], subset), (np.asfortranarray(X), np.arange(33)),
               (X[::2], np.arange(0, 33, 2))]
    for S, rows in stacks:
        stack = chart_point(chart, S)
        L, G = stack.loss(), stack.gradient()
        assert L.shape == (len(rows),) and G.shape == (len(rows), chart.dim)
        # the gradient rows are C-ordered: a row-wise dot product of them
        # has the single points' bits
        dots = (G[:, None, :] @ G[:, :, None])[:, 0, 0]
        for i, j in enumerate(rows):
            assert L[i] == singles[j].loss()
            g = singles[j].gradient()
            assert np.array_equal(G[i], g) and dots[i] == g @ g
        # so do the gradient and Hessian of a fresh stack, read first
        G, H = chart_point(chart, S).gradient_hessian()
        assert H.shape == (len(rows), chart.dim, chart.dim)
        for i, j in enumerate(rows):
            g, h = singles[j].gradient_hessian()
            assert np.array_equal(G[i], g) and np.array_equal(H[i], h)
    # one point is a stack of one
    one = chart_point(chart, X[5:6])
    assert one.loss()[0] == singles[5].loss()
    assert np.array_equal(one.gradient()[0], singles[5].gradient())
    G, H = one.gradient_hessian()
    assert np.array_equal(G[0], singles[5].gradient_hessian()[0])
    assert np.array_equal(H[0], singles[5].gradient_hessian()[1])


def test_stacked_points_raise_the_single_point_errors():
    chart = build_chart(7, YoungPartitionGroup((1, 1, 5)))
    rng = np.random.default_rng(11)
    X = project(chart, np.eye(7)) + 0.3 * rng.normal(size=(4, chart.dim))
    for shape in ((4, chart.dim + 1), (4, chart.dim - 1), (2, 2, chart.dim)):
        with pytest.raises(DimensionMismatch):
            chart_point(chart, np.ones(shape))
    for bad in (np.nan, np.inf):
        Y = X.copy()
        Y[2, 1] = bad
        with pytest.raises(DegenerateVector):
            chart_point(chart, Y)
    Y = X.copy()
    Y[3] = 0.0
    with pytest.raises(DegenerateVector):
        chart_point(chart, Y)
    # a stack with one antiparallel row serves every loss and refuses the
    # gradient; the rows without it still give theirs
    W = embed(chart, rng.normal(size=chart.dim))
    W[1] = -W[0]
    Y = np.vstack([X, project(chart, W)])
    stack = chart_point(chart, Y)
    assert np.array_equal(stack.loss(), [chart_point(chart, y).loss() for y in Y])
    with pytest.raises(NearParallelRows):
        stack.gradient()
    with pytest.raises(NearParallelRows):
        chart_point(chart, Y[[0, 4]]).gradient()
    with pytest.raises(NearParallelRows):
        chart_point(chart, Y).gradient_hessian()
    assert np.array_equal(chart_point(chart, Y[[0, 2]]).gradient(),
                          [chart_gradient(chart, X[i]) for i in (0, 2)])
