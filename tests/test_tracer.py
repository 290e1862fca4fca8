import dataclasses
import json
import warnings

import numpy as np
import pytest

from tangency_lab import kernel, toy, tracer
from tangency_lab.atlas import (
    chart_gradient,
    chart_hessian,
    chart_point,
    refine_critical,
    refined_minimum,
    seed_minimum,
)
from tangency_lab.errors import (
    BadDirection,
    DegenerateVector,
    DimensionMismatch,
    NearParallelRows,
    NoConvergence,
    TangencyLabError,
)
from tangency_lab.kernel import loss
from tangency_lab.symmetry import (
    YoungPartitionGroup,
    build_chart,
    detect_diagonal_isotropy,
    embed,
    transfer,
)
from tangency_lab.tracer import (
    TraceConfig,
    _newton_solve,
    arc_radius_table,
    arc_to_csv,
    arc_to_json,
    continue_arc,
    continue_arcs,
    minimal_eig_directions,
    sphere_extremize,
    trace_arc,
    trace_arcs,
)


@pytest.fixture(scope="module")
def c0i_record():
    chart, xi0 = seed_minimum("C0I", 7)
    return refine_critical(chart, xi0)


@pytest.fixture(scope="module")
def c1ii_record():
    chart, xi0 = seed_minimum("C1II", 7)
    return refine_critical(chart, xi0)


def _project_center(chart, record):
    from tangency_lab.symmetry import project

    return project(chart, embed(record.chart, record.xi))


# ---------------------------------------------------------- generic tracer


def test_continue_arc_on_quadratic_model():
    # for f = xi' A xi / 2 the tangency system is linear: each arc stays
    # on an eigenvector ray, the multiplier is the constant a_i / 2
    A = np.diag([0.5, 2.0, 5.0])
    grad_fn = lambda X: X @ A
    grad_hess_fn = lambda X: (X @ A, np.broadcast_to(A, (len(X),) + A.shape))
    cfg = TraceConfig(delta_r=1e-2, r_max=1.0)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        samples, term, terminal = continue_arc(
            grad_fn, grad_hess_fn, np.zeros(3), e, float(A[i, i]), cfg)
        assert term == "ReachedRmax"
        assert terminal == pytest.approx(1.0, abs=1e-12)
        radii = [r for r, _, _ in samples]
        assert radii == sorted(radii)
        assert all(b > a for a, b in zip(radii, radii[1:]))
        for r, xi, lam in samples:
            assert np.linalg.norm(xi) == pytest.approx(r, abs=1e-8)
            assert lam == pytest.approx(A[i, i] / 2, abs=1e-9)
            off = xi - (xi @ e) * e
            assert np.linalg.norm(off) <= 1e-8


def test_continue_arc_steps_grow_between_checkpoints():
    # every solve on the quadratic model succeeds at once, so the step
    # doubles up to 16 * delta_r, clipped at each checkpoint
    # r_min + j * delta_r, j = 1, 2, 5, 10, 20, 50, ...; the second run
    # ends on a checkpoint that r_prev + (checkpoint - r_prev) misses by
    # rounding, and must reach it without a sliver step
    A = np.diag([0.5, 2.0, 5.0])
    grad_fn = lambda X: X @ A
    grad_hess_fn = lambda X: (X @ A, np.broadcast_to(A, (len(X),) + A.shape))
    e = np.array([0.0, 1.0, 0.0])
    for r_min, delta_r, r_max in ((1e-7, 1e-2, 1.0), (1e-5, 0.023, 1e-5 + 5 * 0.023)):
        cfg = TraceConfig(delta_r=delta_r, r_min=r_min, r_max=r_max)
        samples, term, terminal = continue_arc(grad_fn, grad_hess_fn, np.zeros(3), e, 2.0, cfg)
        assert term == "ReachedRmax" and terminal == r_max
        radii = [r for r, _, _ in samples]
        for j in (1, 2, 5, 10, 20, 50):
            checkpoint = cfg.r_min + j * cfg.delta_r
            if checkpoint < r_max:
                assert radii.count(checkpoint) == 1
        steps = np.diff(radii)
        assert steps.max() <= 16 * cfg.delta_r * (1 + 1e-12)
        assert steps.min() >= cfg.delta_r * (1 - 1e-12)
        # a fixed step of delta_r makes 100 samples out to r = 1
        assert len(samples) <= 15
        again, _, _ = continue_arc(grad_fn, grad_hess_fn, np.zeros(3), e, 2.0, cfg)
        assert [r for r, _, _ in again] == radii
        assert all(np.array_equal(a[1], b[1]) and a[2] == b[2] for a, b in zip(samples, again))


def _stacked_model(grad, hess):
    """A model's gradient and gradient-Hessian functions on (B, n) stacks,
    from its functions of one point: each row is evaluated alone."""
    grads = lambda X: np.array([grad(x) for x in X])
    return grads, lambda X: (grads(X), np.array([hess(x) for x in X]))


def _wavy_model(a, b):
    """f(x) = x_2^2 / 2 - (a / b) cos(b x_2) on the plane, with a log of gradient calls.

    f does not depend on x_1, so from lambda = 0 a chord solve on a circle
    about the origin keeps lambda = 0 and runs the scalar chord iteration
    x_2 <- x_2 - f'(x_2) / f''(x_2 at the start) on the tangential
    coordinate. Returns its gradient and Hessian at one point.
    """
    calls = []

    def grad(x):
        calls.append(x.copy())
        return np.array([0.0, x[1] + a * np.sin(b * x[1])])

    def hess(x):
        return np.diag([0.0, 1.0 + a * b * np.cos(b * x[1])])

    def residual(x, r):
        return np.hypot(x[1] + a * np.sin(b * x[1]), x @ x - r * r)

    return grad, hess, residual, calls


def _flat_stall_model(calls):
    # f'(x_2) = 2 x_2 under a frozen Hessian of half that curvature
    def grad(x):
        calls.append(x.copy())
        return np.array([0.0, 2.0 * x[1]])

    return grad, lambda x: np.diag([0.0, 1.0])


def _linear_model(calls):
    # a linear f: H = 0
    def grad(x):
        calls.append(x)
        return np.array([0.0, 1.0])

    return grad, lambda x: np.zeros((2, 2))


def test_newton_solve_stops_a_runaway_chord_iteration():
    # f'' = -1 at x_2 = 1/2 and f' = x_2 at every half-integer, so each
    # chord step doubles x_2 and the residual climbs from the start
    grad, hess, _, calls = _wavy_model(1.0 / np.pi, 2.0 * np.pi)
    xi = np.array([np.sqrt(100.0 ** 2 - 0.25), 0.5])
    [out] = _newton_solve(*_stacked_model(grad, hess), np.zeros(2), xi[None], 0.0, 100.0,
                          TraceConfig())
    assert out == (None, None, "diverged")
    assert len(calls) <= 7


def test_newton_solve_runs_through_a_rise_below_the_start():
    # the residual rises five times in a row but stays below its start,
    # and the chord iteration then converges
    grad, hess, residual, calls = _wavy_model(0.5, 2.0 * np.pi)
    xi0 = np.array([np.sqrt(5.0), 2.0])
    [(xi, lam, status)] = _newton_solve(*_stacked_model(grad, hess), np.zeros(2), xi0[None],
                                        0.0, 3.0, TraceConfig())
    assert status == "ok"
    res = [residual(x, 3.0) for x in calls]
    rises = [b > a for a, b in zip(res, res[1:])]
    assert any(all(rises[i:i + 5]) for i in range(len(rises) - 4))
    assert max(res[1:]) < res[0]
    assert np.linalg.norm(xi) == pytest.approx(3.0, abs=1e-10)
    assert abs(xi[1] + 0.5 * np.sin(2.0 * np.pi * xi[1])) <= 1e-10


def test_newton_solve_stops_a_flat_stall():
    # each chord step sends x_2 = 1/2 to -x_2 and back, and the residual
    # rises once, from 1 to 1.416, then stays flat at 1.414. It never
    # rises five times in a row, and it sets no new running minimum for
    # twelve iterates
    calls = []
    xi0 = np.array([np.sqrt(100.0 - 0.25), 0.5])
    [out] = _newton_solve(*_stacked_model(*_flat_stall_model(calls)), np.zeros(2), xi0[None],
                          0.0, 10.0, TraceConfig())
    assert out == (None, None, "diverged")
    assert len(calls) == 13
    assert [x[1] for x in calls] == pytest.approx([0.5, -0.5] * 6 + [0.5])


def test_newton_solve_reports_an_exactly_singular_jacobian():
    # with lambda = 0 and u = e_1 the bordered Jacobian of a linear f has
    # a zero row, so its smallest singular value is exactly 0
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [out] = _newton_solve(*_stacked_model(*_linear_model(calls)), np.zeros(2),
                              np.array([[1.0, 0.0]]), 0.0, 1.0, TraceConfig())
    assert out == (None, None, "singular")
    assert len(calls) == 1


def _newton_solve_alone(grad, grad_hess, center, xi, lam, r, cfg):
    # the chord solve of one problem, with grad and grad_hess taking one
    # point: the reference each row of a lockstep solve must equal bit for
    # bit
    n = center.size
    try:
        g, H = grad_hess(xi)
    except TangencyLabError:
        return None, None, "diverged"
    J = np.zeros((n + 1, n + 1))
    F = np.empty(n + 1)
    for it in range(cfg.max_newton_iters):
        u = xi - center
        if it:
            try:
                g = grad(xi)
            except TangencyLabError:
                return None, None, "diverged"
        F[:n] = g - 2.0 * lam * u
        F[n] = u @ u - r * r
        if not np.isfinite(F).all():
            return None, None, "diverged"
        res = np.linalg.norm(F)
        if res <= cfg.newton_tol:
            return xi, lam, "ok"
        if it == 0:
            res0 = best = res
            rises = since_best = 0
        else:
            rises = rises + 1 if res > res_prev else 0
            since_best = 0 if res < best else since_best + 1
            best = min(best, res)
            if (rises >= 5 and res > res0) or since_best >= 12:
                return None, None, "diverged"
        res_prev = res
        np.subtract(H, 2.0 * lam * np.eye(n), out=J[:n, :n])
        J[:n, n] = -2.0 * u
        J[n, :n] = 2.0 * u
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] == 0.0 or sv[0] / sv[-1] >= cfg.cond_threshold:
            return None, None, "singular"
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None, None, "singular"
        if not np.isfinite(step).all():
            return None, None, "diverged"
        xi = xi + step[:n]
        lam = lam + step[n]
    return None, None, "diverged"


def test_newton_solve_rows_in_lockstep_end_as_they_end_alone():
    # one stack of the models above, each row on its own circle, with a
    # row whose gradient raises at its third evaluation: the stacked call
    # raises, its rows are evaluated alone, and that row ends 'diverged'.
    # A row is told by its circle, so each takes its own model in the
    # stack and alone
    calls, raised = [], []
    runaway = _wavy_model(1.0 / np.pi, 2.0 * np.pi)[:2]

    def raising_grad(x):
        if abs(x[1]) > 1.5:
            raised.append(x)
            raise NearParallelRows("a raising row")
        return runaway[0](x)

    rows = [  # (model, r, guess's x_2, outcome alone)
        (_wavy_model(0.2, 1.0)[:2], 0.5, 0.2, "ok"),
        (runaway, 100.0, 0.5, "diverged"),
        (_wavy_model(0.5, 2.0 * np.pi)[:2], 3.0, 2.0, "ok"),
        (_flat_stall_model(calls), 10.0, 0.5, "diverged"),
        (_linear_model(calls), 1.0, 0.0, "singular"),
        ((raising_grad, runaway[1]), 30.0, 0.5, "diverged"),
    ]
    radii = np.array([r for _, r, _, _ in rows])

    def model(x):
        return rows[int(np.argmin(np.abs(np.log(np.hypot(*x) / radii))))][0]

    grads, grad_hess = _stacked_model(lambda x: model(x)[0](x), lambda x: model(x)[1](x))
    X = np.array([[np.sqrt(r * r - x2 * x2), x2] for _, r, x2, _ in rows])
    cfg, center = TraceConfig(), np.zeros(2)
    alone = [_newton_solve_alone(lambda x: model(x)[0](x), lambda x: (model(x)[0](x), model(x)[1](x)),
                                 center, x, 0.0, r, cfg) for x, r in zip(X, radii)]
    assert [status for _, _, status in alone] == [outcome for *_, outcome in rows]
    assert len(raised) == 1
    one_row = [_newton_solve(grads, grad_hess, center, x[None], 0.0, r, cfg)[0] for x, r in zip(X, radii)]
    assert len(raised) == 2
    stacked = _newton_solve(grads, grad_hess, center, X, np.zeros(len(rows)), radii, cfg)
    # the stack and then the raising row alone
    assert len(raised) == 4
    assert len(stacked) == len(rows)
    for outs in zip(stacked, one_row, alone):
        assert len({status for _, _, status in outs}) == 1
        if outs[0][2] == "ok":
            assert len({xi.tobytes() for xi, _, _ in outs}) == 1
            assert len({np.float64(lam).tobytes() for _, lam, _ in outs}) == 1
    # the rows are independent: reversed or permuted, the stack gives each
    # row the status and bits of its solve alone
    for order in (np.arange(len(rows))[::-1], np.random.default_rng(3).permutation(len(rows))):
        moved = _newton_solve(grads, grad_hess, center, X[order], np.zeros(len(rows)), radii[order], cfg)
        for (xi, lam, status), (xi_ref, lam_ref, status_ref) in zip(moved, [one_row[i] for i in order], strict=True):
            assert status == status_ref
            if status == "ok":
                assert xi.tobytes() == xi_ref.tobytes()
                assert np.float64(lam).tobytes() == np.float64(lam_ref).tobytes()


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(delta_r=1e-9)  # below r_min
    with pytest.raises(ValueError):
        TraceConfig(r_max=1e-8)
    with pytest.raises(ValueError):
        TraceConfig(r_min=0.0)
    for name in ("delta_r", "r_min", "r_max", "newton_tol", "cond_threshold"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match=name):
                TraceConfig(**{name: bad})
    # settings under which no solve can converge
    for name, bad in (("newton_tol", 0.0), ("newton_tol", -1.0), ("max_newton_iters", 0),
                      ("cond_threshold", 1.0), ("cond_threshold", 0.5)):
        with pytest.raises(ValueError, match=name):
            TraceConfig(**{name: bad})


# ------------------------------------------------------------- trace_arc


def test_trace_arc_rejects_bad_directions(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((5, 1, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    _, vecs = np.linalg.eigh(H)
    mixed = (vecs[:, 0] + vecs[:, -1]) / np.sqrt(2.0)
    with pytest.raises(BadDirection):
        trace_arc(chart, c0i_record, mixed)
    with pytest.raises(BadDirection):
        trace_arc(chart, c0i_record, 2.0 * vecs[:, 0])
    # a d x d matrix is not a direction in chart coordinates
    with pytest.raises(DimensionMismatch):
        trace_arc(chart, c0i_record, embed(chart, vecs[:, 0]))


def test_arc_from_sparse_minimum_k1(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    dirs, lam0 = minimal_eig_directions(chart, H)
    assert lam0 > 0
    cfg = TraceConfig()
    best = np.inf
    for v in dirs:
        for s in (1.0, -1.0):
            arc = trace_arc(chart, c0i_record, s * v, cfg)
            center = arc.center_xi
            radii = [r for r, _, _ in arc.samples]
            assert all(b > a for a, b in zip(radii, radii[1:]))
            for r, xi, lam in arc.samples:
                assert np.linalg.norm(xi - center) == pytest.approx(r, abs=1e-8)
                g = chart_gradient(chart, xi)
                u = xi - center
                resid = np.linalg.norm(g - 2.0 * lam * u)
                assert resid <= 10 * cfg.newton_tol
            if arc.termination != "ReachedRmax":
                best = min(best, arc.terminal_radius)
    assert best == pytest.approx(1.16, abs=0.05)


def test_arc_from_dense_type_ii_minimum_k2(c1ii_record):
    chart = build_chart(7, YoungPartitionGroup((5, 1, 1)))
    H = chart_hessian(chart, _project_center(chart, c1ii_record))
    dirs, _ = minimal_eig_directions(chart, H)
    assert len(dirs) == 1
    best = np.inf
    for s in (1.0, -1.0):
        arc = trace_arc(chart, c1ii_record, s * dirs[0])
        if arc.termination != "ReachedRmax":
            best = min(best, arc.terminal_radius)
    assert best == pytest.approx(0.31, abs=0.05)


def test_trace_is_deterministic(c1ii_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c1ii_record))
    dirs, _ = minimal_eig_directions(chart, H)
    v = dirs[0]
    a = json.dumps(arc_to_json(trace_arc(chart, c1ii_record, v)), sort_keys=True)
    b = json.dumps(arc_to_json(trace_arc(chart, c1ii_record, v)), sort_keys=True)
    assert a == b


def test_tangent_direction_matches_launch(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    dirs, _ = minimal_eig_directions(chart, H)
    arc = trace_arc(chart, c0i_record, dirs[0], TraceConfig(r_max=0.05))
    r1, xi1, _ = arc.samples[0]
    assert np.linalg.norm((xi1 - arc.center_xi) / r1 - dirs[0]) <= 1e-3


def test_arc_json_roundtrip(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    dirs, _ = minimal_eig_directions(chart, H)
    cfg = TraceConfig(r_max=0.5)
    arc = trace_arc(chart, c0i_record, dirs[0], cfg)
    obj = json.loads(json.dumps(arc_to_json(arc, cfg)))
    assert obj["blocks"] == [6, 1] and obj["d"] == 7
    assert obj["config"] == dataclasses.asdict(cfg)
    assert obj["termination"] == arc.termination
    assert obj["terminal_radius"] == arc.terminal_radius
    assert np.array_equal(obj["center_xi"], arc.center_xi)
    assert obj["radii"] == [r for r, _, _ in arc.samples]
    assert obj["lambda"] == [lam for _, _, lam in arc.samples]
    assert len(obj["xi"]) == len(arc.samples)
    for x, (_, xi, _) in zip(obj["xi"], arc.samples):
        assert np.array_equal(x, xi)
    text = arc_to_csv(arc)
    lines = text.strip().splitlines()
    assert lines[0] == "r,loss,lambda"
    assert len(lines) == 1 + len(arc.samples)


# ------------------------------------------------------- sphere extremals


def test_sphere_minimum_matches_quadratic_rate(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    lam_min = float(np.linalg.eigvalsh(H)[0])
    r = 1e-3
    [(_, m_r)] = sphere_extremize(chart, c0i_record, [(r, "min")])
    ratio = (m_r - c0i_record.loss_value) / r ** 2
    assert ratio == pytest.approx(lam_min / 2.0, rel=0.10)


def test_sphere_minimum_agrees_with_arc_sample(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    dirs, _ = minimal_eig_directions(chart, H)
    cfg = TraceConfig(delta_r=1e-3, r_max=0.02)
    arcs = [trace_arc(chart, c0i_record, s * v, cfg)
            for v in dirs for s in (1.0, -1.0)]
    for r in (1e-3, 1e-2):
        [(_, m_r)] = sphere_extremize(chart, c0i_record, [(r, "min")])
        # samples sit at r_min + k * delta_r, a hair above the round radii
        arc_best = min(
            loss(embed(chart, xi))
            for arc in arcs for rr, xi, _ in arc.samples
            if abs(rr - r) <= 1e-6)
        assert abs(m_r - arc_best) <= 1e-6


def test_sphere_maximum_keeps_full_symmetry(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    [(xi, val)] = sphere_extremize(chart, c0i_record, [(1e-3, "max")])
    assert val > c0i_record.loss_value
    assert detect_diagonal_isotropy(chart, xi).blocks == (7,)


# sphere_extremize on the (6, 1) chart at d = 7, seed 0, repr-exact: the
# reported isotropy can hinge on the last bits of these values, so a
# rewrite of the descent must reproduce them exactly
SPHERE_PINS = {
    (1e-3, "min"): 0.06221100998246332,
    (1e-3, "max"): 0.06221210769286145,
    (0.1, "min"): 0.06249883635183551,
    (0.1, "max"): 0.07362957379938884,
}


@pytest.mark.parametrize("r, mode", sorted(SPHERE_PINS))
def test_sphere_extremize_pins_the_descent(c0i_record, r, mode):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    [(_, value)] = sphere_extremize(chart, c0i_record, [(r, mode)], seed=0)
    assert repr(value) == repr(SPHERE_PINS[r, mode])


def test_sphere_descent_evaluates_each_point_once(c0i_record, monkeypatch):
    # in the descents of a problem's starts before its first Newton polish
    # and between two polishes the orbit terms are computed at most once
    # per point: a trial's loss, its gradient and Hessian once accepted
    # and the polish's start share them; the center's Hessian is computed
    # once for all the problems of a call
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    phases, polishing, hessians = [[]], [False], []
    terms, newton_solve = kernel._orbit_terms, tracer._newton_solve
    chart_hessian = tracer.chart_hessian

    def recording_terms(layout, xi, *rest):
        if not polishing[0]:
            phases[-1].extend(row.tobytes() for row in np.atleast_2d(np.asarray(xi, dtype=float)))
        return terms(layout, xi, *rest)

    def marking_solve(*args):
        polishing[0] = True
        try:
            return newton_solve(*args)
        finally:
            polishing[0] = False
            # a phase ends at the polish of each start of the stack
            phases.extend([] for _ in args[3])

    def counting_hessian(*args):
        hessians.append(args)
        return chart_hessian(*args)

    monkeypatch.setattr(kernel, "_orbit_terms", recording_terms)
    monkeypatch.setattr(tracer, "_newton_solve", marking_solve)
    monkeypatch.setattr(tracer, "chart_hessian", counting_hessian)
    sphere_extremize(chart, c0i_record, sorted(SPHERE_PINS), seed=0)
    assert len(hessians) == 1
    assert len(phases) > 8 and sum(map(len, phases)) > 100
    repeats = [len(seen) - len(set(seen)) for seen in phases]
    assert repeats == [0] * len(phases)


def _tangent_lagrangian_hessian(g, H, u):
    # P (H - (g . u / u . u) I) P on an orthonormal basis of the plane
    # orthogonal to u, the eigenvectors of that plane's projector
    P = np.eye(u.size) - np.outer(u, u) / (u @ u)
    w, E = np.linalg.eigh(P)
    Q = E[:, w > 0.5]
    return Q.T @ H @ Q - ((g @ u) / (u @ u)) * np.eye(u.size - 1)


@pytest.mark.parametrize("family", ["C0I", "C0II", "C1I", "C1II"])
@pytest.mark.parametrize("d", [7, 20])
def test_sphere_extrema_are_second_order_points_on_the_sphere(family, d):
    # on the (d - 2, 1, 1) chart that `sphere` uses by default: each point
    # lies on its sphere and is stationary there, and the Lagrangian
    # Hessian on the tangent plane is PSD for a minimum and NSD for a
    # maximum, up to a curvature whose effect over the sphere, r^2 / 2
    # times it, stays below the rounding floor eps * d^2 of the loss
    rec = refined_minimum(family, d)
    chart = build_chart(d, YoungPartitionGroup((d - 2, 1, 1)))
    center = transfer(rec.chart, rec.xi, chart)
    problems = [(r, mode) for r in (1e-3, 1e-2, 0.1) for mode in ("min", "max")]
    for (r, mode), (xi, value) in zip(problems, sphere_extremize(chart, rec, problems)):
        u = xi - center
        assert abs(np.linalg.norm(u) - r) <= 1e-10, (mode, r)
        point = chart_point(chart, xi)
        assert value == point.loss()
        g, H = point.gradient_hessian()
        assert np.linalg.norm(g - ((g @ u) / (u @ u)) * u) <= 1e-9, (mode, r)
        sign = 1.0 if mode == "min" else -1.0
        lowest = np.linalg.eigvalsh(sign * _tangent_lagrangian_hessian(g, H, u))[0]
        assert lowest >= -2.0 * np.finfo(float).eps * d ** 2 / r ** 2, (mode, r)


def _sphere_descent(chart, center, xi, r, sign, floor):
    # the trust-region descent of `tracer._sphere_descents` for one start,
    # run alone: the reference the lockstep rows must equal bit for bit
    point = chart_point(chart, xi)
    f = point.loss()
    delta = r
    for _ in range(1000):
        g, H = point.gradient_hessian()
        u = xi - center
        Q = tracer._tangent_basis(u)
        HQ = Q.T @ H @ Q
        HQ -= ((g @ u) / (u @ u)) * np.eye(HQ.shape[0])
        mu, V = np.linalg.eigh(sign * HQ)
        QV = Q @ V
        beta = sign * (g @ QV)
        p = tracer._trust_region_step(mu, beta, delta)
        pred = -(beta @ p + 0.5 * ((mu * p) @ p))
        newton = mu[0] > 0.0 and 0.0 < p @ p < delta * delta
        if pred <= floor and not newton:
            break
        x = u + QV @ p
        xi_new = center + (r / np.linalg.norm(x)) * x
        trial = chart_point(chart, xi_new)
        if pred <= floor:
            return xi_new, trial
        f_new = trial.loss()
        rho = sign * (f - f_new) / pred
        if rho < 0.25:
            delta *= 0.25
        elif rho > 0.75 and np.linalg.norm(p) >= 0.99 * delta:
            delta = min(2.0 * delta, r)
        if rho > 0.1:
            xi, point, f = xi_new, trial, f_new
    return xi, point


def _sphere_extremize_start_by_start(chart, center, problems, n_starts=8, seed=0):
    # `sphere_extremize` with each start's descent run to its end before
    # the next start begins
    center_xi = transfer(center.chart, center.xi, chart)
    evecs = np.linalg.eigh(chart_hessian(chart, center_xi))[1]
    floor = np.finfo(float).eps * chart.d ** 2
    grad_fn = lambda x: chart_gradient(chart, x)
    results = []
    for r, mode in problems:
        sign = 1.0 if mode == "min" else -1.0
        pick = 0 if mode == "min" else -1
        rng = np.random.default_rng(seed)
        dirs = [evecs[:, pick], -evecs[:, pick]]
        while len(dirs) < n_starts:
            v = rng.normal(size=chart.dim)
            dirs.append(v / np.linalg.norm(v))
        ends = [_sphere_descent(chart, center_xi, center_xi + r * v, r, sign, floor)
                for v in dirs]
        best_xi, best_val = None, None
        for xi, point in ends:
            u = xi - center_xi
            lam = (point.gradient() @ u) / (2.0 * (u @ u))
            # one polish per start, each point evaluated alone
            [(sol_xi, _, status)] = _newton_solve(
                *_stacked_model(grad_fn, lambda x: point.gradient_hessian()[1]),
                center_xi, xi[None], lam, r, TraceConfig())
            if status != "ok":
                continue
            u = sol_xi - center_xi
            sol_xi = center_xi + (r / np.linalg.norm(u)) * u
            point = chart_point(chart, sol_xi)
            g = point.gradient()
            u = sol_xi - center_xi
            if np.linalg.norm(g - ((g @ u) / (u @ u)) * u) > 1e-9:
                continue
            fx = point.loss()
            if best_val is None or sign * (fx - best_val) < 0:
                best_xi, best_val = sol_xi, fx
        if best_xi is None:
            raise NoConvergence("no start reached stationarity on the sphere")
        results.append((best_xi, float(best_val)))
    return results


@pytest.mark.parametrize("n_starts", [8, 9])
@pytest.mark.parametrize("family", ["C0I", "C0II", "C1I", "C1II"])
@pytest.mark.parametrize("d, k", [(7, 3), (20, 2)])
def test_lockstep_sphere_descents_match_the_start_by_start_loop(d, k, family, n_starts):
    rec = refined_minimum(family, d)
    chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
    problems = [(r, mode) for r in (1e-3, 0.1) for mode in ("min", "max")]
    lockstep = sphere_extremize(chart, rec, problems, n_starts=n_starts)
    alone = _sphere_extremize_start_by_start(chart, rec, problems, n_starts=n_starts)
    for (xi, value), (xi_ref, value_ref) in zip(lockstep, alone, strict=True):
        assert np.array_equal(xi, xi_ref) and value == value_ref


@pytest.mark.parametrize("kind", ["point", "derivatives"])
def test_sphere_error_of_the_first_failing_start_wins(c0i_record, monkeypatch, kind):
    # start 4 fails at the third point whose orbit terms (or derivatives)
    # its descent evaluates, start 7 at its first: the lockstep meets
    # start 7's error rounds earlier, and still raises start 4's, as the
    # start-by-start loop does
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    problem = [(0.1, "min")]
    terms, gradient = kernel._orbit_terms, kernel._orbit_gradient
    seen, rows_of = [], {}

    def recording_terms(layout, xi):
        out = terms(layout, xi)
        rows_of[id(out)] = [x.tobytes() for x in np.atleast_2d(xi)]
        if kind == "point":
            seen.extend(rows_of[id(out)])
        return out

    def recording_gradient(layout, orbit_terms):
        if kind == "derivatives":
            seen.extend(rows_of[id(orbit_terms)])
        return gradient(layout, orbit_terms)

    monkeypatch.setattr(kernel, "_orbit_terms", recording_terms)
    monkeypatch.setattr(kernel, "_orbit_gradient", recording_gradient)
    center = transfer(c0i_record.chart, c0i_record.xi, chart)
    evecs = np.linalg.eigh(chart_hessian(chart, center))[1]
    rng = np.random.default_rng(0)
    dirs = [evecs[:, 0], -evecs[:, 0]] + [rng.normal(size=chart.dim) for _ in range(6)]
    floor = np.finfo(float).eps * chart.d ** 2
    bad = {}
    for start, nth in ((4, 2), (7, 0)):
        seen.clear()
        v = dirs[start] / np.linalg.norm(dirs[start])
        _sphere_descent(chart, center, center + 0.1 * v, 0.1, 1.0, floor)
        assert len(seen) > nth
        bad[seen[nth]] = start
    error = DegenerateVector if kind == "point" else NearParallelRows

    def failing_terms(layout, xi):
        out = recording_terms(layout, xi)
        starts = [bad[x] for x in rows_of[id(out)] if x in bad]
        if starts and kind == "point":
            raise error(f"start {starts[0]}")
        return out

    def failing_gradient(layout, orbit_terms):
        starts = [bad[x] for x in rows_of[id(orbit_terms)] if x in bad]
        if starts and kind == "derivatives":
            raise error(f"start {starts[0]}")
        return gradient(layout, orbit_terms)

    monkeypatch.setattr(kernel, "_orbit_terms", failing_terms)
    monkeypatch.setattr(kernel, "_orbit_gradient", failing_gradient)
    for extremize in (sphere_extremize, _sphere_extremize_start_by_start):
        with pytest.raises(error, match="^start 4$"):
            extremize(chart, c0i_record, problem)


def test_sphere_stationarity_error_of_the_first_polished_point_wins(c0i_record, monkeypatch):
    # a problem's polished points are evaluated in one stacked call, its
    # last orbit evaluation; when that call raises, each point is
    # evaluated alone, in start order, so the error of the first failing
    # point is raised, as start by start, and not the stack's own
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    problem = [(0.1, "min")]
    terms, gradient, newton_solve = kernel._orbit_terms, kernel._orbit_gradient, tracer._newton_solve
    calls, polishing = [], []

    def recording_terms(layout, xi):
        out = terms(layout, xi)
        calls.append((id(out), [x.tobytes() for x in np.atleast_2d(xi)]))
        return out

    def recording_solve(*args):
        polishing.append(True)
        return newton_solve(*args)

    monkeypatch.setattr(kernel, "_orbit_terms", recording_terms)
    monkeypatch.setattr(tracer, "_newton_solve", recording_solve)
    sphere_extremize(chart, c0i_record, problem)
    polished = calls[-1][1]
    assert len(polished) >= 5
    bad = {polished[1]: 1, polished[4]: 4}

    def failing_gradient(layout, orbit_terms):
        # the descents evaluate the same points before any polish
        rows = next(rows for key, rows in reversed(calls) if key == id(orbit_terms))
        points = [bad[x] for x in rows if x in bad]
        if points and polishing:
            raise NearParallelRows(f"polished point {points[-1]}")
        return gradient(layout, orbit_terms)

    monkeypatch.setattr(kernel, "_orbit_gradient", failing_gradient)
    polishing.clear()
    with pytest.raises(NearParallelRows, match="^polished point 1$"):
        sphere_extremize(chart, c0i_record, problem)


def test_failing_sphere_problem_raises_its_own_error_after_the_earlier_ones(monkeypatch):
    # on the (5, 1, 1) chart at d = 7 the C1II minimum search at r = 20
    # reaches a zero student row; the other problems of the list solve
    rec = refined_minimum("C1II", 7)
    chart = build_chart(7, YoungPartitionGroup((5, 1, 1)))
    with pytest.raises(TangencyLabError) as alone:
        sphere_extremize(chart, rec, [(20.0, "min")])
    polished, newton_solve = [], tracer._newton_solve

    def counting_solve(*args):
        # the radius of each start of the stack
        polished.extend(np.broadcast_to(args[-2], len(args[3])).tolist())
        return newton_solve(*args)

    monkeypatch.setattr(tracer, "_newton_solve", counting_solve)
    for earlier in ([(1.0, "min"), (4.0, "max")], []):
        polished.clear()
        with pytest.raises(TangencyLabError) as merged:
            sphere_extremize(chart, rec, earlier + [(20.0, "min"), (20.0, "max")])
        assert type(merged.value) is type(alone.value)
        assert str(merged.value) == str(alone.value) == "a student row has norm <= 1e-12"
        # each start of the problems before the failing one is polished,
        # none of the problem after it
        assert polished == [r for r, _ in earlier for _ in range(8)]


def test_sphere_extremize_validation(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    with pytest.raises(ValueError):
        sphere_extremize(chart, c0i_record, [(-1.0, "min")])
    with pytest.raises(ValueError):
        sphere_extremize(chart, c0i_record, [(1e-3, "saddle")])
    with pytest.raises(ValueError):
        sphere_extremize(chart, c0i_record, [(1e-3, "min")], n_starts=2)


# ------------------------------------------------------- direction picking


def test_minimal_eig_directions_spans_cluster(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((4, 1, 1, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    dirs, lam0 = minimal_eig_directions(chart, H)
    assert len(dirs) >= 2
    evals = np.linalg.eigvalsh(H)
    for v in dirs:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert float(v @ H @ v) == pytest.approx(lam0, abs=1e-4)
    G = np.array([[a @ b for b in dirs] for a in dirs])
    assert np.max(np.abs(G - np.eye(len(dirs)))) <= 1e-8
    assert lam0 == pytest.approx(float(evals[0]), abs=1e-12)


def test_minimal_eig_directions_are_canonical_in_exact_cluster():
    # C1II, k = 3, d = 20: the minimal eigenvalue is exactly 2-fold and no
    # isotypic label splits it; the directions must not depend on how the
    # eigensolver rotates the cluster, which rounding decides
    d = 20
    chart = build_chart(d, YoungPartitionGroup((d - 3, 1, 1, 1)))
    H = chart_hessian(chart, _project_center(chart, refined_minimum("C1II", d)))
    dirs, _ = minimal_eig_directions(chart, H)
    rng = np.random.default_rng(11)
    for _ in range(3):
        P = rng.normal(size=H.shape)
        again, _ = minimal_eig_directions(chart, H + 1e-14 * (P + P.T))
        assert len(again) == len(dirs)
        for a, b in zip(dirs, again):
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) <= 1e-8


# ----------------------------------------------------------- radius table


def test_arc_radius_table_single_cell():
    cell = arc_radius_table("C0I", 2, 7)
    assert cell["value"] == "0.62"
    assert cell["radius"] == pytest.approx(0.62, abs=0.05)
    assert cell["arc"].terminal_radius == pytest.approx(cell["radius"], abs=1e-12)
    assert cell["runs"], "expected per-run provenance"


def test_arc_radius_table_reports_a_cell_without_a_traced_run_as_its_error():
    cell = arc_radius_table("C0I", 1, 7, TraceConfig(newton_tol=1e-300))
    assert cell["value"] == "error:NoConvergence"
    assert cell["runs"] and all(run == ("error:NoConvergence", None) for run in cell["runs"])
    assert "arc" not in cell and cell["radius"] is None


def test_arc_radius_table_pins_the_newton_path():
    # tags exact and radii to 1e-9: a change of predictor, corrector or
    # step solve moves these radii by more than rounding
    cell = arc_radius_table("C1I", 1, 7, TraceConfig(delta_r=0.004))
    tags = [tag for tag, _ in cell["runs"]]
    radii = [radius for _, radius in cell["runs"]]
    assert tags == ["StepStalled", "StepStalled"]
    assert radii == pytest.approx([1.3699260033203136, 1.2432956627441412], abs=1e-9)


# ------------------------------------------------------ lockstep halvings


def _continue_arc_one_solve_at_a_time(grad_fn, grad_hess_fn, center, direction, rayleigh, cfg):
    # `tracer.continue_arc` with each halving of a step solved alone, once
    # the one before it failed, by `_newton_solve_alone`: the reference the
    # lockstep ladder must equal bit for bit
    grad = lambda x: grad_fn(x[None])[0]

    def grad_hess(x):
        g, H = grad_hess_fn(x[None])
        return g[0], H[0]

    def solve_at(r, base_r, base_xi, base_lam):
        guess = center + (r / base_r) * (base_xi - center)
        return _newton_solve_alone(grad, grad_hess, center, guess, base_lam, r, cfg)

    xi, lam, status = _newton_solve_alone(grad, grad_hess, center, center + cfg.r_min * direction,
                                          0.5 * rayleigh, cfg.r_min, cfg)
    if status != "ok":
        raise NoConvergence(f"no tangency solution at r_min ({status})")
    samples = [(cfg.r_min, xi.copy(), float(lam))]
    stalled_streak = 0
    checkpoints = (cfg.r_min + j * cfg.delta_r for j in tracer._checkpoint_multiples())
    checkpoint = next(checkpoints)
    next_step = cfg.delta_r
    while True:
        r_prev, xi_prev, lam_prev = samples[-1]
        if r_prev >= cfg.r_max:
            return samples, "ReachedRmax", r_prev
        while checkpoint <= r_prev:
            checkpoint = next(checkpoints)
        step = next_step
        while True:
            r = min(r_prev + step, checkpoint, cfg.r_max)
            xi, lam, status = solve_at(r, r_prev, xi_prev, lam_prev)
            guess = center + (r / r_prev) * (xi_prev - center)
            if status == "ok" and np.linalg.norm(xi - guess) > max(0.1 * r, 20.0 * (r - r_prev)):
                status = "diverged"
            if status == "ok":
                break
            step *= 0.5
            while step >= 1e-9 and min(r_prev + step, checkpoint, cfg.r_max) >= r:
                step *= 0.5
            if step < 1e-9:
                return samples, tracer._FAIL_TAG[status], r_prev
        if step == next_step:
            next_step = min(2.0 * step, 16.0 * cfg.delta_r)
        else:
            next_step = max(step, cfg.delta_r)
        if lam_prev * lam < 0 or lam == 0.0:
            lo, hi = (r_prev, xi_prev, lam_prev), (r, xi, float(lam))
            for _ in range(64):
                if hi[0] - lo[0] <= 1e-9 * max(1.0, hi[0]):
                    break
                rm = 0.5 * (lo[0] + hi[0])
                xm, lm, st = solve_at(rm, lo[0], lo[1], lo[2])
                if st != "ok":
                    break
                if lm * lo[2] > 0:
                    lo = (rm, xm, float(lm))
                else:
                    hi = (rm, xm, float(lm))
            if lo[0] > samples[-1][0]:
                samples.append(lo)
            if hi[0] > samples[-1][0]:
                samples.append(hi)
            denom = lo[2] - hi[2]
            r_star = lo[0] + (hi[0] - lo[0]) * (lo[2] / denom) if denom != 0 else 0.5 * (lo[0] + hi[0])
            return samples, "SingularJacobian", float(r_star)
        samples.append((r, xi.copy(), float(lam)))
        stalled_streak = stalled_streak + 1 if step < 1e-6 else 0
        if stalled_streak >= 3:
            return samples, "StepStalled", r


def _continue_arcs_one_run_at_a_time(grad_fn, grad_hess_fn, center, starts, cfg):
    # `tracer.continue_arcs` with each run traced alone by the loop above,
    # the error of a run that raises in its slot
    ends = []
    for direction, rayleigh in starts:
        try:
            ends.append(_continue_arc_one_solve_at_a_time(grad_fn, grad_hess_fn, center,
                                                          direction, rayleigh, cfg))
        except TangencyLabError as e:
            ends.append(e)
    return ends


def _assert_same_arcs(arcs, reference):
    # samples to the bit, tags and terminal radii; errors by type and message
    assert len(arcs) == len(reference) > 0
    for arc, ref in zip(arcs, reference):
        if isinstance(ref, TangencyLabError):
            assert (type(arc), str(arc)) == (type(ref), str(ref))
            continue
        (samples, tag, terminal), (samples_ref, tag_ref, terminal_ref) = arc, ref
        assert (tag, terminal) == (tag_ref, terminal_ref)
        assert [(r, xi.tobytes(), lam) for r, xi, lam in samples] == [
            (r, xi.tobytes(), lam) for r, xi, lam in samples_ref]


@pytest.mark.parametrize("family, k, d, delta_r", [
    ("C1I", 1, 7, 0.004),  # the arcs-d7 cell
    ("C1II", 1, 7, 1e-3),  # hundreds of failing halvings
    ("C0II", 3, 20, 1e-3),  # branch jumps and bisections
    ("C0II", 3, 7, 0.004),  # twelve runs in one stack
])
def test_lockstep_halvings_match_the_one_solve_at_a_time_loop(monkeypatch, family, k, d, delta_r):
    cfg = TraceConfig(delta_r=delta_r)
    out = {}
    for name, cont in (("lockstep", continue_arcs), ("reference", _continue_arcs_one_run_at_a_time)):
        arcs = []

        def recording(*args, cont=cont, arcs=arcs):
            ends = cont(*args)
            arcs.extend(ends)
            return ends

        monkeypatch.setattr(tracer, "continue_arcs", recording)
        out[name] = arc_radius_table(family, k, d, cfg), arcs
    (cell, arcs), (cell_ref, arcs_ref) = out["lockstep"], out["reference"]
    assert cell["value"] == cell_ref["value"] and cell["runs"] == cell_ref["runs"]
    _assert_same_arcs(arcs, arcs_ref)
    if family == "C0II":
        assert "SingularJacobian" in [tag for _, tag, _ in arcs]


def test_lockstep_halvings_match_the_one_solve_at_a_time_loop_on_the_toy(monkeypatch):
    # the launches and the minimum-to-saddle arc of the toy's tests
    a = np.sqrt(2.0 / 3.0)
    arcs = [((1.0, 0.0), (1.0, 0.0), 2e-3), ((1.0, 0.0), (0.0, 1.0), 2e-3),
            ((a, a), (1.0, -1.0), 2e-3), ((a, a), (1.0, 1.0), 2e-3), ((a, a), (1.0, -1.0), 3.0)]
    out = {}
    for cont in (continue_arc, _continue_arc_one_solve_at_a_time):
        monkeypatch.setattr(toy, "continue_arc", cont)
        out[cont] = [toy.trace_from(c, np.array(v) / np.linalg.norm(v), TraceConfig(delta_r=1e-4, r_max=r_max))
                     for c, v, r_max in arcs]
    _assert_same_arcs(out[continue_arc], out[_continue_arc_one_solve_at_a_time])
    assert out[continue_arc][-1][1] == "SingularJacobian"


def test_a_run_that_fails_leaves_the_runs_beside_it_as_they_are_alone():
    # the toy's quartic about the minimum (a, a), with a gradient that is
    # NaN beyond the center along the diagonal: the start there fails at
    # r_min, the two starts across the diagonal run to their saddles
    a = np.sqrt(2.0 / 3.0)
    center, out = np.array([a, a]), np.array([1.0, 1.0]) / np.sqrt(2.0)

    def grad(x):
        return np.full(2, np.nan) if (x - center) @ out > 1e-8 else toy.grad_h(x)

    grads, grad_hess = _stacked_model(grad, toy.hess_h)
    across = np.array([1.0, -1.0]) / np.sqrt(2.0)
    starts = [(v, float(v @ toy.hess_h(center) @ v)) for v in (across, out, -across)]
    cfg = TraceConfig(delta_r=1e-3, r_max=3.0)
    ends = continue_arcs(grads, grad_hess, center, starts, cfg)
    assert isinstance(ends[1], NoConvergence)
    alone = [continue_arc(grads, grad_hess, center, v, ray, cfg) for v, ray in starts[::2]]
    _assert_same_arcs(ends[::2], alone)
    assert [tag for _, tag, _ in alone] == ["SingularJacobian"] * 2
    with pytest.raises(NoConvergence):
        continue_arc(grads, grad_hess, center, *starts[1], cfg)


def test_trace_arcs_reports_a_bad_direction_in_its_own_slot(c0i_record):
    chart = build_chart(7, YoungPartitionGroup((6, 1)))
    H = chart_hessian(chart, _project_center(chart, c0i_record))
    dirs, _ = minimal_eig_directions(chart, H)
    _, vecs = np.linalg.eigh(H)
    mixed = (vecs[:, 0] + vecs[:, -1]) / np.sqrt(2.0)
    cfg = TraceConfig(r_max=0.05)
    arcs = trace_arcs(chart, c0i_record, [dirs[0], mixed, -dirs[0]], cfg)
    assert isinstance(arcs[1], BadDirection)
    for arc, v in zip(arcs[::2], (dirs[0], -dirs[0])):
        alone = trace_arc(chart, c0i_record, v, cfg)
        assert (arc.termination, arc.terminal_radius) == (alone.termination, alone.terminal_radius)
        assert [(r, xi.tobytes(), lam) for r, xi, lam in arc.samples] == [
            (r, xi.tobytes(), lam) for r, xi, lam in alone.samples]
