"""Tangency arc continuation and sphere-constrained extremization.

An arc through a critical point C collects solutions of
grad L(W) = 2 lambda (W - C) at increasing radii r = |W - C|. Each radius
is solved by Newton on the square system in (xi, lambda); continuation
runs in orthonormal chart coordinates so the sphere constraint needs no
metric correction. The engine is generic over the objective so the
polynomial toy problem can reuse it with analytic derivatives.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .atlas import (
    chart_gradient,
    chart_hessian,
    chart_point,
    refined_minimum,
)
from .errors import (
    BadDirection,
    DimensionMismatch,
    NoConvergence,
    TangencyLabError,
)
from .stats import counts
from .symmetry import (
    YoungPartitionGroup,
    build_chart,
    embed,
    isotypic_project,
    project,
    transfer,
)

@dataclass(frozen=True)
class TraceConfig:
    delta_r: float = 1e-3
    r_min: float = 1e-7
    r_max: float = 10.0
    newton_tol: float = 1e-10
    max_newton_iters: int = 25
    cond_threshold: float = 1e12

    def __post_init__(self):
        for name in ("delta_r", "r_min", "r_max", "newton_tol", "cond_threshold"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (0 < self.r_min < self.delta_r < self.r_max):
            raise ValueError("need 0 < r_min < delta_r < r_max")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")
        if self.cond_threshold <= 1:
            raise ValueError("cond_threshold must exceed 1")


@dataclass(frozen=True)
class ArcRecord:
    chart: object
    center_xi: np.ndarray
    samples: tuple  # of (r, xi, lambda)
    termination: str
    terminal_radius: float


def _stacked(fn, X, *shapes):
    """fn at the (B, n) stack X: a tuple of stacks shaped (B,) + each of
    `shapes`. When the stacked call raises, each row of a stack of more
    than one is evaluated alone, as a (1, n) stack, and the entries of a
    row that raises are NaN."""
    try:
        return fn(X)
    except TangencyLabError:
        out = tuple(np.full((len(X),) + shape, np.nan) for shape in shapes)
        if len(X) == 1:
            return out
        for i in range(len(X)):
            try:
                values = fn(X[i:i + 1])
            except TangencyLabError:
                continue
            for o, v in zip(out, values):
                o[i] = v[0]
        return out


def _dots(A, B=None):
    # the rows' dot products a . b (B = A if None), each with the bits of `a @ b`
    return (A[:, None, :] @ (A if B is None else B)[:, :, None])[:, 0, 0]


class _Residuals:
    """The residual history of one chord solve."""

    __slots__ = ("start", "best", "last", "rises", "since_best")

    def __init__(self, res):
        self.start = self.best = self.last = res
        self.rises = self.since_best = 0

    def runs_away(self, res):
        """Take the next residual; True if the solve is to stop as 'diverged'."""
        self.rises = self.rises + 1 if res > self.last else 0
        self.since_best = 0 if res < self.best else self.since_best + 1
        self.best = min(self.best, res)
        self.last = res
        return (self.rises >= 5 and res > self.start) or self.since_best >= 12


def _newton_solve(grad_fn, grad_hess_fn, center, xi, lam, r, cfg):
    """Solve [grad - 2*lam*u; |u|^2 - r^2] = 0 from each row of a stack of guesses.

    The rows of xi (B, n), with lam and r (each a scalar or one value per
    row), are independent problems about the one center; grad_fn and
    grad_hess_fn take a stack of points. A chord iteration: `grad_hess_fn`
    gives the gradient and the Hessian at the initial guess, and that
    Hessian is kept for the whole solve; borders and the multiplier shift
    are rebuilt each iterate. Later residuals use the exact gradient from
    `grad_fn`, so the acceptance test is unaffected by the frozen
    second-order term.

    cfg.max_newton_iters (`--max-newton-iters`) stays the budget of
    iterates. A solve stops early as 'diverged' once its residual has
    risen five times in a row and lies above its starting residual, so a
    chord iteration running away from its guess costs six gradient
    evaluations instead of the whole budget. A rise that stays below the
    starting residual runs on: chord iterations that rise for a while and
    then converge do occur. A solve whose residual has set no new running
    minimum for twelve iterates, stalled or wandering, stops as
    'diverged' too; chord iterations that converge after eleven such
    iterates occur.

    The rows run in lockstep: each round evaluates the running rows in
    one stacked call (the first round their gradients and Hessians),
    tests their conditions with one stacked SVD and takes their steps
    with one stacked solve, and a row leaves the stack when it ends. Each
    row takes the floating-point operations of its problem solved alone,
    and no row's outcome depends on another's. When a stacked evaluation
    raises, its rows are evaluated alone, and a row that raises ends
    'diverged'.

    Returns one (xi, lam, 'ok') or (None, None, reason) per row, reason
    one of 'singular', 'diverged'.
    """
    n = center.size
    counts.update({"newton.calls": 1, "newton.rows": len(xi)})
    rows = list(range(len(xi)))
    lam, r = np.full(len(rows), lam), np.full(len(rows), r)
    rr = r * r
    ends = [(None, None, "diverged")] * len(rows)
    history = [None] * len(rows)
    eye = np.eye(n)
    grads = lambda X: (grad_fn(X),)
    for it in range(cfg.max_newton_iters):
        counts["newton.gradients"] += len(xi)
        if it == 0:
            G, H = _stacked(grad_hess_fn, xi, (n,), (n, n))
        else:
            counts["newton.later_calls"] += 1
            G, = _stacked(grads, xi, (n,))
        U = xi - center
        shift = 2.0 * lam
        F = np.empty((len(rows), n + 1))
        F[:, :n] = G - shift[:, None] * U
        F[:, n] = _dots(U) - rr
        keep = []
        for i, (row, res) in enumerate(zip(rows, np.sqrt(_dots(F)).tolist())):
            # a non-finite F gives a non-finite residual
            if not (math.isfinite(res) or np.isfinite(F[i]).all()):
                continue
            if res <= cfg.newton_tol:
                ends[row] = (xi[i], lam[i], "ok")
            elif it == 0:
                history[row] = _Residuals(res)
                keep.append(i)
            elif not history[row].runs_away(res):
                keep.append(i)
        if len(keep) < len(rows):
            if not keep:
                break
            rows = [rows[i] for i in keep]
            xi, lam, rr, H, U, F, shift = (a[keep] for a in (xi, lam, rr, H, U, F, shift))
        J = np.zeros((len(rows), n + 1, n + 1))
        J[:, :n, :n] = H - shift[:, None, None] * eye
        J[:, :n, n] = -2.0 * U
        J[:, n, :n] = 2.0 * U
        keep = []
        counts["newton.svds"] += 1
        for i, (top, low) in enumerate(np.linalg.svd(J, compute_uv=False)[:, ::n].tolist()):
            # the 2-norm condition number, as np.linalg.cond computes it; a
            # zero singular value is an infinite condition number
            if low == 0.0 or top / low >= cfg.cond_threshold:
                ends[rows[i]] = (None, None, "singular")
            else:
                keep.append(i)
        if len(keep) < len(rows):
            if not keep:
                break
            rows = [rows[i] for i in keep]
            xi, lam, rr, H, F, J = (a[keep] for a in (xi, lam, rr, H, F, J))
        try:
            step = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.full_like(F, np.nan)
            for i in range(len(rows)):
                try:
                    step[i] = np.linalg.solve(J[i], -F[i])
                except np.linalg.LinAlgError:
                    ends[rows[i]] = (None, None, "singular")
        if not np.isfinite(step).all():
            finite = np.isfinite(step).all(axis=1)
            rows = [row for row, ok in zip(rows, finite) if ok]
            if not rows:
                break
            xi, lam, rr, H, step = (a[finite] for a in (xi, lam, rr, H, step))
        xi = xi + step[:, :n]
        lam = lam + step[:, n]
    return ends


_FAIL_TAG = {"singular": "SingularJacobian", "diverged": "NewtonDiverged"}


def _checkpoint_multiples():
    """j = 1, 2, 5, 10, 20, 50, ...: the checkpoints r_min + j * delta_r."""
    scale = 1
    while True:
        for m in (1, 2, 5):
            yield m * scale
        scale *= 10


def _only(ends):
    # the one start's result, or its error raised
    [end] = ends
    if isinstance(end, TangencyLabError):
        raise end
    return end


def continue_arc(grad_fn, grad_hess_fn, center, direction, rayleigh, cfg):
    """`continue_arcs` from one start: (samples, tag, terminal radius), or
    the run's error raised."""
    return _only(continue_arcs(grad_fn, grad_hess_fn, center, [(direction, rayleigh)], cfg))


def continue_arcs(grad_fn, grad_hess_fn, center, starts, cfg):
    """Generic Lagrangian continuation from center along unit directions.

    `starts` holds one (direction, rayleigh) pair per run. grad_fn
    evaluates the objective's gradient and grad_hess_fn its gradient and
    Hessian together, in the same coordinates as `center`, each at every
    row of a (B, n) stack of points. Each radius is one chord solve of
    `_newton_solve`: the gradient and Hessian at the radial guess, then
    one gradient per iterate, within the budget of cfg.max_newton_iters
    (`--max-newton-iters`) iterates; a solve whose residual runs away
    from its start fails early as 'diverged'.

    The step is adaptive, with cfg.delta_r the base step (Allgower &
    Georg 2003, ch. 6). The first step is delta_r. A step that its first
    solve accepts doubles the next one, up to 16 * delta_r; a step
    accepted only after halvings starts the next one from its halved
    size, but never below delta_r. No step passes the next checkpoint
    r_min + j * delta_r, j = 1, 2, 5, 10, 20, 50, ...: the radius is
    clipped to it, so every checkpoint below r_max is a sample radius,
    exactly. A failed solve halves the step; the halvings whose radius
    is still clipped to the failed one are not solved again. Every step
    is a power of two times delta_r and every checkpoint an integer
    multiple of it past r_min, so near a fold the radii tried are those a
    fixed step of delta_r tries, up to rounding. Three consecutive
    samples needing steps below 1e-6 terminate the arc as StepStalled.

    A step's first solve is one request. When it fails, the rest of its
    halving ladder (the radii the halvings would try, in order, down to
    steps of 1e-9) is the next: the halvings all start from the same
    sample, so none depends on another. The first rung in ladder order
    that converges without a far landing is taken; when every rung
    fails, the last rung's failure tags the arc.

    Two degeneracies end an arc before r_max. A fold (no solution beyond
    some radius) exhausts the step halving, leaving StepStalled or the
    Newton failure tag at the fold. A multiplier sign change means the
    arc passed through a point with vanishing gradient, i.e. met an
    adjacent critical point; the crossing is bisected to locate it and
    the arc ends there tagged SingularJacobian, matching how such events
    surface in plain Newton continuation.

    The runs advance together: each keeps one request pending (its r_min
    solve, a first trial, a ladder or a bisection midpoint), and the rows
    of all pending requests are solved in one lockstep `_newton_solve`.
    Its rows are independent, so the samples, tags and radii are those of
    each run traced alone, solving the halvings one after another, to the
    bit. Returns, per start, (samples, tag, terminal radius) or the error
    its run raised.
    """
    runs = dict(enumerate(_arc_run(center, v, rayleigh, cfg) for v, rayleigh in starts))
    ends = [None] * len(runs)
    sent = dict.fromkeys(runs)  # what each live run is sent next
    while True:
        requests = {}
        for i, run in list(runs.items()):
            try:
                requests[i] = run.send(sent[i])
            except StopIteration as stop:
                ends[i] = stop.value
                del runs[i]
            except TangencyLabError as e:
                ends[i] = e
                del runs[i]
        if not requests:
            return ends
        stacks = (np.concatenate(parts) for parts in zip(*requests.values()))
        solved = _newton_solve(grad_fn, grad_hess_fn, center, *stacks, cfg)
        at = 0
        for i, (_, _, radii) in requests.items():
            sent[i] = solved[at:at + len(radii)]
            at += len(radii)


def _arc_run(center, direction, rayleigh, cfg):
    """One run of `continue_arcs`, as a generator: it yields each request,
    the guesses (B, n), multipliers (B,) and radii (B,) of its rows, is
    sent their outcomes, one (xi, lam, status) per row, and returns
    (samples, tag, terminal radius)."""
    def solve_at(radii, base, reject_far=False):
        # chord solves at the radii from radial guesses off the sample base
        base_r, base_xi, base_lam = base
        radii = np.array(radii)
        guess = center + (radii / base_r)[:, None] * (base_xi - center)
        solved = yield guess, np.full(len(radii), base_lam), radii
        for i, (xi, _, status) in enumerate(solved):
            # Newton landed on a different solution branch: past a fold the
            # local branch has no point at this radius, so a far landing is
            # a failure of the step, not a continuation.
            if (reject_far and status == "ok" and np.linalg.norm(xi - guess[i])
                    > max(0.1 * radii[i], 20.0 * (radii[i] - base_r))):
                solved[i] = (None, None, "diverged")
        return solved

    [(xi, lam, status)] = yield ((center + cfg.r_min * direction)[None],
                                 np.array([0.5 * rayleigh]), np.array([cfg.r_min]))
    counts["arc." + status] += 1
    if status != "ok":
        raise NoConvergence(f"no tangency solution at r_min ({status})")
    samples = [(cfg.r_min, xi.copy(), float(lam))]
    stalled_streak = 0
    checkpoints = (cfg.r_min + j * cfg.delta_r for j in _checkpoint_multiples())
    checkpoint = next(checkpoints)
    next_step = cfg.delta_r
    while True:
        r_prev, xi_prev, lam_prev = samples[-1]
        if r_prev >= cfg.r_max:
            return samples, "ReachedRmax", r_prev
        while checkpoint <= r_prev:
            checkpoint = next(checkpoints)
        # the halving ladder: (step, r) for each smaller radius the
        # halvings reach, down to steps of 1e-9; r itself is clipped, so
        # that a checkpoint is met exactly
        ladder = []
        step = next_step
        while not ladder or step >= 1e-9:
            r = min(r_prev + step, checkpoint, cfg.r_max)
            if not ladder or r < ladder[-1][1]:
                ladder.append((step, r))
            step *= 0.5
        tried = yield from solve_at([ladder[0][1]], samples[-1], reject_far=True)
        if tried[0][2] != "ok" and len(ladder) > 1:
            tried += yield from solve_at([r for _, r in ladder[1:]], samples[-1], reject_far=True)
        used = next((i for i, (_, _, st) in enumerate(tried) if st == "ok"), len(tried) - 1)
        counts.update("arc." + st for _, _, st in tried[:used + 1])
        xi, lam, status = tried[used]
        if status != "ok":
            return samples, _FAIL_TAG[status], r_prev
        step, r = ladder[used]
        if step == next_step:
            next_step = min(2.0 * step, 16.0 * cfg.delta_r)
        else:
            next_step = max(step, cfg.delta_r)
        if lam_prev * lam < 0 or lam == 0.0:
            # bisect the multiplier zero between the last two radii
            lo, hi = (r_prev, xi_prev, lam_prev), (r, xi, float(lam))
            for _ in range(64):
                if hi[0] - lo[0] <= 1e-9 * max(1.0, hi[0]):
                    break
                rm = 0.5 * (lo[0] + hi[0])
                [(xm, lm, st)] = yield from solve_at([rm], lo)
                counts["arc." + st] += 1
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


def trace_arc(chart, center, direction, cfg=None):
    """`trace_arcs` along one direction: its ArcRecord, or its error raised."""
    return _only(trace_arcs(chart, center, [direction], cfg))


def _launch(chart, Hc, direction):
    # the checked unit direction and its Rayleigh quotient at the center
    v = np.asarray(direction, dtype=float)
    if v.shape != (chart.dim,):
        raise DimensionMismatch(f"expected {chart.dim} chart coordinates, got shape {v.shape}")
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise BadDirection("direction must have unit norm")
    v = v / nv
    Hv = Hc @ v
    ray = float(v @ Hv)
    resid = np.linalg.norm(Hv - ray * v)
    if resid / max(np.linalg.norm(Hv), 1e-12) > 1e-3:
        raise BadDirection("direction is not an eigenvector of the restricted Hessian")
    return v, ray


def trace_arcs(chart, center, directions, cfg=None, hessian=None):
    """Trace tangency arcs of the loss from a refined critical point, one
    along each direction, through one `continue_arcs`.

    Each direction is a unit vector of chart coordinates aligned with an
    eigenvector of the chart-restricted Hessian at the center (angle
    tolerance 1e-3): arcs launch only along eigenvector rays, so anything
    else has no branch to follow. Returns, per direction, its ArcRecord or
    its error: DimensionMismatch or BadDirection when it fails these
    checks, else the error its run raised. hessian is the chart Hessian
    at the center, when the caller has already taken it.
    """
    cfg = cfg or TraceConfig()
    center_xi = transfer(center.chart, center.xi, chart)
    Hc = chart_hessian(chart, center_xi) if hessian is None else hessian
    starts = []
    for direction in directions:
        try:
            starts.append(_launch(chart, Hc, direction))
        except TangencyLabError as e:
            starts.append(e)
    ends = iter(continue_arcs(lambda xi: chart_gradient(chart, xi),
                              lambda xi: chart_point(chart, xi).gradient_hessian(), center_xi,
                              [s for s in starts if not isinstance(s, TangencyLabError)], cfg))
    ends = [s if isinstance(s, TangencyLabError) else next(ends) for s in starts]
    return [end if isinstance(end, TangencyLabError) else
            ArcRecord(chart, center_xi, tuple(end[0]), end[1], float(end[2])) for end in ends]


def _tangent_bases(U):
    """(B, n, n - 1): per row u of U, the Householder reflection taking u
    to the axis of its largest |entry|, that column dropped."""
    n, j, rows = U.shape[1], np.argmax(np.abs(U), axis=1), np.arange(len(U))
    V = U / np.sqrt(_dots(U))[:, None]
    V[rows, j] += np.where(V[rows, j] >= 0.0, 1.0, -1.0)
    Q = np.eye(n) - (2.0 / _dots(V))[:, None, None] * (V[:, :, None] * V[:, None, :])
    cols = np.arange(n - 1) + (np.arange(n - 1) >= j[:, None])
    return np.take_along_axis(Q, cols[:, None, :], axis=2)


def _trust_region_step(mu, beta, delta):
    """The minimizer p of beta . p + (mu * p) . p / 2 over |p| <= delta.

    The model is given in the eigenbasis of its Hessian, eigenvalues mu
    ascending. The step is exact (More & Sorensen 1983): the interior
    Newton step when the Hessian is positive definite and the step fits,
    else p(s) = -beta / (mu + s) on the boundary, with s > max(0, -mu[0])
    from Newton's iteration on the secular equation 1/|p(s)| = 1/delta,
    which rises to its root monotonically from the left. In the hard case
    (beta vanishes on the lowest eigenvectors and p(-mu[0]) lies inside)
    the step is completed to the boundary along the first eigenvector.
    """
    lo = max(0.0, -mu[0])
    act = beta != 0.0
    shift = mu + lo
    p = np.zeros_like(beta)
    p[act] = -beta[act] / np.where(shift[act] > 0.0, shift[act], np.inf)
    pole = act & (shift <= 0.0)
    if not pole.any() and p @ p <= delta * delta:
        if mu[0] <= 0.0:
            p[0] += np.sqrt(delta * delta - p @ p)
        return p
    mu_a, beta_a = mu[act], beta[act]
    s = max(lo + np.linalg.norm(beta[pole]) / delta, np.linalg.norm(beta_a) / delta - mu_a[-1])
    for _ in range(50):
        d = mu_a + s
        p_a = -beta_a / d
        pn = np.linalg.norm(p_a)
        if abs(pn - delta) <= 1e-12 * delta:
            break
        s += (pn * pn / ((p_a * p_a) @ (1.0 / d))) * (pn - delta) / delta
    p[act] = p_a
    return p


#: the most rows of one stacked orbit evaluation: bounds a sphere stack's memory
_EVALUATE_ROWS = 256


def _evaluate(chart, X, hessian=True):
    """The loss and gradient at each row of X (B, n), with the Hessian if
    `hessian`, from one stacked orbit evaluation per `_EVALUATE_ROWS` rows:
    a list of (f, g), or of (f, (g, H)), per row.

    When a stacked call raises, its rows are evaluated alone, and the
    error a row raises takes the place of what it could not give: of both
    entries if the point itself is invalid, of the derivatives if only
    they raise.
    """
    if len(X) > _EVALUATE_ROWS:
        return [v for at in range(0, len(X), _EVALUATE_ROWS)
                for v in _evaluate(chart, X[at:at + _EVALUATE_ROWS], hessian)]
    derivatives = (lambda p: p.gradient_hessian()) if hessian else (lambda p: p.gradient())
    try:
        point = chart_point(chart, X)
        D = derivatives(point)
        return list(zip(point.loss(), zip(*D) if hessian else D))
    except TangencyLabError:
        pass
    out = []
    for x in X:
        try:
            point = chart_point(chart, x)
        except TangencyLabError as e:
            out.append((e, e))
            continue
        try:
            out.append((point.loss(), derivatives(point)))
        except TangencyLabError as e:
            out.append((point.loss(), e))
    return out


def _sphere_descents(chart, center, X, r, sign, floor):
    """Riemannian trust-region Newton for sign * loss on the chart sphere
    |xi - center| = r (Absil, Baker & Gallivan 2007), from each row of X,
    a point on it; r and sign are given per row.

    The model at xi is the exact chart gradient and Hessian taken to the
    tangent plane of u = xi - center: P g and P (H - (g . u / u . u) I) P,
    with P the projector onto that plane; its subproblem is solved exactly
    in an orthonormal basis of the plane. A step is retracted radially onto
    the sphere and accepted on the ratio of the actual to the predicted
    decrease, which also sets the trust radius (at most r). Below `floor`,
    the rounding floor of the loss, that ratio is noise: a predicted
    decrease there ends the descent, after taking the step if it is an
    interior Newton step. A descent also ends after 1000 iterations.

    The descents run in lockstep, each round on stacked models with one
    `eigh` and one `_evaluate` of the trial points. Rows that start at one
    point share its evaluation; each row keeps the bits of its descent run
    alone. Returns, per start, its descent's error, or its last point and
    that point's (gradient, Hessian) or the error they raise; the descent
    did not need them if it ended on an unjudged step or after 1000 steps.
    """
    ends = [None] * len(X)
    xi, delta = list(X), list(r)
    unique = {x.tobytes(): x for x in X}
    values = dict(zip(unique, _evaluate(chart, np.array(list(unique.values())))))
    # an invalid point's error stands for its derivatives too
    f, gh = map(list, zip(*(values[x.tobytes()] for x in X)))
    running = range(len(X))
    for _ in range(1000):
        for i in running:
            if isinstance(gh[i], TangencyLabError):
                ends[i] = gh[i]
        running = [i for i in running if ends[i] is None]
        if not running:
            break
        U = np.array([xi[i] for i in running]) - center
        G, H = (np.array(a) for a in zip(*(gh[i] for i in running)))
        s = sign[running]
        Q = _tangent_bases(U)
        HQ = Q.transpose(0, 2, 1) @ H @ Q
        HQ -= (_dots(G, U) / _dots(U))[:, None, None] * np.eye(len(center) - 1)
        mus, Vs = np.linalg.eigh(s[:, None, None] * HQ)
        QV = Q @ Vs
        betas = s[:, None] * (G[:, None, :] @ QV)[:, 0]
        counts.update({"sphere.rounds": 1, "sphere.steps": len(running)})
        trials = []
        for i, u, qv, mu, beta in zip(running, U, QV, mus, betas):
            p = _trust_region_step(mu, beta, delta[i])
            pred = -(beta @ p + 0.5 * ((mu * p) @ p))
            newton = mu[0] > 0.0 and 0.0 < p @ p < delta[i] * delta[i]
            if pred <= floor and not newton:
                ends[i] = xi[i], gh[i]
                continue
            x = u + qv @ p
            trials.append((i, center + (r[i] / np.linalg.norm(x)) * x, p, pred))
        running = []
        if not trials:
            break
        for (i, xi_new, p, pred), (f_new, gh_new) in zip(
                trials, _evaluate(chart, np.array([t[1] for t in trials]))):
            if isinstance(f_new, TangencyLabError):
                ends[i] = f_new
            elif pred <= floor:
                # an interior Newton step the ratio cannot judge: taken
                # unjudged, it leaves the polish a step of second order
                ends[i] = xi_new, gh_new
            else:
                rho = sign[i] * (f[i] - f_new) / pred
                if rho < 0.25:
                    delta[i] *= 0.25
                elif rho > 0.75 and np.linalg.norm(p) >= 0.99 * delta[i]:
                    delta[i] = min(2.0 * delta[i], r[i])
                if rho > 0.1:
                    xi[i], f[i], gh[i] = xi_new, f_new, gh_new
                running.append(i)
    for i in running:
        ends[i] = xi[i], gh[i]
    return ends


def sphere_extremize(chart, center, problems, n_starts=8, seed=0):
    """Extremize the loss over chart spheres |xi - center| = r.

    `problems` is a sequence of (r, mode) pairs, mode 'min' or 'max'. Each
    has n_starts starts: the two extremal eigenvectors (with both signs)
    of the restricted Hessian at the center, then directions drawn from
    `default_rng(seed)`, the same for every problem. All the starts
    descend in one `_sphere_descents`, then take their Newton polishes on
    the stationarity system in one `_newton_solve`, each from the gradient
    and Hessian its descent ended with. A start counts if its polished
    point's tangential gradient (one `_evaluate` for all) is at most 1e-9.
    Each row keeps the bits of its start solved alone. Returns, per
    problem, the first best (xi, value) of its starts that count. Errors
    are those of the problems run in turn: when a descent raises, the
    problems before its own are polished, and their first error raised,
    else the failing problem's first start's.
    """
    counts["sphere.calls"] += 1
    problems = list(problems)
    for r, mode in problems:
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        if r <= 0:
            raise ValueError("need r > 0")
    if n_starts < 8:
        raise ValueError("need n_starts >= 8")
    if not problems:
        return []
    center_xi = transfer(center.chart, center.xi, chart)
    evecs = np.linalg.eigh(chart_hessian(chart, center_xi))[1]
    # the loss sums O(d^2) kernel terms of size O(1) that cancel to it
    floor = np.finfo(float).eps * chart.d ** 2
    drawn = np.random.default_rng(seed).normal(size=(n_starts - 2, chart.dim))
    randoms = [v / np.linalg.norm(v) for v in drawn]
    # one row per start, in problem order and then start order
    R, S = np.repeat([(r, 1.0 if mode == "min" else -1.0) for r, mode in problems], n_starts, 0).T
    dirs = [evecs[:, 0 if mode == "min" else -1] for _, mode in problems]
    D = np.array([v for e in dirs for v in [e, -e] + randoms])
    ends = _sphere_descents(chart, center_xi, center_xi + R[:, None] * D, R, S, floor)
    failed = next((i for i, e in enumerate(ends) if isinstance(e, TangencyLabError)), len(ends))
    # per start polished: its error, None if the polish failed, or its point
    polished = [gh for _, gh in ends[:failed // n_starts * n_starts]]
    starts = [i for i, gh in enumerate(polished) if not isinstance(gh, TangencyLabError)]
    if starts:
        X = np.array([ends[i][0] for i in starts])
        G, H = (np.array(a) for a in zip(*(polished[i] for i in starts)))
        lam = _dots(G, X - center_xi) / (2.0 * _dots(X - center_xi))
        solved = _newton_solve(lambda x: chart_gradient(chart, x), lambda _: (G, H), center_xi,
                               X, lam, R[starts], TraceConfig())
        for i, (sol_xi, _, status) in zip(starts, solved):
            if status != "ok":
                counts["sphere.failed_polishes"] += 1
                polished[i] = None
                continue
            # the polish meets |u|^2 = r^2 to 1e-10: the point is put on
            # the sphere, and its stationarity is tested there
            u = sol_xi - center_xi
            polished[i] = center_xi + (R[i] / np.linalg.norm(u)) * u
    # the polished points' losses and gradients, from one stacked call
    points = [p for p in polished if isinstance(p, np.ndarray)]
    values = iter(_evaluate(chart, np.array(points), hessian=False) if points else [])
    results = []
    for at in range(0, len(polished), n_starts):
        best_xi, best_val = None, None
        for sol_xi in polished[at:at + n_starts]:
            if isinstance(sol_xi, TangencyLabError):
                raise sol_xi
            if sol_xi is None:
                continue
            fx, g = next(values)
            if isinstance(g, TangencyLabError):
                raise g
            u = sol_xi - center_xi
            if np.linalg.norm(g - ((g @ u) / (u @ u)) * u) > 1e-9:
                continue
            if best_val is None or S[at] * (fx - best_val) < 0:
                best_xi, best_val = sol_xi, fx
        if best_xi is None:
            raise NoConvergence("no start reached stationarity on the sphere")
        results.append((best_xi, float(best_val)))
    if failed < len(ends):
        raise ends[failed]
    return results


#: relative width of the minimal eigenvalue cluster
_CLUSTER_TOL = 1e-5


def minimal_eig_directions(chart, H):
    """Canonical unit directions spanning the minimal eigenvalue cluster.

    A separated minimal eigenvalue yields its eigenvector alone. When the
    bottom of the spectrum is a cluster (symmetry copies are exactly
    degenerate, and distinct isotypic components can coincide too), the
    eigenvectors returned by a dense solver are an arbitrary rotation of
    the cluster space, so the cluster is re-split canonically: first by
    isotypic component, then by membership in the smaller ambient charts
    the chart contains, with any orthogonal remainder last. Returns
    (directions, min_eigenvalue).
    """
    evals, evecs = np.linalg.eigh(H)
    lam0 = float(evals[0])
    m = int(np.sum(evals <= evals[0] + _CLUSTER_TOL * max(1.0, abs(lam0))))
    E = evecs[:, :m]
    if m == 1:
        return [E[:, 0]], lam0
    cands = []

    def add(v):
        for w in cands:
            v = v - (v @ w) * w
        nv = np.linalg.norm(v)
        if nv < 0.05:
            return
        v = v / nv
        Hv = H @ v
        ray = float(v @ Hv)
        if np.linalg.norm(Hv - ray * v) <= 5e-4 * max(np.linalg.norm(Hv), 1e-12):
            cands.append(v)

    d = chart.d
    k = len(chart.group.blocks) - 1
    subbases = []
    for kp in range(1, k):
        sub = build_chart(d, YoungPartitionGroup((d - kp,) + (1,) * kp))
        subbases.append(np.column_stack([transfer(sub, e, chart) for e in np.eye(sub.dim)]))

    def split(B):
        # the columns of B span a subspace: its directions in the smaller
        # ambient charts come first, then its columns
        if B.shape[1] > 1:
            for SB in subbases:
                W, sv2, _ = np.linalg.svd(B.T @ SB, full_matrices=False)
                for i in np.flatnonzero(sv2 >= 1.0 - 1e-6):
                    add(B @ W[:, i])
        for j in range(B.shape[1]):
            add(B[:, j])

    for label in ("t", "s", "x", "y"):
        A = np.column_stack(
            [project(chart, isotypic_project(embed(chart, E[:, j]), label)) for j in range(m)]
        )
        U, sv, _ = np.linalg.svd(A, full_matrices=False)
        split(U[:, sv > 0.05])
    # a cluster spanning several labels (an exact degeneracy) is still
    # split canonically by membership in the smaller ambients
    split(E)
    return cands, lam0


def _cell_value(results, floor):
    """The value, radius and arc (or error) that `arc_radius_table` reads
    off a cell's results, ArcRecords or errors, with floor 2 * delta_r."""
    arcs = [a for a in results if not isinstance(a, TangencyLabError)]
    # an arc that dies almost at launch supports no tangency branch
    past = [a for a in arcs if a.termination != "ReachedRmax" and a.terminal_radius > floor]
    if past:
        best = min(past, key=lambda a: a.terminal_radius)
        return {"radius": best.terminal_radius, "value": "%.2f" % best.terminal_radius, "arc": best}
    if not arcs:
        return {"radius": None, "value": f"error:{type(results[0]).__name__}",
                "error": str(results[0])}
    reached = any(a.termination == "ReachedRmax" for a in arcs)
    return {"radius": None, "value": "inf" if reached else "none", "arc": arcs[0]}


def arc_radius_table(family, k, d, cfg=None):
    """Terminal radius of the minimal-eigenvalue arcs of one (family, k, d) cell.

    k names the (d-k, 1^k) ambient chart, i.e. the number of singleton
    blocks. Every canonical direction of the minimal eigenvalue cluster
    is traced with both signs, all runs through one `trace_arcs`. The
    cell is the first smallest terminal radius above 2 * delta_r among
    the runs that neither failed nor reached r_max, with its ArcRecord;
    else 'error:<name>', the first run's error, if no run traced; else
    'inf' if a run reached r_max and 'none' if not, with the first arc
    traced. A failure to set the cell up is 'error:<name>' too. The
    center is the memoized `atlas.refined_minimum`.
    """
    cfg = cfg or TraceConfig()
    chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
    try:
        rec = refined_minimum(family, d)
        center_xi = transfer(rec.chart, rec.xi, chart)
        Hc = chart_hessian(chart, center_xi)
        dirs, lam0 = minimal_eig_directions(chart, Hc)
    except TangencyLabError as e:
        return {"value": f"error:{type(e).__name__}", "error": str(e)}
    results = trace_arcs(chart, rec, [s * v for v in dirs for s in (1.0, -1.0)], cfg, Hc)
    runs = tuple((f"error:{type(a).__name__}", None) if isinstance(a, TangencyLabError)
                 else (a.termination, a.terminal_radius) for a in results)
    cell = _cell_value(results, 2.0 * cfg.delta_r)
    cell.update(runs=runs, n_directions=len(dirs), min_eigenvalue=lam0)
    return cell


def arc_to_json(arc, cfg=None):
    """JSON-ready dict: config, center fingerprint, flat samples, termination."""
    obj = {
        "blocks": list(arc.chart.group.blocks),
        "d": arc.chart.d,
        "center_xi": [float(x) for x in arc.center_xi],
        "radii": [float(r) for r, _, _ in arc.samples],
        "xi": [[float(x) for x in xi] for _, xi, _ in arc.samples],
        "lambda": [float(l) for _, _, l in arc.samples],
        "termination": arc.termination,
        "terminal_radius": arc.terminal_radius,
    }
    if cfg is not None:
        obj["config"] = asdict(cfg)
    return obj


def arc_to_csv(arc):
    """CSV of r, loss, lambda along the arc (for plotting profiles)."""
    losses = chart_point(arc.chart, np.array([xi for _, xi, _ in arc.samples])).loss()
    lines = ["r,loss,lambda"]
    for (r, _, lam), f in zip(arc.samples, losses):
        lines.append("%.17g,%.17g,%.17g" % (r, f, lam))
    return "\n".join(lines) + "\n"
