"""Tangency arc continuation and sphere-constrained extremization.

An arc through a critical point C collects solutions of
grad L(W) = 2 lambda (W - C) at increasing radii r = |W - C|. Each radius
is solved by Newton on the square system in (xi, lambda); continuation
runs in orthonormal chart coordinates so the sphere constraint needs no
metric correction. The engine is generic over the objective so the
polynomial toy problem can reuse it with analytic derivatives.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .atlas import (
    chart_gradient,
    chart_gradient_hessian,
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
        if not (0 < self.r_min < self.delta_r < self.r_max):
            raise ValueError("need 0 < r_min < delta_r < r_max")


@dataclass(frozen=True)
class ArcRecord:
    chart: object
    center_xi: np.ndarray
    samples: tuple  # of (r, xi, lambda)
    termination: str
    terminal_radius: float


def _newton_solve(grad_fn, grad_hess_fn, center, xi, lam, r, cfg):
    """Solve [grad - 2*lam*u; |u|^2 - r^2] = 0 from the given guess.

    A chord iteration: `grad_hess_fn` gives the gradient and the Hessian
    at the initial guess, and that Hessian is kept for the whole solve;
    borders and the multiplier shift are rebuilt each iterate. Later
    residuals use the exact gradient from `grad_fn`, so the acceptance
    test is unaffected by the frozen second-order term.

    cfg.max_newton_iters (`--max-newton-iters`) stays the budget of
    iterates. A solve stops early as 'diverged' once its residual has
    risen five times in a row and lies above its starting residual, so a
    chord iteration running away from its guess costs six gradient
    evaluations instead of the whole budget. A rise that stays below the
    starting residual runs on: chord iterations that rise for a while and
    then converge do occur.

    Returns (xi, lam, 'ok') or (None, None, reason) with reason one of
    'singular', 'diverged'.
    """
    n = center.size
    try:
        g, H = grad_hess_fn(xi)
    except TangencyLabError:
        return None, None, "diverged"
    eye = np.eye(n)
    J = np.zeros((n + 1, n + 1))
    F = np.empty(n + 1)
    rises = 0
    for it in range(cfg.max_newton_iters):
        u = xi - center
        if it:
            try:
                g = grad_fn(xi)
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
            res0 = res
        else:
            rises = rises + 1 if res > res_prev else 0
            if rises >= 5 and res > res0:
                return None, None, "diverged"
        res_prev = res
        np.subtract(H, 2.0 * lam * eye, out=J[:n, :n])
        J[:n, n] = -2.0 * u
        J[n, :n] = 2.0 * u
        # the 2-norm condition number, as np.linalg.cond computes it; a
        # zero singular value is an infinite condition number
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


_FAIL_TAG = {"singular": "SingularJacobian", "diverged": "NewtonDiverged"}


def continue_arc(grad_fn, grad_hess_fn, center, direction, rayleigh, cfg):
    """Generic Lagrangian continuation from center along a unit direction.

    grad_fn evaluates the objective's gradient and grad_hess_fn its
    gradient and Hessian together, in the same coordinates as `center`.
    Each radius is one chord solve of `_newton_solve`: one grad_hess_fn
    call at the radial guess, then one grad_fn call per iterate, within
    the budget of cfg.max_newton_iters (`--max-newton-iters`) iterates; a
    solve whose residual runs away from its start fails early as
    'diverged'. Stepping is by cfg.delta_r with halving on Newton
    failure; three consecutive samples needing steps below 1e-6
    terminate the arc as StepStalled.

    Two degeneracies end an arc before r_max. A fold (no solution beyond
    some radius) exhausts the step halving, leaving StepStalled or the
    Newton failure tag at the fold. A multiplier sign change means the
    arc passed through a point with vanishing gradient, i.e. met an
    adjacent critical point; the crossing is bisected to locate it and
    the arc ends there tagged SingularJacobian, matching how such events
    surface in plain Newton continuation.
    """
    xi0 = center + cfg.r_min * direction
    lam0 = 0.5 * rayleigh

    def solve_at(r, base_r, base_xi, base_lam):
        guess = center + (r / base_r) * (base_xi - center)
        return _newton_solve(grad_fn, grad_hess_fn, center, guess, base_lam, r, cfg)

    xi, lam, status = _newton_solve(grad_fn, grad_hess_fn, center, xi0, lam0, cfg.r_min, cfg)
    if status != "ok":
        raise NoConvergence(f"no tangency solution at r_min ({status})")
    samples = [(cfg.r_min, xi.copy(), float(lam))]
    stalled_streak = 0
    while True:
        r_prev, xi_prev, lam_prev = samples[-1]
        if r_prev >= cfg.r_max:
            return samples, "ReachedRmax", r_prev
        step = cfg.delta_r
        while True:
            r = min(r_prev + step, cfg.r_max)
            xi, lam, status = solve_at(r, r_prev, xi_prev, lam_prev)
            if status == "ok" and np.linalg.norm(xi - (center + (r / r_prev) * (xi_prev - center))) > max(0.1 * r, 20.0 * step):
                # Newton landed on a different solution branch: past a fold
                # the local branch has no point at this radius, so a far
                # landing is a failure of the step, not a continuation.
                status = "diverged"
            if status == "ok":
                break
            step *= 0.5
            if step < 1e-9:
                return samples, _FAIL_TAG[status], r_prev
        if lam_prev * lam < 0 or lam == 0.0:
            # bisect the multiplier zero between the last two radii
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


def trace_arc(chart, center, direction, cfg=None):
    """Trace a tangency arc of the loss from a refined critical point.

    `direction` is a unit vector of chart coordinates aligned with an
    eigenvector of the chart-restricted Hessian at the center (angle
    tolerance 1e-3): arcs launch only along eigenvector rays, so anything
    else has no branch to follow.
    """
    cfg = cfg or TraceConfig()
    v = np.asarray(direction, dtype=float)
    if v.shape != (chart.dim,):
        raise DimensionMismatch(f"expected {chart.dim} chart coordinates, got shape {v.shape}")
    center_xi = transfer(center.chart, center.xi, chart)
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-8:
        raise BadDirection("direction must have unit norm")
    v = v / nv
    Hc = chart_hessian(chart, center_xi)
    Hv = Hc @ v
    ray = float(v @ Hv)
    resid = np.linalg.norm(Hv - ray * v)
    if resid / max(np.linalg.norm(Hv), 1e-12) > 1e-3:
        raise BadDirection("direction is not an eigenvector of the restricted Hessian")

    samples, termination, terminal = continue_arc(
        lambda xi: chart_gradient(chart, xi),
        lambda xi: chart_gradient_hessian(chart, xi),
        center_xi,
        v,
        ray,
        cfg,
    )
    return ArcRecord(
        chart=chart,
        center_xi=center_xi,
        samples=tuple(samples),
        termination=termination,
        terminal_radius=float(terminal),
    )


def _row_dot(a, b):
    """Row-wise dot products of two (B, n) arrays, each with the bits of
    `a[i] @ b[i]`: a stacked (1, n) @ (n, 1) product reaches the same BLAS
    dot kernel, where np.einsum and a matrix-vector product sum in other
    orders. The rows must be C-contiguous for the same reason."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def sphere_extremize(chart, center, problems, n_starts=8, seed=0):
    """Extremize the loss over chart spheres |xi - center| = r.

    `problems` is a sequence of (r, mode) pairs, mode 'min' or 'max'.
    Each is solved by multi-start projected gradient with Armijo
    backtracking: the first two starts are the extremal eigenvectors of
    the restricted Hessian at the center, the rest are directions drawn
    from `default_rng(seed)`. Returns one (xi, value) per problem, the
    best stationary point found, in order.

    All problems share one descent and each gets the bits it gets alone.
    When a problem's evaluation raises, it and the problems after it leave
    the descent while those before it run on; its error is raised once
    they are solved, as when the problems are solved one by one.
    """
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
    n = chart.dim

    evals, evecs = np.linalg.eigh(chart_hessian(chart, center_xi))
    dirs, alpha0 = [], []
    for r, mode in problems:
        pick = 0 if mode == "min" else -1
        rng = np.random.default_rng(seed)
        start = len(dirs)
        dirs += [evecs[:, pick], -evecs[:, pick]]
        while len(dirs) - start < n_starts:
            v = rng.normal(size=n)
            dirs.append(v / np.linalg.norm(v))
        alpha0.append(r / (1.0 + abs(evals[pick]) * r))

    # The starts of every problem descend in lockstep. Each keeps its own
    # step alpha, loss, halving count and step count, and each round
    # evaluates the Armijo trials of all starts still searching as one
    # stack, then the gradients of the starts that accepted theirs. A row
    # of a stack gets the bits of its point evaluated alone, so every
    # start takes the path it takes by itself.
    budget = 100_000
    S = len(dirs)
    problem = np.repeat(np.arange(len(problems)), n_starts)
    radius = np.array([r for r, _ in problems], dtype=float)[problem]
    r2 = radius * radius
    sign = np.array([1.0 if mode == "min" else -1.0 for _, mode in problems])[problem]
    X = center_xi + radius[:, None] * np.array(dirs)
    alpha = np.array(alpha0)[problem]
    U, GT = np.empty_like(X), np.empty_like(X)
    f, gn = np.empty(S), np.empty(S)
    halvings = np.zeros(S, dtype=int)
    steps = np.zeros(S, dtype=int)
    # the evaluated stack holding each start's current point, and its row:
    # its gradient and the polish's start read that evaluation
    stack_of = np.empty(S, dtype=object)
    row_of = np.empty(S, dtype=int)
    failed, error = len(problems), None  # the first problem that raised, and its error

    def drop_failing(rows, evaluate):
        # a stacked call over these rows raised: make it for each problem
        # among them alone, in order, evaluate(mask), until one raises; that
        # one and the problems after it leave. Returns the mask of the rows
        # that stay.
        nonlocal failed, error
        for p in np.unique(problem[rows]):
            try:
                evaluate(problem[rows] == p)
            except TangencyLabError as e:
                failed, error = p, e
                break
        return problem[rows] < failed

    fresh = np.arange(S)  # starts at a new point, whose gradient comes next
    found = None  # the evaluated points of the fresh starts, None before the first round
    searching = fresh[:0]
    while True:
        if fresh.size:
            try:
                if found is None:
                    found = chart_point(chart, X[fresh])
                    f[fresh] = found.loss()
                g = found.gradient()
            except TangencyLabError:
                keep = drop_failing(fresh, lambda m: chart_point(chart, X[fresh[m]]).gradient())
                if keep.all():
                    raise
                # the other problems' points are evaluated again, to the same bits
                fresh, searching, found = fresh[keep], searching[problem[searching] < failed], None
                continue
            stack_of[fresh] = found
            row_of[fresh] = np.arange(fresh.size)
            u = X[fresh] - center_xi
            gt = sign[fresh, None] * (g - (_row_dot(g, u) / r2[fresh])[:, None] * u)
            gn_fresh = np.sqrt(_row_dot(gt, gt))
            go = (steps[fresh] < budget) & ~(
                gn_fresh <= 1e-6 * np.maximum(1.0, np.sqrt(_row_dot(g, g))))
            fresh = fresh[go]
            U[fresh], GT[fresh], gn[fresh] = u[go], gt[go], gn_fresh[go]
            steps[fresh] += 1
            halvings[fresh] = 0
            searching = np.concatenate((searching, fresh))
        if not searching.size:
            break
        # Armijo backtracking on the sphere; 60 halvings without a
        # decrease mean it fell below the loss rounding floor
        rows = searching
        u_new = U[rows] - alpha[rows, None] * GT[rows]
        X_new = center_xi + (radius[rows] / np.sqrt(_row_dot(u_new, u_new)))[:, None] * u_new
        try:
            trials = chart_point(chart, X_new)
        except TangencyLabError:
            keep = drop_failing(rows, lambda m: chart_point(chart, X_new[m]))
            if keep.all():
                raise
            searching, fresh = rows[keep], fresh[:0]
            continue
        f_new = trials.loss()
        ok = sign[rows] * (f_new - f[rows]) <= -1e-4 * alpha[rows] * gn[rows] * gn[rows]
        fresh = rows[ok]
        X[fresh], f[fresh] = X_new[ok], f_new[ok]
        alpha[fresh] *= 2.0
        found = trials.take(ok)
        rejected = rows[~ok]
        alpha[rejected] *= 0.5
        halvings[rejected] += 1
        searching = rejected[halvings[rejected] < 60]

    # Newton polish on the sphere stationarity system drives the gradient
    # the rest of the way to the 1e-9 target, problem by problem and start
    # by start; its first gradient and Hessian are those of the descent's
    # last point
    grad_fn = lambda x: chart_gradient(chart, x)
    polish_cfg = TraceConfig()
    results = []
    for p, (r, _) in enumerate(problems):
        if p == failed:
            raise error
        best_xi, best_val = None, None
        for s in range(p * n_starts, (p + 1) * n_starts):
            point = stack_of[s].take(row_of[s])
            xi = X[s]
            u = xi - center_xi
            g = point.gradient()
            lam = (g @ u) / (2.0 * r * r)
            sol_xi, _, status = _newton_solve(
                grad_fn, lambda x: point.gradient_hessian(), center_xi, xi, lam, r, polish_cfg)
            if status != "ok":
                continue
            point = chart_point(chart, sol_xi)
            g = point.gradient()
            u = sol_xi - center_xi
            gt = g - ((g @ u) / (r * r)) * u
            if np.linalg.norm(gt) > 1e-9:
                continue
            fx = point.loss()
            if best_val is None or sign[s] * (fx - best_val) < 0:
                best_xi, best_val = sol_xi, fx
        if best_xi is None:
            raise NoConvergence("no start reached stationarity on the sphere")
        results.append((best_xi, float(best_val)))
    return results


def minimal_eig_directions(chart, H, cluster_tol=1e-5):
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
    m = int(np.sum(evals <= evals[0] + cluster_tol * max(1.0, abs(lam0))))
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
    for label in ("t", "s", "x", "y"):
        A = np.column_stack(
            [project(chart, isotypic_project(embed(chart, E[:, j]), label)) for j in range(m)]
        )
        U, sv, _ = np.linalg.svd(A, full_matrices=False)
        L = U[:, sv > 0.05]
        if L.shape[1] == 0:
            continue
        if L.shape[1] > 1:
            for SB in subbases:
                M = L.T @ SB
                W, sv2, _ = np.linalg.svd(M, full_matrices=False)
                for i in range(len(sv2)):
                    if sv2[i] >= 1.0 - 1e-6:
                        add(L @ W[:, i])
        for j in range(L.shape[1]):
            add(L[:, j])
    # a cluster spanning several labels (an exact degeneracy) is still
    # split canonically by membership in the smaller ambients
    for SB in subbases:
        W, sv2, _ = np.linalg.svd(E.T @ SB, full_matrices=False)
        for i in range(len(sv2)):
            if sv2[i] >= 1.0 - 1e-6:
                add(E @ W[:, i])
    for j in range(m):
        add(E[:, j])
    return cands, lam0


def arc_radius_table(families, ambients, ds, cfg=None, refine=None, keep_arcs=False):
    """Terminal radii of minimal-eigenvalue arcs over a (family, ambient, d) grid.

    Each ambient is an integer k naming the (d-k, 1^k) chart, i.e. the
    number of singleton blocks. Every canonical direction of the
    minimal eigenvalue cluster is traced with both signs; the cell
    reports the smallest finite terminal radius, or 'inf' when every run
    reaches r_max. Per-cell failures are recorded as 'error:<name>'
    without aborting the rest of the table.

    `refine` maps (family, d) to a CriticalPointRecord, by default the
    memoized `atlas.refined_minimum`. With `keep_arcs` each cell also
    carries the ArcRecord that realized its radius.
    """
    cfg = cfg or TraceConfig()
    refine = refine or refined_minimum

    table = {}
    for d in ds:
        for k in ambients:
            chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
            for family in families:
                cell = {}
                try:
                    rec = refine(family, d)
                    center_xi = transfer(rec.chart, rec.xi, chart)
                    Hc = chart_hessian(chart, center_xi)
                    dirs, lam0 = minimal_eig_directions(chart, Hc)
                except TangencyLabError as e:
                    cell["value"] = f"error:{type(e).__name__}"
                    cell["error"] = str(e)
                    table[(family, k, d)] = cell
                    continue
                radii, runs, arcs, fallback = [], [], [], None
                floor = 2.0 * cfg.delta_r
                for v in dirs:
                    for s in (1.0, -1.0):
                        try:
                            arc = trace_arc(chart, rec, s * v, cfg)
                        except TangencyLabError as e:
                            runs.append((f"error:{type(e).__name__}", None))
                            continue
                        runs.append((arc.termination, float(arc.terminal_radius)))
                        if fallback is None:
                            fallback = arc
                        # an arc that dies almost at launch supports no
                        # tangency branch in this direction; skip it
                        if arc.termination != "ReachedRmax" and arc.terminal_radius > floor:
                            radii.append(arc.terminal_radius)
                            arcs.append(arc)
                if radii:
                    best = int(np.argmin(radii))
                    cell["radius"] = radii[best]
                    cell["value"] = "%.2f" % radii[best]
                    if keep_arcs:
                        cell["arc"] = arcs[best]
                else:
                    cell["radius"] = None
                    cell["value"] = "inf"
                    if keep_arcs and fallback is not None:
                        cell["arc"] = fallback
                cell["runs"] = tuple(runs)
                cell["n_directions"] = len(dirs)
                cell["min_eigenvalue"] = lam0
                table[(family, k, d)] = cell
    return table


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
