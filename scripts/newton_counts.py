"""Count the Newton work of one arcs cell: solves, derivative evaluations and SVDs.

    PYTHONPATH=src python scripts/newton_counts.py --family C0II --d 100 --k 3

runs `arc_radius_table` on one (family, k, d) cell and prints one JSON
object: the cell's runs (termination tag and radius), the chord solves
whose outcome the arcs use (`newton_solves`), split by the outcome each
ended with (`ok`, `diverged`, `singular`), the sample count of the
cell's winning arc, and inside the `tracer._newton_solve` calls: the
calls of the chart gradient alone, the chart Hessians or combined
gradient-Hessian evaluations, the gradients evaluated by either (one
per point of a stack), the SVD calls (`np.linalg.svd`, a stacked
call counted once), the lockstep rounds
(`lockstep_rounds`: the gradient and gradient-Hessian calls, each a
stacked iterate round; a stack that raises and the row-by-row calls
that replace it each count) and the rows started (`row_solves`: the
solves a call is handed), plus the wall time. The counts do not depend
on the machine.

A solver call returns one outcome per row, and `continue_arc` takes
the first rung of a halving ladder that converged near its guess; it
marks a far landing 'diverged' in the list the call returned. So the
outcomes are read once the cell has run: of each call's rows, those up
to and including its first 'ok', or all of them when none ended 'ok'.
The rows of a ladder past the rung it took show only in `row_solves`.
"""

import argparse
import json
import time

import numpy as np

from tangency_lab import atlas, tracer


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="C1I")
    ap.add_argument("--d", type=int, default=7)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--delta-r", dest="delta_r", type=float, default=1e-3,
                    help="base step and checkpoint spacing")
    args = ap.parse_args()

    counts = {"newton_solves": 0, "gradient_calls": 0, "hessian_or_combined_calls": 0,
              "gradients_evaluated": 0, "svds": 0, "lockstep_rounds": 0, "row_solves": 0}
    outcomes = {"ok": 0, "diverged": 0, "singular": 0}
    inside, returned = [0], []

    def counted(fn, *keys):
        def wrapper(*a, **kw):
            if inside[0]:
                for key in keys:
                    counts[key] += 1
            return fn(*a, **kw)
        return wrapper

    def counted_grad(fn):
        def wrapper(xi):
            counts["gradient_calls"] += 1
            counts["lockstep_rounds"] += 1
            counts["gradients_evaluated"] += len(xi)
            return fn(xi)
        return wrapper

    def counted_hess(fn):
        def wrapper(xi):
            counts["hessian_or_combined_calls"] += 1
            counts["lockstep_rounds"] += 1
            out = fn(xi)
            counts["gradients_evaluated"] += len(xi)
            return out
        return wrapper

    def solve(grad_fn, hess_fn, center, xi, *a, **kw):
        counts["row_solves"] += len(xi)
        inside[0] += 1
        try:
            out = newton_solve(counted_grad(grad_fn), counted_hess(hess_fn), center, xi, *a, **kw)
        finally:
            inside[0] -= 1
        # the caller may still mark or extend the list
        returned.append((out, len(out)))
        return out

    newton_solve = tracer._newton_solve
    tracer._newton_solve = solve
    np.linalg.svd = counted(np.linalg.svd, "svds")

    # refine the center before the clock starts, as the memoized CLI does
    atlas.refined_minimum(args.family, args.d)
    cfg = tracer.TraceConfig(delta_r=args.delta_r)
    t0 = time.perf_counter()
    cell = tracer.arc_radius_table(args.family, args.k, args.d, cfg)
    wall = time.perf_counter() - t0
    for out, n in returned:
        statuses = [status for _, _, status in out[:n]]
        for status in statuses[:statuses.index("ok") + 1] if "ok" in statuses else statuses:
            counts["newton_solves"] += 1
            outcomes[status] += 1
    print(json.dumps({
        "cell": {"family": args.family, "k": args.k, "d": args.d, "delta_r": args.delta_r},
        "value": cell["value"],
        "runs": [list(run) for run in cell["runs"]],
        "winning_arc_samples": len(cell["arc"].samples) if "arc" in cell else None,
        **counts,
        "newton_solves_by_outcome": outcomes,
        "wall_s": round(wall, 3),
    }, indent=1))


if __name__ == "__main__":
    main()
