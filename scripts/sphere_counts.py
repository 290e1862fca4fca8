"""Count the orbit evaluations and trust-region iterations of one `sphere` invocation.

    PYTHONPATH=src python scripts/sphere_counts.py --family C1II --d 20 --k 2 --r-count 2

runs the `sphere` subcommand in this process with the given arguments
(its files go to a temporary directory) and prints one JSON object: the
calls of `kernel._orbit_terms`, split into stacked calls (a (B, n)
stack of points) and single-point calls (the refinement of the center
included), and the rows (points) they evaluated; the chart Hessians
computed, counted by rows (one per point of each
`OrbitPoint.gradient_hessian` call that evaluates, not of those served
from the point's cache); the calls of `sphere_extremize`; the
trust-region iterations, that is the calls of
`tracer._trust_region_step` (null for a version of the package without
it); and the lockstep rounds, that is the stacked (B, n, n)
`np.linalg.eigh` calls, one per round of a problem's descents (0 for a
version that runs the descents one start at a time); plus the exit code
and the wall time. The counts do not depend on the machine. The
counters wrap these functions from outside the package, so the script
counts any version of `tangency_lab` that is first on the path.
"""

import json
import sys
import tempfile
import time

import numpy as np

from tangency_lab import cli, kernel, tracer


def main():
    counts = {"orbit_terms_calls": 0, "stacked_calls": 0, "single_point_calls": 0,
              "rows": 0, "gradient_hessian_rows": 0, "sphere_extremize_calls": 0,
              "trust_region_iterations": 0, "lockstep_rounds": 0}

    def counted_terms(layout, xi, *rest):
        stacked = np.ndim(xi) == 2
        counts["orbit_terms_calls"] += 1
        counts["stacked_calls" if stacked else "single_point_calls"] += 1
        counts["rows"] += len(xi) if stacked else 1
        return orbit_terms(layout, xi, *rest)

    def counted_gradient_hessian(self):
        if self._grad_hess is None:
            n = self._terms[2]  # the row norms: (q,) at a point, (B, q) on a stack
            counts["gradient_hessian_rows"] += len(n) if n.ndim == 2 else 1
        return gradient_hessian(self)

    def counted_eigh(a, *rest, **kw):
        counts["lockstep_rounds"] += np.ndim(a) == 3
        return eigh(a, *rest, **kw)

    def counted(fn, key):
        def wrapper(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)
        return wrapper

    orbit_terms, gradient_hessian = kernel._orbit_terms, kernel.OrbitPoint.gradient_hessian
    eigh = np.linalg.eigh
    kernel._orbit_terms = counted_terms
    kernel.OrbitPoint.gradient_hessian = counted_gradient_hessian
    np.linalg.eigh = counted_eigh
    cli.sphere_extremize = counted(cli.sphere_extremize, "sphere_extremize_calls")
    if hasattr(tracer, "_trust_region_step"):
        tracer._trust_region_step = counted(tracer._trust_region_step, "trust_region_iterations")
    else:
        counts["trust_region_iterations"] = None

    args = sys.argv[1:]
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        code = cli.main(["sphere", *args, "--out", out])
        wall = time.perf_counter() - t0
    print(json.dumps({"args": args, "exit_code": code, **counts, "wall_s": round(wall, 3)},
                     indent=1))


if __name__ == "__main__":
    main()
