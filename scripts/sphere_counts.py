"""Count the orbit evaluations of one `sphere` invocation.

    PYTHONPATH=src python scripts/sphere_counts.py --family C1II --d 20 --k 2 --r-count 2

runs the `sphere` subcommand in this process with the given arguments
(its files go to a temporary directory) and prints one JSON object: the
calls of `kernel._orbit_terms`, split into stacked calls (a (B, n)
stack of points) and single-point calls (the refinement of the center
included), the rows (points) they evaluated, the calls of
`sphere_extremize`, and the descent rounds, that is the stacked calls
after the first of each `sphere_extremize` call; plus the exit code and
the wall time. The counts do not depend on the machine.
The counters wrap `kernel._orbit_terms` and `sphere_extremize` from
outside the package, so the script counts any version of
`tangency_lab` that is first on the path, one that solves each radius
and mode in a call of its own included.
"""

import json
import sys
import tempfile
import time

import numpy as np

from tangency_lab import cli, kernel


def main():
    counts = {"orbit_terms_calls": 0, "stacked_calls": 0, "single_point_calls": 0,
              "rows": 0, "sphere_extremize_calls": 0}

    def counted_terms(layout, xi, *rest):
        stacked = np.ndim(xi) == 2
        counts["orbit_terms_calls"] += 1
        counts["stacked_calls" if stacked else "single_point_calls"] += 1
        counts["rows"] += len(xi) if stacked else 1
        return orbit_terms(layout, xi, *rest)

    def counted_sphere(*a, **kw):
        counts["sphere_extremize_calls"] += 1
        return sphere_extremize(*a, **kw)

    orbit_terms, sphere_extremize = kernel._orbit_terms, cli.sphere_extremize
    kernel._orbit_terms = counted_terms
    cli.sphere_extremize = counted_sphere

    args = sys.argv[1:]
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        code = cli.main(["sphere", *args, "--out", out])
        wall = time.perf_counter() - t0
    print(json.dumps({
        "args": args,
        "exit_code": code,
        **counts,
        "descent_rounds": counts["stacked_calls"] - counts["sphere_extremize_calls"],
        "wall_s": round(wall, 3),
    }, indent=1))


if __name__ == "__main__":
    main()
