"""Work counts of this process, kept where the work happens.

`counts` is one `collections.Counter` per process: clear it before a
run and read it after, and never rebind it. A key that is absent
counts 0. No output file holds it. Keys:

- `orbit.stacked_calls`, `orbit.single_calls`, `orbit.rows`:
  `kernel._orbit_terms` calls on a (B, n) stack and on one point, and
  the points they evaluate; `orbit.hessian_rows`: the points at which
  `OrbitPoint.gradient_hessian` computes (cache hits do not count).
- `newton.rows`: the rows handed to `tracer._newton_solve`;
  `newton.first_calls`, `newton.later_calls`: its lockstep rounds, one
  stacked evaluation each, of gradients and Hessians in the first round
  and of gradients after; `newton.gradients`: the rows of the rounds;
  `newton.svds`: the stacked SVDs of its condition tests.
- `arc.ok`, `arc.diverged`, `arc.singular`: the outcomes of the solves
  each run of `continue_arcs` uses: at r_min, each step's rungs up to
  the one it takes (a far landing is 'diverged'), and each bisection.
- `sphere.calls`: `sphere_extremize` calls; `sphere.rounds`: their
  lockstep descent rounds, one stacked `eigh` each; `sphere.steps`:
  the trust-region steps solved.
- `toy.crossed_edges`: the grid edges `toy.sample_tangency_set` finds
  crossed, one point each; `toy.points`: the points it returns, those
  left after the 1e-6 disk about the center is removed.

    python -m tangency_lab.stats <subcommand> [flags]

runs one CLI invocation in this process and prints its exit code, wall
time and counts as one JSON object. Under `arcs --jobs N` with N > 1
each worker returns the counts of its cell's work with the cell, and
they are added in cell order. Each process memoizes the refined minima,
so when cells share a center the `orbit.*` counts differ from a run
without workers.
"""

import json
import sys
import time
from collections import Counter

counts = Counter()


def main(argv=None):
    """Run `cli.main(argv)` and print its exit code, wall time and counts;
    return the exit code."""
    # run as `-m`, this file is also `__main__`, with a counter of its own
    # that the package never adds to: read the package's
    from . import cli
    from .stats import counts

    counts.clear()
    t0 = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - t0
    print(json.dumps({"exit_code": code, "wall_s": round(wall, 3),
                      "counts": dict(sorted(counts.items()))}, indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main())
