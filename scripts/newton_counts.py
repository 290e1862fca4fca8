"""Count the Newton work of one arcs cell: solves, derivative evaluations and SVDs.

    PYTHONPATH=src python scripts/newton_counts.py --family C0II --d 100 --k 3

runs `arc_radius_table` on one (family, k, d) cell and prints one JSON
object: the cell's runs, the sample count of its winning arc, the wall
time, and the counts of `tangency_lab.stats` (whose docstring defines
them) under the names below: `newton_solves` is the `arc.*` counts.
"""

import argparse
import json
import time

from tangency_lab import atlas, tracer
from tangency_lab.stats import counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="C1I")
    ap.add_argument("--d", type=int, default=7)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--delta-r", dest="delta_r", type=float, default=1e-3,
                    help="base step and checkpoint spacing")
    args = ap.parse_args()

    # refine the center before the clock starts, as the memoized CLI does
    atlas.refined_minimum(args.family, args.d)
    cfg = tracer.TraceConfig(delta_r=args.delta_r)
    counts.clear()
    t0 = time.perf_counter()
    cell = tracer.arc_radius_table(args.family, args.k, args.d, cfg)
    wall = time.perf_counter() - t0
    outcomes = {status: counts["arc." + status] for status in ("ok", "diverged", "singular")}
    print(json.dumps({
        "cell": {"family": args.family, "k": args.k, "d": args.d, "delta_r": args.delta_r},
        "value": cell["value"],
        "runs": [list(run) for run in cell["runs"]],
        "winning_arc_samples": len(cell["arc"].samples) if "arc" in cell else None,
        "newton_solves": sum(outcomes.values()),
        "gradient_calls": counts["newton.later_calls"],
        "hessian_or_combined_calls": counts["newton.first_calls"],
        "gradients_evaluated": counts["newton.gradients"],
        "svds": counts["newton.svds"],
        "lockstep_rounds": counts["newton.first_calls"] + counts["newton.later_calls"],
        "row_solves": counts["newton.rows"],
        "newton_solves_by_outcome": outcomes,
        "wall_s": round(wall, 3),
    }, indent=1))


if __name__ == "__main__":
    main()
