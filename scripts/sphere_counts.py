"""Count the orbit evaluations and trust-region iterations of one `sphere` invocation.

    PYTHONPATH=src python scripts/sphere_counts.py --family C1II --d 20 --k 2 --r-count 2

runs the `sphere` subcommand in this process with the given arguments
(its files go to a temporary directory) and prints one JSON object: the
exit code, the wall time, and the counts of `tangency_lab.stats` (whose
docstring defines them) under the names below.
"""

import json
import sys
import tempfile
import time

from tangency_lab import cli
from tangency_lab.stats import counts


def main():
    args = sys.argv[1:]
    counts.clear()
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        code = cli.main(["sphere", *args, "--out", out])
        wall = time.perf_counter() - t0
    print(json.dumps({
        "args": args,
        "exit_code": code,
        "orbit_terms_calls": counts["orbit.stacked_calls"] + counts["orbit.single_calls"],
        "stacked_calls": counts["orbit.stacked_calls"],
        "single_point_calls": counts["orbit.single_calls"],
        "rows": counts["orbit.rows"],
        "gradient_hessian_rows": counts["orbit.hessian_rows"],
        "sphere_extremize_calls": counts["sphere.calls"],
        "trust_region_iterations": counts["sphere.steps"],
        "lockstep_rounds": counts["sphere.rounds"],
        "wall_s": round(wall, 3),
    }, indent=1))


if __name__ == "__main__":
    main()
