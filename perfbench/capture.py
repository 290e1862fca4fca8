"""Capture the reference outputs the benchmark checks against.

    python3 perfbench/capture.py [WORKLOAD ...]

Runs each workload once with seed 0 and stores its output units in
perfbench/reference/<workload>.json, together with the call counts of a
traced run. The outputs of a seed-1 run must pass the checker against
them, since the reference is shared by every seed. Capture only from a
commit whose outputs are known to be right; the stored files name it.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

from run import ROOT, WORK, Runner
from workloads import WORKLOADS, check_units, extract_units, reference_path


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def capture(workload):
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        units = {}
        for seed in (0, 1):
            runner = Runner(workload, seed, workdir, time.monotonic() + 600, {})
            report = runner.spawn("trace" if seed == 0 else "run")
            if report["exit"] != 0:
                raise SystemExit(f"{workload.name} seed {seed} failed: {report.get('stderr')}")
            units[seed] = extract_units(workload, report["outdir"])
            if seed == 0:
                calls = report["trace"]["calls"]
        failures = check_units(workload, units[0], units[1])
        if failures:
            raise SystemExit(f"{workload.name}: seed 1 disagrees with seed 0: {failures}")
    payload = {
        "workload": workload.name,
        "cli_args": workload.cli_args(0),
        "commit": _commit(),
        "calls_at_capture": {k: v for k, v in calls.items() if v},
        "units": units[0],
    }
    os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
    with open(reference_path(workload), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{workload.name}: {len(units[0])} units")


def main(argv):
    for name in argv or sorted(WORKLOADS):
        capture(WORKLOADS[name])
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
