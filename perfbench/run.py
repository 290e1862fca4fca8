"""tangency-lab benchmark: run one workload through the CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, so nothing needs installing. Each invocation of the CLI
runs in a fresh interpreter (perfbench/child.py) with BLAS pinned to one
thread, and its outputs are checked against perfbench/reference/.

--trace 0 measures the end-to-end metrics for S seconds and reports their
medians. --trace 1 alternates untraced and traced invocations for S
seconds and reports the per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it (prefixed with '#')
record the run environment and a readable summary.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from child import TRACED
from workloads import WORKLOADS, check_outputs, load_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

#: one BLAS thread: with two OpenBLAS threads the last digits of large-d
#: spectra change, so reruns are byte-identical only at a fixed count
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up-only interpreters started per run, besides the workload's own
SETUP_SAMPLES = 5
#: every child is killed this many seconds after the run started
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, names in TRACED.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
    out += [
        ("kernel.grad_loss.calls_in_hvp", "count", "lower"),
        ("kernel.matrix_elems", "count", "lower"),
        ("atlas.refine_yield", "ratio", "higher"),
        ("atlas.grads_per_refine", "ratio", "lower"),
        ("tracer.arc_samples", "count", "lower"),
        ("tracer.hessians_per_sample", "ratio", "lower"),
        ("tracer.loss_per_sphere_call", "ratio", "lower"),
        ("toy.points", "count", "higher"),
        ("cli.bytes_written", "B", "lower"),
        ("trace_overhead_frac", "fraction", "lower"),
    ]
    return out


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TANGENCY_LAB_OUT", "PYTHONSTARTUP")}
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts CLI children for one workload and checks their outputs."""

    def __init__(self, workload, seed, workdir, deadline, reference):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.reference = reference
        self.env = child_env()
        self.count = 0
        self.cli_seeds = set()
        self.attempted = 0
        self.failed = 0
        self.problems = {}
        self.threads = 0

    def cli_seed(self, i):
        """CLI seed of a run's i-th invocation: fixed by the benchmark seed."""
        return 1000 * self.seed + i

    def spawn(self, mode, i=0):
        """One child; returns its report with parent-side measurements added."""
        self.count += 1
        outdir = os.path.join(self.workdir, f"out{self.count}")
        report_path = outdir + ".report.json"
        cmd = [sys.executable, CHILD, report_path, SRC, mode, "--",
               *self.workload.cli_args(self.cli_seed(i)), "--out", outdir]
        with open(outdir + ".stderr", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = {}
        report.update(
            exit=proc.returncode,
            elapsed_s=t1 - t0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            outdir=outdir,
        )
        self.threads = max(self.threads, report.get("threads") or 0)
        if report.get("parsed") is not None:
            report["setup_s"] = report["parsed"] - t0
            report["wall_s"] = report["done"] - report["parsed"]
        if proc.returncode != 0:
            with open(outdir + ".stderr") as fh:
                report["stderr"] = fh.read()[-2000:]
        return report

    def run_checked(self, mode, i):
        """Invocation i, whose outputs are checked and then deleted."""
        self.cli_seeds.add(self.cli_seed(i))
        report = self.spawn(mode, i)
        if report["exit"] != 0 or "wall_s" not in report:
            failures = {key: [f"exit code {report['exit']}: {report.get('stderr', '').strip()}"]
                        for key in self.reference}
        else:
            failures = check_outputs(self.workload, self.reference, report["outdir"])
        self.attempted += len(self.reference)
        self.failed += len(failures)
        for key, problems in failures.items():
            self.problems.setdefault(key, problems)
        report["bytes_written"] = _tree_size(report["outdir"])
        shutil.rmtree(report["outdir"], ignore_errors=True)
        return report


def _tree_size(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _median(values):
    return statistics.median(values) if values else None


def _summary(values):
    text = f"min {min(values):.6g}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1 {q1:.6g} q3 {q3:.6g}"
    return text + f" max {max(values):.6g}, {len(values)} samples"


def environment(runner, warm):
    return {
        "python": platform.python_version(),
        "numpy": warm.get("numpy"),
        "blas": warm.get("blas"),
        "blas_threads_env": {var: runner.env[var] for var in BLAS_VARS},
        "child_threads_max": runner.threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": runner.workload.name,
        "seed": runner.seed,
        "cli_args": list(runner.workload.args),
        "cli_seeds": sorted(runner.cli_seeds),
    }


def measure_end_to_end(runner, seconds, start):
    """Untraced invocations for `seconds`; samples of every end-to-end metric."""
    setups = [runner.spawn("setup").get("setup_s") for _ in range(SETUP_SAMPLES)]
    runs = []
    while True:
        runs.append(runner.run_checked("run", len(runs)))
        elapsed = time.monotonic() - start
        if elapsed + _median([r["elapsed_s"] for r in runs]) > seconds:
            break
    timed = [r for r in runs if "wall_s" in r]
    setups = [s for s in setups if s is not None] + [r["setup_s"] for r in timed]
    samples = {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    return samples, len(runs)


def measure_layers(runner, seconds, start):
    """Alternate untraced and traced invocations; per-layer metrics."""
    plain, traced = [], []
    while True:
        plain.append(runner.run_checked("run", len(plain)))
        traced.append(runner.run_checked("trace", len(traced)))
        elapsed = time.monotonic() - start
        pair = _median([a["elapsed_s"] + b["elapsed_s"] for a, b in zip(plain, traced)])
        if elapsed + pair > seconds:
            break
    plain = [r for r in plain if "wall_s" in r]
    traced = [r for r in traced if "trace" in r]
    if not plain or not traced:
        return None, {}, len(plain) + len(traced)
    calls = traced[0]["trace"]["calls"]
    counts = traced[0]["trace"]["counts"]
    values = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = _median([r["trace"]["self_s"][name] for r in traced])

    def ratio(num, den):
        return num / den if den else 0.0

    refines = calls["atlas.refine_critical"]
    samples = counts.get("arc_samples", 0)
    values.update({
        "kernel.grad_loss.calls_in_hvp": counts.get("grad_loss_in_hvp", 0),
        "kernel.matrix_elems": counts.get("matrix_elems", 0),
        "atlas.refine_yield": ratio(runner.workload.records_needed, refines),
        "atlas.grads_per_refine": ratio(counts.get("grad_loss_in_refine", 0), refines),
        "tracer.arc_samples": samples,
        "tracer.hessians_per_sample": ratio(counts.get("chart_hessian_in_arcs", 0), samples),
        "tracer.loss_per_sphere_call": ratio(counts.get("loss_in_sphere", 0),
                                             calls["tracer.sphere_extremize"]),
        "toy.points": counts.get("toy_points", 0),
        "cli.bytes_written": traced[0]["bytes_written"],
        "trace_overhead_frac": ratio(_median([r["wall_s"] for r in traced]),
                                     _median([r["wall_s"] for r in plain])) - 1.0,
    })
    return values, {"traced": len(traced), "untraced": len(plain)}, len(plain) + len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tangency_lab", "cli.py")):
        print(f"error: no tangency_lab package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workload, args.seed, workdir, start + DEADLINE_S,
                        load_reference(workload))
        # untimed warm-up: fills the page cache and writes bytecode caches
        warm = runner.spawn("setup")
        if warm["exit"] != 0 or warm.get("parsed") is None:
            print(f"error: the CLI did not start: {warm.get('stderr', '').strip()}",
                  file=sys.stderr)
            return 1
        start = time.monotonic()
        if args.trace:
            values, info, n = measure_layers(runner, args.seconds, start)
            if values is None:
                print("error: no traced invocation finished", file=sys.stderr)
                return 1
            print("# traced run: {traced} traced and {untraced} untraced invocations; "
                  "counts are from the first traced one".format(**info))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in per_layer_metrics()}
        else:
            samples, n = measure_end_to_end(runner, args.seconds, start)
            if not samples["wall_s"]:
                print("error: no invocation finished", file=sys.stderr)
                return 1
            metrics = {}
            for name, unit in END_TO_END:
                vals = samples[name]
                metrics[name] = {"value": _median(vals), "unit": unit}
                print(f"# {name:12s} {_median(vals):.6g} {unit}  median ({_summary(vals)})")
        print("# env " + json.dumps(environment(runner, warm), sort_keys=True))
        error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
        print(f"# error_rate   {error_rate:.6g}  ({runner.failed} of {runner.attempted} "
              f"outputs failed over {n} invocations)")
        for key, problems in sorted(runner.problems.items()):
            print(f"# FAILED {key}: {'; '.join(problems)[:500]}")
        result = {
            "correct": runner.failed == 0 and runner.attempted > 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
