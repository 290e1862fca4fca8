"""Self-tests of the benchmark: checker, trace and entry point.

    python3 perfbench/selftest.py

Takes about two minutes on two cores. Checks that

- the output checker accepts real outputs and rejects perturbed ones
  (an arc radius moved by 0.1, one toy point changed, and others);
- two traced runs of every workload give identical call counts;
- traced call counts equal the cProfile counts of the program at commit
  c1ad0b9 on the full-size workloads those counts were taken on, so a
  binding the trace failed to patch shows up as a low count (a change
  that alters how often the program calls these functions changes these
  counts on purpose, and must say so);
- BENCHMARK.json lists exactly the metrics run.py reports;
- run.py fails, printing no result, without the program's sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from run import END_TO_END, ROOT, WORK, Runner, per_layer_metrics
from workloads import FAMILIES, WORKLOADS, Workload, check_outputs, check_units, load_reference

#: cProfile call counts at commit c1ad0b9, one BLAS thread, CLI seed 0
SEED_COUNTS = (
    (Workload("arcs-d7-full", ("arcs", "--family", FAMILIES, "--d", "7", "--k", "1"), 4, ""), {
        "kernel.grad_loss": 190330,
        "kernel.hvp": 60360,
        "atlas.chart_hessian": 12072,
        "atlas.chart_gradient": 69605,
        "kernel.loss": 4617,
    }),
    (Workload("spectrum-wide-full",
              ("spectrum", "--family", FAMILIES, "--d", "100,200,400,800"), 16, ""), {
        "kernel.grad_loss": 732,
        "kernel.hvp": 152,
        "atlas.refine_critical": 20,
    }),
    (Workload("sphere-d20-full",
              ("sphere", "--family", "C1II", "--d", "20", "--k", "2"), 1, ""), {
        "kernel.loss": 65284,
        "kernel.grad_loss": 36844,
        "kernel.hvp": 1620,
    }),
)


def _runner(workload, workdir):
    return Runner(workload, 0, workdir, time.monotonic() + 900, {})


def _finished(runner, mode):
    report = runner.spawn(mode)
    if report["exit"] != 0:
        raise AssertionError(f"{runner.workload.name} exited {report['exit']}: "
                             f"{report.get('stderr')}")
    return report


def test_checker_rejects_perturbed_outputs(workdir):
    problems = []

    def expect(label, failures, should_fail):
        if bool(failures) != should_fail:
            problems.append(f"{label}: expected {'failure' if should_fail else 'pass'}, "
                            f"got {failures or 'pass'}")

    # file-level perturbations of real outputs
    for name, perturb in (("arcs-d7", _shift_arc_radius), ("toy-512", _change_toy_point),
                          ("arcs-d7", _error_cell)):
        workload = WORKLOADS[name]
        reference = load_reference(workload)
        outdir = _finished(_runner(workload, workdir), "run")["outdir"]
        expect(f"{name} unchanged", check_outputs(workload, reference, outdir), False)
        perturb(outdir)
        expect(f"{name} {perturb.__name__}", check_outputs(workload, reference, outdir), True)
        shutil.rmtree(outdir)

    # value-level perturbations of the stored units
    spectrum = WORKLOADS["spectrum-wide"]
    ref = load_reference(spectrum)
    expect("spectrum reference", check_units(spectrum, ref, ref), False)
    for label, edit in (
        ("eigenvalue +1e-3", lambda u: u["entries"][0].__setitem__(0, u["entries"][0][0] + 1e-3)),
        ("loss +1e-9", lambda u: u.__setitem__("loss", u["loss"] + 1e-9)),
        ("multiplicity +1", lambda u: u["entries"][-1].__setitem__(1, u["entries"][-1][1] + 1)),
    ):
        out = copy.deepcopy(ref)
        edit(out["C1II_d200"])
        expect(f"spectrum {label}", check_units(spectrum, ref, out), True)
    out = copy.deepcopy(ref)
    out["C0I_d100"]["entries"][0][0] += 1e-7
    expect("spectrum eigenvalue +1e-7 (inside tolerance)", check_units(spectrum, ref, out), False)

    sphere = WORKLOADS["sphere-d20"]
    ref = load_reference(sphere)
    expect("sphere reference", check_units(sphere, ref, ref), False)
    for label, key, value in (("m_r +1e-8", "m_r", None), ("M_r +1e-8", "M_r", None),
                              ("isotropy", "min_isotropy", "17+1+1+1")):
        out = copy.deepcopy(ref)
        row = out[max(out)]
        row[key] = row[key] + 1e-8 if value is None else value
        expect(f"sphere {label}", check_units(sphere, ref, out), True)
    out = copy.deepcopy(ref)
    del out[min(out)]
    expect("sphere missing row", check_units(sphere, ref, out), True)
    return problems


def _shift_arc_radius(outdir):
    path = os.path.join(outdir, "arcs_runs.json")
    with open(path) as fh:
        runs = json.load(fh)
    for cell in runs["cells"].values():
        cell["radius"] += 0.1
    with open(path, "w") as fh:
        json.dump(runs, fh)


def _error_cell(outdir):
    path = os.path.join(outdir, "arcs_runs.json")
    with open(path) as fh:
        runs = json.load(fh)
    for cell in runs["cells"].values():
        cell["value"] = "error:NoConvergence"
    with open(path, "w") as fh:
        json.dump(runs, fh)


def _change_toy_point(outdir):
    path = os.path.join(outdir, "toy_points.csv")
    with open(path) as fh:
        lines = fh.read().split("\n")
    x, y, center = lines[1000].split(",")
    lines[1000] = ",".join(["%.17g" % (float(x) + 1e-12), y, center])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def test_trace_counts_repeat(workdir):
    problems = []
    for workload in WORKLOADS.values():
        runner = _runner(workload, workdir)
        first, second = (_finished(runner, "trace")["trace"]["calls"] for _ in range(2))
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            problems.append(f"{workload.name}: counts differ between traced runs: {diff}")
    return problems


def test_seed_counts(workdir):
    problems = []
    for workload, expected in SEED_COUNTS:
        calls = _finished(_runner(workload, workdir), "trace")["trace"]["calls"]
        for name, count in expected.items():
            if calls[name] != count:
                problems.append(f"{workload.name}: {name} traced {calls[name]}, "
                                f"cProfile at c1ad0b9 {count}")
    return problems


def test_benchmark_json_lists_reported_metrics(workdir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != [name for name, _ in END_TO_END]:
        problems.append("end_to_end names differ from run.END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != per_layer_metrics():
        problems.append("per_layer entries differ from run.per_layer_metrics()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    return problems


def test_fails_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-512",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    if res.returncode == 0 or '"correct"' in res.stdout:
        return [f"bare checkout: exit {res.returncode}, stdout {res.stdout[-200:]!r}"]
    return []


TESTS = (
    test_benchmark_json_lists_reported_metrics,
    test_fails_without_sources,
    test_checker_rejects_perturbed_outputs,
    test_trace_counts_repeat,
    test_seed_counts,
)


def main():
    os.makedirs(WORK, exist_ok=True)
    failed = 0
    try:
        for test in TESTS:
            with tempfile.TemporaryDirectory(dir=WORK) as workdir:
                t0 = time.monotonic()
                problems = test(workdir)
                status = "FAIL" if problems else "ok"
                print(f"{status:4s} {test.__name__} ({time.monotonic() - t0:.1f} s)", flush=True)
                for p in problems:
                    print(f"     {p}")
                failed += bool(problems)
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(f"{len(TESTS) - failed} of {len(TESTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
