"""Run one tangency-lab CLI invocation in a fresh interpreter and report on it.

    python3 perfbench/child.py REPORT SRC MODE -- CLI-ARG...

SRC is the directory holding the `tangency_lab` package; the package must
be imported from there and nowhere else. MODE is one of

    setup   import the CLI and parse the arguments, then stop
    run     run the subcommand through `tangency_lab.cli.main`
    trace   as run, with the package's public functions wrapped to
            count calls and measure self time (see LayerTrace)

REPORT receives a JSON object with monotonic-clock stamps taken when
`main` finished parsing its arguments and when it returned, the exit code,
the OS thread count of this process and, for trace, the layer trace. The
parent compares the stamps with its own spawn time (CLOCK_MONOTONIC is
shared by all processes), so set-up covers interpreter start, imports and
argument parsing, and wall time covers the subcommand including writing
its outputs.
"""

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: functions wrapped in a traced run, by module; every module-level name
#: bound to one of them anywhere in the package is replaced, so calls made
#: through `from .kernel import grad_loss` bindings are seen too.
TRACED = {
    "kernel": ("loss", "grad_loss", "hvp"),
    "symmetry": ("build_chart", "embed", "project", "isotypic_project",
                 "detect_diagonal_isotropy"),
    "atlas": ("seed_minimum", "refine_critical", "chart_gradient", "chart_hessian"),
    "spectrum": ("full_spectrum",),
    "tracer": ("arc_radius_table", "minimal_eig_directions", "trace_arc",
               "continue_arc", "sphere_extremize", "arc_to_json", "arc_to_csv"),
    "toy": ("sample_tangency_set", "points_to_csv"),
    "cli": ("cmd_spectrum", "cmd_arcs", "cmd_sphere", "cmd_toy"),
}


class LayerTrace:
    """Call counts, self times and a few nested counts for wrapped functions.

    Self time is a call's duration minus the time spent in wrapped calls
    it made. Nested counts record calls made while another wrapped
    function is on the stack, e.g. gradients evaluated inside `hvp`.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._active = Counter()
        self._child_s = []

    def _enter(self, name, args):
        active = self._active
        if name in ("kernel.loss", "kernel.grad_loss"):
            self.counts["matrix_elems"] += len(args[0]) ** 2
        if name == "kernel.grad_loss":
            if active["kernel.hvp"]:
                self.counts["grad_loss_in_hvp"] += 1
            if active["atlas.refine_critical"]:
                self.counts["grad_loss_in_refine"] += 1
        elif name == "atlas.chart_hessian" and active["tracer.continue_arc"]:
            self.counts["chart_hessian_in_arcs"] += 1
        elif name == "kernel.loss" and active["tracer.sphere_extremize"]:
            self.counts["loss_in_sphere"] += 1

    def _leave(self, name, result):
        if name == "tracer.continue_arc":
            self.counts["arc_samples"] += len(result[0])
        elif name == "toy.sample_tangency_set":
            self.counts["toy_points"] += len(result)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name, args)
            self._active[name] += 1
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self._active[name] -= 1
            self._leave(name, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, package):
        """Replace every binding of a traced function in the package's modules."""
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"{package}.{mod_name}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(f"{mod_name}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def report(self):
        names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        return {
            "calls": {n: self.calls[n] for n in names},
            "self_s": {n: self.self_s[n] for n in names},
            "counts": dict(self.counts),
        }


class _Parsed(Exception):
    """Raised in setup mode once the CLI has parsed its arguments."""


def _thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main():
    if len(sys.argv) < 5 or sys.argv[4] != "--" or sys.argv[3] not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    report_path, src, mode = sys.argv[1:4]
    cli_args = sys.argv[5:]
    stamps = {}
    parse_args = argparse.ArgumentParser.parse_args

    def stamped_parse_args(parser, *args, **kwargs):
        ns = parse_args(parser, *args, **kwargs)
        stamps.setdefault("parsed", time.monotonic())
        if mode == "setup":
            raise _Parsed
        return ns

    argparse.ArgumentParser.parse_args = stamped_parse_args
    sys.path.insert(0, os.path.abspath(src))
    from tangency_lab import cli

    expected = os.path.join(os.path.abspath(src), "tangency_lab", "cli.py")
    if os.path.abspath(cli.__file__) != expected:
        print(f"error: imported {cli.__file__}, expected {expected}", file=sys.stderr)
        return 2
    trace = None
    if mode == "trace":
        trace = LayerTrace()
        trace.install("tangency_lab")
    try:
        rc = cli.main(cli_args)
    except _Parsed:
        rc = 0
    done = time.monotonic()
    report = {"parsed": stamps.get("parsed"), "done": done, "rc": rc,
              "threads": _thread_count()}
    if trace is not None:
        report["trace"] = trace.report()
    if mode == "setup":
        import numpy as np

        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        report["numpy"] = np.__version__
        report["blas"] = deps.get("blas")
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
