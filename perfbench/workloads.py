"""Benchmark workloads, the outputs each one is checked on, and the checker.

Each workload is one `tangency-lab` invocation. Its outputs are split into
units (one spectrum record, one arc cell, one sphere radius row, the toy
points file); a unit fails when it is missing or differs from the stored
reference by more than the tolerances below. The tolerances sit between
the finite-difference noise the program already has and the acceptance
suite's gates, so an exact-derivative rewrite still passes while a wrong
result does not.
"""

import hashlib
import json
import os
from dataclasses import dataclass

FAMILIES = "C0I,C0II,C1I,C1II"

#: |loss - reference| bound for a refined minimum
LOSS_TOL = 1e-10
#: eigenvalue bound, scaled by max(1, |reference|)
EIG_RTOL = 1e-5
#: arc terminal radius bound (the acceptance suite's criterion 5 gate)
ARC_RADIUS_TOL = 0.05
#: sphere extremal loss bound; seeds 0 and 1 agree to about 4e-12
SPHERE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    #: distinct refined minima the workload needs (base of atlas.refine_yield)
    records_needed: int
    why: str

    def cli_args(self, seed):
        return list(self.args) + ["--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum-wide",
            ("spectrum", "--family", FAMILIES, "--d", "100,200,300"),
            12,
            "kernel-bound at large d on 2-5 dimensional charts: refinement "
            "and the finite-difference hvp of full_spectrum",
        ),
        Workload(
            "arcs-d7",
            ("arcs", "--family", "C1I", "--d", "7", "--k", "1", "--delta-r", "0.004"),
            1,
            "continuation loop: thousands of Newton solves, each building a "
            "chart Hessian from hvps; Python overhead of tracer, atlas and "
            "symmetry is exposed at small d",
        ),
        Workload(
            "sphere-d20",
            ("sphere", "--family", "C1II", "--d", "20", "--k", "2", "--r-count", "2"),
            1,
            "Armijo line search dominated by loss and embed with few hvps",
        ),
        Workload(
            "toy-512",
            ("toy", "--center", "all", "--resolution", "512"),
            0,
            "planar toy sampler looping over millions of grid edges; "
            "bypasses kernel and charts",
        ),
    )
}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ extraction


def _spectrum_units(outdir):
    units = {}
    for name in sorted(os.listdir(outdir)):
        if name.startswith("spectrum_") and name.endswith(".json"):
            rec = _read_json(os.path.join(outdir, name))
            units[f"{rec['family']}_d{rec['d']}"] = {
                "loss": rec["loss"],
                "entries": [[e["eigenvalue"], e["multiplicity"], e["label"]]
                            for e in rec["entries"]],
            }
    return units


def _arcs_units(outdir):
    cells = _read_json(os.path.join(outdir, "arcs_runs.json"))["cells"]
    units = {}
    for key, cell in cells.items():
        units[key] = {
            "value": cell["value"],
            "radius": cell["radius"],
            "terminations": [run[0] for run in cell["runs"] or ()],
            "n_directions": cell["n_directions"],
            "files": all(os.path.isfile(os.path.join(outdir, f"arc_{key}.{ext}"))
                         for ext in ("json", "csv")),
        }
    return units


def _sphere_units(outdir):
    (name,) = [n for n in os.listdir(outdir) if n.startswith("sphere_") and n.endswith(".json")]
    rows = _read_json(os.path.join(outdir, name))["rows"]
    return {"r=%.17g" % row["r"]: row for row in rows}


def _toy_units(outdir):
    with open(os.path.join(outdir, "toy_points.csv"), "rb") as fh:
        first, body = fh.read().split(b"\n", 1)
    config = json.loads(first.decode()[len("# config: "):])
    config.pop("seed", None)
    return {
        "toy_points.csv": {
            "config": config,
            "points": body.count(b"\n") - 1,
            "sha256": hashlib.sha256(body).hexdigest(),
        }
    }


_EXTRACT = {
    "spectrum": _spectrum_units,
    "arcs": _arcs_units,
    "sphere": _sphere_units,
    "toy": _toy_units,
}


def extract_units(workload, outdir):
    """Map unit id -> comparable value for the outputs a run left in outdir."""
    return _EXTRACT[workload.args[0]](outdir)


# ------------------------------------------------------------ comparison


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


def _compare_spectrum(ref, out):
    problems = []
    if not _close(out["loss"], ref["loss"], LOSS_TOL):
        problems.append(f"loss {out['loss']!r} vs {ref['loss']!r}")
    if len(out["entries"]) != len(ref["entries"]):
        return problems + ["entry count differs"]
    for (ev, mult, label), (rev, rmult, rlabel) in zip(out["entries"], ref["entries"]):
        if (mult, label) != (rmult, rlabel):
            problems.append(f"entry {label}x{mult} vs {rlabel}x{rmult}")
        elif not _close(ev, rev, EIG_RTOL * max(1.0, abs(rev))):
            problems.append(f"eigenvalue {label} {ev!r} vs {rev!r}")
    return problems


def _compare_arcs(ref, out):
    problems = []
    if out["value"].startswith("error:"):
        problems.append(f"cell reports {out['value']}")
    if out["terminations"] != ref["terminations"]:
        problems.append(f"terminations {out['terminations']} vs {ref['terminations']}")
    if out["n_directions"] != ref["n_directions"]:
        problems.append(f"directions {out['n_directions']} vs {ref['n_directions']}")
    if ref["radius"] is None:
        if out["radius"] is not None:
            problems.append(f"radius {out['radius']!r} vs none")
    elif not _close(out["radius"], ref["radius"], ARC_RADIUS_TOL):
        problems.append(f"radius {out['radius']!r} vs {ref['radius']!r}")
    if not out["files"]:
        problems.append("arc JSON or CSV file missing")
    return problems


def _compare_sphere(ref, out):
    problems = []
    for key in ("m_r", "M_r"):
        if key in ref and not _close(out.get(key), ref[key], SPHERE_TOL):
            problems.append(f"{key} {out.get(key)!r} vs {ref[key]!r}")
    for key in ("min_isotropy", "min_label", "max_isotropy", "max_label"):
        if out.get(key) != ref.get(key):
            problems.append(f"{key} {out.get(key)!r} vs {ref.get(key)!r}")
    return problems


def _compare_toy(ref, out):
    problems = []
    if out["config"] != ref["config"]:
        problems.append(f"config {out['config']} vs {ref['config']}")
    if out["sha256"] != ref["sha256"]:
        problems.append(f"points differ ({out['points']} vs {ref['points']} rows)")
    return problems


_COMPARE = {
    "spectrum": _compare_spectrum,
    "arcs": _compare_arcs,
    "sphere": _compare_sphere,
    "toy": _compare_toy,
}


def check_units(workload, reference, units):
    """Return {unit id: [problem, ...]} for every reference unit that fails."""
    compare = _COMPARE[workload.args[0]]
    failures = {}
    for key, ref in reference.items():
        out = units.get(key)
        problems = ["missing"] if out is None else compare(ref, out)
        if problems:
            failures[key] = problems
    return failures


def check_outputs(workload, reference, outdir):
    """Check a finished run's outputs; an unreadable output fails every unit."""
    try:
        units = extract_units(workload, outdir)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return {key: [f"unreadable outputs: {e!r}"] for key in reference}
    return check_units(workload, reference, units)


def reference_path(workload):
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                        workload.name + ".json")


def load_reference(workload):
    return _read_json(reference_path(workload))["units"]
