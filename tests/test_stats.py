import ast
import os

from tangency_lab import cli
from tangency_lab.atlas import refined_minimum
from tangency_lab.stats import counts
from tangency_lab.tracer import TraceConfig, arc_radius_table

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _read(keys):
    return {key: counts[key] for key in keys}


# a change that alters a count on purpose updates these pins, the
# scripts' pins in test_cli.py and the README together


def test_arcs_d7_cell_counts():
    counts.clear()
    cell = arc_radius_table("C1I", 1, 7, TraceConfig(delta_r=0.004))
    assert cell["value"] == "1.24"
    assert _read(["arc.ok", "arc.diverged", "arc.singular"]) == {
        "arc.ok": 86, "arc.diverged": 204, "arc.singular": 0}
    assert _read(["newton.first_calls", "newton.later_calls", "newton.rows",
                  "newton.gradients", "newton.svds"]) == {
        "newton.first_calls": 118, "newton.later_calls": 1272, "newton.rows": 781,
        "newton.gradients": 4612, "newton.svds": 1287}


def test_sphere_d20_counts(tmp_path, monkeypatch):
    # the center's refinement is counted too, so it must not come from the cache
    refined_minimum.cache_clear()
    monkeypatch.delenv("TANGENCY_LAB_OUT", raising=False)
    counts.clear()
    assert cli.main(["sphere", "--family", "C1II", "--d", "20", "--k", "2", "--r-count", "2",
                     "--out", str(tmp_path / "o")]) == 0
    assert _read(["orbit.stacked_calls", "orbit.single_calls", "orbit.rows",
                  "orbit.hessian_rows", "sphere.calls", "sphere.steps", "sphere.rounds"]) == {
        "orbit.stacked_calls": 31, "orbit.single_calls": 7, "orbit.rows": 208,
        "orbit.hessian_rows": 174, "sphere.calls": 1, "sphere.steps": 137, "sphere.rounds": 23}


# ---------------------------------------------------------------- scripts


def test_scripts_assign_to_no_attribute():
    # the scripts read `tangency_lab.stats`; a script that replaces a
    # function by name breaks on a rename and counts what the package no
    # longer does. The scripts store no attribute at all, so any store fails.
    names = sorted(name for name in os.listdir(SCRIPTS) if name.endswith(".py"))
    assert names
    for name in names:
        with open(os.path.join(SCRIPTS, name)) as fh:
            tree = ast.parse(fh.read())
        stores = [ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"]
        assert stores == [], name
