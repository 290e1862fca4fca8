import json

from tangency_lab import stats
from tangency_lab.atlas import refined_minimum


def _readout(args, tmp_path, monkeypatch, capsys):
    """`stats.main` on one CLI invocation in process: its parsed report."""
    monkeypatch.delenv("TANGENCY_LAB_OUT", raising=False)
    code = stats.main(args + ["--out", str(tmp_path / "o")])
    report = json.loads(capsys.readouterr().out)
    assert code == report["exit_code"] == 0
    return report["counts"]


def _read(counts, keys):
    # a key that is absent counts 0
    return {key: counts.get(key, 0) for key in keys}


# the one pin of each of these counts in the tests: a change that alters
# a count on purpose updates it here and in the README together


def test_arcs_d7_cell_counts(tmp_path, monkeypatch, capsys):
    # the center's refinement is counted too, so it must not come from the cache
    refined_minimum.cache_clear()
    counts = _readout(["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--delta-r", "0.004"],
                      tmp_path, monkeypatch, capsys)
    assert _read(counts, ["arc.ok", "arc.diverged", "arc.singular"]) == {
        "arc.ok": 86, "arc.diverged": 204, "arc.singular": 0}
    # 65 + 837 = 902 lockstep rounds
    assert _read(counts, ["newton.calls", "newton.later_calls", "newton.rows",
                          "newton.gradients", "newton.svds"]) == {
        "newton.calls": 65, "newton.later_calls": 837,
        "newton.rows": 781, "newton.gradients": 4612, "newton.svds": 851}
    # the center's refinement, and no sphere
    assert _read(counts, ["refine.iterations", "sphere.failed_polishes"]) == {
        "refine.iterations": 4, "sphere.failed_polishes": 0}
    # the refinement's Hessians and the center's, taken once for the cell
    assert counts["orbit.hessian_rows"] == 786
    runs = json.loads((tmp_path / "o" / "arcs_runs.json").read_text())
    assert runs["cells"]["C1I_k1_d7"]["value"] == "1.24"
    # the winning arc's samples
    arc = json.loads((tmp_path / "o" / "arc_C1I_k1_d7.json").read_text())
    assert len(arc["radii"]) == 39


def test_sphere_d20_counts(tmp_path, monkeypatch, capsys):
    # the center's refinement is counted too, so it must not come from the cache
    refined_minimum.cache_clear()
    counts = _readout(["sphere", "--family", "C1II", "--d", "20", "--k", "2", "--r-count", "2"],
                      tmp_path, monkeypatch, capsys)
    # the four problems' 32 starts descend in one stack and are polished
    # in one chord solve; a radius's two problems share six starts, each
    # evaluated once
    assert _read(counts, ["orbit.stacked_calls", "orbit.single_calls", "orbit.rows",
                          "orbit.hessian_rows", "sphere.calls", "sphere.steps",
                          "sphere.rounds", "sphere.failed_polishes", "newton.calls",
                          "newton.rows", "refine.iterations"]) == {
        "orbit.stacked_calls": 8, "orbit.single_calls": 7, "orbit.rows": 196,
        "orbit.hessian_rows": 162, "sphere.calls": 1, "sphere.steps": 137, "sphere.rounds": 6,
        "sphere.failed_polishes": 0, "newton.calls": 1, "newton.rows": 32,
        "refine.iterations": 4}


def test_toy_512_counts(tmp_path, monkeypatch, capsys):
    counts = _readout(["toy", "--center", "all", "--resolution", "512"], tmp_path, monkeypatch,
                      capsys)
    assert _read(counts, ["toy.crossed_edges", "toy.points"]) == {
        "toy.crossed_edges": 11580, "toy.points": 11578}
    # the points are the file's rows, after its config line and header
    lines = (tmp_path / "o" / "toy_points.csv").read_text().splitlines()
    assert len(lines) - 2 == counts["toy.points"]


def test_worker_counts_are_summed_under_jobs(tmp_path, monkeypatch, capsys):
    # the two cells have different centers, so each is refined once with
    # or without workers; cells sharing a center are refined once per
    # process that runs one, and their `orbit.*` counts differ
    readouts = []
    for jobs in ([], ["--jobs", "2"]):
        refined_minimum.cache_clear()
        readouts.append(_readout(["arcs", "--family", "C0I,C1I", "--d", "7", "--k", "1"] + jobs,
                                 tmp_path / str(len(readouts)), monkeypatch, capsys))
    assert readouts[0] == readouts[1]
    assert readouts[0]["newton.rows"] > 0 and readouts[0]["orbit.hessian_rows"] > 0
