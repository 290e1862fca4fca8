import concurrent.futures
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import tangency_lab
from tangency_lab import cli, symmetry
from tangency_lab.atlas import refined_minimum
from tangency_lab.tracer import TraceConfig

# the directory holding the package this suite imported; the child gets it
# first on its path, so it runs the same copy from any working directory,
# installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(
    os.path.abspath(tangency_lab.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, cwd, env_extra=None, timeout=600, prog=("-m", "tangency_lab.cli")):
    env = {k: v for k, v in os.environ.items() if k != "TANGENCY_LAB_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *prog, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(autouse=True)
def json_outputs_parse(tmp_path):
    # every JSON file a test of this module leaves behind is valid JSON: a
    # non-finite float would be written as a bare inf or nan
    yield
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


# ---------------------------------------------------------- config errors


@pytest.mark.parametrize("args", [
    ["minima", "--family", "C0I", "--d", "5"],
    ["minima", "--family", "C7X", "--d", "7"],
    ["sphere", "--family", "C0I", "--d", "7", "--r-grid", "0.1:0.001"],
    ["sphere", "--family", "C0I", "--d", "7", "--k", "9"],
    ["toy", "--resolution", "32"],
    ["toy", "--center", "nonsense"],
    ["arcs", "--family", "C0I", "--d", "7", "--k", "0"],
    ["sphere", "--n-starts", "3"],
    ["toy", "--center", "nan:0"],
    ["toy", "--extent=-inf:inf"],
    ["arcs", "--family", "C0I", "--d", "7", "--k", "1", "--jobs", "-1"],
    ["toy", "--resolution", "64", "--out", os.devnull],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--delta-r", "0.05", "--r-max", "inf"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--newton-tol", "nan"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--delta-r", "nan"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--r-min", "nan"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--cond-threshold", "inf"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--max-newton-iters", "0"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--newton-tol", "-1"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--newton-tol", "0"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--cond-threshold", "1"],
    ["spectrum", "--jobs", "2"],
    # a trailing dict stands for a --config file holding it
    ["minima", "--family", "C0I", "--d", "7", {"bogus": 1}],
    ["minima", "--family", "C0I", "--d", "7", {"jobs": 2}],
    ["minima", "--family", "C0I", "--d", "7", {"func": 1}],
    ["toy", {"resolution": 96.7}],
    ["toy", {"center": ["max", "min"]}],
    ["toy", {"config": "cfg.json"}],
    ["toy", {"extent": None}],
    # false leaves a switch off, and names nothing else
    ["toy", {"bogus": False}],
    ["toy", {"resolution": False}],
    ["minima", "--family", "C0I", "--d", "7", {"brute": False}],
    ["sphere", "--family", "C0I,C1I"],
    ["sphere", "--d", "7,20"],
    # a comma list names each entry once
    ["minima", "--family", "C0I,C0I", "--d", "7"],
    ["minima", "--family", "C0I", "--d", "7,7"],
    ["spectrum", "--family", "C0I", "--d", "7,07"],
    ["arcs", "--family", "C1I,C1I", "--d", "7", "--k", "1"],
    ["arcs", "--family", "C1I", "--d", "7", "--k", "1,1"],
    ["minima", "--d", "7", {"family": "C0I,C0I"}],
])
def test_bad_configuration_exits_2(tmp_path, args):
    if isinstance(args[-1], dict):
        (tmp_path / "cfg.json").write_text(json.dumps(args[-1]))
        args = args[:-1] + ["--config", "cfg.json"]
    if "--out" not in args:
        args = args + ["--out", "o"]
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip()
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_failed_write_exits_2_and_keeps_earlier_files(tmp_path):
    (tmp_path / "o" / "minima_table.csv").mkdir(parents=True)
    res = run_cli(["minima", "--family", "C0I", "--d", "7", "--out", "o"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "cannot write" in res.stderr
    assert "Traceback" not in res.stderr
    assert (tmp_path / "o" / "minimum_C0I_d7.json").exists()


@pytest.mark.parametrize("args, config, code", [
    (["toy", "--resolution", "32"], None, 2),
    (["toy"], {"resolution": 96.7}, 2),
    (["toy", "--help"], None, 0),
])
def test_main_returns_argparse_exit_code_in_process(tmp_path, monkeypatch, capsys, args, config,
                                                    code):
    # argparse exits on its own; called in process, `main` returns its code
    monkeypatch.delenv("TANGENCY_LAB_OUT", raising=False)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = args + ["--config", str(tmp_path / "cfg.json")]
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == code
    assert not (tmp_path / "o").exists()
    printed = capsys.readouterr()
    # argparse's message, or the help
    assert (printed.err if code else printed.out).strip()


# ------------------------------------------------------------------- toy


def test_toy_outputs_points_with_config_line(tmp_path):
    res = run_cli(["toy", "--center", "max", "--resolution", "96",
                   "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    text = (tmp_path / "o" / "toy_points.csv").read_text()
    first, header, *rows = text.splitlines()
    assert first.startswith("# config: ")
    cfg = json.loads(first[len("# config: "):])
    assert cfg["resolution"] == 96
    assert header == "x,y,center"
    # the axes belong to the tangency set of the origin
    on_axis = [r for r in rows if r.startswith("0,") or ",0," in r]
    assert len(on_axis) >= 10


def test_toy_rerun_is_byte_identical(tmp_path):
    args = ["toy", "--center", "min", "--resolution", "96", "--out", "o"]
    assert run_cli(args, tmp_path).returncode == 0
    first = (tmp_path / "o" / "toy_points.csv").read_bytes()
    res = run_cli(args, tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "o" / "toy_points.csv").read_bytes() == first


def test_toy_on_a_grid_that_overflows_exits_3_with_its_error(tmp_path):
    res = run_cli(["toy", "--center", "max", "--resolution", "64", "--extent=-1e200:1e200",
                   "--out", "o"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert os.listdir(tmp_path / "o") == ["error.json"]
    assert json.loads((tmp_path / "o" / "error.json").read_text()) == {
        "error": "NonFiniteGrid",
        "message": "the tangency residual or a point sampled from it is not finite"}


def test_toy_512_matches_the_benchmark_reference(tmp_path, monkeypatch):
    # the body the benchmark's toy-512 workload checks, hashed as
    # perfbench/workloads.py does: a byte change fails here first
    with open(os.path.join(ROOT, "perfbench", "reference", "toy-512.json")) as fh:
        ref = json.load(fh)["units"]["toy_points.csv"]
    monkeypatch.delenv("TANGENCY_LAB_OUT", raising=False)
    assert cli.main(["toy", "--center", "all", "--resolution", "512",
                     "--out", str(tmp_path / "o")]) == 0
    body = (tmp_path / "o" / "toy_points.csv").read_bytes().split(b"\n", 1)[1]
    assert body.count(b"\n") - 1 == ref["points"]
    assert hashlib.sha256(body).hexdigest() == ref["sha256"]


# ---------------------------------------------------------------- minima


def test_minima_reports_and_rerun(tmp_path):
    args = ["minima", "--family", "C0I,C1II", "--d", "7", "--out", "o"]
    res = run_cli(args, tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "o"
    table = (out / "minima_table.csv").read_text().splitlines()
    assert table[0].startswith("# config: ")
    assert table[1] == "family,d,loss,loss_predicted,absdiff,grad_norm,type"
    assert len(table) == 4
    rec = json.loads((out / "minimum_C1II_d7.json").read_text())
    assert rec["family"] == "C1II"
    assert rec["d"] == 7
    assert rec["grad_norm"] <= 1e-10
    assert rec["loss"] == pytest.approx(2.320271491357e-02, abs=1e-9)
    first = (out / "minima_table.csv").read_bytes()
    res = run_cli(args, tmp_path)
    assert res.returncode == 0, res.stderr
    assert (out / "minima_table.csv").read_bytes() == first


# -------------------------------------------------------------- spectrum


def test_spectrum_json_and_csv(tmp_path):
    res = run_cli(["spectrum", "--family", "C0I,C0II,C1I", "--d", "7", "--brute",
                   "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "o"
    rep = json.loads((out / "spectrum_C0I_d7.json").read_text())
    assert sum(e["multiplicity"] for e in rep["entries"]) == 49
    for e in rep["entries"]:
        assert abs(e["eigenvalue"] - e["predicted"]) == pytest.approx(
            e["absdiff"], abs=1e-15)
    assert rep["brute_max_absdiff"] <= 1e-6
    csv_lines = (out / "spectrum_table_d7.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config: ")
    header = csv_lines[1].split(",")
    rows = [line.split(",") for line in csv_lines[2:]]
    assert header[:2] == ["component", "slot"]
    # the split family C1I sets the depth: five t, five s, one x, one y;
    # the unsplit families leave their deeper slots blank
    assert [r[:2] for r in rows] == (
        [["t", str(k)] for k in range(1, 6)] + [["s", str(k)] for k in range(1, 6)]
        + [["x", "1"], ["y", "1"]])
    unsplit = ["1", "1", "", "", "", "6", "6", "6", "", "", "15", "14"]
    mults = {"C0I": unsplit, "C0II": unsplit, "C1I": ["1"] * 5 + ["5"] * 5 + ["10", "9"]}
    for fam, want in mults.items():
        col = header.index(fam)
        assert header[col + 1:col + 4] == [fam + "_mult", fam + "_absdiff", fam + "_brute"]
        assert [r[col + 1] for r in rows] == want
        entries = json.loads((out / f"spectrum_{fam}_d7.json").read_text())["entries"]
        filled = [r for r in rows if r[col + 1]]
        assert [float(r[col]) for r in filled] == [e["eigenvalue"] for e in entries]
        assert [float(r[col + 2]) for r in filled] == [e["absdiff"] for e in entries]
        assert all(r[col] == r[col + 2] == "" for r in rows if not r[col + 1])


# ----------------------------------------------------------------- arcs


def test_arcs_single_cell_and_seed_independence(tmp_path):
    base = ["arcs", "--family", "C1II", "--d", "7", "--k", "2"]
    res = run_cli(base + ["--seed", "1", "--out", "a"], tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "a"
    table = (out / "arcs_table.csv").read_text().splitlines()
    assert table[1] == "d,k,C1II"
    assert table[2] == "7,2,0.31"
    runs = json.loads((out / "arcs_runs.json").read_text())
    cell = runs["cells"]["C1II_k2_d7"]
    assert cell["value"] == "0.31"
    assert all(tag in ("StepStalled", "SingularJacobian", "ReachedRmax",
                       "NewtonDiverged") for tag, _ in cell["runs"])
    arc = json.loads((out / "arc_C1II_k2_d7.json").read_text())
    assert arc["termination"] in ("StepStalled", "SingularJacobian")
    assert arc["terminal_radius"] == pytest.approx(0.31, abs=0.05)
    profile = (out / "arc_C1II_k2_d7.csv").read_text().splitlines()
    assert profile[0] == "r,loss,lambda"
    # the RNG seed plays no role in the deterministic pipeline
    res = run_cli(base + ["--seed", "2", "--out", "b"], tmp_path)
    assert res.returncode == 0, res.stderr
    a = (tmp_path / "a" / "arcs_table.csv").read_text().splitlines()[1:]
    b = (tmp_path / "b" / "arcs_table.csv").read_text().splitlines()[1:]
    assert a == b


def test_arcs_pool_is_no_larger_than_the_cell_count(tmp_path, monkeypatch):
    # a stand-in executor records its size and maps in-process, so no
    # worker is ever forked
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.delenv("TANGENCY_LAB_OUT", raising=False)
    base = ["arcs", "--d", "7", "--k", "2", "--delta-r", "0.05",
            "--max-newton-iters", "30", "--jobs", "64"]
    assert cli.main(base + ["--family", "C0I,C1II", "--out", str(tmp_path / "a")]) == 0
    assert sizes == [2]
    assert cli.main(base + ["--family", "C1II", "--out", str(tmp_path / "b")]) == 0
    assert sizes == [2]
    runs = json.loads((tmp_path / "a" / "arcs_runs.json").read_text())
    assert runs["config"]["trace"] == dataclasses.asdict(
        TraceConfig(delta_r=0.05, max_newton_iters=30))
    table = (tmp_path / "a" / "arcs_table.csv").read_text().splitlines()
    assert table[1:] == ["d,k,C0I,C1II", "7,2,0.62,0.31"]


# ---------------------------------------------------------------- sphere


def test_sphere_report(tmp_path):
    res = run_cli(["sphere", "--family", "C1II", "--d", "7", "--k", "2",
                   "--mode", "min", "--r-grid", "1e-3:1e-2", "--r-count", "2",
                   "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "o"
    rep = json.loads((out / "sphere_C1II_d7_k2.json").read_text())
    assert len(rep["rows"]) == 2
    row = rep["rows"][0]
    assert row["r"] == pytest.approx(1e-3)
    assert row["min_isotropy"] == "5+1+1"
    assert row["min_label"] == "s"
    # center is a local minimum, so the sphere minimum sits above it by
    # about lam_min / 2 * r^2
    rate = (row["m_r"] - row["loss_center"]) / row["r"] ** 2
    assert rate == pytest.approx(0.00703, rel=0.05)
    csv_lines = (out / "sphere_C1II_d7_k2.csv").read_text().splitlines()
    assert csv_lines[1].split(",")[:3] == ["r", "m_r", "min_isotropy"]


def test_sphere_failing_radius_exits_3_with_its_error(tmp_path):
    # the minimum search at r = 20 reaches a zero student row; the radii
    # before it solve, and no table is written
    res = run_cli(["sphere", "--family", "C1II", "--d", "7", "--k", "2",
                   "--r-grid", "1:20", "--r-count", "3", "--out", "o"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert os.listdir(tmp_path / "o") == ["error.json"]
    assert json.loads((tmp_path / "o" / "error.json").read_text()) == {
        "error": "DegenerateVector", "message": "a student row has norm <= 1e-12"}


def test_arcs_cell_in_which_no_run_traced_is_an_error(tmp_path):
    # no chord solve meets a tolerance of 1e-300, so every run fails at
    # r_min: the cell is the first run's error, not 'inf', and exits 3
    res = run_cli(["arcs", "--family", "C1I", "--d", "7", "--k", "1",
                   "--newton-tol", "1e-300", "--out", "o"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert (tmp_path / "o" / "arcs_table.csv").read_text().splitlines()[-1] == "7,1,error:NoConvergence"
    cell = json.loads((tmp_path / "o" / "arcs_runs.json").read_text())["cells"]["C1I_k1_d7"]
    assert cell["value"] == "error:NoConvergence"
    assert cell["runs"] == [["error:NoConvergence", None]] * 2
    assert cell["error"] == "no tangency solution at r_min (diverged)"
    assert sorted(os.listdir(tmp_path / "o")) == ["arcs_runs.json", "arcs_table.csv"]


@pytest.mark.parametrize("family", ["C1I", "C1II"])
def test_sphere_maxima_at_d100_pass_the_stationarity_test(tmp_path, family):
    # the polished maxima at r = 0.1 carry a multiplier of about 13: tested
    # with r^2 in place of their own |u|^2 they read a tangential gradient
    # of 3e-9 to 5e-9 and every start was refused
    res = run_cli(["sphere", "--family", family, "--d", "100", "--k", "2",
                   "--r-count", "2", "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "o" / f"sphere_{family}_d100_k2.json").read_text())["rows"]
    assert len(rows) == 2 and all(row["M_r"] > row["m_r"] for row in rows)


def test_sphere_at_d1000_forms_no_dense_matrix(tmp_path, monkeypatch):
    # the center's refinement (the C1II seed checks its isotropy) and the
    # reported isotropies read chart coordinates only: every binding of
    # the d x d embedding in the package raises
    def forbidden(*args, **kwargs):
        raise AssertionError("embed called")

    dense = symmetry.embed
    for name, module in list(sys.modules.items()):
        if name.startswith("tangency_lab") and getattr(module, "embed", None) is dense:
            monkeypatch.setattr(module, "embed", forbidden)
    assert cli.embed is forbidden
    refined_minimum.cache_clear()
    monkeypatch.delenv("TANGENCY_LAB_OUT", raising=False)
    out = tmp_path / "o"
    assert cli.main(["sphere", "--family", "C1II", "--d", "1000", "--k", "2",
                     "--r-count", "2", "--out", str(out)]) == 0
    rows = json.loads((out / "sphere_C1II_d1000_k2.json").read_text())["rows"]
    assert len(rows) == 2 and all(row["min_isotropy"] and row["max_isotropy"] for row in rows)


def test_sphere_modes_do_not_couple(tmp_path):
    # the minima and maxima of a --mode both run are those of the runs
    # that ask for one mode, to the last bit
    rows = {}
    for mode in ("both", "min", "max"):
        res = run_cli(["sphere", "--family", "C1II", "--d", "7", "--k", "2",
                       "--r-count", "2", "--mode", mode, "--out", mode], tmp_path)
        assert res.returncode == 0, res.stderr
        rows[mode] = json.loads((tmp_path / mode / "sphere_C1II_d7_k2.json").read_text())["rows"]
    for mode, cols in (("min", ("m_r", "min_isotropy", "min_label")),
                       ("max", ("M_r", "max_isotropy", "max_label"))):
        assert len(rows[mode]) == len(rows["both"]) == 2
        for alone, both in zip(rows[mode], rows["both"]):
            assert [repr(both[c]) for c in ("r",) + cols] == [repr(alone[c]) for c in ("r",) + cols]


# ---------------------------------------------------------- stats readout


def test_stats_readout_runs_as_a_module(tmp_path):
    # under -m the module also runs as `__main__`, whose own counter the
    # package never adds to: the readout must show the package's counts
    res = run_cli(["minima", "--family", "C0I", "--d", "7", "--out", "o"], tmp_path,
                  prog=("-m", "tangency_lab.stats"))
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["exit_code"] == 0
    assert report["counts"]["orbit.rows"] > 0
    assert (tmp_path / "o" / "minima_table.csv").exists()


def test_traced_names_resolve():
    # perfbench/child.py wraps these functions by name in a traced run; a
    # rename or move of one must fail here, not only in the benchmark
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", os.path.join(ROOT, "perfbench", "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    for mod_name, names in child.TRACED.items():
        module = importlib.import_module(f"tangency_lab.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"


# ------------------------------------------------------------ env + config


def test_out_env_override(tmp_path):
    res = run_cli(["toy", "--resolution", "96", "--out", "ignored"], tmp_path,
                  env_extra={"TANGENCY_LAB_OUT": str(tmp_path / "envdir")})
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "envdir" / "toy_points.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": 96, "center": "saddle"}))
    res = run_cli(["toy", "--config", str(cfg), "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    line = (tmp_path / "o" / "toy_points.csv").read_text().splitlines()[0]
    embedded = json.loads(line[len("# config: "):])
    assert embedded["resolution"] == 96
    assert embedded["center"] == ["saddle"]
    res = run_cli(["toy", "--config", str(cfg), "--resolution", "128",
                   "--out", "p"], tmp_path)
    assert res.returncode == 0, res.stderr
    line = (tmp_path / "p" / "toy_points.csv").read_text().splitlines()[0]
    embedded = json.loads(line[len("# config: "):])
    assert embedded["resolution"] == 128
    assert embedded["center"] == ["saddle"]


@pytest.mark.parametrize("settings, flags", [
    ({"center": "all", "resolution": 96, "extent": "-1.5:1.5"},
     ["toy", "--center", "all", "--resolution", "96", "--extent=-1.5:1.5"]),
    ({"family": "C1I", "d": 7, "k": 1, "delta_r": 0.004},
     ["arcs", "--family", "C1I", "--d", "7", "--k", "1", "--delta-r", "0.004"]),
    ({"family": "C0I", "d": 7, "brute": True, "seed": 3},
     ["spectrum", "--family", "C0I", "--d", "7", "--brute", "--seed", "3"]),
    ({"family": "C0I", "d": 7, "brute": False},
     ["spectrum", "--family", "C0I", "--d", "7"]),
])
def test_config_entries_write_what_their_flags_write(tmp_path, settings, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    by_config = run_cli([flags[0], "--config", str(cfg), "--out", "c"], tmp_path)
    by_flags = run_cli(flags + ["--out", "f"], tmp_path)
    assert by_config.returncode == by_flags.returncode == 0, by_config.stderr
    assert by_config.stdout == by_flags.stdout
    files = sorted(os.listdir(tmp_path / "f"))
    assert sorted(os.listdir(tmp_path / "c")) == files
    for name in files:
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "f" / name).read_bytes(), name
