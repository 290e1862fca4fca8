"""Command line front end: regenerate tables and figure data.

Subcommands write JSON records and CSV tables into an output directory.
A record embeds its run's configuration (`_run_config`) as its "config"
field, a table as its `# config:` first line. Two files do not: an
`arc_*.csv` profile, whose trace configuration is in the `arc_*.json`
beside it, and `error.json`. Floats are serialized at 17 significant
digits, and reruns with identical configuration are byte-identical.
`main` returns the exit code, argparse's own included: 0 success (and
`--help`), 2 invalid configuration, 3 numerical failure (partial
outputs are kept).
"""

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from .atlas import FAMILIES, MIN_D, predicted_loss, refined_minimum
from .errors import TangencyLabError
from .spectrum import brute_spectrum, expand_report, full_spectrum, predicted_spectrum
from .stats import counts
from .symmetry import (
    ISOTYPIC_LABELS,
    YoungPartitionGroup,
    build_chart,
    chart_isotypic_projector,
    detect_diagonal_isotropy,
    embed,
    transfer,
)
from .toy import CRITICAL_POINTS, points_to_csv, sample_tangency_set
from .tracer import (
    TraceConfig,
    arc_radius_table,
    arc_to_csv,
    arc_to_json,
    sphere_extremize,
)


class ConfigError(Exception):
    """Invalid command line or config-file values; exits with code 2."""


def _json_text(obj):
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "%.17g" % float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_text(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json_text(v) for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(outdir, name, text):
    """Write one output file, creating the output directory on first use,
    so that a run refused before its first write leaves none behind. A
    failed write is a ConfigError; the files written before it are kept."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {outdir!r}: {e}")
    path = os.path.join(outdir, name)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path!r}: {e}")
    return path


def _write_json(outdir, name, obj):
    return _write(outdir, name, _json_text(obj) + "\n")


def _csv_header(config):
    return "# config: " + _json_text(config) + "\n"


def _cell(value):
    return "%.17g" % value if isinstance(value, (float, np.floating)) else str(value)


def _write_csv(outdir, name, config, columns, rows):
    """A table under its config line: floats at 17 significant digits, other cells via str."""
    lines = [",".join(columns)] + [",".join(_cell(v) for v in row) for row in rows]
    return _write(outdir, name, _csv_header(config) + "\n".join(lines) + "\n")


# ------------------------------------------------------------- flag types
# Each parses and range-checks one flag's text; a ValueError becomes
# argparse's message and exit 2. They do string work only, as they run
# while the command line is parsed.


def _flag_type(what):
    """An argparse type from fn, whose ValueError reads 'must be <what>'."""
    def wrap(fn):
        def parse(text):
            try:
                return fn(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}") from None
        return parse
    return wrap


def _require(ok):
    if not ok:
        raise ValueError


def _items(text):
    return [x for x in text.split(",") if x != ""]


def _distinct(values):
    """values, if it holds at least one and none twice."""
    _require(values and len(set(values)) == len(values))
    return values


@_flag_type(f"a comma list of distinct {', '.join(FAMILIES)}")
def _families(text):
    families = _distinct(_items(text))
    _require(set(families) <= set(FAMILIES))
    return families


def _ints(least):
    @_flag_type(f"a comma list of distinct integers >= {least}")
    def parse(text):
        values = _distinct([int(x) for x in _items(text)])
        _require(min(values) >= least)
        return values
    return parse


def _int(least):
    @_flag_type(f"an integer >= {least}")
    def parse(text):
        value = int(text)
        _require(value >= least)
        return value
    return parse


def _pair(text):
    x, y = map(float, text.split(":"))
    return x, y


def _range(least):
    @_flag_type(f"lo:hi with {least} < lo < hi < inf")
    def parse(text):
        lo, hi = _pair(text)
        _require(least < lo < hi < math.inf)
        return lo, hi
    return parse


def _partition_text(group):
    return "+".join(str(b) for b in group.blocks)


#: the parsed values a config block leaves out: where and how a run goes,
#: not what it computes, and the trace flags, which `arcs` nests
_UNECHOED = {"out", "config", "func", "jobs", *(f.name for f in dataclasses.fields(TraceConfig))}


def _run_config(args, **extra):
    """The config block a run's outputs embed: its parsed flags, with `extra`."""
    return {k: v for k, v in vars(args).items() if k not in _UNECHOED} | extra


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args, outdir):
    families, ds = args.family, args.d
    if args.brute and max(ds) > 12:
        raise ConfigError(f"--brute needs d <= 12 for the dense oracle, got {max(ds)}")
    config = _run_config(args)
    by_d = {}
    for d in ds:
        for fam in families:
            rec = refined_minimum(fam, d)
            comp = full_spectrum(rec)
            pred = predicted_spectrum(fam, d)
            entries = []
            for (ev, mult, label), (pv, _, _) in zip(comp.entries, pred.entries):
                entries.append(
                    {
                        "eigenvalue": ev,
                        "multiplicity": mult,
                        "label": label,
                        "predicted": pv,
                        "absdiff": abs(ev - pv),
                    }
                )
            payload = {
                "config": config,
                "family": fam,
                "d": d,
                "loss": rec.loss_value,
                "loss_predicted": predicted_loss(fam, d),
                "entries": entries,
            }
            if args.brute:
                dense = brute_spectrum(embed(rec.chart, rec.xi))
                flat = expand_report(comp)
                payload["brute_max_absdiff"] = max(
                    abs(a - b) for a, b in zip(flat, dense)
                )
            _write_json(outdir, f"spectrum_{fam}_d{d}.json", payload)
            by_d.setdefault(d, {})[fam] = payload

    cols = ["component", "slot"]
    for fam in families:
        cols += [fam, fam + "_mult", fam + "_absdiff"]
        if args.brute:
            cols.append(fam + "_brute")
    for d, per_fam in sorted(by_d.items()):
        rows = []
        for label in ("t", "s", "x", "y"):
            # slot k of a label: each family's k-th entry with that label
            slots = itertools.zip_longest(*(
                [e for e in per_fam[fam]["entries"] if e["label"] == label] for fam in families))
            for slot, entries in enumerate(slots, 1):
                row = [label, slot]
                for fam, e in zip(families, entries):
                    row += ["", "", ""] if e is None else [
                        e["eigenvalue"], e["multiplicity"], e["absdiff"]]
                    if args.brute:
                        row.append(per_fam[fam]["brute_max_absdiff"])
                rows.append(row)
        _write_csv(outdir, f"spectrum_table_d{d}.csv", config, cols, rows)
    return 0


# -------------------------------------------------------------------- arcs


def _trace_config(args):
    """TraceConfig from the trace flags, which default to its own defaults."""
    try:
        return TraceConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TraceConfig)})
    except ValueError as e:
        raise ConfigError(str(e))


def _counted_cell(*args):
    """`arc_radius_table` in a worker process: the cell, and the counts of
    its work for the parent to add."""
    counts.clear()
    return arc_radius_table(*args), counts.copy()


def cmd_arcs(args, outdir):
    families, ds, ks = args.family, args.d, args.k
    if max(ks) > min(ds) - 4:
        raise ConfigError(f"ambient split k={max(ks)} must satisfy k <= d-4 for d={min(ds)}")
    cfg = _trace_config(args)
    config = _run_config(args, trace=dataclasses.asdict(cfg))
    keys = [(fam, k, d) for d in sorted(ds) for k in sorted(ks) for fam in families]
    # arc_radius_table's arguments, one iterable each
    columns = [*zip(*keys), [cfg] * len(keys)]
    # a fork-based pool starts every worker at its first submit
    workers = min(args.jobs, len(keys))
    if workers > 1:
        # imported here: the pool's modules cost every other command
        # about 2 MB and 20 ms at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_counted_cell, *columns))
        for _, worked in cells:
            counts.update(worked)
        results = dict(zip(keys, (cell for cell, _ in cells)))
    else:
        results = dict(zip(keys, map(arc_radius_table, *columns)))

    failed = False
    rows = []
    runs_payload = {}
    for d in sorted(ds):
        for k in sorted(ks):
            row = [d, k]
            for fam in families:
                cell = results[(fam, k, d)]
                row.append(cell["value"])
                if cell["value"].startswith("error:"):
                    failed = True
                key = f"{fam}_k{k}_d{d}"
                runs_payload[key] = {name: cell.get(name) for name in (
                    "value", "radius", "runs", "n_directions", "min_eigenvalue", "error")}
                arc = cell.get("arc")
                if arc is not None:
                    _write_json(outdir, f"arc_{key}.json", arc_to_json(arc, cfg))
                    _write(outdir, f"arc_{key}.csv", arc_to_csv(arc))
            rows.append(row)
    _write_csv(outdir, "arcs_table.csv", config, ["d", "k"] + families, rows)
    _write_json(outdir, "arcs_runs.json", {"config": config, "cells": runs_payload})
    return 3 if failed else 0


# ------------------------------------------------------------------ sphere


def cmd_sphere(args, outdir):
    family, d, k = args.family, args.d, args.k
    if k > d - 4:
        raise ConfigError(f"ambient split k={k} must satisfy k <= d-4 for d={d}")
    config = _run_config(args)
    chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
    rec = refined_minimum(family, d)
    center = transfer(rec.chart, rec.xi, chart)
    # the minimum's fixed coordinates: the singletons of its chart
    special = range(rec.chart.group.blocks[0], d)
    radii = np.geomspace(*args.r_grid, args.r_count)

    def describe(xi):
        disp = xi - center
        iso = _partition_text(detect_diagonal_isotropy(chart, disp))
        norms = {
            lab: float(np.linalg.norm(chart_isotypic_projector(chart, lab, special) @ disp))
            for lab in ISOTYPIC_LABELS
        }
        dominant = max(sorted(norms), key=lambda lab: norms[lab])
        return iso, dominant

    modes = ("min", "max") if args.mode == "both" else (args.mode,)
    problems = [(float(r), mode) for r in radii for mode in modes]
    results = iter(sphere_extremize(chart, rec, problems, n_starts=args.n_starts,
                                    seed=args.seed))
    rows = []
    for r in radii:
        row = {"r": float(r), "loss_center": rec.loss_value}
        for mode in modes:
            xi, val = next(results)
            iso, lab = describe(xi)
            if mode == "min":
                row.update(m_r=val, min_isotropy=iso, min_label=lab)
            else:
                row.update(M_r=val, max_isotropy=iso, max_label=lab)
        rows.append(row)

    name = f"sphere_{family}_d{d}_k{k}"
    _write_json(outdir, name + ".json", {"config": config, "rows": rows})
    cols = ["r", "m_r", "min_isotropy", "min_label", "M_r", "max_isotropy", "max_label"]
    _write_csv(outdir, name + ".csv", config, cols,
               [[row.get(c, "") for c in cols] for row in rows])
    return 0


# --------------------------------------------------------------------- toy


_TOY_CENTERS = {
    "max": CRITICAL_POINTS[0],
    "saddle": CRITICAL_POINTS[1],
    "min": CRITICAL_POINTS[5],
}


def _center(name):
    if name in _TOY_CENTERS:
        return _TOY_CENTERS[name]
    x, y = _pair(name)
    _require(math.isfinite(x) and math.isfinite(y))
    return x, y


@_flag_type("max, saddle, min, all, finite x:y or a comma list of them")
def _centers(text):
    return {name: _center(name) for name in (_TOY_CENTERS if text == "all" else text.split(","))}


def cmd_toy(args, outdir):
    centers = args.center
    config = _run_config(args, center=sorted(centers))
    clouds = {}
    for name in sorted(centers):
        clouds[name] = sample_tangency_set(centers[name], resolution=args.resolution,
                                           extent=args.extent)
    text = _csv_header(config) + points_to_csv(clouds)
    _write(outdir, "toy_points.csv", text)
    return 0


# ------------------------------------------------------------------ minima


def cmd_minima(args, outdir):
    families, ds = args.family, args.d
    config = _run_config(args)
    rows = []
    for d in sorted(ds):
        for fam in families:
            rec = refined_minimum(fam, d)
            pred = predicted_loss(fam, d)
            payload = {
                "config": config,
                "family": fam,
                "d": d,
                "blocks": list(rec.chart.group.blocks),
                "xi": [float(x) for x in rec.xi],
                "loss": rec.loss_value,
                "loss_predicted": pred,
                "grad_norm": rec.grad_norm,
                "type": rec.type_label,
            }
            _write_json(outdir, f"minimum_{fam}_d{d}.json", payload)
            rows.append([fam, d, rec.loss_value, pred, abs(rec.loss_value - pred),
                         rec.grad_norm, rec.type_label])
    cols = ["family", "d", "loss", "loss_predicted", "absdiff", "grad_norm", "type"]
    _write_csv(outdir, "minima_table.csv", config, cols, rows)
    return 0


# -------------------------------------------------------------------- main


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="tangency-lab-out",
                        help="output directory (TANGENCY_LAB_OUT overrides)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--config", default=None,
                        help="JSON file whose entries act as flags given first")

    parser = argparse.ArgumentParser(
        prog="tangency-lab",
        description="Regenerate loss, spectrum, arc and toy-model tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="Hessian spectra with series predictions")
    p.add_argument("--family", type=_families, default=",".join(FAMILIES))
    p.add_argument("--d", type=_ints(MIN_D), default="7,20,100")
    p.add_argument("--brute", action="store_true",
                   help="add the dense-oracle agreement column (d <= 12)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("arcs", parents=[common],
                       help="terminal radii of minimal-eigenvalue arcs")
    p.add_argument("--family", type=_families, default=",".join(FAMILIES))
    p.add_argument("--d", type=_ints(MIN_D), default="7,20,100")
    p.add_argument("--k", type=_ints(1), default="1,2,3",
                   help="ambient splits (singleton counts)")
    for f in dataclasses.fields(TraceConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=f.type,
                       default=f.default, help="default %(default)s")
    p.add_argument("--jobs", type=_int(0), default=0,
                   help="parallel worker count (0 = sequential)")
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("sphere", parents=[common],
                       help="sphere-restricted extremal loss profiles")
    p.add_argument("--family", default="C0I", choices=FAMILIES)
    p.add_argument("--d", type=_int(MIN_D), default=7)
    p.add_argument("--k", type=_int(1), default=2)
    p.add_argument("--mode", default="both", choices=("min", "max", "both"))
    p.add_argument("--r-grid", dest="r_grid", type=_range(0), default="1e-3:1e-1")
    p.add_argument("--r-count", dest="r_count", type=_int(2), default=9)
    p.add_argument("--n-starts", dest="n_starts", type=_int(8), default=8)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("toy", parents=[common],
                       help="planar tangency point clouds")
    p.add_argument("--center", type=_centers, default="max",
                   help="max, saddle, min, all, x:y, or a comma list")
    p.add_argument("--resolution", type=_int(64), default=512)
    p.add_argument("--extent", type=_range(-math.inf), default="-2:2")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("minima", parents=[common],
                       help="refined minima with loss predictions")
    p.add_argument("--family", type=_families, default=",".join(FAMILIES))
    p.add_argument("--d", type=_ints(MIN_D), default="7,20,100")
    p.set_defaults(func=cmd_minima)
    return parser, sub.choices


def _config_flags(path, command):
    """The entries of a --config file as flags of the subcommand parser
    `command`: key: value is --key-with-dashes=value, true the bare
    switch, false no flag (and refused unless it names a switch)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        if key == "config" or value is None or isinstance(value, (list, dict)):
            raise ConfigError(f"config entry {key!r}: {json.dumps(value)}: a config file "
                              "takes no config key, list, object or null")
        flag = "--" + key.replace("_", "-")
        if value is False:
            if command.get_default(key) is not False:
                raise ConfigError(f"config entry {key!r}: false: not a switch of this subcommand")
        else:
            flags.append(flag if value is True else f"{flag}={value}")
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # right after the subcommand name, argv[0] (the top-level parser
            # takes nothing else), so that the command line's own flags win
            flags = _config_flags(args.config, commands[args.command])
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        outdir = os.environ.get("TANGENCY_LAB_OUT") or args.out
        if os.path.exists(outdir) and not os.path.isdir(outdir):
            raise ConfigError(f"output directory {outdir!r} names a file")
        return args.func(args, outdir)
    except SystemExit as e:
        # argparse's own exit: 2 after a bad flag or value, 0 after --help
        return e.code
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TangencyLabError as e:
        report = {"error": type(e).__name__, "message": str(e)}
        try:
            _write_json(outdir, "error.json", report)
        except ConfigError:
            pass
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
