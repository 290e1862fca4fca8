"""Command line front end: regenerate tables and figure data.

Subcommands write JSON records and CSV tables into an output directory.
Every file embeds the numerically relevant part of its run
configuration, floats are serialized at 17 significant digits, and
reruns with identical configuration are byte-identical. Exit codes:
0 success, 2 invalid configuration, 3 numerical failure (partial
outputs are kept).
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .atlas import FAMILIES, MIN_D, predicted_loss, refined_minimum
from .errors import TangencyLabError
from .spectrum import brute_spectrum, expand_report, full_spectrum, predicted_spectrum
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
    so that a run refused before its first write leaves none behind."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {outdir!r}: {e}")
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
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


def _parse_int_list(text, what):
    try:
        vals = [int(x) for x in str(text).split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"{what} must be a comma separated integer list, got {text!r}")
    if not vals:
        raise ConfigError(f"{what} list is empty")
    return vals


def _parse_families(text):
    fams = [f for f in str(text).split(",") if f != ""]
    for f in fams:
        if f not in FAMILIES:
            raise ConfigError(f"unknown family {f!r}; choose from {', '.join(FAMILIES)}")
    if not fams:
        raise ConfigError("family list is empty")
    return fams


def _check_widths(ds):
    for d in ds:
        if d < MIN_D:
            raise ConfigError(f"width d={d} is below the supported minimum {MIN_D}")


def _parse_range(text, what):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{what} must be numeric, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what} bounds must be finite, got {text!r}")
    if not lo < hi:
        raise ConfigError(f"{what} must be increasing, got {text!r}")
    return lo, hi


def _partition_text(group):
    return "+".join(str(b) for b in group.blocks)


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args, outdir):
    families = _parse_families(args.family)
    ds = _parse_int_list(args.d, "--d")
    _check_widths(ds)
    if args.brute:
        for d in ds:
            if d > 12:
                raise ConfigError(f"--brute needs d <= 12 for the dense oracle, got {d}")
    config = {
        "command": "spectrum",
        "family": families,
        "d": ds,
        "brute": bool(args.brute),
        "seed": args.seed,
    }
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
        slots = {}
        for fam in families:
            by_label = {}
            for e in per_fam[fam]["entries"]:
                by_label.setdefault(e["label"], []).append(e)
            slots[fam] = by_label
        for label in ("t", "s", "x", "y"):
            n = max(len(slots[f].get(label, [])) for f in families)
            for k in range(n):
                row = [label, k + 1]
                for fam in families:
                    es = slots[fam].get(label, [])
                    if k < len(es):
                        row += [es[k]["eigenvalue"], es[k]["multiplicity"], es[k]["absdiff"]]
                    else:
                        row += ["", "", ""]
                    if args.brute:
                        row.append(per_fam[fam]["brute_max_absdiff"])
                rows.append(row)
        _write_csv(outdir, f"spectrum_table_d{d}.csv", config, cols, rows)
    return 0


# -------------------------------------------------------------------- arcs


def _trace_config(args):
    """TraceConfig from the flags that were given, each cast to its field's type."""
    try:
        return TraceConfig(**{
            f.name: f.type(getattr(args, f.name))
            for f in dataclasses.fields(TraceConfig)
            if getattr(args, f.name, None) is not None
        })
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


def cmd_arcs(args, outdir):
    families = _parse_families(args.family)
    ds = _parse_int_list(args.d, "--d")
    ks = _parse_int_list(args.k, "--k")
    _check_widths(ds)
    for k in ks:
        if k < 1 or k > min(ds) - 4:
            raise ConfigError(f"ambient split k={k} must satisfy 1 <= k <= d-4")
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be at least 0, got {args.jobs}")
    cfg = _trace_config(args)
    config = {
        "command": "arcs",
        "family": families,
        "d": ds,
        "k": ks,
        "trace": dataclasses.asdict(cfg),
        "seed": args.seed,
    }
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
            results = dict(zip(keys, pool.map(arc_radius_table, *columns)))
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
                meta = {
                    "value": cell["value"],
                    "radius": cell.get("radius"),
                    "runs": cell.get("runs"),
                    "n_directions": cell.get("n_directions"),
                    "min_eigenvalue": cell.get("min_eigenvalue"),
                    "error": cell.get("error"),
                }
                runs_payload[key] = meta
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
    families = _parse_families(args.family)
    if len(families) != 1:
        raise ConfigError("sphere takes a single --family")
    family = families[0]
    ds = _parse_int_list(args.d, "--d")
    if len(ds) != 1:
        raise ConfigError("sphere takes a single --d")
    d = ds[0]
    _check_widths([d])
    k = int(args.k)
    if k < 1 or k > d - 4:
        raise ConfigError(f"ambient split k={k} must satisfy 1 <= k <= d-4")
    if args.mode not in ("min", "max", "both"):
        raise ConfigError(f"--mode must be min, max or both, got {args.mode!r}")
    lo, hi = _parse_range(args.r_grid, "--r-grid")
    if lo <= 0:
        raise ConfigError("--r-grid radii must be positive")
    count = int(args.r_count)
    if count < 2:
        raise ConfigError("--r-count must be at least 2")
    n_starts = int(args.n_starts)
    if n_starts < 8:
        raise ConfigError("--n-starts must be at least 8")
    config = {
        "command": "sphere",
        "family": family,
        "d": d,
        "k": k,
        "mode": args.mode,
        "r_grid": [lo, hi],
        "r_count": count,
        "n_starts": n_starts,
        "seed": args.seed,
    }
    chart = build_chart(d, YoungPartitionGroup((d - k,) + (1,) * k))
    rec = refined_minimum(family, d)
    center = transfer(rec.chart, rec.xi, chart)
    # the minimum's fixed coordinates: the singletons of its chart
    special = range(rec.chart.group.blocks[0], d)
    radii = np.geomspace(lo, hi, count)

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
    results = iter(sphere_extremize(chart, rec, problems, n_starts=n_starts, seed=args.seed))
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


def cmd_toy(args, outdir):
    names = str(args.center).split(",") if args.center != "all" else ["max", "saddle", "min"]
    centers = {}
    for name in names:
        if name in _TOY_CENTERS:
            centers[name] = _TOY_CENTERS[name]
        else:
            parts = name.split(":")
            if len(parts) != 2:
                raise ConfigError(
                    f"--center must be max, saddle, min, all or x:y, got {name!r}"
                )
            try:
                centers[name] = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise ConfigError(f"--center coordinates must be numeric, got {name!r}")
            if not all(math.isfinite(v) for v in centers[name]):
                raise ConfigError(f"--center coordinates must be finite, got {name!r}")
    resolution = int(args.resolution)
    if resolution < 64:
        raise ConfigError("--resolution must be at least 64")
    lo, hi = _parse_range(args.extent, "--extent")
    config = {
        "command": "toy",
        "center": sorted(centers),
        "resolution": resolution,
        "extent": [lo, hi],
        "seed": args.seed,
    }
    clouds = {}
    for name in sorted(centers):
        clouds[name] = sample_tangency_set(centers[name], resolution=resolution,
                                           extent=(lo, hi))
    text = _csv_header(config) + points_to_csv(clouds)
    _write(outdir, "toy_points.csv", text)
    return 0


# ------------------------------------------------------------------ minima


def cmd_minima(args, outdir):
    families = _parse_families(args.family)
    ds = _parse_int_list(args.d, "--d")
    _check_widths(ds)
    config = {"command": "minima", "family": families, "d": ds, "seed": args.seed}
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
                        help="JSON file whose entries become flag defaults")

    parser = argparse.ArgumentParser(
        prog="tangency-lab",
        description="Regenerate loss, spectrum, arc and toy-model tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="Hessian spectra with series predictions")
    p.add_argument("--family", default=",".join(FAMILIES))
    p.add_argument("--d", default="7,20,100")
    p.add_argument("--brute", action="store_true",
                   help="add the dense-oracle agreement column (d <= 12)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("arcs", parents=[common],
                       help="terminal radii of minimal-eigenvalue arcs")
    p.add_argument("--family", default=",".join(FAMILIES))
    p.add_argument("--d", default="7,20,100")
    p.add_argument("--k", default="1,2,3", help="ambient splits (singleton counts)")
    p.add_argument("--delta-r", dest="delta_r", type=float, default=None,
                   help="base step and checkpoint spacing")
    p.add_argument("--r-min", dest="r_min", type=float, default=None)
    p.add_argument("--r-max", dest="r_max", type=float, default=None)
    p.add_argument("--newton-tol", dest="newton_tol", type=float, default=None)
    p.add_argument("--max-newton-iters", dest="max_newton_iters", type=int, default=None)
    p.add_argument("--cond-threshold", dest="cond_threshold", type=float, default=None)
    p.add_argument("--jobs", type=int, default=0,
                   help="parallel worker count (0 = sequential)")
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("sphere", parents=[common],
                       help="sphere-restricted extremal loss profiles")
    p.add_argument("--family", default="C0I")
    p.add_argument("--d", default="7")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mode", default="both", help="min, max or both")
    p.add_argument("--r-grid", dest="r_grid", default="1e-3:1e-1")
    p.add_argument("--r-count", dest="r_count", type=int, default=9)
    p.add_argument("--n-starts", dest="n_starts", type=int, default=8)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("toy", parents=[common],
                       help="planar tangency point clouds")
    p.add_argument("--center", default="max",
                   help="max, saddle, min, all, x:y, or a comma list")
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--extent", default="-2:2")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("minima", parents=[common],
                       help="refined minima with loss predictions")
    p.add_argument("--family", default=",".join(FAMILIES))
    p.add_argument("--d", default="7,20,100")
    p.set_defaults(func=cmd_minima)
    return parser


def _apply_config_file(parser, argv):
    """Use --config entries as defaults; explicit flags still win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    try:
        with open(known.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {known.config!r}: {e}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    for action in parser._subparsers._group_actions:
        for sp in action.choices.values():
            sp.set_defaults(**{k: v for k, v in data.items() if k != "config"})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        outdir = os.environ.get("TANGENCY_LAB_OUT") or args.out
        if os.path.exists(outdir) and not os.path.isdir(outdir):
            raise ConfigError(f"output directory {outdir!r} names a file")
        return args.func(args, outdir)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TangencyLabError as e:
        report = {"error": type(e).__name__, "message": str(e)}
        try:
            _write_json(outdir, "error.json", report)
        except (ConfigError, OSError):
            pass
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
