"""Command-line front end.

Every command resolves its parameters into a canonical config dict (either
from inline flags or from ``--config FILE``), echoes that dict in the output
metadata, and emits CSV or JSON rows.  Re-running a command with the echoed
config reproduces the output bit-identically on the same platform/version.

Exit codes: 0 ok, 2 usage/validation error, 3 quadrature accuracy failure,
4 near-resonance (Lippmann-Schwinger system numerically singular).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .diagnostics import (
    decay_rate_check, green_radial_field, hankel_incoming_field,
    hankel_outgoing_field, lap_differences, radiation_classify, singularity_rate_check,
)
from .errors import AccuracyError, DomainError, NearResonanceError
from .green import green_eval
from .kernels import Problem, spectral_shift
from .oracle import fourier_invert_detailed
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .scattering import (
    IncidentField, PotentialGrid, born_approx, build_nystrom, eval_scattered,
    resonance_scan, solve_ls,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ACCURACY = 3
EXIT_NEAR_RESONANCE = 4

# QuadratureSpec fields a config may set (under "quad") and metadata echoes
_QUAD_FIELDS = {"rel_tol": float, "abs_tol": float, "laguerre_order": int,
                "bessel_intervals": int}


def _float_list(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"cannot parse float list {text!r}") from exc


def _quad_spec(cfg):
    quad = cfg.get("quad", {})
    if set(quad) - set(_QUAD_FIELDS):
        raise DomainError(f"unknown quad keys {sorted(set(quad) - set(_QUAD_FIELDS))}; "
                          f"allowed: {', '.join(_QUAD_FIELDS)}")
    return QuadratureSpec(**{name: cast(quad.get(name, getattr(DEFAULT_SPEC, name)))
                             for name, cast in _QUAD_FIELDS.items()})


def _normalize(v):
    if isinstance(v, (complex, np.complexfloating)):
        return complex(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def _emit(metadata, columns, rows, fmt, out_path):
    """Rows are lists aligned with columns; complex entries become re/im pairs."""
    rows = [[_normalize(v) for v in row] for row in rows]
    if fmt == "json":
        recs = [{name: {"re": v.real, "im": v.imag} if isinstance(v, complex) else v
                 for name, v in zip(columns, row)} for row in rows]
        text = json.dumps({"metadata": metadata, "rows": recs}, sort_keys=True, indent=2) + "\n"
    else:
        first = rows[0] if rows else [None] * len(columns)
        cols = [c for name, v in zip(columns, first)
                for c in ((f"{name}_re", f"{name}_im") if isinstance(v, complex) else (name,))]
        lines = ["# metadata: " + json.dumps(metadata, sort_keys=True), ",".join(cols)]
        for row in rows:
            flat = [x for v in row for x in ((v.real, v.imag) if isinstance(v, complex) else (v,))]
            lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in flat))
        text = "\n".join(lines) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _metadata(command, cfg, spec):
    return {
        "command": command,
        "version": __version__,
        "config": cfg,
        "tolerances": {name: getattr(spec, name) for name in _QUAD_FIELDS},
    }


def _load_or_build_config(args, fields):
    """The config of ``--config``, or one built from the inline flags: each
    key of ``fields`` maps to its value's function of ``args``.  A config
    file may hold only those keys and "quad"."""
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        unknown = set(cfg) - set(fields) - {"quad"}
        if unknown:
            raise DomainError(f"unknown config keys {sorted(unknown)}; "
                              f"allowed: {', '.join([*fields, 'quad'])}")
    else:
        cfg = {key: value(args) for key, value in fields.items()}
    if getattr(args, "quad_rtol", None) is not None:
        cfg.setdefault("quad", {})["rel_tol"] = args.quad_rtol
    if getattr(args, "quad_atol", None) is not None:
        cfg.setdefault("quad", {})["abs_tol"] = args.quad_atol
    return cfg


def _problem_flags(a):
    return {"dim": a.dim, "s": a.s, "k": a.k}


def _problem(cfg):
    pr = cfg["problem"]
    return Problem(int(pr["dim"]), float(pr["s"]), float(pr["k"]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_green(args):
    cfg = _load_or_build_config(args, {
        "problem": _problem_flags, "eps": lambda a: a.eps,
        "r": lambda a: _float_list(a.r), "decompose": lambda a: bool(a.decompose),
    })
    spec = _quad_spec(cfg)
    p = _problem(cfg)
    shift = spectral_shift(p, float(cfg.get("eps", 0.0)))
    decompose = bool(cfg.get("decompose", False))
    cols = ["r", "total", "err_estimate"]
    if decompose:
        cols = ["r", "total", "helm", "riesz", "j_tail", "err_estimate"]
    rows, failures = [], 0
    for r in cfg["r"]:
        try:
            g = green_eval(p, shift, float(r), spec)
        except AccuracyError:
            failures += 1     # row flagged in metadata, remaining rows still emitted
            continue
        if decompose:
            rows.append([float(r), g.total, g.helm, g.riesz_sum, g.j_tail, g.err_estimate])
        else:
            rows.append([float(r), g.total, g.err_estimate])
    meta = _metadata("green", cfg, spec)
    if failures:
        meta["accuracy_failures"] = failures
    _emit(meta, cols, rows, args.format, args.out)
    return EXIT_ACCURACY if failures else EXIT_OK


def cmd_oracle_compare(args):
    cfg = _load_or_build_config(args, {
        "problem": _problem_flags, "eps": lambda a: a.eps,
        "r": lambda a: _float_list(a.r), "intervals": lambda a: a.intervals,
    })
    spec = _quad_spec(cfg)
    p = _problem(cfg)
    shift = spectral_shift(p, float(cfg["eps"]))
    rows = []
    for r in cfg["r"]:
        g = green_eval(p, shift, float(r), spec)
        o = fourier_invert_detailed(p, shift, float(r), spec,
                                    intervals=cfg.get("intervals"))
        rows.append([float(r), g.total, o.value,
                     abs(g.total - o.value) / abs(g.total)])
    _emit(_metadata("oracle-compare", cfg, spec),
          ["r", "green", "oracle", "rel_diff"], rows, args.format, args.out)
    return EXIT_OK


def cmd_asymptotics(args):
    cfg = _load_or_build_config(args, {
        "problem": _problem_flags, "part": lambda a: a.part, "side": lambda a: a.side,
        "rate": lambda a: a.rate, "rmin": lambda a: a.rmin, "rmax": lambda a: a.rmax,
        "points": lambda a: a.points, "log_correction": lambda a: bool(a.log_correction),
    })
    spec = _quad_spec(cfg)
    p = _problem(cfg)
    window = (float(cfg["rmin"]), float(cfg["rmax"]))
    if cfg["side"] == "decay":
        fit = decay_rate_check(p, cfg["part"], window, float(cfg["rate"]), spec,
                               n_points=int(cfg["points"]))
    else:
        fit = singularity_rate_check(p, cfg["part"], window, float(cfg["rate"]), spec,
                                     n_points=int(cfg["points"]),
                                     log_correction=bool(cfg.get("log_correction", False)))
    meta = _metadata("asymptotics", cfg, spec)
    meta["fit"] = {"fitted_slope": fit.fitted_slope, "growth_ratio": fit.growth_ratio,
                   "drift_ratio": fit.drift_ratio,
                   "envelope_bounded": fit.envelope_bounded}
    rows = [[float(r), float(v)] for r, v in zip(fit.radii, fit.values)]
    _emit(meta, ["r", "value"], rows, args.format, args.out)
    return EXIT_OK


def cmd_lap(args):
    cfg = _load_or_build_config(args, {
        "problem": _problem_flags, "r": lambda a: a.r, "eps": lambda a: _float_list(a.eps),
    })
    spec = _quad_spec(cfg)
    p = _problem(cfg)
    meta = _metadata("lap", cfg, spec)
    try:
        meta["slope"], diffs = lap_differences(p, float(cfg["r"]), cfg["eps"], spec)
    except AccuracyError as exc:
        meta["error"] = str(exc)
        _emit(meta, ["eps"], [], args.format, args.out)
        return EXIT_ACCURACY
    rows = [[float(e), float(d)] for e, d in zip(cfg["eps"], diffs)]
    _emit(meta, ["eps", "diff"], rows, args.format, args.out)
    return EXIT_OK


def cmd_radiation(args):
    cfg = _load_or_build_config(args, {
        "problem": _problem_flags, "field": lambda a: a.field, "r0": lambda a: a.r0,
        "rmax": lambda a: a.rmax, "delta": lambda a: a.delta,
    })
    spec = _quad_spec(cfg)
    p = _problem(cfg)
    kind = cfg["field"]
    if kind == "h1":
        field = hankel_outgoing_field(p.k)
    elif kind == "h2":
        field = hankel_incoming_field(p.k)
    elif kind == "green":
        field = green_radial_field(p, spec)
    else:
        raise DomainError(f"unknown field {kind!r} (use h1, h2 or green)")
    rep = radiation_classify(field, p.k, float(cfg["r0"]), float(cfg["rmax"]),
                             float(cfg["delta"]))
    meta = _metadata("radiation", cfg, spec)
    meta["verdict_src"] = rep.verdict_src
    meta["verdict_gsrc"] = rep.verdict_gsrc
    rows = [[float(r), float(v), float(rep.gsrc_partial[i - 1][1]) if i else 0.0]
            for i, (r, v) in enumerate(rep.src_profile)]
    _emit(meta, ["r", "src_residual", "gsrc_cumulative"], rows, args.format, args.out)
    return EXIT_OK


def _box_flags(a):
    return {"lo": _float_list(a.box_lo), "hi": _float_list(a.box_hi)}


def _build_grid(cfg):
    box = cfg["box"]
    q = cfg["q"]
    return PotentialGrid.build(box["lo"], box["hi"], int(cfg["cells"]),
                               q if np.ndim(q) == 0 else np.asarray(q, dtype=float))


def cmd_scatter(args):
    cfg = _load_or_build_config(args, {
        "problem": _problem_flags, "box": _box_flags,
        "cells": lambda a: a.cells, "q": lambda a: a.q,
        "incident": lambda a: {"direction": _float_list(a.direction)},
        "observation_points": lambda a: [_float_list(tok) for tok in a.observe.split(";")]
        if a.observe else [],
        "born": lambda a: bool(a.born),
    })
    spec = _quad_spec(cfg)
    p = _problem(cfg)
    pot = _build_grid(cfg)
    inc = IncidentField(np.asarray(cfg["incident"]["direction"], dtype=float))
    system = build_nystrom(p, pot, spec)
    try:
        sol = solve_ls(system, inc)
    except NearResonanceError as exc:
        meta = _metadata("scatter", cfg, spec)
        meta["error"] = str(exc)
        meta["rcond"] = exc.rcond   # exact smin/smax from the SVD
        _emit(meta, ["x"], [], args.format, args.out)
        return EXIT_NEAR_RESONANCE
    meta = _metadata("scatter", cfg, spec)
    meta["residual"] = sol.residual
    meta["rcond"] = sol.rcond   # certified lower bound on smin/smax; exact if the SVD ran
    cols = ["point", "u_scat"]
    want_born = bool(cfg.get("born", False))
    if want_born:
        cols.append("born")
    rows = []
    for pt in cfg.get("observation_points", []):
        x = np.asarray(pt, dtype=float)
        row = [";".join(repr(float(c)) for c in x), eval_scattered(sol, x, spec)]
        if want_born:
            row.append(born_approx(p, pot, inc, x, spec))
        rows.append(row)
    _emit(meta, cols, rows, args.format, args.out)
    return EXIT_OK


def cmd_resonance_scan(args):
    cfg = _load_or_build_config(args, {
        "problem": lambda a: {"dim": a.dim, "s": a.s}, "box": _box_flags,
        "cells": lambda a: a.cells, "q": lambda a: a.q,
        "k_grid": lambda a: {"min": a.kmin, "max": a.kmax, "count": a.kcount},
    })
    spec = _quad_spec(cfg)
    pr = cfg["problem"]
    pot = _build_grid(cfg)
    kg = cfg["k_grid"]
    if isinstance(kg, dict):
        ks = np.linspace(float(kg["min"]), float(kg["max"]), int(kg["count"]))
    else:
        ks = np.asarray(kg, dtype=float)
    template = Problem(int(pr["dim"]), float(pr["s"]), float(ks[0]))
    rows = [[k, rc, sv] for k, rc, sv in resonance_scan(template, pot, ks, spec)]
    _emit(_metadata("resonance-scan", cfg, spec),
          ["k", "rcond", "smin"], rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, problem=True):
    if problem:
        sp.add_argument("--dim", type=int, choices=(1, 2, 3))
        sp.add_argument("--s", type=float)
        sp.add_argument("--k", type=float)
    sp.add_argument("--config", help="JSON config file (overrides inline flags)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default="-", help="output path (default stdout)")
    sp.add_argument("--quad-rtol", type=float, dest="quad_rtol")
    sp.add_argument("--quad-atol", type=float, dest="quad_atol")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="frachelm",
        description="Fundamental solutions and scattering for the fractional "
                    "Helmholtz operator (-Lap)^s - k^{2s}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("green", help="evaluate the outgoing fundamental solution")
    _add_common(sp)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--r", help="comma-separated radii")
    sp.add_argument("--decompose", action="store_true")
    sp.set_defaults(func=cmd_green)

    sp = sub.add_parser("oracle-compare", help="green vs direct Fourier inversion")
    _add_common(sp)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--r", help="comma-separated radii")
    sp.add_argument("--intervals", type=int, default=None)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("asymptotics", help="decay / singularity rate check")
    _add_common(sp)
    sp.add_argument("--part", choices=("j_tail", "nonhelm_total"), default="j_tail")
    sp.add_argument("--side", choices=("decay", "singularity"), default="decay")
    sp.add_argument("--rate", type=float)
    sp.add_argument("--rmin", type=float, default=10.0)
    sp.add_argument("--rmax", type=float, default=1e4)
    sp.add_argument("--points", type=int, default=9)
    sp.add_argument("--log-correction", action="store_true", dest="log_correction")
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("lap", help="limiting-absorption convergence slope")
    _add_common(sp)
    sp.add_argument("--r", type=float)
    sp.add_argument("--eps", help="comma-separated decreasing eps list")
    sp.set_defaults(func=cmd_lap)

    sp = sub.add_parser("radiation", help="SRC/GSRC classification of a field")
    _add_common(sp)
    sp.add_argument("--field", choices=("h1", "h2", "green"), default="green")
    sp.add_argument("--r0", type=float, default=10.0)
    sp.add_argument("--rmax", type=float, default=1e3)
    sp.add_argument("--delta", type=float, default=0.75)
    sp.set_defaults(func=cmd_radiation)

    sp = sub.add_parser("scatter", help="solve the Lippmann-Schwinger equation")
    _add_common(sp)
    sp.add_argument("--box-lo", dest="box_lo")
    sp.add_argument("--box-hi", dest="box_hi")
    sp.add_argument("--cells", type=int)
    sp.add_argument("--q", type=float, help="constant contrast value")
    sp.add_argument("--direction", help="incident direction components")
    sp.add_argument("--observe", help="semicolon-separated observation points")
    sp.add_argument("--born", action="store_true")
    sp.set_defaults(func=cmd_scatter)

    sp = sub.add_parser("resonance-scan", help="invertibility indicators over k")
    _add_common(sp, problem=False)
    sp.add_argument("--dim", type=int, choices=(1, 2, 3))
    sp.add_argument("--s", type=float)
    sp.add_argument("--box-lo", dest="box_lo")
    sp.add_argument("--box-hi", dest="box_hi")
    sp.add_argument("--cells", type=int)
    sp.add_argument("--q", type=float)
    sp.add_argument("--kmin", type=float)
    sp.add_argument("--kmax", type=float)
    sp.add_argument("--kcount", type=int, default=20)
    sp.set_defaults(func=cmd_resonance_scan)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except NearResonanceError as exc:
        print(f"near-resonance: {exc}", file=sys.stderr)
        return EXIT_NEAR_RESONANCE
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
