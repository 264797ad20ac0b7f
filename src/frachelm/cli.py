"""Command-line front end.

Each command has one option table, config key -> ``Opt``; a nested table is a
nested config object.  The argparse flags, the config built from inline flags,
the checks of a ``--config`` file (unknown or missing keys, choices, switches)
and the defaults of absent keys all derive from it.  Every table holds the
shared ``quad`` table of the quadrature tolerances.  A ``--config`` file
replaces the inline flags, ``--quad-rtol``/``--quad-atol`` among them.  The
resolved config, with absent keys set to their defaults, is echoed in the
output metadata ahead of the CSV or JSON rows.  Re-running a command with the
echoed config reproduces the output bit-identically on the same
platform/version.

Exit codes: 0 ok, 2 usage/validation error, 3 quadrature accuracy failure,
4 near-resonance (Lippmann-Schwinger system numerically singular).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .diagnostics import (
    decay_rate_check, green_radial_field, hankel_incoming_field,
    hankel_outgoing_field, lap_differences, radiation_classify, singularity_rate_check,
)
from .errors import AccuracyError, DomainError, NearResonanceError
from .green import green_eval
from .kernels import Problem
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


def _float_list(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"cannot parse float list {text!r}") from exc


def _points(text):
    return [_float_list(tok) for tok in text.split(";")] if text else []


def _check_keys(cfg, allowed, where):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise DomainError(f"unknown {where} keys {sorted(unknown)}; allowed: {', '.join(allowed)}")


_KINDS = {int: "an integer", float: "a number"}


def _holds(cast, value):
    """Whether a value is a JSON integer (int) or number (float); a bool is neither."""
    return type(value) is int or cast is float and type(value) is float


def _normalize(v):
    if isinstance(v, (complex, np.complexfloating)):
        return complex(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
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


class Opt(NamedTuple):
    """One config key.  ``parse`` is the flag's argparse type (int or float),
    ``bool`` for a switch, None for plain text, or a function that reads the
    flag's text into the config value (such a flag defaults to None).  A key
    whose default is ``...`` is required."""

    flag: str
    parse: object = None
    default: object = ...
    choices: tuple | None = None
    help: str | None = None

    @property
    def reads_text(self):
        return self.parse not in (None, bool, int, float)


def _add_flags(sp, table):
    for opt in table.values():
        if isinstance(opt, dict):
            _add_flags(sp, opt)
        elif opt.parse is bool:
            sp.add_argument(opt.flag, action="store_true", help=opt.help)
        else:
            text = opt.reads_text
            sp.add_argument(opt.flag, type=None if text else opt.parse,
                            default=None if text or opt.default is ... else opt.default,
                            choices=opt.choices, help=opt.help)


def _inline(args, table):
    """The config the inline flags give; a flag left unset leaves its key out."""
    cfg = {}
    for key, opt in table.items():
        if isinstance(opt, dict):
            cfg[key] = _inline(args, opt)
        elif (value := getattr(args, opt.flag[2:].replace("-", "_"))) is not None:
            cfg[key] = opt.parse(value) if opt.reads_text else value
    return cfg


def _resolve(table, cfg, where=""):
    """Check ``cfg`` against ``table`` in place, adding absent keys' defaults.
    A nested table's key holds an object (``k_grid`` may be a list instead); an
    int key holds a JSON integer and a float key a JSON number (never a bool),
    or its None default (``intervals``)."""
    _check_keys(cfg, table, where or "config")
    for key, opt in table.items():
        name = f"{where}.{key}" if where else key
        if isinstance(opt, dict):
            if isinstance(cfg.setdefault(key, {}), dict):
                _resolve(opt, cfg[key], name)
            elif key != "k_grid":
                raise DomainError(f"{name} must be an object, got {cfg[key]!r}")
        elif key not in cfg:
            if opt.default is ...:
                raise DomainError(f"missing config key {name!r} (flag {opt.flag})")
            cfg[key] = opt.default
        elif opt.parse in _KINDS and not _holds(opt.parse, cfg[key]) \
                and cfg[key] is not opt.default:
            raise DomainError(f"{name} must be {_KINDS[opt.parse]}, got {cfg[key]!r}")
        elif opt.parse is bool and not isinstance(cfg[key], bool):
            raise DomainError(f"{name} must be true or false, got {cfg[key]!r}")
        elif opt.choices and cfg[key] not in opt.choices:
            raise DomainError(f"{name} must be one of {', '.join(map(str, opt.choices))}; "
                              f"got {cfg[key]!r}")


_PROBLEM = {"dim": Opt("--dim", int, choices=(1, 2, 3)), "s": Opt("--s", float),
            "k": Opt("--k", float)}
_BOX = {"lo": Opt("--box-lo", _float_list), "hi": Opt("--box-hi", _float_list)}
_QUAD = {"rel_tol": Opt("--quad-rtol", float, DEFAULT_SPEC.rel_tol),
         "abs_tol": Opt("--quad-atol", float, DEFAULT_SPEC.abs_tol)}


def _problem(cfg):
    pr = cfg["problem"]
    return Problem(int(pr["dim"]), float(pr["s"]), float(pr["k"]))


def _build_grid(cfg):
    q = cfg["q"]
    return PotentialGrid.build(cfg["box"]["lo"], cfg["box"]["hi"], int(cfg["cells"]),
                               q if np.ndim(q) == 0 else np.asarray(q, dtype=float))


# Each command maps (resolved config, spec) to (metadata additions, columns,
# rows, exit code).

def cmd_green(cfg, spec):
    p, eps = _problem(cfg), float(cfg["eps"])
    cols = (["r", "total", "helm", "riesz", "j_tail", "err_estimate"] if cfg["decompose"]
            else ["r", "total", "err_estimate"])
    rows, failures = [], 0
    for r in cfg["r"]:
        try:
            g = green_eval(p, eps, float(r), spec)
        except AccuracyError:
            failures += 1     # row flagged in metadata, remaining rows still emitted
            continue
        values = {"r": float(r), "total": g.total, "helm": g.helm, "riesz": g.riesz_sum,
                  "j_tail": g.j_tail, "err_estimate": g.err_estimate}
        rows.append([values[c] for c in cols])
    if failures:
        return {"accuracy_failures": failures}, cols, rows, EXIT_ACCURACY
    return {}, cols, rows, EXIT_OK


def cmd_oracle_compare(cfg, spec):
    p, eps = _problem(cfg), float(cfg["eps"])
    partition = {} if cfg["intervals"] is None else {"intervals": cfg["intervals"]}
    rows = []
    for r in cfg["r"]:
        g = green_eval(p, eps, float(r), spec)
        o = fourier_invert_detailed(p, eps, float(r), spec, **partition)
        rows.append([float(r), g.total, o.value, abs(g.total - o.value) / abs(g.total)])
    return {}, ["r", "green", "oracle", "rel_diff"], rows, EXIT_OK


def cmd_asymptotics(cfg, spec):
    p = _problem(cfg)
    args = (p, cfg["part"], (float(cfg["rmin"]), float(cfg["rmax"])), float(cfg["rate"]), spec)
    if cfg["side"] == "decay":
        fit = decay_rate_check(*args, n_points=int(cfg["points"]))
    else:
        fit = singularity_rate_check(*args, n_points=int(cfg["points"]),
                                     log_correction=cfg["log_correction"])
    meta = {"fit": {name: getattr(fit, name) for name in
                    ("fitted_slope", "growth_ratio", "drift_ratio", "envelope_bounded")}}
    rows = [[float(r), float(v)] for r, v in zip(fit.radii, fit.values)]
    return meta, ["r", "value"], rows, EXIT_OK


def cmd_lap(cfg, spec):
    try:
        slope, diffs = lap_differences(_problem(cfg), float(cfg["r"]), cfg["eps"], spec)
    except AccuracyError as exc:
        return {"error": str(exc)}, ["eps"], [], EXIT_ACCURACY
    rows = [[float(e), float(d)] for e, d in zip(cfg["eps"], diffs)]
    return {"slope": slope}, ["eps", "diff"], rows, EXIT_OK


def cmd_radiation(cfg, spec):
    p = _problem(cfg)
    field = {"h1": lambda: hankel_outgoing_field(p.k), "h2": lambda: hankel_incoming_field(p.k),
             "green": lambda: green_radial_field(p, spec)}[cfg["field"]]()
    rep = radiation_classify(field, p.k, float(cfg["r0"]), float(cfg["rmax"]),
                             float(cfg["delta"]))
    rows = [[float(r), float(v), float(rep.gsrc_partial[i - 1][1]) if i else 0.0]
            for i, (r, v) in enumerate(rep.src_profile)]
    return ({"verdict_src": rep.verdict_src, "verdict_gsrc": rep.verdict_gsrc},
            ["r", "src_residual", "gsrc_cumulative"], rows, EXIT_OK)


def cmd_scatter(cfg, spec):
    p = _problem(cfg)
    pot = _build_grid(cfg)
    inc = IncidentField(np.asarray(cfg["incident"]["direction"], dtype=float))
    system = build_nystrom(p, pot, spec)
    try:
        sol = solve_ls(system, inc)
    except NearResonanceError as exc:
        # exc.rcond is the exact smin/smax from the SVD
        return {"error": str(exc), "rcond": exc.rcond}, ["x"], [], EXIT_NEAR_RESONANCE
    cols = ["point", "u_scat", "born"] if cfg["born"] else ["point", "u_scat"]
    rows = []
    if len(cfg["observation_points"]):
        x = np.asarray(cfg["observation_points"], dtype=float)
        vals = [eval_scattered(sol, x, spec)]
        if cfg["born"]:
            vals.append(born_approx(p, pot, inc, x, spec))
        rows = [[";".join(repr(float(c)) for c in pt), *v]
                for pt, *v in zip(np.atleast_2d(x), *map(np.atleast_1d, vals))]
    # rcond: certified lower bound on smin/smax; exact if the SVD ran
    return {"residual": sol.residual, "rcond": sol.rcond}, cols, rows, EXIT_OK


def cmd_resonance_scan(cfg, spec):
    pr, kg = cfg["problem"], cfg["k_grid"]
    ks = (np.linspace(float(kg["min"]), float(kg["max"]), int(kg["count"]))
          if isinstance(kg, dict) else np.asarray(kg, dtype=float))
    if ks.ndim != 1 or ks.size == 0:
        raise DomainError(f"k_grid must give a non-empty list of wavenumbers, got {kg!r}")
    pot = _build_grid(cfg)
    template = Problem(int(pr["dim"]), float(pr["s"]), float(ks[0]))
    rows = [[k, rc, sv] for k, rc, sv in resonance_scan(template, pot, ks, spec)]
    return {}, ["k", "rcond", "smin"], rows, EXIT_OK


# command -> (help, function, option table)
COMMANDS = {
    "green": ("evaluate the outgoing fundamental solution", cmd_green, {
        "problem": _PROBLEM, "quad": _QUAD, "eps": Opt("--eps", float, 0.0),
        "r": Opt("--r", _float_list, help="comma-separated radii"),
        "decompose": Opt("--decompose", bool, False)}),
    "oracle-compare": ("green vs direct Fourier inversion", cmd_oracle_compare, {
        "problem": _PROBLEM, "quad": _QUAD, "eps": Opt("--eps", float),
        "r": Opt("--r", _float_list, help="comma-separated radii"),
        "intervals": Opt("--intervals", int, None)}),
    "asymptotics": ("decay / singularity rate check", cmd_asymptotics, {
        "problem": _PROBLEM, "quad": _QUAD,
        "part": Opt("--part", default="j_tail", choices=("j_tail", "nonhelm_total")),
        "side": Opt("--side", default="decay", choices=("decay", "singularity")),
        "rate": Opt("--rate", float), "rmin": Opt("--rmin", float, 10.0),
        "rmax": Opt("--rmax", float, 1e4), "points": Opt("--points", int, 9),
        "log_correction": Opt("--log-correction", bool, False)}),
    "lap": ("limiting-absorption convergence slope", cmd_lap, {
        "problem": _PROBLEM, "quad": _QUAD, "r": Opt("--r", float),
        "eps": Opt("--eps", _float_list, help="comma-separated decreasing eps list")}),
    "radiation": ("SRC/GSRC classification of a field", cmd_radiation, {
        "problem": _PROBLEM, "r0": Opt("--r0", float, 10.0), "rmax": Opt("--rmax", float, 1e3),
        "field": Opt("--field", default="green", choices=("h1", "h2", "green")),
        "delta": Opt("--delta", float, 0.75), "quad": _QUAD}),
    "scatter": ("solve the Lippmann-Schwinger equation", cmd_scatter, {
        "problem": _PROBLEM, "quad": _QUAD, "box": _BOX, "cells": Opt("--cells", int),
        "q": Opt("--q", float, help="constant contrast value"),
        "incident": {"direction": Opt("--direction", _float_list,
                                      help="incident direction components")},
        "observation_points": Opt("--observe", _points, (),
                                  help="semicolon-separated observation points"),
        "born": Opt("--born", bool, False)}),
    "resonance-scan": ("invertibility indicators over k", cmd_resonance_scan, {
        "problem": {"dim": _PROBLEM["dim"], "s": _PROBLEM["s"]}, "box": _BOX,
        "cells": Opt("--cells", int), "q": Opt("--q", float), "quad": _QUAD,
        "k_grid": {"min": Opt("--kmin", float), "max": Opt("--kmax", float),
                   "count": Opt("--kcount", int, 20)}}),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="frachelm",
        description="Fundamental solutions and scattering for the fractional "
                    "Helmholtz operator (-Lap)^s - k^{2s}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _, table) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        _add_flags(sp, table)
        sp.add_argument("--config", help="JSON config file (overrides inline flags)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default="-", help="output path (default stdout)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    _, run, table = COMMANDS[args.command]
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        else:
            cfg = _inline(args, table)
        _resolve(table, cfg)
        extra, columns, rows, code = run(cfg, QuadratureSpec(**cfg["quad"]))
        _emit({"command": args.command, "version": __version__, "config": cfg, **extra},
              columns, rows, args.format, args.out)
        return code
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    except (OSError, KeyError, TypeError, ValueError) as exc:   # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
