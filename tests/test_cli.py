"""CLI contract tests: outputs, exit codes, config round-trips, fixtures."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import frachelm.cli
import frachelm.green
from frachelm.cli import _QUAD, main
from frachelm.scattering import build_nystrom

# frozen by a dual-path-validated build (oracle agreement at eps > 0 plus the
# O(eps) limiting-absorption continuation toward eps = 0)
GREEN_2D_FIXTURE_R5 = complex(0.3112281990752173, -0.17759677131433843)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(out):
    lines = out.strip().splitlines()
    meta = json.loads(lines[0].removeprefix("# metadata: "))
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


def test_green_decompose_riesz_anchor(capsys):
    code, out = run_cli(capsys, ["green", "--dim", "3", "--s", "0.5", "--k", "1",
                                 "--r", "1", "--decompose"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    riesz_re = float(rows[0][header.index("riesz_re")])
    assert riesz_re == pytest.approx(1.0 / (2.0 * np.pi ** 2), rel=1e-12)


def test_green_1d_helm_anchor(capsys):
    code, out = run_cli(capsys, ["green", "--dim", "1", "--s", "0.5", "--k", "1",
                                 "--eps", "0", "--r", "2", "--decompose"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    helm = complex(float(rows[0][header.index("helm_re")]),
                   float(rows[0][header.index("helm_im")]))
    assert helm == pytest.approx(1j * np.exp(2j), rel=1e-12)


def test_green_2d_fixture(capsys):
    code, out = run_cli(capsys, ["green", "--dim", "2", "--s", "0.25", "--k", "1",
                                 "--r", "5"])
    assert code == 0
    _, header, rows = parse_csv(out)
    total = complex(float(rows[0][header.index("total_re")]),
                    float(rows[0][header.index("total_im")]))
    assert abs(total - GREEN_2D_FIXTURE_R5) / abs(GREEN_2D_FIXTURE_R5) < 1e-5


def test_invalid_params_exit_2(tmp_path, capsys):
    code, _ = run_cli(capsys, ["green", "--dim", "1", "--s", "1.5", "--k", "1",
                               "--r", "1"])
    assert code == 2
    code, _ = run_cli(capsys, ["oracle-compare", "--dim", "1", "--s", "0.5",
                               "--k", "1", "--eps", "0", "--r", "1"])
    assert code == 2   # oracle requires eps > 0
    # non-finite wavenumber, absorption and radius window
    code, _ = run_cli(capsys, ["green", "--dim", "1", "--s", "0.5", "--k", "inf",
                               "--r", "1"])
    assert code == 2
    code, _ = run_cli(capsys, ["green", "--dim", "1", "--s", "0.75", "--k", "1",
                               "--eps", "inf", "--r", "1"])
    assert code == 2
    code, _ = run_cli(capsys, ["radiation", "--dim", "2", "--s", "0.5", "--k", "1",
                               "--field", "h1", "--rmax", "inf"])
    assert code == 2
    # a float list with a token that is not a number
    code = main(["green", "--dim", "3", "--s", "0.5", "--k", "1", "--r", "1,x"])
    assert code == 2 and "cannot parse float list" in capsys.readouterr().err
    # a degenerate rate-check grid or a non-finite claimed rate
    for extra in (["--points", "1"], ["--points", "0"], ["--rate", "nan"]):
        args = ["asymptotics", "--dim", "1", "--s", "0.75", "--k", "1", "--rate", "2.5"]
        code, _ = run_cli(capsys, args + extra)
        assert code == 2
    # a non-finite quadrature tolerance
    for extra in (["--quad-atol", "inf"], ["--quad-rtol", "inf"], ["--quad-rtol", "nan"]):
        args = ["green", "--dim", "1", "--s", "0.75", "--k", "1", "--r", "1"]
        code, _ = run_cli(capsys, args + extra)
        assert code == 2
    # a bool for a float key: not read as 1.0
    path = tmp_path / "green.json"
    for cfg in ({"problem": {"dim": 1, "s": 0.75, "k": True}, "r": [1.0]},
                {"problem": {"dim": 1, "s": 0.75, "k": 1.0}, "r": [1.0], "quad": {"rel_tol": True}}):
        path.write_text(json.dumps(cfg))
        code, _ = run_cli(capsys, ["green", "--config", str(path)])
        assert code == 2


def test_unknown_quad_key_exit_2(tmp_path, capsys):
    path = tmp_path / "green.json"
    path.write_text(json.dumps({"problem": {"dim": 1, "s": 0.5, "k": 1.0}, "r": [1.0],
                                "quad": {"rel_tl": 1e-3, "max_subdiv": 5}}))
    assert main(["green", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "max_subdiv" in err and "rel_tl" in err
    assert all(name in err for name in _QUAD)


def test_green_rows_that_miss_the_tolerance_exit_3(capsys):
    # each radius that raises AccuracyError is counted, not emitted
    code, out = run_cli(capsys, ["green", "--dim", "2", "--s", "0.3", "--k", "1", "--r", "1,2",
                                 "--quad-rtol", "1e-15", "--quad-atol", "1e-300"])
    assert code == 3
    meta, _, rows = parse_csv(out)
    assert meta["accuracy_failures"] == 2 and rows == []


def test_scatter_near_resonance_exit_4(capsys, monkeypatch):
    built = []

    def singular_build(*args, **kwargs):
        system = build_nystrom(*args, **kwargs)
        system.matrix[2, :] = 0.0
        built.append(system)
        return system

    monkeypatch.setattr(frachelm.cli, "build_nystrom", singular_build)
    code, out = run_cli(capsys, ["scatter", "--dim", "1", "--s", "0.75", "--k", "1",
                                 "--box-lo", "-1", "--box-hi", "1", "--cells", "8",
                                 "--q", "0.2", "--direction", "1", "--observe", "4"])
    assert code == 4
    meta, _, rows = parse_csv(out)
    sv = np.linalg.svd(built[0].matrix, compute_uv=False)
    assert "numerically singular" in meta["error"] and rows == []
    assert meta["rcond"] == float(sv[-1] / sv[0])


def test_inadmissible_shift_exit_2(capsys):
    code, _ = run_cli(capsys, ["green", "--dim", "1", "--s", "0.25", "--k", "1",
                               "--eps", "1.0", "--r", "1"])
    assert code == 2


def test_oracle_compare_small_rel_diff(capsys):
    code, out = run_cli(capsys, ["oracle-compare", "--dim", "3", "--s", "0.75",
                                 "--k", "1", "--eps", "0.3", "--r", "0.5,2"])
    assert code == 0
    _, header, rows = parse_csv(out)
    for row in rows:
        assert float(row[header.index("rel_diff")]) < 1e-5


@pytest.mark.parametrize("count", ["-3", "0", "3"])
def test_oracle_compare_too_few_intervals_exit_2(capsys, count):
    # the count reaches the oracle as its own partition, ``intervals``, which
    # must be >= 4
    assert main(["oracle-compare", "--dim", "2", "--s", "0.75", "--k", "1",
                 "--eps", "0.3", "--r", "1", "--intervals", count]) == 2
    assert "intervals must be an integer >= 4" in capsys.readouterr().err


def test_lap_slope_in_range(capsys):
    code, out = run_cli(capsys, ["lap", "--dim", "1", "--s", "0.3", "--k", "1",
                                 "--r", "2", "--eps", "1e-1,1e-2,1e-3"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert 0.8 <= meta["slope"] <= 1.2


def test_lap_evaluates_each_green_value_once(capsys, monkeypatch):
    import frachelm.diagnostics as diag

    calls = []
    green_eval_batch = diag.green_eval_batch

    def counting(p, shift, radii, *args, **kwargs):
        calls.append((np.asarray(shift, dtype=float).tolist(), np.asarray(radii).tolist()))
        return green_eval_batch(p, shift, radii, *args, **kwargs)

    monkeypatch.setattr(diag, "green_eval_batch", counting)
    eps = [1e-1, 1e-2, 1e-3]
    code, out = run_cli(capsys, ["lap", "--dim", "1", "--s", "0.3", "--k", "1",
                                 "--r", "2", "--eps", ",".join(map(str, eps))])
    assert code == 0
    # one call: eps = 0 and every eps, once each, at the one radius
    assert calls == [([0.0] + eps, [2.0] * (1 + len(eps)))]
    meta, header, rows = parse_csv(out)
    diffs = [float(row[header.index("diff")]) for row in rows]
    assert [float(row[header.index("eps")]) for row in rows] == eps
    assert meta["slope"] == float(np.polyfit(np.log(eps), np.log(diffs), 1)[0])


def test_asymptotics_metadata(capsys):
    code, out = run_cli(capsys, ["asymptotics", "--dim", "1", "--s", "0.75",
                                 "--k", "1", "--rate", "2.5", "--rmax", "1000",
                                 "--points", "5"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["fit"]["envelope_bounded"] is True


@pytest.mark.parametrize("flags, code", [
    (["--dim", "1", "--part", "j_tail", "--rate", "0.4", "--log-correction"], 0),
    # the quadrature cannot meet rel_tol 1e-15: AccuracyError, exit 3 from main
    (["--dim", "2", "--part", "nonhelm_total", "--rate", "1.4",
      "--quad-rtol", "1e-15", "--quad-atol", "1e-300"], 3),
], ids=["fit", "accuracy-exit-3"])
def test_asymptotics_singularity_side(capsys, flags, code):
    assert main(["asymptotics", "--s", "0.3", "--k", "1", "--side", "singularity",
                 "--rmin", "0.001", "--rmax", "0.5", *flags]) == code
    out, err = capsys.readouterr()
    if code == 0:
        meta, _, rows = parse_csv(out)
        assert meta["config"]["side"] == "singularity" and len(rows) == meta["config"]["points"]
    else:
        assert out == "" and err.startswith("accuracy error: ")


def test_radiation_verdicts(capsys):
    code, out = run_cli(capsys, ["radiation", "--field", "h2", "--dim", "2",
                                 "--s", "0.5", "--k", "1", "--r0", "10",
                                 "--rmax", "300", "--delta", "0.75"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["verdict_src"] is False and meta["verdict_gsrc"] is False


@pytest.mark.parametrize("flags", [[], ["--quad-rtol", "1e-6"]])
def test_radiation_green_derivative_takes_quad(monkeypatch, capsys, flags):
    # G and dG/dr run at the spec the metadata echoes, the default or --quad-rtol
    seen = []
    tail_batch = frachelm.green._tail_batch

    def spy(p, regime, kc, r, spec, outs=(False,)):
        seen.extend((d, spec.rel_tol) for d in outs)
        return tail_batch(p, regime, kc, r, spec, outs=outs)

    monkeypatch.setattr(frachelm.green, "_tail_batch", spy)
    code, out = run_cli(capsys, ["radiation", "--dim", "1", "--s", "0.75", "--k", "1",
                                 "--rmax", "100", *flags])
    rel_tol = parse_csv(out)[0]["config"]["quad"]["rel_tol"]
    assert rel_tol == (float(flags[1]) if flags else 1e-9)
    assert code == 0 and {d for d, _ in seen} == {False, True}
    assert {tol for _, tol in seen} == {rel_tol}


def test_scatter_zero_contrast(capsys):
    code, out = run_cli(capsys, ["scatter", "--dim", "1", "--s", "0.75", "--k", "1",
                                 "--box-lo", "-1", "--box-hi", "1", "--cells", "8",
                                 "--q", "0", "--direction", "1", "--observe", "3;5"])
    assert code == 0
    _, header, rows = parse_csv(out)
    for row in rows:
        assert float(row[header.index("u_scat_re")]) == 0.0
        assert float(row[header.index("u_scat_im")]) == 0.0


def test_resonance_scan_small_coupling(capsys):
    code, out = run_cli(capsys, ["resonance-scan", "--dim", "1", "--s", "0.75",
                                 "--box-lo", "-1", "--box-hi", "1", "--cells", "8",
                                 "--q", "0.03", "--kmin", "0.5", "--kmax", "2",
                                 "--kcount", "4"])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert min(float(r[header.index("rcond")]) for r in rows) >= 0.5


def test_json_format_complex_encoding(capsys):
    code, out = run_cli(capsys, ["green", "--dim", "1", "--s", "0.5", "--k", "1",
                                 "--r", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert set(row["total"].keys()) == {"re", "im"}
    assert payload["metadata"]["command"] == "green"


def test_config_round_trip_bit_identical(tmp_path, capsys):
    argv = ["green", "--dim", "2", "--s", "0.3", "--k", "1", "--eps", "0.1",
            "--r", "0.5,1.5", "--decompose"]
    code, first = run_cli(capsys, argv)
    assert code == 0
    meta, _, _ = parse_csv(first)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(meta["config"]))
    code, second = run_cli(capsys, ["green", "--config", str(cfg_path)])
    assert code == 0
    assert first == second


def test_quad_tolerance_override_recorded(capsys):
    code, out = run_cli(capsys, ["green", "--dim", "1", "--s", "0.5", "--k", "1",
                                 "--r", "1", "--quad-rtol", "1e-6",
                                 "--quad-atol", "1e-9"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["config"]["quad"] == {"rel_tol": 1e-6, "abs_tol": 1e-9}


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _ = run_cli(capsys, ["green", "--dim", "1", "--s", "0.5", "--k", "1",
                               "--r", "1", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text().startswith("# metadata: ")


def test_scatter_config_file(tmp_path, capsys):
    cfg = {
        "problem": {"dim": 1, "s": 0.75, "k": 1.0},
        "box": {"lo": [-1.0], "hi": [1.0]},
        "cells": 8,
        "q": 0.2,
        "incident": {"direction": [1.0]},
        "observation_points": [[4.0]],
        "born": True,
    }
    path = tmp_path / "scatter.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["scatter", "--config", str(path)])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["residual"] < 1e-10
    assert "born_re" in header and len(rows) == 1


def test_lap_inconclusive_exit_3(capsys):
    code, _ = run_cli(capsys, ["lap", "--dim", "1", "--s", "0.3", "--k", "1",
                               "--r", "2", "--eps", "1e-5,1e-6",
                               "--quad-rtol", "1e-4", "--quad-atol", "1e-6"])
    assert code == 3


CONFIGS = Path(__file__).resolve().parent.parent / "docs" / "configs"


@pytest.mark.parametrize("command, key, value", [
    ("scatter", "bron", True),
    ("scatter", "observation_point", [[3.0, 0.0]]),
    ("green", "decompse", True),
    ("oracle-compare", "interval", 8),
    ("asymptotics", "log_corection", True),
])
def test_misspelt_config_key_exit_2(tmp_path, capsys, command, key, value):
    cfg = json.loads((CONFIGS / f"{command}.json").read_text())
    cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert key in err and all(name in err for name in cfg if name != key)


def test_scatter_observation_point_dimension_exit_2(capsys):
    code, _ = run_cli(capsys, ["scatter", "--dim", "2", "--s", "0.75", "--k", "1",
                               "--box-lo", " -1,-1", "--box-hi", "1,1", "--cells", "4",
                               "--q", "0.2", "--direction", "1,0", "--observe", "5"])
    assert code == 2


def test_scatter_observes_all_points_in_one_call(monkeypatch, capsys):
    calls = {}
    for name in ("eval_scattered", "born_approx"):
        def counted(*args, fn=getattr(frachelm.cli, name), name=name, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(frachelm.cli, name, counted)
    code, out = run_cli(capsys, ["scatter", "--dim", "2", "--s", "0.75", "--k", "1",
                                 "--box-lo", " -1,-1", "--box-hi", "1,1", "--cells", "4",
                                 "--q", "0.2", "--direction", "1,0", "--born",
                                 "--observe", "3,0;0,4;0.1,0.2"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert calls == {"eval_scattered": 1, "born_approx": 1}
    assert [row[0] for row in rows] == ["3.0;0.0", "0.0;4.0", "0.1;0.2"]


@pytest.mark.parametrize("command, fmt", [(path.stem, fmt) for path in sorted(CONFIGS.glob("*.json"))
                                          for fmt in ("csv", "json")])
def test_docs_config_round_trip(tmp_path, capsys, command, fmt):
    code, first = run_cli(capsys, [command, "--config", str(CONFIGS / f"{command}.json"),
                                   "--format", fmt])
    assert code == 0
    meta = json.loads(first)["metadata"] if fmt == "json" else parse_csv(first)[0]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(meta["config"]))
    code, second = run_cli(capsys, [command, "--config", str(path), "--format", fmt])
    assert code == 0
    assert second == first


@pytest.mark.parametrize("command", [path.stem for path in sorted(CONFIGS.glob("*.json"))])
def test_echoed_config_holds_quad(capsys, command):
    # each echo pins the tolerances its rows ran at; test_docs_config_round_trip
    # re-runs the echo
    code, out = run_cli(capsys, [command, "--config", str(CONFIGS / f"{command}.json")])
    assert code == 0
    assert parse_csv(out)[0]["config"]["quad"] == {"rel_tol": 1e-9, "abs_tol": 1e-12}


def test_config_file_overrides_quad_flags(tmp_path, capsys):
    # the file replaces the inline flags: --quad-rtol/--quad-atol beside --config are unused
    path = _docs_config(tmp_path, "green", quad={"rel_tol": 1e-8, "abs_tol": 1e-11})
    code, first = run_cli(capsys, ["green", "--config", path])
    assert code == 0
    assert parse_csv(first)[0]["config"]["quad"] == {"rel_tol": 1e-8, "abs_tol": 1e-11}
    code, second = run_cli(capsys, ["green", "--config", path, "--quad-rtol", "1e-4",
                                    "--quad-atol", "1e-6"])
    assert (code, second) == (0, first)


# the flags of every subcommand as the hand-written parser declared them:
# option -> (dest, type, default, choices, help)
_COMMON_FLAGS = {
    "--config": ("config", None, None, None, "JSON config file (overrides inline flags)"),
    "--format": ("format", None, "csv", ("csv", "json"), None),
    "--out": ("out", None, "-", None, "output path (default stdout)"),
    "--quad-rtol": ("quad_rtol", float, 1e-9, None, None),
    "--quad-atol": ("quad_atol", float, 1e-12, None, None),
}
_PROBLEM_FLAGS = {
    "--dim": ("dim", int, None, (1, 2, 3), None),
    "--s": ("s", float, None, None, None),
    "--k": ("k", float, None, None, None),
}
FLAG_SURFACE = {
    "green": {
        **_PROBLEM_FLAGS, **_COMMON_FLAGS,
        "--eps": ("eps", float, 0.0, None, None),
        "--r": ("r", None, None, None, "comma-separated radii"),
        "--decompose": ("decompose", None, False, None, None),
    },
    "oracle-compare": {
        **_PROBLEM_FLAGS, **_COMMON_FLAGS,
        "--eps": ("eps", float, None, None, None),
        "--r": ("r", None, None, None, "comma-separated radii"),
        "--intervals": ("intervals", int, None, None, None),
    },
    "asymptotics": {
        **_PROBLEM_FLAGS, **_COMMON_FLAGS,
        "--part": ("part", None, "j_tail", ("j_tail", "nonhelm_total"), None),
        "--side": ("side", None, "decay", ("decay", "singularity"), None),
        "--rate": ("rate", float, None, None, None),
        "--rmin": ("rmin", float, 10.0, None, None),
        "--rmax": ("rmax", float, 10000.0, None, None),
        "--points": ("points", int, 9, None, None),
        "--log-correction": ("log_correction", None, False, None, None),
    },
    "lap": {
        **_PROBLEM_FLAGS, **_COMMON_FLAGS,
        "--r": ("r", float, None, None, None),
        "--eps": ("eps", None, None, None, "comma-separated decreasing eps list"),
    },
    "radiation": {
        **_PROBLEM_FLAGS, **_COMMON_FLAGS,
        "--field": ("field", None, "green", ("h1", "h2", "green"), None),
        "--r0": ("r0", float, 10.0, None, None),
        "--rmax": ("rmax", float, 1000.0, None, None),
        "--delta": ("delta", float, 0.75, None, None),
    },
    "scatter": {
        **_PROBLEM_FLAGS, **_COMMON_FLAGS,
        "--box-lo": ("box_lo", None, None, None, None),
        "--box-hi": ("box_hi", None, None, None, None),
        "--cells": ("cells", int, None, None, None),
        "--q": ("q", float, None, None, "constant contrast value"),
        "--direction": ("direction", None, None, None, "incident direction components"),
        "--observe": ("observe", None, None, None, "semicolon-separated observation points"),
        "--born": ("born", None, False, None, None),
    },
    "resonance-scan": {
        **_COMMON_FLAGS,
        "--dim": ("dim", int, None, (1, 2, 3), None),
        "--s": ("s", float, None, None, None),
        "--box-lo": ("box_lo", None, None, None, None),
        "--box-hi": ("box_hi", None, None, None, None),
        "--cells": ("cells", int, None, None, None),
        "--q": ("q", float, None, None, None),
        "--kmin": ("kmin", float, None, None, None),
        "--kmax": ("kmax", float, None, None, None),
        "--kcount": ("kcount", int, 20, None, None),
    },
}
SWITCHES = {("green", "--decompose"), ("asymptotics", "--log-correction"), ("scatter", "--born")}


def test_flag_surface(capsys):
    parser = frachelm.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAG_SURFACE)
    for command, sp in sub.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        assert all(len(a.option_strings) == 1 for a in actions)
        assert {a.option_strings[0]: (a.dest, a.type, a.default, a.choices, a.help)
                for a in actions} == FLAG_SURFACE[command]
        assert {(command, a.option_strings[0]) for a in actions if a.nargs == 0} == \
            {switch for switch in SWITCHES if switch[0] == command}
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


_DROP = object()


def _docs_config(tmp_path, command, **changes):
    cfg = json.loads((CONFIGS / f"{command}.json").read_text())
    cfg.update(changes)
    cfg = {key: value for key, value in cfg.items() if value is not _DROP}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


CHECKED_CONFIGS = [
    ("asymptotics", {"side": "Decay", "rmin": 0.01, "rmax": 0.5}, ["side", "decay, singularity"]),
    ("asymptotics", {"part": "tail"}, ["part", "j_tail, nonhelm_total"]),
    ("asymptotics", {"log_correction": 1}, ["log_correction"]),
    ("radiation", {"field": "h3"}, ["field", "h1, h2, green"]),
    ("scatter", {"born": "no"}, ["born"]),
    ("green", {"decompose": "yes"}, ["decompose"]),
    ("green", {"problem": {"dim": 4, "s": 0.5, "k": 1.0}}, ["problem.dim", "1, 2, 3"]),
    ("green", {"r": _DROP}, ["'r'", "--r"]),
    ("scatter", {"incident": _DROP}, ["incident.direction", "--direction"]),
    ("lap", {"problem": {"dim": 1, "s": 0.3}}, ["problem.k", "--k"]),
    ("resonance-scan", {"k_grid": {"min": 0.5, "count": 4}}, ["k_grid.max", "--kmax"]),
    ("resonance-scan", {"problem": {"dim": 1, "s": 0.75, "k": 1.0}}, ["['k']", "dim, s"]),
    ("resonance-scan", {"k_grid": 1.0}, ["k_grid", "non-empty"]),
    ("resonance-scan", {"k_grid": []}, ["k_grid", "non-empty"]),
    # an int key holds a JSON integer: no fraction, bool or string
    ("scatter", {"cells": 4.7}, ["cells", "integer", "4.7"]),
    ("scatter", {"cells": True}, ["cells", "integer", "True"]),
    ("resonance-scan", {"cells": "4"}, ["cells", "integer", "'4'"]),
    ("asymptotics", {"points": 3.9}, ["points", "integer", "3.9"]),
    ("asymptotics", {"problem": {"dim": True, "s": 0.75, "k": 1.0}}, ["problem.dim", "integer"]),
    ("resonance-scan", {"k_grid": {"min": 0.5, "max": 2.0, "count": 4.0}}, ["k_grid.count"]),
    ("oracle-compare", {"intervals": 4.7}, ["intervals", "integer", "4.7"]),
    ("green", {"quad": {"bessel_intervals": 30}}, ["quad", "bessel_intervals", "rel_tol"]),
    # a float key holds a JSON number: no bool or string
    ("radiation", {"problem": {"dim": 1, "s": 0.75, "k": True}}, ["problem.k", "number", "True"]),
    ("scatter", {"quad": {"rel_tol": True}}, ["quad.rel_tol", "number", "True"]),
    ("oracle-compare", {"eps": False}, ["eps", "number", "False"]),
    ("asymptotics", {"rmax": "1e4"}, ["rmax", "number", "'1e4'"]),
    # a nested table's key holds an object
    ("lap", {"quad": [1e-9]}, ["quad", "object"]),
]


@pytest.mark.parametrize("command, changes, named", CHECKED_CONFIGS,
                         ids=[f"{command}-{'-'.join(changes)}"
                              for command, changes, _ in CHECKED_CONFIGS])
def test_config_values_checked_like_flags(tmp_path, capsys, command, changes, named):
    assert main([command, "--config", _docs_config(tmp_path, command, **changes)]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named)


def test_missing_required_flag_exit_2(capsys):
    assert main(["green", "--dim", "1", "--s", "0.5", "--k", "1"]) == 2
    assert "'r'" in capsys.readouterr().err
    assert main(["scatter", "--dim", "1", "--s", "0.75", "--k", "1", "--box-lo", "-1",
                 "--box-hi", "1", "--q", "0.2", "--direction", "1"]) == 2
    assert "'cells'" in capsys.readouterr().err


def test_absent_config_key_takes_flag_default(tmp_path, capsys):
    # present values are echoed as given (the int 3 stays an int), absent ones
    # take the flag's default; the explicit list form of k_grid is kept
    path = _docs_config(tmp_path, "asymptotics", rmin=_DROP, log_correction=_DROP, rate=3)
    code, out = run_cli(capsys, ["asymptotics", "--config", path])
    assert code == 0
    config = parse_csv(out)[0]["config"]
    assert config["rmin"] == 10.0 and config["log_correction"] is False
    assert config["rate"] == 3 and isinstance(config["rate"], int)
    path = _docs_config(tmp_path, "resonance-scan", k_grid=[0.5, 1.0])
    code, out = run_cli(capsys, ["resonance-scan", "--config", path])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["config"]["k_grid"] == [0.5, 1.0]
    assert [float(row[header.index("k")]) for row in rows] == [0.5, 1.0]
