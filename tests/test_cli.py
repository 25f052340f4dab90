"""Command-line behavior: exit codes, report shape, and byte-level
determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import liehouse.cli
from liehouse import model
from liehouse.cli import main
from liehouse.closure import ClosureEngine, check_closure
from liehouse.evapo import (
    descriptor_to_expr, e_tanh, make_grid, verify_candidate,
)
from liehouse.homology import StructureMatrix
from liehouse.model import ControlSchedule, Params, simulate

GOOD = {
    "alpha": [1, 1.5, 0.5],
    "beta": {"b11": -1, "b12": 2, "b13": 0.5,
             "b22": -1.5, "b22p": -0.5, "b32": 1, "b33": -1},
    "gamma": [[2, 1, 0.5], [-1, -1.5, 1]],
}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(GOOD))
    return str(path)


@pytest.fixture
def bad_params_file(tmp_path):
    bad = json.loads(json.dumps(GOOD))
    bad["alpha"][0] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    return str(path)


def test_validate_ok(params_file, capsys):
    assert main(["validate", "--params", params_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["command"] == "validate"


def test_validate_violations_exit_one(bad_params_file, capsys):
    assert main(["validate", "--params", bad_params_file]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert any("alpha1" in v for v in report["violations"])


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["validate", "--params", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_params_reject_other_commands(bad_params_file, capsys):
    assert main(["closure", "--params", bad_params_file,
                 "--e", "expr:x*y"]) == 2
    assert "alpha1" in capsys.readouterr().err


def test_closure_roundtrip(params_file, tmp_path):
    out = tmp_path / "closure.json"
    code = main(["closure", "--params", params_file, "--e", "expr:x*y",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "closure"
    assert "mode" not in report
    assert report["cross_variant"] == "bracket_1"
    assert report["seed"] == 0
    assert all(all(row) for row in report["constant_ok"])


def test_closure_nonconstant_exit_one(params_file, tmp_path):
    out = tmp_path / "closure.json"
    assert main(["closure", "--params", params_file, "--e", "expr:x^3*y",
                 "--out", str(out)]) == 1


def test_closure_determinism_bytes(params_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["closure", "--params", params_file, "--e", "expr:x*y",
                     "--seed", "7", "--cross", "paper_2",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["cross_variant"] == "paper_2"


def test_check_e_tanh_reports_tension(params_file, tmp_path):
    out = tmp_path / "check.json"
    code = main(["check-e", "--params", params_file,
                 "--e", "tanh:1,2,1,3,1", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["heisenberg_tension"] is True
    assert report["tension_indices"] == [1]
    assert report["delta"]["11"]["max_abs"] <= 1e-9
    assert report["tol"] == 1e-9
    assert report["grid_size"] == 25


def test_check_e_determinism_bytes(params_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["check-e", "--params", params_file,
                     "--e", "tanh:1,2,1,3,1", "--seed", "3",
                     "--out", str(path)]) == 1
    assert a.read_bytes() == b.read_bytes()


def test_check_e_grid_flag(params_file, tmp_path):
    out = tmp_path / "check.json"
    main(["check-e", "--params", params_file, "--e", "tanh:1,2,1,3,1",
          "--grid", "3,4,0.2,0.8,0.1,0.7", "--out", str(out)])
    assert json.loads(out.read_text())["grid_size"] == 12


def test_check_e_requires_descriptor(params_file, capsys):
    assert main(["check-e", "--params", params_file]) == 2
    assert "--e" in capsys.readouterr().err


def test_check_e_bad_grid(params_file, capsys):
    for grid in ("5", "1e3,5", "3,3,a,1,0,1"):
        assert main(["check-e", "--params", params_file,
                     "--e", "tanh:1,2,1,3,1", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ('error: --grid wants "nx,ny" or '
                                f'"nx,ny,x0,x1,y0,y1", got {grid!r}\n')


def test_check_e_oversized_grid_exit_two_before_allocating(capsys):
    # 10**16 points: rejected before an axis is built, not swept
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    params = os.path.join(root, "tests", "golden", "cli", "params.json")
    assert main(["check-e", "--params", params, "--e", "tanh:1,2,1,3,1",
                 "--grid", "100000000,100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: grid of 100000000x100000000 points "
                            "exceeds the limit of 1000000 points\n")


@pytest.mark.parametrize("e", ["expr:x*y", "expr:x^2*y"])
def test_check_e_overflowing_grid_exit_two(params_file, capsys, e):
    # the bound 1e309 is beyond the float range; finite bounds whose
    # span overflows are measured (next test)
    assert main(["check-e", "--params", params_file, "--e", e,
                 "--grid", "3,3,1e309,-1e308,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: number 1e309 is outside the float range\n"


def test_check_e_grid_whose_span_overflows(params_file, capsys):
    # finite bounds whose span x1 - x0 overflows: the points are
    # 1e308, 0 and -1e308, and x*y is measured on them
    assert main(["check-e", "--params", params_file, "--e", "expr:x*y",
                 "--grid", "3,3,1e308,-1e308,0,1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["grid_size"] == 9
    assert captured.err == ""
    # for x^2*y, E_y = x^2 overflows at the first point
    assert main(["check-e", "--params", params_file, "--e", "expr:x^2*y",
                 "--grid", "3,3,1e308,-1e308,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: candidate is singular at grid point "
                            "(x=1e+308, y=0.0)\n")


def test_bad_descriptor_position(params_file, capsys):
    assert main(["closure", "--params", params_file,
                 "--e", "expr:x*+y"]) == 2
    assert "position 2" in capsys.readouterr().err


def test_homology_identity(capsys):
    assert main(["homology", "--c", "identity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti"] == [1, 6, 14, 14, 14, 14, 6, 1]
    assert report["heisenberg"] is True
    assert report["euler"] == 0


def test_homology_from_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[[1,2,0],[0,1,0],[0,0,3]]")
    assert main(["homology", "--c", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["betti"][0] == 1
    assert report["betti"][1] == 6
    assert report["heisenberg"] is True  # rank 3: h_7 in another basis
    assert report["c"][0][1] == "2"


@pytest.mark.parametrize("text,message", [
    ("[[1,2],[0,1]]", "structure matrix must be 3x3"),
    ("5", "structure matrix must be 3x3"),
    ('{"c": null}', "structure matrix must be 3x3"),
    ('["123", [4,5,6], [7,8,9]]', "structure matrix must be 3x3"),
    ("[[1,2,3],[4,5,6],[7,8,[1]]]",
     "structure matrix entry must be a finite number"),
    ('[[1,2,3],[4,5,6],[7,8,"1/0"]]',
     "structure matrix entry must be a finite number"),
    ('[["1/2",0,0],[0,1,0],[0,0,1]]',
     "structure matrix entry must be a finite number"),
    ('[[1,0,0],[0," 3 ",0],[0,0,1]]',
     "structure matrix entry must be a finite number"),
    ("[[1,0,0],[0,1,0],[0,0,true]]",
     "structure matrix entry must be a finite number"),
], ids=["2x2", "scalar", "null", "string_row", "nested_entry",
        "zero_denominator", "string_fraction", "string_padded", "bool"])
def test_homology_bad_matrix(tmp_path, capsys, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["homology", "--c", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_simulate_csv_shape(params_file, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--init", "0.2,0.3,0.1", "--steps", "100",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 102


def test_simulate_steps_beyond_the_limit_exit_two(params_file, capsys):
    assert main(["simulate", "--params", params_file, "--e",
                 "tanh:1,2,1,3,1", "--steps", "1000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: 1000001 steps exceed the limit of 1000000\n"


def test_simulate_stdout_and_ctrl(params_file, tmp_path, capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text("[[0, 1, 0, 0], [0.5, 0, 0, 1]]")
    code = main(["simulate", "--params", params_file, "--e", "expr:x*y",
                 "--steps", "10", "--ctrl", str(ctrl)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 12


def test_simulate_out_file_and_stdout_agree(params_file, tmp_path, capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text("[[0, 1, 0, -0.5], [0.013, 0, 0.5, 0], [0.03, -1, 0, 1]]")
    argv = ["simulate", "--params", params_file, "--e", "tanh:1,2,1,3,1",
            "--init=0.3,-0.2,0.5", "--dt", "0.001", "--steps", "60",
            "--ctrl", str(ctrl)]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "traj.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed
    assert printed.count(b"\n") == 62


def test_simulate_e_with_thousands_of_terms(params_file, capsys):
    # (x+y+1)^80 has 3321 terms: more than one chained + can compile
    assert main(["simulate", "--params", params_file,
                 "--e", "expr:(x+y+1)^80", "--steps", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_simulate_bad_init(params_file, capsys):
    for init in ("1,2", "a,0,0", "0,0,0,0"):
        assert main(["simulate", "--params", params_file, "--e", "expr:0",
                     "--init=" + init]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'error: --init wants "x,y,z", got {init!r}\n'


def test_simulate_bad_ctrl(params_file, tmp_path, capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text('{"entries": 5}')
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--ctrl", str(ctrl)]) == 2


def test_simulate_truncated_ctrl_names_the_file(params_file, tmp_path,
                                                capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text("[[0, 1, 0, 0],\n")
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--ctrl", str(ctrl)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: control file is not valid JSON")
    assert captured.err.count("\n") == 1


_BAD_ENTRY = "error: each control entry is [t, u1, u2, u3] of finite numbers"


@pytest.mark.parametrize("text, err", [
    pytest.param(text, err, id=text) for text, err in (
        ("[5]", _BAD_ENTRY),
        ('[[0, "nan", 0, 0]]', _BAD_ENTRY),
        # a float literal beyond the float range is refused when read
        ("[[0, 1e400, 0, 0]]",
         "error: number 1e400 is outside the float range\n"),
    )])
def test_simulate_bad_ctrl_entries_exit_two(params_file, tmp_path, capsys,
                                            text, err):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(text)
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--ctrl", str(ctrl)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(err)
    assert captured.err.count("\n") == 1


def test_check_e_math_domain_error_names_grid_point(params_file, capsys):
    # x*y overflows to inf and sin(inf) is a math domain error
    assert main(["check-e", "--params", params_file, "--e", "expr:sin(x*y)",
                 "--grid", "1,1,1e200,1e200,1e200,1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: candidate is singular at grid point "
                            "(x=1e+200, y=1e+200)\n")


def test_bracket_report(params_file, tmp_path):
    out = tmp_path / "bracket.json"
    assert main(["bracket", "--params", params_file,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["b"] == ["-2", "1/2", "0"]
    assert report["delta"]["11"] == "E_yy - 4*E_xy + 4*E_xx"
    # third component of [f0, f_k] is -gamma_2k * beta32
    assert report["y"]["3"][2] == "-1"
    assert report["y"]["1"][2] == "1"


_USAGE = ("usage: liehouse [-h] "
          "{validate,bracket,closure,check-e,homology,simulate} ...\n")
_COMMANDS = ("validate", "bracket", "closure", "check-e", "homology",
             "simulate")


def _exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as err:
        parse(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


def test_unknown_command_is_usage_error(capsys):
    code, out, err = _exit_and_output(main, ["frobnicate"], capsys)
    assert code == 2
    assert out == ""
    # later 3.13 releases print the choices without quotes
    choices = ", ".join(_COMMANDS)
    assert err in (_USAGE + "liehouse: error: argument command: invalid "
                   f"choice: 'frobnicate' (choose from {listed})\n"
                   for listed in (choices, ", ".join(map(repr, _COMMANDS))))


def test_no_command_and_top_level_help_keep_their_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_and_output(main, [], capsys) == (2, "", _USAGE + (
        "liehouse: error: the following arguments are required: "
        "command\n"))
    code, out, err = _exit_and_output(main, ["-h"], capsys)
    assert (code, err) == (0, "")
    assert out == _USAGE + """
Bracket structure, evapotranspiration candidates, and homology for the
greenhouse climate model.

positional arguments:
  {validate,bracket,closure,check-e,homology,simulate}
    validate            check parameter signs
    bracket             fields and raw brackets
    closure             full closure scan
    check-e             measure an E candidate on a grid
    homology            Betti numbers of the span algebra
    simulate            fixed-step trajectory CSV

options:
  -h, --help            show this help message and exit
"""


@pytest.mark.parametrize("command", _COMMANDS)
def test_one_command_parser_answers_like_the_full_parser(command, capsys,
                                                         monkeypatch):
    # main builds only the named command's parser; its help, usage and
    # error bytes must be those of the parser holding all six
    monkeypatch.setenv("COLUMNS", "80")
    full = liehouse.cli.build_parser().parse_args
    cases = [([command, "-h"], 0), ([command, "--bogus", "1"], 2),
             ([command, "--out"], 2), ([command, "--seed", "x"], 2),
             ([command, "extra"], 2), ([command, "homology"], 2),
             ([command, "--params", "p.json", "extra"], 2)]
    if command in ("closure", "check-e"):
        cases.append(([command, "--cross", "nope"], 2))
    if command == "simulate":
        cases.append(([command, "--steps", "1.5"], 2))
    for argv, expected in cases:
        ours = _exit_and_output(main, argv, capsys)
        assert ours == _exit_and_output(full, argv, capsys), argv
        code, out, err = ours
        assert code == expected, argv
        if code == 0:
            assert out.startswith(f"usage: liehouse {command} [-h]")
            assert err == ""
        else:
            assert out == ""
            assert err.startswith("usage: liehouse ")
            assert ": error: " in err.splitlines()[-1]


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    monkeypatch.setattr(liehouse.cli, "_PARSERS", {})
    assert main(["homology"]) == 0
    assert built == ["homology"]
    # a second call reuses the parser
    assert main(["homology"]) == 0
    assert built == ["homology"]
    capsys.readouterr()


def test_build_parser_returns_a_new_parser_each_call():
    for command in (None, "homology"):
        assert (liehouse.cli.build_parser(command)
                is not liehouse.cli.build_parser(command))


def test_reused_parser_keeps_no_option_of_an_earlier_call(params_file,
                                                          capsys):
    check_e = ["check-e", "--params", params_file, "--e", "tanh:1,2,1,3,1",
               "--grid", "2,2"]
    assert main(check_e + ["--tol", "0.5"]) == 1
    assert json.loads(capsys.readouterr().out)["tol"] == 0.5
    assert main(check_e) == 1
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-09
    simulate = ["simulate", "--params", params_file, "--e", "expr:x*y"]
    assert main(simulate + ["--steps", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 4
    assert main(simulate) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 101


@pytest.mark.parametrize("command", [None, "closure"])
def test_reused_parser_help_follows_columns(command, capsys, monkeypatch):
    # argparse reads COLUMNS when it formats help, not when it builds
    argv = [command, "-h"] if command else ["-h"]
    monkeypatch.setattr(liehouse.cli, "_PARSERS", {})
    helps = []
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        ours = _exit_and_output(main, argv, capsys)
        fresh = liehouse.cli.build_parser(command).parse_args
        assert ours == _exit_and_output(fresh, argv, capsys)
        helps.append(ours[1])
    assert len(liehouse.cli._PARSERS) == 1
    assert helps[0] != helps[1]
    assert max(map(len, helps[0].splitlines())) <= 80
    assert max(map(len, helps[1].splitlines())) > 80


def test_parser_memo_holds_at_most_seven_parsers(capsys, monkeypatch):
    monkeypatch.setattr(liehouse.cli, "_PARSERS", {})
    for k in range(50):
        assert _exit_and_output(main, [f"word{k}"], capsys)[0] == 2
    for command in _COMMANDS:
        assert _exit_and_output(main, [command, "-h"], capsys)[0] == 0
    for argv in ([], ["-h"], ["--bogus"]):
        _exit_and_output(main, argv, capsys)
    assert set(liehouse.cli._PARSERS) == {None, *_COMMANDS}


@pytest.mark.parametrize("command,descriptor", [
    ("simulate", "expr:E"),
    ("closure", "expr:z"),
    ("closure", "expr:x*E_x"),
    ("check-e", "char:1,2:E;x"),
])
def test_e_outside_x_y_and_parameters_exit_two(params_file, capsys,
                                               command, descriptor):
    assert main([command, "--params", params_file, "--e", descriptor]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: E may depend on x, y and parameters")
    assert err.count("\n") == 1


def test_sampling_failure_exit_two(params_file, capsys):
    # exp(1000 + x) overflows at every sample point
    assert main(["closure", "--params", params_file,
                 "--e", "expr:exp(1000+x)"]) == 2
    err = capsys.readouterr().err
    assert err == "error: could not find enough finite sample points\n"


def test_underflow_never_proves_lambda_zero(params_file, capsys):
    # exp(x)^100000 underflows to 0.0 at most sample points; such points
    # once counted as witnesses and made every Lambda read zero
    code = main(["closure", "--params", params_file,
                 "--e", "expr:exp(x)^100000"])
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1
    else:
        assert json.loads(out)["lambda_zero"] is False


@pytest.mark.parametrize("extra", [
    ["simulate", "--e", "expr:x", "--dt", "nan"],
    ["simulate", "--e", "expr:x", "--dt", "inf"],
    ["simulate", "--e", "expr:x", "--init=0.1,-0.2,nan"],
    ["simulate", "--e", "expr:x", "--init", "inf,0,0"],
    ["check-e", "--e", "expr:x*y", "--tol", "inf"],
    ["check-e", "--e", "expr:x*y", "--tol", "nan"],
    ["check-e", "--e", "expr:x*y", "--grid", "2,2,0,nan,0,1"],
    ["check-e", "--e", "expr:x*y", "--grid", "2,2,0,1,-inf,1"],
    ["check-e", "--e", "expr:x*y", "--tol", "-1"],
    ["check-e", "--e", "expr:x*y", "--tol", "0"],
    # and the other malformed inputs that reach no report
    ["closure", "--e", "tanh:1,2,x,3,1"],
    ["closure", "--e", "char:1,2"],
    ["closure", "--e", "char:a,b:x;x"],
    ["closure", "--e", "char:1,2,3,diag:x;x;x"],
    ["simulate"],
    ["check-e", "--e", "expr:x*y", "--grid", "0,3"],
])
def test_non_finite_floats_exit_two(params_file, capsys, extra):
    argv = extra[:1] + ["--params", params_file] + extra[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_mode_flag_is_gone(params_file):
    with pytest.raises(SystemExit) as err:
        main(["closure", "--params", params_file, "--e", "expr:x*y",
              "--mode", "numeric"])
    assert err.value.code == 2


_BETA = GOOD["beta"]


@pytest.mark.parametrize("data,message", [
    ({"alpha": 5, "beta": {}, "gamma": []}, "alpha needs exactly 3"),
    ({"alpha": [1, 2], "beta": _BETA, "gamma": GOOD["gamma"]},
     "alpha needs exactly 3"),
    ({"alpha": [1, 2, [3]], "beta": _BETA, "gamma": GOOD["gamma"]},
     "alpha entry must be a finite number"),
    ({"alpha": [1, 2, 3], "beta": [1, 2], "gamma": GOOD["gamma"]},
     "beta must map"),
    ({"alpha": [1, 2, 3], "beta": dict(_BETA, b33=None),
      "gamma": GOOD["gamma"]}, "beta entry b33 must be a finite number"),
    ({"alpha": [1, 2, 3], "beta": _BETA, "gamma": [1, 2]},
     "gamma must be a 2x3 table"),
    ({"alpha": [1, 2, 3], "beta": _BETA, "gamma": [[1, 2, 3], 4]},
     "gamma must be a 2x3 table"),
    ({"alpha": [1, 2, 3], "beta": _BETA, "gamma": [[1, 2, 3], {"a": 1}]},
     "gamma must be a 2x3 table"),
    ([1, 2, 3], "must hold a JSON object"),
    ({"alpha": ["1/2", 2, 3], "beta": _BETA, "gamma": GOOD["gamma"]},
     "alpha entry must be a finite number"),
    ({"alpha": [1, 2, 3], "beta": dict(_BETA, b12=" 3 "),
      "gamma": GOOD["gamma"]}, "beta entry b12 must be a finite number"),
    ({"alpha": [1, 2, 3], "beta": _BETA, "gamma": [[2, 1, True], [-1, -2, 1]]},
     "gamma entry must be a finite number"),
])
def test_params_shapes_exit_two(tmp_path, capsys, data, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--params", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_params_infinity_exit_two(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(GOOD).replace("1.5", "Infinity", 1))
    assert main(["validate", "--params", str(path)]) == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_nan_in_a_report_exit_two(params_file, capsys, monkeypatch):
    monkeypatch.setattr(liehouse.cli, "validate_params",
                        lambda p: [float("nan")])
    assert main(["validate", "--params", params_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Out of range float values")


def test_check_e_and_simulate_leave_numpy_unloaded(params_file, tmp_path):
    # every subcommand runs with numpy made unimportable, and with
    # dataclasses, inspect and typing too: the package imports none of
    # them (they are blocked, not looked up in sys.modules, because site
    # start-up may already have loaded typing)
    out = str(tmp_path / "out")
    script = (
        "import sys\n"
        "for name in ('numpy', 'dataclasses', 'inspect', 'typing'):\n"
        "    sys.modules[name] = None\n"
        "from liehouse.cli import main\n"
        f"p, o = {params_file!r}, {out!r}\n"
        "assert main(['check-e', '--params', p, '--e', 'tanh:1,2,1,3,1',"
        " '--out', o]) == 1\n"
        "assert main(['simulate', '--params', p, '--e', 'tanh:1,2,1,3,1',"
        " '--steps', '20', '--out', o]) == 0\n"
        "assert main(['closure', '--params', p, '--e', 'tanh:1,2,1,3,1',"
        " '--out', o]) == 1\n"
        "assert main(['bracket', '--params', p, '--out', o]) == 0\n"
        "assert main(['homology', '--out', o]) == 0\n"
        "assert main(['validate', '--params', p, '--out', o]) == 0\n"
        "print('done')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "done\n"


@pytest.mark.parametrize("expr,message", [
    ("0^-1", "position 4: division by zero"),
    ("(x-x)^-2", "position 8: division by zero"),
    ("tanh(0^-1)", "position 9: division by zero"),
    ("(" * 400 + "x" + ")" * 400,
     "position 100: nesting deeper than 100 levels"),
], ids=["zero_power", "zero_sum_power", "zero_power_in_tanh", "nested_400"])
def test_bad_expression_exit_two_with_one_line(params_file, capsys, expr,
                                               message):
    assert main(["closure", "--params", params_file,
                 "--e", "expr:" + expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_shape_error_names_the_same_atom_under_any_hash_seed():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = [sys.executable, "-m", "liehouse.cli", "closure", "--params",
            os.path.join(root, "tests", "golden", "cli", "params.json"),
            "--e", "char:1,2:y*z;x"]
    for seed in ("0", "5", "11", "12"):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONHASHSEED=seed)
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 2
        assert done.stderr == "error: shapes are unary (in x); found y\n"


# -- number literals beyond the float range --------------------------------

@pytest.mark.parametrize("literal", [
    "1e99999999", "1e-99999999", "-1E+99999999", "1e400", "1e-400",
    "2e-324", "1" + "0" * 400])
@pytest.mark.parametrize("command", ["validate", "homology"])
def test_literal_beyond_float_range_exit_two_at_once(tmp_path, capsys,
                                                    command, literal):
    # Fraction("1e99999999") alone would build 10**99999999
    path = tmp_path / "in.json"
    if command == "validate":
        path.write_text(json.dumps(GOOD).replace("1.5", literal, 1))
        argv = ["validate", "--params", str(path)]
    else:
        path.write_text(f"[[{literal}, 0, 0], [0, 1, 0], [0, 0, 1]]")
        argv = ["homology", "--c", str(path)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: number {literal} is outside the float range\n"


@pytest.mark.parametrize("literal", ["1" * 5000, "-" + "9" * 400],
                         ids=["5000-digits", "minus-400-digits"])
def test_ctrl_integer_beyond_float_range_exit_two_at_once(
        params_file, tmp_path, capsys, literal):
    # a control file's integer literals obey the parameter files' rule: a
    # 5000-digit one used to reach int()'s digit limit
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(f"[[0, {literal}, 0, 0]]")
    start = time.perf_counter()
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--ctrl", str(ctrl)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: number {literal} is outside the float range\n"


@pytest.mark.parametrize("literal", ["1e-400", "-2e-324", "1e400",
                                     "-1E+99999999"])
def test_ctrl_float_beyond_float_range_exit_two(params_file, tmp_path,
                                                capsys, literal):
    # a control file's float literals obey the same rule: 1e-400 used to
    # be read as a control of 0.0, and 1e400 as inf
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(f"[[0, {literal}, 0, 0]]")
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--ctrl", str(ctrl)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: number {literal} is outside the float range\n"


def test_ctrl_floats_in_float_range_keep_their_values(params_file,
                                                      tmp_path, capsys):
    # zeros with any exponent, tiny normals and subnormals are in range
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text("[[0, 0e-999, -0.0, 5e-324], [1e-300, 1.5, 2E3, -0]]")
    assert liehouse.cli._load_ctrl(str(ctrl)).entries == (
        (0.0, 0.0, -0.0, 5e-324), (1e-300, 1.5, 2000.0, 0.0))
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--steps", "2", "--ctrl", str(ctrl)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, literal", [
    (["simulate", "--e", "expr:0", "--init=1e-400,0,0"], "1e-400"),
    (["simulate", "--e", "expr:0", "--init=0,-1e309,0"], "-1e309"),
    (["check-e", "--e", "expr:x*y", "--grid", "2,2,1e-400,1,0,1"],
     "1e-400"),
    (["check-e", "--e", "expr:x*y", "--grid", "2,2,0,1,0,2e-999"],
     "2e-999"),
])
def test_option_float_beyond_float_range_exit_two(params_file, capsys, argv,
                                                  literal):
    # --init and the --grid bounds follow the rule too: 1e-400 used to
    # be read as 0.0
    assert main(argv[:1] + ["--params", params_file] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: number {literal} is outside the float range\n"


def test_option_floats_with_spaces_and_zeros_are_read(params_file, capsys):
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--steps", "1", "--init= 0, -0e-999 ,0.0 "]) == 0
    assert main(["check-e", "--params", params_file, "--e", "expr:x*y",
                 "--grid", "2,2, 0e-400,1,0 ,1"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("e", ["expr:" + "1" * 5000 + "*x",
                               "expr:x*1." + "1" * 5000],
                         ids=["5000-digit-integer", "5000-digit-decimal"])
def test_expr_literal_beyond_the_digit_limit_exit_two(params_file, capsys,
                                                      e):
    # refused by the parser with a position, not by int()'s digit limit
    assert main(["closure", "--params", params_file, "--e", e]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: position ")
    assert "set_int_max_str_digits" not in captured.err


def test_ctrl_integers_in_float_range_keep_their_text(params_file,
                                                      tmp_path, capsys):
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text("[[0, 1, -2]]")
    assert main(["simulate", "--params", params_file, "--e", "expr:0",
                 "--ctrl", str(ctrl)]) == 2
    assert capsys.readouterr().err == (
        "error: each control entry is [t, u1, u2, u3] of finite numbers, "
        "got [0, 1, -2]\n")


@pytest.mark.parametrize("literal", [
    "1e99999999", "1e99999", "-1e-99999999", "1" + "0" * 400])
def test_tanh_constant_beyond_float_range_exit_two_at_once(
        params_file, capsys, literal):
    # a tanh constant is read by the same rule as a JSON number
    start = time.perf_counter()
    assert main(["bracket", "--params", params_file,
                 "--e", f"tanh:{literal},2,1,3,1"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad tanh descriptor field: "
                            f"number {literal} is outside the float range\n")


@pytest.mark.parametrize("literal", [
    "1" * 5000 + "/3", "1" * 400 + "/3", "3/" + "1" * 400,
    "-" + "9" * 309 + "/7"])
def test_tanh_p_over_q_beyond_float_range_exit_two_at_once(
        params_file, capsys, literal):
    # each side of p/q obeys the float-range rule: a 5000-digit side used
    # to reach int()'s digit limit, and a 400-digit one was accepted
    start = time.perf_counter()
    assert main(["closure", "--params", params_file,
                 "--e", f"tanh:{literal},2,1,3,1"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: bad tanh descriptor field: "
                            f"number {literal} is outside the float range\n")


@pytest.mark.parametrize("field,value", [
    ("1/3", Fraction(1, 3)), ("-2", Fraction(-2)), ("0.5", Fraction(1, 2)),
    ("1e5", Fraction(10 ** 5)), ("0e-99999999", Fraction(0))])
def test_tanh_constant_in_float_range_keeps_its_exact_value(field, value):
    p = model.demo_params()
    assert descriptor_to_expr(p, f"tanh:1,2,{field},3,1") == \
        e_tanh(p, 1, 2, value, 3, 1)


@pytest.mark.parametrize("literal,value", [
    ("0.1", Fraction(1, 10)), ("-0.0", Fraction(0)),
    ("0e-99999999", Fraction(0)), ("0.000e99999999", Fraction(0)),
    ("5e-324", Fraction(5, 10 ** 324)), ("2.5e-310", Fraction(25, 10 ** 311)),
    ("1.7976931348623157e308", Fraction(17976931348623157) * 10 ** 292),
    ("123456789012345678901234567890",
     Fraction(123456789012345678901234567890)),
    ("-7", Fraction(-7)), ("3E+2", Fraction(300))])
def test_literal_in_float_range_keeps_its_exact_value(literal, value):
    c = StructureMatrix.from_json(f"[[{literal}, 0, 0], [0, 1, 0], [0, 0, 1]]")
    assert c.entry(1, 1) == value
    text = json.dumps(GOOD).replace("1.5", literal, 1)
    assert Params.from_json(text).alpha2 == value


# -- one sign check per call -------------------------------------------------

_GOLDEN_PARAMS = str(Path(__file__).parent / "golden" / "cli" / "params.json")


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["bracket", "--e", "tanh:1,2,1,3,1"],
    ["closure", "--e", "char:1,2,diag:tanh(x);x^2"],
    ["check-e", "--e", "tanh:1,2,1,3,1", "--grid", "3,3"],
    ["simulate", "--e", "tanh:1,2,1,3,1", "--steps", "3"],
], ids=lambda argv: argv[0])
def test_each_command_checks_the_signs_once(argv, monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    real = model.validate_params
    monkeypatch.setattr(model, "validate_params", counted)
    monkeypatch.setattr(liehouse.cli, "validate_params", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv + ["--params", _GOLDEN_PARAMS])
    assert len(calls) == 1


_FIELDS = {"alpha1", "alpha2", "alpha3", "beta11", "beta12", "beta13",
           "beta22", "beta22p", "beta32", "beta33", "gamma"}


@pytest.mark.parametrize("run", [
    lambda p, e: ClosureEngine(p, e),
    lambda p, e: check_closure(p, e),
    lambda p, e: verify_candidate(p, e, grid=make_grid(3, 3, 0.1, 0.9,
                                                       0.1, 0.9)),
    lambda p, e: simulate(p, e, ControlSchedule.zero(), (0.0, 0.0, 0.0),
                          0.01, 2),
], ids=["engine", "check_closure", "verify_candidate", "simulate"])
def test_params_stay_a_plain_value(run):
    # the sign check leaves no mark on p: it still holds just its
    # fields and rebuilds into an equal instance
    p = Params.from_file(_GOLDEN_PARAMS)
    run(p, descriptor_to_expr(p, "tanh:1,2,1,3,1"))
    assert set(vars(p)) == _FIELDS
    assert Params(**vars(p)) == p


# each E's error names the denominator that is zero; the second one is
# zero only once gamma11 = 2 is substituted
_ZERO_DENOMINATORS = {"tanh:0,0,1,0,1": "C4 + C3 tanh(C1)",
                      "expr:x/(gamma11-2)": "gamma11"}


@pytest.mark.parametrize("descriptor", list(_ZERO_DENOMINATORS))
@pytest.mark.parametrize("command", ["bracket", "closure", "check-e",
                                     "simulate"])
def test_e_that_divides_by_zero_exit_two(command, descriptor, capsys):
    assert main([command, "--params", _GOLDEN_PARAMS, "--e", descriptor]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert _ZERO_DENOMINATORS[descriptor] in captured.err


def test_diagonal_term_refuses_a_zero_gamma(tmp_path, capsys):
    # the descriptor is read before the sign check, so its own guard
    # must keep x^2 / (2 gamma_11 gamma_12) from dividing by zero
    data = json.loads(json.dumps(GOOD))
    data["gamma"][0][0] = 0
    path = tmp_path / "zero_gamma.json"
    path.write_text(json.dumps(data))
    assert main(["closure", "--params", str(path),
                 "--e", "char:1,2,diag:x^2;x^2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "gamma" in captured.err


@pytest.mark.parametrize("argv", [
    ["closure", "--e", "tanh:1,2,1,3,1"],
    ["simulate", "--e", "tanh:1,2,1,3,1", "--steps", "3"],
], ids=lambda argv: argv[0])
def test_cli_params_stay_a_plain_value(argv, monkeypatch):
    seen = []
    real = Params.from_file.__func__

    def capture(cls, path):
        seen.append(real(cls, path))
        return seen[-1]

    monkeypatch.setattr(Params, "from_file", classmethod(capture))
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv + ["--params", _GOLDEN_PARAMS])
    [p] = seen
    assert set(vars(p)) == _FIELDS
    assert Params(**vars(p)) == p


@pytest.mark.parametrize("command", ["check-e", "simulate"])
def test_oversized_coefficient_is_not_a_pole(command, capsys):
    # 2 10^400 gamma11^2 in Delta_11 (and 10^400 beta12 in f0) has no
    # float: the program refuses it when built, so check-e names no
    # singular grid point and simulate writes no row
    argv = [command, "--params", _GOLDEN_PARAMS, "--e", "expr:10^400*x^2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "outside the float range" in captured.err
    assert "singular" not in captured.err


@pytest.mark.parametrize("command", ["validate", "bracket"])
def test_commands_that_draw_nothing_take_no_seed(command, capsys):
    argv = [command, "--params", _GOLDEN_PARAMS]
    assert main(argv) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)
    with pytest.raises(SystemExit) as err:
        main(argv + ["--seed", "1"])
    assert err.value.code == 2


def test_simulate_reports_a_bad_dt_before_the_signs(bad_params_file, capsys):
    # the run arguments are checked before build_fields checks the signs
    assert main(["simulate", "--params", bad_params_file, "--e", "expr:x*y",
                 "--dt", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "dt must be positive" in err
