"""Golden CLI reports: stdout bytes and exit codes of fixed runs.

The files under tests/golden/cli/ were written by the command line of an
earlier release.  Any change that moves a byte of these reports, or an
exit code, fails here; a deliberate change regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py --regenerate

and says why in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from liehouse.cli import main

HERE = Path(__file__).parent / "golden" / "cli"
PARAMS = str(HERE / "params.json")
EXIT_CODES = HERE / "exit_codes.json"

CASES = {
    "closure_tanh_seed5": [
        "closure", "--params", PARAMS, "--e", "tanh:1,2,1,3,1",
        "--seed", "5"],
    "closure_xy": ["closure", "--params", PARAMS, "--e", "expr:x*y"],
    "closure_cubic": [
        "closure", "--params", PARAMS, "--e", "expr:x^3*y+2*y^2"],
    "closure_char_diag": [
        "closure", "--params", PARAMS, "--e", "char:1,2,diag:tanh(x);x^2"],
    "closure_char3_paper2": [
        "closure", "--params", PARAMS, "--e",
        "char:1,2,3:x^2;exp(x);sin(x)", "--cross", "paper_2"],
    "check_e_tanh_7x9": [
        "check-e", "--params", PARAMS, "--e", "tanh:1,2,1,3,1",
        "--grid", "7,9"],
    "check_e_char_paper2": [
        "check-e", "--params", PARAMS, "--e", "char:1,2,diag:tanh(x);x^2",
        "--cross", "paper_2"],
    "bracket": ["bracket", "--params", PARAMS],
    "bracket_tanh": ["bracket", "--params", PARAMS, "--e", "tanh:1,2,1,3,1"],
    "homology_identity": ["homology"],
    "homology_rank2": ["homology", "--c", str(HERE / "c_rank2.json")],
    "homology_rational": [
        "homology", "--c", str(HERE / "c_rational.json")],
    "simulate_50": [
        "simulate", "--params", PARAMS, "--e", "tanh:1,2,1,3,1",
        "--init=0.3,-0.2,0.5", "--steps", "50",
        "--ctrl", str(HERE / "ctrl.json")],
    "validate": ["validate", "--params", PARAMS],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, text = run_case(CASES[name])
    expected = (HERE / f"{name}.out").read_bytes()
    assert text.encode("utf-8") == expected
    assert code == json.loads(EXIT_CODES.read_text())[name]


def regenerate():
    codes = {}
    for name, argv in sorted(CASES.items()):
        code, text = run_case(argv)
        (HERE / f"{name}.out").write_bytes(text.encode("utf-8"))
        codes[name] = code
    EXIT_CODES.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_reports.py --regenerate")
    regenerate()
