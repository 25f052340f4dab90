"""Command-line front door.

Subcommands: validate, bracket, closure, check-e, homology, simulate.
Reports are JSON (CSV for simulate) with sorted keys, written to --out
or stdout.  validate and bracket draw no random number and take no
--seed; the JSON reports of closure, check-e and homology embed theirs.
Every JSON report where Delta enters embeds the cross_variant in use;
the simulate CSV carries neither.  Identical arguments give identical
output bytes.

A process builds the parser of each subcommand it is called with once,
and no other, and reuses it on later calls; each has the full parser's
help, usage and error bytes (see build_parser).

Exit codes: 0 success, 1 verification failure (closure constants not
constant, check-e conditions not met, validate violations), 2 input
error (missing or malformed files, bad expressions or descriptors, an E
with atoms other than x, y and parameters, an E that divides by zero,
inadmissible parameters outside validate, non-finite --dt or --tol,
--grid or --init values or control-file numbers outside the float range
(model._in_float_range), a --grid of more than evapo.MAX_GRID_POINTS
points, --steps above model.MAX_STEPS, an E whose check-e conditions
or simulate drift carry a coefficient beyond the float range, singular
candidates, zero tests without a finite sample point).  A check-e
report exits 1 at every --tol below 1/3: c has rank at most 2, so it is
nowhere within 1/3 of the identity.

bracket prints the fields, Y_k = [f0, f_k] and Delta_ij (bracket_1) as
the closure engine derives them, directional derivatives of E; the
canonical form makes them the same expressions as the literal brackets
read back along B.
"""

from __future__ import annotations

import argparse
import json
import sys

from .closure import CROSS_VARIANTS, ClosureEngine, check_closure
from .evapo import (
    _GRID_BOUNDS, descriptor_to_expr, make_grid, verify_candidate,
)
from .homology import StructureMatrix, homology_report
from .model import (
    ControlSchedule, Params, _in_float_range, simulate, validate_params,
)
from .symbolic import SymbolicError, to_text


def _emit_json(report: dict, out: str | None) -> None:
    # a NaN or an infinity is an error (exit 2), never a report value
    text = json.dumps(report, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_grid(text: str | None):
    if text is None:
        return None  # verify_candidate measures default_grid()
    parts = text.split(",")
    try:
        if len(parts) not in (2, 6):
            raise ValueError
        nx, ny = int(parts[0]), int(parts[1])
        bounds = [float(s) for s in parts[2:]] or _GRID_BOUNDS
    except ValueError:
        raise ValueError('--grid wants "nx,ny" or "nx,ny,x0,x1,y0,y1", '
                         f'got {text!r}') from None
    for s in parts[2:]:
        _in_float_range(s, s)  # refused as in a parameter file
    return make_grid(nx, ny, *bounds)


def _parse_init(text: str):
    parts = text.split(",")
    try:
        x, y, z = (float(s) for s in parts)
    except ValueError:
        raise ValueError(f'--init wants "x,y,z", got {text!r}') from None
    for s in parts:
        _in_float_range(s, s)  # refused as in a parameter file
    return x, y, z


def _ctrl_number(text: str) -> int | float:
    # every literal is refused as in a parameter file; an int stays an int
    value = _in_float_range(text, text)
    return int(text) if text.lstrip("-").isdigit() else value


def _load_ctrl(path: str | None) -> ControlSchedule:
    if path is None:
        return ControlSchedule.zero()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_float=_ctrl_number,
                             parse_int=_ctrl_number)
        except json.JSONDecodeError as err:
            raise ValueError(f"control file is not valid JSON: {err}")
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list):
        raise ValueError(
            "control file wants a list of [t, u1, u2, u3] entries")
    return ControlSchedule(tuple(data))


def _cmd_validate(args: argparse.Namespace) -> int:
    p = Params.from_file(args.params)
    violations = validate_params(p)
    _emit_json({
        "command": "validate",
        "violations": violations,
        "valid": not violations,
    }, args.out)
    return 0 if not violations else 1


def _cmd_bracket(args: argparse.Namespace) -> int:
    p = Params.from_file(args.params)
    e = descriptor_to_expr(p, args.e) if args.e else None
    engine = ClosureEngine(p, e)

    def field_text(f):
        return [to_text(c) for c in f.components()]

    report = {
        "command": "bracket",
        "f0": field_text(engine.f0),
        "controls": {str(i): field_text(engine.control(i))
                     for i in (1, 2, 3)},
        "b": field_text(engine.b),
        "y": {str(k): field_text(engine.y(k)) for k in (1, 2, 3)},
        "delta": {f"{i}{j}": to_text(engine.delta(i, j))
                  for i in (1, 2, 3) for j in (1, 2, 3)},
        "cross_variant": "bracket_1",
    }
    _emit_json(report, args.out)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    p = Params.from_file(args.params)
    e = descriptor_to_expr(p, args.e) if args.e else None
    report = check_closure(p, e, cross_variant=args.cross,
                           seed=args.seed)
    _emit_json({"command": "closure", **report.to_dict()}, args.out)
    return 0 if all(map(all, report.constant_ok)) else 1


def _cmd_check_e(args: argparse.Namespace) -> int:
    p = Params.from_file(args.params)
    if not args.e:
        raise ValueError("--e is required for check-e")
    e = descriptor_to_expr(p, args.e)
    grid = _parse_grid(args.grid)
    report = verify_candidate(p, e, grid=grid, tol=args.tol,
                              cross_variant=args.cross)
    _emit_json({"command": "check-e", "seed": args.seed, **report.to_dict()},
               args.out)
    return 0 if report.passed else 1


def _cmd_homology(args: argparse.Namespace) -> int:
    if args.c == "identity":
        c = StructureMatrix.identity()
    else:
        with open(args.c, "r", encoding="utf-8") as handle:
            c = StructureMatrix.from_json(handle.read())
    _emit_json({
        "command": "homology",
        "c": [[str(v) for v in row] for row in c.rows],
        "seed": args.seed,
        **homology_report(c),
    }, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    p = Params.from_file(args.params)
    if not args.e:
        raise ValueError("--e is required for simulate")
    e = descriptor_to_expr(p, args.e)
    ctrl = _load_ctrl(args.ctrl)
    init = _parse_init(args.init)
    traj = simulate(p, e, ctrl, init, args.dt, args.steps)
    if args.out is None:
        traj.to_csv(sys.stdout)
    else:
        traj.write_csv(args.out)
    if traj.diverged:
        sys.stderr.write(
            f"warning: trajectory diverged after {len(traj.times) - 1} "
            f"steps; output truncated\n")
    return 0


# Shared options, then each command's handler, summary and options in
# help order.  The order matters: help and usage list options as added.
_PARAMS = ("--params", {"required": True, "help": "JSON parameter file"})
_E = ("--e", {"help": "E descriptor: tanh:C1,C2,C3,C4,i "
                      "| char:i,j[,k][,diag]:<F1>;<F2>[;<F3>] "
                      "| expr:<text>"})
_GRID = ("--grid", {"help": '"nx,ny" or "nx,ny,x0,x1,y0,y1"'})
_CROSS = ("--cross", {"choices": CROSS_VARIANTS, "default": "bracket_1",
                      "help": "mixed-partial coefficient variant of "
                              "Delta_ij"})
_SEED = ("--seed", {"type": int, "default": 0,
                    "help": "recorded in JSON reports; drives the sampled "
                            "zero tests of closure (default 0)"})
_OUT = ("--out", {"help": "output path (default stdout)"})

_COMMANDS = {
    "validate": (_cmd_validate, "check parameter signs",
                 (_PARAMS, _OUT)),
    "bracket": (_cmd_bracket, "fields and raw brackets",
                (_PARAMS, _E, _OUT)),
    "closure": (_cmd_closure, "full closure scan",
                (_PARAMS, _E, _CROSS, _SEED, _OUT)),
    "check-e": (_cmd_check_e, "measure an E candidate on a grid",
                (_PARAMS, _E, _GRID, _CROSS, _SEED, _OUT,
                 ("--tol", {"type": float, "default": 1e-9,
                            "help": "pass tolerance (default 1e-9)"}))),
    "homology": (_cmd_homology, "Betti numbers of the span algebra",
                 (_SEED, _OUT,
                  ("--c", {"default": "identity",
                           "help": '"identity" or a JSON 3x3 matrix '
                                   'file'}))),
    "simulate": (_cmd_simulate, "fixed-step trajectory CSV",
                 (_PARAMS, _E, _SEED, _OUT,
                  ("--init", {"default": "0,0,0",
                              "help": '"x,y,z" start state; write a '
                                      'negative first value as '
                                      '--init=-0.5,0,0'}),
                  ("--dt", {"type": float, "default": 0.01}),
                  ("--steps", {"type": int, "default": 100}),
                  ("--ctrl", {"help": "JSON control schedule "
                                      "[[t,u1,u2,u3], ...] (default: zero "
                                      "controls)"}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When `command` names a subcommand, only
    that subparser and its options are registered: a call parses one
    subcommand, and building all six (each option makes a help
    formatter) cost more than a homology run.  Help, usage and error
    text are the same bytes either way.  Any other `command` builds all
    six.  Each call returns a new parser; main builds each subcommand's
    parser once per process and reuses it."""
    parser = argparse.ArgumentParser(
        prog="liehouse",
        description="Bracket structure, evapotranspiration candidates, "
                    "and homology for the greenhouse climate model.")
    if command in _COMMANDS:
        # the top-level usage line must still list every command; the
        # full parser takes it from its choices, and a metavar there
        # would also rename the "argument command" of its errors
        names = (command,)
        listing = {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    else:
        names, listing = _COMMANDS, {}
    sub = parser.add_subparsers(dest="command", required=True, **listing)
    for name in names:
        handler, summary, options = _COMMANDS[name]
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return parser


# main's parsers, keyed by subcommand, or None for the full parser that
# unknown words, -h and an empty argv share: at most seven entries.  A
# parser holds no state of a call: argparse reads COLUMNS when it
# formats, and each parse_args fills a fresh Namespace with the defaults.
_PARSERS: dict = {}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    key = argv[0] if argv and argv[0] in _COMMANDS else None
    if key not in _PARSERS:
        _PARSERS[key] = build_parser(key)
    args = _PARSERS[key].parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, ZeroDivisionError, SymbolicError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
