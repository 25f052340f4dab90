"""Command-line front door.

Subcommands: validate, bracket, closure, check-e, homology, simulate.
Reports are JSON (CSV for simulate) with sorted keys, written to --out
or stdout.  Every JSON report embeds the seed and, where Delta enters,
the cross_variant in use; the simulate CSV carries neither.  Identical
arguments give identical output bytes.

Exit codes: 0 success, 1 verification failure (closure constants not
constant, check-e conditions not met, validate violations), 2 input
error (missing or malformed files, bad expressions or descriptors, an E
with atoms other than x, y and parameters, inadmissible parameters
outside validate, non-finite --dt, --tol, --grid or --init values,
singular candidates, zero tests without a finite sample point), 3
internal error (a raw bracket printed by bracket left the B line, which
the model structure rules out: ClosureDefectError; closure and check-e
build no bracket and read no scalar off B, so they cannot raise it).
"""

from __future__ import annotations

import argparse
import json
import sys

from .closure import (
    CROSS_VARIANTS, ClosureDefectError, ClosureEngine, check_closure,
)
from .evapo import (
    default_grid, descriptor_to_expr, make_grid, verify_candidate,
)
from .homology import StructureMatrix, build_algebra, homology_report
from .model import (
    ControlSchedule, Params, require_admissible, simulate, validate_params,
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


def _admissible_params(args: argparse.Namespace) -> Params:
    p = Params.from_file(args.params)
    require_admissible(p)
    return p


def _parse_grid(text: str | None):
    if text is None:
        return default_grid()
    parts = [s.strip() for s in text.split(",")]
    if len(parts) == 2:
        nx, ny = int(parts[0]), int(parts[1])
        return make_grid(nx, ny, 0.1, 0.9, 0.1, 0.9)
    if len(parts) == 6:
        nx, ny = int(parts[0]), int(parts[1])
        x0, x1, y0, y1 = (float(s) for s in parts[2:])
        return make_grid(nx, ny, x0, x1, y0, y1)
    raise ValueError('--grid wants "nx,ny" or "nx,ny,x0,x1,y0,y1"')


def _parse_init(text: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise ValueError('--init wants "x,y,z"')
    return tuple(float(s) for s in parts)


def _load_ctrl(path: str | None) -> ControlSchedule:
    if path is None:
        return ControlSchedule.zero()
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
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
        "seed": args.seed,
    }, args.out)
    return 0 if not violations else 1


def _cmd_bracket(args: argparse.Namespace) -> int:
    p = _admissible_params(args)
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
        "y": {str(k): field_text(engine.y_bracket(k)) for k in (1, 2, 3)},
        "delta": {f"{i}{j}": to_text(engine.delta_bracket(i, j))
                  for i in (1, 2, 3) for j in (1, 2, 3)},
        "cross_variant": "bracket_1",
        "seed": args.seed,
    }
    _emit_json(report, args.out)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    p = _admissible_params(args)
    e = descriptor_to_expr(p, args.e) if args.e else None
    report = check_closure(p, e, cross_variant=args.cross,
                           seed=args.seed)
    payload = {"command": "closure"}
    payload.update(report.to_dict())
    _emit_json(payload, args.out)
    all_constant = all(all(row) for row in report.constant_ok)
    return 0 if all_constant else 1


def _cmd_check_e(args: argparse.Namespace) -> int:
    p = _admissible_params(args)
    if not args.e:
        raise ValueError("--e is required for check-e")
    e = descriptor_to_expr(p, args.e)
    grid = _parse_grid(args.grid)
    report = verify_candidate(p, e, grid=grid, tol=args.tol,
                              cross_variant=args.cross, seed=args.seed)
    payload = {"command": "check-e"}
    payload.update(report.to_dict())
    _emit_json(payload, args.out)
    return 0 if report.passed else 1


def _cmd_homology(args: argparse.Namespace) -> int:
    if args.c == "identity":
        c = StructureMatrix.identity()
    else:
        with open(args.c, "r", encoding="utf-8") as handle:
            c = StructureMatrix.from_json(handle.read())
    report = homology_report(build_algebra(c))
    payload = {
        "command": "homology",
        "c": [[str(v) for v in row] for row in c.rows],
        "seed": args.seed,
    }
    payload.update(report)
    _emit_json(payload, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    p = _admissible_params(args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liehouse",
        description="Bracket structure, evapotranspiration candidates, "
                    "and homology for the greenhouse climate model.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, params=True, e=True, grid=False,
                cross=False):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(handler=handler)
        if params:
            sp.add_argument("--params", required=True,
                            help="JSON parameter file")
        if e:
            sp.add_argument("--e", help="E descriptor: tanh:C1,C2,C3,C4,i "
                            "| char:i,j[,k][,diag]:<F1>;<F2>[;<F3>] "
                            "| expr:<text>")
        if grid:
            sp.add_argument("--grid",
                            help='"nx,ny" or "nx,ny,x0,x1,y0,y1"')
        if cross:
            sp.add_argument("--cross", choices=CROSS_VARIANTS,
                            default="bracket_1",
                            help="mixed-partial coefficient variant of "
                            "Delta_ij")
        sp.add_argument("--seed", type=int, default=0,
                        help="recorded in JSON reports; drives the sampled "
                        "zero tests of closure (default 0)")
        sp.add_argument("--out", help="output path (default stdout)")
        return sp

    command("validate", _cmd_validate, "check parameter signs", e=False)
    command("bracket", _cmd_bracket, "fields and raw brackets")
    command("closure", _cmd_closure, "full closure scan", cross=True)

    sp = command("check-e", _cmd_check_e, "measure an E candidate on a grid",
                 grid=True, cross=True)
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="pass tolerance (default 1e-9)")

    sp = command("homology", _cmd_homology,
                 "Betti numbers of the span algebra", params=False, e=False)
    sp.add_argument("--c", default="identity",
                    help='"identity" or a JSON 3x3 matrix file')

    sp = command("simulate", _cmd_simulate, "fixed-step trajectory CSV")
    sp.add_argument("--init", default="0,0,0",
                    help='"x,y,z" start state; write a negative first '
                    'value as --init=-0.5,0,0')
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--ctrl", help="JSON control schedule "
                    "[[t,u1,u2,u3], ...] (default: zero controls)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, SymbolicError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ClosureDefectError as err:
        sys.stderr.write(f"error: internal: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
