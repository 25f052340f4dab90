"""Evapotranspiration candidates and their measurement against the
closure system.

Two constructive families are provided, each built straight into an
expression.  e_characteristic(p, pairs, diagonal) composes one-variable
shapes with the lines l_i = -gamma_2i x + gamma_1i y that the operators
Delta annihilate, one explicit (shape, line index) pair at a time,
optionally adding the diagonal term x^2 / (2 gamma_1i gamma_1j) whose
Delta_ij is exactly 1.  e_tanh(p, C1, C2, C3, C4, i) is the quotient

    E_i = 1 / (C4 + C3 tanh((C1 g_1i - C2 g_2i x + C2 g_1i y) / g_1i)).

descriptor_to_expr is the one path from descriptor text to E: it parses
the text and calls one of the two.

verify_candidate measures a candidate against the full system

    Delta_ij = 1 (i = j), 0 (i != j);  Delta_ijk = 0;  Lambda_ijk = 0

on a grid and reports residuals.  It never asserts the claim: the tanh
family in particular is a function of its own characteristic line, so
Delta_ii comes out 0 rather than the required 1; the report flags that
tension instead of repairing it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import product

from .closure import ClosureEngine, _INDICES, _check_index
from .model import Params, exact_number
from .parsing import parse
from .symbolic import (
    Expr, add_all, base_atoms, substitute, tanh, var, _Lowering, _PARAM,
    _VAR,
)


class PoleError(ValueError):
    """The candidate E (or a derivative) is singular on the grid."""


def e_tanh(p: Params, c1, c2, c3, c4, i: int) -> Expr:
    """The tanh quotient candidate attached to channel i.  C3 and C4
    may not both vanish, nor C1, C2 and C4 all (either way the
    denominator is 0), and gamma_1i must be nonzero (it divides the
    argument); the result is constant along the i-th line."""
    _check_index(i)
    c1, c2, c3, c4 = map(Fraction, (c1, c2, c3, c4))
    if c3 == 0 and c4 == 0:
        raise ValueError("C3 and C4 cannot both vanish")
    if c1 == 0 and c2 == 0 and c4 == 0:
        raise ValueError("C1, C2 and C4 cannot all vanish: "
                         "the denominator C4 + C3 tanh(C1) is then 0")
    g1 = p.gamma_entry(1, i)
    if g1 == 0:
        raise ValueError(f"gamma_1{i} must be nonzero")
    return 1 / (c4 + c3 * tanh(c1 + c2 * characteristic_line(p, i) / g1))


def characteristic_line(p: Params, idx: int) -> Expr:
    """-gamma_2idx x + gamma_1idx y, annihilated by the idx-th
    directional operator."""
    _check_index(idx)
    g1, g2 = p.gamma_entry(1, idx), p.gamma_entry(2, idx)
    return -g2 * var("x") + g1 * var("y")


def e_characteristic(p: Params, pairs: Sequence,
                     diagonal: tuple | None = None) -> Expr:
    """The sum of each shape composed with its characteristic line.

    pairs holds (shape, line index) pairs; a shape is an expression in
    the single formal variable x, which composition replaces by the
    line.  diagonal, the (i, j) of a two-shape family, adds
    x^2 / (2 gamma_1i gamma_1j), whose Delta_ij is exactly 1; gamma_1i
    and gamma_1j must then be nonzero.
    """
    _check_index(*(idx for _, idx in pairs))
    if diagonal is not None:
        _check_index(*diagonal)
        if len(pairs) != 2:
            raise ValueError("diagonal_term belongs to the two-shape family")
        for i in diagonal:
            if p.gamma_entry(1, i) == 0:  # it divides the diagonal term
                raise ValueError(f"gamma_1{i} must be nonzero")
    for shape, _ in pairs:
        for atom in base_atoms(shape):
            if atom.kind == _VAR and atom.data != "x":
                raise ValueError(f"shapes are unary (in x); found {atom!r}")
    x = var("x")
    out = add_all(substitute(shape, {x: characteristic_line(p, idx)})
                  for shape, idx in pairs)
    if diagonal is not None:
        i, j = diagonal
        out = out + x ** 2 / (2 * p.gamma_entry(1, i) * p.gamma_entry(1, j))
    return out


# -- descriptors -------------------------------------------------------

def descriptor_to_expr(p: Params, descriptor: str) -> Expr:
    """The candidate E a descriptor names, in the CLI mini-syntax

        tanh:C1,C2,C3,C4,i                          e_tanh
        char:i,j[,k][,diag]:<F1>;<F2>[;<F3>]        e_characteristic
        expr:<closed form in x, y>

    char pairs F1 with the j-line, F2 with the i-line and F3 with the
    k-line; diag asks for the (i, j) diagonal term.  E is a function of
    x, y and the model parameters only; any other atom (z, E or one of
    its partials) raises ValueError."""
    kind, sep, rest = descriptor.partition(":")
    if not sep:
        raise ValueError(
            f"E descriptor needs a kind prefix (tanh:, char:, expr:), "
            f"got {descriptor!r}")
    if kind == "expr":
        e = parse(rest)
    elif kind == "tanh":
        parts = [s.strip() for s in rest.split(",")]
        if len(parts) != 5:
            raise ValueError(
                "tanh descriptor needs C1,C2,C3,C4,i "
                f"(5 fields, got {len(parts)})")
        try:
            consts = [exact_number(s) for s in parts[:4]]
            idx = int(parts[4])
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad tanh descriptor field: {err}")
        e = e_tanh(p, *consts, idx)
    elif kind == "char":
        head, sep2, funcs = rest.partition(":")
        if not sep2:
            raise ValueError(
                "char descriptor needs an index head and a shape list "
                "separated by ':'")
        head_parts = [s.strip() for s in head.split(",")]
        diagonal = head_parts[-1] == "diag"
        if diagonal:
            head_parts = head_parts[:-1]
        if len(head_parts) not in (2, 3):
            raise ValueError("char descriptor needs indices i,j or i,j,k")
        try:
            idxs = [int(s) for s in head_parts]
        except ValueError as err:
            raise ValueError(f"bad char descriptor index: {err}")
        shapes = [parse(s) for s in funcs.split(";")]
        if len(shapes) != len(idxs):
            raise ValueError(
                f"char descriptor has {len(idxs)} indices but "
                f"{len(shapes)} shapes")
        i, j = idxs[:2]
        e = e_characteristic(p, list(zip(shapes, [j, i, *idxs[2:]])),
                             (i, j) if diagonal else None)
    else:
        raise ValueError(f"unknown E descriptor kind {kind!r}")
    for atom in base_atoms(e):
        if not (atom.kind == _PARAM
                or (atom.kind == _VAR and atom.data in ("x", "y"))):
            raise ValueError(
                f"E may depend on x, y and parameters only; found {atom!r}")
    return e


# -- measurement -------------------------------------------------------

# A grid is materialised point by point before it is measured, and the
# sweep runs at 4.52 M condition evaluations per second (63 per point,
# BENCH_30.json), so 10**6 points take about 14 s.  The largest grid any
# golden, acceptance test or benchmark op measures is 16x60 (960 points).
MAX_GRID_POINTS = 10**6

_GRID_BOUNDS = (0.1, 0.9, 0.1, 0.9)  # default_grid's x0, x1, y0, y1


def _axis(n: int, a: float, b: float) -> list:
    """n points from a to b inclusive, a + (b - a) * t / (n - 1).  Where
    that overflows though the point lies between the finite ends, the
    point is interpolated as a * (1 - s) + b * s instead."""
    if n == 1:
        return [a]
    out = []
    for t in range(n):
        v = a + (b - a) * t / (n - 1)
        if not math.isfinite(v):
            s = t / (n - 1)
            v = a * (1 - s) + b * s
        out.append(v)
    return out


def make_grid(nx: int, ny: int, x0: float, x1: float,
              y0: float, y1: float) -> list:
    """nx by ny uniform grid, inclusive of both ends, of at most
    MAX_GRID_POINTS points."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one point per axis")
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"grid of {nx}x{ny} points exceeds the limit of "
                         f"{MAX_GRID_POINTS} points")
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise ValueError("grid bounds must be finite")
    xs, ys = _axis(nx, x0, x1), _axis(ny, y0, y1)
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("grid coordinates must be finite")
    return [(gx, gy) for gx in xs for gy in ys]


def default_grid() -> list:
    """5x5 over [0.1, 0.9]^2, away from tanh saturation and the usual
    pole locations; a --grid "nx,ny" spans the same bounds."""
    return make_grid(5, 5, *_GRID_BOUNDS)


class ConditionMeasurement:
    """One measured condition: the largest raw magnitude and the largest
    deviation from the target over the grid.  Measurements compare
    equal when every field does."""

    def __init__(self, target: float, max_abs: float, max_dev: float,
                 passed: bool):
        self.target = target
        self.max_abs = max_abs
        self.max_dev = max_dev
        self.passed = passed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "max_abs": self.max_abs,
            "max_dev": self.max_dev,
            "passed": self.passed,
        }


class VerificationReport:
    """Grid measurement of one candidate against the closure system.
    Reports compare equal when every field does."""

    def __init__(self, delta: dict, delta3: dict, lam: dict, tol: float,
                 grid_size: int, cross_variant: str, passed: bool,
                 tension_indices: list, heisenberg_tension: bool):
        self.delta = delta    # (i, j) -> ConditionMeasurement, target delta_ij
        self.delta3 = delta3  # (i, j, k) -> ConditionMeasurement, target 0
        self.lam = lam        # (i, j, k) -> ConditionMeasurement, target 0
        self.tol = tol
        self.grid_size = grid_size
        self.cross_variant = cross_variant
        self.passed = passed
        # diagonal i with measured |Delta_ii| <= tol
        self.tension_indices = tension_indices
        self.heisenberg_tension = heisenberg_tension

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_dict(self) -> dict:
        def keyed(d):
            return {"".join(str(t) for t in k): v.to_dict()
                    for k, v in sorted(d.items())}
        return {
            "delta": keyed(self.delta),
            "delta3": keyed(self.delta3),
            "lambda": keyed(self.lam),
            "tol": self.tol,
            "grid_size": self.grid_size,
            "cross_variant": self.cross_variant,
            "passed": self.passed,
            "tension_indices": list(self.tension_indices),
            "heisenberg_tension": self.heisenberg_tension,
        }


def _running_max(peak: str, value: str, target: float) -> list:
    """Generated lines that set peak to max(peak, abs(value - target))."""
    lines = []
    if target:
        lines.append(f"        t = {value} - {target!r}")
        value = "t"
    return lines + [f"        if {value} > {peak}:",
                    f"            {peak} = {value}",
                    f"        elif -{value} > {peak}:",
                    f"            {peak} = -{value}"]


def _measure_all(conditions: Sequence, targets: Sequence, grid: Sequence,
                 tol: float) -> list:
    """Measure every condition over the grid in one generated sweep.

    A condition is an expression or a tuple of (a, b) factor pairs
    standing for the sum of the products a * b, evaluated as
    compile_exprs evaluates it.  The grid loop is generated too: the
    largest magnitude of each distinct value, and its largest deviation
    from each nonzero target, is a local of the sweep.  The sweep reads
    the coefficients as locals, unpacked once per call; its text holds
    none, so a candidate whose conditions differ from an earlier one's
    only in their coefficients runs that candidate's compiled code.
    The grid is swept once, in order.  The first point where some value
    raises an arithmetic error or is not finite raises a PoleError
    naming that point.
    """
    # many conditions coincide (most are 0): equal ones share a local
    low = _Lowering((var("x"), var("y")), indent=" " * 12)
    names = [low.value(c) for c in conditions]
    values = list(dict.fromkeys(names))
    peaks = {}  # (value, target) -> the local of its largest |value - target|
    updates = []
    for name, target in zip(names, targets):
        for key in ((name, 0.0), (name, float(target))):
            if key not in peaks:
                peaks[key] = f"p{len(peaks)}"
                updates += _running_max(peaks[key], *key)
    source = "\n".join([
        "def sweep(grid):",
        *low.unpack("    "),
        f"    {' = '.join(peaks.values())} = 0.0",
        "    for g0, g1 in grid:",
        "        try:",
        "            v0 = float(g0)",
        "            v1 = float(g1)",
        *low.lines,
        "        except (ZeroDivisionError, OverflowError, ValueError):",
        "            return (g0, g1), ()",
        # a finite sum means finite values; an overflowing sum of
        # finite values is not a pole, so those are tested one by one
        f"        if not (isfinite({' + '.join(values)})",
        f"                or all(map(isfinite, ({', '.join(values)}, )))):",
        "            return (g0, g1), ()",
        *updates,
        f"    return None, ({''.join(f'{p}, ' for p in peaks.values())})",
        ""])
    point, found = low.define(source, "sweep")(grid)
    if point is not None:
        raise PoleError(
            f"candidate is singular at grid point (x={point[0]}, "
            f"y={point[1]})")
    peak = dict(zip(peaks, found))
    out = []
    for name, target in zip(names, targets):
        dev = peak[name, float(target)]
        out.append(ConditionMeasurement(target, peak[name, 0.0], dev,
                                        dev <= tol))
    return out


def verify_candidate(p: Params, e: Expr, grid: Sequence | None = None,
                     tol: float = 1e-9, cross_variant: str = "bracket_1"
                     ) -> VerificationReport:
    """Measure Delta_ij against its Kronecker target and Delta_ijk,
    Lambda_ijk against zero, pointwise over the grid.

    Pure measurement: the report carries residuals and pass flags at
    tol, plus the Heisenberg-tension flag for diagonal entries that
    measure zero where the structure wants a nonzero constant.  Delta
    and Delta3 values equal eval_numeric's, bit for bit.  Lambda_ijk is
    measured on its Leibniz pieces (ClosureEngine.lam_pieces), never
    multiplied out: at each point it is the left-to-right sum of its
    factor products, which may differ from the expanded sum in the last
    bits.  The grid sweep is deterministic, so it takes no seed.  A
    pole of the candidate (or its derivatives) on the grid raises
    PoleError naming the first singular grid point in grid order.
    """
    if grid is None:
        grid = default_grid()
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")

    engine = ClosureEngine(p, e, cross_variant)
    delta_m = {}
    delta3_m = {}
    lam_m = {}
    conditions = []  # (table, key, target, expression), measurement order
    for i, j in product(_INDICES, repeat=2):
        conditions.append((delta_m, (i, j), 1.0 if i == j else 0.0,
                           engine.delta(i, j)))
        for k in _INDICES:
            conditions.append((delta3_m, (i, j, k), 0.0,
                               engine.delta3(i, j, k)))
            conditions.append((lam_m, (i, j, k), 0.0,
                               tuple(engine.lam_pieces(i, j, k))))
    tables, keys, targets, exprs = zip(*conditions)
    for table, key, m in zip(tables, keys,
                             _measure_all(exprs, targets, grid, tol)):
        table[key] = m

    passed = (all(m.passed for m in delta_m.values())
              and all(m.passed for m in delta3_m.values())
              and all(m.passed for m in lam_m.values()))
    tension = [i for i in _INDICES if delta_m[(i, i)].max_abs <= tol]
    return VerificationReport(
        delta=delta_m, delta3=delta3_m, lam=lam_m, tol=tol,
        grid_size=len(grid), cross_variant=cross_variant, passed=passed,
        tension_indices=tension, heisenberg_tension=bool(tension))
