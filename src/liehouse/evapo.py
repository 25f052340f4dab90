"""Evapotranspiration candidates and their measurement against the
closure system.

Two constructive families are provided.  The characteristic family
composes arbitrary one-variable shapes with the lines
l_i = -gamma_2i x + gamma_1i y that the operators Delta annihilate,
optionally adding the diagonal term x^2 / (2 gamma_1i gamma_1j) whose
Delta_ij is exactly 1.  The tanh family is the quotient

    E_i = 1 / (C4 + C3 tanh((C1 g_1i - C2 g_2i x + C2 g_1i y) / g_1i)).

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
from .model import Params
from .parsing import parse
from .symbolic import (
    Expr, base_atoms, substitute, tanh, var, _Lowering, _PARAM, _VAR,
)


class PoleError(ValueError):
    """The candidate E (or a derivative) is singular on the grid."""


class TanhConstants:
    """Constants of the tanh quotient family, attached to channel i."""

    def __init__(self, c1: Fraction, c2: Fraction, c3: Fraction,
                 c4: Fraction, i: int):
        self.c1 = c1
        self.c2 = c2
        self.c3 = c3
        self.c4 = c4
        self.i = i

    @classmethod
    def of(cls, c1, c2, c3, c4, i: int) -> "TanhConstants":
        _check_index(i)
        out = cls(Fraction(c1), Fraction(c2), Fraction(c3), Fraction(c4), i)
        if out.c3 == 0 and out.c4 == 0:
            raise ValueError("C3 and C4 cannot both vanish")
        return out


def e_tanh(p: Params, c: TanhConstants) -> Expr:
    """The tanh quotient candidate.  Needs gamma_1i nonzero (it divides
    the argument); the result is constant along the i-th line."""
    g1 = p.gamma_entry(1, c.i)
    if g1 == 0:
        raise ValueError(f"gamma_1{c.i} must be nonzero")
    arg = c.c1 + c.c2 * characteristic_line(p, c.i) / g1
    return 1 / (c.c4 + c.c3 * tanh(arg))


class CharacteristicFamily:
    """Shapes composed with characteristic lines.

    f1, f2 (and optionally f3) are expressions in the single formal
    variable x; composition replaces that variable by a characteristic
    line.  f1 goes with the j-line, f2 with the i-line and f3 with the
    k-line, the order the two-shape solution is usually written in.
    diagonal_term adds x^2 / (2 gamma_1i gamma_1j) and is meaningful
    for the two-shape family only.
    """

    def __init__(self, f1: Expr, f2: Expr, i: int, j: int,
                 f3: Expr | None = None, k: int | None = None,
                 diagonal_term: bool = False):
        _check_index(i, j)
        if (f3 is None) != (k is None):
            raise ValueError("f3 and k must be given together")
        if k is not None:
            _check_index(k)
            if diagonal_term:
                raise ValueError(
                    "diagonal_term belongs to the two-shape family")
        for f in (f1, f2, f3):
            if f is None:
                continue
            for atom in base_atoms(f):
                if atom.kind == _VAR and atom.data != "x":
                    raise ValueError(
                        f"shapes are unary (in x); found {atom!r}")
        self.f1 = f1
        self.f2 = f2
        self.i = i
        self.j = j
        self.f3 = f3
        self.k = k
        self.diagonal_term = diagonal_term


def characteristic_line(p: Params, idx: int) -> Expr:
    """-gamma_2idx x + gamma_1idx y, annihilated by the idx-th
    directional operator."""
    _check_index(idx)
    g1, g2 = p.gamma_entry(1, idx), p.gamma_entry(2, idx)
    return -g2 * var("x") + g1 * var("y")


def e_characteristic(p: Params, fam: CharacteristicFamily) -> Expr:
    """Compose each shape with its line; add the diagonal term when
    requested."""
    x = var("x")
    out = substitute(fam.f1, {x: characteristic_line(p, fam.j)})
    out = out + substitute(fam.f2, {x: characteristic_line(p, fam.i)})
    if fam.f3 is not None:
        out = out + substitute(fam.f3, {x: characteristic_line(p, fam.k)})
    if fam.diagonal_term:
        g1i, g1j = p.gamma_entry(1, fam.i), p.gamma_entry(1, fam.j)
        out = out + x ** 2 / (2 * g1i * g1j)
    return out


# -- descriptors -------------------------------------------------------

def parse_descriptor(text: str):
    """CLI mini-syntax for candidates:

        tanh:C1,C2,C3,C4,i
        char:i,j[,k][,diag]:<F1 expr>;<F2 expr>[;<F3 expr>]
        expr:<closed form in x, y>

    Returns a TanhConstants, CharacteristicFamily, or Expr.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"E descriptor needs a kind prefix (tanh:, char:, expr:), "
            f"got {text!r}")
    if kind == "expr":
        return parse(rest)
    if kind == "tanh":
        parts = [s.strip() for s in rest.split(",")]
        if len(parts) != 5:
            raise ValueError(
                "tanh descriptor needs C1,C2,C3,C4,i "
                f"(5 fields, got {len(parts)})")
        try:
            consts = [Fraction(s) for s in parts[:4]]
            idx = int(parts[4])
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad tanh descriptor field: {err}")
        return TanhConstants.of(*consts, idx)
    if kind == "char":
        head, sep2, funcs = rest.partition(":")
        if not sep2:
            raise ValueError(
                "char descriptor needs an index head and a shape list "
                "separated by ':'")
        head_parts = [s.strip() for s in head.split(",")]
        diagonal = False
        if head_parts and head_parts[-1] == "diag":
            diagonal = True
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
        if len(idxs) == 2:
            return CharacteristicFamily(
                f1=shapes[0], f2=shapes[1], i=idxs[0], j=idxs[1],
                diagonal_term=diagonal)
        return CharacteristicFamily(
            f1=shapes[0], f2=shapes[1], f3=shapes[2],
            i=idxs[0], j=idxs[1], k=idxs[2], diagonal_term=diagonal)
    raise ValueError(f"unknown E descriptor kind {kind!r}")


def descriptor_to_expr(p: Params, descriptor: str) -> Expr:
    """The candidate E a descriptor names.  E is a function of x, y and
    the model parameters only; any other atom (z, E or one of its
    partials) raises ValueError."""
    parsed = parse_descriptor(descriptor)
    if isinstance(parsed, TanhConstants):
        e = e_tanh(p, parsed)
    elif isinstance(parsed, CharacteristicFamily):
        e = e_characteristic(p, parsed)
    else:
        e = parsed
    for atom in base_atoms(e):
        if not (atom.kind == _PARAM
                or (atom.kind == _VAR and atom.data in ("x", "y"))):
            raise ValueError(
                f"E may depend on x, y and parameters only; found {atom!r}")
    return e


# -- measurement -------------------------------------------------------

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
    """nx by ny uniform grid, inclusive of both ends."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one point per axis")
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise ValueError("grid bounds must be finite")
    xs, ys = _axis(nx, x0, x1), _axis(ny, y0, y1)
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("grid coordinates must be finite")
    return [(gx, gy) for gx in xs for gy in ys]


def default_grid() -> list:
    """5x5 over [0.1, 0.9]^2, away from tanh saturation and the usual
    pole locations."""
    return make_grid(5, 5, 0.1, 0.9, 0.1, 0.9)


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
                 grid_size: int, cross_variant: str, seed: int,
                 passed: bool, tension_indices: list,
                 heisenberg_tension: bool):
        self.delta = delta    # (i, j) -> ConditionMeasurement, target delta_ij
        self.delta3 = delta3  # (i, j, k) -> ConditionMeasurement, target 0
        self.lam = lam        # (i, j, k) -> ConditionMeasurement, target 0
        self.tol = tol
        self.grid_size = grid_size
        self.cross_variant = cross_variant
        self.seed = seed
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
            "seed": self.seed,
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
    from each nonzero target, is a local of the sweep.  The grid is
    swept once, in order.  The first point where some value raises an
    arithmetic error or is not finite raises a PoleError naming that
    point.
    """
    # many conditions coincide (most are 0); measure each distinct one once
    distinct = list(dict.fromkeys(zip(conditions, targets)))
    low = _Lowering((var("x"), var("y")), indent=" " * 12)
    names = [low.value(c) for c, _ in distinct]
    values = list(dict.fromkeys(names))
    peaks = {}  # (value, target) -> the local of its largest |value - target|
    updates = []
    for name, (_, target) in zip(names, distinct):
        for key in ((name, 0.0), (name, float(target))):
            if key not in peaks:
                peaks[key] = f"p{len(peaks)}"
                updates += _running_max(peaks[key], *key)
    source = "\n".join([
        "def sweep(grid):",
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
    point, found = low.define(source, "sweep", isfinite=math.isfinite)(grid)
    if point is not None:
        raise PoleError(
            f"candidate is singular at grid point (x={point[0]}, "
            f"y={point[1]})")
    peak = dict(zip(peaks, found))
    measured = {}
    for name, pair in zip(names, distinct):
        dev = peak[name, float(pair[1])]
        measured[pair] = ConditionMeasurement(
            pair[1], peak[name, 0.0], dev, dev <= tol)
    return [measured[pair] for pair in zip(conditions, targets)]


def verify_candidate(p: Params, e: Expr, grid: Sequence | None = None,
                     tol: float = 1e-9, cross_variant: str = "bracket_1",
                     seed: int = 0) -> VerificationReport:
    """Measure Delta_ij against its Kronecker target and Delta_ijk,
    Lambda_ijk against zero, pointwise over the grid.

    Pure measurement: the report carries residuals and pass flags at
    tol, plus the Heisenberg-tension flag for diagonal entries that
    measure zero where the structure wants a nonzero constant.  Delta
    and Delta3 values equal eval_numeric's, bit for bit.  Lambda_ijk is
    measured on its Leibniz pieces (ClosureEngine.lam_pieces), never
    multiplied out: at each point it is the left-to-right sum of its
    factor products, which may differ from the expanded sum in the last
    bits.  The seed is recorded for provenance; the grid sweep itself
    is deterministic.  A pole of the candidate (or its derivatives) on
    the grid raises PoleError naming the first singular grid point in
    grid order.
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
        grid_size=len(grid), cross_variant=cross_variant, seed=seed,
        passed=passed, tension_indices=tension,
        heisenberg_tension=bool(tension))
