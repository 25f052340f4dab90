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
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from operator import sub
from typing import Optional, Sequence

from .closure import ClosureEngine, _INDICES, _check_index
from .model import Params
from .parsing import parse
from .symbolic import (
    Expr, base_atoms, compile_exprs, eval_numeric, evaluate,
    substitute, tanh, var,
    _PARAM, _VAR,
)


class PoleError(ValueError):
    """The candidate E (or a derivative) is singular on the grid."""


@dataclass(frozen=True)
class TanhConstants:
    """Constants of the tanh quotient family, attached to channel i."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    i: int

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


@dataclass(frozen=True)
class CharacteristicFamily:
    """Shapes composed with characteristic lines.

    f1, f2 (and optionally f3) are expressions in the single formal
    variable x; composition replaces that variable by a characteristic
    line.  f1 goes with the j-line, f2 with the i-line and f3 with the
    k-line, the order the two-shape solution is usually written in.
    diagonal_term adds x^2 / (2 gamma_1i gamma_1j) and is meaningful
    for the two-shape family only.
    """

    f1: Expr
    f2: Expr
    i: int
    j: int
    f3: Optional[Expr] = None
    k: Optional[int] = None
    diagonal_term: bool = False

    def __post_init__(self):
        _check_index(self.i, self.j)
        if (self.f3 is None) != (self.k is None):
            raise ValueError("f3 and k must be given together")
        if self.k is not None:
            _check_index(self.k)
            if self.diagonal_term:
                raise ValueError(
                    "diagonal_term belongs to the two-shape family")
        for f in (self.f1, self.f2, self.f3):
            if f is None:
                continue
            for atom in sorted(base_atoms(f), key=lambda a: a.key):
                if atom.kind == _VAR and atom.data != "x":
                    raise ValueError(
                        f"shapes are unary (in x); found {atom!r}")


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
    for atom in sorted(base_atoms(e), key=lambda a: a.key):
        if not (atom.kind == _PARAM
                or (atom.kind == _VAR and atom.data in ("x", "y"))):
            raise ValueError(
                f"E may depend on x, y and parameters only; found {atom!r}")
    return e


# -- measurement -------------------------------------------------------

def make_grid(nx: int, ny: int, x0: float, x1: float,
              y0: float, y1: float) -> list:
    """nx by ny uniform grid, inclusive of both ends."""
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one point per axis")
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise ValueError("grid bounds must be finite")
    xs = [x0 + (x1 - x0) * t / (nx - 1) for t in range(nx)] if nx > 1 \
        else [x0]
    ys = [y0 + (y1 - y0) * t / (ny - 1) for t in range(ny)] if ny > 1 \
        else [y0]
    return [(gx, gy) for gx in xs for gy in ys]


def default_grid() -> list:
    """5x5 over [0.1, 0.9]^2, away from tanh saturation and the usual
    pole locations."""
    return make_grid(5, 5, 0.1, 0.9, 0.1, 0.9)


@dataclass
class ConditionMeasurement:
    """One measured condition: the largest raw magnitude and the largest
    deviation from the target over the grid."""

    target: float
    max_abs: float
    max_dev: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "max_abs": self.max_abs,
            "max_dev": self.max_dev,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    """Grid measurement of one candidate against the closure system."""

    delta: dict       # (i, j) -> ConditionMeasurement, target delta_ij
    delta3: dict      # (i, j, k) -> ConditionMeasurement, target 0
    lam: dict         # (i, j, k) -> ConditionMeasurement, target 0
    tol: float
    grid_size: int
    cross_variant: str
    seed: int
    passed: bool
    tension_indices: list   # diagonal i with measured |Delta_ii| <= tol
    heisenberg_tension: bool

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


def _measure(expr: Expr, grid: Sequence, target: float,
             tol: float) -> ConditionMeasurement:
    ax, ay = var("x"), var("y")
    max_abs = 0.0
    max_dev = 0.0
    for gx, gy in grid:
        try:
            val = eval_numeric(expr, {ax: gx, ay: gy})
        except (ZeroDivisionError, OverflowError, ValueError):
            raise PoleError(
                f"candidate is singular at grid point (x={gx}, y={gy})")
        if not math.isfinite(val):
            raise PoleError(
                f"candidate is singular at grid point (x={gx}, y={gy})")
        max_abs = max(max_abs, abs(val))
        max_dev = max(max_dev, abs(val - target))
    return ConditionMeasurement(target=target, max_abs=max_abs,
                                max_dev=max_dev, passed=max_dev <= tol)


def _measure_all(exprs: Sequence, targets: Sequence, grid: Sequence,
                 tol: float) -> list:
    """Measure every condition over the grid through one compiled program.

    The running maxima are those _measure keeps, in the same order, so
    the results are identical.  At a singular point (an arithmetic error
    or a non-finite value) the batch is measured again condition by
    condition, so the PoleError names the point _measure names: the
    first singular point of the first singular condition.
    """
    # many conditions coincide (most are 0); track each distinct one once
    distinct = list(dict.fromkeys(zip(exprs, targets)))
    program = compile_exprs([e for e, _ in distinct], (var("x"), var("y")))
    tracked = [t for _, t in distinct]
    max_abs = [0.0] * len(distinct)
    max_dev = [0.0] * len(distinct)
    try:
        for gx, gy in grid:
            vals = evaluate(program, (gx, gy))
            # a non-finite value makes the sum non-finite; an overflowing
            # sum of finite values only costs the re-measurement
            if not math.isfinite(sum(vals)):
                break
            max_abs = list(map(max, max_abs, map(abs, vals)))
            max_dev = list(map(max, max_dev,
                               map(abs, map(sub, vals, tracked))))
        else:
            found = {pair: ConditionMeasurement(pair[1], a, d, d <= tol)
                     for pair, a, d in zip(distinct, max_abs, max_dev)}
            return [replace(found[pair]) for pair in zip(exprs, targets)]
    except (ZeroDivisionError, OverflowError, ValueError):
        pass
    return [_measure(expr, grid, t, tol) for expr, t in zip(exprs, targets)]


def verify_candidate(p: Params, e: Expr, grid: Optional[Sequence] = None,
                     tol: float = 1e-9, cross_variant: str = "bracket_1",
                     seed: int = 0) -> VerificationReport:
    """Measure Delta_ij against its Kronecker target and Delta_ijk,
    Lambda_ijk against zero, pointwise over the grid.

    Pure measurement: the report carries residuals and pass flags at
    tol, plus the Heisenberg-tension flag for diagonal entries that
    measure zero where the structure wants a nonzero constant.  The
    seed is recorded for provenance; the grid sweep itself is
    deterministic.  A pole of the candidate (or its derivatives) on the
    grid raises PoleError naming the first failing point.
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
            conditions.append((lam_m, (i, j, k), 0.0, engine.lam(i, j, k)))
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
