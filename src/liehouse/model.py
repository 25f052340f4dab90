"""Greenhouse climate model: parameters, drift and control fields, and a
fixed-step simulator.

States are x (temperature), y (humidity), z (CO2 concentration).  The
dynamics are control-affine,

    dX/dt = f0(X) + u1 f1 + u2 f2 + u3 f3,

with constant control directions f_i = (gamma_1i, gamma_2i, 0) and a
drift whose only nonlinearity is the evapotranspiration term E(x, y):

    f0 = (alpha1 + beta11 x + beta12 E,
          alpha2 + beta22 y + beta22p E + beta13 z,
          alpha3 + beta32 y + beta33 z).

The air direction B = (-beta12, -beta22p, 0) collects the two channels
through which E enters the drift.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Mapping, Sequence, Union

from .fields import VectorField
from .symbolic import (
    E, Expr, as_expr, compile_exprs, evaluate, param, substitute, var,
)

Value = Union[Fraction, Expr]

# (name, required sign): +1 strictly positive, -1 strictly negative
_SIGN_TABLE = (
    ("alpha1", +1), ("alpha2", +1), ("alpha3", +1),
    ("beta11", -1), ("beta12", +1), ("beta13", +1),
    ("beta22", -1), ("beta22p", -1), ("beta32", +1), ("beta33", -1),
    ("gamma11", +1), ("gamma12", +1), ("gamma13", +1),
    ("gamma21", -1), ("gamma22", -1), ("gamma23", +1),
)

_BETA_KEYS = ("b11", "b12", "b13", "b22", "b22p", "b32", "b33")


def _is_row(value) -> bool:
    return isinstance(value, (list, tuple))


def _rational(value, where: str) -> Fraction:
    """An exact parameter or structure-matrix entry.  The same rule as
    for control entries (_finite_real): a string, a bool, a list, a
    mapping, null, an infinity or a value beyond the float range is a
    ValueError naming the entry."""
    if not _finite_real(value):
        raise ValueError(
            f"{where} must be a finite number, got {value!r}")
    return Fraction(value)


def _finite_real(value) -> bool:
    """A real number (not a bool or a string) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        return False


class InvalidParamsError(ValueError):
    """Raised when parameters violate the sign constraints."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Params:
    """Model coefficients.  Entries are exact rationals, or expressions
    when built with Params.symbolic() for structural identities."""

    alpha1: Value
    alpha2: Value
    alpha3: Value
    beta11: Value
    beta12: Value
    beta13: Value
    beta22: Value
    beta22p: Value
    beta32: Value
    beta33: Value
    gamma: tuple  # ((g11, g12, g13), (g21, g22, g23))

    @classmethod
    def make(cls, alpha, beta, gamma) -> "Params":
        """alpha: 3 values; beta: mapping with keys b11..b33, b22p;
        gamma: 2x3 rows (gamma_1i, gamma_2i)."""
        if not (_is_row(alpha) and len(alpha) == 3):
            raise ValueError("alpha needs exactly 3 entries")
        if not isinstance(beta, Mapping):
            raise ValueError("beta must map b11..b33, b22p to values")
        missing = [k for k in _BETA_KEYS if k not in beta]
        if missing:
            raise ValueError(f"beta is missing {missing}")
        if not (_is_row(gamma) and len(gamma) == 2
                and all(_is_row(row) and len(row) == 3 for row in gamma)):
            raise ValueError("gamma must be a 2x3 table")
        a = [_rational(v, "alpha entry") for v in alpha]
        b = [_rational(beta[k], f"beta entry {k}") for k in _BETA_KEYS]
        g = tuple(tuple(_rational(v, "gamma entry") for v in row)
                  for row in gamma)
        return cls(*a, *b, g)

    @classmethod
    def from_json(cls, text: str) -> "Params":
        try:
            data = json.loads(text, parse_float=Fraction, parse_int=Fraction)
        except json.JSONDecodeError as err:
            raise ValueError(f"parameter file is not valid JSON: {err}")
        if not isinstance(data, dict):
            raise ValueError("parameter file must hold a JSON object")
        for key in ("alpha", "beta", "gamma"):
            if key not in data:
                raise ValueError(f"parameter file is missing {key!r}")
        return cls.make(data["alpha"], data["beta"], data["gamma"])

    @classmethod
    def from_file(cls, path) -> "Params":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @classmethod
    def symbolic(cls) -> "Params":
        """Every coefficient as its named parameter atom; field
        constructions then stay fully symbolic.  Sign validation does
        not apply to symbolic instances."""
        g = tuple(tuple(param(f"gamma{r}{i}") for i in (1, 2, 3))
                  for r in (1, 2))
        return cls(param("alpha1"), param("alpha2"), param("alpha3"),
                   param("beta11"), param("beta12"), param("beta13"),
                   param("beta22"), param("beta22p"),
                   param("beta32"), param("beta33"), g)

    def is_symbolic(self) -> bool:
        return isinstance(self.alpha1, Expr)

    def value(self, name: str) -> Value:
        if name.startswith("gamma"):
            row, col = int(name[5]), int(name[6])
            return self.gamma[row - 1][col - 1]
        return getattr(self, name)

    def gamma_entry(self, row: int, i: int) -> Value:
        """gamma_(row)i with 1-based indices, row in {1, 2}, i in {1,2,3}."""
        return self.gamma[row - 1][i - 1]

    def bindings(self) -> dict:
        """Map every parameter atom to this instance's value."""
        if self.is_symbolic():
            return {}
        out = {}
        for name, _ in _SIGN_TABLE:
            out[param(name)] = as_expr(self.value(name))
        return out


def validate_params(p: Params) -> list:
    """Sign-constraint violations, empty when p is admissible."""
    if p.is_symbolic():
        return []
    violations = []
    for name, sign in _SIGN_TABLE:
        v = p.value(name)
        if sign > 0 and not v > 0:
            violations.append(f"{name} must be positive (got {v})")
        elif sign < 0 and not v < 0:
            violations.append(f"{name} must be negative (got {v})")
    return violations


def demo_params() -> Params:
    """Synthetic demonstration values with the required signs.  They are
    not calibrated to any physical greenhouse."""
    return Params.make(
        alpha=[1, Fraction(3, 2), Fraction(1, 2)],
        beta={"b11": -1, "b12": 2, "b13": Fraction(1, 2),
              "b22": Fraction(-3, 2), "b22p": Fraction(-1, 2),
              "b32": 1, "b33": -1},
        gamma=[[2, 1, Fraction(1, 2)], [-1, Fraction(-3, 2), 1]],
    )


def build_fields(p: Params):
    """(f0, f1, f2, f3, B) for admissible parameters.

    f0 carries the formal E atom; bind it via substitute (or let the
    closure layer do so) to study a concrete evapotranspiration law.
    Raises InvalidParamsError when the sign constraints fail.
    """
    violations = validate_params(p)
    if violations:
        raise InvalidParamsError(violations)
    x, y, z = var("x"), var("y"), var("z")
    f0 = VectorField(
        p.alpha1 + p.beta11 * x + p.beta12 * E,
        p.alpha2 + p.beta22 * y + p.beta22p * E + p.beta13 * z,
        p.alpha3 + p.beta32 * y + p.beta33 * z,
    )
    controls = tuple(
        VectorField.of(p.gamma_entry(1, i), p.gamma_entry(2, i), 0)
        for i in (1, 2, 3))
    b_field = VectorField.of(-p.beta12, -p.beta22p, 0)
    return (f0,) + controls + (b_field,)


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant controls: entries (t, u1, u2, u3) with t
    strictly increasing from 0; each triple holds until the next time."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("control schedule needs at least one entry")
        for e in self.entries:
            if not (_is_row(e) and len(e) == 4
                    and all(map(_finite_real, e))):
                raise ValueError(
                    f"each control entry is [t, u1, u2, u3] of finite "
                    f"numbers, got {e!r}")
        times = [float(e[0]) for e in self.entries]
        # kept for value_at, which bisects it once per step
        object.__setattr__(self, "_times", times)
        if times[0] != 0.0:
            raise ValueError("control schedule must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("control times must be strictly increasing")

    @classmethod
    def constant(cls, u1=0.0, u2=0.0, u3=0.0) -> "ControlSchedule":
        return cls(((0.0, float(u1), float(u2), float(u3)),))

    @classmethod
    def zero(cls) -> "ControlSchedule":
        return cls.constant()

    def value_at(self, t: float):
        idx = bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        _, u1, u2, u3 = self.entries[idx]
        return (float(u1), float(u2), float(u3))


@dataclass
class Trajectory:
    """Sampled solution.  times and states have equal length; diverged
    marks a run truncated at the first non-finite (or unevaluable)
    right-hand side."""

    times: list
    states: list
    diverged: bool = False

    def to_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["t", "x", "y", "z"])
        for t, (sx, sy, sz) in zip(self.times, self.states):
            writer.writerow([repr(t), repr(sx), repr(sy), repr(sz)])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            self.to_csv(handle)


def simulate(p: Params, e_expr: Expr, ctrl: ControlSchedule,
             init: Sequence[float], dt: float, steps: int) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta integration with
    sample-and-hold controls (the control is frozen at the value taken
    at the start of each step).

    The trajectory includes the initial state, so a run of n steps has
    n + 1 samples.  A non-finite or unevaluable right-hand side stops
    the run early and flags the trajectory as diverged.
    """
    violations = validate_params(p)
    if violations:
        raise InvalidParamsError(violations)
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if len(init) != 3:
        raise ValueError("init must have three components")
    if not all(math.isfinite(v) for v in init):
        raise ValueError(f"init must be finite, got {tuple(init)}")

    bind = dict(p.bindings())
    e_closed = substitute(e_expr, bind) if bind else e_expr
    bind_e = {E: e_closed}
    f0 = build_fields(p)[0]
    drift = [substitute(c, bind_e) for c in f0.components()]
    g1 = [float(p.gamma_entry(1, i)) for i in (1, 2, 3)]
    g2 = [float(p.gamma_entry(2, i)) for i in (1, 2, 3)]
    program = compile_exprs(drift, (var("x"), var("y"), var("z")))

    def rhs(state, u):
        dx, dy, dz = evaluate(program, state)
        for i in range(3):
            dx += u[i] * g1[i]
            dy += u[i] * g2[i]
        return (dx, dy, dz)

    times = [0.0]
    states = [tuple(float(v) for v in init)]
    state = states[0]
    diverged = False
    for n in range(steps):
        t = n * dt
        u = ctrl.value_at(t)
        try:
            k1 = rhs(state, u)
            s2 = tuple(state[i] + 0.5 * dt * k1[i] for i in range(3))
            k2 = rhs(s2, u)
            s3 = tuple(state[i] + 0.5 * dt * k2[i] for i in range(3))
            k3 = rhs(s3, u)
            s4 = tuple(state[i] + dt * k3[i] for i in range(3))
            k4 = rhs(s4, u)
        except (ZeroDivisionError, OverflowError, ValueError):
            diverged = True
            break
        nxt = tuple(
            state[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i in range(3))
        if not all(math.isfinite(v) for v in nxt):
            diverged = True
            break
        state = nxt
        times.append((n + 1) * dt)
        states.append(state)
    return Trajectory(times, states, diverged)
