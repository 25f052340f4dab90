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

import io
import json
import math
import numbers
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import islice

from .fields import VectorField
from .symbolic import (
    E, ZERO, Expr, all_atoms, compile_exprs, param, substitute, var, _PARAM,
)

Value = Fraction | Expr

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
    return value if value.__class__ is Fraction else Fraction(value)


def _in_float_range(text: str, literal: str) -> float | None:
    """float(text), or None when float() does not read it.  A value
    outside the float range (infinite as a float, or a nonzero literal
    that rounds to 0.0) is a ValueError naming literal."""
    try:
        value = float(text)
    except ValueError:
        return None
    if math.isinf(value) or (
            value == 0
            and text.strip().lower().partition("e")[0].strip("+-0._")):
        raise ValueError(f"number {literal} is outside the float range")
    return value


def exact_number(text: str) -> Fraction:
    """A number literal as an exact Fraction: a JSON number, or any
    literal Fraction reads (p/q, a sign, digit underscores).  A literal
    outside the float range, or a p/q with either side outside it, is a
    ValueError naming the literal, raised before the Fraction is built:
    Fraction("1e99999999") would build 10**99999999, and a side of more
    than 4 300 digits would fail in int() with a message of its own."""
    num, slash, den = text.partition("/")
    if slash:  # each side obeys the rule; Fraction reads or refuses p/q
        _in_float_range(num, text)
        _in_float_range(den, text)
        return Fraction(text)
    value = _in_float_range(text, text)
    if value is None:  # no number: Fraction reads or refuses it
        return Fraction(text)
    if not value:  # a zero literal may carry any exponent: 0e-99999999
        return Fraction(0)
    # an integer literal in the float range has at most 309 digits;
    # int() skips Fraction's regular-expression parse
    if text.lstrip("-").isdigit():
        return Fraction(int(text))
    return Fraction(text)


def read_exact_json(text: str, what: str):
    """Parse JSON text with every number an exact Fraction (see
    exact_number); what names the input in the error message."""
    try:
        return json.loads(text, parse_float=exact_number,
                          parse_int=exact_number)
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} is not valid JSON: {err}")


_REAL_CLASSES = (int, float, Fraction)


def _finite_real(value) -> bool:
    """A real number (not a bool or a string) with a finite float value."""
    # the exact class test is the fast path for what JSON gives; bool
    # subclasses int, so it reaches the ABC test and is refused there
    if value.__class__ not in _REAL_CLASSES and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
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


class Params:
    """Model coefficients.  Entries are exact rationals, or expressions
    when built with Params.symbolic() for structural identities.
    Instances compare and hash by their entries."""

    def __init__(self, alpha1: Value, alpha2: Value, alpha3: Value,
                 beta11: Value, beta12: Value, beta13: Value,
                 beta22: Value, beta22p: Value, beta32: Value,
                 beta33: Value, gamma: tuple):
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.alpha3 = alpha3
        self.beta11 = beta11
        self.beta12 = beta12
        self.beta13 = beta13
        self.beta22 = beta22
        self.beta22p = beta22p
        self.beta32 = beta32
        self.beta33 = beta33
        self.gamma = gamma  # ((g11, g12, g13), (g21, g22, g23))

    def _key(self) -> tuple:
        return (self.alpha1, self.alpha2, self.alpha3, self.beta11,
                self.beta12, self.beta13, self.beta22, self.beta22p,
                self.beta32, self.beta33, self.gamma)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
        data = read_exact_json(text, "parameter file")
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

    def close(self, expr: Expr) -> Expr:
        """expr with every parameter atom replaced by this instance's
        value.  A symbolic instance holds the atoms themselves, and an
        expr that reaches no parameter atom, even inside a tanh argument
        or a reciprocal base, has nothing to replace: either way expr
        itself comes back."""
        if self.is_symbolic() or not any(
                atom.kind == _PARAM for atom in all_atoms(expr)):
            return expr
        return substitute(expr, {param(name): self.value(name)
                                 for name, _ in _SIGN_TABLE})


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


def build_fields(p: Params, e: Expr = E):
    """(f0, f1, f2, f3, B) for admissible parameters.

    e is written where E enters f0, along -B: the formal E atom by
    default, or a concrete evapotranspiration law (close it with
    p.close first when it names parameters).  Raises InvalidParamsError
    when the sign constraints fail, before any field is built.  This is
    the library's one sign check: a ClosureEngine and simulate both
    call it with e = 0, once per call, and only then close their E over
    p and write f0 = drift - E B, since a candidate E may divide by a
    parameter that an inadmissible p sets to zero.
    """
    violations = validate_params(p)
    if violations:
        raise InvalidParamsError(violations)
    x, y, z = var("x"), var("y"), var("z")
    f0 = VectorField(
        p.alpha1 + p.beta11 * x + p.beta12 * e,
        p.alpha2 + p.beta22 * y + p.beta22p * e + p.beta13 * z,
        p.alpha3 + p.beta32 * y + p.beta33 * z,
    )
    controls = tuple(
        VectorField.of(p.gamma_entry(1, i), p.gamma_entry(2, i), 0)
        for i in (1, 2, 3))
    b_field = VectorField.of(-p.beta12, -p.beta22p, 0)
    return (f0,) + controls + (b_field,)


class ControlSchedule:
    """Piecewise-constant controls: float entries (t, u1, u2, u3) with t
    strictly increasing from 0; each triple holds until the next time."""

    def __init__(self, entries: tuple):
        if not entries:
            raise ValueError("control schedule needs at least one entry")
        for e in entries:
            if not (_is_row(e) and len(e) == 4
                    and all(map(_finite_real, e))):
                raise ValueError(
                    f"each control entry is [t, u1, u2, u3] of finite "
                    f"numbers, got {e!r}")
        self.entries = tuple(tuple(map(float, e)) for e in entries)
        # bisected by value_at; simulate finds its segment ends from it
        self._times = times = [e[0] for e in self.entries]
        if times[0] != 0.0:
            raise ValueError("control schedule must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("control times must be strictly increasing")

    @classmethod
    def constant(cls, u1=0.0, u2=0.0, u3=0.0) -> "ControlSchedule":
        return cls(((0.0, u1, u2, u3),))

    @classmethod
    def zero(cls) -> "ControlSchedule":
        return cls.constant()

    def value_at(self, t: float):
        idx = bisect_right(self._times, t) - 1
        return self.entries[max(idx, 0)][1:]


_CSV_CHUNK = 1024


class Trajectory:
    """Sampled solution.  times and states have equal length; diverged
    marks a run truncated at the first non-finite (or unevaluable)
    right-hand side."""

    def __init__(self, times: list, states: list, diverged: bool = False):
        self.times = times
        self.states = states
        self.diverged = diverged

    def to_csv(self, stream: io.TextIOBase) -> None:
        # the fields are float reprs, which never need CSV quoting; rows
        # are joined and written _CSV_CHUNK at a time, so memory does
        # not grow with the trajectory
        stream.write("t,x,y,z\n")
        rows = zip(self.times, self.states)
        while chunk := "".join(f"{t!r},{sx!r},{sy!r},{sz!r}\n"
                               for t, (sx, sy, sz)
                               in islice(rows, _CSV_CHUNK)):
            stream.write(chunk)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            self.to_csv(handle)


# Every state is kept: 10**5 steps on the golden parameters take about
# 1 s and 20 MB of peak memory, so the limit is some 10 s and 0.2 GB.
# The longest golden, CI or benchmark run makes 2 000 steps.
MAX_STEPS = 10**6


def _segment_ends(times: Sequence[float], dt: float, steps: int) -> list:
    """For each control entry, the step at which it stops applying: the
    first n with n * dt >= the next entry's time, capped at steps, and
    steps for the last entry.  Steps n with end[j - 1] <= n < end[j]
    therefore take entry j, which is what value_at(n * dt) returns: the
    same float products are compared, and n * dt never decreases as n
    grows, so one scan over n finds every end."""
    ends = []
    n = 0
    for t in times[1:]:
        while n < steps and n * dt < t:
            n += 1
        ends.append(n)
    ends.append(steps)
    return ends


def simulate(p: Params, e_expr: Expr, ctrl: ControlSchedule,
             init: Sequence[float], dt: float, steps: int) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta integration with
    sample-and-hold controls (the control is frozen at the value taken
    at the start of each step).

    The trajectory includes the initial state, so a run of n steps has
    n + 1 samples; n is at most MAX_STEPS.  A non-finite or unevaluable
    right-hand side stops the run early and flags the trajectory as
    diverged.

    The steps run as one loop per control segment, with the state and
    the stages in local floats.  Segment bounds are found once, before
    stepping, so that step n takes exactly the controls of
    ctrl.value_at(n * dt).  Each stage adds the controls to the compiled
    drift one by one, in the order u1, u2, u3.  The run arguments are
    checked first, and the parameter signs after them (build_fields).
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if steps > MAX_STEPS:
        raise ValueError(f"{steps} steps exceed the limit of {MAX_STEPS}")
    if len(init) != 3:
        raise ValueError("init must have three components")
    if not all(math.isfinite(v) for v in init):
        raise ValueError(f"init must be finite, got {tuple(init)}")
    drift, _, _, _, b = build_fields(p, ZERO)
    f0 = drift - b.scaled(p.close(e_expr))
    program = compile_exprs(f0.components(), (var("x"), var("y"), var("z")))

    g1 = [float(p.gamma_entry(1, i)) for i in (1, 2, 3)]
    g2 = [float(p.gamma_entry(2, i)) for i in (1, 2, 3)]
    segments = [(*u, end) for (_, *u), end in zip(
        ctrl.entries, _segment_ends(ctrl._times, dt, steps))]
    times = [0.0]
    states = [tuple(float(v) for v in init)]
    diverged = _rk4(program.run, g1, g2, segments, dt, times, states)
    return Trajectory(times, states, diverged)


def _rk4(run, g1, g2, segments, dt, times, states) -> bool:
    """Step from states[-1] through the segments (u1, u2, u3, end),
    appending each step's time and state; True when the run diverged.
    The float operations are those of the textbook vector form, in its
    order: x + (0.5 * dt) * k, and x + (dt / 6.0) * (k1 + 2 k2 + 2 k3 +
    k4).  An arithmetic error in the drift, or a non-finite next state,
    ends the run before that step's row is appended."""
    a1, a2, a3 = g1
    b1, b2, b3 = g2
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    append_time, append_state = times.append, states.append
    x, y, z = states[-1]
    start = 0
    for u1, u2, u3, end in segments:
        for n in range(start, end):
            try:
                d1, d2, k1z = run(x, y, z)
                k1x = ((d1 + u1 * a1) + u2 * a2) + u3 * a3
                k1y = ((d2 + u1 * b1) + u2 * b2) + u3 * b3
                d1, d2, k2z = run(x + half * k1x, y + half * k1y,
                                  z + half * k1z)
                k2x = ((d1 + u1 * a1) + u2 * a2) + u3 * a3
                k2y = ((d2 + u1 * b1) + u2 * b2) + u3 * b3
                d1, d2, k3z = run(x + half * k2x, y + half * k2y,
                                  z + half * k2z)
                k3x = ((d1 + u1 * a1) + u2 * a2) + u3 * a3
                k3y = ((d2 + u1 * b1) + u2 * b2) + u3 * b3
                d1, d2, k4z = run(x + dt * k3x, y + dt * k3y, z + dt * k3z)
            except (ZeroDivisionError, OverflowError, ValueError):
                return True
            k4x = ((d1 + u1 * a1) + u2 * a2) + u3 * a3
            k4y = ((d2 + u1 * b1) + u2 * b2) + u3 * b3
            x = x + sixth * (k1x + 2 * k2x + 2 * k3x + k4x)
            y = y + sixth * (k1y + 2 * k2y + 2 * k3y + k4y)
            z = z + sixth * (k1z + 2 * k2z + 2 * k3z + k4z)
            if not (isfinite(x) and isfinite(y) and isfinite(z)):
                return True
            append_time((n + 1) * dt)
            append_state((x, y, z))
        start = end
    return False
