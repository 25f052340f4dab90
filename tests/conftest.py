"""Shared test helpers: seeded random expressions, fields, and
admissible parameter sets."""

import random
from fractions import Fraction

import pytest

from liehouse import Params, VectorField, proportional_to, var
from liehouse.symbolic import ONE, ZERO

X, Y, Z = var("x"), var("y"), var("z")


def rat(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    num = rng.randint(lo, hi)
    den = rng.choice((1, 1, 2, 3))
    return Fraction(num, den)


def nonzero_rat(rng: random.Random, lo: int = 1, hi: int = 6) -> Fraction:
    return rat(rng, lo, hi) * rng.choice((1, -1)) or Fraction(1)


def rand_poly(rng: random.Random, degree: int = 2, vars3: bool = True):
    """Random polynomial with small rational coefficients."""
    gens = (X, Y, Z) if vars3 else (X, Y)
    out = ZERO
    for _ in range(rng.randint(1, 4)):
        term = ONE * rat(rng)
        for _ in range(rng.randint(0, degree)):
            term = term * rng.choice(gens)
        out = out + term
    return out


def rand_univariate(rng: random.Random, degree: int = 3):
    """Random one-variable polynomial in x, for shape functions."""
    out = ZERO
    for k in range(degree + 1):
        c = rat(rng)
        if c:
            out = out + X ** k * c
    if out == ZERO:
        out = X * X
    return out


def rand_field(rng: random.Random, degree: int = 2) -> VectorField:
    return VectorField(rand_poly(rng, degree), rand_poly(rng, degree),
                       rand_poly(rng, degree))


def along_b(field: VectorField, b: VectorField):
    """The scalar phi with field = phi b, read off a literal bracket by
    exact division: the oracle for the closure engine's scalars.  Fails
    when the bracket leaves the b line."""
    phi = proportional_to(field, b)
    assert phi is not None, f"{field} is not a multiple of {b}"
    return phi


def _signed(rng: random.Random, sign: int) -> Fraction:
    v = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
    return v * sign


def rand_params(rng: random.Random) -> Params:
    """Admissible parameters with pairwise independent gamma columns."""
    while True:
        g1 = [_signed(rng, +1) for _ in range(3)]
        g2 = [_signed(rng, -1), _signed(rng, -1), _signed(rng, +1)]
        det_ok = all(g1[i] * g2[j] - g1[j] * g2[i] != 0
                     for i in range(3) for j in range(i + 1, 3))
        if det_ok:
            break
    return Params.make(
        alpha=[_signed(rng, +1) for _ in range(3)],
        beta={"b11": _signed(rng, -1), "b12": _signed(rng, +1),
              "b13": _signed(rng, +1), "b22": _signed(rng, -1),
              "b22p": _signed(rng, -1), "b32": _signed(rng, +1),
              "b33": _signed(rng, -1)},
        gamma=[g1, g2],
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260817)
