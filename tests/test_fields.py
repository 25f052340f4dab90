"""Vector-field calculus: bracket laws, exact division, proportionality."""

import pytest

from liehouse.fields import (
    ZERO_FIELD, VectorField, apply_to_scalar, exact_div, lie_bracket,
    proportional_to,
)
from liehouse.symbolic import Expr, as_expr, var

from conftest import rand_field, rand_poly

X, Y, Z = var("x"), var("y"), var("z")


def test_apply_to_scalar_is_directional_derivative():
    f = VectorField(Y, X * -1, as_expr(0))
    assert apply_to_scalar(f, X * X + Y * Y) == as_expr(0)
    assert apply_to_scalar(f, X) == Y


def test_apply_to_scalar_leibniz(rng):
    for _ in range(10):
        f = rand_field(rng)
        g = rand_poly(rng)
        h = rand_poly(rng)
        assert apply_to_scalar(f, g * h) == \
            apply_to_scalar(f, g) * h + g * apply_to_scalar(f, h)


def test_bracket_antisymmetry_and_bilinearity(rng):
    for _ in range(8):
        f, g, h = rand_field(rng), rand_field(rng), rand_field(rng)
        assert lie_bracket(f, g) + lie_bracket(g, f) == ZERO_FIELD
        assert lie_bracket(f + g, h) == lie_bracket(f, h) + lie_bracket(g, h)
        assert lie_bracket(f, f).is_zero_field()


def test_bracket_is_commutator_of_derivations(rng):
    for _ in range(8):
        f, g = rand_field(rng), rand_field(rng)
        phi = rand_poly(rng)
        direct = apply_to_scalar(lie_bracket(f, g), phi)
        via = apply_to_scalar(f, apply_to_scalar(g, phi)) \
            - apply_to_scalar(g, apply_to_scalar(f, phi))
        assert direct == via


def test_bracket_jacobi(rng):
    for _ in range(6):
        f, g, h = rand_field(rng), rand_field(rng), rand_field(rng)
        total = lie_bracket(f, lie_bracket(g, h)) \
            + lie_bracket(g, lie_bracket(h, f)) \
            + lie_bracket(h, lie_bracket(f, g))
        assert total.is_zero_field()


def test_constant_fields_commute():
    f = VectorField(as_expr(2), as_expr(-1), as_expr(0))
    g = VectorField(as_expr(1), as_expr(3), as_expr(0))
    assert lie_bracket(f, g).is_zero_field()


def test_field_arithmetic():
    f = VectorField(X, Y, Z)
    assert (f - f).is_zero_field()
    assert (-f + f).is_zero_field()
    assert f.scaled(as_expr(2)).cx == X * 2
    assert VectorField.of(1, 0, 0).cx == as_expr(1)


def test_fields_compare_and_hash_by_components():
    f = VectorField(X, Y, Z)
    same = VectorField(cx=X, cy=Y, cz=as_expr(0) + Z)
    assert f == same and not f != same
    assert hash(f) == hash(same)
    assert f != VectorField(X, Z, Y) and not f == VectorField(X, Z, Y)
    assert VectorField.of(0, 0, 0) == ZERO_FIELD
    assert f != (X, Y, Z)


def test_exact_div_monomial_and_polynomial():
    num = X * X * Y * 6
    assert exact_div(num, X * Y * 2) == X * 3
    assert exact_div(X * X + Y, X) is None
    p = (X * 2 + Y * 3 + as_expr(1)) * (X * X - Y + as_expr(5))
    assert exact_div(p * X * 4, X * 4) == p
    # polynomial divisors were dropped: proportional_to only ever
    # divides by a constant or a single parameter atom
    with pytest.raises(ValueError):
        exact_div(X * X - Y * Y, X + Y)
    with pytest.raises(ValueError):
        exact_div(p, X * 2 + Y * 3 + as_expr(1))


def test_exact_div_random_products(rng):
    for _ in range(15):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if not a.terms or not b.terms:
            continue
        lead = Expr((b.terms[-1],))
        assert exact_div(a * lead, lead) == a
        if lead.terms[0][0]:
            # lead divides a*lead + 1 only if lead is a unit
            assert exact_div(a * lead + as_expr(1), lead) is None
        if len(b.terms) > 1:
            with pytest.raises(ValueError):
                exact_div(a * b, b)


def test_proportional_to_finds_scalar():
    b = VectorField(as_expr(-2), as_expr(1), as_expr(0))
    phi = X * X + Y
    assert proportional_to(b.scaled(phi), b) == phi
    assert proportional_to(ZERO_FIELD, b) == as_expr(0)
    assert proportional_to(VectorField(X, X, as_expr(0)), b) is None
    assert proportional_to(VectorField(as_expr(-2), as_expr(1), X), b) is None
    with pytest.raises(ValueError):
        proportional_to(b, ZERO_FIELD)
