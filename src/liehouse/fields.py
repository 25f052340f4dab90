"""Vector fields on R^3 with exact symbolic coefficients.

A field f = cx d/dx + cy d/dy + cz d/dz acts on scalars as a derivation
and pairs with another field through the Lie bracket
[f, g] = f(g) - g(f), computed componentwise from formal partials.

proportional_to answers "is f a scalar multiple of ref" by dividing one
component exactly and then verifying the candidate multiple against all
three components.  The verification is the authority: a quotient that
does not reproduce f exactly means "not proportional", never an error.
"""

from __future__ import annotations

from .symbolic import (
    Expr, ZERO, add_all, as_expr, differentiate, to_text, _has_negative_power,
)

_COORDS = ("x", "y", "z")


class VectorField:
    """Instances compare and hash by their three components."""

    def __init__(self, cx: Expr, cy: Expr, cz: Expr):
        self.cx = cx
        self.cy = cy
        self.cz = cz

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    @staticmethod
    def of(cx, cy, cz) -> "VectorField":
        return VectorField(as_expr(cx), as_expr(cy), as_expr(cz))

    def components(self):
        return (self.cx, self.cy, self.cz)

    def is_zero_field(self) -> bool:
        return not (self.cx.terms or self.cy.terms or self.cz.terms)

    def scaled(self, phi) -> "VectorField":
        phi = as_expr(phi)
        return VectorField(phi * self.cx, phi * self.cy, phi * self.cz)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.cx + other.cx, self.cy + other.cy,
                           self.cz + other.cz)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.cx - other.cx, self.cy - other.cy,
                           self.cz - other.cz)

    def __neg__(self) -> "VectorField":
        return VectorField(-self.cx, -self.cy, -self.cz)

    def __str__(self):
        return f"({self.cx}, {self.cy}, {self.cz})"


ZERO_FIELD = VectorField(ZERO, ZERO, ZERO)


def gradient(phi) -> tuple:
    """The partials (phi_x, phi_y, phi_z)."""
    phi = as_expr(phi)
    return tuple(differentiate(phi, v) for v in _COORDS)


def along(f: VectorField, grad) -> Expr:
    """Directional derivative cx phi_x + cy phi_y + cz phi_z from the
    gradient of phi, summing only the pairs where both factors are
    nonzero; a caller that keeps a gradient reuses it across fields."""
    return add_all(comp * d for comp, d in zip(f.components(), grad)
                   if comp.terms and d.terms)


def apply_to_scalar(f: VectorField, phi) -> Expr:
    """Directional derivative f(phi) = cx phi_x + cy phi_y + cz phi_z."""
    return along(f, gradient(phi))


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """[f, g], antisymmetric and R-bilinear, satisfying Jacobi."""
    comps = []
    for gi, fi in zip(g.components(), f.components()):
        parts = []
        for fl, gl, v in zip(f.components(), g.components(), _COORDS):
            if fl.terms:
                parts.append(fl * differentiate(gi, v))
            if gl.terms:
                parts.append(-(gl * differentiate(fi, v)))
        comps.append(add_all(parts))
    return VectorField(*comps)


def exact_div(num: Expr, den: Expr) -> Expr | None:
    """Exact quotient num/den by a single-term divisor, or None when the
    division does not come out even.  The quotient never introduces
    negative powers absent from the inputs.  Multi-term divisors raise
    ValueError: proportional_to, the one caller, divides by a component
    of B, which is a constant or a single parameter atom."""
    num, den = as_expr(num), as_expr(den)
    if not den.terms:
        raise ZeroDivisionError("division by a zero expression")
    if len(den.terms) > 1:
        raise ValueError(
            f"exact_div takes single-term divisors only, got {to_text(den)}")
    if not num.terms:
        return ZERO
    q = num / den
    if q * den != num:
        return None
    if _has_negative_power(q) and not (_has_negative_power(num)
                                       or _has_negative_power(den)):
        return None
    return q


def proportional_to(f: VectorField, ref: VectorField) -> Expr | None:
    """Scalar phi with f = phi * ref, or None if no such multiple exists.

    The pivot is the first nonzero component of ref in the order x, y, z;
    the candidate from the pivot division must reproduce every component.
    """
    pivot_index = None
    for idx, comp in enumerate(ref.components()):
        if comp.terms:
            pivot_index = idx
            break
    if pivot_index is None:
        raise ValueError("reference field is zero")
    q = exact_div(f.components()[pivot_index], ref.components()[pivot_index])
    if q is None:
        return None
    for fc, rc in zip(f.components(), ref.components()):
        if q * rc != fc:
            return None
    return q
