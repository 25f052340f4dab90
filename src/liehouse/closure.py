"""Bracket-closure operators for the greenhouse system.

Iterated brackets of the drift f0 with the constant control fields f_i
stay inside the span of {f_i, [f0, f_i], B} exactly when three families
of scalars behave:

    Delta_ij  E . B = [f_i, [f0, f_j]]          second order in E
    Delta_ijk E . B = [f_k, Delta_ij E . B]     third order in E
    Lambda_ijk E . B = [[f0, f_k], Delta_ij E . B]

Every operator is computed here from the brackets themselves (the
oracle route); closed-form coefficient expansions are provided
separately for cross-checking.  The closed form of Delta_ij circulates
in two versions that differ in the mixed-partial coefficient: the
bracket expansion gives (g_1i g_2j + g_2i g_1j) E_xy, while a doubled
coefficient also appears in print.  Both are available via
cross_variant ("bracket_1", the default, and "paper_2"); the bracket
route is canonical and the doubled version is reported as a deviation
when the two disagree.

The span {X_i = f_i, Y_i = [f0, f_i], Z = B} has seven abstract
generators; check_closure reports whether the scalars make the
multiplication table that of a two-step nilpotent algebra and whether
it is the Heisenberg-like diagonal case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .fields import VectorField, apply_to_scalar, lie_bracket, proportional_to
from .model import Params, build_fields
from .symbolic import (
    E, Expr, all_atoms, as_expr, differentiate, epartial, is_zero,
    substitute, to_text, _RECIP,
)

CROSS_VARIANTS = ("bracket_1", "paper_2")

_INDICES = (1, 2, 3)


class ClosureDefectError(RuntimeError):
    """An iterated bracket left the B line; the model structure rules
    this out, so reaching it signals an internal inconsistency."""


def magic_tuples(k: int, n: int):
    """Rows of the k-wide magic table with entries in {1, 2} and row sum
    n: all distinct k-tuples over {1, 2} summing to n, sorted."""
    if k < 1:
        raise ValueError("k must be at least 1")
    out = []
    for mask in range(2 ** k):
        row = tuple(1 + ((mask >> pos) & 1) for pos in range(k))
        if sum(row) == n:
            out.append(row)
    return sorted(out)


def _check_variant(cross_variant: str) -> None:
    if cross_variant not in CROSS_VARIANTS:
        raise ValueError(
            f"cross_variant must be one of {CROSS_VARIANTS}, "
            f"got {cross_variant!r}")


def _check_index(*indices: int) -> None:
    for i in indices:
        if i not in _INDICES:
            raise ValueError(f"index must be 1, 2 or 3, got {i}")


class ClosureEngine:
    """Caches the model fields and repeated brackets for one (params, E)
    pair.  e_binding None leaves E formal; otherwise E and all of its
    partials are replaced by the bound expression and its derivatives.
    cross_variant selects the Delta_ij route: the bracket for
    "bracket_1", the doubled coefficient expansion for "paper_2"; every
    operator built on Delta_ij follows that choice."""

    def __init__(self, p: Params, e_binding: Optional[Expr] = None,
                 cross_variant: str = "bracket_1"):
        _check_variant(cross_variant)
        self.params = p
        self.cross_variant = cross_variant
        if e_binding is not None and not p.is_symbolic():
            e_binding = substitute(e_binding, p.bindings())
        self.e_binding = e_binding
        f0, f1, f2, f3, b = build_fields(p)
        if e_binding is not None:
            bind = {E: e_binding}
            f0 = VectorField(*(substitute(c, bind) for c in f0.components()))
        self.f0 = f0
        self.controls = (f1, f2, f3)
        self.b = b
        self._y: dict = {}
        self._delta: dict = {}

    def control(self, i: int) -> VectorField:
        _check_index(i)
        return self.controls[i - 1]

    def y(self, k: int) -> VectorField:
        """[f0, f_k], cached."""
        _check_index(k)
        got = self._y.get(k)
        if got is None:
            got = lie_bracket(self.f0, self.control(k))
            self._y[k] = got
        return got

    def _multiple_of_b(self, field: VectorField, what: str) -> Expr:
        phi = proportional_to(field, self.b)
        if phi is None:
            raise ClosureDefectError(
                f"{what} is not a multiple of B; components "
                f"({to_text(field.cx)}, {to_text(field.cy)}, "
                f"{to_text(field.cz)})")
        return phi

    def delta(self, i: int, j: int) -> Expr:
        """Scalar of [f_i, [f0, f_j]] along B, or its paper_2
        coefficient expansion when that variant is selected."""
        _check_index(i, j)
        got = self._delta.get((i, j))
        if got is None:
            if self.cross_variant == "bracket_1":
                br = lie_bracket(self.control(i), self.y(j))
                got = self._multiple_of_b(br, f"[f_{i}, [f0, f_{j}]]")
            else:
                got = delta_ij_formula(self.params, self.e_binding, i, j,
                                       self.cross_variant)
            self._delta[(i, j)] = got
        return got

    def delta3(self, i: int, j: int, k: int) -> Expr:
        """f_k applied to delta(i, j); equals the scalar of
        [f_k, delta(i,j) B] because the f_k are constant and commute
        with B."""
        _check_index(i, j, k)
        return apply_to_scalar(self.control(k), self.delta(i, j))

    def delta3_bracket(self, i: int, j: int, k: int) -> Expr:
        """Same scalar through the literal bracket route."""
        br = lie_bracket(self.control(k), self.b.scaled(self.delta(i, j)))
        return self._multiple_of_b(br, f"[f_{k}, Delta_{i}{j} B]")

    def lam(self, i: int, j: int, k: int) -> Expr:
        """Scalar of [[f0, f_k], delta(i,j) B] along B."""
        _check_index(i, j, k)
        return self.lam_with(k, self.delta(i, j), f"Delta_{i}{j}")

    def lam_with(self, k: int, phi: Expr, label: str = "phi") -> Expr:
        """Scalar of [[f0, f_k], phi B] along B for any scalar phi."""
        _check_index(k)
        br = lie_bracket(self.y(k), self.b.scaled(phi))
        return self._multiple_of_b(br, f"[[f0, f_{k}], {label} B]")

    def b_drift_factor(self, k: int) -> Expr:
        """Scalar s with [[f0, f_k], B] = s B; a nonzero value means B
        fails to be central against the Y_k directions (diagnostic)."""
        _check_index(k)
        return self._multiple_of_b(
            lie_bracket(self.y(k), self.b), f"[[f0, f_{k}], B]")


def _bind_e(expr: Expr, e_binding: Optional[Expr]) -> Expr:
    if e_binding is None:
        return expr
    return substitute(expr, {E: e_binding})


def delta_ij(p: Params, e: Optional[Expr], i: int, j: int) -> Expr:
    """Second-order closure scalar by the bracket route."""
    return ClosureEngine(p, e).delta(i, j)


def delta_ij_formula(p: Params, e: Optional[Expr], i: int, j: int,
                     cross_variant: str = "bracket_1") -> Expr:
    """Coefficient expansion of delta_ij over the second partials of E.

    bracket_1 puts (g_1i g_2j + g_2i g_1j) on E_xy, matching the
    bracket route; paper_2 doubles that coefficient.
    """
    _check_variant(cross_variant)
    _check_index(i, j)

    def g(row, idx):
        return as_expr(p.gamma_entry(row, idx))

    cross = g(1, i) * g(2, j) + g(2, i) * g(1, j)
    if cross_variant == "paper_2":
        cross = 2 * cross
    out = (g(1, i) * g(1, j) * epartial(2, 0)
           + cross * epartial(1, 1)
           + g(2, i) * g(2, j) * epartial(0, 2))
    if p.is_symbolic():
        return _bind_e(out, e)
    return substitute(_bind_e(out, e), p.bindings())


def delta_ijk(p: Params, e: Optional[Expr], i: int, j: int, k: int) -> Expr:
    """Third-order closure scalar by the bracket route."""
    return ClosureEngine(p, e).delta3(i, j, k)


def delta_ijk_formula(p: Params, e: Optional[Expr], i: int, j: int,
                      k: int) -> Expr:
    """Coefficient expansion of delta_ijk: pure third partials carry the
    products g_1i g_1j g_1k and g_2i g_2j g_2k, and the mixed partials
    E_xxy / E_xyy sum gamma products over the magic rows with sums 4
    and 5."""
    _check_index(i, j, k)

    def g(row, idx):
        return as_expr(p.gamma_entry(row, idx))

    def magic_sum(n):
        total = as_expr(0)
        for s1, s2, s3 in magic_tuples(3, n):
            total = total + g(s1, i) * g(s2, j) * g(s3, k)
        return total

    out = (g(1, i) * g(1, j) * g(1, k) * epartial(3, 0)
           + magic_sum(4) * epartial(2, 1)
           + magic_sum(5) * epartial(1, 2)
           + g(2, i) * g(2, j) * g(2, k) * epartial(0, 3))
    if p.is_symbolic():
        return _bind_e(out, e)
    return substitute(_bind_e(out, e), p.bindings())


def lambda_ijk(p: Params, e: Optional[Expr], i: int, j: int, k: int) -> Expr:
    """Mixed closure scalar [[f0, f_k], Delta_ij E . B] = Lambda B by
    the bracket route.  No transcription of the long coefficient
    expansion is kept; the bracket is the defining computation."""
    return ClosureEngine(p, e).lam(i, j, k)


@dataclass
class ClosureReport:
    """Outcome of the full closure scan for one (params, E) pair."""

    c: list                    # 3x3 delta scalars (Expr)
    constant_ok: list          # 3x3 bools: delta_ij has zero x/y derivative
    delta3_zero: dict          # (i,j,k) -> bool
    lambda_zero: dict          # (i,j,k) -> bool
    b_central: list            # per k: [[f0,f_k],B] vanishes
    heisenberg: bool
    mode: str
    cross_variant: str
    seed: int

    def to_dict(self) -> dict:
        c_text = [[to_text(self.c[i][j]) for j in range(3)] for i in range(3)]
        delta3_fail = sorted(k for k, ok in self.delta3_zero.items() if not ok)
        lambda_fail = sorted(k for k, ok in self.lambda_zero.items() if not ok)
        return {
            "c": c_text,
            "constant_ok": [list(row) for row in self.constant_ok],
            "delta3_zero": not delta3_fail,
            "delta3_failures": [list(k) for k in delta3_fail],
            "lambda_zero": not lambda_fail,
            "lambda_failures": [list(k) for k in lambda_fail],
            "b_central": list(self.b_central),
            "heisenberg": self.heisenberg,
            "mode": self.mode,
            "cross_variant": self.cross_variant,
            "seed": self.seed,
        }


def check_closure(p: Params, e: Optional[Expr] = None,
                  cross_variant: str = "bracket_1",
                  seed: int = 0) -> ClosureReport:
    """Scan all closure conditions and build the structure scalars.

    Zero decisions are exact on the polynomial fragment and sampled
    from the single seed once transcendental or reciprocal atoms appear
    (see is_zero).  The report's mode is a label of the input, not a
    setting: "numeric" when a reciprocal atom occurs in E or in some
    Delta_ij (the tanh quotient family, for instance), "symbolic"
    otherwise.  A "symbolic" label does not mean every decision was
    exact: a tanh, exp, sin or cos atom alone already makes is_zero
    sample.

    No pointwise rank of the seven generators is reported, because for
    admissible parameters it is 3 at every state and for every E: f1
    and f3 are independent in the (x, y) plane (gamma11 gamma23 -
    gamma13 gamma21 > 0 under the sign constraints), and [f0, f1] has
    the constant z-component -beta32 gamma21 != 0, since E enters only
    the x and y components of f0.
    """
    rng = random.Random(seed)
    engine = ClosureEngine(p, e, cross_variant)

    c = [[engine.delta(i, j) for j in _INDICES] for i in _INDICES]
    scanned = [cij for row in c for cij in row]
    if engine.e_binding is not None:
        scanned.append(engine.e_binding)
    recip = any(atom.kind == _RECIP
                for expr in scanned for atom in all_atoms(expr))

    constant_ok = [[is_zero(differentiate(c[i][j], "x"), rng)
                    and is_zero(differentiate(c[i][j], "y"), rng)
                    for j in range(3)] for i in range(3)]

    delta3_zero = {}
    lambda_zero = {}
    for ijk in product(_INDICES, repeat=3):
        delta3_zero[ijk] = is_zero(engine.delta3(*ijk), rng)
        lambda_zero[ijk] = is_zero(engine.lam(*ijk), rng)

    b_central = [is_zero(engine.b_drift_factor(k), rng) for k in _INDICES]

    diag_nonzero = all(not is_zero(c[i][i], rng) for i in range(3))
    offdiag_zero = all(is_zero(c[i][j], rng)
                       for i in range(3) for j in range(3) if i != j)
    heisenberg = (all(all(row) for row in constant_ok)
                  and all(delta3_zero.values())
                  and all(lambda_zero.values())
                  and offdiag_zero and diag_nonzero)

    return ClosureReport(
        c=c, constant_ok=constant_ok, delta3_zero=delta3_zero,
        lambda_zero=lambda_zero, b_central=b_central,
        heisenberg=heisenberg,
        mode="numeric" if recip else "symbolic",
        cross_variant=cross_variant, seed=seed)
