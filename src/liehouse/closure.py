"""Bracket-closure operators for the greenhouse system.

Iterated brackets of the drift f0 with the constant control fields f_i
stay inside the span of {f_i, [f0, f_i], B} exactly when three families
of scalars behave:

    Delta_ij  E . B = [f_i, [f0, f_j]]          second order in E
    Delta_ijk E . B = [f_k, Delta_ij E . B]     third order in E
    Lambda_ijk E . B = [[f0, f_k], Delta_ij E . B]

No full bracket is built for any of them.  Each bracket pairs a
constant field (f_k or B) with another field, so each scalar is a
directional derivative of E (see ClosureEngine): Delta_ij = D_i D_j E
and Delta_ijk = D_k Delta_ij with the constant derivations D_i of the
controls.  Lambda uses the Leibniz rule: B is a constant field with
[Y_k, B] = s_k B (Y_k = [f0, f_k]), so [Y_k, phi B] = (Y_k(phi) +
phi s_k) B.  The scan decides Lambda on those Leibniz pieces,
sum_c (Y_k)_c d_c(Delta_ij) + s_k Delta_ij (symbolic.is_zero_products):
when every factor is polynomial, read at a fixed point modulo a prime
and multiplied out and decided exactly only when that residue is 0,
otherwise sampled factor by factor and multiplied out only when the
samples read zero.  The canonical form makes each scalar the same Expr
as the literal bracket read back along B by exact division, which the
tests build with fields.lie_bracket and proportional_to as their
oracle, and closed-form coefficient expansions are provided
separately for cross-checking.  The closed form of Delta_ij circulates
in two versions that differ in the mixed-partial coefficient: the
bracket expansion gives (g_1i g_2j + g_2i g_1j) E_xy, while a doubled
coefficient also appears in print.  Both are available via
cross_variant ("bracket_1", the default, and "paper_2"), and both start
from the bracket's scalar: paper_2 adds one more
(g_1i g_2j + g_2i g_1j) E_xy to it.  The bracket's scalar is canonical
and the doubled version is reported as a deviation when the two
disagree.

The span {X_i = f_i, Y_i = [f0, f_i], Z = B} has seven abstract
generators; check_closure reports whether the scalars make the
multiplication table that of a two-step nilpotent algebra.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

from .fields import VectorField, along, gradient
from .model import Params, build_fields
from .symbolic import (
    E, ZERO, Expr, differentiate, epartial, is_zero, is_zero_products,
    substitute, to_text,
)

CROSS_VARIANTS = ("bracket_1", "paper_2")

_INDICES = (1, 2, 3)


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
    """The model fields and the closure scalars for one (params, E)
    pair.  e None leaves E formal in f0; otherwise e, closed over the
    parameters, is written where E enters f0.  cross_variant selects
    the mixed-partial coefficient of Delta_ij: the bracket's own for
    "bracket_1", twice that for "paper_2"; every operator built on
    Delta_ij follows that choice.

    Every scalar is a directional derivative of E; no bracket is built.
    The drift is f0 = A + M s - E B with the constant vector A, the
    constant matrix M, the state s = (x, y, z) and the constant field
    B.  Write D_v = v_x d/dx + v_y d/dy + v_z d/dz.  The controls f_k
    and B are constant, so [v, g] = D_v g for a constant field v, and:

        Y_k = [f0, f_k] = -D_k f0 = (D_k E) B - M f_k
        [f_i, Y_j] = (D_i D_j E) B,      Delta_ij = D_i D_j E
        [Y_k, B] = -D_B Y_k = -(D_B D_k E) B,   s_k = -D_B D_k E

    The first-order tables are built once, here: D_k E and its gradient
    for each k, Y_k, s_k and the six distinct Delta_ij, on which
    delta(i, j) and delta(j, i) are one object.  closure and check-e
    read every table, and bracket reads Y_k and Delta_ij.  The fields
    are built with E = 0, so the drift read there is A + M s: f0 is it
    minus E B, and M f_k is D_k of it, a constant vector read off the
    gradients of its three components.  The canonical form makes each
    derived Expr equal to the one read off the literal bracket, so the
    bracket subcommand prints y and delta.

    grad and delta3 stay lazy, cached per sorted pair or triple: on a
    deep transcendental nest they cost far more than the tables (tanh
    nested four times around x*y: the six grads take some sixteen times
    as long as the tables, and Delta3 three more), and bracket reads
    neither.  grad(i, j) differentiates each distinct Delta_ij once per
    coordinate, and delta3 and lam_pieces read that one gradient.  The
    derivatives of single atoms are memoized on the atoms (see
    symbolic), so building an engine touches no kernel state."""

    def __init__(self, p: Params, e: Expr | None = None,
                 cross_variant: str = "bracket_1"):
        _check_variant(cross_variant)
        self.cross_variant = cross_variant
        # build_fields makes the one sign check, and it must come before
        # p.close, which may divide by a parameter an inadmissible p zeroes
        drift, *controls, self.b = build_fields(p, ZERO)
        e = E if e is None else p.close(e)
        self.f0 = drift - self.b.scaled(e)
        self.controls = tuple(controls)
        e_grad = gradient(e)
        drift_grads = [gradient(c) for c in drift.components()]
        de_grads = []
        self._y = []
        self._s = []
        for fk in controls:
            dke = along(fk, e_grad)
            de_grads.append(gradient(dke))
            m_fk = VectorField(*(along(fk, g) for g in drift_grads))
            self._y.append(self.b.scaled(dke) - m_fk)
            self._s.append(-along(self.b, de_grads[-1]))
        # paper_2 adds (g_1i g_2j + g_2i g_1j) E_xy, symmetric in (i, j)
        e_xy = differentiate(e_grad[0], "y") \
            if cross_variant == "paper_2" else None
        self._delta = {}
        for i, j in combinations_with_replacement(_INDICES, 2):
            fi, fj = controls[i - 1], controls[j - 1]
            d = along(fi, de_grads[j - 1])
            if e_xy is not None:
                d = d + (fi.cx * fj.cy + fi.cy * fj.cx) * e_xy
            self._delta[i, j] = self._delta[j, i] = d
        self._grad: dict = {}
        self._delta3: dict = {}

    def control(self, i: int) -> VectorField:
        _check_index(i)
        return self.controls[i - 1]

    def y(self, k: int) -> VectorField:
        """[f0, f_k] = (D_k E) B - M f_k."""
        _check_index(k)
        return self._y[k - 1]

    def delta(self, i: int, j: int) -> Expr:
        """Scalar of [f_i, [f0, f_j]] along B, D_i D_j E, read off the
        gradient of D_j E.  paper_2 adds (g_1i g_2j + g_2i g_1j) E_xy to
        it, doubling the mixed-partial coefficient, which is all that
        sets the two variants apart.

        One object for (i, j) and (j, i): the controls are constant, so
        by Jacobi [f_i, [f0, f_j]] - [f_j, [f0, f_i]] = [f0, [f_i, f_j]]
        = 0, and the added paper_2 term is symmetric in (i, j) by its
        form."""
        _check_index(i, j)
        return self._delta[i, j]

    def grad(self, i: int, j: int) -> tuple:
        """gradient(delta(i, j)), the partials in x, y and z, cached on
        the sorted pair as delta is."""
        _check_index(i, j)
        key = (i, j) if i <= j else (j, i)
        got = self._grad.get(key)
        if got is None:
            got = self._grad[key] = gradient(self._delta[key])
        return got

    def delta3(self, i: int, j: int, k: int) -> Expr:
        """f_k applied to delta(i, j), read off the cached grad(i, j);
        equals the scalar of [f_k, delta(i,j) B] because the f_k are
        constant and commute with B.

        Cached on the sorted (i, j), and under bracket_1 on the fully
        sorted triple: there Delta_ij = D_i D_j E with the constant
        derivations D_i = gamma_1i d/dx + gamma_2i d/dy, so Delta_ijk =
        D_k D_i D_j E is symmetric in all three indices.  The doubled
        paper_2 cross term breaks that, so k stays in place there."""
        _check_index(i, j, k)
        if self.cross_variant == "bracket_1":
            key = tuple(sorted((i, j, k)))
        else:
            key = (i, j, k) if i <= j else (j, i, k)
        got = self._delta3.get(key)
        if got is None:
            i, j, k = key
            got = self._delta3[key] = along(self.controls[k - 1],
                                            self.grad(i, j))
        return got

    def lam_pieces(self, i: int, j: int, k: int) -> list:
        """The Leibniz pieces of [[f0, f_k], delta(i,j) B] along B, not
        multiplied out: the pairs ((Y_k)_c, d_c delta(i, j)) for c = x,
        y, z and (s_k, delta(i, j)) with s_k = b_drift_factor(k), each
        kept only when both factors are nonzero.  Every factor is read
        from the tables (y, b_drift_factor, delta) or from grad."""
        _check_index(i, j, k)
        pairs = list(zip(self.y(k).components(), self.grad(i, j)))
        pairs.append((self.b_drift_factor(k), self.delta(i, j)))
        return [(a, b) for a, b in pairs if a.terms and b.terms]

    def lam_with(self, k: int, phi: Expr) -> Expr:
        """Scalar of [[f0, f_k], phi B] along B for any scalar phi, by
        the Leibniz rule Y_k(phi) + phi s_k; lam_with(k, 1) is s_k."""
        _check_index(k)
        return along(self.y(k), gradient(phi)) + \
            phi * self.b_drift_factor(k)

    def b_drift_factor(self, k: int) -> Expr:
        """Scalar s_k with [[f0, f_k], B] = s_k B, -D_B D_k E read off
        the gradient of D_k E; a nonzero value means B fails to be
        central against the Y_k directions.  [Y_k, B] stays on the B
        line by construction (see ClosureEngine), which the Leibniz rule
        of lam_pieces and lam_with relies on."""
        _check_index(k)
        return self._s[k - 1]


def _bind_e(expr: Expr, e: Expr | None) -> Expr:
    return expr if e is None else substitute(expr, {E: e})


def delta_ij_formula(p: Params, e: Expr | None, i: int, j: int,
                     cross_variant: str = "bracket_1") -> Expr:
    """Coefficient expansion of Delta_ij over the second partials of E,
    the independent oracle for ClosureEngine.delta under either variant.

    bracket_1 puts (g_1i g_2j + g_2i g_1j) on E_xy, matching the
    bracket route; paper_2 doubles that coefficient.
    """
    _check_variant(cross_variant)
    _check_index(i, j)

    def g(row, idx):
        return p.gamma_entry(row, idx)

    cross = g(1, i) * g(2, j) + g(2, i) * g(1, j)
    if cross_variant == "paper_2":
        cross = 2 * cross
    out = (g(1, i) * g(1, j) * epartial(2, 0)
           + cross * epartial(1, 1)
           + g(2, i) * g(2, j) * epartial(0, 2))
    return p.close(_bind_e(out, e))


def delta_ijk_formula(p: Params, e: Expr | None, i: int, j: int,
                      k: int) -> Expr:
    """Coefficient expansion of Delta_ijk (ClosureEngine.delta3): pure
    third partials carry the products g_1i g_1j g_1k and g_2i g_2j g_2k,
    and the mixed partials E_xxy / E_xyy sum gamma products over the
    magic rows with sums 4 and 5."""
    _check_index(i, j, k)

    def g(row, idx):
        return p.gamma_entry(row, idx)

    def magic_sum(n):
        total = 0
        for s1, s2, s3 in magic_tuples(3, n):
            total = total + g(s1, i) * g(s2, j) * g(s3, k)
        return total

    out = (g(1, i) * g(1, j) * g(1, k) * epartial(3, 0)
           + magic_sum(4) * epartial(2, 1)
           + magic_sum(5) * epartial(1, 2)
           + g(2, i) * g(2, j) * g(2, k) * epartial(0, 3))
    return p.close(_bind_e(out, e))


class ClosureReport:
    """Outcome of the full closure scan for one (params, E) pair.
    Reports compare equal when every field does."""

    def __init__(self, c: list, constant_ok: list, delta3_zero: dict,
                 lambda_zero: dict, b_central: list, cross_variant: str,
                 seed: int):
        self.c = c                      # 3x3 delta scalars (Expr)
        self.constant_ok = constant_ok  # 3x3: delta_ij is constant
        self.delta3_zero = delta3_zero  # (i,j,k) -> bool
        self.lambda_zero = lambda_zero  # (i,j,k) -> bool
        self.b_central = b_central      # per k: [[f0,f_k],B] vanishes
        self.cross_variant = cross_variant
        self.seed = seed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_dict(self) -> dict:
        # c[i][j] is c[j][i], one object: render each distinct entry once
        distinct = {id(x): x for row in self.c for x in row}
        text = {key: to_text(x) for key, x in distinct.items()}
        c_text = [[text[id(x)] for x in row] for row in self.c]
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
            "cross_variant": self.cross_variant,
            "seed": self.seed,
        }


def check_closure(p: Params, e: Expr | None = None,
                  cross_variant: str = "bracket_1",
                  seed: int = 0) -> ClosureReport:
    """Scan all closure conditions and build the structure scalars.

    Zero decisions are exact on the polynomial fragment and sampled
    from the single seed once transcendental or reciprocal atoms appear
    (see is_zero).  Each distinct condition is decided once: the engine
    returns one cached object per distinct Delta_ijk (10 of 27 under
    bracket_1) and s_k, and the scan keeps one verdict per object.
    Lambda_ijk is decided on its Leibniz pieces (ClosureEngine.lam_pieces)
    by is_zero_products, once per unordered (i, j), because the pieces
    are symmetric in i and j.  Pieces free of transcendental and
    reciprocal atoms are read at a fixed point modulo the prime 2^61 - 1:
    a nonzero residue proves Lambda nonzero, and only a residue of 0 is
    multiplied out and decided exactly.  Neither draws from the seed.
    Otherwise the pieces are sampled without being multiplied out, and
    only a sum they read as zero is expanded and decided by is_zero, so
    a zero verdict is always is_zero's on the expanded Lambda.  The
    pieces' points are drawn over their own base atoms, so later draws
    from the seed may differ from those of sampling the expanded sum
    alone.

    For admissible parameters f1 and f3 are independent in the (x, y)
    plane: gamma11 gamma23 - gamma13 gamma21 > 0 under the sign
    constraints, a nonzero polynomial for symbolic parameters.  So
    grad Delta_ij = 0 exactly when D_1 Delta_ij = D_3 Delta_ij = 0, and
    constant_ok[i][j] is delta3_zero[i, j, 1] and delta3_zero[i, j, 3],
    not a decision of its own.

    No zero decision is made on c.  c = G^T H G, with G the 2x3 gammas
    and H the form of E's second partials (the mixed one scaled by the
    variant), so det c = 0, and c is never diagonal with every c_ii
    nonzero (the Heisenberg case): were f1, f2, f3 pairwise H-orthogonal
    with nonzero H-norms, f2 = a f1 + b f3 would give a H(f1, f1) = 0 =
    b H(f3, f3), so a = b = 0, but f2 != 0.

    No pointwise rank of the seven generators is reported: it is 3 at
    every state and for every E, since [f0, f1] adds the constant
    z-component -beta32 gamma21 != 0 (E enters only the x and y
    components of f0).
    """
    rng = random.Random(seed)
    engine = ClosureEngine(p, e, cross_variant)
    verdicts = {}

    def zero(expr: Expr) -> bool:
        # by id: cheaper than hashing a sum; the engine keeps it alive
        got = verdicts.get(id(expr))
        if got is None:
            got = verdicts[id(expr)] = is_zero(expr, rng)
        return got

    c = [[engine.delta(i, j) for j in _INDICES] for i in _INDICES]

    delta3_zero = {}
    lambda_zero = {}
    for i, j, k in product(_INDICES, repeat=3):
        delta3_zero[i, j, k] = zero(engine.delta3(i, j, k))
        # lam_pieces(i, j, k) is lam_pieces(j, i, k), decided already
        lambda_zero[i, j, k] = lambda_zero[j, i, k] if j < i else \
            is_zero_products(engine.lam_pieces(i, j, k), rng)
    constant_ok = [[delta3_zero[i, j, 1] and delta3_zero[i, j, 3]
                    for j in _INDICES] for i in _INDICES]

    b_central = [zero(engine.b_drift_factor(k)) for k in _INDICES]

    return ClosureReport(c, constant_ok, delta3_zero, lambda_zero,
                         b_central, cross_variant, seed)
