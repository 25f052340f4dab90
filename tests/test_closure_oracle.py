"""sympy as an independent oracle for the closure verdicts.

For each closure golden, E is rebuilt from its descriptor text with
sympy alone: expr: through sympify, tanh: and char: through the formulas
in the README (F1 on the j-line, F2 on the i-line, F3 on the k-line).
The fields are written out, every bracket is formed literally with
sympy.diff, and each scalar is read along B.  A scalar is decided zero
by sympy.expand when E is a polynomial, and otherwise by mpmath at 50
digits (|v| < 1e-30) at three fixed rational points.  The verdicts must
match the CLI's report.  The oracle shares no code with the package.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from test_golden_reports import CASES, PARAMS, run_case

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

X, Y, Z = sympy.symbols("x y z")
COORDS = (X, Y, Z)
IDX = (1, 2, 3)
# (x, y) as (numerator, denominator) pairs, away from every pole
POINTS = (((1, 3), (2, 7)), ((-1, 2), (3, 5)), ((3, 4), (-1, 5)))
CLOSURE_GOLDENS = sorted(name for name in CASES
                         if name.startswith("closure_"))


def _params():
    raw = json.loads(Path(PARAMS).read_text(), parse_float=sympy.Rational,
                     parse_int=sympy.Rational)
    return raw["alpha"], raw["beta"], raw["gamma"]


def _shape(text, line):
    return sympy.sympify(text.replace("^", "**"), locals={"x": X}).subs(
        X, line)


def _e_from_descriptor(text, gamma):
    """E for a descriptor, from the README's formulas only."""
    kind, _, rest = text.partition(":")

    def g(row, i):
        return gamma[row - 1][i - 1]

    def line(i):
        return -g(2, i) * X + g(1, i) * Y

    if kind == "expr":
        return sympy.sympify(rest.replace("^", "**"),
                             locals={"x": X, "y": Y})
    if kind == "tanh":
        *consts, i = rest.split(",")
        c1, c2, c3, c4 = map(sympy.Rational, consts)
        i = int(i)
        return 1 / (c4 + c3 * sympy.tanh(
            (c1 * g(1, i) - c2 * g(2, i) * X + c2 * g(1, i) * Y) / g(1, i)))
    assert kind == "char"
    head, _, funcs = rest.partition(":")
    head = head.split(",")
    diag = head[-1] == "diag"
    idxs = [int(s) for s in head if s != "diag"]
    lines = [idxs[1], idxs[0], *idxs[2:]]  # F1 on j, F2 on i, F3 on k
    e = sum(_shape(f, line(k)) for f, k in zip(funcs.split(";"), lines))
    if diag:
        i, j = idxs[:2]
        e += X ** 2 / (2 * g(1, i) * g(1, j))
    return e


_MP_FUNCS = {sympy.tanh: mpmath.tanh, sympy.exp: mpmath.exp,
             sympy.sin: mpmath.sin, sympy.cos: mpmath.cos}


def _mp_value(v, memo):
    """v at the point memo starts from, in mpmath; memo holds the value
    of every subexpression met so far."""
    got = memo.get(v)
    if got is None:
        if v.is_Rational:
            got = mpmath.mpf(v.p) / v.q
        elif v.is_Add:
            got = mpmath.fsum(_mp_value(a, memo) for a in v.args)
        elif v.is_Mul:
            got = mpmath.fprod(_mp_value(a, memo) for a in v.args)
        elif v.is_Pow and v.exp.is_Integer:
            got = _mp_value(v.base, memo) ** int(v.exp)
        else:
            got = _MP_FUNCS[v.func](*(_mp_value(a, memo) for a in v.args))
        memo[v] = got
    return got


def bracket(f, g):
    """[f, g] = Dg f - Df g, formed with sympy.diff."""
    return tuple(sum(f[c] * sympy.diff(g[r], COORDS[c])
                     - g[c] * sympy.diff(f[r], COORDS[c]) for c in range(3))
                 for r in range(3))


def _oracle(descriptor, variant):
    """(delta3_failures, lambda_failures, b_central) from literal
    brackets."""
    alpha, beta, gamma = _params()
    e = _e_from_descriptor(descriptor, gamma)
    f0 = (alpha[0] + beta["b11"] * X + beta["b12"] * e,
          alpha[1] + beta["b22"] * Y + beta["b22p"] * e + beta["b13"] * Z,
          alpha[2] + beta["b32"] * Y + beta["b33"] * Z)
    f = {i: (gamma[0][i - 1], gamma[1][i - 1], 0) for i in IDX}
    b = (-beta["b12"], -beta["b22p"], 0)

    def along_b(v):
        return v[0] / b[0]  # b12 != 0 for admissible parameters

    if e.is_polynomial(X, Y):
        def is_zero(v):
            return sympy.expand(v) == 0
    else:
        with mpmath.workdps(50):
            memos = [{X: mpmath.mpf(xn) / xd, Y: mpmath.mpf(yn) / yd}
                     for (xn, xd), (yn, yd) in POINTS]

        def is_zero(v):
            with mpmath.workdps(50):
                return all(abs(_mp_value(v, memo)) < mpmath.mpf("1e-30")
                           for memo in memos)

    y = {k: bracket(f0, f[k]) for k in IDX}
    delta = {}
    for i, j in product(IDX, repeat=2):
        d = along_b(bracket(f[i], y[j]))
        if variant == "paper_2":
            d += ((gamma[0][i - 1] * gamma[1][j - 1]
                   + gamma[1][i - 1] * gamma[0][j - 1])
                  * sympy.diff(e, X, Y))
        delta[i, j] = tuple(d * bc for bc in b)
    delta3_failures = [[i, j, k] for i, j, k in product(IDX, repeat=3)
                       if not is_zero(along_b(bracket(f[k], delta[i, j])))]
    lambda_failures = [[i, j, k] for i, j, k in product(IDX, repeat=3)
                       if not is_zero(along_b(bracket(y[k], delta[i, j])))]
    b_central = [is_zero(along_b(bracket(y[k], b))) for k in IDX]
    return delta3_failures, lambda_failures, b_central


@pytest.mark.parametrize("name", CLOSURE_GOLDENS)
def test_closure_verdicts_match_literal_brackets(name):
    argv = CASES[name]
    variant = argv[argv.index("--cross") + 1] if "--cross" in argv \
        else "bracket_1"
    _, text = run_case(argv)
    report = json.loads(text)
    assert report["cross_variant"] == variant
    delta3_failures, lambda_failures, b_central = _oracle(
        argv[argv.index("--e") + 1], variant)
    assert report["delta3_failures"] == delta3_failures
    assert report["lambda_failures"] == lambda_failures
    assert report["b_central"] == b_central
