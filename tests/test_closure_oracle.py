"""sympy as an independent oracle for the closure verdicts.

For each closure golden, E is rebuilt from its descriptor text with
sympy alone: expr: through sympify, tanh: and char: through the formulas
in the README (F1 on the j-line, F2 on the i-line, F3 on the k-line).
The fields are written out, every bracket is formed literally with
sympy.diff, and each scalar is read along B.  A scalar is decided zero
by sympy.expand when E is a Laurent polynomial (a polynomial in x, y,
1/x and 1/y), and otherwise by mpmath at 50 digits (|v| < 1e-30) at
three fixed rational points.  The verdicts must match the CLI's report.
The oracle shares no code with the package.

Besides the goldens, seeded Laurent candidates (a full cubic, four
polynomials, a char on polynomial shapes and two with negative powers)
are checked under both cross variants, together with the report's c,
and one candidate whose zero Lambda sums have nonzero pieces that
cancel.  Two seeded tanh candidates and two seeded char candidates on
tanh, exp and sin shapes are checked under both cross variants, their c
against the literal Delta_ij at the three points.
"""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from liehouse import ClosureEngine, Params, parse
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
VARIANTS = ("bracket_1", "paper_2")


def _seeded_e(seed, exponents, cubic=False):
    """expr: text of four seeded monomials x^a y^b of degree |a| + |b|
    from 1 to 3, a and b drawn from exponents (cubic: x^3, x^2 y, x y^2
    and y^3), plus a constant."""
    rng = random.Random(seed)
    if cubic:
        monomials = [(3, 0), (2, 1), (1, 2), (0, 3)]
    else:
        monomials = rng.sample([(a, b) for a in exponents for b in exponents
                                if 0 < abs(a) + abs(b) <= 3], 4)
    text = ""
    for a, b in monomials + [(0, 0)]:
        coeff = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 4)))
        coeff *= rng.choice((1, -1))
        if text:
            text += " - " if coeff < 0 else " + "
        elif coeff < 0:
            text = "-"
        text += "*".join([str(abs(coeff))] + [f"x^{a}"] * (a != 0)
                         + [f"y^{b}"] * (b != 0))
    return "expr:" + text


def _seeded_char(seed):
    """char: text of two seeded polynomial shapes on characteristic
    lines, whose Delta_ij vanishes under bracket_1."""
    rng = random.Random(seed)
    i, j = rng.sample(IDX, 2)
    shapes = rng.sample(("x^2", "x^3", "x^3 - 2*x", "1/2*x^2 - x"), 2)
    return f"char:{i},{j}:" + ";".join(shapes)


def _seeded_tanh(seed):
    """tanh: text of seeded nonzero constants, with |C4| > |C3| so that
    E has no pole, on a seeded channel."""
    rng = random.Random(seed)
    c1, c2 = (Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 4)))
              * rng.choice((1, -1)) for _ in range(2))
    c3 = Fraction(rng.choice((1, 3)), 2) * rng.choice((1, -1))
    c4 = Fraction(rng.choice((2, 3, 5)), rng.choice((1, 2))) + abs(c3)
    return f"tanh:{c1},{c2},{c3},{c4},{rng.choice(IDX)}"


def _seeded_char_trig(seed):
    """char: text of a tanh, an exp and a sin shape, each of a seeded
    multiple of x, on the three characteristic lines in seeded order."""
    rng = random.Random(seed)
    lines = ",".join(map(str, rng.sample(IDX, 3)))
    shapes = [f"{f}({rng.choice(('x', '2*x', '-x', 'x/2'))})"
              for f in rng.sample(("tanh", "exp", "sin"), 3)]
    return f"char:{lines}:" + ";".join(shapes)


# decided by the mpmath walk
TRANSCENDENTAL = {**{f"tanh_{seed}": _seeded_tanh(seed) for seed in (9, 11)},
                  **{f"char_trig_{seed}": _seeded_char_trig(seed)
                     for seed in (10, 12)}}

_POLY = (0, 1, 2, 3)
SEEDED = {
    "cubic_full": _seeded_e(1, _POLY, cubic=True),
    **{f"poly_{seed}": _seeded_e(seed, _POLY) for seed in range(2, 6)},
    "char_6": _seeded_char(6),
    **{f"laurent_{seed}": _seeded_e(seed, (-2, -1, 0, 1, 2))
       for seed in (7, 8)},
}


def _params(path=PARAMS):
    raw = json.loads(Path(path).read_text(), parse_float=sympy.Rational,
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


def _is_laurent(e):
    if not e.is_rational_function(X, Y):
        return False
    return sympy.Poly(sympy.fraction(sympy.together(e))[1], X, Y).is_monomial


def _oracle(descriptor, variant, params=PARAMS):
    """(delta3_failures, lambda_failures, b_central, scalars) from
    literal brackets on the parameter file params; scalars maps (i, j)
    to Delta_ij."""
    alpha, beta, gamma = _params(params)
    e = _e_from_descriptor(descriptor, gamma)
    f0 = (alpha[0] + beta["b11"] * X + beta["b12"] * e,
          alpha[1] + beta["b22"] * Y + beta["b22p"] * e + beta["b13"] * Z,
          alpha[2] + beta["b32"] * Y + beta["b33"] * Z)
    f = {i: (gamma[0][i - 1], gamma[1][i - 1], 0) for i in IDX}
    b = (-beta["b12"], -beta["b22p"], 0)

    def along_b(v):
        return v[0] / b[0]  # b12 != 0 for admissible parameters

    if _is_laurent(e):
        # expanding Y_k and Delta_ij as they are built keeps the later
        # brackets small; it changes no value
        tidy = sympy.expand

        def is_zero(v):
            return sympy.expand(v) == 0
    else:
        def tidy(v):
            return v

        with mpmath.workdps(50):
            memos = [{X: mpmath.mpf(xn) / xd, Y: mpmath.mpf(yn) / yd}
                     for (xn, xd), (yn, yd) in POINTS]

        def is_zero(v):
            with mpmath.workdps(50):
                return all(abs(_mp_value(v, memo)) < mpmath.mpf("1e-30")
                           for memo in memos)

    y = {k: tuple(map(tidy, bracket(f0, f[k]))) for k in IDX}
    delta = {}
    scalars = {}
    for i, j in product(IDX, repeat=2):
        d = along_b(bracket(f[i], y[j]))
        if variant == "paper_2":
            d += ((gamma[0][i - 1] * gamma[1][j - 1]
                   + gamma[1][i - 1] * gamma[0][j - 1])
                  * sympy.diff(e, X, Y))
        scalars[i, j] = d = tidy(d)
        delta[i, j] = tuple(d * bc for bc in b)
    delta3_failures = [[i, j, k] for i, j, k in product(IDX, repeat=3)
                       if not is_zero(along_b(bracket(f[k], delta[i, j])))]
    lambda_failures = [[i, j, k] for i, j, k in product(IDX, repeat=3)
                       if not is_zero(along_b(bracket(y[k], delta[i, j])))]
    b_central = [is_zero(along_b(bracket(y[k], b))) for k in IDX]
    return delta3_failures, lambda_failures, b_central, scalars


@pytest.mark.parametrize("name", CLOSURE_GOLDENS)
def test_closure_verdicts_match_literal_brackets(name):
    argv = CASES[name]
    variant = argv[argv.index("--cross") + 1] if "--cross" in argv \
        else "bracket_1"
    _, text = run_case(argv)
    report = json.loads(text)
    assert report["cross_variant"] == variant
    delta3_failures, lambda_failures, b_central, _ = _oracle(
        argv[argv.index("--e") + 1], variant)
    assert report["delta3_failures"] == delta3_failures
    assert report["lambda_failures"] == lambda_failures
    assert report["b_central"] == b_central


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_laurent_candidates_match_literal_brackets(name, variant):
    descriptor = SEEDED[name]
    code, text = run_case(["closure", "--params", PARAMS, "--e", descriptor,
                           "--cross", variant])
    report = json.loads(text)
    delta3_failures, lambda_failures, b_central, scalars = _oracle(
        descriptor, variant)
    assert report["delta3_failures"] == delta3_failures
    assert report["lambda_failures"] == lambda_failures
    assert report["b_central"] == b_central
    assert code == (0 if report["delta3_zero"] and report["lambda_zero"]
                    and all(b_central) else 1)
    for (i, j), d in scalars.items():
        c = sympy.sympify(report["c"][i - 1][j - 1].replace("^", "**"),
                          locals={"x": X, "y": Y})
        assert sympy.expand(c - d) == 0


# bracket_1, the CLI default, keeps the bare candidate name as its id
@pytest.mark.parametrize("name, variant", [
    pytest.param(name, variant,
                 id=name if variant == "bracket_1" else f"{name}-{variant}")
    for name in sorted(TRANSCENDENTAL) for variant in VARIANTS])
def test_seeded_transcendental_candidates_match_literal_brackets(name,
                                                                 variant):
    descriptor = TRANSCENDENTAL[name]
    code, text = run_case(["closure", "--params", PARAMS, "--e", descriptor,
                           "--cross", variant])
    report = json.loads(text)
    delta3_failures, lambda_failures, b_central, scalars = _oracle(
        descriptor, variant)
    assert report["delta3_failures"] == delta3_failures
    assert report["lambda_failures"] == lambda_failures
    assert report["b_central"] == b_central
    assert code == (0 if report["delta3_zero"] and report["lambda_zero"]
                    and all(b_central) else 1)
    with mpmath.workdps(50):
        for (xn, xd), (yn, yd) in POINTS:
            point = {X: mpmath.mpf(xn) / xd, Y: mpmath.mpf(yn) / yd}
            for (i, j), d in scalars.items():
                c = sympy.sympify(
                    report["c"][i - 1][j - 1].replace("^", "**"),
                    locals={"x": X, "y": Y})
                assert abs(_mp_value(c - d, dict(point))) \
                    < mpmath.mpf("1e-30")


def test_zero_lambda_with_cancelling_pieces(tmp_path):
    # with beta22 = beta11, M f_1 . grad l_1 = gamma11 gamma21 (beta22 -
    # beta11) = 0, and E = l_1^3 has D_1 E = 0; so under bracket_1 the
    # Lambda_ij1 with Delta_ij nonzero vanish while their x and y pieces
    # do not: only the full sum, never a single piece, decides them
    data = json.loads(Path(PARAMS).read_text())
    data["beta"]["b22"] = data["beta"]["b11"]
    params = tmp_path / "params.json"
    params.write_text(json.dumps(data))
    descriptor = "expr:(x + 2*y)^3"  # l_1 = x + 2 y for these gammas
    _, text = run_case(["closure", "--params", str(params),
                        "--e", descriptor])
    report = json.loads(text)
    delta3_failures, lambda_failures, b_central, _ = _oracle(
        descriptor, "bracket_1", str(params))
    assert report["delta3_failures"] == delta3_failures
    assert report["lambda_failures"] == lambda_failures
    assert report["b_central"] == b_central
    assert len(lambda_failures) == 8
    engine = ClosureEngine(Params.from_file(params), parse(descriptor[5:]))
    assert any(engine.lam_pieces(i, j, k)
               for i, j, k in product(IDX, repeat=3)
               if [i, j, k] not in lambda_failures)
