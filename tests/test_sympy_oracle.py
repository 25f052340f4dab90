"""sympy as an independent oracle for the exact kernel.

Random expressions over x, y, z and a parameter, with nested tanh, exp,
sin, cos and reciprocal atoms and negative powers, are differentiated
and substituted by the kernel and by sympy.  The kernel's result is read
into sympy through its printed text, so the oracle shares no code with
the kernel, and the difference must cancel to zero.  sympy is a test
dependency only; the package never imports it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liehouse.symbolic import (
    as_expr, cos, differentiate, exp, param, sin, substitute, tanh, to_text,
    var,
)

sympy = pytest.importorskip("sympy")
parser = pytest.importorskip("sympy.parsing.sympy_parser")

X, Y, Z, A = var("x"), var("y"), var("z"), param("alpha1")
_NAMES = ("x", "y", "z", "alpha1")
_SYMBOLS = {name: sympy.Symbol(name) for name in _NAMES}
_TRANSFORMS = parser.standard_transformations + (parser.convert_xor,)
_FUNCS = {"tanh": tanh, "exp": exp, "sin": sin, "cos": cos}
_SYMPY_FUNCS = (sympy.tanh, sympy.exp, sympy.sin, sympy.cos)

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


def to_sympy(e):
    return parser.parse_expr(to_text(e), local_dict=dict(_SYMBOLS),
                             transformations=_TRANSFORMS)


def canonical(s):
    """Cancel inside every function argument, innermost first, then the
    whole, so equal rational functions of equal atoms print equal."""
    s = s.replace(lambda a: isinstance(a, _SYMPY_FUNCS),
                  lambda a: a.func(sympy.cancel(a.args[0])))
    return sympy.cancel(s)


def assert_same(got, want):
    assert canonical(to_sympy(got) - want) == 0, (to_text(got), want)


@st.composite
def exprs(draw):
    """A sum of products of powers (-1 to 2) of pool entries; each pool
    entry nests earlier ones in a tanh, exp, sin, cos or reciprocal."""
    pool = [X, Y, Z, A]
    for _ in range(draw(st.integers(1, 3))):
        arg = as_expr(draw(rationals))
        for _ in range(draw(st.integers(1, 2))):
            arg = arg + draw(st.sampled_from(pool)) * draw(
                rationals.filter(bool))
        kind = draw(st.sampled_from(["tanh", "exp", "sin", "cos", "recip"]))
        if kind != "recip":
            pool.append(_FUNCS[kind](arg))
        elif arg.terms:
            pool.append(as_expr(1) / arg)
    e = as_expr(0)
    for _ in range(draw(st.integers(1, 3))):
        term = as_expr(draw(rationals))
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from(pool)) ** draw(
                st.sampled_from([-1, 1, 1, 2]))
        e = e + term
    return e


@settings(max_examples=40, deadline=None)
@given(exprs(), st.sampled_from(["x", "y", "z"]))
def test_differentiate_matches_sympy(e, v):
    assert_same(differentiate(e, v),
                sympy.diff(to_sympy(e), _SYMBOLS[v]))


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs(), exprs())
def test_substitute_matches_sympy(e, bx, ba):
    try:
        got = substitute(e, {X: bx, A: ba})
    except ZeroDivisionError:  # a reciprocal base became zero
        return
    want = to_sympy(e).subs({_SYMBOLS["x"]: to_sympy(bx),
                             _SYMBOLS["alpha1"]: to_sympy(ba)},
                            simultaneous=True)
    assert_same(got, want)
