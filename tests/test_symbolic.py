"""Kernel tests: canonical arithmetic, differentiation against finite
differences, substitution semantics, and zero decisions."""

import copy
import gc
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liehouse.symbolic as symbolic
from liehouse.parsing import parse
from liehouse.symbolic import (
    InconsistentBindingError, MissingAssignmentError, all_atoms, as_expr,
    base_atoms, compile_exprs, cos, differentiate, epartial, eval_numeric,
    evaluate, exp, has_transcendental, is_zero, monomial_key, param, sin,
    substitute, tanh, to_text, var,
)

from conftest import rand_poly

X, Y, Z = var("x"), var("y"), var("z")
E = epartial(0, 0)


# -- strategies ---------------------------------------------------------

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)


@st.composite
def polys(draw, max_terms=4, max_power=3):
    gens = (X, Y, Z)
    e = as_expr(0)
    for _ in range(draw(st.integers(0, max_terms))):
        term = as_expr(draw(rationals))
        for g in gens:
            term = term * g ** draw(st.integers(0, max_power))
        e = e + term
    return e


# -- arithmetic ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a + b) * c == a * c + b * c
    assert a - a == as_expr(0)
    assert a * as_expr(0) == as_expr(0)
    assert a * as_expr(1) == a


@settings(max_examples=40, deadline=None)
@given(polys())
def test_canonical_well_ordered(a):
    keys = [monomial_key(m) for m, _ in a.terms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(coef != 0 for _, coef in a.terms)
    for m, _ in a.terms:
        assert all(k != 0 for _, k in m)


def test_power_arithmetic():
    assert X ** 0 == as_expr(1)
    assert X ** 3 * X ** -2 == X
    assert (X * Y) ** 2 == X * X * Y * Y
    with pytest.raises(TypeError):
        X ** Fraction(1, 2)


def test_division_by_expression():
    q = (X * X - Y * Y) / (X + Y)
    # quotients keep a reciprocal factor; value equality is sampled
    assert has_transcendental(q)
    assert is_zero(q - (X - Y), random.Random(2))
    third = as_expr(1) / 3
    assert third * 3 == as_expr(1)
    assert (X * X * Y) / (X * Y) == X


def test_reciprocal_atom_round_trip():
    g = as_expr(2) + X * 2
    r = as_expr(1) / g
    assert has_transcendental(r)
    val = eval_numeric(r, {X: 3.0})
    assert val == pytest.approx(1.0 / 8.0)
    assert is_zero(r * g - 1)


@pytest.mark.parametrize("build,want", [
    (lambda: 1 / (1 / (X + 1)), lambda: X + 1),
    (lambda: (X / (X + 1)) ** -1, lambda: 1 + X ** -1),
    (lambda: (X / (X * 3 + 3)) ** -2,
     lambda: 9 + X ** -1 * 18 + X ** -2 * 9),
    (lambda: (X * 2 / (X + 1) ** 2) ** -1,
     lambda: 1 + X / 2 + X ** -1 / 2),
])
def test_inverting_a_monomial_with_a_reciprocal_atom(build, want):
    # the reciprocal's negative power expands into its base: no atom left
    got = build()
    assert got == want()
    assert not has_transcendental(got)


# -- differentiation ----------------------------------------------------

def _fd(e, assign, name, h=1e-5):
    hi = dict(assign)
    lo = dict(assign)
    hi[var(name)] = assign[var(name)] + h
    lo[var(name)] = assign[var(name)] - h
    return (eval_numeric(e, hi) - eval_numeric(e, lo)) / (2 * h)


@pytest.mark.parametrize("builder", [
    lambda: X * X * Y + Z ** 3,
    lambda: tanh(X * 2 + Y),
    lambda: exp(X) * sin(Y) + cos(X * Y),
    lambda: as_expr(1) / (as_expr(3) + tanh(X + Y * 2)),
    lambda: tanh(X) ** 2 * Y,
])
def test_derivative_matches_finite_difference(builder):
    e = builder()
    rng = random.Random(5)
    for name in ("x", "y", "z"):
        de = differentiate(e, name)
        for _ in range(4):
            assign = {v: rng.uniform(-1, 1) for v in (X, Y, Z)}
            want = _fd(e, assign, name)
            got = eval_numeric(de, assign)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_product_rule_exact(a, b):
    d = differentiate
    assert d(a * b, "x") == d(a, "x") * b + a * d(b, "x")


@settings(max_examples=40, deadline=None)
@given(polys())
def test_mixed_partials_commute(a):
    d = differentiate
    assert d(d(a, "x"), "y") == d(d(a, "y"), "x")


def test_tanh_chain_rule_form():
    u = X * 3 + Y
    de = differentiate(tanh(u), "x")
    assert de == (as_expr(1) - tanh(u) * tanh(u)) * 3


def test_epartial_derivatives_chain():
    assert differentiate(E, "x") == epartial(1, 0)
    assert differentiate(epartial(1, 0), "y") == epartial(1, 1)
    assert differentiate(epartial(1, 1), "x") == epartial(2, 1)
    assert differentiate(E, "z") == as_expr(0)
    assert differentiate(param("beta12"), "x") == as_expr(0)


# -- substitution -------------------------------------------------------

def test_substitute_binds_partials_of_e():
    bound = X * X * Y
    e = epartial(1, 0) + epartial(0, 1) * 2 + epartial(2, 0)
    got = substitute(e, {E: bound})
    assert got == X * Y * 2 + X * X * 2 + as_expr(2) * Y


def test_substitute_inconsistent_partial_binding():
    with pytest.raises(InconsistentBindingError):
        substitute(epartial(1, 0), {E: X * Y, epartial(1, 0): X})
    ok = substitute(epartial(1, 0), {E: X * Y, epartial(1, 0): Y})
    assert ok == Y


def test_substitute_descends_into_functions():
    e = tanh(X + Y)
    got = substitute(e, {X: Z * 2})
    assert got == tanh(Z * 2 + Y)
    r = as_expr(1) / (as_expr(1) + X)
    got = substitute(r, {X: as_expr(3)})
    assert got == as_expr(Fraction(1, 4))


def test_substitute_param_bindings():
    e = param("beta12") * X + param("alpha1")
    got = substitute(e, {param("beta12"): as_expr(2),
                         param("alpha1"): as_expr(Fraction(1, 2))})
    assert got == X * 2 + as_expr(Fraction(1, 2))


# -- numeric evaluation -------------------------------------------------

def test_eval_numeric_known_values():
    e = X * X + tanh(Y) * 3
    got = eval_numeric(e, {X: 2.0, Y: 0.5})
    assert got == pytest.approx(4.0 + 3.0 * math.tanh(0.5))


def test_eval_numeric_missing_assignment():
    with pytest.raises(MissingAssignmentError):
        eval_numeric(X + Y, {X: 1.0})


def test_eval_numeric_pole():
    r = as_expr(1) / X
    with pytest.raises(ZeroDivisionError):
        eval_numeric(r, {X: 0.0})


def _all_coefficients(e):
    """The coefficients of e and of every transcendental argument and
    reciprocal base inside it."""
    out = [c for _m, c in e.terms]
    for atom in all_atoms(e):
        if atom.kind == symbolic._FUNC:
            out.extend(c for _m, c in atom.data[1].terms)
        elif atom.kind == symbolic._RECIP:
            out.extend(c for _m, c in atom.data.terms)
    return out


def _integer_first(c):
    return c != 0 and (type(c) is int
                       or (type(c) is Fraction and c.denominator > 1))


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), rationals, st.integers(-2, 3))
def test_coefficients_are_integer_first(a, b, q, n):
    # b * b + 1 has constant term at least 1, so it is never zero
    den = b * b + 1
    results = [a + b, a - b, -a, a * b, a * q, a + q, a / den, den ** -1,
               symbolic._invert(den), a ** max(n, 0),
               differentiate(a * tanh(b) / den, "x"),
               differentiate(a ** 2 * Fraction(1, 3), "y"),
               substitute(a * tanh(b), {X: b * q, Y: as_expr(q)}),
               substitute(E * X, {E: a * Fraction(1, 2)}),
               parse(to_text(a * q / den))]
    if a.terms:
        results += [b / a, a ** n, symbolic._invert(a)]
    for r in results:
        assert all(_integer_first(c) for c in _all_coefficients(r)), r
        # a denominator-1 Fraction equals and hashes like its int
        as_fractions = symbolic.Expr(
            tuple((m, Fraction(c)) for m, c in r.terms))
        assert as_fractions == r
        assert hash(as_fractions) == hash(r)
        loaded = pickle.loads(pickle.dumps(r))
        assert loaded == r and hash(loaded) == hash(r)
        assert [type(c) for _m, c in loaded.terms] == \
            [type(c) for _m, c in r.terms]
    direct = symbolic.Expr((((), Fraction(2)),))
    assert direct == as_expr(2) and hash(direct) == hash(as_expr(2))
    assert pickle.loads(pickle.dumps(direct)) == as_expr(2)
    assert type(as_expr(Fraction(2)).terms[0][1]) is int
    assert type(as_expr(True).terms[0][1]) is int


# -- compiled programs --------------------------------------------------

_ARITH_ERRORS = (ZeroDivisionError, OverflowError, ValueError)
_FUNCS = {"tanh": tanh, "exp": exp, "sin": sin, "cos": cos}


@st.composite
def shared_batches(draw):
    """A batch of expressions over one pool of atoms: each pool entry
    nests earlier ones inside a tanh, exp, sin, cos or reciprocal, and
    every expression multiplies pool entries, so atoms are shared across
    the batch and within it."""
    pool = [X, Y, Z, as_expr(1) / X]
    for _ in range(draw(st.integers(1, 4))):
        arg = as_expr(draw(rationals))
        for _ in range(draw(st.integers(1, 2))):
            arg = arg + draw(st.sampled_from(pool)) * draw(rationals)
        kind = draw(st.sampled_from(["tanh", "exp", "sin", "cos", "recip"]))
        if kind == "recip":
            den = arg + draw(rationals)
            if den.terms:  # a constant arg can cancel to a zero denominator
                pool.append(as_expr(1) / den)
        else:
            pool.append(_FUNCS[kind](arg))
    exprs = []
    for _ in range(draw(st.integers(1, 5))):
        e = as_expr(0)
        for _ in range(draw(st.integers(0, 3))):
            term = as_expr(draw(rationals))
            for _ in range(draw(st.integers(0, 2))):
                term = term * draw(st.sampled_from(pool)) ** draw(
                    st.integers(1, 2))
            e = e + term
        exprs.append(e)
    return exprs


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=80, deadline=None)
@given(shared_batches(), st.tuples(*[st.floats(-2, 2)] * 3))
def test_program_matches_eval_numeric_bit_for_bit(exprs, point):
    program = compile_exprs(exprs, (X, Y, Z))
    assign = dict(zip((X, Y, Z), point))
    try:
        want = [eval_numeric(e, assign) for e in exprs]
    except _ARITH_ERRORS:
        with pytest.raises(_ARITH_ERRORS):
            evaluate(program, point)
        return
    got = evaluate(program, point)
    assert len(got) == len(exprs)
    assert _bits(got) == _bits(want)


def test_program_shares_atoms_and_powers():
    u = tanh(X + Y * 2)
    e = u * 3 + u ** 2 * as_expr(1) / (u + 4)
    program = compile_exprs([e, e, u], (X, Y))
    assert program.source.count("tanh(") == 1
    assert program.source.count("1.0 / (") == 1
    assert program.source.count(" ** 2") == 1
    got = evaluate(program, (0.25, -0.5))
    assert got[0] == got[1] == eval_numeric(e, {X: 0.25, Y: -0.5})


def test_program_function_atom_input_is_a_leaf():
    u = tanh(X + Y)
    e = u * 3 + X
    program = compile_exprs([e], (u, X))
    assert evaluate(program, (0.25, 2.0)) == (0.75 + 2.0,)
    assert evaluate(program, (0.25, 2.0)) == (
        eval_numeric(e, {u: 0.25, X: 2.0}),)


def test_program_unassigned_base_atom():
    with pytest.raises(MissingAssignmentError):
        compile_exprs([X + Y], (X,))
    with pytest.raises(MissingAssignmentError):
        compile_exprs([tanh(X + param("alpha1"))], (X,))


def test_program_converts_values_like_eval_numeric():
    # an int input is rounded to float first, as eval_numeric does;
    # squaring the exact int would round differently
    e = X ** 2 * Fraction(1, 3)
    program = compile_exprs([e], (X,))
    big = 2 ** 53 + 1
    assert _bits(evaluate(program, (big,))) == _bits(
        [eval_numeric(e, {X: big})])


def test_program_pole():
    program = compile_exprs([as_expr(1) / (X - 1), as_expr(1) / Y],
                            (X, Y))
    with pytest.raises(ZeroDivisionError):
        evaluate(program, (1.0, 2.0))
    with pytest.raises(ZeroDivisionError):
        evaluate(program, (2.0, 0.0))
    assert evaluate(program, (2.0, 4.0)) == (1.0, 0.25)


def test_program_unrepresentable_coefficient_fails_like_the_walk():
    e = X * 10 ** 400
    program = compile_exprs([e], (X,))
    with pytest.raises(OverflowError):
        eval_numeric(e, {X: 1.0})
    with pytest.raises(OverflowError):
        evaluate(program, (1.0,))


# -- zero decisions -----------------------------------------------------

def test_is_zero_exact_on_polynomials(rng):
    for _ in range(20):
        p = rand_poly(rng)
        assert is_zero(p - p)
        if p.terms:
            assert not is_zero(p)


def test_is_zero_sampled_transcendental():
    u = X + Y * 2
    ident = tanh(u) * tanh(u) + (as_expr(1) - tanh(u)) * (as_expr(1) + tanh(u))
    assert is_zero(ident - 1, random.Random(3))
    assert not is_zero(tanh(u) - u, random.Random(3))


def test_is_zero_reciprocal_cancellation():
    g = as_expr(5) + tanh(X) * 2
    assert is_zero((as_expr(1) / g) * g - 1, random.Random(1))


def test_is_zero_survives_isolated_poles():
    g = (as_expr(1) + X) ** 2
    r = (as_expr(1) / (as_expr(1) + X)) ** 2
    assert is_zero(r * g - 1, random.Random(9))


# -- structure queries and printing -------------------------------------

def test_base_atoms_descend():
    e = tanh(X + param("alpha1")) + as_expr(1) / (as_expr(1) + Y * epartial(1, 0))
    names = base_atoms(e)
    assert {a.data for a in names if a.kind == 0} == {"x", "y"}


def test_to_text_spot_checks():
    assert to_text(X * 2 + Y * -1) == "2*x - y"
    assert to_text(as_expr(0)) == "0"
    assert to_text(epartial(2, 1)) == "E_xxy"
    assert to_text(X ** 3 * Fraction(1, 2)) == "1/2*x^3"
    assert "tanh" in to_text(tanh(X))


def test_all_atoms_keeps_function_and_reciprocal_atoms():
    e = as_expr(1) / (as_expr(3) + tanh(X + param("alpha1")))
    assert sorted(repr(a) for a in all_atoms(e)) == [
        "(3 + tanh(x + alpha1))^-1", "alpha1", "tanh(x + alpha1)", "x"]
    assert sorted(repr(a) for a in base_atoms(e)) == ["alpha1", "x"]


# -- the atom table -----------------------------------------------------

def _only_atom(e):
    (mono, _c), = e.terms
    (atom, _k), = mono
    return atom


def test_equal_atoms_are_one_object():
    t = _only_atom(parse("tanh(x*y)"))
    assert _only_atom(tanh(X * Y)) is t
    d = differentiate(tanh(X * Y), "x")
    assert [a for a in all_atoms(d) if a.kind == symbolic._FUNC] == [t]
    r = _only_atom(substitute(as_expr(1) / (X + param("alpha1")),
                              {param("alpha1"): 3}))
    assert r.kind == symbolic._RECIP
    assert r is _only_atom(as_expr(1) / (X + 3))


def test_copies_and_pickles_come_back_through_the_table():
    e = tanh(X * Y) + X + as_expr(1) / (Y + tanh(X))
    ids = {id(a) for a in all_atoms(e)}
    for copied in (copy.copy(e), copy.deepcopy(e),
                   pickle.loads(pickle.dumps(e))):
        assert copied == e
        assert {id(a) for a in all_atoms(copied)} == ids
        assert e + copied == 2 * e
        assert to_text(e + copied) == "2*x + 2*tanh(x*y) + 2*(y + tanh(x))^-1"


def test_pickle_from_another_process_hashes_like_the_original():
    text = "tanh(x*y) + 1/(y + tanh(x))"
    script = ("import pickle, sys\n"
              "from liehouse.parsing import parse\n"
              f"e = parse({text!r})\n"
              "hash(e)\n"
              "sys.stdout.buffer.write(pickle.dumps(e))\n")
    src = os.path.dirname(os.path.dirname(symbolic.__file__))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=60, check=True)
    loaded = pickle.loads(done.stdout)
    assert loaded == parse(text)
    assert hash(loaded) == hash(parse(text))
    assert loaded in {parse(text)}


def test_atom_table_follows_live_expressions():
    # with the cyclic collector off, only reference counts free atoms
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(symbolic._atoms)
        e = tanh(X * Y + Fraction(1, 7)) / (X + tanh(Y - Fraction(3, 11)))
        assert len(symbolic._atoms) == before + 3
        del e
        assert len(symbolic._atoms) == before
    finally:
        if enabled:
            gc.enable()
