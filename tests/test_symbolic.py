"""Kernel tests: canonical arithmetic, differentiation against finite
differences, substitution semantics, and zero decisions."""

import copy
import gc
import math
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liehouse.symbolic as symbolic
from liehouse.parsing import parse
from liehouse.symbolic import (
    EvaluationError, InconsistentBindingError, MissingAssignmentError,
    all_atoms, as_expr, base_atoms, compile_exprs, cos, differentiate,
    epartial, eval_numeric, evaluate, exp, has_transcendental, is_zero,
    is_zero_products, monomial_key, param, sin, substitute, tanh, to_text,
    var,
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


def test_substitute_names_a_denominator_that_becomes_zero():
    r = X / (param("gamma11") - 2)
    with pytest.raises(ZeroDivisionError) as err:
        substitute(r, {param("gamma11"): 2})
    assert str(err.value) == ("division by zero: the denominator "
                              "-2 + gamma11 is zero at the substituted values")


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


# -- the kernel against a plain-dict reference -------------------------

_TANH = tanh(X * Y + 1)
_RECIP = as_expr(1) / (X + 2)


@st.composite
def single_terms(draw):
    """c * a1^k1 * ...: a constant when no factor is drawn.  Coordinates
    and the tanh atom take negative exponents too; the reciprocal atom
    takes positive ones, as canonical monomials hold it."""
    term = as_expr(draw(rationals.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from([X, Y, Z, _TANH, _RECIP]))
        low = 1 if base is _RECIP else -2
        k = draw(st.integers(low, 3).filter(bool))
        term = term * base ** k
    return term


# b * b + 1 has constant term at least 1, so it is never zero
operands = st.one_of(
    polys(), single_terms(), rationals.map(as_expr),
    st.builds(lambda a, t: a * t + t, polys(), single_terms()),
    st.builds(lambda a, b: a / (b * b + 1), polys(), polys()))


def _monomial(*monos):
    """The product of monomials as an atom -> exponent map, sorted."""
    powers = {}
    for mono in monos:
        for atom, k in mono:
            powers[atom] = powers.get(atom, 0) + k
    return tuple(sorted(((a, k) for a, k in powers.items() if k),
                        key=lambda it: it[0].key))


def _reference(pairs):
    """Every (monomial, coefficient) pair collected through a plain dict,
    sorted by monomial_key, with exact Fraction coefficients."""
    acc = {}
    for m, c in pairs:
        acc[m] = acc.get(m, Fraction(0)) + c
    return sorted(((m, c) for m, c in acc.items() if c),
                  key=lambda it: monomial_key(it[0]))


def _ref_derivative_pairs(e, v):
    for m, c in e.terms:
        for idx, (atom, k) in enumerate(m):
            rest = m[:idx] + ((atom, k - 1),) + m[idx + 1:]
            datom = differentiate(symbolic._atom_expr(atom), v)
            for dm, dc in datom.terms:
                yield _monomial(rest, dm), c * k * dc


def _check_against(got, pairs):
    assert [(m, Fraction(c)) for m, c in got.terms] == _reference(pairs)
    assert all(_integer_first(c) for c in _all_coefficients(got)), got


@settings(max_examples=150, deadline=None)
@given(operands, operands, st.sampled_from("xyz"))
def test_kernel_matches_plain_dict_reference(a, b, v):
    _check_against(a * b, [(_monomial(m1, m2), c1 * c2)
                           for m1, c1 in a.terms for m2, c2 in b.terms])
    _check_against(b * a, [(_monomial(m1, m2), c1 * c2)
                           for m1, c1 in a.terms for m2, c2 in b.terms])
    _check_against(a + b, list(a.terms) + list(b.terms))
    _check_against(differentiate(a, v), _ref_derivative_pairs(a, v))
    for q in (2, Fraction(-3, 2), 1):
        _check_against(a * q, [(m, c * q) for m, c in a.terms])
        _check_against(q * a, [(m, c * q) for m, c in a.terms])


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


def test_program_sums_factor_products_unexpanded():
    # a sum of products is evaluated on its factors, each named once,
    # and added onto 0.0 from left to right, never multiplied out
    u = tanh(X + Y * 2)
    a, b = u * 3 + X, as_expr(1) / (u + 4) - Y
    pairs = ((a, b), (b, u), (a, Y))
    program = compile_exprs([pairs, a, list(pairs)], (X, Y))
    assert program.source.count("tanh(") == 1
    assert program.source.count(" * ".join(["e0", "e1"])) == 1
    for point in [(0.25, -0.5), (-1.5, 0.75), (2.0, 2.0)]:
        assign = dict(zip((X, Y), point))
        want = 0.0
        for f, g in pairs:
            want += eval_numeric(f, assign) * eval_numeric(g, assign)
        got = evaluate(program, point)
        assert _bits(got) == _bits([want, eval_numeric(a, assign), want])


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


def test_program_refuses_an_unrepresentable_coefficient_at_build():
    """The walk raises OverflowError at each evaluation.  A program runs
    every term at every call, so it refuses the coefficient once, when it
    is built, in one line that names the float range; a leading constant
    is refused like any other coefficient."""
    for e, order in ((X * 10 ** 400, 400), (X - 10 ** 400, 400),
                     (X * Fraction(10 ** 800, 3 ** 700), 466)):
        with pytest.raises(OverflowError):
            eval_numeric(e, {X: 1.0})
        with pytest.raises(ValueError, match="outside the float range") \
                as err:
            compile_exprs([e], (X,))
        assert f"of order 10^{order} " in str(err.value)
        assert "\n" not in str(err.value)


def test_program_compiles_long_sums_bit_for_bit():
    # one chained + of thousands of terms exceeds the compiler's
    # recursion limit; the program spreads the same sum over statements
    rng = random.Random(13)
    e = symbolic.add_all(
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 1000),
                 rng.randint(1, 97)) * X ** n * Y ** (n % 7)
        for n in range(5000))
    assert len(e.terms) == 5000
    exprs = [e, tanh(e)]
    program = compile_exprs(exprs, (X, Y))
    assert max(line.count(" + ") for line in program.source.splitlines()) \
        <= symbolic._SUM_CHUNK
    for point in [(0.3, -0.7), (-0.99, 0.5), (1.0, 1.0)]:
        want = [eval_numeric(u, {X: point[0], Y: point[1]}) for u in exprs]
        assert _bits(evaluate(program, point)) == _bits(want)


@pytest.mark.parametrize("k", [1, 2, 3, -1, -2])
def test_eval_numeric_matches_program_on_every_exponent(k):
    u = tanh(X - Y * Fraction(1, 3))
    exprs = [X ** k, X ** k * Fraction(2, 7) + Y, u ** k * Fraction(-5, 3),
             (as_expr(1) / (X + 3)) ** max(k, 1) * Fraction(10 ** 30, 7),
             X ** k * Y ** 2 * u + Fraction(1, 3)]
    program = compile_exprs(exprs, (X, Y))
    for point in [(0.3, -0.7), (-1.25, 0.5), (1.9, 1.1), (0.1, 0.0)]:
        want = [eval_numeric(e, dict(zip((X, Y), point))) for e in exprs]
        assert _bits(evaluate(program, point)) == _bits(want)


# -- the compiled-code cache --------------------------------------------

def _compiles(exprs, inputs):
    """The program for exprs and whether building it compiled text."""
    misses = symbolic._factory.cache_info().misses
    program = compile_exprs(exprs, inputs)
    return program, symbolic._factory.cache_info().misses > misses


def test_program_text_holds_no_coefficient():
    u = tanh(X * Fraction(2, 3) - 1)
    first, _ = _compiles([X * 7 + u * Fraction(1, 5) + 2], (X,))
    second, compiled = _compiles([X * 3 + u * 11 + Fraction(-9, 4)], (X,))
    assert not compiled
    assert second.source == first.source
    # no float literal: each sum starts from its leading constant c,
    # itself one constant 0.0 + c (here 2 and -1)
    assert re.findall(r"(?<![\w.])[0-9]+\.", first.source) == []
    assert sorted(first.consts) == sorted([2.0, 7.0, 0.2, -1.0, 2 / 3])


def test_programs_of_one_code_keep_their_own_constants():
    e1, e2 = X * 2 + Y * Fraction(1, 3) + 1, X * 5 - Y * 7 + 4
    first, _ = _compiles([e1], (X, Y))
    second, compiled = _compiles([e2], (X, Y))
    assert not compiled
    for point in [(0.3, -0.7), (1.5, 2.25)]:
        assign = dict(zip((X, Y), point))
        # the first program runs after the second was built
        assert _bits(evaluate(first, point)) == _bits(
            [eval_numeric(e1, assign)])
        assert _bits(evaluate(second, point)) == _bits(
            [eval_numeric(e2, assign)])


def test_leading_negative_zero_constant_evaluates_like_the_walk():
    # -1/10^400 rounds to -0.0, and 0.0 + -0.0 is 0.0: a lowering that
    # kept -0.0 as the start of the sum would give -0.0 at x = -0.0
    symbolic._factory.cache_clear()
    for n in (400, 401):
        e = X - Fraction(1, 10 ** n)
        program, compiled = _compiles([e, e - X], (X,))
        assert compiled == (n == 400)  # a miss, then a hit
        for x in (-0.0, 0.0, 1.5):
            want = [eval_numeric(u, {X: x}) for u in (e, e - X)]
            assert _bits(evaluate(program, (x,))) == _bits(want)


def test_unrepresentable_coefficient_raises_on_a_cache_hit():
    # refused while lowering, before the code cache is asked: on a text
    # never compiled (a miss) and on one already compiled (a hit)
    symbolic._factory.cache_clear()
    with pytest.raises(ValueError, match="outside the float range"):
        compile_exprs([X * 10 ** 400 + Y], (X, Y))
    _, compiled = _compiles([X * 10 + Y], (X, Y))
    assert compiled
    with pytest.raises(ValueError, match="outside the float range"):
        compile_exprs([X * 10 ** 401 + Y], (X, Y))
    assert symbolic._factory.cache_info()[:2] == (0, 1)  # hits, misses


def test_code_cache_stays_within_its_bound():
    bound = symbolic._factory.cache_info().maxsize
    for n in range(1, bound + 20):
        compile_exprs([X ** n + 1], (X,))
        assert symbolic._factory.cache_info().currsize <= bound
    assert symbolic._factory.cache_info().currsize == bound


def test_program_is_freed_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        program = compile_exprs([tanh(X) * 3 + X * 7 + 2], (X,))
        run = weakref.ref(program.run)
        del program
        assert run() is None
    finally:
        if enabled:
            gc.enable()


# -- zero decisions -----------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2 ** 40 + 5])
def test_sample_draws_equal_the_float_of_the_exact_rational(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(500):
        got = symbolic._sample_rational(rng)
        want = float(Fraction(twin.randint(-2_000_000, 2_000_000),
                              1_000_000))
        assert type(got) is float and got.hex() == want.hex()
    assert rng.getstate() == twin.getstate()


def test_sampling_draws_through_sample_rational(monkeypatch):
    # the closure tests patch _sample_rational to prove a scan drew no
    # point; that proves nothing unless sampling goes through it
    def sampled(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(symbolic, "_sample_rational", sampled)
    with pytest.raises(AssertionError, match="sampled"):
        is_zero(tanh(X) - X)
    with pytest.raises(AssertionError, match="sampled"):
        is_zero_products([(tanh(X), Y), (X, -Y)])
    assert not is_zero(X ** 2 * Y ** -1)



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


def test_is_zero_decides_laurent_polynomials_exactly():
    tiny = Fraction(1, 10 ** 12)
    assert not is_zero(tiny * X)
    assert not is_zero(tiny * X ** -1)
    rng = random.Random(4)
    state = rng.getstate()
    assert is_zero(X * X ** -1 - 1, rng)
    assert not is_zero(X ** -2 * Y + param("alpha1") / E, rng)
    assert rng.getstate() == state


def test_function_atoms_fold_at_zero():
    a1 = param("alpha1")
    assert tanh(X - X) == sin(0) == 0
    assert exp(X - X) == cos(0) == 1
    assert parse("tanh(x - x)*y + exp(0)") == 1
    assert substitute(sin(a1 * X) + cos(a1 * Y), {a1: 0}) == 1
    assert not has_transcendental(tanh(X - X) * Y)
    assert is_zero(tanh(X - X) * Y)


@pytest.mark.parametrize("decide", [
    lambda rng: is_zero(exp(X) ** 100000 * Y, rng),
    lambda rng: is_zero_products([(exp(X) ** 100000, Y)], rng),
])
def test_underflowed_points_are_no_witness_of_zero(decide):
    # exp(x)^100000 underflows to 0.0 for x < -0.0075 and overflows for
    # x > 0.0071: only a sliver of [-2, 2] gives an informative point
    for seed in range(6):
        try:
            assert decide(random.Random(seed)) is False
        except EvaluationError:
            pass


def test_is_zero_products_matches_the_expanded_sum():
    u = tanh(X + Y)
    big = 10 ** 6
    cases = [
        ([(u, Y), (-Y, u)], True),
        ([(big * u, big * Y), (-big * Y, big * u)], True),
        ([(u, u), (1 - u, 1 + u), (-1, 1)], True),
        ([(u, Y)], False),
        ([(u, Y), (-Y, u + Fraction(1, 1000))], False),
        ([(as_expr(1) / (2 + X * X), 2 + X * X), (-1, 1)], True),
        # the pieces cancel to -y, far below 10^-9 of their own scale
        ([(10 ** 12 * u, Y), (-Y, 10 ** 12 * u + 1)], False),
    ]
    for pairs, want in cases:
        expanded = symbolic.add_all(as_expr(a) * b for a, b in pairs)
        assert is_zero(expanded, random.Random(5)) is want
        assert is_zero_products(pairs, random.Random(5)) is want


@pytest.mark.parametrize("seed", [0, 3, 11, 2 ** 40 + 5])
def test_is_zero_is_the_single_pair_of_is_zero_products(seed):
    # one sampling loop: e alone is the pair (e, 1), drawing the same
    # points and reaching the same verdict
    for e in (tanh(X) * Y, exp(X) - 1 - X, sin(X * Y) / (2 + X * X),
              Fraction(1, 10 ** 30) * cos(X - Y) * E,
              tanh(X + Y) ** 2 + (1 - tanh(X)) * param("gamma12")):
        rng, twin = random.Random(seed), random.Random(seed)
        assert is_zero(e, rng) is False
        assert is_zero_products([(e, 1)], twin) is False
        assert rng.getstate() == twin.getstate(), e


def test_is_zero_products_decides_polynomial_factors_exactly():
    rng = random.Random(4)
    state = rng.getstate()
    assert is_zero_products([(X + Y, X - Y), (-X, X), (Y, Y)], rng)
    assert not is_zero_products([(X ** -1, Y), (param("alpha1"), E)], rng)
    assert is_zero_products([], rng)
    assert rng.getstate() == state


# Laurent factors over parameter and E-partial atoms, as in a scan on
# Params.symbolic() with E formal
_LAURENT_ATOMS = (X, Y, param("alpha1"), param("gamma23"), E,
                  epartial(1, 0), epartial(0, 2))


@st.composite
def laurent(draw, max_terms=3):
    e = as_expr(0)
    for _ in range(draw(st.integers(1, max_terms))):
        term = as_expr(draw(rationals))
        for atom in draw(st.lists(st.sampled_from(_LAURENT_ATOMS),
                                  max_size=3)):
            term = term * atom ** draw(st.sampled_from((-2, -1, 1, 2)))
        e = e + term
    return e


@st.composite
def laurent_pairs(draw):
    pairs = draw(st.lists(st.tuples(laurent(), laurent()), max_size=3))
    cancel = draw(st.sampled_from(("none", "swapped", "expanded")))
    if cancel == "swapped":  # b * -a cancels each a * b: a zero sum
        pairs += [(b, -a) for a, b in reversed(pairs)]
    elif cancel == "expanded":  # cancels only through the products
        pairs.append((symbolic.add_all(a * b for a, b in pairs), -1))
    return pairs + draw(st.lists(st.tuples(laurent(), laurent()),
                                 max_size=1))


@settings(max_examples=80, deadline=None)
@given(laurent_pairs())
def test_is_zero_products_on_laurent_factors_matches_the_expansion(pairs):
    rng = random.Random(3)
    state = rng.getstate()
    want = is_zero(symbolic.add_all(a * b for a, b in pairs))
    assert is_zero_products(pairs, rng) is want
    assert rng.getstate() == state


def test_residue_is_a_ring_map_at_one_fixed_point():
    p = symbolic._PRIME
    a = X ** 2 * param("beta11") - Fraction(3, 7) * E / Y
    b = epartial(2, 1) + Fraction(5, 4) * X ** -3
    res = symbolic._residue
    assert res(a * b) == res(a) * res(b) % p
    assert res(a + b) == (res(a) + res(b)) % p
    assert res(X * X ** -1) == 1
    assert res(as_expr(Fraction(2, 3))) * 3 % p == 2
    # the point hangs on the atom key alone
    assert symbolic._atom_residue(_only_atom(X)) == \
        pow(3, int.from_bytes(b"(0, 'x')", "big"), p)


def test_residue_without_an_inverse_falls_through_to_the_expansion():
    tiny = Fraction(1, symbolic._PRIME * 2)
    assert symbolic._residue(tiny * X + Y) == -1
    rng = random.Random(2)
    state = rng.getstate()
    assert is_zero_products([(tiny * X, Y), (X, -tiny * Y)], rng)
    assert not is_zero_products([(tiny * X, Y), (X, -Y)], rng)
    assert not is_zero_products([(tiny * X, Y)], rng)
    assert rng.getstate() == state


def test_nonzero_laurent_sum_is_refuted_without_a_product(monkeypatch):
    a1 = param("alpha1")
    pairs = [(X + a1 / Y, E - Y), (Fraction(1, 3) * epartial(1, 1), X ** -2),
             (-(X + a1 / Y), E - Y)]
    zero_pairs = pairs[:1] + [(E - Y, -(X + a1 / Y))]
    products = []
    mul = symbolic.Expr.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(symbolic.Expr, "__mul__", counting)
    assert not is_zero_products(pairs)
    assert products == []
    assert is_zero_products(zero_pairs)  # residue 0: multiplied out
    assert products


def test_residues_are_cached_on_the_factors():
    a = X * param("alpha2") + Y ** -1
    assert getattr(a, "_residue", None) is None
    assert not is_zero_products([(a, a)])
    assert a._residue == symbolic._residue(a) > 0
    copied = copy.copy(a)
    assert getattr(copied, "_residue", None) is None


def test_is_zero_sampling_cannot_be_switched_off():
    assert not is_zero(tanh(X))
    with pytest.raises(TypeError):
        is_zero(tanh(X), random.Random(0), 0)


# -- structure queries and printing -------------------------------------

def test_base_atoms_descend():
    e = tanh(X + param("alpha1")) + as_expr(1) / (as_expr(1) + Y * epartial(1, 0))
    names = base_atoms(e)
    assert {a.data for a in names if a.kind == 0} == {"x", "y"}
    assert [a.key for a in names] == sorted(a.key for a in names)


def test_to_text_spot_checks():
    assert to_text(X * 2 + Y * -1) == "2*x - y"
    assert to_text(as_expr(0)) == "0"
    assert to_text(epartial(2, 1)) == "E_xxy"
    assert to_text(X ** 3 * Fraction(1, 2)) == "1/2*x^3"
    assert "tanh" in to_text(tanh(X))


def _uncached_text(e):
    """to_text with every memoized atom text dropped first."""
    for atom in all_atoms(e):
        atom.text = None
    return to_text(e)


def test_nested_atom_text_is_rendered_once_and_unchanged():
    inner = tanh(X * Y + Fraction(1, 3))
    e = (as_expr(1) / (2 + tanh(inner * X - Y))) ** 2 * inner \
        + tanh(as_expr(1) / (X + inner)) * Y ** -1 - inner ** 3
    want = _uncached_text(e)
    assert to_text(e) == want
    assert parse(want) == e
    for atom in all_atoms(e):
        if atom.kind in (symbolic._FUNC, symbolic._RECIP):
            assert atom.text is not None
    t = _only_atom(inner)
    assert t.text == "tanh(1/3 + x*y)"
    assert to_text(as_expr(1) / (X + inner)) == "(x + tanh(1/3 + x*y))^-1"
    assert to_text((as_expr(1) / (X + inner)) ** 3) == \
        "(x + tanh(1/3 + x*y))^-3"


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3, max_power=2), polys(max_terms=3, max_power=2))
def test_nested_text_round_trips(a, b):
    e = tanh(a + 1) * b + as_expr(1) / (3 + tanh(tanh(a) * b - 1))
    want = _uncached_text(e)
    assert to_text(e) == want
    assert parse(to_text(e)) == e


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


def test_atom_partials_are_kept_on_the_atom():
    t = tanh(X * Y + Fraction(5, 17))
    assert _only_atom(t).partials == {}
    d = differentiate(t, "x")
    assert _only_atom(t).partials == {"x": d}


def test_differentiated_candidates_leave_no_atoms_behind():
    # no engine is built: dropping the expressions frees their atoms
    gc.collect()
    before = len(symbolic._atoms)
    for n in range(1, 1001):
        differentiate(tanh(X * Fraction(n, 7) + 1) ** 2, "x")
    gc.collect()
    assert len(symbolic._atoms) == before


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
