"""Candidate evapotranspiration surfaces: closed families, descriptor
parsing, and grid verification."""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liehouse.closure import CROSS_VARIANTS, ClosureEngine
from liehouse.evapo import (
    MAX_GRID_POINTS, PoleError, characteristic_line, default_grid,
    descriptor_to_expr, e_characteristic, e_tanh, make_grid, verify_candidate,
    _measure_all,
)
from liehouse.model import Params, demo_params
from liehouse.symbolic import (
    as_expr, eval_numeric, is_zero, substitute, tanh, var, _as_atom,
    _eval_terms,
)

from conftest import rand_params, rand_univariate
from test_closure import descriptors
from test_golden_reports import CASES, HERE, PARAMS, run_case

X, Y = var("x"), var("y")
F = Fraction


def _tanh_reference(p, c1, c2, c3, c4, i, x, y):
    g1 = float(p.gamma_entry(1, i))
    g2 = float(p.gamma_entry(2, i))
    arg = (float(c1) * g1 - float(c2) * g2 * x + float(c2) * g1 * y) / g1
    return 1.0 / (float(c4) + float(c3) * math.tanh(arg))


# -- tanh family --------------------------------------------------------

def test_tanh_family_evaluates_like_reference():
    p = demo_params()
    c = (F(1), F(2), F(1), F(3), 1)
    e = e_tanh(p, *c)
    rng = random.Random(4)
    for _ in range(10):
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        got = eval_numeric(e, {X: x, Y: y})
        assert got == pytest.approx(_tanh_reference(p, *c, x, y), abs=1e-12)


def test_tanh_family_kills_its_own_delta_exactly():
    p = demo_params()
    for i in (1, 2, 3):
        e = e_tanh(p, F(1), F(2), F(1), F(3), i)
        assert ClosureEngine(p, e).delta(i, i) == as_expr(0)


def test_tanh_family_argument_scaling_invariance():
    # scaling C2 by s while scaling coordinates by 1/s leaves E fixed
    p = demo_params()
    s = F(5, 2)
    e_base = e_tanh(p, F(1), F(2), F(1), F(3), 1)
    e_scaled = substitute(e_tanh(p, F(1), F(2) * s, F(1), F(3), 1),
                          {X: X * (1 / s), Y: Y * (1 / s)})
    assert is_zero(e_base - e_scaled, random.Random(8))


def test_tanh_constants_validation():
    p = demo_params()
    with pytest.raises(ValueError, match="C3 and C4 cannot both vanish"):
        e_tanh(p, F(1), F(1), F(0), F(0), 1)
    with pytest.raises(ValueError, match="got 4"):
        e_tanh(p, F(1), F(1), F(1), F(1), 4)
    # the index is checked before the constants
    with pytest.raises(ValueError, match="got 4"):
        e_tanh(p, F(1), F(1), F(0), F(0), 4)


# -- characteristic-line families ---------------------------------------

def test_characteristic_line_is_annihilated():
    p = demo_params()
    for i in (1, 2, 3):
        line = characteristic_line(p, i)
        g1 = as_expr(p.gamma_entry(1, i))
        g2 = as_expr(p.gamma_entry(2, i))
        assert line == X * -p.gamma_entry(2, i) + Y * p.gamma_entry(1, i)
        from liehouse.fields import VectorField, apply_to_scalar
        d_i = VectorField(g1, g2, as_expr(0))
        assert apply_to_scalar(d_i, line) == as_expr(0)


def test_two_shape_family_kills_cross_delta(rng):
    p = demo_params()
    f1 = rand_univariate(rng, degree=5)
    f2 = rand_univariate(rng, degree=5)
    e = e_characteristic(p, [(f1, 2), (f2, 1)])
    assert ClosureEngine(p, e).delta(1, 2) == as_expr(0)
    assert ClosureEngine(p, e).delta(2, 1) == as_expr(0)


def test_diagonal_term_normalizes_delta_to_one(rng):
    p = demo_params()
    e = e_characteristic(p, [(rand_univariate(rng), 2),
                             (rand_univariate(rng), 1)], diagonal=(1, 2))
    assert ClosureEngine(p, e).delta(1, 2) == as_expr(1)


def test_three_shape_family_kills_third_order(rng):
    p = demo_params()
    e = e_characteristic(p, [(rand_univariate(rng, degree=5), line)
                             for line in (2, 1, 3)])
    assert ClosureEngine(p, e).delta3(1, 2, 3) == as_expr(0)


def test_family_validation():
    p = demo_params()
    quad = X * X
    with pytest.raises(ValueError, match="got 5"):
        e_characteristic(p, [(quad, 5), (quad, 1)])
    with pytest.raises(ValueError, match="got 0"):
        e_characteristic(p, [(quad, 2), (quad, 1)], diagonal=(0, 2))
    with pytest.raises(ValueError, match="two-shape family"):
        e_characteristic(p, [(quad, 2), (quad, 1), (quad, 3)],
                         diagonal=(1, 2))
    with pytest.raises(ValueError, match="unary"):
        e_characteristic(p, [(X * Y, 2), (quad, 1)])


# -- descriptors --------------------------------------------------------

def test_descriptor_tanh():
    p = demo_params()
    assert descriptor_to_expr(p, "tanh:1,2,1,3,1") == \
        e_tanh(p, F(1), F(2), F(1), F(3), 1)


def test_descriptor_char_variants():
    p = demo_params()
    e = descriptor_to_expr(p, "char:1,2:x^2;x^3")
    # F1 goes on the j-line and F2 on the i-line
    assert e == e_characteristic(p, [(parse_poly("x^2"), 2),
                                     (parse_poly("x^3"), 1)])
    e_diag = descriptor_to_expr(p, "char:1,2,diag:x^2;x^3")
    assert e_diag != e
    e3 = descriptor_to_expr(p, "char:1,2,3:x^2;x^3;x^2+x")
    assert e3 is not None


def parse_poly(text):
    from liehouse.parsing import parse
    return parse(text)


def test_descriptor_expr_passthrough():
    p = demo_params()
    assert descriptor_to_expr(p, "expr:x*y + tanh(x)") is not None


@pytest.mark.parametrize("bad", [
    "", "tanh", "tanh:1,2", "tanh:1,2,0,0,1", "tanh:1,2,1,3,9",
    "char:1:x", "char:1,2:x^2", "char:1,2,9:x;x;x", "spline:1",
    "expr:", "char:1,2:x^2;x^(",
])
def test_descriptor_errors(bad):
    with pytest.raises(ValueError):
        descriptor_to_expr(demo_params(), bad)


# -- grids and verification ---------------------------------------------

def test_make_grid_inclusive_bounds():
    pts = make_grid(3, 2, 0.0, 1.0, 0.0, 1.0)
    assert len(pts) == 6
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    assert xs == [0.0, 0.5, 1.0]
    assert ys == [0.0, 1.0]
    assert len(default_grid()) == 25


def test_make_grid_rejects_more_than_the_point_limit():
    for nx, ny in ((1, MAX_GRID_POINTS + 1), (MAX_GRID_POINTS, 2),
                   (10**8, 10**8)):
        with pytest.raises(ValueError, match="exceeds the limit of"):
            make_grid(nx, ny, 0.1, 0.9, 0.1, 0.9)


def test_make_grid_interpolates_where_the_span_overflows():
    # finite bounds whose span x1 - x0 overflows to inf
    assert make_grid(2, 1, -1e308, 1e308, 0, 1) == [(-1e308, 0), (1e308, 0)]
    assert make_grid(3, 1, 1e308, -1e308, 0, 1) == \
        [(1e308, 0), (0.0, 0), (-1e308, 0)]
    assert make_grid(1, 2, 0, 1, -1.7e308, 1.7e308) == \
        [(0, -1.7e308), (0, 1.7e308)]
    # a finite span whose multiple overflows
    assert make_grid(3, 1, 0, 1e308, 0, 1) == \
        [(0.0, 0), (5e307, 0), (1e308, 0)]
    assert make_grid(2, 1, -1e307, 1e307, 0, 1) == [(-1e307, 0), (1e307, 0)]
    # an ordinary grid keeps the bits of x0 + (x1 - x0) * t / (n - 1)
    assert [gx for gx, _ in make_grid(7, 1, 0.1, 0.9, 0, 1)] == \
        [0.1 + (0.9 - 0.1) * t / 6 for t in range(7)]
    with pytest.raises(ValueError, match="grid bounds must be finite"):
        make_grid(2, 1, 0, math.inf, 0, 1)


def test_verify_candidate_flags_tanh_tension():
    p = demo_params()
    e = e_tanh(p, F(1), F(2), F(1), F(3), 1)
    rep = verify_candidate(p, e)
    assert not rep.passed
    assert rep.tension_indices == [1]
    assert rep.heisenberg_tension
    assert rep.delta[(1, 1)].max_abs <= 1e-9
    assert rep.delta[(1, 2)].max_abs <= 1e-9
    assert rep.grid_size == 25
    assert len(rep.delta3) == 27
    assert len(rep.lam) == 27
    d = rep.to_dict()
    assert d["delta"]["11"]["max_abs"] <= 1e-9
    assert "seed" not in d  # the sweep draws nothing; check-e adds the seed


def test_verify_candidate_pole_is_reported():
    p = demo_params()
    e = descriptor_to_expr(p, "expr:1/(x - 1/2)")
    grid = make_grid(3, 3, 0.0, 1.0, 0.0, 1.0)  # hits x = 0.5 exactly
    with pytest.raises(PoleError) as err:
        verify_candidate(p, e, grid=grid)
    assert "0.5" in str(err.value)


def test_verify_candidate_pole_names_the_first_singular_point():
    p = demo_params()
    e = descriptor_to_expr(p, "expr:1/(y - 1/2)")
    grid = make_grid(3, 3, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(PoleError) as err:
        verify_candidate(p, e, grid=grid)
    assert str(err.value) == \
        "candidate is singular at grid point (x=0.0, y=0.5)"


def test_batch_pole_follows_grid_order():
    # the second condition is singular at the first point and the first
    # condition only at the second: the sweep names the first point
    grid = [(0.0, 0.0), (1.0, 0.0)]
    exprs = [as_expr(1) / (X - 1), as_expr(1) / X]
    with pytest.raises(PoleError) as err:
        _measure_all(exprs, [0.0, 0.0], grid, 1e-9)
    assert "(x=0.0, y=0.0)" in str(err.value)


@pytest.mark.parametrize("e", [X * Y, X * Y - X * tanh(Y) * 10 ** 200])
def test_batch_non_finite_value_is_a_pole(e):
    # x*y overflows to inf without an exception, and inf - inf is nan
    grid = [(1.0, 1.0), (1e200, 1e200), (0.0, 0.0)]
    with pytest.raises(PoleError) as err:
        _measure_all([X, e], [0.0, 0.0], grid, 1e-9)
    assert str(err.value) == \
        "candidate is singular at grid point (x=1e+200, y=1e+200)"


def test_batch_overflowing_sum_of_finite_values_is_no_pole():
    # 1.5e308 twice sums to inf, but each value is finite
    c = F(3, 2) * 10 ** 308
    got = _measure_all([X * c, Y * c], [0.0, 0.0], [(1.0, 1.0)], 1e-9)
    assert [m.max_abs for m in got] == [1.5e308, 1.5e308]
    assert [m.max_dev for m in got] == [1.5e308, 1.5e308]


def _walk(condition, gx, gy):
    """A condition's value at one point, walked term by term: an
    expression by eval_numeric, factor pairs as 0.0 + a * b + ..."""
    point = {X: gx, Y: gy}
    if isinstance(condition, tuple):
        total = 0.0
        for a, b in condition:
            total += eval_numeric(a, point) * eval_numeric(b, point)
        return total
    return eval_numeric(condition, point)


def test_batch_measurement_equals_per_condition_walk(rng):
    p = rand_params(rng)
    e = e_tanh(p, F(1), F(2), F(1), F(3), 2)
    engine = ClosureEngine(p, e)
    exprs = [engine.delta(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    exprs += [engine.lam_with(k, engine.delta(1, 2)) for k in (1, 2, 3)]
    exprs += [tuple(engine.lam_pieces(1, 2, k)) for k in (1, 2, 3)]
    targets = [1.0 if i == j else 0.0 for i in (1, 2, 3) for j in (1, 2, 3)]
    targets += [0.0] * 6
    grid = make_grid(4, 5, 0.1, 0.9, -0.3, 0.7)
    got = _measure_all(exprs, targets, grid, 1e-9)
    for m, expr, t in zip(got, exprs, targets):
        # the reference: each condition walked point by point
        vals = [_walk(expr, gx, gy) for gx, gy in grid]
        max_dev = max(abs(v - t) for v in vals)
        assert (m.target, m.max_abs, m.max_dev, m.passed) == (
            t, max(map(abs, vals)), max_dev, max_dev <= 1e-9)


def test_sweep_is_one_generated_loop():
    # the work outside the generated sweep does not grow with the grid
    exprs = [X * Y + tanh(X), ((X * 2 + 1, tanh(Y)),), X]

    def calls_outside_the_sweep(grid):
        events = []

        def profile(frame, event, arg):
            if frame.f_code.co_filename != "<liehouse program>":
                events.append(event)

        sys.setprofile(profile)
        try:
            _measure_all(exprs, [0.0, 1.0, 0.0], grid, 1e-9)
        finally:
            sys.setprofile(None)
        return len(events)

    small = make_grid(2, 2, 0.1, 0.9, 0.1, 0.9)
    calls_outside_the_sweep(small)  # fills the kernel's memos
    assert calls_outside_the_sweep(small) == \
        calls_outside_the_sweep(make_grid(30, 30, 0.1, 0.9, 0.1, 0.9))


_CHECK_E_GOLDENS = ["check_e_tanh_7x9", "check_e_char_paper2"]


@pytest.mark.parametrize("name", _CHECK_E_GOLDENS)
def test_check_e_never_expands_lambda(name, monkeypatch):
    def expanded(*args):
        raise AssertionError("check-e expanded Lambda")

    monkeypatch.setattr(ClosureEngine, "lam_with", expanded)
    code, text = run_case(CASES[name])
    assert code == 1
    assert text.encode("utf-8") == (HERE / f"{name}.out").read_bytes()


def test_pole_only_in_a_lambda_factor():
    # E_y = x^2 overflows at x = 1e200 and enters only the factors
    # (Y_k)_c of Lambda; every Delta and Delta3 there is finite
    p = demo_params()
    e = descriptor_to_expr(p, "expr:x^2*y")
    engine = ClosureEngine(p, e)
    point = (1e200, 0.5)
    assert all(math.isfinite(_walk(engine.delta(i, j), *point))
               for i, j in product((1, 2, 3), repeat=2))
    assert all(math.isfinite(_walk(engine.delta3(i, j, k), *point))
               for i, j, k in product((1, 2, 3), repeat=3))
    with pytest.raises(OverflowError):
        _walk(tuple(engine.lam_pieces(1, 2, 1)), *point)
    grid = [(1.0, 1.0), point, (1e200, 1.0), (2.0, 2.0)]
    with pytest.raises(PoleError) as err:
        verify_candidate(p, e, grid=grid)
    assert str(err.value) == \
        "candidate is singular at grid point (x=1e+200, y=0.5)"


def assert_lambda_matches_expansion(p, descriptor, variant, grid):
    """The sweep's Lambda max_abs against a point-by-point walk of the
    expanded Lambda, within 1e-12 (1 + scale), scale the largest term
    magnitude of the expansion or factor product over the grid."""
    e = descriptor_to_expr(p, descriptor)
    engine = ClosureEngine(p, e, variant)

    def lam(i, j, k):
        return engine.lam_with(k, engine.delta(i, j))

    try:
        report = verify_candidate(p, e, grid=grid, cross_variant=variant)
    except PoleError as err:
        # the walk of every condition, Lambda expanded, is first
        # singular at the same point
        for gx, gy in grid:
            try:
                vals = [_walk(engine.delta(i, j), gx, gy)
                        for i, j in product((1, 2, 3), repeat=2)]
                vals += [_walk(f(i, j, k), gx, gy)
                         for f in (engine.delta3, lam)
                         for i, j, k in product((1, 2, 3), repeat=3)]
            except (ZeroDivisionError, OverflowError, ValueError):
                vals = [math.nan]
            if not all(map(math.isfinite, vals)):
                assert str(err.value) == ("candidate is singular at grid "
                                          f"point (x={gx}, y={gy})")
                return
        raise
    for ijk in product((1, 2, 3), repeat=3):
        want = scale = 0.0
        for gx, gy in grid:
            value, terms = _eval_terms(lam(*ijk),
                                       {_as_atom(X): gx, _as_atom(Y): gy})
            want = max(want, abs(value))
            scale = max(scale, terms, *(
                abs(_walk(a, gx, gy) * _walk(b, gx, gy))
                for a, b in engine.lam_pieces(*ijk)))
        got = report.lam[ijk].max_abs
        assert abs(got - want) <= 1e-12 * (1 + scale), \
            (descriptor, variant, ijk, got, want, scale)


_GOLDEN = Params.from_file(PARAMS)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
@pytest.mark.parametrize("name", _CHECK_E_GOLDENS)
def test_lambda_pieces_measure_like_the_expansion_on_goldens(name, variant):
    argv = CASES[name]
    descriptor = argv[argv.index("--e") + 1]
    grid = (make_grid(7, 9, 0.1, 0.9, 0.1, 0.9) if "--grid" in argv
            else default_grid())
    assert_lambda_matches_expansion(_GOLDEN, descriptor, variant, grid)


@settings(max_examples=15, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS))
def test_lambda_pieces_measure_like_the_expansion_on_a_corpus(
        descriptor, variant):
    assert_lambda_matches_expansion(
        _GOLDEN, descriptor, variant, make_grid(3, 4, 0.1, 0.9, -0.7, 0.9))


@pytest.mark.parametrize("name", _CHECK_E_GOLDENS)
def test_check_e_fails_at_every_tol_below_a_third(name):
    """c = G^T H G has rank at most 2, so at every grid point it lies at
    max-entry distance at least 1/3 from the identity target."""
    code, text = run_case(CASES[name] + ["--tol", "0.3"])
    assert code == 1
    assert json.loads(text)["passed"] is False


@settings(max_examples=15, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS))
def test_check_e_fails_below_a_third_on_a_corpus(descriptor, variant):
    e = descriptor_to_expr(_GOLDEN, descriptor)
    try:
        report = verify_candidate(
            _GOLDEN, e, grid=make_grid(3, 4, 0.1, 0.9, -0.7, 0.9), tol=0.3,
            cross_variant=variant)
    except PoleError:
        return
    assert report.passed is False
    assert max(m.max_dev for m in report.delta.values()) >= 1 / 3 - 1e-9


def test_verify_candidate_random_params(rng):
    for _ in range(2):
        p = rand_params(rng)
        e = e_tanh(p, F(1), F(2), F(1), F(3), 2)
        rep = verify_candidate(p, e)
        assert 2 in rep.tension_indices
        assert rep.delta[(2, 2)].max_abs <= 1e-9
