"""Closure scan: bracket oracle vs literal formulas, dual routes for
third-order operators, and the structure report."""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liehouse import closure, fields, model
from liehouse.closure import (
    CROSS_VARIANTS, ClosureEngine, check_closure, delta_ij_formula,
    delta_ijk_formula, magic_tuples,
)
from liehouse.evapo import (
    descriptor_to_expr, e_characteristic, e_tanh, verify_candidate,
)
from liehouse.fields import (
    VectorField, ZERO_FIELD, along, apply_to_scalar, gradient, lie_bracket,
    proportional_to,
)
from liehouse.model import (
    InvalidParamsError, Params, build_fields, demo_params,
)
from liehouse import symbolic
from liehouse.symbolic import (
    add_all, as_expr, differentiate, epartial, is_zero, is_zero_products,
    param, substitute, tanh, to_text, var,
)

from conftest import (
    along_b, rand_field, rand_params, rand_poly, rand_univariate,
)
from test_golden_reports import CASES, EXIT_CODES, HERE, PARAMS, run_case

X, Y = var("x"), var("y")
E = epartial(0, 0)
IDX = (1, 2, 3)


def delta3_literal(engine, i, j, k):
    """Delta_ijk read off the literal bracket [f_k, Delta_ij B]."""
    scaled = engine.b.scaled(engine.delta(i, j))
    return along_b(lie_bracket(engine.control(k), scaled), engine.b)


def lam_literal(engine, k, phi):
    """The scalar of [[f0, f_k], phi B] read off the literal brackets."""
    y_k = lie_bracket(engine.f0, engine.control(k))
    return along_b(lie_bracket(y_k, engine.b.scaled(phi)), engine.b)


def test_magic_tuples_enumerates_sums():
    assert magic_tuples(3, 4) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert magic_tuples(3, 5) == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert magic_tuples(3, 3) == [(1, 1, 1)]
    assert magic_tuples(3, 6) == [(2, 2, 2)]
    assert magic_tuples(2, 3) == [(1, 2), (2, 1)]
    assert magic_tuples(3, 7) == []
    with pytest.raises(ValueError):
        magic_tuples(0, 0)


def test_control_brackets_vanish():
    engine = ClosureEngine(demo_params())
    for i in IDX:
        for j in IDX:
            br = lie_bracket(engine.control(i), engine.control(j))
            assert br.is_zero_field()


def test_delta_oracle_equals_formula_formal_e():
    p = demo_params()
    for i in IDX:
        for j in IDX:
            assert ClosureEngine(p).delta(i, j) == \
                delta_ij_formula(p, None, i, j, "bracket_1")


def test_delta_oracle_equals_formula_symbolic_params():
    p = Params.symbolic()
    for i in IDX:
        for j in IDX:
            assert ClosureEngine(p).delta(i, j) == \
                delta_ij_formula(p, None, i, j, "bracket_1")


def test_delta_symmetric_in_indices():
    p = demo_params()
    for i in IDX:
        for j in IDX:
            assert ClosureEngine(p).delta(i, j) == \
                ClosureEngine(p).delta(j, i)


def test_paper_variant_differs_by_cross_term():
    p = demo_params()
    for i in IDX:
        for j in IDX:
            dev = delta_ij_formula(p, None, i, j, "paper_2") \
                - delta_ij_formula(p, None, i, j, "bracket_1")
            cross = (as_expr(p.gamma_entry(1, i)) * p.gamma_entry(2, j)
                     + as_expr(p.gamma_entry(2, i)) * p.gamma_entry(1, j))
            assert dev == epartial(1, 1) * cross


def test_delta_values_on_demo_params():
    p = demo_params()
    d11 = ClosureEngine(p).delta(1, 1)
    assert d11 == epartial(2, 0) * 4 - epartial(1, 1) * 4 + epartial(0, 2)


def test_third_order_oracle_equals_magic_formula():
    p = demo_params()
    for i in IDX:
        for j in IDX:
            for k in IDX:
                assert ClosureEngine(p).delta3(i, j, k) == \
                    delta_ijk_formula(p, None, i, j, k)


def test_third_order_dual_routes_agree():
    engine = ClosureEngine(demo_params())
    for i in IDX:
        for j in IDX:
            for k in IDX:
                assert engine.delta3(i, j, k) == \
                    delta3_literal(engine, i, j, k)


def test_third_order_is_control_derivative_of_delta():
    engine = ClosureEngine(demo_params())
    for i, j, k in ((1, 2, 3), (2, 2, 1), (3, 1, 2)):
        via_derivation = apply_to_scalar(engine.control(k),
                                         engine.delta(i, j))
        assert engine.delta3(i, j, k) == via_derivation


def test_b_proportionality_formal_and_random_e(rng):
    p = demo_params()
    candidates = [None] + [rand_poly(rng, degree=3, vars3=False)
                           for _ in range(10)]
    for e in candidates:
        engine = ClosureEngine(p, e)
        for i in IDX:
            for j in IDX:
                dij = engine.delta(i, j)
                for k in IDX:
                    scaled = engine.b.scaled(dij)
                    first = lie_bracket(engine.control(k), scaled)
                    assert proportional_to(first, engine.b) is not None
                    second = lie_bracket(engine.y(k), scaled)
                    assert proportional_to(second, engine.b) is not None
                y_bracket = lie_bracket(engine.control(i), engine.y(j))
                assert proportional_to(y_bracket, engine.b) is not None


def test_iterated_control_brackets_stay_on_b(rng):
    # closure is stable under nesting: [f_k1, [f_k2, delta * B]] is
    # still a multiple of B
    p = demo_params()
    for e in (None, rand_poly(rng, degree=3, vars3=False)):
        engine = ClosureEngine(p, e)
        scaled = engine.b.scaled(engine.delta(1, 2))
        for k1, k2 in ((1, 2), (2, 3), (3, 1), (2, 2)):
            inner = lie_bracket(engine.control(k2), scaled)
            outer = lie_bracket(engine.control(k1), inner)
            assert proportional_to(outer, engine.b) is not None


def test_lambda_factors_through_bracket():
    p = demo_params()
    e = X * X * Y
    engine = ClosureEngine(p, e)
    for i, j, k in ((1, 1, 1), (1, 2, 3), (3, 2, 1)):
        lam = engine.lam_with(k, engine.delta(i, j))
        rebuilt = engine.b.scaled(lam)
        direct = lie_bracket(engine.y(k), engine.b.scaled(engine.delta(i, j)))
        assert (rebuilt - direct).is_zero_field()


def test_check_closure_constant_delta():
    rep = check_closure(demo_params(), X * Y)
    assert all(all(row) for row in rep.constant_ok)
    assert all(rep.delta3_zero.values())
    d = rep.to_dict()
    assert d["seed"] == 0
    assert d["cross_variant"] == "bracket_1"
    assert d["delta3_zero"] is True


def test_f1_f3_y1_span_every_point_for_any_e():
    # why check_closure reports no pointwise span rank: with formal E and
    # symbolic parameters, det(f1, f3, [f0, f1]) is a constant that the
    # sign constraints keep away from zero
    p = Params.symbolic()
    engine = ClosureEngine(p)
    rows = [f.components() for f in
            (engine.control(1), engine.control(3), engine.y(1))]
    det = as_expr(0)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        det = det + rows[0][a] * (rows[1][b] * rows[2][c]
                                  - rows[1][c] * rows[2][b])
    g = p.gamma_entry
    want = -p.beta32 * g(2, 1) * (g(1, 1) * g(2, 3) - g(1, 3) * g(2, 1))
    assert det == want


def test_check_closure_nonconstant_delta():
    rep = check_closure(demo_params(), X ** 3 * Y ** 2)
    assert not all(all(row) for row in rep.constant_ok)


def test_check_closure_variant_and_seed_recorded():
    rep = check_closure(demo_params(), X * Y, cross_variant="paper_2",
                        seed=11)
    assert rep.cross_variant == "paper_2"
    assert rep.seed == 11
    with pytest.raises(ValueError):
        check_closure(demo_params(), X * Y, cross_variant="paper_3")


def test_formula_agreement_random_params(rng):
    for _ in range(3):
        p = rand_params(rng)
        for i in IDX:
            for j in IDX:
                assert ClosureEngine(p).delta(i, j) == \
                    delta_ij_formula(p, None, i, j, "bracket_1")


def test_delta_with_bound_e_matches_substitution(rng):
    p = demo_params()
    e = rand_poly(rng, degree=3, vars3=False)
    for i, j in ((1, 1), (1, 2), (2, 3)):
        formal = ClosureEngine(p).delta(i, j)
        bound = ClosureEngine(p, e).delta(i, j)
        assert bound == substitute(formal, {E: e})


def test_variants_tuple_is_public():
    assert CROSS_VARIANTS == ("bracket_1", "paper_2")


def test_engine_variant_routes_every_operator():
    p = demo_params()
    e = X ** 3 * Y
    engine = ClosureEngine(p, e, "paper_2")
    for i, j in ((1, 1), (1, 2), (3, 2)):
        cij = delta_ij_formula(p, e, i, j, "paper_2")
        assert engine.delta(i, j) == cij
        assert engine.delta3(i, j, 2) == \
            apply_to_scalar(engine.control(2), cij)
        assert engine.lam_with(3, engine.delta(i, j)) == \
            lam_literal(engine, 3, cij)
    with pytest.raises(ValueError):
        ClosureEngine(p, e, "paper_3")


@st.composite
def engine_cases(draw):
    """Random admissible parameters with a tanh, char or polynomial E,
    under either cross variant."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    p = rand_params(rng)
    family = draw(st.sampled_from(("tanh", "char", "poly")))
    if family == "tanh":
        c3, c4 = draw(st.sampled_from(((1, 3), (-1, 2), (0, 1), (2, 0))))
        e = e_tanh(p, draw(st.integers(-2, 2)), draw(st.integers(1, 3)),
                   c3, c4, draw(st.sampled_from(IDX)))
    elif family == "char":
        i, j = draw(st.sampled_from(
            [(i, j) for i in IDX for j in IDX if i != j]))
        shapes = (rand_univariate(rng, 3), tanh(X), X * tanh(X))
        e = e_characteristic(
            p, [(draw(st.sampled_from(shapes)), j),
                (draw(st.sampled_from(shapes)), i)],
            (i, j) if draw(st.booleans()) else None)
    else:
        e = rand_poly(rng, degree=3, vars3=False)
    return p, e, draw(st.sampled_from(CROSS_VARIANTS))


@settings(max_examples=12, deadline=None)
@given(engine_cases())
def test_cached_leibniz_operators_match_bracket_oracles(case):
    p, e, variant = case
    engine = ClosureEngine(p, e, variant)
    for i in IDX:
        for j in IDX:
            if variant == "bracket_1":
                br = lie_bracket(engine.control(i), engine.y(j))
                uncached = proportional_to(br, engine.b)
            else:
                uncached = delta_ij_formula(p, e, i, j, variant)
            assert engine.delta(i, j) == uncached
            assert engine.delta(i, j) == engine.delta(j, i)
            for k in IDX:
                literal = lam_literal(engine, k, engine.delta(i, j))
                assert engine.lam_with(k, engine.delta(i, j)) == literal
                assert add_all(a * b for a, b in engine.lam_pieces(i, j, k)) \
                    == literal
                assert engine.delta3(i, j, k) == \
                    delta3_literal(engine, i, j, k)


@settings(max_examples=12, deadline=None)
@given(engine_cases(), st.integers(0, 2 ** 32 - 1), st.sampled_from(range(4)))
def test_cached_gradient_is_symmetric_and_matches_differentiate(
        case, seed, zeroed):
    p, e, variant = case
    engine = ClosureEngine(p, e, variant)
    rng = random.Random(seed)
    field = rand_field(rng)
    if zeroed < 3:  # a field with one zero component, like the controls
        comps = list(field.components())
        comps[zeroed] = as_expr(0)
        field = VectorField(*comps)
    for i in IDX:
        for j in IDX:
            phi = engine.delta(i, j)
            grad = engine.grad(i, j)
            assert grad == engine.grad(j, i)
            assert grad == tuple(differentiate(phi, v) for v in "xyz")
            assert grad == gradient(phi)
            for f in (field, ZERO_FIELD, engine.control(i), engine.y(j)):
                direct = f.cx * grad[0] + f.cy * grad[1] + f.cz * grad[2]
                assert apply_to_scalar(f, phi) == along(f, gradient(phi))
                assert along(f, grad) == direct


PARAM_NAMES = (
    "alpha1", "alpha2", "alpha3", "beta11", "beta12", "beta13", "beta22",
    "beta22p", "beta32", "beta33", "gamma11", "gamma12", "gamma13",
    "gamma21", "gamma22", "gamma23",
)
_SYMBOLIC = Params.symbolic()


@settings(max_examples=12, deadline=None)
@given(engine_cases())
@example((_SYMBOLIC, e_tanh(_SYMBOLIC, 1, 2, 1, 3, 1),
          "bracket_1"))
def test_build_fields_writes_the_closed_e_into_the_drift(case):
    p, e, variant = case
    closed = p.close(e)
    f0 = build_fields(p, closed)[0]
    formal = build_fields(p)[0]
    assert f0.components() == tuple(
        substitute(c, {E: closed}) for c in formal.components())
    assert ClosureEngine(p, e, variant).f0 == f0

    assert _SYMBOLIC.close(X) is X
    demo = demo_params()
    expr = param("alpha1") * X + tanh(param("gamma11") * Y)
    every = {param(name): demo.value(name) for name in PARAM_NAMES}
    assert demo.close(expr) == substitute(expr, every) == X + tanh(2 * Y)


def test_engine_checks_signs_before_closing_e():
    """gamma11 = 0 is inadmissible, and closing x / gamma11 with it would
    divide by zero: the sign check must come first."""
    p = demo_params()
    p = Params(**{**vars(p), "gamma": ((Fraction(0),) + p.gamma[0][1:],
                                       p.gamma[1])})
    with pytest.raises(InvalidParamsError) as err:
        ClosureEngine(p, X / param("gamma11"))
    assert any("gamma11" in v for v in err.value.violations)


def test_paper_2_scan_needs_no_coefficient_oracle(monkeypatch):
    p = demo_params()
    cases = (X ** 3 * Y + X * Y ** 2,
             e_tanh(p, 1, 2, 1, 3, 1))
    want = [(check_closure(p, e, cross_variant="paper_2"),
             verify_candidate(p, e, cross_variant="paper_2"))
            for e in cases]

    def oracle(*args, **kwargs):
        raise AssertionError("the closure scan called delta_ij_formula")

    monkeypatch.setattr(closure, "delta_ij_formula", oracle)
    for e, (report, measured) in zip(cases, want):
        assert check_closure(p, e, cross_variant="paper_2") == report
        assert verify_candidate(p, e, cross_variant="paper_2") == measured


# -- Lambda on its Leibniz pieces ---------------------------------------

_GOLDEN = Params.from_file(PARAMS)
# (descriptor, cross variant) of every closure golden report
_CLOSURE_GOLDENS = sorted({
    (argv[argv.index("--e") + 1], variant)
    for argv in CASES.values() if argv[0] == "closure"
    for variant in CROSS_VARIANTS})


def assert_lambda_routes_agree(p, descriptor, variant, seed=0):
    """The verdict on lam_pieces equals is_zero of the expanded Lambda
    (lam_with) for every (i, j, k); each route draws from its own rng,
    because the pieces' base atoms can differ from the expanded sum's."""
    engine = ClosureEngine(p, descriptor_to_expr(p, descriptor), variant)
    on_pieces, expanded = random.Random(seed), random.Random(seed)
    for i, j, k in product(IDX, repeat=3):
        pieces = engine.lam_pieces(i, j, k)
        assert all(a.terms and b.terms for a, b in pieces)
        lam = engine.lam_with(k, engine.delta(i, j))
        assert is_zero_products(pieces, on_pieces) == \
            is_zero(lam, expanded), (descriptor, variant, i, j, k)


@pytest.mark.parametrize("descriptor, variant", _CLOSURE_GOLDENS + [
    ("expr:tanh(tanh(x*y))", "bracket_1")])
def test_lambda_pieces_agree_with_expansion_on_goldens(descriptor, variant):
    assert_lambda_routes_agree(_GOLDEN, descriptor, variant)


_SHAPES = ("x^2", "x^3 - x", "tanh(x)", "x*tanh(x)", "exp(x)", "sin(x)")
_PIECES = ("x", "y", "x^2*y", "tanh(x*y)", "exp(x)", "sin(y)",
           "cos(x - y)", "1/(2 + x^2)", "tanh(1 + y)")


@st.composite
def descriptors(draw):
    """char:, tanh: and expr: candidates in the CLI's own syntax."""
    kind = draw(st.sampled_from(("char", "tanh", "expr")))
    if kind == "tanh":
        c3, c4 = draw(st.sampled_from(((1, 3), (-1, 2), (0, 1), (2, 0))))
        return (f"tanh:{draw(st.integers(-2, 2))},"
                f"{draw(st.integers(1, 3))},{c3},{c4},"
                f"{draw(st.sampled_from(IDX))}")
    if kind == "char":
        i, j = draw(st.sampled_from(
            [(i, j) for i in IDX for j in IDX if i != j]))
        diag = ",diag" if draw(st.booleans()) else ""
        return (f"char:{i},{j}{diag}:{draw(st.sampled_from(_SHAPES))};"
                f"{draw(st.sampled_from(_SHAPES))}")
    a, b, c = (draw(st.sampled_from(_PIECES)) for _ in range(3))
    sign = draw(st.sampled_from("+-"))
    return f"expr:{a}*{b} {sign} {draw(st.integers(0, 3))}*{c}"


@settings(max_examples=15, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS),
       st.integers(0, 2 ** 32 - 1))
def test_lambda_pieces_agree_with_expansion_on_a_corpus(
        descriptor, variant, seed):
    assert_lambda_routes_agree(_GOLDEN, descriptor, variant, seed)


@pytest.mark.parametrize("name", ["closure_tanh_seed5", "closure_char_diag"])
def test_scan_decides_transcendental_lambda_unexpanded(name, monkeypatch):
    def expanded(*args):
        raise AssertionError("the closure scan expanded Lambda")

    monkeypatch.setattr(ClosureEngine, "lam_with", expanded)
    code, text = run_case(CASES[name])
    assert code == 1
    assert text.encode("utf-8") == (HERE / f"{name}.out").read_bytes()


def test_scan_decides_polynomial_lambda_exactly(monkeypatch):
    def sampled(*args):
        raise AssertionError("a polynomial scan sampled")

    monkeypatch.setattr(symbolic, "_sample_rational", sampled)
    _, text = run_case(CASES["closure_cubic"])
    assert text.encode("utf-8") == \
        (HERE / "closure_cubic.out").read_bytes()
    report = check_closure(_GOLDEN, X ** 3 * Y + Y ** 2, "paper_2")
    assert not any(report.lambda_zero.values())


# -- scalars as directional derivatives of E ----------------------------

# every E of a closure, check-e or bracket golden report ("" is formal E)
_GOLDEN_INPUTS = sorted({
    argv[argv.index("--e") + 1] if "--e" in argv else ""
    for argv in CASES.values() if argv[0] in ("closure", "check-e",
                                              "bracket")})


def assert_scalars_match_brackets(p, descriptor, variant):
    """Y_k, Delta_ij and s_k of the engine equal the literal brackets
    read back along B by proportional_to; paper_2 adds its E_xy term."""
    e = descriptor_to_expr(p, descriptor) if descriptor else None
    engine = ClosureEngine(p, e, variant)
    b = engine.b
    e_xy = differentiate(
        differentiate(E if e is None else p.close(e), "x"), "y")
    for k in IDX:
        y_k = lie_bracket(engine.f0, engine.control(k))
        assert engine.y(k) == y_k
        s_k = along_b(lie_bracket(y_k, b), b)
        assert engine.b_drift_factor(k) == s_k == \
            engine.lam_with(k, as_expr(1))
    for i, j in product(IDX, repeat=2):
        fi, fj = engine.control(i), engine.control(j)
        dij = along_b(lie_bracket(fi, lie_bracket(engine.f0, fj)), b)
        if variant == "paper_2":
            dij = dij + (fi.cx * fj.cy + fi.cy * fj.cx) * e_xy
        assert engine.delta(i, j) == dij, (descriptor, variant, i, j)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
@pytest.mark.parametrize("descriptor", _GOLDEN_INPUTS)
def test_scalars_match_brackets_on_goldens(descriptor, variant):
    assert_scalars_match_brackets(_GOLDEN, descriptor, variant)


@pytest.mark.parametrize("descriptor", ["", "tanh:1,2,1,3,1",
                                        "char:1,2,diag:tanh(x);x^2"])
def test_scalars_match_brackets_symbolic_params(descriptor):
    for variant in CROSS_VARIANTS:
        assert_scalars_match_brackets(_SYMBOLIC, descriptor, variant)


@settings(max_examples=15, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS))
def test_scalars_match_brackets_on_a_corpus(descriptor, variant):
    assert_scalars_match_brackets(_GOLDEN, descriptor, variant)


def assert_bracket_report_is_literal(descriptor):
    """Every field, y and delta the bracket subcommand prints is the text
    of the literal one: the fields of build_fields, [f0, f_k], and
    [f_i, [f0, f_j]] read back along B."""
    argv = ["bracket", "--params", PARAMS]
    e = E
    if descriptor:
        argv += ["--e", descriptor]
        e = _GOLDEN.close(descriptor_to_expr(_GOLDEN, descriptor))
    code, text = run_case(argv)
    assert code == 0
    report = json.loads(text)
    f0, f1, f2, f3, b = build_fields(_GOLDEN, e)
    controls = (f1, f2, f3)

    def field_text(f):
        return [to_text(c) for c in f.components()]

    assert report["f0"] == field_text(f0)
    assert report["b"] == field_text(b)
    for k in IDX:
        assert report["controls"][str(k)] == field_text(controls[k - 1])
        assert report["y"][str(k)] == \
            field_text(lie_bracket(f0, controls[k - 1])), (descriptor, k)
    for i, j in product(IDX, repeat=2):
        y_j = lie_bracket(f0, controls[j - 1])
        dij = along_b(lie_bracket(controls[i - 1], y_j), b)
        assert report["delta"][f"{i}{j}"] == to_text(dij), (descriptor, i, j)


@pytest.mark.parametrize("descriptor", _GOLDEN_INPUTS)
def test_bracket_report_is_literal_on_goldens(descriptor):
    assert_bracket_report_is_literal(descriptor)


@settings(max_examples=15, deadline=None)
@given(descriptors())
def test_bracket_report_is_literal_on_a_corpus(descriptor):
    assert_bracket_report_is_literal(descriptor)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(_GOLDEN_INPUTS) | descriptors(),
       st.sampled_from(CROSS_VARIANTS), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("poly", "tanh", "product")))
def test_lam_with_is_the_literal_bracket(descriptor, variant, seed, shape):
    rng = random.Random(seed)
    e = descriptor_to_expr(_GOLDEN, descriptor) if descriptor else None
    engine = ClosureEngine(_GOLDEN, e, variant)
    phi = rand_poly(rng, degree=3)
    if shape == "tanh":
        phi = tanh(phi)
    elif shape == "product":
        phi = phi * tanh(rand_poly(rng, degree=2))
    for k in IDX:
        assert engine.lam_with(k, phi) == lam_literal(engine, k, phi), \
            (descriptor, variant, shape, k)


@pytest.mark.parametrize("name", sorted(
    name for name, argv in CASES.items() if argv[0] in ("closure",
                                                          "check-e")))
def test_scan_and_check_e_build_no_bracket(name, monkeypatch):
    def literal(*args):
        raise AssertionError("a bracket was built or divided by B")

    # closure imports none of them; a binding it gained would be patched
    for target in (closure, fields):
        for fn in ("lie_bracket", "proportional_to", "exact_div"):
            if hasattr(target, fn):
                monkeypatch.setattr(target, fn, literal)
    code, text = run_case(CASES[name])
    assert text.encode("utf-8") == (HERE / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


# -- one decision per distinct condition --------------------------------

_CLOSURE_CASES = sorted(
    name for name, argv in CASES.items() if argv[0] == "closure")


@pytest.mark.parametrize("name", _CLOSURE_CASES)
def test_scan_decides_no_object_twice(name, monkeypatch):
    decided = []  # holding the objects keeps their ids unique

    def recording(expr, rng=None):
        decided.append(expr)
        return is_zero(expr, rng)

    monkeypatch.setattr(closure, "is_zero", recording)
    code, text = run_case(CASES[name])
    assert text.encode("utf-8") == (HERE / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert decided
    assert len({id(expr) for expr in decided}) == len(decided)


def test_engine_builds_the_fields_once(monkeypatch):
    calls = {"build_fields": 0, "validate_params": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(closure, "build_fields",
                        counted("build_fields", closure.build_fields))
    monkeypatch.setattr(model, "validate_params",
                        counted("validate_params", model.validate_params))
    e = X ** 2 * tanh(Y)
    engine = ClosureEngine(_GOLDEN, e)
    assert calls == {"build_fields": 1, "validate_params": 1}
    assert engine.f0 == build_fields(_GOLDEN, e)[0]


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
def test_engine_tables_differentiate_no_delta(variant, monkeypatch):
    """The first-order tables differentiate E, the three drift
    components and the three D_k E, each once, and nothing else: y and
    delta, all bracket reads, build no grad (and no Delta3), which on a
    deep transcendental nest cost far more than the tables."""
    seen = []

    def recording(phi):
        seen.append(phi)
        return gradient(phi)

    def refuse(*args):
        raise AssertionError("a grad was built")

    monkeypatch.setattr(closure, "gradient", recording)
    monkeypatch.setattr(ClosureEngine, "grad", refuse)
    e = _GOLDEN.close(descriptor_to_expr(_GOLDEN, "tanh:1,2,1,3,1"))
    engine = ClosureEngine(_GOLDEN, e, variant)
    for i, j in product(IDX, repeat=2):
        engine.y(i)
        engine.delta(i, j)
    drift = build_fields(_GOLDEN, symbolic.ZERO)[0]
    want = [e, *drift.components(),
            *(along(engine.control(k), gradient(e)) for k in IDX)]
    assert sorted(map(to_text, seen)) == sorted(map(to_text, want))


def _det(p, i, j):
    """det(g_i, g_j) = gamma_1i gamma_2j - gamma_1j gamma_2i."""
    g = p.gamma_entry
    return g(1, i) * g(2, j) - g(1, j) * g(2, i)


def assert_gamma_frame_theorem(p, e, variant):
    """Each closure scalar is linear in each control slot, and
    det(g_1, g_3) X(g_2) = det(g_2, g_3) X(g_1) + det(g_1, g_2) X(g_3)
    holds for the constant vectors g_k = (gamma_1k, gamma_2k), so every
    scalar with an index 2 is fixed by those indexed in {1, 3}.  Checked
    as canonical equality in every slot, with no 1/det: Delta_ij (2
    slots), Delta_ijk (3), Lambda_ijk as its summed Leibniz pieces (3)
    and s_k (1)."""
    engine = ClosureEngine(p, e, variant)

    def lam(i, j, k):
        return add_all(a * b for a, b in engine.lam_pieces(i, j, k))

    d13, d23, d12 = _det(p, 1, 3), _det(p, 2, 3), _det(p, 1, 2)
    for name, scalar, slots in (("delta", engine.delta, 2),
                                ("delta3", engine.delta3, 3),
                                ("lambda", lam, 3),
                                ("s", engine.b_drift_factor, 1)):
        for slot, rest in product(range(slots),
                                  product(IDX, repeat=slots - 1)):
            x1, x2, x3 = (scalar(*rest[:slot], m, *rest[slot:])
                          for m in IDX)
            assert d13 * x2 == d23 * x1 + d12 * x3, \
                (name, variant, slot, rest)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
def test_gamma_frame_theorem_symbolic_params_formal_e(variant):
    assert_gamma_frame_theorem(Params.symbolic(), None, variant)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
def test_gamma_frame_theorem_golden_params_tanh(variant):
    assert_gamma_frame_theorem(
        _GOLDEN, descriptor_to_expr(_GOLDEN, "tanh:1,2,1,3,1"), variant)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
@pytest.mark.parametrize("draw", range(10))
def test_gamma_frame_theorem_on_random_params_formal_e(draw, variant):
    assert_gamma_frame_theorem(rand_params(random.Random(draw)), None,
                               variant)


@settings(max_examples=15, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS),
       st.integers(0, 2 ** 32 - 1))
def test_gamma_frame_theorem_on_random_params_and_a_corpus(descriptor,
                                                           variant, seed):
    p = rand_params(random.Random(seed))
    assert_gamma_frame_theorem(p, descriptor_to_expr(p, descriptor),
                               variant)


# the E of every closure golden report
_CLOSURE_GOLDEN_E = sorted({argv[argv.index("--e") + 1]
                            for argv in CASES.values()
                            if argv[0] == "closure"})


def _det3(c):
    return (c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
            - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
            + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0]))


def assert_structure_theorem(p, e, variant, seed=0):
    """c_ij is the symmetric form H of E's second partials (the mixed one
    scaled by the variant) on the control directions (gamma_1i,
    gamma_2i), three vectors in a plane.  So c = G^T H G has rank at most
    2 and det c is zero in the kernel's canonical form; and c is never
    diagonal with every c_ii nonzero (the Heisenberg case), decided here
    by is_zero because check_closure no longer decides it."""
    c = check_closure(p, e, variant, seed).c
    assert _det3(c) == as_expr(0)
    rng = random.Random(seed)
    offdiag_zero = all(is_zero(c[i][j], rng)
                       for i, j in product(range(3), repeat=2) if i != j)
    diag_nonzero = not any(is_zero(c[i][i], rng) for i in range(3))
    assert not (offdiag_zero and diag_nonzero)


@pytest.mark.parametrize("symbolic_params", [False, True],
                         ids=["golden", "symbolic"])
@pytest.mark.parametrize("variant", CROSS_VARIANTS)
@pytest.mark.parametrize("descriptor", _CLOSURE_GOLDEN_E)
def test_structure_matrix_is_singular_and_never_heisenberg(
        descriptor, variant, symbolic_params):
    p = Params.symbolic() if symbolic_params else _GOLDEN
    assert_structure_theorem(p, descriptor_to_expr(p, descriptor), variant)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
@pytest.mark.parametrize("draw", range(20))
def test_structure_theorem_on_random_params_formal_e(draw, variant):
    assert_structure_theorem(rand_params(random.Random(draw)), None,
                             variant, draw)


@settings(max_examples=25, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS),
       st.integers(0, 2 ** 32 - 1))
def test_structure_theorem_on_random_params_and_a_corpus(descriptor,
                                                         variant, seed):
    p = rand_params(random.Random(seed))
    assert_structure_theorem(p, descriptor_to_expr(p, descriptor), variant,
                             seed)


@pytest.mark.parametrize("descriptor, variant", _CLOSURE_GOLDENS)
def test_scan_makes_no_decision_on_c(descriptor, variant, monkeypatch):
    """The theorem above decides the Heisenberg case, so the scan hands
    is_zero no entry of c (ZERO, a shared singleton, aside)."""
    decided = []  # holding the objects keeps their ids unique

    def recording(expr, rng=None):
        decided.append(expr)
        return is_zero(expr, rng)

    monkeypatch.setattr(closure, "is_zero", recording)
    report = check_closure(_GOLDEN, descriptor_to_expr(_GOLDEN, descriptor),
                           variant)
    assert decided
    ids = {id(expr) for expr in decided}
    assert not [entry for row in report.c for entry in row
                if entry is not symbolic.ZERO and id(entry) in ids]


def assert_constancy_follows_from_delta3(p, descriptor, variant, seed=0):
    """constant_ok[i][j] equals the decision of both in-plane partials
    of Delta_ij, made on the engine's gradient with an rng of its own."""
    e = descriptor_to_expr(p, descriptor)
    report = check_closure(p, e, variant, seed)
    engine = ClosureEngine(p, e, variant)
    rng = random.Random(seed)
    for i, j in product(IDX, repeat=2):
        g = engine.grad(i, j)
        assert report.constant_ok[i - 1][j - 1] == \
            (is_zero(g[0], rng) and is_zero(g[1], rng)), \
            (descriptor, variant, i, j)


@pytest.mark.parametrize("descriptor, variant", _CLOSURE_GOLDENS)
def test_constancy_follows_from_delta3_on_goldens(descriptor, variant):
    assert_constancy_follows_from_delta3(_GOLDEN, descriptor, variant)


@settings(max_examples=15, deadline=None)
@given(descriptors(), st.sampled_from(CROSS_VARIANTS),
       st.integers(0, 2 ** 32 - 1))
def test_constancy_follows_from_delta3_on_a_corpus(descriptor, variant,
                                                   seed):
    assert_constancy_follows_from_delta3(_GOLDEN, descriptor, variant, seed)


@pytest.mark.parametrize("descriptor", sorted(
    {descriptor for descriptor, _ in _CLOSURE_GOLDENS}))
def test_delta3_verdict_is_symmetric_under_bracket_1(descriptor):
    report = check_closure(_GOLDEN, descriptor_to_expr(_GOLDEN, descriptor))
    for ijk in product(IDX, repeat=3):
        verdicts = {report.delta3_zero[perm] for perm in permutations(ijk)}
        assert len(verdicts) == 1, (descriptor, ijk)


# -- sampled zero verdicts do not depend on the scale of E ---------------

_SCALES = (Fraction(1, 10 ** 30), Fraction(1, 10 ** 12), Fraction(-7, 3),
           Fraction(10 ** 12))


def _verdicts(report):
    return report.delta3_zero, report.lambda_zero, report.b_central


def assert_scaling_e_keeps_every_verdict(descriptor, variant):
    """Every condition is linear in E, so k E has E's Delta3, Lambda and
    B-centrality verdicts and k times its Delta_ij, however small k is:
    the sampled bound is relative to the largest term."""
    e = descriptor_to_expr(_GOLDEN, descriptor)
    want = _verdicts(check_closure(_GOLDEN, e, variant))
    engine = ClosureEngine(_GOLDEN, e, variant)
    for k in _SCALES:
        got = check_closure(_GOLDEN, e * k, variant)
        assert _verdicts(got) == want, (descriptor, k)
        scaled = ClosureEngine(_GOLDEN, e * k, variant)
        for i, j in product(IDX, repeat=2):
            assert scaled.delta(i, j) == engine.delta(i, j) * k, \
                (descriptor, k, i, j)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
def test_scaling_e_keeps_every_verdict(variant):
    for descriptor in _CLOSURE_GOLDEN_E:
        assert_scaling_e_keeps_every_verdict(descriptor, variant)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
@settings(max_examples=30, deadline=None)
@given(descriptors())
def test_scaling_e_keeps_every_verdict_on_a_corpus(variant, descriptor):
    assert_scaling_e_keeps_every_verdict(descriptor, variant)


@pytest.mark.parametrize("variant", CROSS_VARIANTS)
def test_a_linear_term_leaves_c_delta3_and_b_central(variant):
    """c, Delta3 and s_k read only the second and third partials of E,
    so k E + (a x + b y + c) has k times E's c and E's Delta3 and
    B-centrality verdicts.  Lambda reads D_k E, so it is not compared."""
    shift = X * Fraction(3, 2) - Y * 5 + 7
    for descriptor in _CLOSURE_GOLDEN_E:
        e = descriptor_to_expr(_GOLDEN, descriptor)
        want = check_closure(_GOLDEN, e, variant)
        for k in (1,) + _SCALES:
            got = check_closure(_GOLDEN, e * k + shift, variant)
            assert got.c == [[x * k for x in row] for row in want.c]
            assert got.delta3_zero == want.delta3_zero, (descriptor, k)
            assert got.b_central == want.b_central, (descriptor, k)


def test_small_gammas_do_not_hide_failures():
    """With every gamma divided by 10^4 each condition on a tanh E is
    small, but not zero: Delta3 and Lambda still fail."""
    with open(PARAMS, encoding="utf-8") as handle:
        data = json.load(handle)
    gamma = [[Fraction(g) / 10 ** 4 for g in row] for row in data["gamma"]]
    p = Params.make(data["alpha"], data["beta"], gamma)
    for seed in range(3):
        report = check_closure(p, descriptor_to_expr(p, "tanh:1,2,1,3,1"),
                               seed=seed).to_dict()
        assert report["delta3_failures"] and report["lambda_failures"]
