"""Grammar round-trips and position-annotated failures."""

import sys

import pytest
from hypothesis import given, settings

from liehouse.parsing import MAX_NESTING, ParseError, parse
from liehouse.symbolic import as_expr, to_text

from test_symbolic import polys

# 50 expressions spanning the full vocabulary: numbers (integer,
# decimal, rational), coordinates, parameters, E-partials, the four
# functions, powers incl. negative, grouping, and unary signs.
CORPUS = [
    "0",
    "7",
    "3/2",
    "1.25",
    "0.5",
    "x",
    "y",
    "z",
    "-x",
    "+x",
    "x + y",
    "x - y - z",
    "2*x + 3*y",
    "x*y*z",
    "x^2",
    "x^10",
    "x^-2",
    "(x + y)^2",
    "(x + y)^-1",
    "x^2*y^3 - z",
    "x/3",
    "2/3*x",
    "x / y",
    "1/(1 + x)",
    "(x - y)/(x + y)",
    "alpha1",
    "beta12*x + beta22p*y",
    "gamma11*gamma21",
    "alpha1 + alpha2 + alpha3",
    "beta11*x - beta33*z",
    "E",
    "E_x",
    "E_y",
    "E_xy",
    "E_xx - 2*E_xy + E_yy",
    "E_xxy",
    "E_xyy",
    "E_xxx + E_yyy",
    "gamma12*E_x + gamma22*E_y",
    "tanh(x)",
    "tanh(2*x - y)",
    "exp(x + y)",
    "sin(x)*cos(y)",
    "cos(x*y)",
    "tanh(x)^2",
    "1/(3 + tanh(x + 2*y))",
    "exp(x)^-1",
    "alpha1 + beta12*E + gamma11*x^2",
    "-(x + y)*(x - y)",
    "2*x*(y + z)^2 - 3/4*tanh(z)",
]


def test_corpus_size_and_distinct():
    assert len(CORPUS) == 50
    assert len(set(CORPUS)) == 50


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip(text):
    e = parse(text)
    printed = to_text(e)
    again = parse(printed)
    assert again == e
    assert to_text(again) == printed


@settings(max_examples=50, deadline=None)
@given(polys())
def test_round_trip_random_polynomials(e):
    assert parse(to_text(e)) == e


def test_whitespace_insensitive():
    assert parse(" x+y ") == parse("x + y")
    assert parse("2 * x") == parse("2*x")


def test_decimals_read_exactly():
    assert parse("0.1") == as_expr(1) / 10
    assert parse("1.25") == as_expr(5) / 4


def test_operator_precedence():
    assert parse("x + y*z") == parse("x + (y*z)")
    assert parse("x*y^2") == parse("x*(y^2)")
    assert parse("-x^2") == parse("-(x^2)")
    assert parse("x - y + z") == parse("(x - y) + z")
    assert parse("x/y/z") == parse("(x/y)/z")


@pytest.mark.parametrize("text,pos,fragment", [
    ("", 0, "empty"),
    ("   ", 0, "empty"),
    ("x*+y", 2, "expected a value"),
    ("x + ", 4, "end of input"),
    ("quux", 0, "unknown identifier"),
    ("E_yx", 0, "unknown identifier"),
    ("tanh", 0, "argument list"),
    ("tanh x", 0, "argument list"),
    ("(x + y", 6, "expected ')'"),
    ("x ^ y", 4, "integer exponent"),
    ("x ^ 1.5", 4, "integer exponent"),
    ("2 $ 3", 2, "unexpected character"),
    ("x y", 2, "unexpected token"),
    ("x/0", 3, "division by zero"),
])
def test_errors_carry_positions(text, pos, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos
    assert fragment in str(err.value)
    assert f"position {pos}" in str(err.value)


def test_nesting_bound():
    parens = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(parens) == parse("x")
    calls = "tanh(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert to_text(parse(calls)) == calls
    for deeper in ("(" + parens + ")", "sin(" + calls + ")",
                   "tanh(" * 60 + "(" * (MAX_NESTING - 59) + "x"
                   + ")" * (MAX_NESTING + 1)):
        with pytest.raises(ParseError) as err:
            parse(deeper)
        assert f"nesting deeper than {MAX_NESTING} levels" in str(err.value)


def test_number_literals_within_the_digit_limit():
    # int() refuses a string of more digits than sys.get_int_max_str_digits()
    # allows; the parser refuses such a literal first, naming its position
    # and its digit count, and any Fraction or power of a shorter one is read
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter converts int strings of any length")
    ones = "1" * (limit + 1)
    for text, pos, digits in ((ones + "*x", 0, limit + 1),
                              ("x*1." + ones, 2, limit + 2),
                              ("x^" + ones, 2, limit + 1),
                              ("y + 0." + "0" * limit, 4, limit + 1)):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == pos
        assert f"of {digits} digits" in str(err.value)
    assert parse("1" * limit) == as_expr(int("1" * limit))
    assert parse("10^4999") == as_expr(10 ** 4999)
