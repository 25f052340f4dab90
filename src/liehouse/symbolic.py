"""Exact symbolic kernel for the greenhouse bracket toolkit.

Expressions live in a fully expanded canonical form: a sum of terms, each
term an exact rational coefficient attached to a multiset of atom powers.
Atoms come in five flavors:

  * coordinates        x, y, z
  * named parameters   alpha1, ..., gamma23
  * formal partials    E, E_x, E_xy, ...   (derivatives of the
                       evapotranspiration function, indexed by the pair
                       of x- and y-orders)
  * transcendentals    tanh/exp/sin/cos applied to a nonzero canonical
                       argument (at zero they fold exactly: tanh(0) =
                       sin(0) = 0, exp(0) = cos(0) = 1)
  * reciprocals        (s)^-1 of a canonical multi-term sum s

The reciprocal flavor is internal bookkeeping: it is what keeps families
like 1/(c4 + c3*tanh(u)) closed under differentiation and substitution.
Reciprocal bases are normalized to leading coefficient one so that equal
quotients collapse to equal atoms.

Atoms are hash-consed through one weak table keyed by their structural
key: equal atoms are one object, compared and hashed by identity, and
the table keeps an atom only while some live expression holds it.  Each
atom keeps its own partial derivatives, built on the first lookup per
coordinate, so the memo of a derivative lives exactly as long as its
atom and no module-level cache holds atoms alive.  Two expressions are
equal exactly when their canonical forms coincide.  On the fragment
without transcendental or reciprocal atoms (Laurent polynomials,
negative powers included) this makes zero-testing a decision
procedure; with them, is_zero and is_zero_products fall back to
seeded random evaluation through one loop over factor pairs,
_sampled_zero, which states the rule (e alone is the pair (e, 1)), so
is_zero_products refutes a sum of products on its unexpanded factors.
On the Laurent fragment is_zero_products first reads the sum at one
fixed point modulo the prime 2^61 - 1 (_residue) and multiplies the
products out only when that residue is 0.
Structural arithmetic is exact: a coefficient is an int when its
denominator is 1 and a fractions.Fraction otherwise, and the two
compare, hash and print alike, so the choice never shows in a result.
Sums, derivatives and products of two multi-term expressions are
collected through one monomial -> coefficient map.  A product with a
single-term side is not: a constant scales the coefficients and keeps
the term order, and a single monomial u sends m to m * u, which adds
exponent vectors and so keeps distinct monomials distinct; those
products are only sorted.
Floats appear only in eval_numeric, in the programs compile_exprs
builds, and in sampling.  Atoms memoize their text and residue, and an
expression its residue, since both are immutable.
"""

from __future__ import annotations

import functools
import math
import random
import weakref
from collections.abc import Mapping
from fractions import Fraction

VARIABLE_NAMES = ("x", "y", "z")
PARAMETER_NAMES = (
    "alpha1", "alpha2", "alpha3",
    "beta11", "beta12", "beta13", "beta22", "beta22p", "beta32", "beta33",
    "gamma11", "gamma12", "gamma13", "gamma21", "gamma22", "gamma23",
)
FUNCTION_NAMES = ("tanh", "exp", "sin", "cos")

# atom kind ranks; the rank is the first entry of every sort key
_VAR, _PARAM, _EPARTIAL, _FUNC, _RECIP = range(5)


class SymbolicError(Exception):
    """Base class for kernel failures."""


class MissingAssignmentError(SymbolicError):
    """Numeric evaluation hit an atom with no assigned value."""


class InconsistentBindingError(SymbolicError):
    """A substitution binds a partial of E to something other than the
    derivative of the bound E."""


class EvaluationError(SymbolicError):
    """Random sampling could not produce enough finite evaluations with
    a nonzero term."""


class Atom:
    """An indivisible symbol, hash-consed.  Immutable, totally ordered by key.

    Every atom is built by _atom, which returns the one live atom with a
    given structural key, so equal atoms are the same object and compare
    and hash by identity.  data is the flavor-specific payload: a name
    for coordinates and parameters, an (a, b) order pair for partials of
    E, a (name, Expr) pair for transcendentals, and the base Expr for
    reciprocals.  partials maps a coordinate name to the atom's
    derivative, filled on the first lookup by differentiate.  text
    holds the printed text of a transcendental and the printed base of a
    reciprocal, and residue the value of a coordinate, parameter or
    partial of E at _residue's point; each is set on first use.
    """

    __slots__ = ("kind", "data", "key", "partials", "text", "residue",
                 "__weakref__")

    def __init__(self, kind, data, key):
        self.kind = kind
        self.data = data
        self.key = key
        self.partials = {}
        self.text = None
        self.residue = None

    def __reduce__(self):
        # copy, deepcopy and pickle come back through the table
        return _atom, (self.kind, self.data, self.key)

    def __repr__(self):
        return _atom_text(self)


# key -> atom, weak so that an entry lives exactly as long as its atom
_atoms = weakref.WeakValueDictionary()


def _atom(kind, data, key) -> Atom:
    atom = _atoms.get(key)
    if atom is None:
        atom = _atoms[key] = Atom(kind, data, key)
    return atom


def _var_atom(name: str) -> Atom:
    if name not in VARIABLE_NAMES:
        raise ValueError(f"unknown coordinate {name!r}")
    return _atom(_VAR, name, (_VAR, name))


def _param_atom(name: str) -> Atom:
    return _atom(_PARAM, name, (_PARAM, name))


def _epartial_atom(a: int, b: int) -> Atom:
    if a < 0 or b < 0:
        raise ValueError("partial orders must be nonnegative")
    return _atom(_EPARTIAL, (a, b), (_EPARTIAL, a, b))


def _func_atom(name: str, arg: "Expr") -> Atom:
    return _atom(_FUNC, (name, arg), (_FUNC, name, arg.key))


def _recip_atom(base: "Expr") -> Atom:
    return _atom(_RECIP, base, (_RECIP, base.key))


# A monomial is a tuple of (Atom, exponent) pairs sorted by atom key with
# no zero exponents.  Reciprocal atoms carry positive exponents only.

def monomial_key(mono) -> tuple:
    return tuple((a.key, k) for a, k in mono)


def _term_key(term) -> tuple:
    """monomial_key of a (monomial, coefficient) term, the sort key of
    Expr.terms."""
    return tuple([(a.key, k) for a, k in term[0]])


def _atom_expr(atom: Atom) -> "Expr":
    return Expr(((((atom, 1),), 1),))


def _coef(c):
    """The exact coefficient c, as an int when its denominator is 1."""
    if c.denominator == 1:
        return int(c.numerator)
    return c


class Expr:
    """Canonical sum of terms.  Treat instances as immutable.

    terms is a tuple of (monomial, coefficient) sorted by monomial key,
    with nonzero coefficients, each an int or a Fraction whose
    denominator exceeds 1 (see _coef).  The empty tuple is zero.
    _residue is unset until _residue(e) first reads it.
    """

    __slots__ = ("terms", "_key", "_hash", "_residue")

    def __init__(self, terms=()):
        self.terms = terms
        self._key = None
        self._hash = None

    @property
    def key(self):
        if self._key is None:
            self._key = tuple((monomial_key(m), c) for m, c in self.terms)
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __reduce__(self):
        # the cached hash mixes atom addresses, so a copy recomputes it
        return Expr, (self.terms,)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _collect(other.terms, dict(self.terms))

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((m, -c) for m, c in self.terms))

    def __pos__(self):
        return self

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        one, many = self.terms, other.terms
        if len(one) > len(many):
            one, many = many, one
        if len(one) != 1:
            return _collect((_merge_monomials(m1, m2), c1 * c2)
                            for m1, c1 in self.terms
                            for m2, c2 in other.terms)
        # one side is a single term k * u: m -> m * u adds exponent
        # vectors, so distinct monomials stay distinct and nothing collects
        (u, k), = one
        if not u and k == 1:
            return self if one is other.terms else other
        terms = many
        if k != 1:
            terms = []
            for m, c in many:
                c = c * k
                if c.__class__ is Fraction and c.denominator == 1:
                    c = c.numerator
                terms.append((m, c))
        if u:  # a constant keeps every monomial and their order
            terms = sorted([(_merge_monomials(m, u), c) for m, c in terms],
                           key=_term_key)
        return Expr(tuple(terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * _invert(other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * _invert(self)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n == 0:
            return ONE
        if n < 0:
            return _invert(self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __str__(self):
        return to_text(self)

    __repr__ = __str__


ZERO = Expr()
ONE = Expr((((), 1),))
# f(0), folded exactly when a function atom would be built at zero
_AT_ZERO = {"tanh": ZERO, "sin": ZERO, "exp": ONE, "cos": ONE}


def _coerce(value) -> Expr | None:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        if value == 0:
            return ZERO
        return Expr((((), _coef(value)),))
    return None


def as_expr(value) -> Expr:
    """Coerce an int or Fraction to a canonical expression."""
    e = _coerce(value)
    if e is None:
        raise TypeError(f"cannot interpret {value!r} as an exact expression")
    return e


def _collect(pairs, acc=None) -> Expr:
    """The canonical sum of (monomial, coefficient) pairs added onto acc,
    a monomial -> coefficient map the call consumes.  Every coefficient
    is nonzero.  Every sum, every derivative and every product of two
    multi-term expressions is built here, once; a product with a
    single-term side needs no collecting (see Expr.__mul__).  A monomial
    seen for the first time keeps its coefficient, and a coefficient or
    sum whose denominator is 1 is kept as an int."""
    if acc is None:
        acc = {}
    get = acc.get
    for m, c in pairs:
        old = get(m)
        if old is not None:
            c = old + c
            if not c:
                del acc[m]
                continue
        if c.__class__ is Fraction and c.denominator == 1:
            c = c.numerator
        acc[m] = c
    if not acc:
        return ZERO
    return Expr(tuple(sorted(acc.items(), key=_term_key)))


def add_all(exprs) -> Expr:
    """The sum of many expressions, built once rather than one copy of
    the growing sum per +."""
    return _collect(pair for e in exprs for pair in e.terms)


def _merge_monomials(m1, m2):
    """Merge two sorted monomials, adding exponents of equal atoms.

    Canonical inputs carry positive reciprocal exponents, so the merge
    never produces a negative one and needs no expansion step.
    """
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a1, k1 = m1[i]
        a2, k2 = m2[j]
        if a1 is a2:
            k = k1 + k2
            if k:
                out.append((a1, k))
            i += 1
            j += 1
        elif a1.key < a2.key:
            out.append((a1, k1))
            i += 1
        else:
            out.append((a2, k2))
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _make_term(powers: Mapping, coeff) -> Expr:
    """Build an expression from an atom -> exponent map.

    Zero exponents are dropped.  A negative power of a reciprocal atom is
    expanded into the corresponding power of its base sum, which keeps
    the positive-reciprocal-exponent invariant.
    """
    if not coeff:
        return ZERO
    pending = []
    mono = []
    for atom, k in powers.items():
        if k == 0:
            continue
        if atom.kind == _RECIP and k < 0:
            pending.append((atom.data, -k))
        else:
            mono.append((atom, k))
    mono.sort(key=lambda it: it[0].key)
    e = Expr(((tuple(mono), _coef(coeff)),))
    for base, k in pending:
        e = e * base ** k
    return e


def _invert(e: Expr) -> Expr:
    if not e.terms:
        raise ZeroDivisionError("division by a zero expression")
    if len(e.terms) == 1:
        m, c = e.terms[0]
        return _make_term({a: -k for a, k in m}, Fraction(1, c))
    inv = Fraction(1, e.terms[-1][1])
    return _atom_expr(_recip_atom(e * inv)) * inv


# -- constructors ------------------------------------------------------

def var(name: str) -> Expr:
    return _atom_expr(_var_atom(name))


def param(name: str) -> Expr:
    return _atom_expr(_param_atom(name))


def epartial(a: int, b: int) -> Expr:
    """The formal partial derivative of E of order a in x and b in y."""
    return _atom_expr(_epartial_atom(a, b))


def _func_expr(name: str, arg) -> Expr:
    arg = as_expr(arg)
    if not arg.terms:
        return _AT_ZERO[name]
    return _atom_expr(_func_atom(name, arg))


def tanh(arg) -> Expr:
    return _func_expr("tanh", arg)


def exp(arg) -> Expr:
    return _func_expr("exp", arg)


def sin(arg) -> Expr:
    return _func_expr("sin", arg)


def cos(arg) -> Expr:
    return _func_expr("cos", arg)


X = var("x")
Y = var("y")
Z = var("z")
E = epartial(0, 0)


# -- differentiation ---------------------------------------------------

def _as_var_name(v) -> str:
    if isinstance(v, str):
        if v not in VARIABLE_NAMES:
            raise ValueError(f"unknown coordinate {v!r}")
        return v
    if isinstance(v, Expr) and len(v.terms) == 1:
        m, c = v.terms[0]
        if c == 1 and len(m) == 1 and m[0][1] == 1 and m[0][0].kind == _VAR:
            return m[0][0].data
    raise ValueError(f"cannot differentiate with respect to {v!r}")


def _build_partial(atom: Atom, vname: str) -> Expr:
    """d atom / d vname; _derivative_pairs keeps it in atom.partials."""
    if atom.kind == _VAR:
        return ONE if atom.data == vname else ZERO
    if atom.kind == _PARAM:
        return ZERO
    if atom.kind == _EPARTIAL:
        a, b = atom.data
        if vname == "x":
            return epartial(a + 1, b)
        if vname == "y":
            return epartial(a, b + 1)
        return ZERO
    if atom.kind == _FUNC:
        name, arg = atom.data
        darg = differentiate(arg, vname)
        if not darg.terms:
            return ZERO
        if name == "tanh":
            outer = ONE - _func_expr("tanh", arg) ** 2
        elif name == "exp":
            outer = _func_expr("exp", arg)
        elif name == "sin":
            outer = _func_expr("cos", arg)
        else:  # cos
            outer = -_func_expr("sin", arg)
        return outer * darg
    # reciprocal: d(1/g) = -g' / g^2
    base = atom.data
    dbase = differentiate(base, vname)
    if not dbase.terms:
        return ZERO
    return _make_term({atom: 2}, -1) * dbase


def differentiate(e, v) -> Expr:
    """Formal partial derivative.  v is 'x', 'y', 'z' or a coordinate
    expression.  Partials of E shift their order pair; tanh uses
    tanh' = 1 - tanh^2."""
    e = as_expr(e)
    return _collect(_derivative_pairs(e, _as_var_name(v)))


def _derivative_pairs(e: Expr, vname: str):
    """The product rule, term by term: d(c * a^k * rest) contributes
    c * k * a^(k-1) * rest * a'.  Dropping or lowering one exponent of a
    sorted monomial leaves it sorted, and a reciprocal exponent stays
    positive, so each pair is one merge with a term of a'."""
    for m, c in e.terms:
        for idx, (atom, k) in enumerate(m):
            datom = atom.partials.get(vname)
            if datom is None:
                datom = atom.partials[vname] = _build_partial(atom, vname)
            if not datom.terms:
                continue
            if k == 1:
                rest = m[:idx] + m[idx + 1:]
            else:
                rest = m[:idx] + ((atom, k - 1),) + m[idx + 1:]
            ck = c if k == 1 else c * k
            for dm, dc in datom.terms:
                yield _merge_monomials(rest, dm), ck if dc == 1 else ck * dc


# -- substitution ------------------------------------------------------

def _as_atom(key) -> Atom:
    if isinstance(key, Atom):
        return key
    if isinstance(key, Expr) and len(key.terms) == 1:
        m, c = key.terms[0]
        if c == 1 and len(m) == 1 and m[0][1] == 1:
            return m[0][0]
    raise TypeError(f"{key!r} is not a single atom")


class _Substitution:
    def __init__(self, bindings: Mapping):
        self.map = {}
        for k, v in bindings.items():
            self.map[_as_atom(k)] = as_expr(v)
        self.cache: dict = {}
        base = self.map.get(_epartial_atom(0, 0))
        self.derived: dict | None = None
        if base is not None:
            self.derived = {(0, 0): base}
            for atom, bound in self.map.items():
                if atom.kind == _EPARTIAL and atom.data != (0, 0):
                    want = self.partial(*atom.data)
                    if want != bound:
                        raise InconsistentBindingError(
                            f"{atom!r} bound to {bound} but the bound E "
                            f"derives {want}")

    def partial(self, a: int, b: int) -> Expr:
        got = self.derived.get((a, b))
        if got is None:
            if a > 0:
                got = differentiate(self.partial(a - 1, b), "x")
            else:
                got = differentiate(self.partial(a, b - 1), "y")
            self.derived[(a, b)] = got
        return got

    def atom_value(self, atom: Atom) -> Expr:
        got = self.cache.get(atom)
        if got is not None:
            return got
        direct = self.map.get(atom)
        if direct is not None:
            out = direct
        elif atom.kind == _EPARTIAL and self.derived is not None:
            out = self.partial(*atom.data)
        elif atom.kind == _FUNC:
            name, arg = atom.data
            new_arg = self.run(arg)
            out = _atom_expr(atom) if new_arg == arg else _func_expr(name, new_arg)
        elif atom.kind == _RECIP:
            new_base = self.run(atom.data)
            if not new_base.terms:
                raise ZeroDivisionError(
                    f"division by zero: the denominator {to_text(atom.data)}"
                    " is zero at the substituted values")
            out = _atom_expr(atom) if new_base == atom.data else _invert(new_base)
        else:
            out = _atom_expr(atom)
        self.cache[atom] = out
        return out

    def run(self, e: Expr) -> Expr:
        pieces = []
        for m, c in e.terms:
            piece = as_expr(c)
            for atom, k in m:
                piece = piece * self.atom_value(atom) ** k
            pieces.append(piece)
        return add_all(pieces)


def substitute(e, bindings: Mapping) -> Expr:
    """Simultaneous substitution of atoms by expressions.

    Binding E itself makes every partial of E resolve to the matching
    derivative of the bound expression; an explicit binding for a partial
    must then agree with that derivative or InconsistentBindingError is
    raised.  Unbound atoms pass through, with transcendental arguments
    and reciprocal bases rewritten recursively.
    """
    return _Substitution(bindings).run(as_expr(e))


# -- numeric evaluation ------------------------------------------------

def _eval_atom(atom: Atom, memo: dict) -> float:
    got = memo.get(atom)
    if got is not None:
        return got
    if atom.kind == _FUNC:
        name, arg = atom.data
        val = getattr(math, name)(_eval_terms(arg, memo)[0])
    elif atom.kind == _RECIP:
        val = 1.0 / _eval_terms(atom.data, memo)[0]
    else:
        raise MissingAssignmentError(f"no value assigned to {atom!r}")
    memo[atom] = val
    return val


def _eval_terms(e: Expr, memo: dict):
    """Evaluate term by term, returning (sum, largest term magnitude)."""
    total = 0.0
    scale = 0.0
    get = memo.get
    for m, c in e.terms:
        # int / int rounds once, exactly as float(Fraction) does
        prod = float(c) if c.__class__ is int else c.numerator / c.denominator
        for atom, k in m:
            v = get(atom)
            if v is None:
                v = _eval_atom(atom, memo)
            prod *= v if k == 1 else v ** k
        total += prod
        mag = abs(prod)
        if mag > scale:
            scale = mag
    return total, scale


def eval_numeric(e, assignment: Mapping) -> float:
    """Evaluate at a point.  assignment maps atoms (or single-atom
    expressions) to numbers; transcendentals and reciprocals evaluate
    through their contents unless assigned directly."""
    memo = {_as_atom(k): float(v) for k, v in assignment.items()}
    return _eval_terms(as_expr(e), memo)[0]


class Program:
    """A batch of expressions lowered to one straight-line float function.

    source is the generated Python text, kept for inspection: it names
    each coefficient k0, k1, ..., and consts holds their float values in
    that order.  Build with compile_exprs, run with evaluate; a caller
    that already holds floats may call run directly, as simulate's
    stepping loop does.
    """

    __slots__ = ("source", "consts", "run")

    def __init__(self, source: str, consts: tuple, run):
        self.source = source
        self.consts = consts
        self.run = run


# the most terms a generated program adds in one statement
_SUM_CHUNK = 500


class _Lowering:
    """Lowers expressions to straight-line Python statements on floats.

    Emits one assignment per transcendental or reciprocal atom, in the
    order _eval_terms first evaluates them, one per distinct power a ** k,
    and one per distinct value asked for (see value).  An expression is
    written term by term as k * a * p * ..., summed onto 0.0 from left
    to right (over several statements when it has more than _SUM_CHUNK
    terms), so its value repeats _eval_terms's float operations exactly.
    Each coefficient is a constant of its own, named k0, k1, ... in the
    order written, and consts holds its float; a leading constant term c
    is the one constant 0.0 + float(c), the value the sum starts from.
    A program runs every term at every call, so a coefficient beyond the
    float range is a ValueError once, when the program is built.
    A sum of products, given as (a, b) factor pairs, is not multiplied
    out: each distinct factor is named once, as an expression, and the
    sum is written 0.0 + fa * fb + ... from left to right.  Statements
    carry the given indent, so a caller may place them inside its own
    loop.  The text holds only generated names, integer exponents and
    math function names: no coefficient and nothing a user typed, so
    expressions that differ only in their coefficients lower to equal
    text."""

    def __init__(self, inputs, indent: str = "    "):
        self.indent = indent
        self.names = {_as_atom(a): f"v{n}" for n, a in enumerate(inputs)}
        self.powers: dict = {}
        self.values: dict = {}
        self.lines: list = []
        self.consts: list = []

    def emit(self, name: str, code: str) -> None:
        self.lines.append(f"{self.indent}{name} = {code}")

    def atom(self, atom: Atom) -> str:
        name = self.names.get(atom)
        if name is not None:
            return name
        if atom.kind == _FUNC:
            fname, arg = atom.data
            if fname not in FUNCTION_NAMES:  # the name becomes code text
                raise ValueError(f"no float evaluator for {fname!r}")
            code = f"{fname}({self.expr(arg)})"
        elif atom.kind == _RECIP:
            code = f"1.0 / ({self.expr(atom.data)})"
        else:
            raise MissingAssignmentError(f"no value assigned to {atom!r}")
        name = f"a{len(self.lines)}"
        self.emit(name, code)
        self.names[atom] = name
        return name

    def power(self, atom: Atom, k: int) -> str:
        base = self.atom(atom)
        if k == 1:
            return base
        name = self.powers.get((base, k))
        if name is None:
            name = f"{base}_{'m' if k < 0 else ''}{abs(k)}"
            self.emit(name, f"{base} ** {k}")
            self.powers[(base, k)] = name
        return name

    def constant(self, c, start: bool = False) -> str:
        """A new constant holding float(c), or 0.0 + float(c) where c
        starts a sum; a c beyond the float range is refused here."""
        try:
            value = float(c)
        except OverflowError:
            digits = math.log10(abs(c.numerator)) - math.log10(c.denominator)
            raise ValueError(
                f"a coefficient of order 10^{math.floor(digits)} is outside "
                f"the float range (magnitude at most about 1.8e308)") from None
        self.consts.append(0.0 + value if start else value)
        return f"k{len(self.consts) - 1}"

    def expr(self, e: Expr) -> str:
        parts = ["0.0"]
        terms = e.terms
        if terms and not terms[0][0]:
            # the sum starts at 0.0 + c: added once here, not per call
            parts = [self.constant(terms[0][1], start=True)]
            terms = terms[1:]
        for m, c in terms:
            factors = [self.constant(c)]
            factors.extend(self.power(atom, int(k)) for atom, k in m)
            parts.append(" * ".join(factors))
        if len(parts) <= _SUM_CHUNK + 1:
            return " + ".join(parts)
        # one line of thousands of chained + exhausts the compiler's
        # recursion limit; continue the same left-to-right sum over lines
        name = f"s{len(self.lines)}"
        for start in range(0, len(parts), _SUM_CHUNK):
            chunk = parts[start:start + _SUM_CHUNK]
            if start:
                chunk.insert(0, name)
            self.emit(name, " + ".join(chunk))
        return name

    def value(self, item) -> str:
        """Name of a local holding item's value: item is an expression
        or a sequence of (a, b) factor pairs standing for the sum of the
        products a * b.  Equal items, and equal factors, share a local."""
        if isinstance(item, (tuple, list)):
            key = tuple((as_expr(a), as_expr(b)) for a, b in item)
        else:
            key = as_expr(item)
        name = self.values.get(key)
        if name is None:
            if isinstance(key, tuple):
                code = " + ".join(["0.0", *(
                    f"{self.value(a)} * {self.value(b)}" for a, b in key)])
            else:
                code = self.expr(key)
            name = f"e{len(self.values)}"
            self.emit(name, code)
            self.values[key] = name
        return name

    def unpack(self, indent: str) -> list:
        """The line, if any, that binds k0, k1, ... from the tuple _k."""
        if not self.consts:
            return []
        return [indent + "".join(f"k{n}, " for n in range(len(self.consts)))
                + "= _k"]

    def define(self, source: str, name: str):
        """The function name that source defines, with this lowering's
        constants bound: source reads them as k0, k1, ... after the line
        unpack writes, and runs with the math functions and isfinite in
        scope.  Equal sources share one compiled code (_factory)."""
        return _factory(source, name)(tuple(self.consts))


@functools.lru_cache(maxsize=64)
def _factory(source: str, name: str):
    """Compile source into def _bind(_k), which runs source and
    returns its function name.  The text holds no coefficient, so
    candidates that differ only in their coefficients share one compile
    while their text stays among the 64 most recently used; the bound
    keeps a long screen of many shapes at a fixed memory."""
    body = "".join(f"    {line}\n" for line in source.splitlines())
    namespace = {f: getattr(math, f) for f in FUNCTION_NAMES}
    namespace["isfinite"] = math.isfinite
    exec(compile(f"def _bind(_k):\n{body}    return {name}\n",
                 "<liehouse program>", "exec"), namespace)
    # popped, so the factory and its globals form no reference cycle
    return namespace.pop("_bind")


def compile_exprs(exprs, inputs) -> Program:
    """Lower a batch of expressions once for repeated float evaluation.

    inputs lists the atoms (or single-atom expressions) whose values are
    passed to evaluate, in order; they are leaves even when they are
    transcendental or reciprocal.  Every other transcendental and
    reciprocal atom, every power of an atom and every distinct
    expression is evaluated once per call however many terms and
    expressions share it, and coefficients are converted to float once,
    when the program is built (one beyond the float range is a
    ValueError then).  The program reads them from its closure, so
    batches that differ only in their coefficients run one compiled
    code.  The value of an expression is exactly that of eval_numeric,
    bit for bit.  An item given as (a, b) factor pairs evaluates to the
    sum of the products of its factors' values, added onto 0.0 from left
    to right; it is not multiplied out, so it may differ in the last bits
    from eval_numeric of the expanded sum.  A base atom that is not an
    input raises MissingAssignmentError here, before any evaluation.
    """
    inputs = list(inputs)
    low = _Lowering(inputs)
    outputs = "".join(f"{low.value(e)}, " for e in exprs)
    params = ", ".join(f"v{n}" for n in range(len(inputs)))
    source = "\n".join([*low.unpack(""), f"def run({params}):", *low.lines,
                        f"    return ({outputs})", ""])
    return Program(source, tuple(low.consts), low.define(source, "run"))


def evaluate(program: Program, values) -> tuple:
    """Run a compiled program on values given in the order of its inputs,
    converted with float() as eval_numeric converts its assignment;
    returns one float per compiled expression.  Arithmetic failures
    propagate as in eval_numeric (ZeroDivisionError at a pole,
    OverflowError, ValueError from math)."""
    return program.run(*map(float, values))


def all_atoms(*exprs: Expr) -> set:
    """Every atom reachable in the expressions, descending into
    transcendental arguments and reciprocal bases."""
    out: set = set()
    stack = list(exprs)
    while stack:
        for m, _ in stack.pop().terms:
            for atom, _k in m:
                if atom in out:
                    continue
                out.add(atom)
                if atom.kind == _FUNC:
                    stack.append(atom.data[1])
                elif atom.kind == _RECIP:
                    stack.append(atom.data)
    return out


def base_atoms(*exprs: Expr) -> list:
    """All coordinate, parameter, and E-partial atoms reachable in the
    expressions, sorted by key."""
    return sorted((a for a in all_atoms(*exprs)
                   if a.kind not in (_FUNC, _RECIP)),
                  key=lambda a: a.key)


def has_transcendental(e: Expr) -> bool:
    """True when any transcendental or reciprocal atom occurs in e."""
    for m, _ in e.terms:
        for atom, _k in m:
            if atom.kind in (_FUNC, _RECIP):
                return True
    return False


def _has_negative_power(e: Expr) -> bool:
    for m, _ in e.terms:
        for _atom, k in m:
            if k < 0:
                return True
    return False


# _sampled_zero's finite points per decision, and its tolerance on
# |value| relative to the largest product of term magnitudes
_SAMPLE_POINTS = 8
_SAMPLE_TOL = 1e-9


def _sample_rational(rng: random.Random) -> float:
    """A seeded uniform rational in [-2, 2] with denominator 10^6, as the
    nearest float (int / int rounds once, as float(Fraction) does)."""
    return rng.randint(-2_000_000, 2_000_000) / 1_000_000


def _sampled_zero(pairs, rng: random.Random) -> bool:
    """The one sampling loop: does the sum of a * b over the factor pairs
    read as zero?  is_zero samples e as the single pair (e, ONE).

    At each point every base atom of the factors, in sorted order, takes
    a _sample_rational draw from rng, and each factor is evaluated term
    by term against one shared memo (a straight-line program: Ibarra &
    Moran, JACM 30(1), 1983).  The products a * b are summed onto 0.0,
    and the scale is the largest sa * sb, sa and sb being the factors'
    largest term magnitudes.  A point refutes zero when |value| > _SAMPLE_TOL * scale: the bound is
    relative to the largest product alone, so a sum whose terms are all
    small is not read as zero for that.  A point whose evaluation fails
    or is not finite, or whose scale is 0.0 (every term vanished or
    underflowed, as when exp(x)^100000 does, so it cannot tell zero from
    nonzero), is redrawn.  After 25 * _SAMPLE_POINTS draws without
    _SAMPLE_POINTS good points EvaluationError is raised; after
    _SAMPLE_POINTS good points the sum reads as zero."""
    unknowns = base_atoms(*(f for pair in pairs for f in pair))
    good = 0
    attempts = 0
    while good < _SAMPLE_POINTS:
        attempts += 1
        if attempts > 25 * _SAMPLE_POINTS:
            raise EvaluationError(
                "could not find enough finite sample points")
        memo = {a: _sample_rational(rng) for a in unknowns}
        value = scale = 0.0
        try:
            for a, b in pairs:
                va, sa = _eval_terms(a, memo)
                vb, sb = _eval_terms(b, memo)
                value += va * vb
                if sa * sb > scale:
                    scale = sa * sb
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        if not (math.isfinite(value) and math.isfinite(scale)) \
                or scale == 0.0:
            continue
        if abs(value) > _SAMPLE_TOL * scale:
            return False
        good += 1
    return True


def is_zero(e, rng: random.Random | None = None) -> bool:
    """Decide whether e is identically zero.

    Without transcendental or reciprocal atoms e is a Laurent polynomial,
    negative powers included, and its canonical form decides exactly,
    drawing nothing from rng.  Otherwise e is sampled by _sampled_zero,
    which states the rule, with rng (random.Random(0) when None).
    """
    e = as_expr(e)
    if not e.terms:
        return True
    if not has_transcendental(e):
        return False
    if rng is None:
        rng = random.Random(0)
    return _sampled_zero(((e, ONE),), rng)


# the exact branch of is_zero_products reads sums modulo this prime
_PRIME = (1 << 61) - 1


def _atom_residue(atom: Atom) -> int:
    """The fixed nonzero residue of a coordinate, parameter or partial of
    E: 3 to the power of its key's repr read as a big-endian integer,
    modulo _PRIME.  It depends only on the key, and a power of 3 is never
    0 modulo a prime, so every negative power has an inverse."""
    got = atom.residue
    if got is None:
        got = atom.residue = pow(
            3, int.from_bytes(repr(atom.key).encode(), "big"), _PRIME)
    return got


def _residue(e: Expr) -> int:
    """e at the fixed point of _atom_residue modulo _PRIME, or -1 when a
    coefficient's denominator is a multiple of _PRIME and has no
    inverse; e holds no transcendental or reciprocal atom.  Cached on e,
    since factors recur across the decisions of one scan."""
    got = getattr(e, "_residue", None)
    if got is None:
        got = 0
        for m, c in e.terms:
            if c.__class__ is int:
                v = c
            else:
                den = c.denominator % _PRIME
                if not den:
                    got = -1
                    break
                v = c.numerator * pow(den, -1, _PRIME)
            for atom, k in m:
                r = _atom_residue(atom)
                v = v * (r if k == 1 else pow(r, k, _PRIME)) % _PRIME
            got += v
        else:
            got %= _PRIME
        e._residue = got
    return got


def _products_residue(pairs) -> int:
    """The residue of the sum of a * b over the pairs, read off the
    factors' residues without multiplying them out; 0 when a factor has
    no residue."""
    total = 0
    for a, b in pairs:
        ra, rb = _residue(a), _residue(b)
        if ra < 0 or rb < 0:
            return 0
        total += ra * rb
    return total % _PRIME


def is_zero_products(pairs, rng: random.Random | None = None) -> bool:
    """Decide whether the sum of a * b over the (a, b) pairs is
    identically zero, without multiplying the pairs out to refute it.

    When no factor holds a transcendental or reciprocal atom the sum is
    a Laurent polynomial, and it is first read modulo _PRIME at the
    fixed point of _atom_residue (Schwartz, JACM 27(4), 1980; Zippel,
    EUROSAM 1979).  Evaluation modulo a prime is a ring map, so a
    nonzero residue proves the sum nonzero.  A residue of 0, or a factor
    with no residue, sends the sum to is_zero's exact decision on the
    expansion.  Either way nothing is drawn from rng.
    Otherwise _sampled_zero, which states the rule, samples the pairs
    unexpanded with rng (random.Random(0) when None).

    Its scale cannot see cancellation between pairs: 10^12 u * y -
    y * (10^12 u + 1) sums to -y, far below 10^-9 of its pieces.  So a
    sum the samples read as zero is expanded after all and the verdict
    is is_zero's on the expansion, drawing further points from rng.
    Only a nonzero verdict is reached without multiplying out.
    """
    pairs = [(as_expr(a), as_expr(b)) for a, b in pairs]
    if any(has_transcendental(f) for pair in pairs for f in pair):
        if rng is None:
            rng = random.Random(0)
        if not _sampled_zero(pairs, rng):
            return False
    elif _products_residue(pairs):
        return False
    return is_zero(add_all(a * b for a, b in pairs), rng)


# -- printing ----------------------------------------------------------

def _nested_text(atom: Atom) -> str:
    """The text of a transcendental atom, or of a reciprocal atom's
    base, rendered once per atom."""
    got = atom.text
    if got is None:
        if atom.kind == _FUNC:
            name, arg = atom.data
            got = f"{name}({to_text(arg)})"
        else:
            got = to_text(atom.data)
        atom.text = got
    return got


def _atom_text(atom: Atom) -> str:
    if atom.kind in (_VAR, _PARAM):
        return atom.data
    if atom.kind == _EPARTIAL:
        a, b = atom.data
        if a == 0 and b == 0:
            return "E"
        return "E_" + "x" * a + "y" * b
    if atom.kind == _FUNC:
        return _nested_text(atom)
    return f"({_nested_text(atom)})^-1"


def _atom_power_text(atom: Atom, k: int) -> str:
    if atom.kind == _RECIP:
        return f"({_nested_text(atom)})^-{k}"
    base = _atom_text(atom)
    return base if k == 1 else f"{base}^{k}"


def _term_text(m, c_abs) -> str:
    if not m:
        return str(c_abs)
    factors = []
    if c_abs != 1:
        factors.append(str(c_abs))
    factors.extend(_atom_power_text(a, k) for a, k in m)
    return "*".join(factors)


def to_text(e) -> str:
    """Render in the grammar the parser accepts; parse(to_text(e)) == e."""
    e = as_expr(e)
    if not e.terms:
        return "0"
    parts = []
    for m, c in e.terms:
        body = _term_text(m, abs(c))
        if not parts:
            parts.append("-" + body if c < 0 else body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)
