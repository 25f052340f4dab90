"""Homology of the seven-generator bracket algebra.

The abstract span of {X_1, X_2, X_3, Y_1, Y_2, Y_3, Z} with the only
nonzero brackets [X_i, Y_j] = c_ij Z is two-step nilpotent for any
structure matrix c.  Its Lie-algebra homology with trivial real
coefficients comes from the Koszul complex on the exterior algebra,

    d_p(e_{s_1} ^ ... ^ e_{s_p})
        = sum over r < s of (-1)^(r+s)
          [e_{s_r}, e_{s_s}] ^ (the wedge with slots r, s removed),

with the bracket wedged in front, so sorting it into place costs one
sign per smaller remaining index.  Chains are ordered by lexicographic
index subsets.  All matrix work is exact: an entry with denominator 1
is an int (symbolic._coef), so an integer c builds no Fraction, and
ranks come from gcd-reduced integer row elimination (rank_exact).

Betti numbers follow from rank-nullity,
b_p = C(7, p) - rank d_p - rank d_{p+1}, and the alternating sum of the
b_p telescopes through the chain dimensions to zero.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .model import _is_row, _rational
from .symbolic import _coef

DIM = 7
_ZERO7 = (0,) * DIM


def _vec(values) -> tuple:
    out = tuple(_coef(v if isinstance(v, (int, Fraction)) else Fraction(v))
                for v in values)
    if len(out) != DIM:
        raise ValueError(f"bracket vectors need {DIM} entries")
    return out


class StructureMatrix:
    """3x3 exact matrix c with [X_i, Y_j] = c_ij Z."""

    def __init__(self, rows: tuple):
        self.rows = rows

    @classmethod
    def of(cls, rows) -> "StructureMatrix":
        if not (_is_row(rows) and len(rows) == 3
                and all(_is_row(row) and len(row) == 3 for row in rows)):
            raise ValueError("structure matrix must be 3x3")
        return cls(tuple(
            tuple(_rational(v, "structure matrix entry") for v in row)
            for row in rows))

    @classmethod
    def identity(cls) -> "StructureMatrix":
        return cls.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @classmethod
    def from_json(cls, text: str) -> "StructureMatrix":
        try:
            data = json.loads(text, parse_float=Fraction,
                              parse_int=Fraction)
        except json.JSONDecodeError as err:
            raise ValueError(f"structure matrix is not valid JSON: {err}")
        if isinstance(data, dict) and "c" in data:
            data = data["c"]
        return cls.of(data)

    def entry(self, i: int, j: int) -> Fraction:
        """c_ij with 1-based indices."""
        return self.rows[i - 1][j - 1]


class Algebra7:
    """Seven-dimensional algebra given by its bracket table.

    table maps ordered basis pairs (a, b) to the coordinate vector of
    [e_a, e_b].  Pairs may come in either order; when both orders are
    present they must be exact negatives, and diagonal entries must be
    zero.  The stored form keeps a < b only.
    """

    def __init__(self, table: Mapping):
        store: dict = {}
        for (a, b), raw in table.items():
            if not (0 <= a < DIM and 0 <= b < DIM):
                raise ValueError(f"basis index out of range in ({a}, {b})")
            vec = _vec(raw)
            if a == b:
                if any(vec):
                    raise ValueError(
                        f"[e_{a}, e_{a}] must vanish, got {vec}")
                continue
            key, signed = ((a, b), vec) if a < b else \
                ((b, a), tuple(-v for v in vec))
            if key in store:
                if store[key] != signed:
                    raise ValueError(
                        f"entries for pair {key} are not antisymmetric")
            elif any(signed):
                store[key] = signed
        self.table = store

    @classmethod
    def from_structure_matrix(cls, c: StructureMatrix) -> "Algebra7":
        table = {}
        for i in range(3):
            for j in range(3):
                val = c.rows[i][j]
                if val:
                    vec = [0] * DIM
                    vec[6] = val
                    table[(i, 3 + j)] = vec
        return cls(table)

    def bracket_basis(self, a: int, b: int) -> tuple:
        if a == b:
            return _ZERO7
        if a < b:
            return self.table.get((a, b), _ZERO7)
        vec = self.table.get((b, a))
        return _ZERO7 if vec is None else tuple(-v for v in vec)

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """[u, v] for coordinate vectors u, v."""
        out = [0] * DIM
        for (a, b), vec in self.table.items():
            coeff = u[a] * v[b] - u[b] * v[a]
            if coeff:
                for m, w in enumerate(vec):
                    if w:
                        out[m] += coeff * w
        return tuple(out)


def build_algebra(c: StructureMatrix) -> Algebra7:
    """The span algebra of a closure run: [X_i, Y_j] = c_ij Z and all
    other basis brackets zero."""
    return Algebra7.from_structure_matrix(c)


def jacobi_check(algebra: Algebra7) -> bool:
    """Exact Jacobi identity over all basis triples."""
    basis = [tuple(int(i == t) for t in range(DIM)) for i in range(DIM)]
    for a, b, c in combinations(range(DIM), 3):
        ea, eb, ec = basis[a], basis[b], basis[c]
        total = [0] * DIM
        for first, second, third in ((ea, eb, ec), (eb, ec, ea),
                                     (ec, ea, eb)):
            inner = algebra.bracket(first, second)
            outer = algebra.bracket(inner, third)
            for m in range(DIM):
                total[m] += outer[m]
        if any(total):
            return False
    return True


def is_heisenberg(algebra: Algebra7) -> bool:
    """True for the diagonal case: the only surviving brackets are
    [X_i, Y_i] = c_ii Z with every c_ii nonzero."""
    allowed = {(i, 3 + i) for i in range(3)}
    for (a, b), vec in algebra.table.items():
        if any(vec[:6]):
            return False
        if (a, b) not in allowed:
            return False
    return all(algebra.table.get((i, 3 + i), _ZERO7)[6] != 0
               for i in range(3))


def subsets(p: int):
    """Lexicographic basis of wedge degree p."""
    return list(combinations(range(DIM), p))


def boundary_matrix(algebra: Algebra7, p: int):
    """Matrix of d_p from degree p to degree p - 1 in the lexicographic
    wedge bases, rows indexed by (p-1)-subsets.  d_0 has no rows."""
    if not 0 <= p <= DIM:
        raise ValueError(f"degree must be between 0 and {DIM}, got {p}")
    if p == 0:
        return []
    cols = subsets(p)
    rows = subsets(p - 1)
    row_index = {s: n for n, s in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for col, subset in enumerate(cols):
        # the table holds the nonzero brackets [e_a, e_b], a < b only
        for (a, b), vec in algebra.table.items():
            if a not in subset or b not in subset:
                continue
            r, s = subset.index(a), subset.index(b)
            # 1-based slots r+1, s+1 give the (-1)^(r+s) pair sign
            pair_sign = -1 if (r + s) % 2 else 1
            rest = subset[:r] + subset[r + 1:s] + subset[s + 1:]
            for m, w in enumerate(vec):
                if not w or m in rest:
                    continue
                smaller = sum(1 for t in rest if t < m)
                sign = pair_sign * (-1 if smaller % 2 else 1)
                target = tuple(sorted(rest + (m,)))
                mat[row_index[target]][col] += sign * w
    return mat


def rank_exact(rows) -> int:
    """Rank of rows of ints and Fractions by integer row elimination.
    Nonzero rows are scaled by the lcm of their denominators, so integer
    rows cost nothing.  Under each pivot only a row with head != 0
    changes: it becomes lead * row - head * pivot_row, divided by its
    gcd.

    Plain Bareiss (Math. Comp. 22, 1968) rewrites every row below the
    pivot.  Here each row is a rational multiple of the Bareiss row,
    with the same pivots, and is either a scaled input row or primitive,
    so its entries are no larger than Bareiss's minors."""
    n_cols = len(rows[0]) if rows else 0
    mat = []
    for row in rows:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        if any(row):
            scale = lcm(*(v.denominator for v in row))
            mat.append([v.numerator * (scale // v.denominator)
                        for v in row])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        row_p = mat[rank]
        lead = row_p[col]
        for r in range(rank + 1, len(mat)):
            head = mat[r][col]
            if head:
                new = [lead * a - head * b for a, b in zip(mat[r], row_p)]
                g = gcd(*new)
                mat[r] = [v // g for v in new] if g > 1 else new
        rank += 1
        if rank == len(mat):
            break
    return rank


def _mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        for t in range(k):
            v = row[t]
            if not v:
                continue
            brow = b[t]
            orow = out[i]
            for j in range(m):
                if brow[j]:
                    orow[j] += v * brow[j]
    return out


class ChainComplex:
    """All eight boundary matrices of one algebra, ready for exact rank
    and composition checks."""

    def __init__(self, matrices: tuple):
        self.matrices = matrices  # matrices[p] is d_p, p = 0..7

    def dims(self):
        return [comb(DIM, p) for p in range(DIM + 1)]

    def ranks(self):
        return [rank_exact(m) for m in self.matrices]

    def d_squared_is_zero(self) -> bool:
        for p in range(2, DIM + 1):
            prod = _mat_mul(self.matrices[p - 1], self.matrices[p])
            if any(any(row) for row in prod):
                return False
        return True


def chain_complex(algebra: Algebra7) -> ChainComplex:
    return ChainComplex(tuple(boundary_matrix(algebra, p)
                              for p in range(DIM + 1)))


def _betti_euler(ranks: list):
    """Betti vector and Euler characteristic from the ranks of d_0..d_7:
    b_p = dim ker d_p - dim im d_{p+1}."""
    ranks = ranks + [0]
    betti = [comb(DIM, p) - ranks[p] - ranks[p + 1] for p in range(DIM + 1)]
    return betti, sum((-1) ** p * b for p, b in enumerate(betti))


def betti_numbers(algebra: Algebra7) -> list:
    """b_p for p = 0..7."""
    return _betti_euler(chain_complex(algebra).ranks())[0]


def euler_characteristic(algebra: Algebra7) -> int:
    return _betti_euler(chain_complex(algebra).ranks())[1]


def homology_report(algebra: Algebra7) -> dict:
    """Betti vector, boundary ranks, Euler characteristic, and the
    Heisenberg flag, as plain JSON-ready data."""
    ranks = chain_complex(algebra).ranks()
    betti, euler = _betti_euler(ranks)
    return {
        "betti": betti,
        "ranks": ranks,
        "euler": euler,
        "heisenberg": is_heisenberg(algebra),
    }
