"""Homology of the seven-generator bracket algebra.

The abstract span of {X_1, X_2, X_3, Y_1, Y_2, Y_3, Z} with the only
nonzero brackets [X_i, Y_j] = c_ij Z is two-step nilpotent for any
structure matrix c, so c is the whole algebra and every function here
takes the StructureMatrix.  Put the form (X_i, Y_j) -> c_ij into Darboux
form: the algebra is the Heisenberg algebra h_{2r+1} plus an abelian
algebra of dimension 6 - 2r, where r = rank c.  So its Lie-algebra
homology with trivial real coefficients depends on r alone, and only
four reports exist; the algebra is h_7 exactly when r = 3.
homology_report takes that route: r from rank_exact on the 3x3 matrix,
the Betti numbers from the Kunneth product of those of h_{2r+1}
(Santharoubane, "Cohomology of Heisenberg Lie algebras", Proc. AMS 87,
1983),

    b_p(h_{2r+1}) = C(2r, p) - C(2r, p - 2) for p <= r, b_{2r+1-p} = b_p,

with the exterior algebra of R^{6-2r}, and the boundary ranks from
rank-nullity, top down: rank d_p = C(7, p) - b_p - rank d_{p+1}, with
rank d_8 = 0.  The alternating sum of the b_p telescopes through the
chain dimensions to zero.

The Koszul complex on the exterior algebra stays as the oracle that
tests compare the closed form against (chain_complex, betti_numbers,
euler_characteristic).  With basis e_0..e_6 = X_1..X_3, Y_1..Y_3, Z,

    d_p(e_{s_1} ^ ... ^ e_{s_p})
        = sum over r < s of (-1)^(r+s)
          [e_{s_r}, e_{s_s}] ^ (the wedge with slots r, s removed),

with the bracket wedged in front.  The only nonzero basis brackets are
[e_a, e_b] = c_{a,b-3} e_6 for a < 3 <= b < 6, and e_6 sorts last, so
the sign of moving it into place is (-1)^(p-2); a wedge that already
holds e_6 has zero boundary.  d∘d = 0 on this complex is the Jacobi
identity (Chevalley & Eilenberg, Trans. AMS 63, 1948).  Chains are
ordered by lexicographic index subsets.  All matrix work is exact: an
entry with denominator 1 is an int (symbolic._coef), so an integer c
builds no Fraction, and ranks come from gcd-reduced integer row
elimination (rank_exact).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .model import _is_row, _rational, read_exact_json
from .symbolic import _coef

DIM = 7
Z = DIM - 1  # the index of e_6 = Z


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
        data = read_exact_json(text, "structure matrix")
        if isinstance(data, dict) and "c" in data:
            data = data["c"]
        return cls.of(data)

    def entry(self, i: int, j: int) -> Fraction:
        """c_ij with 1-based indices."""
        return self.rows[i - 1][j - 1]


def subsets(p: int):
    """Lexicographic basis of wedge degree p."""
    return list(combinations(range(DIM), p))


def boundary_matrix(c: StructureMatrix, p: int):
    """Matrix of d_p from degree p to degree p - 1 in the lexicographic
    wedge bases, rows indexed by (p-1)-subsets.  d_0 has no rows."""
    if not 0 <= p <= DIM:
        raise ValueError(f"degree must be between 0 and {DIM}, got {p}")
    if p == 0:
        return []
    cols = subsets(p)
    row_index = {s: n for n, s in enumerate(subsets(p - 1))}
    mat = [[0] * len(cols) for _ in row_index]
    for col, subset in enumerate(cols):
        if subset[-1] == Z:
            continue  # every bracket is a multiple of Z, and Z ^ Z = 0
        # an X in slot r (a < 3), a Y in slot s (b >= 3); [X, X] = 0
        for r, a in enumerate(subset):
            if a >= 3:
                break
            for s in range(r + 1, p):
                b = subset[s]
                w = c.rows[a][b - 3] if b >= 3 else 0
                if not w:
                    continue
                rest = subset[:r] + subset[r + 1:s] + subset[s + 1:]
                # (-1)^(r+s) for the pair, (-1)^(p-2) to sort Z last
                sign = -1 if (r + s + p) % 2 else 1
                mat[row_index[rest + (Z,)]][col] += sign * _coef(w)
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


def chain_complex(c: StructureMatrix) -> ChainComplex:
    return ChainComplex(tuple(boundary_matrix(c, p)
                              for p in range(DIM + 1)))


def _betti_euler(ranks: list):
    """Betti vector and Euler characteristic from the ranks of d_0..d_7:
    b_p = dim ker d_p - dim im d_{p+1}."""
    ranks = ranks + [0]
    betti = [comb(DIM, p) - ranks[p] - ranks[p + 1] for p in range(DIM + 1)]
    return betti, sum((-1) ** p * b for p, b in enumerate(betti))


def betti_numbers(c: StructureMatrix) -> list:
    """b_p for p = 0..7."""
    return _betti_euler(chain_complex(c).ranks())[0]


def euler_characteristic(c: StructureMatrix) -> int:
    return _betti_euler(chain_complex(c).ranks())[1]


def _closed_form(r: int) -> tuple:
    """(Betti vector, ranks of d_0..d_7) of the algebra of a rank-r
    structure matrix: h_{2r+1} plus the abelian R^{6-2r}."""
    low = [comb(2 * r, p) - (comb(2 * r, p - 2) if p >= 2 else 0)
           for p in range(r + 1)]
    heis = low + low[::-1]
    free = 6 - 2 * r
    betti = [sum(heis[q] * comb(free, p - q)
                 for q in range(len(heis)) if 0 <= p - q <= free)
             for p in range(DIM + 1)]
    ranks = [0] * (DIM + 2)
    for p in range(DIM, -1, -1):
        ranks[p] = comb(DIM, p) - betti[p] - ranks[p + 1]
    return tuple(betti), tuple(ranks[:DIM + 1])


_BY_RANK = tuple(_closed_form(r) for r in range(4))


def homology_report(c: StructureMatrix) -> dict:
    """Betti vector, boundary ranks, Euler characteristic, and the
    Heisenberg flag (the algebra is h_7, that is, rank c = 3) of the
    span algebra of c, as plain JSON-ready data.  Every field depends
    on rank c alone (see the module docstring); the Euler
    characteristic of a nonzero Lie algebra is 0."""
    r = rank_exact(c.rows)
    betti, ranks = _BY_RANK[r]
    return {
        "betti": list(betti),
        "ranks": list(ranks),
        "euler": 0,
        "heisenberg": r == 3,
    }
