"""Chain complex of the seven-dimensional span algebra: boundary
matrices against an independent reference, exact ranks against floating
rank and against sympy's exact rank, and the pinned diagonal-case
profile.  sympy is a test dependency only."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from liehouse.homology import (
    DIM, Algebra7, StructureMatrix, betti_numbers, boundary_matrix,
    build_algebra, chain_complex, euler_characteristic, homology_report,
    is_heisenberg, jacobi_check, rank_exact, subsets,
)

GOLDEN = Path(__file__).parent / "golden" / "heisenberg_betti.json"


def rand_structure(rng: random.Random) -> StructureMatrix:
    while True:
        rows = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                 for _ in range(3)] for _ in range(3)]
        if any(any(row) for row in rows):
            return StructureMatrix.of(rows)


# -- independent boundary reference --------------------------------------

def _wedge_sort(seq):
    """Permutation sign by bubble swaps; zero for repeated indices."""
    arr = list(seq)
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] == arr[j + 1]:
                return 0, None
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign, tuple(arr)


def reference_boundary(algebra: Algebra7, p: int):
    cols = list(combinations(range(DIM), p))
    rows = list(combinations(range(DIM), p - 1))
    row_of = {s: n for n, s in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for col, sub in enumerate(cols):
        for r, s in combinations(range(p), 2):
            vec = algebra.bracket_basis(sub[r], sub[s])
            pair = (-1) ** ((r + 1) + (s + 1))
            rest = tuple(v for t, v in enumerate(sub) if t not in (r, s))
            for m, w in enumerate(vec):
                if not w:
                    continue
                sign, target = _wedge_sort((m,) + rest)
                if sign == 0:
                    continue
                mat[row_of[target]][col] += pair * sign * w
    return mat


# -- structure matrices ---------------------------------------------------

def test_structure_matrix_io():
    c = StructureMatrix.identity()
    assert c.entry(1, 1) == 1
    assert c.entry(1, 2) == 0
    assert is_heisenberg(build_algebra(c))
    bare = StructureMatrix.from_json("[[1,2,3],[4,5,6],[7,8,9]]")
    assert bare.entry(3, 1) == 7
    wrapped = StructureMatrix.from_json('{"c": [[1,0,0],[0,1,0],[0,0,0]]}')
    assert not is_heisenberg(build_algebra(wrapped))
    assert StructureMatrix.from_json('[[0.5,0,0],[0,1,0],[0,0,1]]') \
        .entry(1, 1) == Fraction(1, 2)


def test_structure_matrix_errors():
    with pytest.raises(ValueError):
        StructureMatrix.from_json("[[1,2],[3,4]]")
    with pytest.raises(ValueError):
        StructureMatrix.from_json("not json")


# -- algebra --------------------------------------------------------------

def test_bracket_table_normalization():
    z = [0] * 7
    e_z = list(z)
    e_z[6] = 1
    alg = Algebra7({(3, 0): [-v for v in e_z]})
    assert alg.bracket_basis(0, 3) == tuple(Fraction(v) for v in e_z)
    assert alg.bracket_basis(3, 0) == tuple(Fraction(-v) for v in e_z)
    with pytest.raises(ValueError):
        Algebra7({(0, 0): e_z})
    with pytest.raises(ValueError):
        Algebra7({(0, 3): e_z, (3, 0): e_z})
    with pytest.raises(ValueError):
        Algebra7({(0, 9): e_z})


def test_bracket_is_bilinear(rng):
    alg = build_algebra(rand_structure(rng))
    for _ in range(5):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(7)]
        uv = alg.bracket(u, v)
        vu = alg.bracket(v, u)
        assert tuple(a + b for a, b in zip(uv, vu)) == (Fraction(0),) * 7
        uw = alg.bracket(u, w)
        both = alg.bracket(u, [a + b for a, b in zip(v, w)])
        assert both == tuple(a + b for a, b in zip(uv, uw))


def test_jacobi_for_span_algebras(rng):
    assert jacobi_check(build_algebra(StructureMatrix.identity()))
    for _ in range(3):
        assert jacobi_check(build_algebra(rand_structure(rng)))


def test_jacobi_detects_violation():
    e0 = [1, 0, 0, 0, 0, 0, 0]
    e2 = [0, 0, 1, 0, 0, 0, 0]
    broken = Algebra7({(0, 1): e2, (0, 2): e0})
    assert not jacobi_check(broken)


def test_heisenberg_detection():
    assert is_heisenberg(build_algebra(StructureMatrix.identity()))
    offdiag = StructureMatrix.of([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert not is_heisenberg(build_algebra(offdiag))
    degenerate = StructureMatrix.of([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert not is_heisenberg(build_algebra(degenerate))


# -- boundary matrices ----------------------------------------------------

def test_subsets_are_lexicographic():
    assert subsets(1) == [(i,) for i in range(7)]
    assert subsets(2)[0] == (0, 1)
    assert subsets(2)[-1] == (5, 6)
    assert len(subsets(4)) == comb(7, 4)


def test_degree_one_boundary_vanishes():
    alg = build_algebra(StructureMatrix.identity())
    mat = boundary_matrix(alg, 1)
    assert len(mat) == 1 and len(mat[0]) == 7
    assert all(v == 0 for v in mat[0])


def test_degree_two_boundary_single_entries():
    alg = build_algebra(StructureMatrix.identity())
    mat = boundary_matrix(alg, 2)
    pairs = subsets(2)
    z_row = subsets(1).index((6,))
    for col, (a, b) in enumerate(pairs):
        column = [mat[r][col] for r in range(len(mat))]
        if (a, b) in ((0, 3), (1, 4), (2, 5)):
            assert column[z_row] == -1
            assert sum(1 for v in column if v) == 1
        else:
            assert not any(column)


def test_boundary_matches_independent_reference(rng):
    mats_checked = 0
    for c in [StructureMatrix.identity(), rand_structure(rng),
              rand_structure(rng)]:
        alg = build_algebra(c)
        for p in range(1, DIM + 1):
            assert boundary_matrix(alg, p) == reference_boundary(alg, p)
            mats_checked += 1
    assert mats_checked == 21


def test_boundary_rejects_bad_degree():
    alg = build_algebra(StructureMatrix.identity())
    with pytest.raises(ValueError):
        boundary_matrix(alg, 8)


# -- exact rank -----------------------------------------------------------

def test_rank_exact_matches_numpy(rng):
    for _ in range(10):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                 for _ in range(m)] for _ in range(n)]
        want = np.linalg.matrix_rank(np.array(
            [[float(v) for v in row] for row in rows]))
        assert rank_exact(rows) == want


def test_rank_exact_on_constructed_rank(rng):
    for r in (1, 2, 3):
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
             for _ in range(6)]
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(5)]
             for _ in range(r)]
        prod = [[sum(a[i][k] * b[k][j] for k in range(r))
                 for j in range(5)] for i in range(6)]
        got = rank_exact(prod)
        assert got <= r
        full_a = np.linalg.matrix_rank(np.array(a, dtype=float)) == r
        full_b = np.linalg.matrix_rank(np.array(b, dtype=float)) == r
        if full_a and full_b:
            assert got == r


def test_rank_exact_edge_cases():
    assert rank_exact([]) == 0
    assert rank_exact([[Fraction(0), Fraction(0)]]) == 0
    assert rank_exact([[Fraction(1, 3)]]) == 1


# -- exact rank against sympy ----------------------------------------------

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def sparse_int_matrices(draw):
    """Up to 35x35 with about three entries up to 10^6 per row, then up
    to five rows that combine two others, so the rank falls short."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 35))
    mat = [[0] * m for _ in range(n)]
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
        st.integers(-10 ** 6, 10 ** 6), max_size=3 * n))
    for (i, j), v in cells.items():
        mat[i][j] = v
    for i, j, a, b in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(-3, 3), st.integers(-3, 3)), max_size=5)):
        mat.append([a * u + b * v for u, v in zip(mat[i], mat[j])])
    return mat


def _low_rank(draw, n: int, m: int, r: int) -> list:
    """An n x r times r x m product of rational matrices: rank <= r."""
    a = [[draw(rationals) for _ in range(r)] for _ in range(n)]
    b = [[draw(rationals) for _ in range(m)] for _ in range(r)]
    return [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(m)]
            for i in range(n)]


@st.composite
def rational_matrices(draw):
    return _low_rank(draw, *(draw(st.integers(1, 8)) for _ in range(3)))


@st.composite
def rational_structures(draw):
    """c of rank at most r = 0..3."""
    return StructureMatrix.of(_low_rank(draw, 3, 3, draw(st.integers(0, 3))))


@settings(max_examples=80, deadline=None)
@given(st.one_of(sparse_int_matrices(), rational_matrices()))
def test_rank_exact_matches_sympy(rows):
    assert rank_exact(rows) == sympy.Matrix(rows).rank()


@settings(max_examples=12, deadline=None)
@given(rational_structures())
def test_boundary_ranks_match_sympy(c):
    alg = build_algebra(c)
    for p in range(DIM + 1):
        mat = boundary_matrix(alg, p)
        assert rank_exact(mat) == sympy.Matrix(mat).rank(), p


@settings(max_examples=12, deadline=None)
@given(rational_structures(), rationals.filter(bool))
def test_homology_report_is_scale_invariant(c, lam):
    scaled = StructureMatrix.of([[lam * v for v in row] for row in c.rows])
    assert homology_report(build_algebra(scaled)) \
        == homology_report(build_algebra(c))


# -- chain complex and homology -------------------------------------------

def test_chain_dims_and_exactness(rng):
    cases = [StructureMatrix.identity()] \
        + [rand_structure(rng) for _ in range(3)]
    for c in cases:
        cc = chain_complex(build_algebra(c))
        assert cc.dims() == [1, 7, 21, 35, 35, 21, 7, 1]
        assert cc.d_squared_is_zero()


def test_identity_profile_matches_golden():
    alg = build_algebra(StructureMatrix.identity())
    cc = chain_complex(alg)
    betti = betti_numbers(alg)
    want = json.loads(GOLDEN.read_text())
    assert betti == want["betti"]
    assert cc.ranks() == want["ranks"]
    assert euler_characteristic(alg) == want["euler"]
    assert betti == [1, 6, 14, 14, 14, 14, 6, 1]


def test_poincare_duality_identity():
    betti = betti_numbers(build_algebra(StructureMatrix.identity()))
    for p in range(8):
        assert betti[p] == betti[7 - p]
    assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0


def test_generic_structure_betti_ends(rng):
    for _ in range(4):
        alg = build_algebra(rand_structure(rng))
        betti = betti_numbers(alg)
        assert betti[0] == 1
        assert betti[1] == 6
        assert betti[6] == 6
        assert betti[7] == 1
        assert euler_characteristic(alg) == 0


def _heisenberg_betti(n: int) -> list:
    """Betti numbers of h_{2n+1} (Santharoubane, Proc. AMS 87, 1983):
    b_p = C(2n, p) - C(2n, p - 2) for p <= n, and b_{2n+1-p} = b_p."""
    low = [comb(2 * n, p) - (comb(2 * n, p - 2) if p >= 2 else 0)
           for p in range(n + 1)]
    return low + low[::-1]


def _closed_form_betti(r: int) -> list:
    """Kunneth product of h_{2r+1} with the exterior algebra of
    R^{6-2r}: a rank-r structure matrix splits the algebra that way."""
    heis = _heisenberg_betti(r)
    return [sum(heis[q] * comb(6 - 2 * r, p - q)
                for q in range(len(heis)) if 0 <= p - q <= 6 - 2 * r)
            for p in range(DIM + 1)]


def _integer_matrix_of_rank(rng: random.Random, r: int) -> list:
    while True:
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(r)]
        rows = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(3)]
                for i in range(3)]
        if np.linalg.matrix_rank(np.array(rows, dtype=float)) == r:
            return rows


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_betti_closed_form_depends_only_on_rank(rng, r):
    for _ in range(3):
        rows = _integer_matrix_of_rank(rng, r)
        betti = betti_numbers(build_algebra(StructureMatrix.of(rows)))
        assert betti == _closed_form_betti(r), rows


def test_homology_report_shape():
    rep = homology_report(build_algebra(StructureMatrix.identity()))
    assert rep["heisenberg"] is True
    assert rep["betti"] == [1, 6, 14, 14, 14, 14, 6, 1]
    assert rep["euler"] == 0
    assert len(rep["ranks"]) == 8
