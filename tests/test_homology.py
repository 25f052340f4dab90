"""Chain complex of the seven-dimensional span algebra: boundary
matrices against an independent reference that reads the brackets off c,
exact ranks against floating rank and against sympy's exact rank, the
closed-form report against the Koszul complex, and the pinned h_7
profile.  sympy is a test dependency only."""

import contextlib
import io
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

from liehouse.cli import main
from liehouse.homology import (
    DIM, StructureMatrix, betti_numbers, boundary_matrix, chain_complex,
    euler_characteristic, homology_report, rank_exact, subsets,
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


def _basis_bracket(c: StructureMatrix, a: int, b: int) -> list:
    """[e_a, e_b] in the basis X_1..X_3, Y_1..Y_3, Z: c_ij Z for
    [X_i, Y_j], its negative for [Y_j, X_i], and zero otherwise."""
    vec = [Fraction(0)] * DIM
    if a < 3 <= b < 6:
        vec[6] = c.rows[a][b - 3]
    elif b < 3 <= a < 6:
        vec[6] = -c.rows[b][a - 3]
    return vec


def reference_boundary(c: StructureMatrix, p: int):
    if p == 0:
        return []
    cols = list(combinations(range(DIM), p))
    rows = list(combinations(range(DIM), p - 1))
    row_of = {s: n for n, s in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for col, sub in enumerate(cols):
        for r, s in combinations(range(p), 2):
            vec = _basis_bracket(c, sub[r], sub[s])
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
    assert homology_report(c)["heisenberg"]
    bare = StructureMatrix.from_json("[[1,2,3],[4,5,6],[7,8,9]]")
    assert bare.entry(3, 1) == 7
    wrapped = StructureMatrix.from_json('{"c": [[1,0,0],[0,1,0],[0,0,0]]}')
    assert not homology_report(wrapped)["heisenberg"]
    assert StructureMatrix.from_json('[[0.5,0,0],[0,1,0],[0,0,1]]') \
        .entry(1, 1) == Fraction(1, 2)


def test_structure_matrix_errors():
    with pytest.raises(ValueError):
        StructureMatrix.from_json("[[1,2],[3,4]]")
    with pytest.raises(ValueError):
        StructureMatrix.from_json("not json")


# -- the Heisenberg flag ---------------------------------------------------

def test_heisenberg_detection():
    """True exactly for rank c = 3, whatever the basis: the off-diagonal
    c below is h_7 after a change of basis."""
    assert homology_report(StructureMatrix.identity())["heisenberg"]
    offdiag = StructureMatrix.of([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert homology_report(offdiag)["heisenberg"]
    rank2 = StructureMatrix.of([[1, 2, 0], [2, 4, 1], [0, 0, 1]])
    assert not homology_report(rank2)["heisenberg"]
    degenerate = StructureMatrix.of([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert not homology_report(degenerate)["heisenberg"]


# -- boundary matrices ----------------------------------------------------

def test_subsets_are_lexicographic():
    assert subsets(1) == [(i,) for i in range(7)]
    assert subsets(2)[0] == (0, 1)
    assert subsets(2)[-1] == (5, 6)
    assert len(subsets(4)) == comb(7, 4)


def test_degree_one_boundary_vanishes():
    mat = boundary_matrix(StructureMatrix.identity(), 1)
    assert len(mat) == 1 and len(mat[0]) == 7
    assert all(v == 0 for v in mat[0])


def test_degree_two_boundary_single_entries():
    mat = boundary_matrix(StructureMatrix.identity(), 2)
    pairs = subsets(2)
    z_row = subsets(1).index((6,))
    for col, (a, b) in enumerate(pairs):
        column = [mat[r][col] for r in range(len(mat))]
        if (a, b) in ((0, 3), (1, 4), (2, 5)):
            assert column[z_row] == -1
            assert sum(1 for v in column if v) == 1
        else:
            assert not any(column)


# one nonzero column or row of c: a boundary that read c.rows[a][b - 3]
# for b < 3 as well would pick up its entries through negative indices
ONE_COLUMN = [[0, 0, 2], [0, 0, Fraction(-1, 3)], [0, 0, 5]]
ONE_ROW = [[0, 0, 0], [0, 0, 0], [3, Fraction(1, 2), -4]]


def test_boundary_matches_independent_reference(rng):
    mats_checked = 0
    for c in [StructureMatrix.identity(), StructureMatrix.of(ONE_COLUMN),
              StructureMatrix.of(ONE_ROW), rand_structure(rng),
              rand_structure(rng)]:
        for p in range(DIM + 1):
            assert boundary_matrix(c, p) == reference_boundary(c, p), p
            mats_checked += 1
    assert mats_checked == 40



def test_boundary_rejects_bad_degree():
    with pytest.raises(ValueError):
        boundary_matrix(StructureMatrix.identity(), 8)


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
    for p in range(DIM + 1):
        mat = boundary_matrix(c, p)
        assert rank_exact(mat) == sympy.Matrix(mat).rank(), p


@settings(max_examples=12, deadline=None)
@given(rational_structures(), rationals.filter(bool))
def test_homology_report_is_scale_invariant(c, lam):
    scaled = StructureMatrix.of([[lam * v for v in row] for row in c.rows])
    assert homology_report(scaled) == homology_report(c)


# -- chain complex and homology -------------------------------------------

def test_chain_dims_and_exactness(rng):
    cases = [StructureMatrix.identity()] \
        + [rand_structure(rng) for _ in range(3)]
    for c in cases:
        cc = chain_complex(c)
        assert cc.dims() == [1, 7, 21, 35, 35, 21, 7, 1]
        assert cc.d_squared_is_zero()


def test_identity_profile_matches_golden():
    c = StructureMatrix.identity()
    betti = betti_numbers(c)
    want = json.loads(GOLDEN.read_text())
    assert betti == want["betti"]
    assert chain_complex(c).ranks() == want["ranks"]
    assert euler_characteristic(c) == want["euler"]
    assert betti == [1, 6, 14, 14, 14, 14, 6, 1]


def test_poincare_duality_identity():
    betti = betti_numbers(StructureMatrix.identity())
    for p in range(8):
        assert betti[p] == betti[7 - p]
    assert sum((-1) ** p * b for p, b in enumerate(betti)) == 0


def test_generic_structure_betti_ends(rng):
    for _ in range(4):
        c = rand_structure(rng)
        betti = betti_numbers(c)
        assert betti[0] == 1
        assert betti[1] == 6
        assert betti[6] == 6
        assert betti[7] == 1
        assert euler_characteristic(c) == 0


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
        betti = betti_numbers(StructureMatrix.of(rows))
        assert betti == _closed_form_betti(r), rows


def test_homology_report_shape():
    rep = homology_report(StructureMatrix.identity())
    assert rep["heisenberg"] is True
    assert rep["betti"] == [1, 6, 14, 14, 14, 14, 6, 1]
    assert rep["euler"] == 0
    assert len(rep["ranks"]) == 8


# -- closed form against the Koszul complex ---------------------------------

CLI_GOLDEN = Path(__file__).parent / "golden" / "cli"
HOMOLOGY_GOLDENS = {
    "identity": [],
    "rank2": ["--c", str(CLI_GOLDEN / "c_rank2.json")],
    "rational": ["--c", str(CLI_GOLDEN / "c_rational.json")],
}


def _golden_matrix(name: str) -> StructureMatrix:
    if name == "identity":
        return StructureMatrix.identity()
    return StructureMatrix.from_json(
        (CLI_GOLDEN / f"c_{name}.json").read_text())


def _koszul_report(c: StructureMatrix) -> dict:
    """The report read off the eight boundary matrices.  The algebra is
    h_7 exactly when its Betti vector is h_7's (the pinned golden):
    the Betti vectors of the four possible algebras differ."""
    betti = betti_numbers(c)
    return {
        "betti": betti,
        "ranks": chain_complex(c).ranks(),
        "euler": sum((-1) ** p * b for p, b in enumerate(betti)),
        "heisenberg": betti == json.loads(GOLDEN.read_text())["betti"],
    }


def _corpus(seed: int = 2113) -> list:
    """Integer, rational and rationally scaled c of every rank 0-3, with
    the rank checked by sympy, plus diagonal ones."""
    rng = random.Random(seed)
    out = []
    for r in range(4):
        for kind in ("integer", "rational", "scaled"):
            made = 0
            while made < 4:
                a = [[rng.randint(-3, 3) for _ in range(r)]
                     for _ in range(3)]
                b = [[rng.randint(-3, 3) for _ in range(3)]
                     for _ in range(r)]
                rows = [[sum(Fraction(a[i][t] * b[t][j]) for t in range(r))
                         for j in range(3)] for i in range(3)]
                if kind == "rational":
                    rows = [[v / rng.choice((1, 2, 3, 7)) for v in row]
                            for row in rows]
                elif kind == "scaled":
                    lam = Fraction(rng.choice((-5, -1, 2, 3)),
                                   rng.choice((1, 4, 9)))
                    rows = [[lam * v for v in row] for row in rows]
                if sympy.Matrix(rows).rank() == r:
                    out.append(StructureMatrix.of(rows))
                    made += 1
    for diag in ([1, 1, 1], [Fraction(-2, 3), 5, Fraction(1, 7)],
                 [1, 0, 1], [0, 0, 0]):
        out.append(StructureMatrix.of(
            [[diag[i] if i == j else 0 for j in range(3)]
             for i in range(3)]))
    return out


@pytest.mark.parametrize("name", sorted(HOMOLOGY_GOLDENS))
def test_closed_form_report_equals_koszul_on_goldens(name):
    c = _golden_matrix(name)
    assert homology_report(c) == _koszul_report(c)


def test_closed_form_report_equals_koszul_on_corpus():
    corpus = _corpus()
    reports = [homology_report(c) for c in corpus]
    assert reports == [_koszul_report(c) for c in corpus]
    # every rank, and both heisenberg values, are reached
    assert {tuple(rep["betti"]) for rep in reports} \
        == {tuple(_closed_form_betti(r)) for r in range(4)}
    assert {rep["heisenberg"] for rep in reports} == {False, True}


def _unimodular(rng: random.Random) -> list:
    """A random 3x3 integer matrix of determinant +-1: a product of row
    swaps, sign flips and integer row additions."""
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        move = rng.randrange(3)
        if move == 0:
            m[i], m[j] = m[j], m[i]
        elif move == 1:
            m[i] = [-v for v in m[i]]
        else:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def _product(a: list, b: list) -> list:
    return [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)]


def test_homology_report_is_basis_independent():
    """Every field, heisenberg included, depends on rank c alone, so a
    change of basis c -> P c Q leaves the report as it is."""
    rng = random.Random(2503)
    corpus = _corpus() + [_golden_matrix(name) for name in HOMOLOGY_GOLDENS]
    for c in corpus:
        want = homology_report(c)
        for _ in range(3):
            p, q = _unimodular(rng), _unimodular(rng)
            assert round(np.linalg.det(np.array(p, dtype=float))) in (-1, 1)
            moved = StructureMatrix.of(_product(_product(p, c.rows), q))
            assert homology_report(moved) == want, (c.rows, p, q)


def test_homology_cli_builds_no_boundary_matrix(monkeypatch):
    import liehouse.homology

    def refuse(*args, **kwargs):
        raise AssertionError("the homology command built the complex")

    monkeypatch.setattr(liehouse.homology, "boundary_matrix", refuse)
    monkeypatch.setattr(liehouse.homology, "chain_complex", refuse)
    for name, extra in HOMOLOGY_GOLDENS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["homology"] + extra) == 0
        assert out.getvalue().encode("utf-8") \
            == (CLI_GOLDEN / f"homology_{name}.out").read_bytes()
