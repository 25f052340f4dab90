"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line
each.  Tolerances are pinned here and nowhere else."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from liehouse.cli import main as cli_main
from liehouse.closure import (
    ClosureEngine, check_closure, delta_ij_formula, delta_ijk_formula,
)
from liehouse.evapo import e_characteristic, e_tanh, verify_candidate
from liehouse.fields import apply_to_scalar, lie_bracket, proportional_to
from liehouse.homology import (
    StructureMatrix, betti_numbers, chain_complex, euler_characteristic,
)
from liehouse.model import (
    ControlSchedule, Params, build_fields, demo_params, simulate,
)
from liehouse.symbolic import as_expr, epartial, to_text, var

from conftest import rand_field, rand_params, rand_poly, rand_univariate
from test_homology import rand_structure

X, Y = var("x"), var("y")
IDX = (1, 2, 3)
GOLDEN = Path(__file__).parent / "golden" / "heisenberg_betti.json"


@pytest.fixture
def report(capsys):
    """One visible line per criterion, bypassing output capture."""
    def emit(n: int, ok: bool, detail: str = "") -> None:
        line = (f"[acceptance] criterion {n}: "
                f"{'PASS' if ok else 'FAIL'}{detail}")
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def test_criterion_1_chain_shape(report):
    rng = random.Random(101)
    start = time.perf_counter()
    problems = []
    cases = [StructureMatrix.identity()] \
        + [rand_structure(rng) for _ in range(10)]
    for n, c in enumerate(cases):
        cc = chain_complex(c)
        if cc.dims() != [1, 7, 21, 35, 35, 21, 7, 1]:
            problems.append(f"case {n}: dims {cc.dims()}")
        if not cc.d_squared_is_zero():
            problems.append(f"case {n}: d*d != 0")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    detail = f" ({len(cases)} structure matrices, {elapsed:.2f}s)" \
        if not problems else " (" + "; ".join(problems) + ")"
    report(1, not problems, detail)


def test_criterion_2_betti_ends_and_euler(report):
    rng = random.Random(202)
    problems = []
    single = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    cases = [StructureMatrix.identity(), StructureMatrix.of(single),
             StructureMatrix.of([[1, 1, 1]] * 3)] \
        + [rand_structure(rng) for _ in range(7)]
    for n, c in enumerate(cases):
        betti = betti_numbers(c)
        ends = (betti[0], betti[1], betti[6], betti[7])
        if ends != (1, 6, 6, 1):
            problems.append(f"case {n}: ends {ends}")
        if euler_characteristic(c) != 0:
            problems.append(f"case {n}: euler != 0")
    detail = f" ({len(cases)} nonzero c, exact)" if not problems \
        else " (" + "; ".join(problems) + ")"
    report(2, not problems, detail)


def test_criterion_3_heisenberg_golden(report):
    start = time.perf_counter()
    problems = []
    betti = betti_numbers(StructureMatrix.identity())
    golden = json.loads(GOLDEN.read_text())
    if betti != golden["betti"]:
        problems.append(f"betti {betti} != golden {golden['betti']}")
    if any(betti[p] != betti[7 - p] for p in range(8)):
        problems.append("duality broken")
    if sum((-1) ** p * b for p, b in enumerate(betti)) != 0:
        problems.append("alternating sum nonzero")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    detail = f" (betti {betti}, {elapsed:.2f}s)" if not problems \
        else " (" + "; ".join(problems) + ")"
    report(3, not problems, detail)


def test_criterion_4_bracket_laws(report):
    rng = random.Random(404)
    problems = []
    pool = [rand_field(rng, degree=2) for _ in range(50)]
    for n in range(50):
        f, g, h = rng.sample(pool, 3)
        jac = lie_bracket(f, lie_bracket(g, h)) \
            + lie_bracket(g, lie_bracket(h, f)) \
            + lie_bracket(h, lie_bracket(f, g))
        if not jac.is_zero_field():
            problems.append(f"jacobi fails at draw {n}")
            break
    for n in range(50):
        f, g = rng.sample(pool, 2)
        phi = rand_poly(rng, degree=2)
        direct = apply_to_scalar(lie_bracket(f, g), phi)
        via = apply_to_scalar(f, apply_to_scalar(g, phi)) \
            - apply_to_scalar(g, apply_to_scalar(f, phi))
        if direct != via:
            problems.append(f"leibniz fails at draw {n}")
            break
    for p in (demo_params(), Params.symbolic(), rand_params(rng)):
        _, f1, f2, f3, _ = build_fields(p)
        controls = (f1, f2, f3)
        for a in range(3):
            for b in range(3):
                if not lie_bracket(controls[a], controls[b]).is_zero_field():
                    problems.append(f"[f_{a+1}, f_{b+1}] != 0")
    detail = " (50 fields, exact)" if not problems \
        else " (" + "; ".join(problems) + ")"
    report(4, not problems, detail)


def test_criterion_5_b_proportionality(report):
    rng = random.Random(505)
    p = demo_params()
    problems = []
    candidates = [None] + [rand_poly(rng, degree=3, vars3=False)
                           for _ in range(10)]
    for n, e in enumerate(candidates):
        engine = ClosureEngine(p, e)
        for i in IDX:
            for j in IDX:
                first = lie_bracket(engine.control(i), engine.y(j))
                if proportional_to(first, engine.b) is None:
                    problems.append(f"e{n}: [f_{i},[f0,f_{j}]] not on B")
                dij = engine.delta(i, j)
                scaled = engine.b.scaled(dij)
                for k in IDX:
                    second = lie_bracket(engine.control(k), scaled)
                    if proportional_to(second, engine.b) is None:
                        problems.append(f"e{n}: third-order not on B")
                    third = lie_bracket(engine.y(k), scaled)
                    if proportional_to(third, engine.b) is None:
                        problems.append(f"e{n}: mixed family not on B")
        if problems:
            break
    detail = " (formal E + 10 polynomial E, 3 families)" if not problems \
        else " (" + "; ".join(problems) + ")"
    report(5, not problems, detail)


def test_criterion_6_oracle_formula_agreement(report):
    problems = []
    deviations = []
    for p in (demo_params(), Params.symbolic()):
        engine = ClosureEngine(p)
        for i in IDX:
            for j in IDX:
                oracle = engine.delta(i, j)
                literal = delta_ij_formula(p, None, i, j, "bracket_1")
                if oracle != literal:
                    problems.append(f"delta_{i}{j} formula != oracle")
                for k in IDX:
                    magic = delta_ijk_formula(p, None, i, j, k)
                    derived = apply_to_scalar(engine.control(k), oracle)
                    if magic != derived:
                        problems.append(f"delta_{i}{j}{k} magic != f_k route")
        dev = delta_ij_formula(p, None, 1, 2, "paper_2") \
            - delta_ij_formula(p, None, 1, 2, "bracket_1")
        deviations.append(to_text(dev))
    # the doubled-cross variant is reported, never asserted correct
    note = f"; paper_2 - bracket_1 at (1,2) = {deviations[1]}"
    detail = (" (9 + 27 identities on numeric and symbolic params" + note
              + ")") if not problems else " (" + "; ".join(problems) + ")"
    report(6, not problems, detail)


def test_criterion_7_solution_families(report):
    rng = random.Random(707)
    problems = []
    for n in range(20):
        p = rand_params(rng)
        i, j = rng.sample(IDX, 2)
        k = next(t for t in IDX if t not in (i, j))
        f1 = rand_univariate(rng, degree=5)
        f2 = rand_univariate(rng, degree=5)
        f3 = rand_univariate(rng, degree=5)
        two = e_characteristic(p, [(f1, j), (f2, i)])
        if ClosureEngine(p, two).delta(i, j) != as_expr(0):
            problems.append(f"draw {n}: two-shape delta_{i}{j} != 0")
        with_diag = e_characteristic(p, [(f1, j), (f2, i)], diagonal=(i, j))
        if ClosureEngine(p, with_diag).delta(i, j) != as_expr(1):
            problems.append(f"draw {n}: diagonal term misses 1")
        three = e_characteristic(p, [(f1, j), (f2, i), (f3, k)])
        if ClosureEngine(p, three).delta3(i, j, k) != as_expr(0):
            problems.append(f"draw {n}: three-shape delta_{i}{j}{k} != 0")
        if problems:
            break
    detail = " (20 random F draws, exact)" if not problems \
        else " (" + "; ".join(problems) + ")"
    report(7, not problems, detail)


def test_criterion_8_tanh_family_measurement(report):
    p = demo_params()
    problems = []
    details = []
    for i in IDX:
        e = e_tanh(p, Fraction(1), Fraction(2), Fraction(1), Fraction(3), i)
        rep = verify_candidate(p, e)
        diag = rep.delta[(i, i)].max_abs
        details.append(f"max|D_{i}{i}| = {diag:.1e}")
        if diag > 1e-9:
            problems.append(f"family {i}: max |delta_{i}{i}| = {diag:.2e}")
        if len(rep.delta3) != 27 or len(rep.lam) != 27:
            problems.append(f"family {i}: residuals missing")
        if i not in rep.tension_indices or not rep.heisenberg_tension:
            problems.append(f"family {i}: tension not flagged")
    detail = " (" + ", ".join(details) + ", tension flagged)" \
        if not problems else " (" + "; ".join(problems) + ")"
    report(8, not problems, detail)


def test_criterion_9_simulator_oracle(report):
    p = demo_params()
    init = (0.3, -0.2, 0.5)
    a = np.array([
        [float(p.beta11), 0.0, 0.0],
        [0.0, float(p.beta22), float(p.beta13)],
        [0.0, float(p.beta32), float(p.beta33)],
    ])
    b = np.array([float(p.alpha1), float(p.alpha2), float(p.alpha3)])
    m = np.zeros((4, 4))
    m[:3, :3] = a
    m[:3, 3] = b
    want = (scipy.linalg.expm(m) @ np.array([*init, 1.0]))[:3]
    problems = []
    traj = simulate(p, as_expr(0), ControlSchedule.zero(), init, 0.01, 100)
    err = float(np.max(np.abs(np.array(traj.states[-1]) - want)))
    if err >= 1e-6:
        problems.append(f"endpoint error {err:.2e}")
    errs = []
    plans = [(0.1, 10), (0.05, 20), (0.025, 40)]
    for dt, steps in plans:
        t = simulate(p, as_expr(0), ControlSchedule.zero(), init, dt, steps)
        errs.append(np.max(np.abs(np.array(t.states[-1]) - want)))
    slope = float(np.polyfit(np.log([d for d, _ in plans]),
                             np.log(errs), 1)[0])
    if abs(slope - 4.0) > 0.3:
        problems.append(f"convergence slope {slope:.2f}")
    detail = f" (endpoint err {err:.1e}, slope {slope:.2f})" \
        if not problems else " (" + "; ".join(problems) + ")"
    report(9, not problems, detail)


def test_criterion_10_report_determinism(tmp_path, report):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "alpha": [1, 1.5, 0.5],
        "beta": {"b11": -1, "b12": 2, "b13": 0.5,
                 "b22": -1.5, "b22p": -0.5, "b32": 1, "b33": -1},
        "gamma": [[2, 1, 0.5], [-1, -1.5, 1]],
    }))
    problems = []
    pairs = []
    for cmd, extra in (("closure", []), ("check-e", [])):
        outs = []
        for run in (0, 1):
            out = tmp_path / f"{cmd}-{run}.json"
            cli_main([cmd, "--params", str(params),
                      "--e", "tanh:1,2,1,3,1", "--seed", "5",
                      "--out", str(out)] + extra)
            outs.append(out.read_bytes())
        pairs.append(outs)
        if outs[0] != outs[1]:
            problems.append(f"{cmd} reports differ at fixed seed")
    if json.loads(pairs[0][0])["seed"] != 5:
        problems.append("seed not embedded")
    detail = " (closure + check-e byte-identical at seed 5)" \
        if not problems else " (" + "; ".join(problems) + ")"
    report(10, not problems, detail)
