"""Parameters, control schedules, field construction, and the
fixed-step integrator against a linear-ODE oracle."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from liehouse.model import (
    ControlSchedule, InvalidParamsError, Params, build_fields, demo_params,
    simulate, validate_params,
)
from liehouse.symbolic import as_expr, eval_numeric, param, to_text, var

from conftest import rand_params

X, Y = var("x"), var("y")


# -- parameters ---------------------------------------------------------

def test_demo_params_admissible():
    assert validate_params(demo_params()) == []


def test_random_params_admissible(rng):
    for _ in range(5):
        assert validate_params(rand_params(rng)) == []


def test_from_json_reads_decimals_exactly():
    p = Params.from_json(json.dumps({
        "alpha": [0.1, 1, 1],
        "beta": {"b11": -1, "b12": 2, "b13": 0.5, "b22": -1,
                 "b22p": -0.25, "b32": 1, "b33": -1},
        "gamma": [[1, 2, 3], [-1, -2, 4]],
    }))
    assert p.alpha1 == Fraction(1, 10)
    assert p.beta13 == Fraction(1, 2)
    assert p.beta22p == Fraction(-1, 4)
    assert p.gamma_entry(2, 3) == 4


def test_from_json_reports_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        Params.from_json('{"alpha": [1, 1, 1]}')
    with pytest.raises(ValueError, match="JSON"):
        Params.from_json("{nope")


@pytest.mark.parametrize("name,bad", [
    ("alpha1", -1), ("beta11", 1), ("beta12", -2), ("beta22p", 1),
    ("gamma21", 1),
])
def test_validate_flags_each_sign(name, bad):
    base = demo_params()
    kw = {}
    if name.startswith("gamma"):
        row, col = int(name[5]) - 1, int(name[6]) - 1
        g = [list(r) for r in base.gamma]
        g[row][col] = Fraction(bad)
        p = Params.make([base.alpha1, base.alpha2, base.alpha3],
                        {"b11": base.beta11, "b12": base.beta12,
                         "b13": base.beta13, "b22": base.beta22,
                         "b22p": base.beta22p, "b32": base.beta32,
                         "b33": base.beta33}, g)
    else:
        kw = {name: Fraction(bad)}
        from dataclasses import replace
        p = replace(base, **kw)
    found = validate_params(p)
    assert any(name in v for v in found)


def test_symbolic_params_skip_validation():
    p = Params.symbolic()
    assert p.is_symbolic()
    assert validate_params(p) == []
    assert to_text(p.alpha1) == "alpha1"


# -- field construction -------------------------------------------------

def test_build_fields_shapes():
    p = demo_params()
    f0, f1, f2, f3, b = build_fields(p)
    assert f1.cx == as_expr(p.gamma_entry(1, 1))
    assert f1.cy == as_expr(p.gamma_entry(2, 1))
    assert f1.cz == as_expr(0)
    assert f3.cx == as_expr(p.gamma_entry(1, 3))
    assert b.cx == as_expr(-p.beta12)
    assert b.cy == as_expr(-p.beta22p)
    assert b.cz == as_expr(0)
    assert f0.cz == as_expr(p.alpha3) + var("y") * p.beta32 \
        + var("z") * p.beta33


def test_build_fields_rejects_bad_params():
    from dataclasses import replace
    p = replace(demo_params(), alpha1=Fraction(-1))
    with pytest.raises(InvalidParamsError) as err:
        build_fields(p)
    assert any("alpha1" in v for v in err.value.violations)


def test_simulate_checks_signs_before_closing_e():
    """gamma11 = 0 is inadmissible, and closing x / gamma11 with it would
    divide by zero: the sign check must come first."""
    from dataclasses import replace
    p = demo_params()
    p = replace(p, gamma=((Fraction(0),) + p.gamma[0][1:], p.gamma[1]))
    with pytest.raises(InvalidParamsError) as err:
        simulate(p, X / param("gamma11"), ControlSchedule.zero(),
                 (0.0, 0.0, 0.0), 0.01, 1)
    assert any("gamma11" in v for v in err.value.violations)


def test_symbolic_fields_carry_parameter_atoms():
    f0, _, _, _, b = build_fields(Params.symbolic())
    assert b.cx == param("beta12") * -1
    assert "beta12" in to_text(f0.cx)
    assert "E" in to_text(f0.cx)


# -- control schedules --------------------------------------------------

def test_schedule_piecewise_hold():
    s = ControlSchedule(((0.0, 1.0, 0.0, 0.0), (0.5, 0.0, 2.0, 0.0)))
    assert s.value_at(0.0) == (1.0, 0.0, 0.0)
    assert s.value_at(0.49) == (1.0, 0.0, 0.0)
    assert s.value_at(0.5) == (0.0, 2.0, 0.0)
    assert s.value_at(10.0) == (0.0, 2.0, 0.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ControlSchedule(((1.0, 0.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        ControlSchedule(((0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)))
    assert ControlSchedule.zero().value_at(3.0) == (0.0, 0.0, 0.0)
    assert ControlSchedule.constant(1.0, 2.0, 3.0).value_at(0.0) == \
        (1.0, 2.0, 3.0)


def test_schedule_lookup_with_many_entries():
    entries = tuple((0.01 * n, float(n), -float(n), 0.5 * n)
                    for n in range(200))
    s = ControlSchedule(entries)
    for n, (t, u1, u2, u3) in enumerate(entries):
        assert s.value_at(t) == (u1, u2, u3)
        assert s.value_at(t + 0.004) == (u1, u2, u3)
        if n:
            assert s.value_at(t - 1e-12) == entries[n - 1][1:]
    assert s.value_at(-1.0) == entries[0][1:]
    assert s.value_at(1e9) == entries[-1][1:]


# -- simulator ----------------------------------------------------------

def _linear_oracle(p: Params, init, t: float, u=(0.0, 0.0, 0.0)):
    """Closed-form endpoint for E = 0 and constant controls via the
    augmented matrix exponential."""
    a = np.array([
        [float(p.beta11), 0.0, 0.0],
        [0.0, float(p.beta22), float(p.beta13)],
        [0.0, float(p.beta32), float(p.beta33)],
    ])
    b = np.array([float(p.alpha1), float(p.alpha2), float(p.alpha3)])
    for i in (1, 2, 3):
        b[0] += u[i - 1] * float(p.gamma_entry(1, i))
        b[1] += u[i - 1] * float(p.gamma_entry(2, i))
    m = np.zeros((4, 4))
    m[:3, :3] = a
    m[:3, 3] = b
    aug = scipy.linalg.expm(m * t) @ np.array([*init, 1.0])
    return aug[:3]


def test_rk4_matches_matrix_exponential():
    p = demo_params()
    init = (0.3, -0.2, 0.5)
    traj = simulate(p, as_expr(0), ControlSchedule.zero(), init, 0.01, 100)
    assert not traj.diverged
    assert len(traj.times) == 101
    assert traj.times[-1] == pytest.approx(1.0)
    want = _linear_oracle(p, init, 1.0)
    got = np.array(traj.states[-1])
    assert np.max(np.abs(got - want)) < 1e-6


def test_rk4_fourth_order_convergence():
    p = demo_params()
    init = (0.3, -0.2, 0.5)
    want = _linear_oracle(p, init, 1.0)
    errs = []
    plans = [(0.1, 10), (0.05, 20), (0.025, 40)]
    for dt, steps in plans:
        traj = simulate(p, as_expr(0), ControlSchedule.zero(), init, dt,
                        steps)
        errs.append(np.max(np.abs(np.array(traj.states[-1]) - want)))
    slope = np.polyfit(np.log([d for d, _ in plans]), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_constant_controls_match_affine_oracle():
    p = demo_params()
    u = (1.0, -0.5, 0.25)
    init = (0.1, 0.2, -0.1)
    traj = simulate(p, as_expr(0), ControlSchedule.constant(*u), init,
                    0.01, 100)
    want = _linear_oracle(p, init, 1.0, u)
    assert np.max(np.abs(np.array(traj.states[-1]) - want)) < 1e-6


def test_nonlinear_e_enters_drift():
    p = demo_params()
    e = X * Y
    traj = simulate(p, e, ControlSchedule.zero(), (0.5, 0.5, 0.0), 0.01, 10)
    lin = simulate(p, as_expr(0), ControlSchedule.zero(), (0.5, 0.5, 0.0),
                   0.01, 10)
    assert traj.states[-1] != lin.states[-1]


def test_divergence_truncates_and_flags():
    p = demo_params()
    e = X * X * X
    traj = simulate(p, e, ControlSchedule.zero(), (5.0, 0.0, 0.0), 0.5, 60)
    assert traj.diverged
    assert len(traj.times) < 61
    assert all(math.isfinite(v) for row in traj.states for v in row)


def test_csv_output_shape():
    p = demo_params()
    traj = simulate(p, as_expr(0), ControlSchedule.zero(), (0, 0, 0),
                    0.01, 100)
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 102
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
