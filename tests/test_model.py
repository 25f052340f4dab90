"""Parameters, control schedules, field construction, and the
fixed-step integrator against a linear-ODE oracle."""

import csv
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from liehouse import model
from liehouse.model import (
    ControlSchedule, InvalidParamsError, Params, Trajectory, build_fields,
    demo_params, simulate, validate_params,
)
from liehouse.parsing import parse
from liehouse.symbolic import (
    PARAMETER_NAMES, as_expr, compile_exprs, eval_numeric, evaluate, param,
    substitute, to_text, var,
)

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
        p = Params(**{**vars(base), **kw})
    found = validate_params(p)
    assert any(name in v for v in found)


def test_params_compare_and_hash_by_entries():
    p = demo_params()
    by_name = Params(**{name: getattr(p, name) for name in (
        "alpha1", "alpha2", "alpha3", "beta11", "beta12", "beta13",
        "beta22", "beta22p", "beta32", "beta33", "gamma")})
    assert by_name == p and not by_name != p
    assert hash(by_name) == hash(p)
    assert Params.from_json(json.dumps({
        "alpha": [1, 1.5, 0.5],
        "beta": {"b11": -1, "b12": 2, "b13": 0.5, "b22": -1.5,
                 "b22p": -0.5, "b32": 1, "b33": -1},
        "gamma": [[2, 1, 0.5], [-1, -1.5, 1]]})) == p
    other = Params(**{**vars(p), "beta33": Fraction(-2)})
    assert other != p and not other == p
    assert Params.symbolic() == Params.symbolic() != p
    assert p != vars(p)


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
    p = Params(**{**vars(demo_params()), "alpha1": Fraction(-1)})
    with pytest.raises(InvalidParamsError) as err:
        build_fields(p)
    assert any("alpha1" in v for v in err.value.violations)


def test_simulate_checks_signs_before_closing_e():
    """gamma11 = 0 is inadmissible, and closing x / gamma11 with it would
    divide by zero: the sign check must come first."""
    p = demo_params()
    p = Params(**{**vars(p), "gamma": ((Fraction(0),) + p.gamma[0][1:],
                                       p.gamma[1])})
    with pytest.raises(InvalidParamsError) as err:
        simulate(p, X / param("gamma11"), ControlSchedule.zero(),
                 (0.0, 0.0, 0.0), 0.01, 1)
    assert any("gamma11" in v for v in err.value.violations)


def test_simulate_checks_the_signs_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    real = model.validate_params
    monkeypatch.setattr(model, "validate_params", counted)
    simulate(demo_params(), X * Y, ControlSchedule.zero(), (0.0, 0.0, 0.0),
             0.01, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("text", [
    "x*y", "E", "tanh(x + 2*y)", "1/(1 + y)", "x^-2*tanh(1/(3 + x*y))", "7",
])
def test_close_returns_a_parameter_free_expr_itself(text):
    e = parse(text)
    assert demo_params().close(e) is e
    assert Params.symbolic().close(e) is e


@pytest.mark.parametrize("text", [
    "tanh(alpha1*x)", "1/(1 + beta12*y)", "x*tanh(1/(gamma11 + y))",
    "alpha2*x + y",
])
def test_close_substitutes_a_parameter_inside_atoms(text):
    p = demo_params()
    e = parse(text)
    got = p.close(e)
    assert got == substitute(e, {param(name): p.value(name)
                                 for name in PARAMETER_NAMES})
    assert "alpha" not in to_text(got) and "beta" not in to_text(got)
    assert "gamma" not in to_text(got) and got != e


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

def test_trajectory_defaults_to_not_diverged():
    traj = Trajectory([0.0], [(1.0, 2.0, 3.0)])
    assert traj.diverged is False
    flagged = Trajectory(times=[0.0], states=[(1.0, 2.0, 3.0)],
                         diverged=True)
    assert flagged.diverged is True and flagged.times == [0.0]


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


def test_bad_run_arguments_fail_before_symbolic_work(monkeypatch):
    """dt, steps and init are checked before E is closed and compiled."""
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic work before the argument checks")

    monkeypatch.setattr(model, "compile_exprs", refuse)
    monkeypatch.setattr(model, "build_fields", refuse)
    p, e, ctrl = demo_params(), X * Y, ControlSchedule.zero()
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        simulate(p, e, ctrl, (0.0, 0.0, 0.0), 0.0, 10)
    with pytest.raises(ValueError, match="steps must be at least 1"):
        simulate(p, e, ctrl, (0.0, 0.0, 0.0), 0.01, 0)
    with pytest.raises(ValueError, match="init must have three components"):
        simulate(p, e, ctrl, (0.0, 0.0), 0.01, 10)
    with pytest.raises(ValueError, match="init must be finite"):
        simulate(p, e, ctrl, (0.0, math.inf, 0.0), 0.01, 10)


def test_steps_beyond_the_limit_fail_before_symbolic_work(monkeypatch):
    """Every state is kept, so more than MAX_STEPS steps is refused
    before E is closed and compiled; MAX_STEPS itself gets that far."""
    class Compiled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Compiled

    monkeypatch.setattr(model, "compile_exprs", refuse)
    p, e, ctrl = demo_params(), X * Y, ControlSchedule.zero()
    with pytest.raises(ValueError) as err:
        simulate(p, e, ctrl, (0.0, 0.0, 0.0), 0.01, model.MAX_STEPS + 1)
    assert str(err.value) == "1000001 steps exceed the limit of 1000000"
    with pytest.raises(Compiled):
        simulate(p, e, ctrl, (0.0, 0.0, 0.0), 0.01, model.MAX_STEPS)


# -- the stepper against the vector-form reference ----------------------

def _reference_simulate(p, e_expr, ctrl, init, dt, steps):
    """The textbook vector-form stepper: one value_at lookup per step, a
    right-hand-side closure over tuples, symbolic.evaluate for the drift.
    Returns the trajectory and how it ended: None, "raised" when a stage
    raised, or "non-finite" when a next state was not finite."""
    f0 = build_fields(p, p.close(e_expr))[0]
    g1 = [float(p.gamma_entry(1, i)) for i in (1, 2, 3)]
    g2 = [float(p.gamma_entry(2, i)) for i in (1, 2, 3)]
    program = compile_exprs(f0.components(), (var("x"), var("y"), var("z")))

    def rhs(state, u):
        dx, dy, dz = evaluate(program, state)
        for i in range(3):
            dx += u[i] * g1[i]
            dy += u[i] * g2[i]
        return (dx, dy, dz)

    times = [0.0]
    states = [tuple(float(v) for v in init)]
    state = states[0]
    ended = None
    for n in range(steps):
        u = ctrl.value_at(n * dt)
        try:
            k1 = rhs(state, u)
            s2 = tuple(state[i] + 0.5 * dt * k1[i] for i in range(3))
            k2 = rhs(s2, u)
            s3 = tuple(state[i] + 0.5 * dt * k2[i] for i in range(3))
            k3 = rhs(s3, u)
            s4 = tuple(state[i] + dt * k3[i] for i in range(3))
            k4 = rhs(s4, u)
        except (ZeroDivisionError, OverflowError, ValueError):
            ended = "raised"
            break
        nxt = tuple(
            state[i] + dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i in range(3))
        if not all(math.isfinite(v) for v in nxt):
            ended = "non-finite"
            break
        state = nxt
        times.append((n + 1) * dt)
        states.append(state)
    return Trajectory(times, states, ended is not None), ended


def _schedule(rng, count, span, grid_dt=None):
    """count entries from t = 0 over (0, span); on the step grid k * dt
    when grid_dt is given, else at arbitrary floats."""
    if grid_dt is None:
        times = sorted(rng.sample(range(1, 10 ** 6), count - 1))
        times = [span * k / 10 ** 6 for k in times]
    else:
        ks = sorted(rng.sample(range(1, int(span / grid_dt)), count - 1))
        times = [k * grid_dt for k in ks]
    return ControlSchedule(tuple(
        (t, *(round(rng.uniform(-2, 2), 3) for _ in range(3)))
        for t in [0.0] + times))


def _stepper_cases():
    rng = random.Random(14)
    off_grid = ControlSchedule((
        (0.0, 1.0, 0.0, -0.5), (0.013, 0.0, 0.5, 0.0),
        (0.03, -1.0, 0.0, 0.25), (0.05, 0.5, 0.5, 0.5),
        (0.07, 0.25, -0.5, 1.0), (0.0999, -1.0, 2.0, 0.0),
        (5.0, -1.0, -1.0, -1.0)))
    return [
        ("single-tanh", "tanh(x*y + 1) - tanh(y)",
         ControlSchedule.constant(1.0, -0.5, 0.25), (0.3, -0.2, 0.5),
         0.01, 300, None),
        ("single-zero", "x*y", ControlSchedule.zero(), (-0.4, 0.1, 0.2),
         0.005, 250, None),
        ("200-off-grid", "tanh(2*x - y)", _schedule(rng, 200, 3.0),
         (0.1, 0.2, -0.1), 0.01, 400, None),
        ("200-on-grid", "exp(-x^2)*y", _schedule(rng, 200, 2.5, 0.005),
         (0.5, -0.5, 0.0), 0.005, 500, None),
        ("switch-off-grid-and-past-end", "tanh(x - y)", off_grid,
         (0.3, -0.2, 0.5), 0.001, 137, None),
        ("switch-equal-k-dt", "sin(x)*cos(y)", ControlSchedule((
            (0.0, 1.0, 0.0, 0.0), (0.3, 0.0, 1.0, 0.0),
            (0.7, 0.0, 0.0, 1.0), (1.2, -1.0, -1.0, -1.0))),
         (0.0, 0.0, 0.0), 0.1, 15, None),
        ("overflow-x3", "x^3", ControlSchedule.zero(), (5.0, 0.0, 0.0),
         0.5, 60, "raised"),
        # float products overflow to inf without raising
        ("non-finite-xyz", "x*y*z", ControlSchedule.zero(),
         (-5.0, 5.0, 0.0), 0.5, 60, "non-finite"),
        # tanh(x) rounds to 1.0 for x above about 19, so 1 - tanh(x) is an
        # exact zero the path reaches: a stage raises ZeroDivisionError in
        # the second of three segments
        ("pole-mid-segment", "1/(1 - tanh(x))", ControlSchedule((
            (0.0, 0.0, 0.0, 0.0), (0.05, 4.0, 0.0, 0.0),
            (2.0, -1.0, 0.0, 0.0))), (0.3, -0.2, 0.5), 0.05, 400, "raised"),
    ]


_STEPPER_CASES = _stepper_cases()


def _bits(traj):
    return ([t.hex() for t in traj.times],
            [tuple(v.hex() for v in row) for row in traj.states])


@pytest.mark.parametrize(
    "name, etext, ctrl, init, dt, steps, ended", _STEPPER_CASES,
    ids=[case[0] for case in _STEPPER_CASES])
def test_simulate_matches_vector_reference_bit_for_bit(
        name, etext, ctrl, init, dt, steps, ended):
    p = demo_params()
    e = parse(etext)
    want, how = _reference_simulate(p, e, ctrl, init, dt, steps)
    assert how == ended
    got = simulate(p, e, ctrl, init, dt, steps)
    assert got.diverged == want.diverged
    assert _bits(got) == _bits(want)
    if ended == "raised":
        assert 1 < len(got.times) < steps + 1


def test_segment_ends_agree_with_value_at():
    rng = random.Random(7)
    for _ in range(200):
        dt = rng.choice((0.1, 0.01, 0.005, 0.003, 1 / 3, 0.7))
        steps = rng.randint(1, 300)
        ctrl = _schedule(rng, rng.randint(1, 40), rng.uniform(0.01, 1.5)
                         * steps * dt)
        ends = model._segment_ends(ctrl._times, dt, steps)
        lookup = [ctrl.value_at(n * dt) for n in range(steps)]
        stepped = []
        start = 0
        for (_, *u), end in zip(ctrl.entries, ends):
            stepped += [tuple(u)] * (end - start)
            start = end
        assert stepped == lookup


def test_csv_bytes_match_csv_writer():
    rows = [(-0.0, 5e-324, 1e-7, 1e16),
            (1.7976931348623157e308, 0.1 + 0.2, -1.7976931348623157e308,
             -5e-324),
            (0.0, -1e-7, 123456789.125, 2.5e-300)]
    traj = Trajectory([r[0] for r in rows], [r[1:] for r in rows])
    buf = io.StringIO()
    traj.to_csv(buf)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["t", "x", "y", "z"])
    for row in rows:
        writer.writerow([repr(v) for v in row])
    assert buf.getvalue() == want.getvalue()


def _random_trajectory(rows: int, seed: int = 0) -> Trajectory:
    rng = random.Random(seed)
    times = [k * 1e-3 for k in range(rows)]
    states = [tuple(rng.choice((-1, 1)) * rng.random() * 10.0
                    ** rng.randint(-300, 300) for _ in range(3))
              for _ in range(rows)]
    return Trajectory(times, states)


@pytest.mark.parametrize("steps", [0, 1, 1023, 1024, 1025, 3000])
def test_csv_chunks_write_the_bytes_of_one_join(steps):
    # steps + 1 rows: 1023 steps fill exactly one chunk of 1024 rows
    traj = _random_trajectory(steps + 1, seed=steps)
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue() == "t,x,y,z\n" + "".join(
        f"{t!r},{sx!r},{sy!r},{sz!r}\n"
        for t, (sx, sy, sz) in zip(traj.times, traj.states))


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def test_csv_memory_does_not_grow_with_the_trajectory():
    traj = _random_trajectory(10**5)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        traj.to_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 5 * 10**6  # one joined string would be this big
    assert peak < 2 * 10**6


# -- exact numbers: the fast paths keep every value and message --------------

@pytest.mark.parametrize("literal,value", [
    ("-0", Fraction(0)),
    ("17976931348623157" + "0" * 292, Fraction(17976931348623157) * 10**292),
    ("-" + "9" * 308, Fraction(-int("9" * 308))),
    ("2.50", Fraction(5, 2)), ("1E2", Fraction(100)),
])
def test_json_number_reads_exact_values(literal, value):
    got = model.read_exact_json(f"[{literal}]", "list")[0]
    assert got.__class__ is Fraction and got == value


@pytest.mark.parametrize("literal", [
    "1" * 5000, "1e99999999", "1e-99999999",
    "1" + "0" * 309,  # 310 digits: the first integer length out of range
])
def test_json_number_out_of_float_range_keeps_its_message(literal):
    with pytest.raises(ValueError) as err:
        model.read_exact_json(f"[{literal}]", "list")
    assert str(err.value) == f"number {literal} is outside the float range"


@pytest.mark.parametrize("text,shown", [("true", "True"), ('"1"', "'1'"),
                                        ("null", "None"),
                                        ("[1]", "[Fraction(1, 1)]")])
def test_non_number_param_entry_keeps_its_message(text, shown):
    raw = json.dumps({"alpha": [1, "A2", 1], "beta": {
        "b11": -1, "b12": 1, "b13": 1, "b22": -1, "b22p": -1, "b32": 1,
        "b33": -1}, "gamma": [[1, 1, 1], [-1, -1, 1]]})
    with pytest.raises(ValueError) as err:
        Params.from_json(raw.replace('"A2"', text))
    assert str(err.value) == \
        f"alpha entry must be a finite number, got {shown}"


def test_finite_real_takes_exact_classes_and_refuses_the_rest():
    huge = Fraction(10**400)
    for ok in (0, -3, 2.5, Fraction(1, 3), 10**300, np.float64(0.5)):
        assert model._finite_real(ok), ok
    for bad in (True, False, "1", None, [1], huge, 10**400, math.inf,
                math.nan, np.float64("inf"), 1j):
        assert not model._finite_real(bad), bad
    with pytest.raises(ValueError) as err:
        model._rational(huge, "entry")
    assert str(err.value) == f"entry must be a finite number, got {huge!r}"
    with pytest.raises(ValueError) as err:
        ControlSchedule(((0, huge, 0, 0),))
    assert str(err.value).startswith(
        "each control entry is [t, u1, u2, u3] of finite numbers, got "
        "(0, Fraction(1000")
    third = Fraction(1, 3)
    assert model._rational(third, "entry") is third
    assert model._rational(2, "entry") == 2
    assert model._rational(0.5, "entry").__class__ is Fraction
