"""Independent checks of each op's report.

The expected answers come from the generating constants of the op spec
and from closed forms, computed with sympy, numpy and scipy; nothing
here imports the package under test.  check() returns None when the
report agrees and a one-line reason when it does not.

    closure-screen  c_ij = g1i g1j E_xx + (g1i g2j + g2i g1j) E_xy
                           + g2i g2j E_yy; exact for polynomial E, at
                           sample points otherwise; a tanh candidate on
                           channel k has row and column k of c exactly 0
    grid-measure    max |Delta_ij| over the grid, same closed form,
                    evaluated with numpy
    trajectory      the endpoint against scipy solve_ivp on a numpy
                    right-hand side, piecewise over the control schedule
    homology-sweep  Betti vector by rank(c): the Heisenberg h_(2r+1)
                    numbers times the exterior algebra of R^(6-2r)
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np
import sympy

import inputs

X, Y = sympy.symbols("x y")
BETTI_BY_RANK = {
    0: [1, 7, 21, 35, 35, 21, 7, 1],
    1: [1, 6, 16, 25, 25, 16, 6, 1],
    2: [1, 6, 14, 19, 19, 14, 6, 1],
    3: [1, 6, 14, 14, 14, 14, 6, 1],
}
# RK4 truncation error on these trajectories measures below 3e-9
ENDPOINT_TOL = 1e-7
_MATH = {"tanh": math.tanh, "exp": math.exp, "sin": math.sin,
         "cos": math.cos}


class Oracle:
    """Checks for the ops of one run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        # sample values for the formal parameters of library scans
        self.formal = {k: float(Fraction(v)) for k, v in
                       inputs.params_spec(f"formal:{seed}").items()}
        self.rng = random.Random(f"oracle:{workload}:{seed}")

    def check(self, spec: dict, out: dict):
        return getattr(self, "_" + self.workload.replace("-", "_"))(spec, out)

    # -- candidates ----------------------------------------------------

    def _gamma(self, spec: dict):
        """gamma_ri as a float, from the op's parameter file or, for a
        scan on formal parameters, from their sample values."""
        values = spec.get("params", self.formal)
        return lambda r, i: float(Fraction(values[f"gamma{r}{i}"]))

    @staticmethod
    def _partials(cand: dict, g, x, y, module: str):
        """(E_xx, E_xy, E_yy) of a char or tanh candidate at (x, y), by
        the chain rule through its lines: l_m = -g2m x + g1m y."""
        if cand["family"] == "tanh":
            c1, c2, c3, c4 = (float(Fraction(v)) for v in cand["c"])
            i = cand["i"]
            u = (c1 * g(1, i) - c2 * g(2, i) * x + c2 * g(1, i) * y) / g(1, i)
            ux, uy = -c2 * g(2, i) / g(1, i), c2
            h2 = _tanh_quotient(module)[1](u, c3, c4)
            return h2 * ux * ux, h2 * ux * uy, h2 * uy * uy
        exx = exy = eyy = 0.0
        for shape, m in zip(cand["shapes"], cand["lines"]):
            f2 = _shape(shape, module)[1](-g(2, m) * x + g(1, m) * y)
            exx = exx + f2 * g(2, m) ** 2
            exy = exy - f2 * g(2, m) * g(1, m)
            eyy = eyy + f2 * g(1, m) ** 2
        if cand["diag"]:
            exx = exx + 1.0 / (g(1, cand["i"]) * g(1, cand["j"]))
        return exx, exy, eyy

    @staticmethod
    def _value(cand: dict, g):
        """E(x, y) of a char or tanh candidate, as a float function."""
        if cand["family"] == "tanh":
            c1, c2, c3, c4 = (float(Fraction(v)) for v in cand["c"])
            i = cand["i"]
            h = _tanh_quotient("math")[0]
            a, bx, by = c1, -c2 * g(2, i) / g(1, i), c2
            return lambda x, y: h(a + bx * x + by * y, c3, c4)
        parts = [(_shape(shape, "math")[0], -g(2, m), g(1, m))
                 for shape, m in zip(cand["shapes"], cand["lines"])]
        return lambda x, y: sum(f(ax * x + ay * y) for f, ax, ay in parts)

    @staticmethod
    def _coeffs(g, i, j):
        return (g(1, i) * g(1, j), g(1, i) * g(2, j) + g(2, i) * g(1, j),
                g(2, i) * g(2, j))

    # -- workloads -----------------------------------------------------

    def _closure_screen(self, spec, out):
        cand = spec["candidate"]
        c = out["c"]
        if cand["family"] == "poly":
            return self._closure_poly(spec, out)
        g = self._gamma(spec)
        env = dict(_MATH, **(self.formal if spec["kind"] == "scan" else {}))
        zero_line = cand["i"] if cand["family"] == "tanh" else None
        for _ in range(2):
            env["x"] = x = self.rng.uniform(0.1, 0.9)
            env["y"] = y = self.rng.uniform(0.1, 0.9)
            d = self._partials(cand, g, x, y, "math")
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    text = c[i - 1][j - 1]
                    if zero_line in (i, j):
                        if text != "0":
                            return f"c{i}{j} = {text}, want exactly 0"
                        continue
                    terms = [k * p for k, p in zip(self._coeffs(g, i, j), d)]
                    got = eval(text.replace("^", "**"),
                               {"__builtins__": {}}, env)
                    if abs(got - sum(terms)) > 1e-9 * (
                            1 + sum(abs(t) for t in terms)):
                        return (f"c{i}{j} = {got!r} at ({x}, {y}), "
                                f"want {sum(terms)!r}")
        return None

    def _closure_poly(self, spec, out):
        """Exact: sympy's second partials against the report's c."""
        e = sympy.sympify(spec["candidate"]["text"].replace("^", "**"))
        partials = (sympy.diff(e, X, 2), sympy.diff(e, X, Y),
                    sympy.diff(e, Y, 2))
        params = spec["params"]

        def g(r, i):
            return sympy.Rational(params[f"gamma{r}{i}"])

        for i in (1, 2, 3):
            for j in (1, 2, 3):
                want = sympy.expand(sum(
                    k * p for k, p in zip(self._coeffs(g, i, j), partials)))
                text = out["c"][i - 1][j - 1]
                if sympy.expand(sympy.sympify(text.replace("^", "**"))
                                - want) != 0:
                    return f"c{i}{j} = {text}, want {want}"
                flat = not (want.has(X) or want.has(Y))
                if out["constant_ok"][i - 1][j - 1] != flat:
                    return f"constant_ok{i}{j} is not {flat}"
        return None

    def _grid_measure(self, spec, out):
        g = self._gamma(spec)
        nx, ny = spec["grid"]
        gx, gy = np.meshgrid(np.linspace(0.1, 0.9, nx),
                             np.linspace(0.1, 0.9, ny))
        d = [np.broadcast_to(v, gx.shape) for v in
             self._partials(spec["candidate"], g, gx, gy, "numpy")]
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                terms = [k * v for k, v in zip(self._coeffs(g, i, j), d)]
                want = float(np.max(np.abs(terms[0] + terms[1] + terms[2])))
                scale = float(np.max(sum(np.abs(t) for t in terms)))
                got = out["max_abs"][f"{i}{j}"]
                if abs(got - want) > 1e-9 * (1 + scale):
                    return f"max_abs{i}{j} = {got!r}, want {want!r}"
        return None

    def _trajectory(self, spec, out):
        steps, dt = spec["steps"], spec["dt"]
        if out["rows"] != steps + 1:
            return f"{out['rows']} rows, want {steps + 1}"
        if abs(out["end"][0] - steps * dt) > 1e-9 * steps * dt:
            return f"end time {out['end'][0]!r}, want {steps * dt!r}"
        from scipy.integrate import solve_ivp
        p = {k: float(Fraction(v)) for k, v in spec["params"].items()}
        g = self._gamma(spec)
        g1 = np.array([p[f"gamma1{i}"] for i in (1, 2, 3)])
        g2 = np.array([p[f"gamma2{i}"] for i in (1, 2, 3)])
        drift0 = np.array([p["alpha1"], p["alpha2"], p["alpha3"]])
        lin = np.array([[p["beta11"], 0.0, 0.0],
                        [0.0, p["beta22"], p["beta13"]],
                        [0.0, p["beta32"], p["beta33"]]])
        b = np.array([p["beta12"], p["beta22p"], 0.0])

        e = self._value(spec["candidate"], g)

        def rhs(_t, s, push):
            return drift0 + lin @ s + b * e(s[0], s[1]) + push

        state = np.array(spec["init"], dtype=float)
        bounds = spec["ctrl_steps"] + [steps]
        for a, z, row in zip(bounds, bounds[1:], spec["ctrl"]):
            u = np.array(row[1:])
            push = np.array([g1 @ u, g2 @ u, 0.0])
            sol = solve_ivp(rhs, (a * dt, z * dt), state, method="DOP853",
                            rtol=1e-10, atol=1e-10, args=(push,))
            state = sol.y[:, -1]
        got = np.array(out["end"][1:])
        if np.any(np.abs(got - state) > ENDPOINT_TOL * (1 + np.abs(state))):
            return f"endpoint {got.tolist()}, want {state.tolist()}"
        return None

    def _homology_sweep(self, spec, out):
        rank = int(np.linalg.matrix_rank(np.array(spec["c"], dtype=float)))
        if out["betti"] != BETTI_BY_RANK[rank]:
            return f"betti {out['betti']}, want {BETTI_BY_RANK[rank]}"
        if out["euler"] != 0:
            return f"euler {out['euler']}, want 0"
        return None


@functools.lru_cache(maxsize=None)
def _shape(text: str, module: str):
    """A unary shape and its second derivative, as functions."""
    f = sympy.sympify(text.replace("^", "**"))
    return (sympy.lambdify(X, f, module),
            sympy.lambdify(X, sympy.diff(f, X, 2), module))


@functools.lru_cache(maxsize=None)
def _tanh_quotient(module: str):
    """h(u) = 1 / (c4 + c3 tanh(u)) and h''(u), as functions of
    (u, c3, c4)."""
    u, c3, c4 = sympy.symbols("u c3 c4")
    h = 1 / (c4 + c3 * sympy.tanh(u))
    return (sympy.lambdify((u, c3, c4), h, module),
            sympy.lambdify((u, c3, c4), sympy.diff(h, u, 2), module))
