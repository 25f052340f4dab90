"""Seeded inputs for the benchmark workloads.

Every input of a run is a pure function of (workload, seed, op index):
the parameter file, E descriptors, grids, initial states, control files
and structure matrices.  The package under test only ever sees the
files and command lines built here; the generating constants travel
with each op spec so the oracles can rebuild the expected answers
independently.

Each workload repeats a fixed cycle of slots.  The slot fixes the shape
of an op (candidate family, grid band, step count, schedule length,
structure rank) and the seed draws its numbers, so the mix of cheap and
expensive ops is the same on every seed and runs stay comparable.

Run as a script to write the first ops of a workload for inspection:

    python3 perfbench/inputs.py --workload trajectory --seed 3 \\
        --count 8 --out some/dir
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("closure-screen", "grid-measure", "trajectory", "homology-sweep")

# (name, required sign) as validate_params enforces them
SIGNS = (
    ("alpha1", +1), ("alpha2", +1), ("alpha3", +1),
    ("beta11", -1), ("beta12", +1), ("beta13", +1),
    ("beta22", -1), ("beta22p", -1), ("beta32", +1), ("beta33", -1),
    ("gamma11", +1), ("gamma12", +1), ("gamma13", +1),
    ("gamma21", -1), ("gamma22", -1), ("gamma23", +1),
)
_MAGNITUDES = ("1/2", "3/4", "1", "5/4", "3/2", "2")
_HALVES = ("1/2", "1", "3/2", "2")

# closure-screen: 10 CLI verdicts and 2 library scans per cycle.  Every
# cycle opens with a full cubic, the op the cold-start probes time.
CLOSURE_CYCLE = (
    "cubic", "char", "tanh", "char-diag", "scan-tanh", "poly", "char3",
    "tanh", "scan-char-diag", "poly", "char", "char-diag",
)
# grid-measure: (family, nx band, ny band); grids span [0.1, 0.9]^2.  Two
# cheap slots, two dear ones and a fixed-size tanh slot between them, so
# the median op is always a tanh on a 20x20 grid.  The dear slots are
# tanh too: a char candidate's cost per point swings threefold with its
# shapes.
GRID_CYCLE = (
    ("tanh", (12, 12), (12, 12)),
    ("char-diag", (10, 12), (10, 12)),
    ("tanh", (20, 20), (20, 20)),
    ("tanh", (14, 16), (50, 60)),
    ("tanh", (44, 50), (14, 16)),
)
# trajectory: (family, RK4 steps, control schedule entries); the two
# 700-step slots sit in the middle of the step counts.
TRAJECTORY_CYCLE = (
    ("tanh", 200, 1), ("char", 500, 20), ("tanh", 1000, 100),
    ("char", 2000, 200), ("tanh", 300, 50), ("char", 700, 1),
    ("tanh", 1500, 150), ("char", 700, 10),
)
# homology-sweep: rank of the structure matrix c
HOMOLOGY_CYCLE = (0, 1, 2, 3)

CONDITIONS = 63  # Delta_ij, Delta_ijk and Lambda_ijk measured by check-e


def cycle_length(workload: str) -> int:
    return len({"closure-screen": CLOSURE_CYCLE,
                "grid-measure": GRID_CYCLE,
                "trajectory": TRAJECTORY_CYCLE,
                "homology-sweep": HOMOLOGY_CYCLE}[workload])


# -- parameters --------------------------------------------------------

def params_spec(key: str) -> dict:
    """Admissible coefficients as exact rational strings, by name.  The
    linear (y, z) block is kept stable (beta13 beta32 < beta22 beta33),
    so simulated trajectories stay bounded."""
    rng = random.Random(f"params:{key}")
    while True:
        spec = {name: _signed(rng.choice(_MAGNITUDES), sign)
                for name, sign in SIGNS}
        b = {k: Fraction(v) for k, v in spec.items() if k.startswith("beta")}
        if b["beta13"] * b["beta32"] < b["beta22"] * b["beta33"]:
            return spec


def params_json(spec: dict) -> str:
    """The parameter file; decimals are exact binary fractions, which
    the package reads back as the same rationals."""
    def num(name):
        return float(Fraction(spec[name]))
    data = {
        "alpha": [num(f"alpha{i}") for i in (1, 2, 3)],
        "beta": {key: num("beta" + key[1:]) for key in
                 ("b11", "b12", "b13", "b22", "b22p", "b32", "b33")},
        "gamma": [[num(f"gamma{r}{i}") for i in (1, 2, 3)] for r in (1, 2)],
    }
    return json.dumps(data, indent=2) + "\n"


def _signed(magnitude: str, sign: int) -> str:
    return magnitude if sign > 0 else "-" + magnitude


# -- candidates --------------------------------------------------------

_MONOMIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3))


def _poly(rng: random.Random, cubic: bool = False) -> dict:
    """Four monomials of degree 1..3 in x, y plus a constant; cubic
    takes the four of degree 3."""
    monomials = _MONOMIALS[5:] if cubic else rng.sample(_MONOMIALS, 4)
    terms = [(rng.choice(("1", "2", "3", "1/2", "3/2")),
              rng.choice((1, -1)), a, b) for a, b in monomials]
    terms.append((rng.choice(("1", "2", "5/2")), rng.choice((1, -1)), 0, 0))
    parts = []
    for coeff, sign, a, b in terms:
        factors = [coeff] + [f"x^{a}"] * (a > 0) + [f"y^{b}"] * (b > 0)
        body = "*".join(factors)
        if not parts:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append((" - " if sign < 0 else " + ") + body)
    text = "".join(parts)
    return {"family": "poly", "text": text, "descriptor": "expr:" + text}


_SHAPES = ("x^2", "x^3", "{a}*x^2 - x", "tanh({a}*x)", "exp({a}*x)",
           "sin({a}*x)", "cos(x)", "x^3 - {a}*x")
# grid measurements and char scans compose transcendental shapes only,
# which keeps their cost from swinging with the draw
_TRANSCENDENTAL_SHAPES = ("tanh({a}*x)", "exp({a}*x)", "sin({a}*x)")
# bounded and slowly varying, for trajectories
_GENTLE_SHAPES = ("tanh({a}*x)", "sin({a}*x)", "cos({a}*x)", "{a}*tanh(x)")


def _shape(rng: random.Random, menu) -> str:
    scales = ("1/4", "1/2", "1") if menu is _GENTLE_SHAPES else _HALVES
    return rng.choice(menu).format(a=rng.choice(scales))


def _char(rng: random.Random, shapes: int, diag: bool,
          menu=_SHAPES) -> dict:
    """Characteristic-line family.  The package composes shape 1 with
    the j-line, shape 2 with the i-line and shape 3 with the k-line."""
    idx = rng.sample((1, 2, 3), shapes)
    fs = [_shape(rng, menu) for _ in idx]
    head = ",".join(str(i) for i in idx) + (",diag" if diag else "")
    lines = [idx[1], idx[0]] + idx[2:]
    return {"family": "char", "shapes": fs, "lines": lines, "diag": diag,
            "i": idx[0], "j": idx[1],
            "descriptor": f"char:{head}:" + ";".join(fs)}


def _tanh(rng: random.Random, gentle: bool = False) -> dict:
    """tanh quotient with C4 > |C3|, so the denominator never vanishes.
    gentle keeps the slope small enough for a 0.01 RK4 step."""
    c1 = rng.choice(("-1", "-1/2", "1/2", "1", "3/2", "2"))
    c2 = rng.choice(("1/4", "1/2") if gentle else _HALVES)
    c3 = _signed(rng.choice(("1/2", "1", "3/2")), rng.choice((1, -1)))
    c4 = str(abs(Fraction(c3))
             + Fraction(rng.choice(("1", "3/2", "2") if gentle else _HALVES)))
    i = rng.choice((1, 2, 3))
    return {"family": "tanh", "c": [c1, c2, c3, c4], "i": i,
            "descriptor": f"tanh:{c1},{c2},{c3},{c4},{i}"}


def _candidate(rng: random.Random, family: str, menu=_SHAPES) -> dict:
    if family in ("poly", "cubic"):
        return _poly(rng, family == "cubic")
    if family == "tanh":
        return _tanh(rng, gentle=menu is _GENTLE_SHAPES)
    if family == "char3":
        return _char(rng, 3, False, menu)
    return _char(rng, 2, family == "char-diag", menu)


# -- ops ---------------------------------------------------------------

def op_spec(workload: str, seed: int, index: int) -> dict:
    """Op number index of a run.  argv paths are relative to the run's
    work directory; files maps each file the op reads to its text, and
    params holds the coefficients of its parameter file."""
    key = f"{workload}:{seed}:{index}"
    rng = random.Random(key)
    op = {"index": index, "seed": rng.randrange(1000), "work": 1,
          "files": {}}
    if workload == "homology-sweep":
        rank = HOMOLOGY_CYCLE[index % len(HOMOLOGY_CYCLE)]
        op["c"] = _structure_matrix(rng, rank)
        name = f"c-{index}.json"
        op.update(slot=f"rank{rank}", kind="cli", argv=[
            "homology", "--c", name, "--seed", str(op["seed"])])
        op["files"][name] = json.dumps(op["c"]) + "\n"
        return op
    if workload == "closure-screen":
        slot = CLOSURE_CYCLE[index % len(CLOSURE_CYCLE)]
        if slot.startswith("scan-"):
            op.update(slot=slot, candidate=_candidate(
                rng, slot[5:], _TRANSCENDENTAL_SHAPES))
            op["kind"] = "scan"  # check_closure on Params.symbolic()
            return op
        op.update(slot=slot, candidate=_candidate(rng, slot))
        argv = ["closure"]
    elif workload == "grid-measure":
        family, xb, yb = GRID_CYCLE[index % len(GRID_CYCLE)]
        nx, ny = rng.randint(*xb), rng.randint(*yb)
        op.update(slot=family, grid=[nx, ny], work=CONDITIONS * nx * ny,
                  candidate=_candidate(rng, family, _TRANSCENDENTAL_SHAPES))
        argv = ["check-e", "--grid", f"{nx},{ny}"]
    elif workload == "trajectory":
        family, steps, entries = TRAJECTORY_CYCLE[
            index % len(TRAJECTORY_CYCLE)]
        dt = rng.choice((0.005, 0.01))
        init = [round(rng.uniform(-1, 1), 3) for _ in range(3)]
        # switching steps k land exactly on step starts n * dt
        ks = [0] + sorted(rng.sample(range(1, steps), entries - 1))
        ctrl = [[k * dt] + [round(rng.uniform(-1, 1), 3) for _ in range(3)]
                for k in ks]
        name = f"ctrl-{index}.json"
        op.update(slot=family, candidate=_candidate(rng, family,
                                                    _GENTLE_SHAPES),
                  dt=dt, steps=steps, init=init, ctrl_steps=ks, ctrl=ctrl,
                  work=steps)
        op["files"][name] = json.dumps(ctrl) + "\n"
        argv = ["simulate", "--init=" + ",".join(repr(v) for v in init),
                "--dt", repr(dt), "--steps", str(steps), "--ctrl", name]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    op["params"] = params_spec(key)
    op["files"][f"params-{index}.json"] = params_json(op["params"])
    op.update(kind="cli", argv=argv + [
        "--params", f"params-{index}.json", "--e",
        op["candidate"]["descriptor"], "--seed", str(op["seed"])])
    return op


def _structure_matrix(rng: random.Random, rank: int) -> list:
    """Integer 3x3 matrix of exactly the given rank: a product of a
    3 x rank and a rank x 3 factor with small entries."""
    while True:
        u = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(3)]
        v = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rank)]
        c = [[sum(u[i][t] * v[t][j] for t in range(rank)) for j in range(3)]
             for i in range(3)]
        if _rank(c) == rank:
            return c


def _rank(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(3):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def write_run_files(workdir: str, seed: int) -> None:
    """The parameter file the set-up step loads."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "params.json"), "w",
              encoding="utf-8") as handle:
        handle.write(params_json(params_spec(str(seed))))


def write_op_files(workdir: str, spec: dict) -> None:
    for name, text in spec["files"].items():
        with open(os.path.join(workdir, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=24)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_run_files(args.out, args.seed)
    with open(os.path.join(args.out, "ops.jsonl"), "w",
              encoding="utf-8") as handle:
        for index in range(args.count):
            spec = op_spec(args.workload, args.seed, index)
            write_op_files(args.out, spec)
            handle.write(json.dumps(spec) + "\n")


if __name__ == "__main__":
    main()
