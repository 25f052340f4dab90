"""Seeded end-to-end and per-layer benchmark of the liehouse package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its src/ directory.  Each run is sequential and closed-loop with one
client: a fresh interpreter sets up the package (import and parameter
load), runs one warm-up cycle of the workload and then whole cycles
until S seconds have passed, each op starting when the previous one has
returned.  Caches carry across the ops of a run and nothing carries
across runs.  Set-up time and the first, cold op are also measured in
PROBES extra fresh interpreters, half before and half after the run.
Every time is scaled to the host's nominal speed by a reference loop
timed around each op (see NOMINAL_REF_S).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first
TRACE_OPS ops three times in fresh processes: once plain and twice
under the layer tracer.  It prints the per-layer metrics and the
tracing overhead (traced minus plain busy time), and checks that every
report hashes the same in all three passes and that the deterministic
counters agree exactly between the two traced passes.

Every op's report is checked by an independent oracle (oracles.py);
a mismatch, an exception or an input-error exit counts as a failed op.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The exit code is nonzero, with no JSON line, when the
benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES = 8
# Every timing is scaled by the reference loop timed next to it
# (worker.reference): the shared host's speed swings up to twofold over
# tens of seconds, and the scaling cancels that.  This constant is the
# loop's time at the host's usual full speed.
NOMINAL_REF_S = 1.6e-3
TRACE_OPS = {"closure-screen": 24, "grid-measure": 5, "trajectory": 16,
             "homology-sweep": 100}
WORK_UNIT = {
    "closure-screen": "candidates screened",
    "grid-measure": "condition x grid-point evaluations",
    "trajectory": "RK4 steps",
    "homology-sweep": "structure matrices",
}
# layer -> end-to-end metric it should move, on which workload
MOVES = {
    "symbolic": "closure-screen ops_per_s, cold_op_ms (kernel counters); "
                "grid-measure, trajectory work_per_s (eval_numeric)",
    "parsing": "closure-screen op_p50_ms",
    "fields": "closure-screen ops_per_s",
    "closure": "closure-screen ops_per_s",
    "evapo": "grid-measure work_per_s",
    "model": "trajectory work_per_s",
    "homology": "homology-sweep ops_per_s",
    "cli": "op_p50_ms on every workload",
}
END_TO_END = {  # name -> unit
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "cold_op_ms": "ms", "work_per_s": "1/s", "peak_rss_mb": "MB",
    "setup_s": "s",
}
CALL_COUNTS = (
    "symbolic.mul", "symbolic.differentiate", "symbolic.substitute",
    "symbolic.eval_numeric", "parsing.parse", "fields.lie_bracket",
    "fields.apply_to_scalar", "fields.proportional_to", "fields.exact_div",
    "closure.y", "closure.delta", "closure.lam_with",
    "closure.check_closure", "evapo.descriptor_to_expr",
    "evapo.verify_candidate", "model.simulate", "model.value_at",
    "homology.boundary_matrix", "homology.rank_exact", "cli.main",
)
COUNTERS = ("symbolic.mul.term_pairs", "symbolic.is_zero.exact",
            "symbolic.is_zero.sampled", "model.rk4_steps",
            "homology.rank_exact.cells")


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(mode: str, workdir: str, args, amount) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workdir,
           args.workload, str(args.seed), str(amount)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:])
    with open(proc.stdout.strip().splitlines()[-1], encoding="utf-8") as f:
        return json.load(f)


def check_ops(args, ops: list) -> list:
    """Oracle verdict per op: None, or the reason it failed."""
    import oracles
    oracle = oracles.Oracle(args.workload, args.seed)
    verdicts = []
    for op in ops:
        if op["error"] is not None:
            verdicts.append(op["error"])
        elif op["code"] not in (0, 1):
            verdicts.append(f"exit code {op['code']}")
        else:
            try:
                verdicts.append(oracle.check(
                    inputs.op_spec(args.workload, args.seed, op["index"]),
                    op["out"]))
            except Exception as exc:  # an unreadable report fails the op
                verdicts.append(f"oracle: {type(exc).__name__}: {exc}")
    return verdicts


def report_failures(ops: list, verdicts: list) -> int:
    failed = [(op["index"], v) for op, v in zip(ops, verdicts)
              if v is not None]
    for index, reason in failed[:5]:
        print(f"  op {index} failed: {reason}")
    return len(failed)


def tail(latencies: list):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def scaled(seconds: float, ref: float) -> float:
    """A time taken while the reference loop took ref seconds, at the
    nominal host speed."""
    return seconds * NOMINAL_REF_S / ref


def timed(args, workdir: str) -> dict:
    half = PROBES // 2
    probes = [spawn("probe", workdir, args, k) for k in range(1, half + 1)]
    run = spawn("run", workdir, args, args.seconds)
    probes += [spawn("probe", workdir, args, k)
               for k in range(half + 1, PROBES + 1)]
    ops = run["ops"]
    cold = [p["ops"][0] for p in probes] + [ops[0]]
    checked = ops + cold[:-1]
    verdicts = check_ops(args, checked)
    by_index = {op["index"]: op["sha"] for op in ops}
    for n, op in enumerate(checked):
        if by_index.get(op["index"], op["sha"]) != op["sha"]:
            verdicts[n] = verdicts[n] or "report differs between processes"
    failed = report_failures(checked, verdicts)

    size = inputs.cycle_length(args.workload)
    ops = ops[run["warmup"]:]
    lat = [scaled(op["latency"], op["ref"]) for op in ops]
    busy = sum(lat)
    tail_s, pct = tail(lat)
    setups = [scaled(p["setup_s"], p["setup_ref"]) for p in probes + [run]]
    wall = {
        "ops_per_s": len(ops) / sum(op["latency"] for op in ops),
        "op_p50_ms": statistics.median(op["latency"] for op in ops) * 1e3,
        "cold_op_ms": statistics.median(op["latency"] for op in cold) * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in probes + [run]),
    }
    metrics = {
        "ops_per_s": len(ops) / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "cold_op_ms": statistics.median(
            scaled(op["latency"], op["ref"]) for op in cold) * 1e3,
        "work_per_s": sum(op["work"] for op in ops) / busy,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    speed = statistics.median(NOMINAL_REF_S / op["ref"] for op in ops)
    print(f"{args.workload} seed {args.seed}: {len(ops) // size} cycles of "
          f"{size} ops after a warm-up cycle, {busy:.3f} s busy; "
          f"{failed} of {len(checked)} ops failed; host at {speed:.2f} of "
          f"nominal speed")
    notes = {
        "op_tail_ms": [f"p{pct:.1f} of {len(ops)} samples"],
        "cold_op_ms": [f"median of {len(cold)} fresh processes"],
        "setup_s": [f"median of {len(setups)} fresh processes"],
        "work_per_s": [WORK_UNIT[args.workload] + " per second"],
    }
    for name, value in wall.items():
        notes.setdefault(name, []).append(f"wall clock {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:14.6g} {END_TO_END[name]:<4} "
              + "; ".join(notes.get(name, [])))
    return {"correct": failed == 0, "attempted": len(checked),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def traced(args, workdir: str) -> dict:
    count = TRACE_OPS[args.workload]
    plain = spawn("pass", workdir, args, count)
    runs = [spawn("trace", workdir, args, count) for _ in range(2)]
    verdicts = check_ops(args, plain["ops"])
    for n, op in enumerate(plain["ops"]):
        if any(r["ops"][n]["sha"] != op["sha"] for r in runs):
            verdicts[n] = verdicts[n] or "report differs under trace"
    failed = report_failures(plain["ops"], verdicts)

    layers = []
    for run in runs:
        spans = tracer.load(os.path.join(workdir, run["spans"]))
        summary = tracer.summarize(spans, {
            op["index"]: NOMINAL_REF_S / op["ref"] for op in run["ops"]})
        summary["counters"] = spans["counters"]
        summary["busy"] = sum(scaled(op["latency"], op["ref"])
                              for op in run["ops"])
        layers.append(summary)
    first, second = layers
    deterministic = {**first["counters"], **first["calls"]}
    repeat = {**second["counters"], **second["calls"]}
    drift = sorted(k for k in set(deterministic) | set(repeat)
                   if deterministic.get(k) != repeat.get(k))
    for name in drift:
        print(f"  counter {name} differs between traced runs: "
              f"{deterministic.get(name)} != {repeat.get(name)}")

    plain_busy = sum(scaled(op["latency"], op["ref"]) for op in plain["ops"])
    busy = statistics.mean(s["busy"] for s in layers)
    self_s = {label: statistics.mean(s["self_s"].get(label, 0.0)
                                     for s in layers)
              for label in first["self_s"]}
    print(f"{args.workload} seed {args.seed}: {count} ops traced; "
          f"plain {plain_busy:.3f} s, traced {busy:.3f} s, "
          f"overhead {busy - plain_busy:.3f} s; {failed} failed")
    print(f"  {'layer':<9} {'calls':>9} {'self_s':>10} {'share':>7}  moves")
    for layer in tracer.LAYERS + ("bench",):
        labels = [k for k in first["calls"] if k.split(".")[0] == layer]
        calls = sum(first["calls"][k] for k in labels)
        spent = sum(self_s[k] for k in labels)
        print(f"  {layer:<9} {calls:>9} {spent:>10.4f} {spent / busy:>7.1%}"
              f"  {MOVES.get(layer, 'benchmark harness')}")

    hits = first["counters"]["symbolic.diff_atom.hits"]
    lookups = hits + first["counters"]["symbolic.diff_atom.misses"]
    metrics = {f"{label}.calls": (first["calls"].get(label, 0), "count")
               for label in CALL_COUNTS}
    metrics.update({name: (first["counters"].get(name, 0), "count")
                    for name in COUNTERS})
    metrics["symbolic.diff_atom.hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    metrics["cli.self_s"] = (self_s.get("cli.main", 0.0), "s")
    metrics["trace.wall_s"] = (busy, "s")
    metrics["trace.overhead_s"] = (busy - plain_busy, "s")
    return {"correct": failed == 0 and not drift, "attempted": count,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Seeded benchmark of the liehouse package.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "liehouse",
                                       "__init__.py")):
        sys.stderr.write(f"error: no liehouse sources under {ROOT}/src\n")
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs.write_run_files(workdir, args.seed)
    try:
        result = traced(args, workdir) if args.trace else timed(args, workdir)
    except (BenchError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
