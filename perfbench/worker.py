"""One benchmark process: set up the package, run ops, report.

    python3 perfbench/worker.py MODE WORKDIR WORKLOAD SEED AMOUNT

MODE is "probe" (set up, then only the first op of cycle AMOUNT, cold),
"run" (one warm-up cycle, then whole cycles of the workload until
AMOUNT seconds have passed), "pass" (the first AMOUNT ops) or "trace"
(the first AMOUNT ops under the layer tracer).  WORKDIR holds the
params.json the set-up loads; op files are written there and the result
goes to WORKDIR/MODE-<pid>.json (spans to MODE-<pid>.spans).

Only sys, os and time are imported before the package, so the set-up
time covers every import the package itself needs.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> None:
    mode, workdir, workload, seed, amount = sys.argv[1:6]
    seed = int(seed)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import liehouse.cli
    from liehouse import Params
    Params.from_file(os.path.join(workdir, "params.json"))
    setup_s = time.perf_counter() - t0

    import contextlib
    import hashlib
    import io
    import json
    import resource

    import inputs

    def execute(spec):
        out = io.StringIO()
        if spec["kind"] == "scan":
            # looked up at call time, so the tracer's wrappers apply
            sp = Params.symbolic()
            e = liehouse.descriptor_to_expr(
                sp, spec["candidate"]["descriptor"])
            report = liehouse.check_closure(sp, e, seed=spec["seed"])
            out.write(json.dumps(report.to_dict(), sort_keys=True,
                                 indent=2) + "\n")
            return 0, out.getvalue()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = liehouse.cli.main(spec["argv"])
        return code, out.getvalue()

    tracer = None
    if mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
        execute = tracer.wrap("bench.op", execute)
    diff_atom = getattr(liehouse.symbolic, "_diff_atom", None)
    cache_before = diff_atom.cache_info() if diff_atom else None

    os.chdir(workdir)
    cycle = inputs.cycle_length(workload)
    limit = float(amount)

    def indices():
        if mode == "probe":
            yield int(limit) * cycle
            return
        if mode != "run":
            yield from range(int(limit))
            return
        yield from range(cycle)
        started = time.perf_counter()
        index = cycle
        while index % cycle or time.perf_counter() - started < limit:
            yield index
            index += 1

    ops = []
    ref = setup_ref = reference()
    for index in indices():
        spec = inputs.op_spec(workload, seed, index)
        inputs.write_op_files(".", spec)
        if tracer is not None:
            tracer.current_op = index
        t = time.perf_counter()
        try:
            code, text = execute(spec)
            error = None
        except SystemExit as exc:  # argparse rejected the command line
            code, text, error = exc.code, "", f"exit {exc.code}"
        except Exception as exc:  # counted as a failed op, run goes on
            code, text, error = None, "", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        ref_after = reference()
        ops.append({"index": index, "latency": latency,
                    "ref": (ref + ref_after) / 2, "work": spec["work"],
                    "code": code, "error": error,
                    "sha": hashlib.sha256(text.encode()).hexdigest(),
                    "out": summarize(workload, text) if code in (0, 1)
                    else None})
        ref = ref_after

    result = {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "ops": ops,
        "warmup": cycle if mode == "run" else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    tag = f"{mode}-{os.getpid()}"
    if tracer is not None:
        info = diff_atom.cache_info() if diff_atom else None
        hits = info.hits - cache_before.hits if info else 0
        misses = info.misses - cache_before.misses if info else 0
        tracer.counters["symbolic.diff_atom.hits"] = hits
        tracer.counters["symbolic.diff_atom.misses"] = misses
        tracer.dump(tag + ".spans")
        result["spans"] = tag + ".spans"
    with open(tag + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print(os.path.join(workdir, tag + ".json"))


def reference() -> float:
    """Seconds for a fixed pure-Python loop of Fraction and dict work,
    the faster of two tries."""
    from fractions import Fraction
    best = None
    for _ in range(2):
        t = time.perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(400):
            q = Fraction(i % 97 + 1, i % 89 + 1)
            acc += q * q
            seen[(i % 50, i % 7)] = acc
        took = time.perf_counter() - t
        best = took if best is None else min(best, took)
    return best


def summarize(workload: str, text: str):
    """The part of a report the oracle checks."""
    import json
    if workload == "trajectory":
        lines = text.rstrip("\n").split("\n")
        return {"rows": len(lines) - 1,
                "end": [float(v) for v in lines[-1].split(",")]}
    report = json.loads(text)
    if workload == "closure-screen":
        return {"c": report["c"], "constant_ok": report["constant_ok"]}
    if workload == "grid-measure":
        return {"max_abs": {k: v["max_abs"]
                            for k, v in report["delta"].items()}}
    return {"betti": report["betti"], "euler": report["euler"]}


if __name__ == "__main__":
    main()
