"""Layer tracer for the benchmark: spans and counters around the
package's public functions, installed from outside the package.

Each wrapped call records one span (label, start, end, parent span, op
number) in flat arrays kept in memory; dump() writes them out once the
traced pass ends.  A layer is a module of the package, and its self
time is the time its spans cover minus the time covered by their child
spans, so recursion (differentiate calling itself through the atom
derivative cache) is counted once.

Wrappers replace every binding of a wrapped function in every loaded
liehouse module (closure.is_zero, fields.differentiate, the package
namespace, ...), and Expr.__mul__ together with its __rmul__ alias.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

# (layer, module, function) wrapped by name in every module binding
FUNCTIONS = (
    ("symbolic", "liehouse.symbolic", "differentiate"),
    ("symbolic", "liehouse.symbolic", "substitute"),
    ("symbolic", "liehouse.symbolic", "is_zero"),
    ("symbolic", "liehouse.symbolic", "eval_numeric"),
    ("parsing", "liehouse.parsing", "parse"),
    ("fields", "liehouse.fields", "lie_bracket"),
    ("fields", "liehouse.fields", "apply_to_scalar"),
    ("fields", "liehouse.fields", "proportional_to"),
    ("fields", "liehouse.fields", "exact_div"),
    ("closure", "liehouse.closure", "check_closure"),
    ("evapo", "liehouse.evapo", "descriptor_to_expr"),
    ("evapo", "liehouse.evapo", "verify_candidate"),
    ("model", "liehouse.model", "simulate"),
    ("homology", "liehouse.homology", "homology_report"),
    ("homology", "liehouse.homology", "boundary_matrix"),
    ("homology", "liehouse.homology", "rank_exact"),
    ("cli", "liehouse.cli", "main"),
)
# (layer, module, class, method)
METHODS = (
    ("closure", "liehouse.closure", "ClosureEngine", "y"),
    ("closure", "liehouse.closure", "ClosureEngine", "delta"),
    ("closure", "liehouse.closure", "ClosureEngine", "lam_with"),
    ("model", "liehouse.model", "ControlSchedule", "value_at"),
)
LAYERS = ("symbolic", "parsing", "fields", "closure", "evapo", "model",
          "homology", "cli")


def _terms(value) -> int:
    """Term count of a multiplication operand as the kernel coerces it."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    if isinstance(value, (int, Fraction)):
        return 1 if value else 0
    return 0


class Tracer:
    def __init__(self):
        self.labels: list = []
        self.label_id: dict = {}
        self.label = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_op = -1
        self.counters: dict = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, label: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) and after(result) add
        counters at the call."""
        lid = self.label_id.setdefault(label, len(self.labels))
        if lid == len(self.labels):
            self.labels.append(label)
        stack = self.stack
        label_a, parent_a, op_a = self.label, self.parent, self.op
        start_a, end_a = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start_a)
            label_a.append(lid)
            parent_a.append(stack[-1] if stack else -1)
            op_a.append(self.current_op)
            end_a.append(0.0)
            if before is not None:
                before(args)
            stack.append(idx)
            start_a.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch the loaded liehouse modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "liehouse" or name.startswith("liehouse.")]
        hooks = self._hooks()
        for layer, module, name in FUNCTIONS:
            original = getattr(sys.modules[module], name)
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(f"{layer}.{name}", original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for layer, module, cls_name, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            before, after = hooks.get(name, (None, None))
            setattr(cls, name, self.wrap(f"{layer}.{name}",
                                         vars(cls)[name], before, after))
        expr = sys.modules["liehouse.symbolic"].Expr
        mul = self.wrap("symbolic.mul", vars(expr)["__mul__"],
                        before=self._count_mul)
        expr.__mul__ = mul
        expr.__rmul__ = mul

    def _count_mul(self, args) -> None:
        self.count("symbolic.mul.term_pairs",
                   _terms(args[0]) * _terms(args[1]))

    def _hooks(self) -> dict:
        symbolic = sys.modules["liehouse.symbolic"]

        def is_zero(args):
            e = args[0]
            if not isinstance(e, symbolic.Expr):
                e = symbolic.as_expr(e)
            negative = any(k < 0 for m, _ in e.terms for _, k in m)
            exact = not e.terms or not (symbolic.has_transcendental(e)
                                        or negative)
            self.count("symbolic.is_zero.exact" if exact
                       else "symbolic.is_zero.sampled")

        def rank_exact(args):
            rows = args[0]
            self.count("homology.rank_exact.cells",
                       len(rows) * (len(rows[0]) if rows else 0))

        def simulate(trajectory):
            self.count("model.rk4_steps", len(trajectory.times) - 1)

        return {"is_zero": (is_zero, None),
                "rank_exact": (rank_exact, None),
                "simulate": (None, simulate)}

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"labels": self.labels, "spans": len(self.start),
                  "counters": self.counters}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.label, self.parent, self.op, self.start,
                        self.end):
                arr.tofile(handle)


def load(path: str) -> dict:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        arrays = []
        for code in "iiidd":
            arr = array(code)
            arr.fromfile(handle, n)
            arrays.append(arr)
    header["arrays"] = arrays
    return header


def summarize(trace: dict, scale: dict) -> dict:
    """Per label: calls and self seconds, from the dumped spans; scale
    maps an op number to the factor applied to its spans' times."""
    label, parent, op, start, end = trace["arrays"]
    n = len(start)
    child = [0.0] * n
    for idx in range(n):
        p = parent[idx]
        if p >= 0:
            child[p] += end[idx] - start[idx]
    calls: dict = {}
    self_s: dict = {}
    for idx in range(n):
        name = trace["labels"][label[idx]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + scale[op[idx]] * (
            end[idx] - start[idx] - child[idx])
    return {"calls": calls, "self_s": self_s}
