"""Span recorder that traces the library from outside.

`Tracer.install()` wraps the public functions and methods of each layer of
`bockstein` (one span per call, kept in memory with its parent span) and
rebinds every module attribute that held an original, so calls made through
`bss.decompose`, `structure.bockstein_pages` or `cli.verify_envelope_pages`
are all seen.  `uninstall()` puts the originals back.  Scalar ring
operations are never wrapped: a task makes millions of them.

A span is a list [name, parent index, start, end, counts]; counts is a dict
of exact sizes measured at the call boundary, or None.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x)


def _snf_counts(args, kwargs, out):
    m = args[0]
    return {"cells": m.rows * m.cols, "nnz": _nnz(m.a),
            "rank": len(out.invariant_exponents),
            "min_dim": min(m.rows, m.cols)}


def _decompose_counts(args, kwargs, out):
    C = args[0]
    cells = sum(C.dim(n - 1) * C.dim(n) for n in range(1, C.n_max + 1))
    nnz = sum(_nnz(m.a) for m in C.d.blocks.values())
    elementary = [pc for pc in out.pieces if pc.kind == "elementary"]
    return {"cells": cells, "nnz": nnz, "elementary": len(elementary),
            "unit": sum(1 for pc in elementary if pc.exponent == 0)}


def _pbw_counts(args, kwargs, out):
    return {"dim": args[0].basis.total_dim()}


def _tensor_counts(args, kwargs, out):
    return {"dim": args[0].complex.basis.total_dim()}


# (span name, module, qualified name, counter).  Every public entry point
# that the workloads reach, one span name per layer operation.
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("dglfile.parse", "dglfile", "parse_dgl", None),
    ("dglfile.parse", "dglfile", "parse_map", None),
    ("lie.validate", "lie", "DgLie.validate", None),
    ("lie.pbw", "lie", "PbwAlgebra.__init__", _pbw_counts),
    ("lie.differential", "lie", "PbwAlgebra.differential", None),
    ("scalars.snf", "scalars", "Matrix.snf", _snf_counts),
    ("scalars.matmul", "scalars", "Matrix.__mul__", None),
    ("scalars.rref", "scalars", "Matrix.rref", None),
    ("scalars.rank", "scalars", "Matrix.rank", None),
    ("scalars.inverse", "scalars", "Matrix.inverse", None),
    ("scalars.solve", "scalars", "Matrix.solve", None),
    ("graded.complex", "graded", "GradedChainComplex.__init__", None),
    ("graded.decompose", "graded", "decompose", _decompose_counts),
    ("graded.field_homology", "graded", "FieldHomology.__init__", None),
    ("bss.pages", "bss", "bockstein_pages", None),
    ("bss.class_of_chain", "bss", "BssResult.class_of_chain", None),
    ("bss.morphism", "bss", "bss_of_morphism", None),
    ("gamma.mul", "gamma", "GammaAlgebra.mul", None),
    ("gamma.pairing", "gamma", "pairing_matrix", None),
    ("gamma.morphism_check", "gamma", "is_gamma_morphism", None),
    ("structure.tensor_square", "structure", "TensorSquareBss.__init__",
     _tensor_counts),
    ("structure.primitives", "structure", "PageAlgebra.primitives", None),
    ("structure.envelope", "structure", "verify_envelope_pages", None),
    ("structure.hopf_morphism", "structure", "hopf_morphism", None),
    ("structure.lie_type", "structure", "is_lie_type", None),
    ("cce.cochains", "cce", "cochains", None),
    ("cce.chains", "cce", "chains", None),
    ("cce.quasi_iso", "cce", "verify_quasi_iso", None),
]


PACKAGE = "bockstein"


class Tracer:
    """Records spans for the calls listed in TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []      # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}")
                   for m in sorted({t[1] for t in TARGETS})]
        wrappers = {}           # id(original function) -> wrapper
        for name, mod, qual, counter in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, counter)
            wrappers[id(orig)] = (orig, wrapper)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, orig, wrapper))
        # rebind every module-level name that imported an original
        for mod in modules + [sys.modules[PACKAGE]]:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val, hit[1]))

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def unwrapped_bindings(self) -> list:
        """Module attributes that still hold an original while installed."""
        originals = {id(orig) for _, _, orig, _ in self._patches}
        return [f"{modname}.{attr}"
                for modname, mod in list(sys.modules.items())
                if modname.split(".")[0] == PACKAGE
                for attr, val in vars(mod).items() if id(val) in originals]

    def begin_task(self, label: str):
        """Root span of one task; every span of the task descends from it."""
        span = ["task", -1, 0.0, 0.0, {"label": label}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        return span

    def end_task(self, span):
        span[3] = perf_counter()
        self._stack.pop()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def summarize(spans, under: str | None = None) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans only, so
    recursion is not counted twice), self seconds, and summed counts.

    Times are multiplied by the "scale" recorded on the task span they
    belong to.  With `under`, only spans below a span of that name count.
    """
    root = list(range(len(spans)))
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            root[i] = root[s[1]]
            child_time[s[1]] += s[3] - s[2]
    out = {}
    for i, (name, parent, t0, t1, counts) in enumerate(spans):
        if under is not None and not has_ancestor(spans, i, under):
            continue
        task = spans[root[i]][4]
        k = task.get("scale", 1.0) if isinstance(task, dict) else 1.0
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "counts": {},
                                    "max": {}})
        agg["calls"] += 1
        agg["self_s"] += ((t1 - t0) - child_time[i]) * k
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            agg["total_s"] += (t1 - t0) * k
        for key, v in (counts or {}).items():
            if isinstance(v, (int, float)) and key != "scale":
                agg["counts"][key] = agg["counts"].get(key, 0) + v
                agg["max"][key] = max(agg["max"].get(key, v), v)
    return out


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics (value, unit) from one pass's summary."""
    def get(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "counts": {}, "max": {}})

    def total(name):
        return get(name)["total_s"]

    def self_s(name):
        return get(name)["self_s"]

    def calls(name):
        return get(name)["calls"]

    snf, dec = get("scalars.snf"), get("graded.decompose")
    m = {
        "scalars.snf_s": (total("scalars.snf"), "s"),
        "scalars.snf_calls": (calls("scalars.snf"), "count"),
        "scalars.snf_cells": (snf["counts"].get("cells", 0), "count"),
        "scalars.snf_max_cells": (snf["max"].get("cells", 0), "count"),
        "scalars.snf_density": (_ratio(snf["counts"].get("nnz", 0),
                                       snf["counts"].get("cells", 0)),
                                "ratio"),
        "scalars.snf_rank_share": (_ratio(snf["counts"].get("rank", 0),
                                          snf["counts"].get("min_dim", 0)),
                                   "ratio"),
        "scalars.matmul_s": (total("scalars.matmul"), "s"),
        "scalars.matmul_calls": (calls("scalars.matmul"), "count"),
        "scalars.rref_s": (total("scalars.rref"), "s"),
        "scalars.rank_calls": (calls("scalars.rank"), "count"),
        "scalars.inverse_s": (total("scalars.inverse"), "s"),
        "scalars.solve_s": (total("scalars.solve"), "s"),
        "graded.decompose_s": (self_s("graded.decompose"), "s"),
        "graded.decompose_cells": (dec["counts"].get("cells", 0), "count"),
        "graded.decompose_nnz": (dec["counts"].get("nnz", 0), "count"),
        "graded.unit_piece_share": (_ratio(dec["counts"].get("unit", 0),
                                           dec["counts"].get("elementary",
                                                             0)),
                                    "ratio"),
        "graded.complex_s": (total("graded.complex"), "s"),
        "graded.field_homology_s": (total("graded.field_homology"), "s"),
        "structure.tensor_square_s": (self_s("structure.tensor_square"),
                                      "s"),
        "structure.tensor_dim": (get("structure.tensor_square")["counts"]
                                 .get("dim", 0), "count"),
        "structure.primitives_s": (total("structure.primitives"), "s"),
        "structure.envelope_s": (self_s("structure.envelope"), "s"),
        "structure.hopf_morphism_s": (total("structure.hopf_morphism"), "s"),
        "structure.lie_type_s": (self_s("structure.lie_type"), "s"),
        "bss.class_of_chain_s": (total("bss.class_of_chain"), "s"),
        "bss.class_of_chain_calls": (calls("bss.class_of_chain"), "count"),
        "bss.morphism_s": (total("bss.morphism"), "s"),
        "bss.pages_s": (self_s("bss.pages"), "s"),
        "lie.validate_s": (total("lie.validate"), "s"),
        "lie.pbw_s": (total("lie.pbw"), "s"),
        "lie.differential_s": (total("lie.differential"), "s"),
        "lie.ul_dim": (get("lie.pbw")["counts"].get("dim", 0), "count"),
        "gamma.mul_s": (total("gamma.mul"), "s"),
        "gamma.mul_calls": (calls("gamma.mul"), "count"),
        "gamma.pairing_s": (total("gamma.pairing"), "s"),
        "gamma.pairing_calls": (calls("gamma.pairing"), "count"),
        "gamma.morphism_check_s": (total("gamma.morphism_check"), "s"),
        "cce.cochains_s": (total("cce.cochains"), "s"),
        "cce.chains_s": (total("cce.chains"), "s"),
        "cce.quasi_iso_s": (total("cce.quasi_iso"), "s"),
        "dglfile.parse_s": (total("dglfile.parse"), "s"),
        "cli.main_s": (self_s("cli.main"), "s"),
    }
    return m
