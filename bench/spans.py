"""Spans around the public functions of vogeluniq, recorded from outside.

`Tracer.install()` replaces each function in `TARGETS` at every place the
package binds it: its own module, and every module that imported it by name
(``qsearch`` calls ``nullspace`` through its own ``from ._linalg import
nullspace``, so patching ``_linalg`` alone would miss those calls).
`Tracer.uninstall()` puts the originals back.  Methods of the ``plane`` and
``_poly`` classes stay unwrapped: a wrapper would cost more than their work.

A span is (name, start, end, parent span index, pass id, outcome).  Spans
stay in memory until `write()`.  A span's self time is its duration minus
the durations of its child spans; calls in one thread nest, so children
never overlap.  Spans made in worker processes stay there and are lost.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _is_some(result):
    return result is not None


# (module, function, outcome of one call or None); the outcome feeds the
# ratios and work counts of `layer_stats`.
TARGETS = (
    ("_linalg", "rref", None),
    ("_linalg", "nullspace", len),
    ("qsearch", "build_system", None),
    ("qsearch", "solve_quantum", None),
    ("qsearch", "family_degeneracy", _is_some),
    ("qsearch", "is_nontrivial", bool),
    ("qsearch", "enumerate_families", lambda r: (r.cases_examined, len(r.families))),
    ("qsearch", "verify_solution", None),
    ("qsearch", "survey_k3_classical", None),
    ("formula", "cancel", lambda r: r.k > 0),
    ("configs", "canonical_form", None),
    ("configs", "isomorphic", None),
    ("configs", "find_coloring", _is_some),
    ("configs", "enumerate_n3", len),
    ("configs", "sketch_from_q", None),
    ("configs", "extract_permutations", None),
    ("identity", "check_on_lines", None),
    ("identity", "check_symmetric", None),
    ("cli", "main", None),
)

DIM_BINS = 13  # nullspace dimensions 0..11, then 12 and above (k <= 4 has 3k <= 12 unknowns)


def layer_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "vogeluniq"]
        for module_name, function, outcome in TARGETS:
            original = getattr(importlib.import_module(f"vogeluniq.{module_name}"), function)
            wrapper = self._wrap(layer_name(module_name, function), original, outcome)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, outcome):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                seen = outcome(result) if outcome is not None and result is not None else None
                spans[index] = (name, start, end, parent, self.pass_id, seen)

        traced.__wrapped__ = fn
        return traced

    def layer_stats(self, pass_ids) -> dict[str, float]:
        """Per-pass means over the given passes: calls, self time and the
        outcome ratios, named `<layer>.<stat>`."""
        passes = set(pass_ids)
        child = defaultdict(float)
        for name, start, end, parent, pid, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        hits = defaultdict(int)
        dims = [0] * DIM_BINS
        work = defaultdict(int)
        for index, (name, start, end, _, pid, seen) in enumerate(self.spans):
            if pid not in passes:
                continue
            calls[name] += 1
            self_s[name] += end - start - child[index]
            if name == "linalg.nullspace" and seen is not None:
                dims[min(seen, DIM_BINS - 1)] += 1
                hits[name] += seen > 0
            elif name == "qsearch.enumerate_families" and seen is not None:
                work["qsearch.cases_examined"] += seen[0]
                work["qsearch.families_found"] += seen[1]
            elif name == "configs.enumerate_n3" and seen is not None:
                work["configs.classes"] += seen
            elif seen:
                hits[name] += 1
        n = len(passes)
        out = {}
        for module_name, function, _ in TARGETS:
            name = layer_name(module_name, function)
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_s"] = self_s[name] / n
        ratio = lambda name: hits[name] / calls[name] if calls[name] else 0.0
        out["linalg.nullspace.nonempty_ratio"] = ratio("linalg.nullspace")
        out["qsearch.family_degeneracy.infeasible_ratio"] = ratio("qsearch.family_degeneracy")
        out["qsearch.is_nontrivial.true_ratio"] = ratio("qsearch.is_nontrivial")
        out["formula.cancel.nonempty_ratio"] = ratio("formula.cancel")
        out["configs.find_coloring.colorable_ratio"] = ratio("configs.find_coloring")
        for dim, count in enumerate(dims):
            label = f"{dim}plus" if dim == DIM_BINS - 1 else str(dim)
            out[f"linalg.nullspace.dim_hist.{label}"] = count / n
        for key in ("qsearch.cases_examined", "qsearch.families_found", "configs.classes"):
            out[key] = work[key] / n
        return out

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent index, pass id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, pid, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, pid]) + "\n")
