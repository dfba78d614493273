"""Span tracing of the cubicjordan package, installed from outside.

The tracer wraps public functions of each module in place.  Every call of
a wrapped function records one span: name, parent span, start, end, the
time covered by its child spans, and, for elimination, the matrix cells.
The hot ``Poly`` kernel methods are too frequent for a span per call, so
each of their calls only adds to a (parent span, method) aggregate of
count and self time.  A kernel is not a span: its time stays in the self
time of the enclosing span, and only a kernel called by another kernel
(``substitute`` multiplying, say) is taken out of the caller's self time.

Every binding of a wrapped object inside the package is replaced: module
globals (including names brought in by ``from .exactcore import ...``)
and class attributes (so ``Poly.__radd__``, an alias of ``__add__``, is
wrapped too).  ``leftover_references`` reports any container that still
holds an original after installation.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter

PACKAGE = "cubicjordan"
ROOT_SPAN = -1

# Attribute paths per module; a span is recorded per call.
SPANS = {
    "cli": ["suite_axioms", "suite_classify", "suite_fiber", "suite_chart",
            "suite_radicals", "suite_specialize", "suite_embeddings",
            "suite_weights", "suite_toric_matrices", "suite_hilbert"],
    "jordan": ["radical_membership", "nondegeneracy_test_equiv", "u_operator",
               "trace_bilinear", "sharp_of", "verify_sharp_conditions"],
    "coord8": ["verify_peirce_identities", "cubic_form", "presentation"],
    "hvariety": ["sample_point", "equations", "apply_group_to_cube",
                 "classify_orbit", "factor_equivariance_certificate",
                 "radical_locus_check", "nondegenerate_sweep", "hyperdeterminant",
                 "chart_reduce_u1", "fiber_certificate_p3", "fiber_certificate_p4"],
    "relatives": ["verify_cluster_embedding", "verify_specialization",
                  "m8_action_certificate", "s6_action_certificate"],
    "grading": ["solve_weight_constraints", "check_homogeneous"],
    "exactcore": ["span_compare", "solve_linear", "rank", "nullspace",
                  "PolyMatrix.det"],
}

# Attribute paths per module; aggregated under the parent span.
KERNELS = {
    "exactcore": ["Poly.__mul__", "Poly.__add__", "Poly.substitute",
                  "Poly.derivative", "Poly.evaluate"],
}

# The three elimination routines are reported together.
ALIASES = {"solve_linear": "elim", "rank": "elim", "nullspace": "elim"}


def metric_name(module: str, path: str) -> str:
    """``exactcore.Poly.__mul__`` -> ``exactcore.Poly.mul``, with ALIASES."""
    return f"{module}.{ALIASES.get(path, path.replace('__', ''))}"


NAMES = {metric_name(module, path)
         for table in (SPANS, KERNELS) for module, paths in table.items()
         for path in paths}


def _matrix_cells(rows, *rest):
    """rows x cols of the input matrix of an elimination routine."""
    if not rows:
        return 0
    cols = rest[0] if rest and isinstance(rest[0], int) else len(rows[0])
    return len(rows) * cols


CELLS = {"exactcore.elim": _matrix_cells}


class Tracer:
    """Spans and kernel aggregates of one traced process.

    ``spans`` holds ``[name, parent, start, end, covered, cells]`` records,
    where ``covered`` is the time spent in child spans.  ``kernels`` maps
    ``(parent span, name)`` to ``[calls, self_s]``, where ``self_s`` leaves
    out nested kernel calls.  Kernels never call a traced span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.kernels: dict[tuple[int, str], list] = {}
        self._open = [ROOT_SPAN]
        self._covered = [0.0]
        self._kernel_covered: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []
        self.missing: list[str] = []  # targets the package no longer has

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, open_, covered = self.spans, self._open, self._covered
        cells = CELLS.get(name)

        def traced(*args, **kwargs):
            rec = [name, open_[-1], 0.0, 0.0, 0.0,
                   cells(*args, **kwargs) if cells else 0]
            open_.append(len(spans))
            spans.append(rec)
            covered.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                rec[2], rec[3], rec[4] = start, end, covered.pop()
                covered[-1] += end - start

        return traced

    def _kernel(self, name, fn):
        kernels, open_, covered = self.kernels, self._open, self._kernel_covered

        def traced(*args, **kwargs):
            covered.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                inner = covered.pop()
                if covered:  # called by another kernel
                    covered[-1] += took
                key = (open_[-1], name)
                agg = kernels.get(key)
                if agg is None:
                    agg = kernels[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += took - inner

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind each of its names in the package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        owners = list(modules)
        for mod in modules:
            owners += [v for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__.startswith(PACKAGE)]
        for table, make in ((SPANS, self._span), (KERNELS, self._kernel)):
            for modname, paths in table.items():
                for path in paths:
                    obj = sys.modules.get(f"{PACKAGE}.{modname}")
                    for part in path.split("."):
                        obj = None if obj is None else vars(obj).get(part)
                    if obj is None:
                        self.missing.append(f"{modname}.{path}")
                    else:
                        self._rebind(owners, obj, make(metric_name(modname, path), obj))

    def _rebind(self, owners, original, wrapper) -> None:
        self._originals.append(original)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        self._originals.clear()

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span or kernel name: calls, s, self_s and cells, summed.

        ``s`` counts only spans with no enclosing span of the same name, so
        nested calls are not timed twice; kernels have no ``s``.
        """
        out: dict[str, dict] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "cells": 0})

        spans = self.spans
        for name, parent, start, end, covered, cells in spans:
            t = entry(name)
            t["calls"] += 1
            t["self_s"] += end - start - covered
            t["cells"] += cells
            while parent != ROOT_SPAN and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent == ROOT_SPAN:
                t["s"] += end - start
        for (_, name), (calls, self_s) in self.kernels.items():
            t = entry(name)
            t["calls"] += calls
            t["self_s"] += self_s
        return out

    def child_count(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` whose direct parent is ``parent_name``."""
        spans = self.spans
        return sum(1 for name, parent, *_ in spans
                   if name == child_name and parent != ROOT_SPAN
                   and spans[parent][0] == parent_name)

    def leftover_references(self) -> list[str]:
        """Containers other than the tracer's own that still hold an original."""
        ours = {id(self._patches), id(self._originals)}
        ours.update(id(p) for p in self._patches)
        found = []
        for original in self._originals:
            for ref in gc.get_referrers(original):
                if id(ref) in ours or not isinstance(ref, (dict, list, tuple, set)):
                    continue
                found.append(f"{getattr(original, '__qualname__', original)} "
                             f"held by a {type(ref).__name__}")
        return found
