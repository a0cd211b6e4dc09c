"""Spans around the program's layers, recorded from the benchmark's side.

``Tracer.install`` replaces each traced public function or method of the
``leibcohom`` modules with a wrapper that records a span (name, start,
end, parent span, operation number) in memory.  A function that another
module imported by name is replaced there too, so for example the
``kernel_basis`` that ``equivariant`` binds is traced like
``linalg.kernel_basis``.  ``uninstall`` puts the originals back.

A layer's self time is its spans' duration minus the part covered by
their child spans.  ``metrics`` turns the spans of the traced region into
the per-layer figures, each divided by the number of operations.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, span name); a dotted path names a method
SPANS = [
    ("linalg", "Matrix.rref", "linalg.rref"),
    ("linalg", "Matrix.mul", "linalg.mul"),
    ("linalg", "Matrix.kron", "linalg.kron"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve_matrix", "linalg.solve_matrix"),
    ("linalg", "in_span", "linalg.in_span"),
    ("leibniz", "check_leibniz_identity", "leibniz.check_leibniz_identity"),
    ("groups", "orbit_category", "groups.orbit_category"),
    ("groups", "fixed_subalgebra", "groups.fixed_subalgebra"),
    ("groups", "restriction_map", "groups.restriction_map"),
    ("groups", "validate_action", "groups.validate_action"),
    ("complexes", "boundary_matrix", "complexes.boundary_matrix"),
    ("complexes", "coboundary_matrix", "complexes.coboundary_matrix"),
    ("equivariant", "EquivariantSetup.invariant_space",
     "equivariant.invariant_space"),
    ("equivariant", "EquivariantSetup.equivariant_coboundary",
     "equivariant.equivariant_coboundary"),
    ("equivariant", "EquivariantSetup.check_invariance",
     "equivariant.check_invariance"),
    ("equivariant", "EquivariantSetup.invariant_to_ambient",
     "equivariant.invariant_to_ambient"),
    ("equivariant", "EquivariantSetup.rho_matrix", "equivariant.rho_matrix"),
    ("shuffles", "rho_sum", "shuffles.rho_sum"),
    ("shuffles", "cup", "shuffles.cup"),
    ("shuffles", "zinbiel_check_on_cohomology",
     "shuffles.zinbiel_check_on_cohomology"),
    ("shuffles", "check_rho_identity", "shuffles.check_rho_identity"),
    ("cli", "parse_problem", "cli.parse_problem"),
    ("cli", "make_setup", "cli.make_setup"),
    ("cli", "Report.emit", "cli.Report.emit"),
]
# called too often for a span each; only counted
COUNTS = [("leibniz", "LeibnizAlgebra.bracket", "leibniz.bracket")]

# the per-layer metrics, in the order BENCHMARK.json lists them
SELF_MS = [
    "linalg.rref", "linalg.kernel_basis", "linalg.solve_matrix",
    "equivariant.invariant_space", "equivariant.equivariant_coboundary",
    "complexes.coboundary_matrix", "complexes.boundary_matrix",
    "linalg.in_span", "equivariant.invariant_to_ambient", "shuffles.cup",
    "shuffles.zinbiel_check_on_cohomology", "linalg.mul", "linalg.kron",
    "equivariant.check_invariance", "groups.orbit_category",
    "groups.fixed_subalgebra", "groups.restriction_map",
    "groups.validate_action", "leibniz.check_leibniz_identity",
    "shuffles.check_rho_identity", "cli.parse_problem", "cli.make_setup",
    "cli.Report.emit",
]
CALLS = ["linalg.rref", "linalg.in_span", "equivariant.invariant_to_ambient",
         "shuffles.cup", "linalg.mul", "equivariant.check_invariance",
         "leibniz.bracket"]


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index, op]
        self.counts = {}
        self.op = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    @staticmethod
    def _rref_input(tracer, args):
        m = args[0]
        c = tracer.counts
        c["linalg.rref.cells"] = c.get("linalg.rref.cells", 0) + m.rows * m.cols
        c["linalg.rref.nonzero"] = (c.get("linalg.rref.nonzero", 0)
                                    + sum(1 for row in m.data for x in row if x))

    def install(self):
        modules = [sys.modules[n] for n in sorted(sys.modules)
                   if n == self.package or n.startswith(self.package + ".")]
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for mod, path, name in table:
                owner, attr = _resolve(sys.modules[f"{self.package}.{mod}"], path)
                original = getattr(owner, attr)
                if kind == "count":
                    wrapped = self._counter(name, original)
                else:
                    before = self._rref_input if name == "linalg.rref" else None
                    wrapped = self._span(name, original, before)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                if "." in path:
                    continue
                # rebind the names other modules imported
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, key, original))
                            setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_op(self, op, fn):
        """Run one operation under a root span that its spans descend from."""
        self.op = op
        try:
            return self._span("bench.op", fn)()
        finally:
            self.op = -1

    # -- results -----------------------------------------------------------

    def metrics(self, ops):
        """Per-layer figures per operation over everything recorded."""
        self_time = {}
        calls = {}
        child_time = [0.0] * len(self.spans)
        children = [[] for _ in self.spans]
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(name)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
        builds = sum(1 for i, s in enumerate(self.spans)
                     if s[0] == "equivariant.invariant_space"
                     and "linalg.kernel_basis" in children[i])
        rho_calls = calls.get("equivariant.rho_matrix", 0)
        rho_misses = sum(1 for i, s in enumerate(self.spans)
                         if s[0] == "equivariant.rho_matrix"
                         and "shuffles.rho_sum" in children[i])
        cells = self.counts.get("linalg.rref.cells", 0)
        out = {}
        for name in CALLS:
            n = self.counts[name] if name in self.counts else calls.get(name, 0)
            out[f"{name}.calls"] = (n / ops, "count")
        out["linalg.rref.cells"] = (cells / ops, "count")
        out["linalg.rref.density"] = (
            self.counts.get("linalg.rref.nonzero", 0) / cells if cells else 0.0,
            "ratio")
        out["equivariant.invariant_space.builds"] = (builds / ops, "count")
        out["equivariant.rho_matrix.hit_ratio"] = (
            (rho_calls - rho_misses) / rho_calls if rho_calls else 0.0, "ratio")
        for name in SELF_MS:
            out[f"{name}.self_ms"] = (1e3 * self_time.get(name, 0.0) / ops, "ms")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))
