"""Span tracing of degenlab's public functions, installed from outside the
package: nothing under ``src/`` knows about it.

Each traced function object is replaced by a wrapper in every ``degenlab``
module namespace that holds it (``harness``, ``cli``, ``mms``, ``solver``
and ``norms`` import many of them by name, and the package ``__init__``
re-exports them); methods are wrapped on their class.  A wrapper records a
span (function, parent span, start, end) only while the tracer is active,
so the benchmark's own checks, which call the same functions, leave no
spans.  Spans stay in memory and are written out once, when the run ends.
"""

import functools
import gzip
import importlib
import sys
import time

# (module, qualified name) of every traced function; the per-layer metric
# names are "<module>.<qualified name>.calls" and ".self_cost".
TRACED = (
    ("solver", "linear_solve"),
    ("solver", "march"),
    ("solver", "march_system"),
    ("solver", "adjoint_march"),
    ("solver", "adjoint_march_system"),
    ("assembly", "assemble_stiffness"),
    ("assembly", "assemble_weighted_mass"),
    ("assembly", "LoadAssembler.__init__"),
    ("assembly", "LoadAssembler.assemble"),
    ("coefficients", "sample_on_mesh"),
    ("coefficients", "oscillation_scan"),
    ("fields", "sample_nodes"),
    ("norms", "weighted_norm"),
    ("norms", "levels_norm"),
    ("norms", "analytic_norm"),
    ("mesh", "cells_in_cylinder"),
    ("harness", "duality_check"),
    ("harness", "locally_homogeneous_solution"),
    ("harness", "caccioppoli_ratio"),
    ("harness", "w_estimate_ratio"),
    ("harness", "boundary_lipschitz"),
    ("harness", "main_estimate_sweep"),
    ("cli", "run"),
    ("cli", "write_artifacts"),
)

SPAN_NAMES = tuple("%s.%s" % entry for entry in TRACED)


class Tracer:
    """Owns the span list and the stack of open spans of one process."""

    def __init__(self):
        self.active = False
        self.op = -1
        # (span id, parent id or -1, op index, function index, start, end)
        self.spans = []
        self._stack = []
        self._next_id = 0

    def install(self):
        """Wrap every function in TRACED; returns the number of namespace
        slots replaced (at least one per function)."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "degenlab" or name.startswith("degenlab.")]
        replaced = 0
        for index, (module_name, qualname) in enumerate(TRACED):
            module = importlib.import_module("degenlab." + module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(index, cls.__dict__[attr]))
                replaced += 1
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(index, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced += 1
            if getattr(module, qualname) is not wrapper:
                raise RuntimeError("could not wrap degenlab.%s.%s"
                                   % (module_name, qualname))
        return replaced

    def _wrap(self, index, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, tracer.op, index, start, end))

        return traced

    def totals(self):
        """Per traced function: (number of calls, summed self time in s).
        Self time is a span's duration minus the durations of its direct
        child spans."""
        child = {}
        for span_id, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for span_id, _, _, index, start, end in self.spans:
            calls[index] += 1
            self_s[index] += (end - start) - child.get(span_id, 0.0)
        return calls, self_s

    def write(self, path):
        """Write every span as gzipped CSV (times relative to the first
        span's start)."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for span_id, parent, op, index, start, end in self.spans:
                fh.write("%d,%d,%d,%s,%.9f,%.9f\n"
                         % (span_id, parent, op, SPAN_NAMES[index],
                            start - t0, end - t0))
