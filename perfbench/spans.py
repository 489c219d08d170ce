"""Span tracing of yexp's stage-level public functions, installed from outside.

A traced worker wraps each function in ``WRAPPED`` and rebinds the wrapper in
every ``yexp.*`` module namespace that holds the original, so calls made
through ``from .yseed import cluster_transform`` style imports are seen too.
``build_root_system`` and ``calibrate_reading`` are ``lru_cache`` objects and
are wrapped the same way; the cache itself is untouched.  Tiny helpers such
as ``rootsys.pairing`` are left alone: a span around them costs more than the
work it times.

Each span records its function, start, end, parent span, case id and whether
it raised.  Spans stay in memory and are written out when the worker ends.
"""

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

WRAPPED = {
    "rootsys": ("build_root_system", "group_constants"),
    "quiver": ("build_dynkin_quiver", "build_mutation_loop", "mutate_quiver"),
    "yseed": ("cluster_transform", "check_periodicity", "loop_jacobian",
              "finite_difference_jacobian"),
    "qsys": ("qdim", "kr_qchar", "kr_qtable", "closed_form_qtable",
             "check_restricted_qsystem"),
    "ysys": ("calibrate_reading", "y_solution", "y_from_q", "check_ysystem",
             "assemble_eta", "newton_fixed_point"),
    "spectral": ("run_case", "conjectured_charpoly", "spectrum", "lemma_summary",
                 "relation_residuals", "c_blocks", "verify_c_reduction",
                 "verify_conjecture_csol"),
    "cli": ("main",),
}

LAYERS = tuple(WRAPPED)
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self):
        self.spans = []  # [function, start, end, parent index, case, raised]
        self._stack = []
        self.case = None

    def install(self):
        """Wrap every function in WRAPPED and rebind it across yexp's modules."""
        modules = {layer: importlib.import_module(f"yexp.{layer}") for layer in WRAPPED}
        self._root_lru = modules["rootsys"].build_root_system
        wrappers = {}
        for layer, names in WRAPPED.items():
            module = modules[layer]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = self._wrap(f"{layer}.{name}", original)
        for modname, module in list(sys.modules.items()):
            if modname != "yexp" and not modname.startswith("yexp."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        info = self._root_lru.cache_info()
        self._cache_base = (info.hits, info.misses)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.case, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per-function calls, inclusive and self seconds, raises; cache counts."""
        child = [0.0] * len(self.spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in self.spans):
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child[i]
            rec["raised"] += raised
        info = self._root_lru.cache_info()
        return {
            "functions": dict(out),
            "root_cache": {"hits": info.hits - self._cache_base[0],
                           "misses": info.misses - self._cache_base[1]},
            "spans": len(self.spans),
        }

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["function", "start", "end", "parent", "case", "raised"],
                       "spans": self.spans}, fh)
