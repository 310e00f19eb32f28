"""Spans and counts around calls into rotortomo's public functions, recorded from outside.

The tracer rebinds every copy of each listed function -- ``from .x import y``
leaves one in each importing module and in the package namespace -- to a
wrapper that records a span (name, start, end, parent span, op id).  Spans stay
in memory until the run writes them out.  A span's self time is its duration
minus the time its child spans cover; within one op the self times add up to
the time covered by the op's top-level spans.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

ALL = frozenset({"cli-rigid", "cli-centrifugal", "warm-cli", "bootstrap", "warm-sweep"})
CLI = frozenset({"cli-rigid", "cli-centrifugal", "warm-cli"})
CHAIN = frozenset({"cli-rigid", "warm-cli", "bootstrap", "warm-sweep"})
CENTRIFUGAL = frozenset({"cli-centrifugal", "warm-cli"})

# (layer, function, workloads on which it must record calls).  A function that
# still exists but records no call on one of its workloads fails the traced run.
TRACED = (
    ("angular", "product_decomp", ALL),
    ("angular", "gauss_legendre_grid", ALL),
    ("angular", "assoc_legendre_norm", ALL),
    ("angular", "eigenfunction_rows", ALL),
    ("angular", "coefficient_table", ALL),
    ("tomography", "SamplingPlan.derive", ALL),
    ("tomography", "degeneracy_set", CHAIN),
    ("tomography", "degeneracy_set_cd", CENTRIFUGAL),
    ("tomography", "moment_integral", ALL),
    ("tomography", "reconstruct_block", ALL),
    ("tomography", "reconstruct_diag", CHAIN),
    ("tomography", "reconstruct_offdiag", CHAIN),
    ("rotor", "energy", ALL),
    ("rotor", "bohr_frequency", CENTRIFUGAL),
    ("rotor", "simulate_pr", ALL),
    ("rotor", "add_shot_noise", frozenset({"bootstrap"})),
    ("fileio", "load_config", CLI),
    ("fileio", "load_block", CLI),
    ("fileio", "save_grid", CLI),
    ("fileio", "load_grid", CLI),
    ("fileio", "save_block", CLI),
    ("cli", "main", CLI),
)

# Counts taken from arguments or results rather than from the number of calls.
EXTRA_COUNTS = (
    "angular.assoc_legendre_norm.rows",
    "angular.gauss_legendre_grid.misses",
    "fileio.save_grid.bytes",
    "fileio.load_grid.bytes",
    "tomography.unknowns",
    "tomography.flagged",
)


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func}"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _legendre_rows(tracer, args, kwargs, result):
    # the recurrence computes every row from |m| up to J to return the last one
    J, m = _arg(args, kwargs, 0, "J"), _arg(args, kwargs, 1, "m")
    tracer.counts["angular.assoc_legendre_norm.rows"] += J - abs(m) + 1


def _saved_bytes(tracer, args, kwargs, result):
    tracer.counts["fileio.save_grid.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _loaded_bytes(tracer, args, kwargs, result):
    tracer.counts["fileio.load_grid.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _result_counts(tracer, args, kwargs, result):
    diagnostics = result.diagnostics
    n = diagnostics.get("n_unknowns")
    if n is None:  # chain back substitution: diagonal, chain elements and deep values
        deep = diagnostics.get("deep_values", {})
        n = result.block.elements.shape[0] + len(result.chains) + len(deep)
    tracer.counts["tomography.unknowns"] += int(n)
    tracer.counts["tomography.flagged"] += len(result.flags)


HOOKS = {
    "angular.assoc_legendre_norm": _legendre_rows,
    "fileio.save_grid": _saved_bytes,
    "fileio.load_grid": _loaded_bytes,
    "tomography.reconstruct_block": _result_counts,
}


class Tracer:
    """Installs span-recording wrappers on every loaded rotortomo module."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts: Counter = Counter()
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._gl_misses = None

    def _wrap(self, name, func):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "rotortomo" or key.startswith("rotortomo."))
        ]
        self.absent = []
        for layer, func, _ in TRACED:
            home = sys.modules.get(f"rotortomo.{layer}")
            if home is None:
                continue  # layer not imported in this process, so nothing calls it
            name = span_name(layer, func)
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(home, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if not isinstance(raw, classmethod):
                    self.absent.append(name)
                    continue
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(home, func, None)
            if original is None:
                self.absent.append(name)
                continue
            if func == "gauss_legendre_grid":
                self._gl_misses = (original, original.cache_info().misses)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        if self._gl_misses is not None:
            original, before = self._gl_misses
            self.counts["angular.gauss_legendre_grid.misses"] += (
                original.cache_info().misses - before
            )
            self._gl_misses = None

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}


def span_stats(spans) -> tuple[dict, dict]:
    """Per-name calls and self time, and per-op covered time (ns).

    Spans are nested and single-threaded, so a span's children never overlap
    and its self time is its duration minus theirs.  It follows that within
    one op the self times add up to the summed duration of the op's top-level
    spans, which is the time they cover.  A child that is not inside its
    parent raises, since the self times would then be wrong.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                raise ValueError(f"span {name} is not nested inside its parent {p[0]}")
            child_ns[parent] += end - start
    by_name: dict = {}
    covered: dict = {}
    for (name, start, end, parent, op), inner in zip(spans, child_ns):
        entry = by_name.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - inner
        if parent < 0:
            covered[op] = covered.get(op, 0) + end - start
    return by_name, covered
