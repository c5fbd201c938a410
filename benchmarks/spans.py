"""In-process span tracing of the cherrymax modules, without editing them.

``Tracer.install()`` replaces every public function of the traced modules,
and every public method of their public classes, with a wrapper that
records a span.  Functions are replaced in each module namespace where
they are bound, which is where the calling module looks them up: the
defining module for ``oracle.phi_bipartite`` called as an attribute, the
importing module for names pulled in with ``from ... import``.  Methods
are replaced on their class.  ``Tracer.uninstall()`` puts the originals
back.

A span is (function, parent span, start, end).  Spans are kept in flat
arrays while the traced pass runs; ``Tracer.summary()`` turns them into
per-module self time and call counts, and ``Tracer.save()`` writes them
out.  A span's self time is its
duration minus the durations of its direct children, which is the part
of it covered by child spans because calls nest on one thread.

Hooks on a few functions add exact work counts computed from the call's
parameters and results: masks enumerated and kept by ``oracle``, moves
made by ``shifting``, rows produced by ``density`` and grid nodes
reported by ``appendix``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter

import numpy as np

MODULES = ("cli", "oracle", "constructions", "graph_core", "shifting", "density", "appendix")


def wide_pairs(max_cells: int):
    """(r, s) with r >= s >= 1 and r*s <= max_cells, as the sweeps visit them."""
    return [
        (r, s)
        for s in range(1, max_cells + 1)
        for r in range(s, max_cells // s + 1)
    ]


def _masks_sweep(counts, bound, result, seconds):
    total = sum(1 << (r * s) for r, s in wide_pairs(bound["max_cells"]))
    counts["oracle.masks"] += total
    counts["oracle.masks_kept"] += total


def _masks_theorem_11(counts, bound, result, seconds):
    total = sum(1 << comb(n, 2) for n in bound["n_values"])
    counts["oracle.masks"] += total
    counts["oracle.masks_kept"] += total


def _masks_phi(counts, bound, result, seconds):
    if bound["mode"] == "shifted":
        counts["oracle.shifted_s"] += seconds
        return
    bits = bound["r"] * bound["s"]
    counts["oracle.masks"] += 1 << bits
    counts["oracle.masks_kept"] += comb(bits, bound["m"])
    counts["oracle.full_s"] += seconds


def _masks_general(counts, bound, result, seconds):
    bits = comb(bound["n"], 2)
    counts["oracle.masks"] += 1 << bits
    counts["oracle.masks_kept"] += comb(bits, bound["m"])
    counts["oracle.full_s"] += seconds


def _moves(counts, bound, result, seconds):
    counts["shifting.moves"] += len(result[1])


def _rows(counts, bound, result, seconds):
    counts["density.rows"] += len(result)


def _lemma(counts, bound, result, seconds):
    counts["appendix.nodes"] += result.nodes_total
    counts["appendix.nodes_in_box"] += result.nodes_in_box
    counts["appendix.deriv_nodes"] += sum(c["nodes_checked"] for c in result.derivative_checks)
    counts[f"appendix.{result.lemma}_s"] += seconds


def _interior(counts, bound, result, seconds):
    counts["appendix.interior_s"] += seconds


HOOKS = {
    "oracle.phi_bipartite": _masks_phi,
    "oracle.phi_bipartite_right": _masks_phi,
    "oracle.max_cherries_general": _masks_general,
    "oracle.verify_theorem_11": _masks_theorem_11,
    "oracle.verify_theorem_16": _masks_sweep,
    "oracle.verify_theorem_17": _masks_sweep,
    "oracle.verify_theorem_18": _masks_sweep,
    "shifting.left_compress_with_log": _moves,
    "shifting.shift_general_with_log": _moves,
    "density.scan": _rows,
    "density.convergence": _rows,
    "appendix.check_lemma": _lemma,
    "appendix.interior_bounds_check": _interior,
}


def self_times(parents, starts, ends) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    covered = np.zeros(duration.size)
    nested = parents >= 0
    np.add.at(covered, parents[nested], duration[nested])
    return duration - covered


def _public_functions(module):
    """(owner, attribute, function, qualified name) for everything traced."""
    short = module.__name__.rsplit(".", 1)[1]
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield module, name, obj, f"{short}.{name}"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in list(vars(obj).items()):
                if (attr == "__post_init__" or not attr.startswith("_")) and inspect.isfunction(member):
                    yield obj, attr, member, f"{short}.{name}.{attr}"


class Tracer:
    """Records spans and work counts for one traced pass at a time."""

    def __init__(self):
        self.modules = [importlib.import_module(f"cherrymax.{m}") for m in MODULES]
        self.fn_names: list[str] = []
        self._fn_ids: dict[str, int] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts.clear()

    def _wrap(self, fn, qualname: str):
        fn_id = self._fn_ids.get(qualname)
        if fn_id is None:
            fn_id = self._fn_ids[qualname] = len(self.fn_names)
            self.fn_names.append(qualname)
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer.span_fn)
            tracer.span_fn.append(fn_id)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_end.append(0.0)
            tracer._stack.append(span)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.span_end[span] = end
                tracer._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound.arguments, result, end - start)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function where it is looked up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        module_functions = {}
        for module in self.modules:
            for owner, attr, fn, qualname in _public_functions(module):
                if owner is module:
                    module_functions[id(fn)] = (fn, self._wrap(fn, qualname))
                else:
                    self._patch(owner, attr, self._wrap(fn, qualname))
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                entry = module_functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write the spans of the last traced pass as arrays to an .npz file."""
        np.savez(
            path,
            names=np.array(self.fn_names),
            fn=np.asarray(self.span_fn),
            parent=np.asarray(self.span_parent),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )

    def summary(self) -> dict:
        """Per-module self time and calls, per-function detail, and counts."""
        fn_ids = np.asarray(self.span_fn, dtype=np.int64)
        own = self_times(self.span_parent, self.span_start, self.span_end)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        calls = np.bincount(fn_ids, minlength=len(self.fn_names))
        self_by_fn = np.bincount(fn_ids, weights=own, minlength=len(self.fn_names))
        total_by_fn = np.bincount(fn_ids, weights=duration, minlength=len(self.fn_names))
        modules = {m: {"self_s": 0.0, "calls": 0} for m in MODULES}
        functions = {}
        for i, name in enumerate(self.fn_names):
            if not calls[i]:
                continue
            module = name.split(".", 1)[0]
            modules[module]["self_s"] += float(self_by_fn[i])
            modules[module]["calls"] += int(calls[i])
            functions[name] = {
                "calls": int(calls[i]),
                "total_s": float(total_by_fn[i]),
                "self_s": float(self_by_fn[i]),
            }
        return {"modules": modules, "functions": functions, "counts": dict(self.counts), "spans": len(fn_ids)}
