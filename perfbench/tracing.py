"""Spans around every call into the public functions of ``sympspec.*``.

``Tracer.install`` replaces each public function at every place it is bound
in a loaded ``sympspec`` module (the defining module, the package namespace
and every module that imported it by name) with one wrapper per function,
and ``uninstall`` puts the originals back. Module code looks its callees up
as globals at call time, so calls between modules are traced too.

A span is ``[name, start, end, parent, op_id, dim]``: ``name`` is
``module.function``, ``parent`` the index of the enclosing span (or -1),
and ``dim`` the row count of the first argument when it is a matrix.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

_MARK = "__perfbench_traced__"


def _sympspec_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "sympspec" or name.startswith("sympspec."))
    ]


def _public_library_function(obj):
    return (
        inspect.isfunction(obj)
        and not obj.__name__.startswith("_")
        and (obj.__module__ or "").startswith("sympspec.")
    )


def installed_wrappers():
    """Names bound to a tracing wrapper in any loaded sympspec module."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _sympspec_modules()
        for attr, obj in vars(mod).items()
        if getattr(obj, _MARK, False)
    ]


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            dim = args[0].shape[0] if args and getattr(args[0], "ndim", 0) == 2 else 0
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id, dim]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in _sympspec_modules():
            for attr, obj in list(vars(mod).items()):
                if _public_library_function(obj):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op_id, dim in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def subtree_counts(spans, target):
    """Per span: how many spans named ``target`` lie strictly below it."""
    count = [0] * len(spans)
    # Children are appended after their parent, so a reverse pass sees each
    # span's whole subtree before the span itself.
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            count[parent] += count[i] + (spans[i][0] == target)
    return count


def summarize(spans):
    """Aggregates the per-layer metrics are read from.

    Returns a dict with, per span name, ``calls``, ``total_s``, ``self_s``
    and ``sym_eig_below`` (sym_eig spans under it, summed over calls); per
    module ``self_s``; per sym_eig dim the call count and total time; and,
    per op, the largest sym_eig dim.
    """
    own = self_times(spans)
    below = subtree_counts(spans, "densemat.sym_eig")
    by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sym_eig_below": 0})
    by_module = defaultdict(float)
    sym_eig_dims = defaultdict(lambda: [0, 0.0])
    max_dim_by_op = defaultdict(int)
    for (name, start, end, parent, op_id, dim), s, k in zip(spans, own, below):
        entry = by_name[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += s
        entry["sym_eig_below"] += k
        by_module[name.split(".", 1)[0]] += s
        if name == "densemat.sym_eig":
            sym_eig_dims[dim][0] += 1
            sym_eig_dims[dim][1] += end - start
            max_dim_by_op[op_id] = max(max_dim_by_op[op_id], dim)
    return {
        "by_name": dict(by_name),
        "by_module": dict(by_module),
        "sym_eig_dims": dict(sym_eig_dims),
        "max_dim_by_op": dict(max_dim_by_op),
    }
