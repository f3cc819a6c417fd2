"""Span tracer that wraps the public functions of each graphondist module
from outside the package.

Modules import each other's names with ``from .x import y``, so wrapping a
function only in its home module would leave the calls made through the
other modules invisible.  ``Tracer.install`` therefore replaces every name in
every ``graphondist`` module that is bound to the original function.

A span is recorded only while the benchmark has an operation open, so the
answer checks (which call no library code anyway) never show up.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np

# (layer, function) pairs that get a span.  The layer is the module name.
WRAPPED = (
    ("core", "comp_power"), ("core", "evaluate"), ("core", "to_grid"),
    ("io", "load_graphon"), ("io", "builtin_graphon"),
    ("connectivity", "block_distance_matrix"),
    ("connectivity", "is_connected"), ("connectivity", "diameter"),
    ("varadhan", "distance_field"), ("varadhan", "varadhan_distance"),
    ("varadhan", "set_distance"), ("varadhan", "heat_content"),
    ("varadhan", "varadhan_slope"), ("varadhan", "general_varadhan_slope"),
    ("linalg", "sym_eig"), ("linalg", "expm"),
    ("linalg", "analytic_transform"),
    ("metrics", "communicability_embedding"),
    ("metrics", "communicability_distance"), ("metrics", "cut_norm"),
    ("metrics", "cut_distance_homogeneous"), ("metrics", "merge_twins"),
    ("sampler", "sample_graph"), ("sampler", "compare_with_varadhan"),
    ("cli", "main"),
)

# functions whose tracemalloc peak is taken; tracemalloc runs only while one
# of them is on the stack, because it slows the pure-Python Jacobi sweeps
# in linalg.sym_eig about tenfold
PEAK_TRACKED = frozenset({
    "varadhan.distance_field", "metrics.merge_twins", "sampler.sample_graph",
})


def _largest_finite(matrix) -> float:
    finite = matrix[np.isfinite(matrix)]
    return float(finite.max()) if finite.size else 0.0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_block_distance(args, kwargs, result, counters):
    n = int(result.shape[0])
    levels = _largest_finite(result) + 1.0
    counters["connectivity.bfs_levels"] += levels
    counters["connectivity.bfs_flops_computed"] += levels * 2.0 * n ** 3
    counters["connectivity.field_cells_built"] += n * n


def _count_transform(args, kwargs, result, counters):
    n = int(args[1].shape[0])
    order = int(result[1])
    counters["linalg.transform_terms"] += order
    counters["linalg.transform_flops_computed"] += order * 2.0 * n ** 3


def _count_cut_norm(args, kwargs, result, counters):
    counters["metrics.cut_subsets_computed"] += 2 ** int(args[0].size)


def _count_cut_distance(args, kwargs, result, counters):
    n = int(args[0].size)
    counters["metrics.cut_subsets_computed"] += math.factorial(n) * 2 ** n


def _count_sample(args, kwargs, result, counters):
    n = int(result.n)
    counters["sampler.vertex_pairs_computed"] += n * (n - 1) // 2


def _count_load(args, kwargs, result, counters):
    if not isinstance(args[0], dict):
        counters["io.bytes_read"] += _file_size(args[0])


# work counters read from the arguments and results of a call
OBSERVERS = {
    "connectivity.block_distance_matrix": _count_block_distance,
    "linalg.analytic_transform": _count_transform,
    "metrics.cut_norm": _count_cut_norm,
    "metrics.cut_distance_homogeneous": _count_cut_distance,
    "sampler.sample_graph": _count_sample,
    "io.load_graphon": _count_load,
}


class Tracer:
    """Records one span per call of a wrapped function: name, start, end,
    parent span, the benchmark operation it belongs to, whether it raised
    (or, for ``cli.main``, returned a non-zero exit code) and its
    tracemalloc peak in MB where taken."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._peak_frames: list[list] = []
        self._replaced: list[tuple] = []

    def install(self, package: str = "graphondist") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        originals = []
        for layer, func in WRAPPED:
            original = getattr(sys.modules[f"{package}.{layer}"], func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            originals.append(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))
        for module in modules:
            for value in vars(module).values():
                if any(value is original for original in originals):
                    raise RuntimeError(f"{module.__name__} still holds an "
                                       f"unwrapped {value.__qualname__}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, name: str, fn):
        observer = OBSERVERS.get(name)
        peak = name in PEAK_TRACKED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op_id, True, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if peak:
                tracer._peak_enter()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = name == "cli.main" and result != 0
                return result
            finally:
                span[2] = time.perf_counter()
                if peak:
                    span[6] = tracer._peak_exit()
                tracer._stack.pop()
                if observer is not None and not span[5]:
                    observer(args, kwargs, result, tracer.counters)

        return wrapper

    def _peak_enter(self) -> None:
        # tracemalloc keeps one global peak, so a nested call folds the
        # peak seen so far into its parent's frame before resetting it
        if not self._peak_frames:
            tracemalloc.start()
        else:
            self._peak_frames[-1][1] = max(self._peak_frames[-1][1],
                                           tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        self._peak_frames.append([tracemalloc.get_traced_memory()[0], 0])

    def _peak_exit(self) -> float:
        start, child_peak = self._peak_frames.pop()
        peak = max(child_peak, tracemalloc.get_traced_memory()[1])
        if self._peak_frames:
            self._peak_frames[-1][1] = max(self._peak_frames[-1][1], peak)
        else:
            tracemalloc.stop()
        return (peak - start) / 1e6

    def take(self) -> tuple[list, Counter]:
        """Spans and counters recorded since the last call."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]
