"""Span recording around the public functions of each cauchygf layer.

The tracer replaces a layer function by a wrapper that records a span
(name, start, end, parent, operation id) and, where a counter is given,
work counts taken from the call's arguments and result.  Each function is
wrapped both in the module that defines it and in every module that imported
it by name (``cauchygf.cli``, ``cauchygf.montecarlo``), because a
``from .engine import solve_greens`` binding would otherwise bypass the
wrapper.  A name that does not exist (renamed or deleted by a refactor) is
reported as absent rather than raising, so the traced run keeps working
while the package's API changes.

Spans stay in memory; the benchmark aggregates them when its run ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from dataclasses import dataclass, field

IMPORTERS = ("cauchygf.cli", "cauchygf.montecarlo")


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _n_elements(elements, n_sites):
    return n_sites * n_sites if elements is None else len(elements)


def count_engine_solve(fn, args, kwargs, result):
    """Direct route: one complex LU of n x n plus k right-hand sides per
    frequency, so 8/3 n^3 + 8 n^2 k real flops (computed, not counted)."""
    a = _bound(fn, args, kwargs)
    n = a["spec"].n_sites
    n_omega = a["grid"].omegas.size
    elements = a.get("elements")
    k = n if elements is None else len({int(j) for _, j in elements})
    return {"gflop": n_omega * (8.0 / 3.0 * n ** 3 + 8.0 * n * n * k) / 1e9,
            "values": n_omega * _n_elements(elements, n)}


def count_engine_values(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"values": a["grid"].omegas.size
            * _n_elements(a.get("elements"), a["spec"].n_sites)}


def count_ensemble(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = a["spec"].n_sites
    samples = a["config"].n_samples
    n_values = a["grid"].omegas.size * (n if a.get("elements") is None
                                        else len(a["elements"]))
    return {"samples": samples, "values": samples * n_values,
            "eigh_work": samples * n ** 3}


def count_csv(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


@dataclass(frozen=True)
class LayerFunction:
    span: str        # "<layer>.<function>"
    module: str      # module that defines the function
    attr: str
    counter: object = None


LAYER_FUNCTIONS = (
    LayerFunction("cli.main", "cauchygf.cli", "main"),
    LayerFunction("lattice.build_topology", "cauchygf.lattice", "build_topology"),
    LayerFunction("lattice.assemble_huckel", "cauchygf.lattice", "assemble_huckel"),
    LayerFunction("lattice.assemble_cavity", "cauchygf.lattice", "assemble_cavity"),
    LayerFunction("engine.diagonalize", "cauchygf.engine", "diagonalize"),
    LayerFunction("engine.averaged_greens", "cauchygf.engine", "averaged_greens",
                  count_engine_values),
    LayerFunction("engine.solve_greens", "cauchygf.engine", "solve_greens",
                  count_engine_solve),
    LayerFunction("montecarlo.ensemble_average", "cauchygf.montecarlo",
                  "ensemble_average", count_ensemble),
    LayerFunction("quadrature.auto_window", "cauchygf.quadrature", "auto_window"),
    LayerFunction("quadrature.integrate_trapezoid", "cauchygf.quadrature",
                  "integrate_trapezoid"),
    LayerFunction("output.write_csv", "cauchygf.output", "write_csv", count_csv),
    LayerFunction("output.write_json", "cauchygf.output", "write_json"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans, -1 for an operation root
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` swap the
    wrappers in and out so untraced operations run the original code."""

    def __init__(self, layer_functions=LAYER_FUNCTIONS):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._op = -1
        self._patches = []   # (module, attr, original, wrapper)
        wrappers = {}        # id(original) -> wrapper, shared across importers
        for lf in layer_functions:
            try:
                home = importlib.import_module(lf.module)
            except ImportError:
                self.absent.append(lf.span)
                continue
            if not callable(getattr(home, lf.attr, None)):
                self.absent.append(lf.span)
                continue
            for name in (lf.module,) + IMPORTERS:
                try:
                    module = importlib.import_module(name)
                except ImportError:
                    continue
                original = getattr(module, lf.attr, None)
                if not callable(original):
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(lf, original)
                self._patches.append((module, lf.attr, original, wrappers[id(original)]))

    def _wrap(self, lf, fn):
        def wrapper(*args, **kwargs):
            index = self._open(lf.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if lf.counter is not None:
                try:
                    self.spans[index].counts = lf.counter(fn, args, kwargs, result)
                except (KeyError, TypeError, AttributeError, OSError) as exc:
                    self.count_errors[lf.span] = f"{type(exc).__name__}: {exc}"
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def traced_op(self, op):
        """Run ``op()`` as one operation: a root span around wrapped layers."""
        self._op += 1
        self.install()
        index = self._open("op")
        try:
            return op()
        finally:
            self._close(index)
            self.uninstall()

    def per_op(self):
        """Per operation: {span name: self seconds}, {count name: total},
        and the root span's wall time."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        ops = [{"self": {}, "counts": {}, "wall": 0.0} for _ in range(self._op + 1)]
        for index, span in enumerate(self.spans):
            entry = ops[span.op]
            duration = span.end - span.start
            entry["self"][span.name] = entry["self"].get(span.name, 0.0) \
                + duration - child_time[index]
            for key, value in span.counts.items():
                name = f"{span.name}.{key}"
                entry["counts"][name] = entry["counts"].get(name, 0) + value
            if span.parent < 0:
                entry["wall"] += duration
        return ops
