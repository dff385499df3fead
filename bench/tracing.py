"""Per-layer spans and pool counters for senary, recorded from outside the package.

``install()`` replaces every public function of the layers ``cli``, ``cubic``,
``torsor``, ``graphs``, ``peyre`` and ``arith`` with a wrapper that records a
span (name, start, end, parent).  A function is rebound under every module
attribute it is reachable by, so names imported from another module
(``peyre.xi``, ``cubic.moebius``, ``graphs.primes_up_to``, ``peyre.primes_up_to``
and the ``senary`` package namespace) nest under their true callers.

The process pool shared by ``cubic`` and ``torsor`` is counted by a
``ProcessPoolExecutor`` subclass bound at ``cubic.ProcessPoolExecutor`` and
``torsor.ProcessPoolExecutor``.  Each pool lives for exactly one partitioned
call, so the ``RUSAGE_CHILDREN`` delta between opening it and joining its
workers is the CPU time the workers spent on that call.

Spans stay in memory until ``summary()`` folds them into per-layer totals at
the end of the run.  Work inside pool workers is not traced; it shows up as
worker CPU time only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("cli", "cubic", "torsor", "graphs", "peyre", "arith")


class SpanRecorder:
    """Spans as [name, start, end, parent index]; parent is -1 for a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.observed: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def observe(self, name: str, value: float):
        """Keep the largest value seen under ``name``."""
        self.observed[name] = max(value, self.observed.get(name, value))

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name.  Self time is a span's
        duration minus the time its children cover; children of one span run
        one after another, so their durations do not overlap."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
        return calls, self_s


class PoolStats:
    def __init__(self):
        self.opened = 0
        self.open_s = 0.0
        self.worker_cpu_s = 0.0
        self.capacity_s = 0.0  # workers x seconds open


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def counting_pool(stats: PoolStats):
    """A ProcessPoolExecutor subclass that adds each pool's lifetime and its
    workers' CPU time to ``stats``."""

    class CountingProcessPoolExecutor(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            stats.opened += 1
            self._bench_start = (time.perf_counter(), _children_cpu())

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait, **kwargs)
            if wait and self._bench_start is not None:
                t0, cpu0 = self._bench_start
                self._bench_start = None
                span = time.perf_counter() - t0
                stats.open_s += span
                stats.capacity_s += self._max_workers * span
                stats.worker_cpu_s += _children_cpu() - cpu0

    return CountingProcessPoolExecutor


def install() -> tuple[SpanRecorder, PoolStats]:
    """Trace the senary layers in this process; returns the recorder and the
    pool counters that the traced calls fill in."""
    import senary

    modules = {layer: importlib.import_module(f"senary.{layer}") for layer in LAYERS}
    recorder = SpanRecorder()

    def quadrature_provenance(report):
        recorder.observe("peyre.archimedean_density.samples", report.provenance["samples"])
        recorder.observe("peyre.archimedean_density.level", report.provenance["levels"][-1])

    hooks = {"peyre.archimedean_density": quadrature_provenance}
    wrapped = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = recorder.wrap(name, obj, hooks.get(name))
    for module in (*modules.values(), senary):
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])

    stats = PoolStats()
    pool = counting_pool(stats)
    modules["cubic"].ProcessPoolExecutor = pool
    modules["torsor"].ProcessPoolExecutor = pool
    return recorder, stats


def summary(recorder: SpanRecorder, stats: PoolStats) -> dict:
    """Flat per-layer numbers: ``<layer>.<function>.calls`` and ``.self_s`` for
    every traced function, the observed report fields, and ``pool.*``."""
    calls, self_s = recorder.totals()
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(recorder.observed)
    out["trace.self_total_s"] = sum(self_s.values())
    out["pool.opened"] = stats.opened
    out["pool.open_s"] = stats.open_s
    out["pool.worker_cpu_s"] = stats.worker_cpu_s
    out["pool.worker_utilization"] = (
        stats.worker_cpu_s / stats.capacity_s if stats.capacity_s > 0 else 0.0
    )
    return out
