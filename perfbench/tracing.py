"""Spans around the public functions of svarpg, installed from outside.

``Tracer.install`` replaces every public module-level function of the
package's modules with a wrapper, in every svarpg namespace that holds a
reference to it, so calls between modules are traced as well as calls from
the benchmark.  ``uninstall`` puts the original objects back.  Nothing inside
``src/`` changes.

A span records its name, layer (the module that defines the function), the
first start and last end time, the time it was active, the part of that time
its child spans were active, its parent span and the pass it belongs to.
Generator functions are timed only while they run, so a lazy enumeration
reports its own work and not that of the consumer.  Spans stay in memory
until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("model", "graph", "filters", "spectral", "identify", "simulate", "cli")


def _result_count(name: str, result) -> tuple[float, int] | None:
    """Work counts read off a result, as (count, items): cycles found, sampled
    values, Welch segments, and patched grid points out of all grid points."""
    if name == "cycle_basis":
        return len(result), 0
    if name == "simulate":
        return result.values.shape[0] * result.values.shape[1], 0
    if name == "welch_spectrum":
        return result.segment_count, 0
    if name.startswith("identify_"):
        flagged = sum(int((~c).sum()) for c in result.condition.values())
        return flagged, len(result.condition) * len(result.omegas)
    return None


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    pass_id: str
    start: float
    end: float = 0.0
    active: float = 0.0
    child: float = 0.0
    count: float | None = None
    items: int = 0

    def row(self) -> list:
        return [self.name, self.layer, self.parent, self.pass_id, self.start, self.end,
                self.active, self.child, self.count, self.items]


@dataclass
class Tracer:
    """Records spans while installed; one instance per benchmark process."""

    spans: list[Span] = field(default_factory=list)
    pass_id: str = "setup"
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # -- span bookkeeping -------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, parent, self.pass_id, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def resume(self, idx: int) -> float:
        self._stack.append(idx)
        return time.perf_counter()

    def suspend(self, idx: int, began: float) -> None:
        now = time.perf_counter()
        popped = self._stack.pop()
        assert popped == idx, "span stack out of order"
        span = self.spans[idx]
        span.active += now - began
        span.end = now
        if self._stack:
            self.spans[self._stack[-1]].child += now - began

    def close(self, idx: int) -> None:
        self.suspend(idx, self.spans[idx].start)

    def span(self, name: str, layer: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Ctx:
            def __enter__(self):
                self.idx = tracer.open(name, layer)
                return tracer.spans[self.idx]

            def __exit__(self, *exc):
                tracer.close(self.idx)
                return False

        return _Ctx()

    def adopt(self, rows: list[list], parent: int) -> None:
        """Attach spans recorded by a child process below span ``parent``."""
        base = len(self.spans)
        for row in rows:
            name, layer, par, _, start, end, active, child, count, items = row
            par = parent if par is None else base + par
            self.spans.append(Span(name, layer, par, self.pass_id, start, end, active, child, count, items))
        self.spans[parent].child += sum(r[6] for r in rows if r[2] is None)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str) -> Callable:
        tracer = self
        name = fn.__name__

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer.open(name, layer)
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                while True:
                    began = tracer.resume(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.suspend(idx, began)
                        return
                    except BaseException:
                        tracer.suspend(idx, began)
                        raise
                    tracer.suspend(idx, began)
                    tracer.spans[idx].items += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            counted = _result_count(name, result)
            if counted is not None:
                tracer.spans[idx].count, tracer.spans[idx].items = counted
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the package's modules, everywhere it is bound."""
        if self._patched:
            return
        modules = {layer: importlib.import_module(f"svarpg.{layer}") for layer in LAYERS}
        wrappers: dict[int, Callable] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, layer)
        namespaces = [sys.modules["svarpg"], *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def dump(self, path, **meta) -> None:
        columns = ["name", "layer", "parent", "pass", "start", "end", "active", "child", "count", "items"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "columns": columns, "spans": [s.row() for s in self.spans]}, handle)


def per_pass(spans: list[Span], passes: list[str]) -> dict[str, list[float]]:
    """Per-pass totals keyed by metric name: ``<layer>.<function>_s`` active
    time, ``self.<layer>_s`` self time, and the raw counts."""
    out: dict[str, dict[str, float]] = {p: {} for p in passes}
    for s in spans:
        bucket = out.get(s.pass_id)
        if bucket is None:
            continue
        key = f"{s.layer}.{s.name}_s"
        bucket[key] = bucket.get(key, 0.0) + s.active
        own = f"self.{s.layer}_s"
        bucket[own] = bucket.get(own, 0.0) + s.active - s.child
        if s.count is not None:
            ckey = f"{s.layer}.{s.name}#count"
            bucket[ckey] = bucket.get(ckey, 0.0) + s.count
        if s.items:
            ikey = f"{s.layer}.{s.name}#items"
            bucket[ikey] = bucket.get(ikey, 0.0) + s.items
    keys = sorted({k for b in out.values() for k in b})
    return {k: [out[p].get(k, 0.0) for p in passes] for k in keys}
