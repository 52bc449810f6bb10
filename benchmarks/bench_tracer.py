"""Outside-in span tracer for the stablesde package.

`Tracer.install()` replaces every public function of every `stablesde`
module, and every public method (plus `__init__` and `__call__`) of every
public class, with a wrapper that records one span per call. A function
imported by name into another module is replaced there too, so a call is
traced whichever namespace it goes through. The `quad` that
`stablesde.integrals` imported from scipy is wrapped as `integrals.quad`.
`Tracer.uninstall()` puts every original back.

A span is (id, name, layer, start, end, parent, request). The layer is the
module that defines the callee. The parent is the innermost open span of the
calling thread; a span opened by a worker thread with no open span of its
own gets the span that was innermost in the thread that opened the current
request. Spans stay in memory until `write()`.

Observers are callbacks run after a wrapped call returns, keyed by span
name; they add to `counters` from the call's arguments and result, so
counts are taken at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: wrapped dunder methods of public classes; other dunders are left alone
TRACED_DUNDERS = ("__init__", "__call__")


class Tracer:
    def __init__(self, package: str, observers=None):
        self.package = importlib.import_module(package)
        self.modules = [self.package] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(self.package.__path__)
        ]
        self.observers = dict(observers or {})
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._request = 0
        self._request_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        observer = self.observers.get(name)
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._request_stack[-1] if self._request_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, layer, start, end, parent, self._request))
            if observer is not None:
                observer(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def request(self, name: str):
        """Root span of one benchmark operation; its spans share a request id."""
        self._request = next(self._requests)
        stack = self._stack()
        self._request_stack = stack
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, f"bench.{name}", "bench", start, end, parent, self._request))

    # -- patching ----------------------------------------------------------

    def _layer(self, module_name: str) -> str:
        return module_name.rsplit(".", 1)[-1]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}  # id(original function) -> wrapper
        for mod in self.modules[1:]:
            layer = self._layer(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])
        integrals = importlib.import_module(f"{self.package.__name__}.integrals")
        self._set(integrals, "quad", self._wrap(integrals.quad, "integrals.quad", "integrals"))

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it that child spans cover
        (children of one span may overlap when they ran on two threads)."""
        children = defaultdict(list)
        for sid, _, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, _, start, end, _, _ in self.spans:
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (end - start) - covered
        return out

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "names": names,
            "spans": [
                [sid, index[name], start, end, parent, req]
                for sid, name, _, start, end, parent, req in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
