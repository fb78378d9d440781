"""Boundary tracer: per-layer spans recorded from outside the program.

Every function that one module of a package imports from another is
replaced, in the importing module's namespace, by a wrapper that records
a span.  The span is attributed to the layer named by the callee's
``__module__`` (``defram.canon`` -> ``canon``), so a renamed or new
cross-module entry point is picked up without a list to maintain.
Calls inside one module stay in that module's self time.

For each layer the tracer keeps:

* ``calls``  - spans opened;
* ``busy_s`` - time the layer was on the call stack at least once
  (nested spans of the same layer are not counted twice);
* ``self_s`` - span time minus the time of the spans it caused.

The self times of all layers add up to the duration of the root spans,
which are the calls the benchmark makes through ``Tracer.wrap``.
"""

from __future__ import annotations

import importlib
import pkgutil
from time import perf_counter


class LayerStats:
    __slots__ = ("calls", "busy_s", "self_s", "cached_calls", "repeats",
                 "bool_results", "accepted", "reports", "neither")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.cached_calls = 0   # calls into an lru_cache-wrapped function
        self.repeats = 0        # ... whose arguments were already seen
        self.bool_results = 0   # calls returning a bool
        self.accepted = 0       # ... returning True
        self.reports = 0        # calls returning an object with ``neither``
        self.neither = 0        # ... where it is true


def package_modules(package: str) -> list:
    """The package's submodules, imported, in name order."""
    pkg = importlib.import_module(package)
    names = sorted(info.name for info in pkgutil.iter_modules(pkg.__path__))
    return [importlib.import_module(f"{package}.{name}") for name in names]


class Tracer:
    """Patch cross-module calls of ``package`` while installed.

    ``only`` maps a layer to the names that are traced in it; a layer
    absent from ``only`` has all of its exported functions traced.  Use
    it for primitives called per step of an inner loop, whose wrapper
    cost would swamp their own.  ``clock`` is the time source of the spans.
    """

    def __init__(self, package: str, only: dict[str, set[str]] | None = None,
                 clock=perf_counter):
        self.package = package
        self.only = only or {}
        self.clock = clock
        self.modules = package_modules(package)
        self.layers = {m.__name__[len(package) + 1:]: LayerStats() for m in self.modules}
        self.root_s = 0.0
        self._stack: list[float] = []     # per open span: time spent in child spans
        self._depth = dict.fromkeys(self.layers, 0)
        self._seen: list[set] = []        # per cached function: arguments seen
        self._patches: list[tuple] = []
        self.patched: list[str] = []      # "importer -> layer.name" per wrapper

    def __enter__(self) -> "Tracer":
        prefix = self.package + "."
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None)
                if (not callable(obj) or isinstance(obj, type) or owner is None
                        or owner == mod.__name__ or not owner.startswith(prefix)):
                    continue
                layer = owner[len(prefix):]
                if layer in self.only and name not in self.only[layer]:
                    continue
                self._patches.append((mod, name, obj))
                self.patched.append(f"{mod.__name__} -> {owner}.{name}")
                setattr(mod, name, self.wrap(obj))
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def forget_arguments(self) -> None:
        """Start repeat counting afresh, as when the caches were cleared."""
        for seen in self._seen:
            seen.clear()

    def wrap(self, fn):
        """``fn`` recording a span of the layer that defines it."""
        layer = fn.__module__[len(self.package) + 1:]
        stats = self.layers[layer]
        stack = self._stack
        depth = self._depth
        clock = self.clock
        cached = hasattr(fn, "cache_clear")
        seen: set = set()
        if cached:
            self._seen.append(seen)

        def span(*args, **kwargs):
            if cached:
                stats.cached_calls += 1
                key = (args, tuple(kwargs.items())) if kwargs else args
                if key in seen:
                    stats.repeats += 1
                else:
                    seen.add(key)
            stack.append(0.0)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                depth[layer] -= 1
                stats.calls += 1
                stats.self_s += elapsed - children
                if not depth[layer]:
                    stats.busy_s += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    self.root_s += elapsed
            if isinstance(result, bool):
                stats.bool_results += 1
                stats.accepted += result
            elif hasattr(result, "neither"):
                stats.reports += 1
                stats.neither += bool(result.neither)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span
