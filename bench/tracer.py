"""In-memory span recorder for the traced benchmark run.

Spans come only from wrappers this file installs around the public
functions of the ``symtail`` modules; nothing under ``src/`` is edited.
A wrapper is rebound on every ``symtail`` module that holds the original
object, because modules import names directly (``bounds`` and ``oracles``
each hold their own ``convolve`` binding, for example).

A span is (name, start, end, parent span, item id).  Spans are kept in
columnar arrays while the benchmark runs and written out when it ends; self
time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Modules whose public callables are wrapped, in the layer order of the
# benchmark's docs.  In ``cli`` only the entry point is wrapped: the
# subcommand handlers it dispatches to (JSON load, CSV write) are counted
# in ``cli.main``'s own time.
LAYERS = ("exactmath", "rational", "distributions", "bounds", "oracles", "ordering", "cli")
ONLY = {"cli": ("main",)}


class Tracer:
    """Records one span per call of every wrapped callable."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self._stack: list[int] = []
        self._counters: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self._counters[key] = self._counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = self.clock
        name_id, start, end, parent, item = (
            self.name_id, self.start, self.end, self.parent, self.item
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(self.current_item)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "symtail", on_return: dict | None = None) -> None:
        """Wrap every public callable of the layer modules.

        Module-level functions (including ``lru_cache`` objects), static
        methods and plain methods of classes defined in the module are
        wrapped; properties and dunder methods are left alone.
        """
        on_return = on_return or {}
        replaced: dict[int, object] = {}
        for short in LAYERS:
            module = sys.modules[f"{package}.{short}"]
            keep = ONLY.get(short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or (keep is not None and attr not in keep):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj, on_return)
                elif callable(obj):
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, on_return.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, prefix: str, cls, on_return: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, on_return.get(name))))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, on_return.get(name))))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw, on_return.get(name)))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-name totals: calls, self_s, and counts by direct parent name."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        names = self.names
        stats: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = names[name_id[i]]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - covered[i]
            p = parent[i]
            if p >= 0:
                key = "calls_under." + names[name_id[p]]
                entry[key] = entry.get(key, 0) + 1
        for key, value in self._counters.items():
            name, _, stat = key.rpartition(".")
            stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})[stat] = value
        return stats

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: name,start,end,parent,item."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1, newline="") as fh:
            fh.write("name,start,end,parent,item\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name_id[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.item[i]}\n"
                )
