"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent).  Spans live in flat
arrays while the run lasts and are written out once, at the end.

``install`` wraps library functions at module boundaries.  Each name is
``<module>.<function>`` inside the package; the wrapper replaces the
original object under every attribute of every loaded package module
that refers to it, so calls through cross-module imports (say
``platocone.sampling.make_configuration``) are recorded under the
defining module's name.  A name the package no longer has is recorded as
absent and skipped.

Self time is a span's duration minus the time covered by its direct
children.  Nested calls of one name inside itself would be counted twice
in the inclusive total; the traced names do not recurse.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._index = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child_ns = array("q")
        self.items = array("q")
        self._stack = []
        self._patched = []
        self._paused = False
        self.absent = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child_ns.append(0)
        self.items.append(-1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        t = time.perf_counter_ns()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_ns[p] += t - self.start[i]

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Calls made inside record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives its items."""
        name_id = self._name_id(name)
        items = self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                items[i] = count(args, result)
            return result

        return traced

    def install(self, package: str, traced: dict) -> None:
        """Wrap each ``"<module>.<function>": count`` of ``traced`` inside ``package``."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name, count in traced.items():
            module_name, _, attr = name.rpartition(".")
            try:
                original = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per name: calls, inclusive ms, self ms and items (None when not counted)."""
        out = {n: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "items": None} for n in self.names}
        for i in range(len(self.start)):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["ms"] += dur / 1e6
            row["self_ms"] += (dur - self.child_ns[i]) / 1e6
            if self.items[i] >= 0:
                row["items"] = (row["items"] or 0) + self.items[i]
        return out

    def write(self, path) -> None:
        """One header line naming the fields, then one JSON array per span."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as f:
            header = {"names": self.names, "fields": ["name", "parent", "start_ns", "end_ns", "items"]}
            f.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                f.write(
                    f"[{self.name_of[i]},{self.parent[i]},{self.start[i] - t0},"
                    f"{self.end[i] - t0},{self.items[i]}]\n"
                )
