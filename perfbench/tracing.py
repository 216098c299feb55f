"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every public function and public method of the
listed modules by a wrapper that records one span per call. A function is
replaced wherever a module binds it, so ``cli.solve_bound_states`` and
``dvr.solve_bound_states`` both record ``dvr.solve_bound_states``. The package
source is not touched, and ``remove`` puts every original back.

A span holds its name, start, end and the index of the span that was open when
it began (-1 at top level). Spans stay in memory until ``dump`` writes them.
Hooks added with ``before`` see the arguments of a call and may raise to stop
the command; hooks added with ``after`` see the arguments, the result and the
span.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def public_callables(modules) -> dict[str, list[tuple[object, str]]]:
    """Span name -> every (owner, attribute) binding of that function.

    Covers module-level functions defined in the package and the plain
    methods of classes defined in the listed modules; names starting with
    an underscore, class methods, static methods and properties are left out.
    """
    targets: dict[str, list[tuple[object, str]]] = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("ladderdown."):
                name = f"{_short(obj.__module__)}.{obj.__name__}"
                targets.setdefault(name, []).append((module, attr))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        name = f"{_short(module.__name__)}.{obj.__name__}.{meth}"
                        targets.setdefault(name, []).append((obj, meth))
    return targets


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._before: dict[str, list] = {}
        self._after: dict[str, list] = {}

    def before(self, name: str, hook):
        self._before.setdefault(name, []).append(hook)

    def after(self, name: str, hook):
        self._after.setdefault(name, []).append(hook)

    def install(self, targets: dict[str, list[tuple[object, str]]]):
        for name, bindings in targets.items():
            wrappers: dict[int, object] = {}
            for owner, attr in bindings:
                original = getattr(owner, attr)
                wrapper = wrappers.setdefault(id(original), self._wrap(name, original))
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        before = self._before.setdefault(name, [])
        after = self._after.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for hook in before:
                hook(args, kwargs)
            span = Span(name, time.perf_counter(), 0.0, open_[-1] if open_ else -1)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            for hook in after:
                hook(args, kwargs, result, span)
            return result

        return wrapper

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called ``name`` minus that of their children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return sum(s.end - s.start - child[i] for i, s in enumerate(self.spans) if s.name == name)

    def dump(self, path, t0: float = 0.0):
        """Write one JSON object per span, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent}) + "\n")
