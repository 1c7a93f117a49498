"""Outside-in tracer for dwac_kit: spans around calls into public functions.

The tracer changes no file of the package. ``Tracer.install`` replaces each
named function, in every ``dwac_kit`` module namespace that binds it, with a
pass-through wrapper that records a span (name, start, end, parent) and, via
an optional hook, counters derived from the call's arguments and result.
Spans stay in memory; ``self_times`` derives each span's self time.

Hooks run outside the spans: their time is taken off a virtual clock, so an
expensive check (such as counting underflowed kernel entries) does not show
up as time spent in the layer it inspects.
"""

from __future__ import annotations

import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def max_rss_mb() -> float:
    """High-water resident set size of this process, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


class Tracer:
    """Span recorder with a virtual clock that excludes hook time."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._paused = 0.0
        self._paused_cpu = 0.0
        self._in_hook = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}

    @property
    def paused_s(self) -> float:
        """Wall time spent in hooks, excluded from every span."""
        return self._paused

    def now(self) -> float:
        return self._clock() - self._paused

    def cpu_now(self) -> float:
        return self._cpu_clock() - self._paused_cpu

    def begin(self, name: str) -> Span:
        span = Span(name, self.now(), self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.now()
        self._stack.pop()

    @contextmanager
    def excluded(self):
        """Time spent inside is removed from every span's clock, and wrapped
        functions called inside record no spans."""
        t0, c0 = self._clock(), self._cpu_clock()
        self._in_hook = True
        try:
            yield
        finally:
            self._in_hook = False
            self._paused += self._clock() - t0
            self._paused_cpu += self._cpu_clock() - c0

    def ancestors(self, span: Span):
        p = span.parent
        while p is not None:
            yield self.spans[p]
            p = self.spans[p].parent

    def install(self, targets: dict[str, object], rss: tuple[str, ...] = ()) -> None:
        """Wrap ``"module.function"`` targets; the value is a hook
        ``hook(tracer, span, bound_arguments, result)`` or None. Spans of
        targets named in ``rss`` get ``attrs["rss_growth_mb"]``, the growth
        of the process's peak RSS across the call.

        A target whose module or function no longer exists is recorded in
        ``absent`` and skipped, so the tracer survives refactors.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "dwac_kit" or name.startswith("dwac_kit.")]
        for target, hook in targets.items():
            module_name, func_name = target.rsplit(".", 1)
            try:
                original = getattr(importlib.import_module(f"dwac_kit.{module_name}"), func_name)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            self.originals[target] = original
            wrapper = self._wrap(target, original, hook, target in rss)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, original, hook, track_rss: bool):
        signature = inspect.signature(original) if hook is not None else None
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_hook:
                return original(*args, **kwargs)
            rss0 = max_rss_mb() if track_rss else 0.0
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if track_rss:
                span.attrs["rss_growth_mb"] = max_rss_mb() - rss0
            if hook is not None:
                with tracer.excluded():
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, span, bound.arguments, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced
