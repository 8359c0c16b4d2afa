"""In-memory span tracer that wraps functions from outside the traced package.

A span is (id, parent id, name, phase, start, end). Wrapped functions open a
span per call; the span open at the time of the call is its parent. Count-only
wrappers (for very hot functions such as ``numpy.einsum``) record a call count
per phase and no span. Spans stay in memory until :meth:`Tracer.dump`.

Self time of a span is its duration minus the part of it covered by its
children (the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    name: str
    phase: str
    start: float
    end: float


class Tracer:
    """Records spans and call counts while `enabled` is true."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (name, phase) -> calls
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._phase = ""
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # keep ids in call order
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, self._phase, start, end)

    @contextmanager
    def phase(self, name: str):
        """A root span that also tags every span and count opened inside it."""
        outer, self._phase = self._phase, name
        try:
            with self.span("phase." + name):
                yield
        finally:
            self._phase = outer

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        count_only: bool = False,
        on_call: Optional[Callable[..., None]] = None,
    ) -> bool:
        """Replace ``module.attr`` or ``module.Class.attr`` by a recording
        wrapper. A missing target is reported on stderr and skipped."""
        owner, attr = _resolve_owner(target)
        original = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.missing.append(target)
            print(f"perfbench: {target} not found; its metrics are left out", file=sys.stderr)
            return False
        tracer = self

        if count_only:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[(name, tracer._phase)] += 1
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                tracer.counts[(name, tracer._phase)] += 1
                if on_call is not None:
                    on_call(*args, **kwargs)
                with tracer.span(name):
                    return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def calls(self, name: str, phase: Optional[str] = None) -> int:
        return sum(c for (n, p), c in self.counts.items()
                   if n == name and (phase is None or p == phase))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)


def _resolve_owner(target: str):
    """(owner object, attribute name) for a dotted target, or (None, attr)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, parts[-1]
        return owner, parts[-1]
    return None, parts[-1]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, indexed like `spans` (ids must be 0..n-1)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end) for s in spans
    ]


def self_time_by_name(spans: list[Span], phase: Optional[str] = None) -> dict[str, float]:
    """Summed self time per span name, optionally within one phase."""
    out: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if phase is None or s.phase == phase:
            out[s.name] += t
    return dict(out)


def total_time_by_name(spans: list[Span], phase: Optional[str] = None) -> dict[str, float]:
    """Summed span duration (children included) per name, optionally within one phase."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if phase is None or s.phase == phase:
            out[s.name] += s.end - s.start
    return dict(out)
