"""In-memory spans around the public functions of each psiauth layer.

The tracer patches module attributes and class methods for the duration of
one traced run and restores them afterwards.  Functions are patched where
their caller looks them up (``psiauth.service.carrier_score``, not
``psiauth.protocol.carrier_score``), so the program itself is unchanged.

Spans share one stack across threads.  That is only valid because the
benchmark is a closed loop with one request in flight: while the carrier's
handler thread works, the device thread is blocked inside its request span,
so carrier spans nest under the device span that caused them.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: str  # "setup:<phase>" or "auth:<index>"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.unit = ""
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if not self._paused:
            self.counts[self.unit][name] += amount

    @contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self.unit))
            self._stack.append(index)
        try:
            yield
        finally:
            end = time.perf_counter()
            with self._lock:
                self.spans[index].end = end
                self._stack.remove(index)

    @contextmanager
    def paused(self):
        """Leave the enclosed calls (bookkeeping, oracles) out of the trace."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str | Callable | None,
             on_result: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a traced version until ``restore``.

        ``name`` is the span name, a function of the call's positional
        arguments returning it, or ``None`` to count without a span;
        ``on_result(tracer, args, result)`` records counts after the call.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if label is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(label):
                    result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per unit, per span name: duration minus the time children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children[index], key=lambda s: s.start):
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            totals[span.unit][span.name] += span.end - span.start - covered
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")
