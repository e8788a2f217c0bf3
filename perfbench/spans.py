"""In-memory span tree with self time, and the patching that feeds it.

The traced run wraps the public entry points of each library layer (see
:mod:`perfbench.layers`) so that every call opens a span named after the
layer metric it feeds.  A span's *self* time is its duration minus the
durations of its direct children; the children of one span never overlap
(the library is single-threaded on the measured paths), so the self times
of every span under a root add up to the root's duration exactly, and no
span's time is counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass
class Span:
    """One completed (or still open) call at a layer boundary."""

    id: int
    name: str
    parent: int | None
    root: int
    start: float
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class SpanTree:
    """Spans in call order, each pointing at its parent and its root."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._clock = clock

    def enter(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans)
        root = self.spans[parent].root if parent is not None else span_id
        record = Span(span_id, name, parent, root, self._clock())
        self.spans.append(record)
        self._open.append(span_id)
        return record

    def exit(self, record: Span) -> None:
        record.end = self._clock()
        self._open.pop()
        if record.parent is not None:
            self.spans[record.parent].child_seconds += record.seconds

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = self.enter(name)
        try:
            yield record
        finally:
            self.exit(record)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def self_seconds(self, roots: list[Span] | None = None) -> dict[str, float]:
        """Self time per span name, over every span or under ``roots`` only."""
        keep = None if roots is None else {r.id for r in roots}
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if keep is None or span.root in keep:
                totals[span.name] += span.self_seconds
        return dict(totals)


class Patches:
    """Replaces library callables with wrappers and puts them back.

    A module-level function is replaced in every loaded ``repro`` module
    that bound it, so ``from x import f`` call sites are wrapped too.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def method(self, cls: type, attr: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def function(self, fn: Callable[..., Any],
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        replacement = make(fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, fn))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def spanned(tree: SpanTree, name: str | Callable[..., str],
            after: Callable[[SpanTree, tuple[Any, ...], Any], None] | None = None,
            ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Wrapper factory: run the call inside a span.

    ``name`` may be a callable of the call's arguments (to classify calls,
    e.g. cold vs warm selects); ``after`` records counts from the result
    while the span is still open.
    """

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = tree.enter(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tree, args, result)
            finally:
                tree.exit(record)
            return result

        return wrapper

    return make
