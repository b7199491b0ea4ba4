"""Timing wrappers installed from outside the solver.

A `Recorder` replaces module attributes and class methods with wrappers
that time every call and, when spans are on, keep one span per call:
(id, name, start, end, parent id, run id, error).  Spans stay in memory
until the caller writes them out.  Every replaced attribute is put back
by `restore`, which the context manager calls on exit.

Self time of a span is its duration minus the durations of its child
spans.  The solver is single-threaded, so children nest strictly inside
their parent and never overlap one another.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    error: str | None


class Recorder:
    def __init__(self, spans: bool):
        self.keep_spans = spans
        self.spans: list[Span] = []
        self.run = 0
        self._durations: dict[str, list[float]] = defaultdict(list)
        self._errors: Counter[str] = Counter()
        self._open: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """`fn` with every call timed under `name`; `observe` sees each result."""
        clock = time.perf_counter
        durations = self._durations[name]

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                self._errors[name] += 1
                raise
            finally:
                end = clock()
                self._open.pop()
                durations.append(end - start)
                if self.keep_spans:
                    self.spans.append(Span(span_id, name, start, end, parent, self.run, error))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def substitute(self, owner: object, attr: str, replacement: object) -> None:
        """Set `owner.attr` until `restore`; owner is a module or a class."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner: object, attr: str, name: str, observe: Callable | None = None) -> None:
        """Time `owner.attr` (a module function or a class method) as `name`."""
        self.substitute(owner, attr, self.wrap(name, vars(owner)[attr], observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def take(self) -> tuple[dict[str, list[float]], Counter[str]]:
        """Call durations and raised-call counts per name since the last take."""
        durations = {name: list(values) for name, values in self._durations.items()}
        errors = Counter(self._errors)
        for values in self._durations.values():
            values.clear()
        self._errors.clear()
        return durations, errors


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Calls and total self time per span name.  Span ids need only be
    unique within a run, since a span's parent is always in its run."""
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.run, span.parent] += span.end - span.start
    totals: dict[str, tuple[int, float]] = {}
    for span in spans:
        calls, seconds = totals.get(span.name, (0, 0.0))
        own = span.end - span.start - covered[span.run, span.id]
        totals[span.name] = (calls + 1, seconds + own)
    return totals
