"""In-memory spans around calls into critgyro, installed from outside it.

A span records a name, its start and end, the span that was open when it
started, and optional facts about the call. Self time is a span's duration
minus the time its direct child spans cover. Spans are kept in memory and
summarised when the run ends.

`patched` swaps functions in the module namespace that calls them (for
example `critgyro.curves.assemble`, the name `_sweep_p0` looks up) and
restores them on exit, so critgyro itself carries no instrumentation.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Target(NamedTuple):
    """Attribute `attr` of `owner` (a module or class) recorded as `name`.

    `observe(args, kwargs, result)` may return a dict of facts about one
    call; it runs after the span has ended.
    """

    owner: object
    attr: str
    name: str
    observe: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, func, args, kwargs, observe=None):
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += span.duration
        if observe is not None:
            span.info = observe(args, kwargs, result)
        return result

    def since(self, mark: int) -> list[Span]:
        """Spans recorded after `mark = len(tracer.spans)` was taken."""
        return self.spans[mark:]


def _wrap(tracer: Tracer, target: Target, original):
    if isinstance(original, classmethod):
        func = original.__func__

        @functools.wraps(func)
        def bound(cls, *args, **kwargs):
            return tracer.call(target.name, func, (cls,) + args, kwargs,
                               target.observe)

        return classmethod(bound)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(target.name, original, args, kwargs, target.observe)

    return wrapper


@contextmanager
def patched(tracer: Tracer, targets):
    """Record a span for every call through each target while inside."""
    saved = []
    try:
        for target in targets:
            original = vars(target.owner)[target.attr]
            saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, _wrap(tracer, target, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    out: dict[str, float] = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.self_s
    return out


def unspanned(wall_s: float, spans) -> float:
    """Part of `wall_s` that no span covers: wall minus all self times."""
    return wall_s - sum(span.self_s for span in spans)
