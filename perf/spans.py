"""In-memory span tracing of public functions, installed from the outside.

The traced pass of the benchmark replaces selected attributes — module
functions, or methods in a class ``__dict__`` — at the place their callers
look them up, and restores the original objects afterwards. Every call of
a wrapped attribute records one :class:`Span`. Times are integer
nanoseconds from :func:`time.perf_counter_ns`, so a layer's self time (its
span minus its direct children) is exact and the self times of one root
call sum to the root's duration without rounding.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded under ``names``.

    With several names, the n-th call of this attribute under the same
    parent span gets ``names[n]`` (the last name repeats) — e.g. the first
    ``pack_sign_planar`` inside one ``Gemm.run`` packs the weights and the
    second packs the streamed operand.
    """

    owner: object
    attr: str
    names: tuple[str, ...]


@dataclass(frozen=True)
class Span:
    name: str
    start: int
    end: int
    #: index of the parent span in :attr:`Tracer.spans`; ``None`` for a root.
    parent: int | None
    #: which benchmark block (call or replay) the span belongs to.
    call_id: int


@dataclass
class BlockProfile:
    """Per-layer self time and call count of one root call."""

    root: str
    root_ns: int
    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped calls while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.call_id = 0
        self.enabled = False
        self._stack: list[int] = []
        self._nth: dict[tuple[int | None, int], int] = {}

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for target in targets:
                original = vars(target.owner)[target.attr]
                saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(original, target.names))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, names: tuple[str, ...]):
        tracer = self
        key = id(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            name = names[0]
            if len(names) > 1:
                nth = tracer._nth.get((parent, key), 0)
                tracer._nth[(parent, key)] = nth + 1
                name = names[min(nth, len(names) - 1)]
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.call_id)

        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, child_ns)]


def profiles(spans: list[Span]) -> dict[int, BlockProfile]:
    """Group spans by call id into per-layer self time and call counts."""
    out: dict[int, BlockProfile] = {}
    for span, own in zip(spans, self_times(spans)):
        if span.parent is None:
            prof = out.setdefault(span.call_id, BlockProfile(root=span.name, root_ns=0))
            prof.root_ns += span.end - span.start
        else:
            prof = out[span.call_id]
        prof.self_ns[span.name] = prof.self_ns.get(span.name, 0) + own
        prof.calls[span.name] = prof.calls.get(span.name, 0) + 1
    return out
