"""The trace recorder: zero overhead when disabled, total recall when not.

Two recorders share one interface:

* :data:`NULL_RECORDER` — the default every component holds. Its
  ``enabled`` flag is ``False`` and :meth:`~NullRecorder.emit` is a
  one-line no-op, so an untraced run does no event construction at all:
  every emission site in the serving stack is guarded by
  ``if recorder.enabled:`` and the guarded block never executes. This is
  what keeps the golden CSVs bit-identical with tracing off — the
  instrumented code paths are behaviorally invisible.
* :class:`TraceRecorder` — appends every emitted
  :class:`~repro.serve.obs.events.SpanEvent` to an in-memory list in
  emission order. Because all timestamps are simulation-clock values and
  the simulation is seeded, the recorded event list (and everything
  derived from it: the Perfetto export, the critical-path attribution)
  is bit-deterministic: same seed, same bytes.
"""

from __future__ import annotations

from repro.serve.obs.events import SpanEvent


class NullRecorder:
    """The disabled recorder: swallows nothing because nothing is emitted.

    Emission sites guard with :attr:`enabled`, so with this recorder
    bound the serving stack never even constructs an event object.
    :meth:`emit` still exists (and discards) for callers that skip the
    guard on genuinely cold paths.
    """

    enabled: bool = False

    def emit(self, event: SpanEvent) -> None:
        """Discard one event (the disabled path)."""


#: the shared disabled recorder every component defaults to.
NULL_RECORDER = NullRecorder()


class TraceRecorder(NullRecorder):
    """Collects typed span events from one service run, in emission order.

    Pass one to :class:`~repro.serve.service.BeamformingService`
    (``recorder=``) and every lifecycle edge of the run lands here;
    export with :func:`~repro.serve.obs.perfetto.render_trace`.

    One recorder records one run: reusing it across runs concatenates
    their event streams (timestamps would interleave), so construct a
    fresh recorder per trace the way services are constructed per trace.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.events: list[SpanEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, event: SpanEvent) -> None:
        """Record one span event."""
        self.events.append(event)
