"""Critical-path latency attribution: where did each microsecond go?

Every completed request's latency is decomposed into six segments that
partition the interval from arrival to completion exactly:

* ``wait_for_batch`` — arrival to batch flush: time spent forming the
  micro-batch (the price of coalescing, bounded by ``max_wait_s``);
* ``preempted_by`` — the part of the post-flush wait during which the
  serving worker was computing *later-formed, more urgent* batches: the
  measurable cost of non-destructive preemption to the preempted;
* ``queued_behind`` — the rest of the wait for the worker: earlier work
  draining ahead (same or more urgent), plus the in-flight GEMM the
  stage-in could not overlap;
* ``cold_build`` — the one-time plan build charged to this batch (plan
  cache miss only);
* ``stage_in`` — the copy-engine transpose + packing kernels;
* ``compute`` — the GEMM itself.

The segments are closed *telescopically*: each is a difference of
adjacent timeline boundaries and the final ``compute`` segment is the
residual against the recorded latency, so the six values sum **exactly**
(bit-for-bit, not approximately) to ``completion_s - arrival_s`` — the
invariant the test suite asserts for every traced request. For a split
placement the decomposition follows the *critical shard* (the slowest
one — the only shard on the request's critical path).

Every request is a pipeline request and attributes **end-to-end**: the
outcome's gating chain (:attr:`RequestOutcome.stage_chain
<repro.serve.service.RequestOutcome.stage_chain>`) names, per stage, the
launch that gated the next release — one link for a one-stage request;
each link's five leading segments are computed against the link's own
release instant and summed across the chain, and ``compute`` closes the
end-to-end latency as the residual — the same bit-exact-sum invariant
across any number of stages (consecutive links telescope: a link's
release *is* the previous link's completion).

:func:`blame` rolls per-request paths up into the tail story a service
report needs: over the requests at or beyond the p99 latency, the mean
seconds (and share) each segment contributed — "p99 blame".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ShapeError
from repro.serve.slo import percentile

if TYPE_CHECKING:
    from repro.serve.dispatch import BatchExecution
    from repro.serve.service import RequestOutcome

#: segment names, in timeline order (the order blame tables report).
SEGMENTS = (
    "wait_for_batch",
    "queued_behind",
    "preempted_by",
    "cold_build",
    "stage_in",
    "compute",
)


@dataclass(frozen=True)
class RequestPath:
    """One completed request's latency, decomposed along its critical path.

    The six segment fields partition ``latency_s`` exactly (see the
    module docstring for each segment's meaning); ``worker_index`` is the
    worker on the request's critical path (the critical shard's worker
    for splits).
    """

    rid: int
    bid: int
    priority: int
    tenant: str
    worker_index: int
    latency_s: float
    wait_for_batch_s: float
    queued_behind_s: float
    preempted_by_s: float
    cold_build_s: float
    stage_in_s: float
    compute_s: float

    def segments(self) -> dict[str, float]:
        """Segment name -> seconds, in timeline order."""
        return {
            "wait_for_batch": self.wait_for_batch_s,
            "queued_behind": self.queued_behind_s,
            "preempted_by": self.preempted_by_s,
            "cold_build": self.cold_build_s,
            "stage_in": self.stage_in_s,
            "compute": self.compute_s,
        }


@dataclass(frozen=True)
class BlameReport:
    """The tail cohort's latency, attributed per segment.

    ``seconds[name]`` is the mean seconds segment ``name`` contributed
    per tail request; ``shares[name]`` its fraction of the cohort's total
    latency. ``threshold_s`` is the ``q``-th percentile latency that
    defines the cohort (requests at or beyond it).
    """

    q: float
    threshold_s: float
    n_requests: int
    seconds: dict[str, float]
    shares: dict[str, float]

    def summary(self) -> str:
        """One line: the tail's blame, largest segment first."""
        ranked = sorted(self.shares.items(), key=lambda kv: (-kv[1], SEGMENTS.index(kv[0])))
        parts = [f"{name} {share:.1%}" for name, share in ranked if share > 0]
        return (
            f"p{self.q:g} blame (n={self.n_requests}, "
            f">= {self.threshold_s * 1e3:.3f} ms): " + ", ".join(parts)
        )


def _critical_part(execution: "BatchExecution") -> "BatchExecution":
    """The execution on the request's critical path (the slowest shard)."""
    if not execution.is_split:
        return execution
    return max(execution.shards, key=lambda s: (s.completion_s, -s.worker_index))


def _preempted_overlap(
    window_start: float,
    window_end: float,
    priority: int,
    formed_s: float,
    compute_spans: list[tuple[float, float, int, float]],
) -> float:
    """Seconds of ``[window_start, window_end)`` spent under preemptors.

    ``compute_spans`` are one worker's compute-engine busy intervals
    ``(compute_start_s, completion_s, priority, formed_s)``. A span
    preempts when it is strictly more urgent *and* formed strictly later
    than the waiting batch — earlier-formed urgent work is ordinary
    queueing, not preemption. Spans on one compute engine are disjoint,
    so summed intersections never exceed the window.
    """
    overlap = 0.0
    for start, end, span_priority, span_formed in compute_spans:
        if span_priority < priority and span_formed > formed_s:
            lo = max(start, window_start)
            hi = min(end, window_end)
            if hi > lo:
                overlap += hi - lo
    return min(overlap, window_end - window_start)


def _leading_segments(
    arrival: float,
    execution: "BatchExecution",
    compute_spans: dict[int, list[tuple[float, float, int, float]]],
) -> tuple["BatchExecution", float, float, float, float, float]:
    """One launch's five leading segments against one release instant.

    Returns ``(critical_part, wait_for_batch, queued_behind, preempted,
    cold_build, stage_in)`` — everything but the residual ``compute``,
    which the caller closes against the request's end-to-end latency. The copy-
    engine boundaries are recomputed with the same left-to-right float
    arithmetic ``DeviceWorker.schedule`` used, so they land on the
    identical values.
    """
    part = _critical_part(execution)
    batch = execution.batch
    wait_for_batch = batch.formed_s - arrival
    queue_window = part.start_s - batch.formed_s
    preempted = _preempted_overlap(
        batch.formed_s,
        part.start_s,
        batch.priority,
        batch.formed_s,
        compute_spans[part.worker_index],
    )
    build_end = part.start_s + part.build_s
    copy_end = build_end + part.stage_in_s
    engine_wait = part.compute_start_s - copy_end
    queued_behind = (queue_window - preempted) + engine_wait
    cold_build = build_end - part.start_s
    stage_in = copy_end - build_end
    return part, wait_for_batch, queued_behind, preempted, cold_build, stage_in


def attribute(
    outcomes: list["RequestOutcome"], executions: list["BatchExecution"]
) -> list[RequestPath]:
    """Decompose every completed request's latency along its critical path.

    Pure function over a finished run's outcomes and executions (the
    report's own fields) — no recorder required, so attribution is
    available on every run. Returns one :class:`RequestPath` per
    completed request, in outcome (offered) order: each gating launch's
    leading segments are summed across the outcome's ``stage_chain``, and
    the path's batch and ``worker_index`` are the final stage's.
    """
    by_bid: dict[int, BatchExecution] = {}
    compute_spans: dict[int, list[tuple[float, float, int, float]]] = {}
    for execution in executions:
        by_bid[execution.batch.bid] = execution
        parts = execution.shards if execution.is_split else [execution]
        for part in parts:
            compute_spans.setdefault(part.worker_index, []).append(
                (
                    part.compute_start_s,
                    part.completion_s,
                    part.batch.priority,
                    part.batch.formed_s,
                )
            )
    paths: list[RequestPath] = []
    for outcome in outcomes:
        if outcome.completion_s is None:
            continue
        if not outcome.stage_chain:
            raise ShapeError(f"request {outcome.request.rid} completed without a stage chain")
        latency = outcome.completion_s - outcome.request.arrival_s
        wait_for_batch = queued_behind = preempted = cold_build = stage_in = 0.0
        for link in outcome.stage_chain:
            execution = by_bid.get(link.batch_id)
            if execution is None:
                raise ShapeError(
                    f"request {outcome.request.rid} stage {link.stage!r} "
                    f"completed in batch {link.batch_id}, but no "
                    "execution records that batch"
                )
            part, wait, queued, pre, cold, sin = _leading_segments(
                link.arrival_s, execution, compute_spans
            )
            wait_for_batch += wait
            queued_behind += queued
            preempted += pre
            cold_build += cold
            stage_in += sin
        batch = execution.batch
        # Close the decomposition as a residual: the five leading segments
        # are exact boundary differences, and making compute the remainder
        # guarantees the six sum bit-exactly to the recorded latency (a
        # naive completion - compute_start differs by float rounding).
        compute = latency - (
            wait_for_batch + queued_behind + preempted + cold_build + stage_in
        )
        paths.append(
            RequestPath(
                rid=outcome.request.rid,
                bid=batch.bid,
                priority=batch.priority,
                tenant=batch.tenant,
                worker_index=part.worker_index,
                latency_s=latency,
                wait_for_batch_s=wait_for_batch,
                queued_behind_s=queued_behind,
                preempted_by_s=preempted,
                cold_build_s=cold_build,
                stage_in_s=stage_in,
                compute_s=compute,
            )
        )
    return paths


def blame(paths: list[RequestPath], q: float = 99.0) -> BlameReport | None:
    """Roll per-request paths up into the tail's per-segment blame.

    The cohort is every request whose latency is at or beyond the
    ``q``-th percentile (so p99 blame explains the requests that *are*
    the p99, not the easy median). Returns ``None`` when no request
    completed.
    """
    if not paths:
        return None
    latencies = [p.latency_s for p in paths]
    threshold = percentile(latencies, q)
    cohort = [p for p in paths if p.latency_s >= threshold]
    totals = {name: 0.0 for name in SEGMENTS}
    for path in cohort:
        for name, value in path.segments().items():
            totals[name] += value
    grand_total = sum(totals.values())
    return BlameReport(
        q=q,
        threshold_s=threshold,
        n_requests=len(cohort),
        seconds={name: totals[name] / len(cohort) for name in SEGMENTS},
        shares={
            name: (totals[name] / grand_total if grand_total > 0 else 0.0)
            for name in SEGMENTS
        },
    )
