"""Chrome/Perfetto ``trace_event`` JSON export of a recorded run.

:func:`render_trace` turns a :class:`~repro.serve.obs.trace.TraceRecorder`
into the JSON the Perfetto UI (https://ui.perfetto.dev) and legacy
``chrome://tracing`` load directly:

* one process per concern — workers, tenants, service control plane;
* two threads (tracks) per worker: the copy engine (plan-build and
  stage-in slices) and the compute engine (GEMM slices), so engine
  overlap is visible as parallel slices on one worker;
* one track per tenant carrying an async span per request from arrival
  to completion (or to its shed verdict), with flow arrows linking each
  request's span to the
  GEMM slice that served it (across merges and splits: a split's
  requests fan out to every shard's worker);
* for multi-stage pipeline requests, one nested async span per stage
  (category ``stage``) on the same tenant track — released to completed —
  plus stage->stage flow arrows tracing every dependency edge of the DAG
  from the producing stage's completion to the consuming stage's release;
* instant events on the control-plane track for placement verdicts,
  admission decisions, batcher flushes, preemptions, holds, plan-cache
  lookups, and autoscale actions;
* counter tracks for scheduler queue depth, per-worker compute busyness,
  and fleet size.

Timestamps are simulation-clock microseconds (the ``trace_event`` unit).
The export is bit-deterministic: events sort by ``(timestamp,
emission order)`` and the JSON renders with sorted keys and fixed
separators, so the same seed produces byte-identical files — which is
what lets a golden trace be checked in and diffed like a golden CSV.
"""

from __future__ import annotations

import json

from repro.serve.obs.events import (
    AdmissionDecided,
    AlertStateChanged,
    BatchClosed,
    BatchExecuted,
    BatcherEnqueued,
    BatchHeld,
    BatchPreempted,
    BatchQueued,
    CacheLookup,
    HedgeLaunched,
    HedgeResolved,
    PlacementDecided,
    RequestArrived,
    RequestCompleted,
    RequestFailed,
    RequestRetried,
    ScaleApplied,
    ShardRecovered,
    StageCompleted,
    StageStarted,
    WorkerCrashed,
    WorkerSlowed,
)
from repro.serve.obs.trace import TraceRecorder

#: process ids for the three top-level Perfetto tracks.
PID_WORKERS = 1
PID_TENANTS = 2
PID_SERVICE = 3

_US = 1e6  # seconds -> trace_event microseconds


def _copy_tid(worker_index: int) -> int:
    return worker_index * 2


def _compute_tid(worker_index: int) -> int:
    return worker_index * 2 + 1


def trace_to_dict(recorder: TraceRecorder) -> dict:
    """Build the ``trace_event`` document for one recorded run.

    Pure function of the recorder's event list; see the module docstring
    for the track layout.
    """
    # Discover tracks from the events themselves.
    workers: dict[int, str] = {}
    tenants: list[str] = []
    for event in recorder.events:
        if isinstance(event, (BatchExecuted, ScaleApplied)) and event.worker_index >= 0:
            workers.setdefault(event.worker_index, event.device)
        if isinstance(event, RequestArrived) and event.tenant not in tenants:
            tenants.append(event.tenant)
    tenants.sort()
    tenant_tid = {tenant: tid for tid, tenant in enumerate(tenants)}

    out: list[dict] = []
    for pid, name in (
        (PID_WORKERS, "workers"),
        (PID_TENANTS, "tenants"),
        (PID_SERVICE, "service"),
    ):
        out.append(
            {"ph": "M", "pid": pid, "tid": 0, "ts": 0, "name": "process_name",
             "args": {"name": name}}
        )
    for index in sorted(workers):
        device = workers[index]
        for tid, engine in (
            (_copy_tid(index), "copy"),
            (_compute_tid(index), "compute"),
        ):
            out.append(
                {"ph": "M", "pid": PID_WORKERS, "tid": tid, "ts": 0, "name": "thread_name",
                 "args": {"name": f"worker{index}/{device} {engine}"}}
            )
    for tenant, tid in tenant_tid.items():
        out.append(
            {"ph": "M", "pid": PID_TENANTS, "tid": tid, "ts": 0, "name": "thread_name",
             "args": {"name": f"tenant {tenant}"}}
        )
    out.append(
        {"ph": "M", "pid": PID_SERVICE, "tid": 0, "ts": 0, "name": "thread_name",
         "args": {"name": "control plane"}}
    )

    timed: list[dict] = []
    queue_depth = 0
    started_bids: set[int] = set()
    request_tenant: dict[int, str] = {}
    # rid -> open stage spans (stage name, topo index), so a request that
    # fails mid-pipeline still balances every stage "b" with an "e".
    open_stages: dict[int, list[tuple[str, int]]] = {}

    def instant(event, name: str, args: dict) -> None:
        timed.append(
            {"ph": "i", "pid": PID_SERVICE, "tid": 0, "ts": event.t_s * _US,
             "s": "t", "name": name, "cat": "service", "args": args}
        )

    for event in recorder.events:
        if isinstance(event, RequestArrived):
            request_tenant[event.rid] = event.tenant
            tid = tenant_tid[event.tenant]
            timed.append(
                {"ph": "b", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "request", "id": event.rid, "name": "request",
                 "args": {"rid": event.rid, "workload": event.workload,
                          "priority": event.priority}}
            )
            timed.append(
                {"ph": "s", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "request", "id": event.rid, "name": "serve"}
            )
        elif isinstance(event, RequestCompleted):
            tid = tenant_tid.get(event.tenant, 0)
            timed.append(
                {"ph": "e", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "request", "id": event.rid, "name": "request",
                 "args": {"bid": event.bid, "latency_ms": event.latency_s * 1e3}}
            )
        elif isinstance(event, PlacementDecided):
            instant(event, "placement",
                    {"rid": event.rid, "kind": event.kind, "workload": event.workload,
                     "chosen_s": event.chosen_s, "costs": list(event.costs),
                     "shed_reason": event.shed_reason})
        elif isinstance(event, AdmissionDecided):
            instant(event, "admission",
                    {"rid": event.rid, "admitted": event.admitted,
                     "projected_s": event.projected_s, "queue_depth": event.queue_depth,
                     "reason": event.reason})
            if not event.admitted:
                # A shed request never reaches RequestCompleted; close its
                # async span here so every "b" has a balancing "e".
                tid = tenant_tid.get(request_tenant.get(event.rid, ""), 0)
                timed.append(
                    {"ph": "e", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                     "cat": "request", "id": event.rid, "name": "request",
                     "args": {"shed": True, "reason": event.reason}}
                )
        elif isinstance(event, BatcherEnqueued):
            instant(event, "batcher_enqueue",
                    {"rid": event.rid, "workload": event.workload,
                     "group_seq": event.group_seq, "n_waiting": event.n_waiting})
        elif isinstance(event, BatchClosed):
            instant(event, "batch_closed",
                    {"bid": event.bid, "cause": event.cause, "workload": event.workload,
                     "priority": event.priority, "rids": list(event.rids)})
        elif isinstance(event, BatchQueued):
            queue_depth += 1
            instant(event, "batch_queued",
                    {"bid": event.bid, "priority": event.priority,
                     "n_requests": event.n_requests})
            timed.append(
                {"ph": "C", "pid": PID_SERVICE, "tid": 0, "ts": event.t_s * _US,
                 "name": "queue_depth", "args": {"batches": queue_depth}}
            )
        elif isinstance(event, BatchPreempted):
            instant(event, "preempted",
                    {"bid": event.bid, "by_bid": event.by_bid,
                     "priority": event.priority, "by_priority": event.by_priority})
        elif isinstance(event, BatchHeld):
            instant(event, "held",
                    {"bid": event.bid, "priority": event.priority,
                     "candidates": list(event.candidates)})
        elif isinstance(event, CacheLookup):
            instant(event, "plan_cache",
                    {"device": event.device, "worker": event.worker_index,
                     "workload": event.workload, "n_requests": event.n_requests,
                     "hit": event.hit, "build_ms": event.build_s * 1e3})
        elif isinstance(event, ScaleApplied):
            instant(event, "autoscale",
                    {"kind": event.kind, "worker": event.worker_index,
                     "device": event.device, "accepting": event.accepting,
                     "provisioned": event.provisioned, "reason": event.reason})
            timed.append(
                {"ph": "C", "pid": PID_SERVICE, "tid": 0, "ts": event.t_s * _US,
                 "name": "fleet", "args": {"accepting": event.accepting,
                                           "provisioned": event.provisioned}}
            )
        elif isinstance(event, AlertStateChanged):
            instant(event, "alert",
                    {"id": event.alert_id, "scope": event.scope, "rule": event.rule,
                     "state": event.state, "burn_fast": event.burn_fast,
                     "burn_slow": event.burn_slow})
        elif isinstance(event, WorkerCrashed):
            instant(event, "crash",
                    {"worker": event.worker_index, "device": event.device,
                     "lost_batches": event.lost_batches,
                     "lost_requests": event.lost_requests})
        elif isinstance(event, WorkerSlowed):
            instant(event, "slow",
                    {"worker": event.worker_index, "device": event.device,
                     "factor": event.factor})
        elif isinstance(event, RequestRetried):
            instant(event, "retry",
                    {"rid": event.rid, "attempt": event.attempt,
                     "budget": event.budget, "priority": event.priority,
                     "tenant": event.tenant})
        elif isinstance(event, RequestFailed):
            instant(event, "request_failed",
                    {"rid": event.rid, "reason": event.reason,
                     "priority": event.priority, "tenant": event.tenant})
            # A failed request never reaches RequestCompleted; close its
            # async span here so every "b" has a balancing "e".
            tid = tenant_tid.get(event.tenant, 0)
            for stage, stage_index in open_stages.pop(event.rid, []):
                timed.append(
                    {"ph": "e", "pid": PID_TENANTS, "tid": tid,
                     "ts": event.t_s * _US, "cat": "stage", "id": event.rid,
                     "name": stage,
                     "args": {"failed": True, "stage_index": stage_index}}
                )
            timed.append(
                {"ph": "e", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "request", "id": event.rid, "name": "request",
                 "args": {"failed": True, "reason": event.reason}}
            )
        elif isinstance(event, HedgeLaunched):
            instant(event, "hedge_launched",
                    {"bid": event.bid, "primary": event.primary_index,
                     "hedge": event.hedge_index,
                     "primary_completion_ms": event.primary_completion_s * 1e3,
                     "hedge_completion_ms": event.hedge_completion_s * 1e3})
        elif isinstance(event, HedgeResolved):
            instant(event, "hedge_resolved",
                    {"bid": event.bid, "winner": event.winner,
                     "wasted_ms": event.wasted_s * 1e3})
        elif isinstance(event, ShardRecovered):
            instant(event, "shard_recovered",
                    {"bid": event.bid, "shard": event.shard_index,
                     "from": event.from_index, "to": event.to_index,
                     "completion_ms": event.completion_s * 1e3})
        elif isinstance(event, StageStarted):
            tid = tenant_tid.get(request_tenant.get(event.rid, ""), 0)
            open_stages.setdefault(event.rid, []).append(
                (event.stage, event.stage_index)
            )
            timed.append(
                {"ph": "b", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "stage", "id": event.rid, "name": event.stage,
                 "args": {"rid": event.rid, "pipeline": event.pipeline,
                          "stage_index": event.stage_index,
                          "dep_indices": list(event.dep_indices)}}
            )
            # One flow-arrow finish per dependency edge: the matching "s"
            # was emitted at the producing stage's completion.
            for dep_index in event.dep_indices:
                timed.append(
                    {"ph": "f", "pid": PID_TENANTS, "tid": tid,
                     "ts": event.t_s * _US, "cat": "stage",
                     "id": event.rid * 4096 + dep_index,
                     "name": "stage_dep", "bp": "e"}
                )
        elif isinstance(event, StageCompleted):
            tid = tenant_tid.get(request_tenant.get(event.rid, ""), 0)
            spans = open_stages.get(event.rid, [])
            if (event.stage, event.stage_index) in spans:
                spans.remove((event.stage, event.stage_index))
            timed.append(
                {"ph": "e", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "stage", "id": event.rid, "name": event.stage,
                 "args": {"bid": event.bid, "stage_index": event.stage_index}}
            )
            # Flow-arrow start for every outgoing dependency edge; consumers
            # close it with a "f"/"bp e" at their StageStarted. Sinks leave
            # an unterminated flow, which Perfetto renders as no arrow.
            timed.append(
                {"ph": "s", "pid": PID_TENANTS, "tid": tid, "ts": event.t_s * _US,
                 "cat": "stage", "id": event.rid * 4096 + event.stage_index,
                 "name": "stage_dep"}
            )
        elif isinstance(event, BatchExecuted):
            if event.bid not in started_bids:
                started_bids.add(event.bid)
                queue_depth -= 1
                timed.append(
                    {"ph": "C", "pid": PID_SERVICE, "tid": 0, "ts": event.start_s * _US,
                     "name": "queue_depth", "args": {"batches": queue_depth}}
                )
            slice_args = {"bid": event.bid, "workload": event.workload,
                          "priority": event.priority, "tenant": event.tenant,
                          "n_requests": event.n_requests, "rids": list(event.rids),
                          "shard_index": event.shard_index}
            copy_tid = _copy_tid(event.worker_index)
            compute_tid = _compute_tid(event.worker_index)
            if event.build_s > 0:
                timed.append(
                    {"ph": "X", "pid": PID_WORKERS, "tid": copy_tid,
                     "ts": event.start_s * _US, "dur": event.build_s * _US,
                     "cat": "copy", "name": "plan_build", "args": slice_args}
                )
            timed.append(
                {"ph": "X", "pid": PID_WORKERS, "tid": copy_tid,
                 "ts": (event.start_s + event.build_s) * _US,
                 "dur": event.stage_in_s * _US,
                 "cat": "copy", "name": "stage_in", "args": slice_args}
            )
            timed.append(
                {"ph": "X", "pid": PID_WORKERS, "tid": compute_tid,
                 "ts": event.compute_start_s * _US,
                 "dur": (event.completion_s - event.compute_start_s) * _US,
                 "cat": "compute", "name": "gemm", "args": slice_args}
            )
            for rid in event.rids:
                timed.append(
                    {"ph": "f", "pid": PID_WORKERS, "tid": compute_tid,
                     "ts": event.compute_start_s * _US, "cat": "request",
                     "id": rid, "name": "serve", "bp": "e"}
                )
            timed.append(
                {"ph": "C", "pid": PID_SERVICE, "tid": 0,
                 "ts": event.compute_start_s * _US,
                 "name": f"worker{event.worker_index}_busy", "args": {"compute": 1}}
            )
            timed.append(
                {"ph": "C", "pid": PID_SERVICE, "tid": 0,
                 "ts": event.completion_s * _US,
                 "name": f"worker{event.worker_index}_busy", "args": {"compute": 0}}
            )

    timed.sort(key=lambda e: e["ts"])  # stable: emission order breaks ties
    out.extend(timed)
    return {"displayTimeUnit": "ms", "traceEvents": out}


def render_trace(recorder: TraceRecorder) -> str:
    """The byte-deterministic JSON text of :func:`trace_to_dict`."""
    return json.dumps(trace_to_dict(recorder), sort_keys=True, separators=(",", ":"))

