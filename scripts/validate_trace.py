#!/usr/bin/env python
"""CI gate: validate an exported Perfetto ``trace_event`` JSON file.

Every serving experiment of ``python -m repro.bench`` writes its headline
run's span-event trace to ``<outdir>/<name>-trace.json``; the CI ``bench``
job runs this checker over each one its quick pass wrote. The job fails
when

* the file is not JSON or lacks the ``traceEvents`` array,
* an event lacks the keys its phase requires (``ph``/``pid``/``tid``/
  ``ts`` everywhere; ``dur`` on complete slices; ``id`` on async and
  flow events; numeric ``args`` on counter samples),
* a phase letter is outside the trace_event vocabulary the exporter
  emits (``M X b e s f i C``),
* timestamps are negative or non-monotonic (the exporter sorts events
  by ``ts``; an out-of-order event means the sort — or the simulation
  clock feeding it — broke),
* an async span is unbalanced (a request that began and never ended,
  or ended twice),
* a counter sample is negative (every exported counter is a count or a
  cumulative sum — a negative value means the accounting broke),
* an alert instant is malformed: missing ``id``/``scope``/``rule``/
  ``state`` args, an unknown state, a repeated state for one alert id,
  or a lifecycle order violation (``firing`` only after ``pending``,
  ``resolved`` only after ``firing``, ``cancelled`` only after a
  ``pending`` that never fired, nothing after a terminal state),
* a fault-lifecycle instant (``crash``/``slow``/``retry``/
  ``request_failed``/``hedge_launched``/``hedge_resolved``/
  ``shard_recovered``) lacks its required args, a ``retry`` overruns its
  own declared budget, or a ``hedge_resolved`` reports negative waste,
* a pipeline-stage span (``cat: "stage"``) begins outside its request's
  async span or ends after it — stage spans must nest inside the
  request lifecycle span that owns them,
* a ``stage_dep`` flow step (``ph: "f"``) arrives with no earlier
  matching flow start (``ph: "s"``) for its id — a dependency arrow
  into a stage whose producing stage never completed.

This is a *format* gate, not a semantic one: it proves any bench trace
opens cleanly in ``ui.perfetto.dev``, not that the spans mean the right
thing — the semantic bars live in ``tests/serve/test_obs.py``.

Usage::

    python scripts/validate_trace.py trace.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: every phase letter the exporter emits (subset of the trace_event spec).
KNOWN_PHASES = frozenset("MXbesfiC")
#: phases exempt from the monotonicity walk (metadata is pinned at ts 0).
METADATA_PHASES = frozenset("M")

#: every alert lifecycle state the AlertEngine emits as a trace instant.
ALERT_STATES = frozenset({"pending", "firing", "resolved", "cancelled"})
#: states after which an alert id must never emit again.
ALERT_TERMINAL = frozenset({"resolved", "cancelled"})

#: fault-lifecycle instants and the args each must carry (values may be 0,
#: so presence is checked with ``in``, not truthiness).
FAULT_INSTANT_ARGS = {
    "crash": ("worker", "device", "lost_batches", "lost_requests"),
    "slow": ("worker", "device", "factor"),
    "retry": ("rid", "attempt", "budget"),
    "request_failed": ("rid", "reason"),
    "hedge_launched": ("bid", "primary", "hedge"),
    "hedge_resolved": ("bid", "winner", "wasted_ms"),
    "shard_recovered": ("bid", "shard", "from", "to"),
}


def _check_fault(where: str, name: str, args: object) -> list[str]:
    """One fault-lifecycle instant against its required-args table."""
    if not isinstance(args, dict):
        return [f"{where}: fault instant needs an 'args' object"]
    missing = [k for k in FAULT_INSTANT_ARGS[name] if k not in args]
    if missing:
        return [f"{where}: fault instant missing args {missing}"]
    problems: list[str] = []
    if name == "retry":
        attempt, budget = args["attempt"], args["budget"]
        if not isinstance(attempt, int) or attempt < 1:
            problems.append(f"{where}: retry attempt must be a positive int, got {attempt!r}")
        elif isinstance(budget, int) and attempt > budget:
            problems.append(f"{where}: retry attempt {attempt} overruns budget {budget}")
    if name == "hedge_resolved":
        wasted = args["wasted_ms"]
        if not isinstance(wasted, (int, float)) or isinstance(wasted, bool) or wasted < 0:
            problems.append(
                f"{where}: hedge_resolved wasted_ms must be non-negative, got {wasted!r}"
            )
    return problems


def _check_alert(
    where: str, args: object, alert_states: dict[object, list[str]]
) -> list[str]:
    """One alert instant against the per-id lifecycle state machine."""
    if not isinstance(args, dict):
        return [f"{where}: alert instant needs an 'args' object"]
    missing = [k for k in ("id", "scope", "rule", "state") if not args.get(k)]
    if missing:
        return [f"{where}: alert instant missing args {missing}"]
    state = args["state"]
    if state not in ALERT_STATES:
        return [f"{where}: unknown alert state {state!r}"]
    seen = alert_states.setdefault(args["id"], [])
    problems: list[str] = []
    if seen and seen[-1] in ALERT_TERMINAL:
        problems.append(f"{where}: alert {args['id']!r} emits {state!r} after {seen[-1]!r}")
    elif state in seen:
        problems.append(f"{where}: alert {args['id']!r} repeats state {state!r}")
    elif state == "pending" and seen:
        problems.append(f"{where}: alert {args['id']!r} re-enters 'pending'")
    elif state == "firing" and "pending" not in seen:
        problems.append(f"{where}: alert {args['id']!r} fires without 'pending'")
    elif state == "resolved" and "firing" not in seen:
        problems.append(f"{where}: alert {args['id']!r} resolves without 'firing'")
    elif state == "cancelled" and ("firing" in seen or "pending" not in seen):
        problems.append(
            f"{where}: alert {args['id']!r} cancels "
            + ("after firing" if "firing" in seen else "without 'pending'")
        )
    seen.append(state)
    return problems


def check(trace_path: str) -> list[str]:
    """Return the list of format problems found in one trace file."""
    try:
        payload = json.loads(Path(trace_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read trace {trace_path!r}: {exc}"]
    if not isinstance(payload, dict) or not isinstance(payload.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' array"]

    problems: list[str] = []
    open_async: dict[tuple[object, object], int] = {}
    flow_starts: set[object] = set()
    alert_states: dict[object, list[str]] = {}
    last_ts = 0.0
    for i, event in enumerate(payload["traceEvents"]):
        if not isinstance(event, dict):
            problems.append(f"event #{i}: not an object: {event!r:.60}")
            continue
        ph = event.get("ph")
        where = f"event #{i} (ph={ph!r}, name={event.get('name')!r})"
        if ph not in KNOWN_PHASES:
            problems.append(f"{where}: unknown phase")
            continue
        for key in ("pid", "tid", "ts"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number, got {ts!r}")
            continue
        if ph not in METADATA_PHASES:
            if ts < last_ts:
                problems.append(
                    f"{where}: non-monotonic ts {ts} after {last_ts} — "
                    "the exporter's sort or the simulation clock broke"
                )
            last_ts = max(last_ts, ts)
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                problems.append(f"{where}: complete slice needs a non-negative 'dur'")
        if ph in "besf" and "id" not in event:
            problems.append(f"{where}: async/flow event needs an 'id'")
        if ph in "be":
            key = (event.get("pid"), event.get("id"))
            is_stage = event.get("cat") == "stage"
            if ph == "b" and is_stage and open_async.get(key, 0) < 1:
                problems.append(
                    f"{where}: stage span begins outside its request span"
                )
            open_async[key] = open_async.get(key, 0) + (1 if ph == "b" else -1)
            if open_async[key] < 0:
                problems.append(f"{where}: async end with no matching begin")
            elif ph == "e" and is_stage and open_async[key] < 1:
                problems.append(
                    f"{where}: stage span ends after its request span closed"
                )
        if ph == "s" and event.get("name") == "stage_dep":
            flow_starts.add(event.get("id"))
        if ph == "f" and event.get("name") == "stage_dep":
            if event.get("id") not in flow_starts:
                problems.append(
                    f"{where}: stage_dep flow step with no earlier flow start"
                )
        if ph == "C":
            series = event.get("args")
            if not isinstance(series, dict) or not series:
                problems.append(f"{where}: counter needs a non-empty 'args' object")
            elif not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in series.values()
            ):
                problems.append(f"{where}: counter values must be numbers")
            else:
                negative = {k: v for k, v in series.items() if v < 0}
                if negative:
                    problems.append(
                        f"{where}: counter values must be non-negative, got {negative}"
                    )
        if ph == "i" and event.get("name") == "alert":
            problems += _check_alert(where, event.get("args"), alert_states)
        if ph == "i" and event.get("name") in FAULT_INSTANT_ARGS:
            problems += _check_fault(where, event["name"], event.get("args"))

    unclosed = sorted(str(key) for key, depth in open_async.items() if depth > 0)
    if unclosed:
        problems.append(
            f"{len(unclosed)} async span(s) never ended: {', '.join(unclosed[:5])}"
        )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_trace.py TRACE_JSON", file=sys.stderr)
        return 2
    problems = check(argv[0])
    if problems:
        for problem in problems[:40]:
            print(f"validate-trace: {problem}", file=sys.stderr)
        if len(problems) > 40:
            print(f"validate-trace: ... and {len(problems) - 40} more", file=sys.stderr)
        return 1
    n = len(json.loads(Path(argv[0]).read_text())["traceEvents"])
    print(f"validate-trace: {argv[0]} is well-formed trace_event JSON ({n} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
