"""Per-query span records and trace exporters.

Spans are built *after* the run from the fault loop's
:class:`~repro.fleet.faults.TrackedQuery` log -- the hot loop records
nothing beyond what the retry/hedge machinery already keeps, so traced
runs cost the tracked loop, not a second bookkeeping layer.

One span per arrival: the query's terminal outcome (completed, failed,
dropped -- exactly one, the conservation invariant), its attempts as
child records (retries and hedges classified from dispatch-time
overlap), and fault annotations (crash-killed attempts, attempts that
ran during a straggler episode of their replica).  Two export shapes:

- tagged JSONL (``type`` = ``meta`` / ``span`` / ``control``), the
  machine-diffable form ``repro.cli observe`` reads;
- Chrome trace-event JSON (``traceEvents``), loadable in Perfetto or
  ``chrome://tracing``: queries as async ``b``/``e`` pairs on the
  "queries" process, attempts as ``X`` slices on the "replicas"
  process (one track per replica), faults and autoscaler decisions as
  instants.
"""

from __future__ import annotations

from itertools import chain

from repro.rowfile import read_jsonl, write_jsonl

__all__ = [
    "build_spans",
    "chrome_trace",
    "write_trace_jsonl",
    "read_trace_jsonl",
]

_OUTCOMES = {0: "inflight", 1: "completed", 2: "failed", 3: "dropped"}
_ATTEMPT_STATUS = {0: "inflight", 1: "completed", 2: "killed"}


def _slow_intervals(fault_events, horizon: float) -> dict[int, list[tuple]]:
    """Per-server straggler episodes replayed from the applied events.

    The fault loop's ``applied`` list only contains events that took
    effect (overlap-superseded restores never appear), so a linear
    replay reconstructs the true ``slow_factor`` timeline.
    """
    open_ep: dict[int, tuple[float, float]] = {}
    out: dict[int, list[tuple]] = {}
    for ev in fault_events:
        idx = ev.server_index
        if ev.kind == "slow":
            prior = open_ep.pop(idx, None)
            if prior is not None:  # overlapping episode: newest factor wins
                out.setdefault(idx, []).append((prior[0], ev.time_s, prior[1]))
            open_ep[idx] = (ev.time_s, ev.factor)
        elif ev.kind == "restore":
            prior = open_ep.pop(idx, None)
            if prior is not None:
                out.setdefault(idx, []).append((prior[0], ev.time_s, prior[1]))
    for idx, (t0, factor) in open_ep.items():
        out.setdefault(idx, []).append((t0, horizon, factor))
    return out


def build_spans(log, fault_events, warmup_s: float, horizon: float) -> list[dict]:
    """Materialize span dicts from a run's ``last_query_log``.

    ``measured`` mirrors the engine's accounting window exactly
    (arrival after warmup, resolution by the horizon; drops are
    measured on arrival alone), so summing measured spans by outcome
    reproduces the run's :class:`~repro.fleet.report.FleetResult`
    counts -- the round-trip ``repro.cli observe`` verifies.
    """
    slow = _slow_intervals(fault_events, horizon)
    spans: list[dict] = []
    for qid, tq in enumerate(log):
        outcome = _OUTCOMES.get(tq.outcome, "inflight")
        arrival = tq.query.arrival_s
        attempts = []
        for k, att in enumerate(tq.attempts):
            server, start, end, status = att
            if k == 0:
                kind = "initial"
            else:
                # A hedge dispatches while an earlier attempt is still
                # running (its end is later, or never came); a retry
                # dispatches exactly when the last attempt was killed.
                prior = tq.attempts[:k]
                overlap = any(a[2] is None or a[2] > start for a in prior)
                kind = "hedge" if overlap else "retry"
            annotations = []
            if status == 2:
                annotations.append("killed_by_crash")
            for t0, t1, factor in slow.get(server.index, ()):
                if start < t1 and (end is None or end > t0):
                    annotations.append(f"straggler_x{factor:g}")
                    break
            attempts.append(
                {
                    "server": server.index,
                    "server_type": server.server_type.name,
                    "start_s": start,
                    "end_s": end,
                    "status": _ATTEMPT_STATUS.get(status, "inflight"),
                    "kind": kind,
                    "annotations": annotations,
                }
            )
        if outcome == "completed":
            finish = tq.finish_s
        elif outcome == "dropped":
            finish = arrival
        elif outcome == "failed":
            # Killed attempts carry their kill timestamp; the query
            # failed when its last outstanding attempt died.
            ends = [a[2] for a in tq.attempts if a[2] is not None]
            finish = max(ends) if ends else arrival
        else:
            finish = None
        if outcome == "dropped":
            measured = arrival >= warmup_s
        elif finish is None:
            measured = False
        else:
            measured = arrival >= warmup_s and finish <= horizon
        spans.append(
            {
                "qid": qid,
                "model": tq.model,
                "outcome": outcome,
                "arrival_s": arrival,
                "finish_s": finish,
                "latency_ms": (finish - arrival) * 1e3 if finish is not None else None,
                "measured": measured,
                "retries": tq.retries,
                "hedged": tq.hedge_state == 2,
                "attempts": attempts,
            }
        )
    return spans


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

#: Chrome trace-event process ids.
_PID_CONTROL = 0
_PID_QUERIES = 1
_PID_REPLICAS = 2


def chrome_trace(
    spans, control_events, warmup_s: float, horizon: float
) -> dict:
    """Render spans + control timeline as a Chrome trace-event document.

    Timestamps are simulated seconds scaled to microseconds (the
    format's unit).  Every query becomes one balanced async ``b``/``e``
    pair keyed by its qid (zero-duration for drops), every attempt an
    ``X`` complete slice on its replica's track, every fault and
    autoscaler decision an instant.
    """
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": _PID_CONTROL, "tid": 0,
         "args": {"name": "control-plane"}},
        {"ph": "M", "name": "process_name", "pid": _PID_QUERIES, "tid": 0,
         "args": {"name": "queries"}},
        {"ph": "M", "name": "process_name", "pid": _PID_REPLICAS, "tid": 0,
         "args": {"name": "replicas"}},
    ]
    model_tid = {
        m: i for i, m in enumerate(sorted({s["model"] for s in spans}))
    }
    for span in spans:
        qid = f"q{span['qid']}"
        tid = model_tid[span["model"]]
        finish = span["finish_s"] if span["finish_s"] is not None else horizon
        events.append(
            {
                "ph": "b",
                "cat": "query",
                "id": qid,
                "name": span["model"],
                "pid": _PID_QUERIES,
                "tid": tid,
                "ts": span["arrival_s"] * 1e6,
                "args": {
                    "outcome": span["outcome"],
                    "measured": span["measured"],
                    "retries": span["retries"],
                    "hedged": span["hedged"],
                    # Exact arrival (ts is scaled); observe recomputes
                    # the warmup-measured counters from it.
                    "arrival_s": span["arrival_s"],
                },
            }
        )
        events.append(
            {
                "ph": "e",
                "cat": "query",
                "id": qid,
                "name": span["model"],
                "pid": _PID_QUERIES,
                "tid": tid,
                "ts": finish * 1e6,
            }
        )
        for att in span["attempts"]:
            end = att["end_s"] if att["end_s"] is not None else horizon
            events.append(
                {
                    "ph": "X",
                    "cat": "attempt",
                    "name": f"{span['model']}/{att['kind']}",
                    "pid": _PID_REPLICAS,
                    "tid": att["server"],
                    "ts": att["start_s"] * 1e6,
                    "dur": max(end - att["start_s"], 0.0) * 1e6,
                    "args": {
                        "qid": span["qid"],
                        "status": att["status"],
                        "annotations": att["annotations"],
                    },
                }
            )
    for ev in control_events:
        if ev["kind"] == "fault":
            events.append(
                {
                    "ph": "i",
                    "cat": "fault",
                    "name": ev["fault"],
                    "pid": _PID_REPLICAS,
                    "tid": ev["server"],
                    "ts": ev["t"] * 1e6,
                    "s": "t",
                    "args": {"factor": ev["factor"]},
                }
            )
        elif ev["kind"] == "autoscaler_tick":
            for dec in ev.get("decisions", ()):
                events.append(
                    {
                        "ph": "i",
                        "cat": "autoscaler",
                        "name": dec["action"],
                        "pid": _PID_CONTROL,
                        "tid": 0,
                        "ts": ev["t"] * 1e6,
                        "s": "p",
                        "args": {
                            "model": dec["model"],
                            "server": dec["server"],
                            "reason": dec["reason"],
                        },
                    }
                )
        elif ev["kind"] == "phase":
            events.append(
                {
                    "ph": "i",
                    "cat": "phase",
                    "name": "phase",
                    "pid": _PID_CONTROL,
                    "tid": 0,
                    "ts": ev["t"] * 1e6,
                    "s": "p",
                    "args": {
                        "end_s": ev["end_s"],
                        "completed": ev["completed"],
                        "p99_ms": _finite(ev["p99_ms"]),
                    },
                }
            )
    return {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": {"warmup_s": warmup_s, "horizon_s": horizon},
    }


def _finite(x: float):
    """Infinities are not valid strict JSON; stringify them for args."""
    if x == float("inf") or x == float("-inf") or x != x:
        return str(x)
    return x


def write_trace_jsonl(
    path: str, spans, control_events, warmup_s: float, horizon: float
) -> None:
    """Write the tagged-JSONL trace: one meta line, spans, control."""
    meta = {
        "type": "meta",
        "warmup_s": warmup_s,
        "horizon_s": horizon,
        "spans": len(spans),
        "control_events": len(control_events),
    }
    write_jsonl(
        path,
        chain(
            (meta,),
            ({"type": "span", **span} for span in spans),
            ({"type": "control", **ev} for ev in control_events),
        ),
    )


def read_trace_jsonl(path: str) -> tuple[dict, list[dict], list[dict]]:
    """Read a tagged-JSONL trace back: ``(meta, spans, control)``."""
    meta: dict = {}
    spans: list[dict] = []
    control: list[dict] = []
    for line_no, obj in read_jsonl(path):
        kind = obj.pop("type", None)
        if kind == "meta":
            meta = obj
        elif kind == "span":
            spans.append(obj)
        elif kind == "control":
            control.append(obj)
        else:
            raise ValueError(f"{path}:{line_no}: unknown trace line type {kind!r}")
    return meta, spans, control
