"""Run one benchmark command in this (fresh) interpreter.

Invoked by ``run.py`` as ``python3 child.py SPEC MODE T_SPAWN``:

- ``SPEC``: JSON workload spec resolved by ``run.py`` (``kind`` plus
  the command's arguments);
- ``MODE``: ``untraced`` records a span around each public call into
  ``repro.*`` listed in ``_install``; ``traced`` also times the arrival
  stream item by item and captures the fleet engine's log lines;
  ``setup`` stops the command at its first offline-layer call, the end
  of set-up, and reports only that time;
- ``T_SPAWN``: ``time.monotonic()`` in the parent just before it
  started this process.  ``CLOCK_MONOTONIC`` is system-wide, so every
  time below is measured from the spawn and includes interpreter start.

From its first line on, the process also runs a speed probe: every
``PROBE_EVERY_S`` a timer signal runs a fixed, tiny pure-Python loop
and records how long it took.  On a host whose cores are shared, the
probe's time rises and falls with the command's, which lets ``run.py``
take the contention out of the command's time.

Prints one JSON line: the command's result document, peak RSS, the
spans and the probe samples.  Nothing here edits ``repro``'s code:
spans wrap the public functions from outside, so the program's own
work is unchanged and the result document must match across runs.
"""

from __future__ import annotations

import signal
import time

T_START = time.monotonic()

#: Seconds between probe samples.
PROBE_EVERY_S = 0.02
#: Loop length of one probe sample (about 0.5 ms on an idle core).
PROBE_LOOP = 2000

PROBES: list[tuple[float, float]] = []


def _probe(signum, frame) -> None:
    """Time one fixed loop; keep (start, duration)."""
    clock = time.monotonic
    start = clock()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(PROBE_LOOP):
        k = i & 1023
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] % 7.0
    PROBES.append((start, clock() - start))


if __name__ == "__main__":
    # Armed before the imports below, so that they are probed too.
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _rss_mib() -> float:
    """Peak RSS of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """Nested layer spans, kept in memory until the command ends."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None, **attrs) -> int:
        idx = len(self.items)
        start = time.monotonic() if start is None else start
        self.items.append(
            {
                "id": idx,
                "name": name,
                "start": start,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": attrs,
            }
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None, **attrs) -> None:
        span = self.items[idx]
        span["end"] = time.monotonic() if end is None else end
        span["attrs"].update(attrs)
        self._stack.remove(idx)

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        self.close(self.open(name, start, **attrs), end)


class _DocSink(io.StringIO):
    """Captures the result document and the moment it was written."""

    written_at: float | None = None

    def write(self, text: str) -> int:
        n = super().write(text)
        self.written_at = time.monotonic()
        return n


def _wrap(owner, attr: str, spans: Spans, name: str, after=None, before=None):
    """Replace ``owner.attr`` by a call that records a span around it.

    ``before(args)`` runs ahead of the span and returns a state that
    ``after(span_attrs, args, result, state)`` gets, to add counts to
    the span.  A name the program no longer has is skipped; the runner
    then reports its span as missing.
    """
    original = getattr(owner, attr, None)
    if original is None:
        return

    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        idx = spans.open(name)
        attrs: dict = {}
        try:
            result = original(*args, **kwargs)
            if after is not None:
                after(attrs, args, result, state)
            return result
        finally:
            spans.close(idx, **attrs)

    setattr(owner, attr, traced)


def _timed_iter(spans: Spans, items):
    """Pass an arrival stream through, summing the time spent inside it.

    Pulls interleave with the replay, so the span covers first pull to
    exhaustion and ``busy_s`` is the time actually spent producing
    arrivals.
    """
    clock = time.perf_counter
    end = object()
    busy = 0.0
    count = 0
    first = time.monotonic()
    it = iter(items)
    try:
        while True:
            t = clock()
            item = next(it, end)
            busy += clock() - t
            if item is end:
                return
            count += 1
            yield item
    finally:
        spans.add(
            "traces.arrivals", first, time.monotonic(), busy_s=busy, queries=count
        )


def _install(spans: Spans, traced: bool, captured: dict, logs: list[str]) -> None:
    """Wrap the layers' public calls.  ``captured["table"]`` receives the
    first classification table the command profiles."""
    import repro.cli as cli
    from repro.cluster import ClusterManager, HerculesClusterScheduler
    from repro.fleet import FleetResult, FleetSimulator
    from repro.scheduling import OfflineProfiler
    from repro.traces import FleetArrivals

    def table_counts(attrs, args, table, state):
        captured.setdefault("table", table)
        attrs["pairs"] = len(table.entries)
        attrs["evaluations"] = sum(e.evaluations for e in table.entries.values())

    def pair_names(attrs, args, tup, state):
        attrs["server"] = tup.server_name
        attrs["model"] = tup.model_name

    def day_counts(attrs, args, day, state):
        attrs["policy"] = type(args[0].scheduler).__name__
        attrs["intervals"] = len(day.records)

    def replay_counts(attrs, args, result, rss0):
        attrs["events"] = args[0].last_event_count
        attrs["rss_growth_mib"] = _rss_mib() - rss0

    _wrap(OfflineProfiler, "profile", spans, "scheduling.profile", table_counts)
    _wrap(OfflineProfiler, "profile_pair", spans, "scheduling.profile_pair", pair_names)
    _wrap(HerculesClusterScheduler, "allocate", spans, "cluster.allocate")
    _wrap(ClusterManager, "run_day", spans, "cluster.run_day", day_counts)
    _wrap(cli, "build_fleet", spans, "fleet.build")
    _wrap(
        FleetSimulator, "run", spans, "fleet.replay", replay_counts,
        before=lambda args: _rss_mib(),
    )
    _wrap(FleetResult, "to_dict", spans, "fleet.report")
    if not traced:
        return

    arrivals_iter = getattr(FleetArrivals, "__iter__", None)
    if arrivals_iter is not None:
        FleetArrivals.__iter__ = lambda self: _timed_iter(spans, arrivals_iter(self))

    class _Lines(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            logs.append(record.getMessage())

    engine_log = logging.getLogger("repro.fleet.engine")
    engine_log.setLevel(logging.INFO)
    engine_log.addHandler(_Lines())


def _offline_day(spec: dict, sink: _DocSink) -> None:
    """Profile the Fig. 15 table, then provision one diurnal day by the
    Hercules LP and by greedy: ``serve``'s steps, run for both policies."""
    from repro.cluster import (
        ClusterManager,
        GreedyScheduler,
        HerculesClusterScheduler,
        synchronous_traces,
    )
    from repro.hardware import SERVER_AVAILABILITY, SERVER_TYPES
    from repro.models import build_model
    from repro.scheduling import OfflineProfiler

    servers = [SERVER_TYPES[s] for s in spec["servers"]]
    models = [build_model(m) for m in spec["models"]]
    table = OfflineProfiler().profile(servers, models)
    fleet = {s: SERVER_AVAILABILITY[s] for s in spec["servers"]}
    traces = synchronous_traces({m.name: spec["peak_qps"] for m in models})
    days = {}
    for policy, scheduler in (
        ("hercules", HerculesClusterScheduler),
        ("greedy", GreedyScheduler),
    ):
        day = ClusterManager(
            scheduler(table, fleet),
            interval_minutes=spec["interval_minutes"],
            over_provision=spec["over_provision"],
        ).run_day(traces)
        days[policy] = {
            "peak_power_w": day.peak_power_w,
            "average_power_w": day.average_power_w,
            "peak_servers": day.peak_servers,
            "any_shortfall": day.any_shortfall,
            "intervals": len(day.records),
            "power_series": day.power_series(),
        }
    doc = {
        "table": [
            [t.server_name, t.model_name, t.qps, t.power_w, t.evaluations,
             t.plan.describe() if t.plan else None]
            for t in table.entries.values()
        ],
        "days": days,
    }
    sink.write(json.dumps(doc) + "\n")


def _command(spec: dict, sink: _DocSink) -> int:
    """Run the workload's command, writing its document to ``sink``."""
    import repro.cli

    if spec["kind"] == "fleet":
        return repro.cli.main(spec["argv"])
    _offline_day(spec, sink)
    return 0


class _SetupDone(Exception):
    """Ends a set-up-only run at its first offline-layer call."""


def _setup_only(spec: dict) -> float:
    """Run the command up to its first offline-layer call; return when
    that call was made."""
    from repro.scheduling import OfflineProfiler

    def stop(self, *args, **kwargs):
        raise _SetupDone(time.monotonic())

    OfflineProfiler.profile = stop
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _command(spec, _DocSink())
    except _SetupDone as done:
        return done.args[0]
    raise RuntimeError("the command made no offline-layer call")


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = sys.argv[2]
    t_spawn = float(sys.argv[3])

    spans = Spans()
    root = spans.open("command", t_spawn)
    spans.add("interpreter", t_spawn, T_START)
    imp = spans.open("import", T_START)
    import repro.cli  # noqa: F401

    imported = time.monotonic()
    spans.close(imp, imported)

    if mode == "setup":
        setup_end = _setup_only(spec)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        out = {
            "setup_end_s": setup_end - t_spawn,
            "probes": [[t - t_spawn, d] for t, d in PROBES],
        }
        sys.stdout.write(json.dumps(out) + "\n")
        return 0

    captured: dict = {}
    logs: list[str] = []
    _install(spans, mode == "traced", captured, logs)

    sink = _DocSink()
    with contextlib.redirect_stdout(sink):
        rc = _command(spec, sink)
    written = sink.written_at
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    rss = _rss_mib()
    spans.close(root, written)

    table = captured["table"]
    feasible = [t for t in table.entries.values() if t.feasible]
    out = {
        "rc": rc,
        "doc": json.loads(sink.getvalue()),
        "table": {
            "pairs": len(table.entries),
            "feasible": len(feasible),
            "lbt_qps": sum(t.qps for t in feasible),
        },
        "wall_s": written - t_spawn,
        "setup_end_s": min(
            s["start"] for s in spans.items if s["name"] == "scheduling.profile"
        ) - t_spawn,
        "import_s": imported - T_START,
        "peak_rss_mib": rss,
        "spans": [
            dict(s, start=s["start"] - t_spawn, end=s["end"] - t_spawn)
            for s in spans.items
        ],
        "probes": [[t - t_spawn, d] for t, d in PROBES],
        "logs": logs,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
