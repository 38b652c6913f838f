"""The fleet observer: windowed streaming metrics plus trace capture.

A :class:`FleetProbe` is handed to :class:`~repro.fleet.engine.
FleetSimulator` as ``observer=``.  The engine's hot loops guard every
hook behind a single pre-bound boolean, so a run without an observer
performs literally zero observability work and stays float-identical
to the pre-observability engine (``tests/test_perf_equivalence.py``
pins this).

With ``metrics=True`` the probe samples the run into a time series on
a configurable window: per model and window it records arrival/
completion/drop/failure counts, qps, streaming p50/p95/p99 (P² sketch,
:mod:`repro.obs.sketch` -- no stored sample lists), and the SLA
violation rate, alongside fleet-wide queue depth, active replica
count, and windowed power.  With ``trace=True`` the engine routes the
run through the tracked fault loop and the probe materializes
per-query spans (:mod:`repro.obs.trace`) when the run finishes.

The probe never mutates simulator state and draws no randomness, so an
attached observer cannot perturb the simulated floats either -- only
skip work, never change it.
"""

from __future__ import annotations

import json
from operator import itemgetter

import numpy as np

from repro.obs.sketch import QuantileSketch
from repro.rowfile import Column, extension_format, write_rows

__all__ = ["FleetProbe", "MetricsRegistry", "METRIC_FIELDS"]

#: Column order of one metrics row (one model within one window).
METRIC_FIELDS = (
    "t",
    "model",
    "arrivals",
    "completed",
    "dropped",
    "failed",
    "qps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "violations",
    "violation_rate",
    "queue_depth",
    "active_replicas",
    "power_w",
)
#: The row-file columns of the series: every field, required.
METRIC_COLUMNS = tuple(Column(name, name) for name in METRIC_FIELDS)


class MetricsRegistry:
    """Named monotonic counters and last-value gauges.

    The run-level aggregation companion of the windowed time series:
    cheap to update, exported in one snapshot.
    """

    __slots__ = ("counters", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}

    def inc(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def snapshot(self) -> dict:
        return {"counters": dict(self.counters), "gauges": dict(self.gauges)}


class _Window:
    """Accumulator for one model stream within the current window.

    Completion latencies are buffered raw (``buf``) on the hot path and
    folded into the P² sketch only when the window closes
    (:meth:`drain`): the per-event hook is one append instead of an
    ms-conversion, an SLA compare, and three marker updates.  Counters
    and the emitted rows are unchanged -- the deferred work replays the
    identical float sequence at the window boundary.
    """
    __slots__ = ("sla_ms", "arrivals", "completed", "dropped", "failed",
                 "violations", "sketch", "buf", "_quantiles")

    def __init__(self, sla_ms: float, quantiles: tuple[float, ...]) -> None:
        self.sla_ms = sla_ms
        self._quantiles = quantiles
        self.reset()

    def reset(self) -> None:
        self.arrivals = 0
        self.completed = 0
        self.dropped = 0
        self.failed = 0
        self.violations = 0
        self.sketch = QuantileSketch(self._quantiles)
        self.buf: list[float] = []

    def drain(self) -> None:
        """Fold the buffered completions into the window's statistics."""
        buf = self.buf
        if not buf:
            return
        arr = np.asarray(buf) * 1e3
        viol = int((arr > self.sla_ms).sum())
        vals = arr.tolist()
        self.completed += len(buf)
        self.violations += viol
        self.sketch.add_many(vals)
        self.buf = []


class FleetProbe:
    """Opt-in observer for one :meth:`FleetSimulator.run` call.

    Args:
        window_s: Metrics sampling window (seconds of simulated time).
        metrics: Sample the windowed time series.  When False the hot
            loops skip every metrics hook (``trace``-only probes cost
            nothing per event).
        trace: Capture per-query spans.  Forces the tracked fault loop
            (per-query records); span dicts are built lazily at first
            access, so a traced run's wall time is the tracked loop
            alone -- CI pins it below 1.5x of that loop's own cost.
        quantiles: Latency quantiles tracked per window by the P²
            sketches.

    One probe observes one run: :meth:`bind` resets all state.  After
    the run, ``metrics_rows``, ``registry``, ``control_events``,
    ``spans``, and ``result`` hold the captured telemetry, and the
    ``export_*`` methods write the files ``repro.cli observe`` reads.
    """

    def __init__(
        self,
        window_s: float = 0.5,
        metrics: bool = True,
        trace: bool = False,
        quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
    ) -> None:
        if window_s <= 0.0:
            raise ValueError("window_s must be > 0")
        if not (metrics or trace):
            raise ValueError("a probe must enable metrics, tracing, or both")
        self.window_s = float(window_s)
        self.metrics = bool(metrics)
        self.trace = bool(trace)
        self.quantiles = tuple(quantiles)
        for q in self.quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantiles must be in (0, 1), got {q!r}")
        self.registry = MetricsRegistry()
        self.metrics_rows: list[dict] = []
        self.control_events: list[dict] = []
        self._spans: list[dict] | None = None
        self._span_inputs = None
        self.result = None
        self._sim = None
        self._win: dict[str, _Window] = {}
        self._next_t = self.window_s
        self._prev_items: dict[int, int] = {}
        self._ticks: list[dict] = []
        self.warmup_s = 0.0
        self.horizon = 0.0

    # -- lifecycle (called by the engine) ------------------------------

    def bind(self, sim) -> None:
        """Reset capture state and attach to one simulator run."""
        self._sim = sim
        self.registry = MetricsRegistry()
        self.metrics_rows = []
        self.control_events = []
        self._spans = None
        self._span_inputs = None
        self.result = None
        self._ticks = []
        self._next_t = self.window_s
        self._win = {
            m: _Window(sim.sla_ms.get(m, float("inf")), self.quantiles)
            for m in sim._routable
        }
        self._prev_items = {s.index: s.items_done for s in sim.servers}

    def finish(self, horizon: float, warmup_s: float, result, sim) -> None:
        """Close the run: flush the tail window, build spans/timeline."""
        self.warmup_s = warmup_s
        self.horizon = horizon
        self.result = result
        if self.metrics:
            self._flush_to(horizon)
            self._emit(self._next_t)  # partial tail window (drain phase)
            reg = self.registry
            totals = {"arrivals": 0, "completed": 0, "dropped": 0, "failed": 0}
            for row in self.metrics_rows:
                for key in totals:
                    totals[key] += row[key]
            for key, val in totals.items():
                reg.inc(f"queries.{key}", val)
            reg.inc("windows.sampled", len(self.metrics_rows))
            reg.set_gauge("run.horizon_s", horizon)
            reg.set_gauge("run.avg_power_w", result.avg_power_w)
            reg.set_gauge("run.availability", result.availability)
        if self.trace:
            # Span construction is deferred to first access/export: a
            # traced run's wall time is the tracked loop alone, and the
            # per-query dict building is paid only if spans are read.
            self._span_inputs = (
                sim.last_query_log, result.fault_events, warmup_s, horizon,
            )
        self.control_events = self._build_control_log(result)
        self._sim = None

    @property
    def spans(self) -> list[dict]:
        """Per-query spans, materialized lazily from the run's log."""
        if self._spans is None:
            if self._span_inputs is None:
                return []
            from repro.obs.trace import build_spans

            self._spans = build_spans(*self._span_inputs)
        return self._spans

    # -- hot-path hooks (each guarded by `probe_on` in the loops) ------

    def on_arrival(self, model: str, now: float) -> None:
        if now >= self._next_t:
            self._flush_to(now)
        win = self._win.get(model)
        if win is None:
            win = self._window_for(model)
        win.arrivals += 1

    def on_completion(self, model: str, latency_s: float, now: float) -> None:
        # Hot path: one boundary check and one list append.  The ms
        # conversion, SLA compare, and sketch fold happen when the
        # window closes (``_Window.drain``), in arrival-of-completion
        # order, so the emitted row is identical to per-event folding.
        if now >= self._next_t:
            self._flush_to(now)
        win = self._win.get(model)
        if win is None:
            win = self._window_for(model)
        win.buf.append(latency_s)

    def on_drop(self, model: str, now: float) -> None:
        if now >= self._next_t:
            self._flush_to(now)
        win = self._win.get(model)
        if win is None:
            win = self._window_for(model)
        win.dropped += 1

    def on_failure(self, model: str, now: float) -> None:
        if now >= self._next_t:
            self._flush_to(now)
        win = self._win.get(model)
        if win is None:
            win = self._window_for(model)
        win.failed += 1

    # -- cold-path hooks -----------------------------------------------

    def on_autoscaler_tick(self, now: float, decisions, autoscaler) -> None:
        """Record one control-plane decision point with its inputs."""
        record: dict = {"t": now, "kind": "autoscaler_tick"}
        forecast = getattr(autoscaler, "forecast_qps", None)
        if forecast is not None and self._sim is not None:
            record["forecast_qps"] = {
                m: forecast(m) for m in sorted(self._sim._routable)
            }
        if decisions:
            record["decisions"] = [
                {
                    "model": ev.model,
                    "action": ev.action,
                    "server": getattr(ev.server, "index", None),
                    "reason": ev.reason,
                }
                for ev in decisions
            ]
        self._ticks.append(record)

    # -- internals -----------------------------------------------------

    def _window_for(self, model: str) -> _Window:
        sla = float("inf")
        if self._sim is not None:
            sla = self._sim.sla_ms.get(model, float("inf"))
        win = _Window(sla, self.quantiles)
        self._win[model] = win
        return win

    def _flush_to(self, t: float) -> None:
        while self._next_t <= t:
            self._emit(self._next_t)
            self._next_t += self.window_s

    def _emit(self, t_end: float) -> None:
        """Append one row per model for the window ending at ``t_end``."""
        queue_depth, active, power_w = self._fleet_gauges()
        window_s = self.window_s
        for model in sorted(self._win):
            win = self._win[model]
            win.drain()
            sketch = win.sketch
            resolved = win.completed + win.dropped + win.failed
            p50 = sketch.quantile(0.5) if 0.5 in sketch.quantiles else float("nan")
            p95 = sketch.quantile(0.95) if 0.95 in sketch.quantiles else float("nan")
            p99 = sketch.quantile(0.99) if 0.99 in sketch.quantiles else float("nan")
            # Each quantile runs its own P² markers, so estimates can
            # cross by a hair on tight distributions; repair to monotone.
            if p50 == p50 and p95 == p95 and p95 < p50:
                p95 = p50
            if p95 == p95 and p99 == p99 and p99 < p95:
                p99 = p95
            self.metrics_rows.append(
                {
                    "t": t_end,
                    "model": model,
                    "arrivals": win.arrivals,
                    "completed": win.completed,
                    "dropped": win.dropped,
                    "failed": win.failed,
                    "qps": win.completed / window_s,
                    "p50_ms": p50,
                    "p95_ms": p95,
                    "p99_ms": p99,
                    "violations": win.violations,
                    "violation_rate": (
                        (win.violations + win.dropped + win.failed) / resolved
                        if resolved
                        else 0.0
                    ),
                    "queue_depth": queue_depth,
                    "active_replicas": active,
                    "power_w": power_w,
                }
            )
            win.reset()

    def _fleet_gauges(self) -> tuple[int, int, float]:
        """Snapshot queue depth, active replicas, and windowed power.

        Power uses the engine's component-utilization model with this
        window's completion rate instead of the whole-run average, so
        the series shows power tracking load.
        """
        sim = self._sim
        if sim is None:
            return 0, 0, 0.0
        queue_depth = 0
        active = 0
        power_w = 0.0
        prev = self._prev_items
        inv_w = 1.0 / self.window_s
        for s in sim.servers:
            queue_depth += s.outstanding
            delta = s.items_done - prev.get(s.index, 0)
            prev[s.index] = s.items_done
            if not s.active:
                continue
            active += 1
            power_w += s.timings.power_at(s.server_type, delta * inv_w)[3]
        return queue_depth, active, power_w

    def _build_control_log(self, result) -> list[dict]:
        """Merge scaler ticks, fault events, and phases onto one timeline."""
        events: list[dict] = list(self._ticks)
        for ev in result.fault_events:
            events.append(
                {
                    "t": ev.time_s,
                    "kind": "fault",
                    "fault": ev.kind,
                    "server": ev.server_index,
                    "factor": ev.factor,
                }
            )
        for ph in result.phases:
            events.append(
                {
                    "t": ph.start_s,
                    "kind": "phase",
                    "end_s": ph.end_s,
                    "completed": ph.completed,
                    "p99_ms": ph.p99_ms,
                }
            )
        events.sort(key=lambda e: e["t"])
        return events

    # -- export --------------------------------------------------------

    @staticmethod
    def metrics_format(path: str) -> str:
        """``"csv"`` or ``"jsonl"``, the format :meth:`export_metrics`
        writes to ``path``; any other extension raises."""
        fmt = extension_format(path)
        if fmt is None:
            raise ValueError(
                f"metrics path must end in .csv or .jsonl, got {path!r}"
            )
        return fmt

    @staticmethod
    def trace_format(path: str) -> str:
        """``"json"`` or ``"jsonl"``, the format :meth:`export_trace`
        writes to ``path``; any other extension raises."""
        if path.endswith(".json"):
            return "json"
        if extension_format(path) == "jsonl":
            return "jsonl"
        raise ValueError(f"trace path must end in .json or .jsonl, got {path!r}")

    def export_metrics(self, path: str) -> None:
        """Write the windowed series as a CSV or JSONL row file (by
        extension; see :mod:`repro.rowfile`), floats via ``repr`` so the
        files round-trip exactly."""
        if not self.metrics:
            raise ValueError("probe was built with metrics=False")
        fmt = self.metrics_format(path)
        rows = map(itemgetter(*METRIC_FIELDS), self.metrics_rows)
        write_rows(path, fmt, METRIC_COLUMNS, rows)

    def export_trace(self, path: str) -> None:
        """Write spans + control timeline as JSONL, or Chrome JSON.

        A JSONL path (``.jsonl``/``.ndjson``) gets one tagged object per
        line (``type`` is ``meta``, ``span``, or ``control``); ``.json``
        gets a Chrome trace-event file loadable in Perfetto /
        ``chrome://tracing``.
        """
        if not self.trace:
            raise ValueError("probe was built with trace=False")
        from repro.obs.trace import chrome_trace, write_trace_jsonl

        if self.trace_format(path) == "json":
            doc = chrome_trace(
                self.spans,
                self.control_events,
                warmup_s=self.warmup_s,
                horizon=self.horizon,
            )
            with open(path, "w") as fh:
                json.dump(doc, fh)
        else:
            write_trace_jsonl(
                path,
                self.spans,
                self.control_events,
                warmup_s=self.warmup_s,
                horizon=self.horizon,
            )
