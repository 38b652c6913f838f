"""Fleet-run result types and SLA/power report formatting.

A :class:`FleetResult` is the request-level counterpart of the cluster
manager's interval records: instead of closed-form capacity margins it
carries measured per-model latency percentiles, SLA-violation rates,
per-replica throughput, and active-time-weighted fleet power -- the
quantities the paper's load-generator evaluation reports.  Fault-mode
runs additionally carry availability, failed/retried/hedged counts
(goodput accounting), and a per-phase p99 breakdown between fault
events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis import format_table

__all__ = [
    "ModelStats",
    "ServerStats",
    "PhaseStats",
    "CarbonStats",
    "FleetResult",
    "LatencySketchSeries",
    "phase_breakdown",
    "fleet_power_summary",
]

#: Joules per kilowatt-hour -- the unit bridge between the replica
#: energy accounting (W x s) and grid carbon intensity (gCO2/kWh).
J_PER_KWH = 3.6e6


def fleet_power_summary(
    rows, horizon_s: float
) -> tuple[float, float]:
    """Fold replica ``(power_w, active_s)`` rows into fleet energy/power.

    The single seam for fleet energy accounting: the engine's
    summarizer and the sharded merge both fold their replica rows
    through this helper, in fleet-index order -- float addition order
    is part of the bit-identity contract, so callers must pass rows
    already in that order.  Returns ``(total_energy_j, avg_power_w)``
    where the average is taken over the full horizon (a zero or
    negative horizon is clamped to 1e-9 rather than dividing by zero).
    """
    total_energy = 0.0
    for power_w, active_s in rows:
        total_energy += power_w * active_s
    return total_energy, total_energy / max(horizon_s, 1e-9)


@dataclass(frozen=True)
class ModelStats:
    """Measured service quality for one model's query stream.

    Attributes:
        model: Model name.
        sla_ms: The p99 SLA target the stream is accounted against.
        completed: Queries completed in the measured window.
        dropped: Queries that found no routable replica (counted as
            SLA violations).
        qps: Completed throughput over the measured window -- with
            faults active this is the *goodput* (failed queries never
            complete).
        p50_ms / p95_ms / p99_ms / mean_ms: Latency distribution.
        violation_rate: Fraction of queries over SLA (dropped and
            failed included).
        failed: Queries lost to replica crashes (retry budget
            exhausted or no routable replica left).
        retried: Crash-killed attempts re-enqueued at the router.
        hedged: Duplicate attempts issued by hedged dispatch.
    """

    model: str
    sla_ms: float
    completed: int
    dropped: int
    qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    violation_rate: float
    failed: int = 0
    retried: int = 0
    hedged: int = 0

    @property
    def meets_sla(self) -> bool:
        return self.p99_ms <= self.sla_ms

    @property
    def goodput_fraction(self) -> float:
        """Fraction of demand that completed (vs failed or dropped)."""
        demand = self.completed + self.failed + self.dropped
        return self.completed / demand if demand else 1.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PhaseStats:
    """Latency summary for one inter-fault-event window of a run."""

    start_s: float
    end_s: float
    completed: int
    p99_ms: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def phase_breakdown(
    completions: dict[str, list[tuple[float, float]]],
    event_times: tuple[float, ...],
    warmup_s: float,
    horizon: float,
    max_phases: int = 8,
) -> tuple[PhaseStats, ...]:
    """Split the measured window at fault-event times and report p99s.

    The phases make a straggler's or crash's impact window visible next
    to the run-wide percentiles: completions are bucketed (across all
    models) by finish time between consecutive fault events.  Long
    stochastic schedules are capped at ``max_phases`` windows by
    downsampling the boundary list.
    """
    import numpy as np

    cuts = sorted({t for t in event_times if warmup_s < t < horizon})
    if len(cuts) > max_phases - 1:
        idx = np.linspace(0, len(cuts) - 1, max_phases - 1).round().astype(int)
        cuts = [cuts[k] for k in dict.fromkeys(idx.tolist())]
    bounds = [warmup_s, *cuts, horizon]
    # Flatten every model's measured completions into one (finish,
    # latency) array pair; the per-phase selection is then a boolean
    # mask instead of a per-phase rescan of a tuple list.  p99 comes
    # out bit-identical: percentile interpolation depends only on the
    # selected multiset, not on sample order.
    fin_parts: list = []
    lat_parts: list = []
    for samples in completions.values():
        if type(samples) is tuple:
            # The vectorized core hands each model a finish-sorted
            # ``(finish, latency)`` array pair instead of a tuple list.
            fin, lats = samples
            keep = (fin - lats >= warmup_s) & (fin <= horizon)
            fin_parts.append(fin[keep])
            lat_parts.append(lats[keep])
        else:
            pairs = [
                (finish, lat)
                for finish, lat in samples
                if finish - lat >= warmup_s and finish <= horizon
            ]
            if pairs:
                m = len(pairs)
                fin_parts.append(
                    np.fromiter((p[0] for p in pairs), np.float64, count=m)
                )
                lat_parts.append(
                    np.fromiter((p[1] for p in pairs), np.float64, count=m)
                )
    if fin_parts:
        fin_a = np.concatenate(fin_parts)
        lat_a = np.concatenate(lat_parts)
    else:
        fin_a = np.empty(0)
        lat_a = np.empty(0)
    phases = []
    for a, b in zip(bounds, bounds[1:]):
        sel = (fin_a >= a) & (fin_a < b)
        if b == horizon:
            sel |= fin_a == b
        lats_p = lat_a[sel]
        p99 = (
            float(np.percentile(lats_p * 1e3, 99))
            if lats_p.size
            else float("inf")
        )
        phases.append(
            PhaseStats(
                start_s=a, end_s=b, completed=int(lats_p.size), p99_ms=p99
            )
        )
    return tuple(phases)


class LatencySketchSeries:
    """O(1)-memory stand-in for one model's completion sample list.

    ``FleetSimulator(percentile_mode="sketch")`` puts one of these where
    the event loops expect a ``list[(finish_s, latency_s)]``; the loops
    call ``append`` exactly as before, and the series folds each
    completion into a P² :class:`~repro.obs.sketch.QuantileSketch`
    instead of storing it.  Counts, throughput, mean, and the
    SLA-violation tally stay *exact* (the same float comparisons exact
    mode performs); only p50/p95/p99 are estimates.

    Window semantics mirror exact mode's summarize-time filter: appends
    whose arrival (``finish - latency``) precedes ``warmup_s`` are
    ignored, and once the horizon is known (``seal``, called by the
    loops at arrival-stream exhaustion, or up front via ``horizon_s``)
    appends finishing after it are ignored too.  Appends *before* the
    seal are always in-window -- the loops process events in global
    time order, so anything retired while arrivals remained finishes
    no later than the last arrival.
    """

    __slots__ = ("sla_ms", "warmup_s", "violations", "_horizon", "_sketch", "_buf")

    #: Completions buffered between P² batch folds (``add_many`` binds
    #: the marker state once per batch; same trick as the live-metrics
    #: hooks, bit-identical to per-observation ``add``).
    FLUSH_AT = 4096

    def __init__(
        self,
        sla_ms: float = float("inf"),
        warmup_s: float = 0.0,
        horizon_s: float | None = None,
    ) -> None:
        from repro.obs.sketch import QuantileSketch

        self.sla_ms = sla_ms
        self.warmup_s = warmup_s
        self.violations = 0
        self._horizon = horizon_s
        self._sketch = QuantileSketch((0.5, 0.95, 0.99))
        self._buf: list[float] = []

    def append(self, pair: tuple[float, float]) -> None:
        """Fold one ``(finish_s, latency_s)`` completion (hot path)."""
        finish, lat = pair
        if finish - lat < self.warmup_s:
            return
        horizon = self._horizon
        if horizon is not None and finish > horizon:
            return
        buf = self._buf
        buf.append(lat)
        if len(buf) >= self.FLUSH_AT:
            self._flush()

    def _flush(self) -> None:
        buf = self._buf
        if not buf:
            return
        sla = self.sla_ms
        ms = [lat * 1e3 for lat in buf]
        violations = 0
        for v in ms:
            if v > sla:
                violations += 1
        self.violations += violations
        self._sketch.add_many(ms)
        del buf[:]

    def seal(self, horizon: float) -> None:
        """Fix the measurement horizon (idempotent; first call wins)."""
        if self._horizon is None:
            self._horizon = horizon

    @property
    def count(self) -> int:
        """Exact in-window completion count."""
        return self._sketch.count + len(self._buf)

    def to_stats(
        self,
        model: str,
        sla_ms: float,
        dropped: int,
        duration_s: float,
        failed: int = 0,
        retried: int = 0,
        hedged: int = 0,
    ) -> ModelStats:
        """Emit the :class:`ModelStats` row exact mode would shape."""
        self._flush()
        sketch = self._sketch
        n = sketch.count
        lost = dropped + failed
        if n == 0:
            return ModelStats(
                model=model,
                sla_ms=sla_ms,
                completed=0,
                dropped=dropped,
                qps=0.0,
                p50_ms=float("inf"),
                p95_ms=float("inf"),
                p99_ms=float("inf"),
                mean_ms=float("inf"),
                violation_rate=1.0 if lost else 0.0,
                failed=failed,
                retried=retried,
                hedged=hedged,
            )
        # P² markers can momentarily invert across estimators; clamp to
        # a monotone p50 <= p95 <= p99 like the metrics probe does.
        p50 = sketch.quantile(0.5)
        p95 = max(p50, sketch.quantile(0.95))
        p99 = max(p95, sketch.quantile(0.99))
        return ModelStats(
            model=model,
            sla_ms=sla_ms,
            completed=n,
            dropped=dropped,
            qps=n / duration_s,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            mean_ms=sketch.mean,
            violation_rate=(self.violations + lost) / max(n + lost, 1),
            failed=failed,
            retried=retried,
            hedged=hedged,
        )


@dataclass(frozen=True)
class ServerStats:
    """Per-replica accounting of one fleet run.

    ``domain`` is the replica's correlated-fault domain (its own index
    when the run declared none -- every replica a singleton domain).
    """

    index: int
    server_type: str
    model: str
    plan: str
    completed: int
    qps: float
    power_w: float
    active_s: float
    ever_active: bool
    domain: int = -1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CarbonStats:
    """gCO2 accounting for one fleet run against a carbon trace.

    Emissions integrate the existing per-replica energy model against
    the grid's carbon-intensity time series: each replica's average
    active power is spread over its recorded activation windows, and
    every window is priced by the trace's step-function intensity over
    that window (``docs/carbon.md``).  Deferrable batch jobs executed
    next to the real-time traffic contribute their own energy and
    emissions plus completion accounting.

    Attributes:
        total_g: Fleet-wide emissions, real-time plus deferrable.
        realtime_g: Emissions of the SLA-bound serving replicas.
        deferrable_g: Emissions of the deferrable batch jobs.
        energy_kwh / deferrable_energy_kwh: The energies behind the
            two emission numbers.
        mean_intensity: Trace mean intensity (gCO2/kWh) over the
            measured horizon -- the what-if-every-joule-were-average
            denominator for judging time-shifting gains.
        policy: Deferrable scheduling policy name (None when the run
            carried no deferrable jobs).
        power_cap_w: Fleet power cap the deferrable executor honored
            (None = uncapped).
        jobs_submitted / jobs_completed / jobs_suspended /
        jobs_dropped: Terminal job accounting; submitted ==
            completed + suspended (unfinished, deadline still open at
            the horizon) + dropped (deadline passed).
        job_suspensions: Mid-flight suspend events across all jobs.
    """

    total_g: float
    realtime_g: float
    deferrable_g: float
    energy_kwh: float
    deferrable_energy_kwh: float
    mean_intensity: float
    policy: str | None = None
    power_cap_w: float | None = None
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_suspended: int = 0
    jobs_dropped: int = 0
    job_suspensions: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet simulation.

    Attributes:
        policy: Routing-policy name the run used.
        duration_s: Measured (post-warmup) window length.
        per_model: Service stats per model stream.
        servers: Per-replica accounting rows.
        avg_power_w: Active-time-weighted mean fleet power.
        scale_events: Autoscaler actions, in order (empty when static).
        events: Simulation events processed (arrivals, batch
            completions, autoscaler ticks) -- the perf harness's
            events/sec denominator.
        availability: Uptime fraction of routable serving time --
            replica-seconds actually served over that plus the
            replica-seconds crashed-while-serving replicas spent dead.
            1.0 when no replica crashed; crashes reduce it even when
            every query is retried successfully; robust to replicas the
            autoscaler activates or drains mid-run.
        fault_events: Atomic fault events actually applied, in order.
        phases: Per-phase latency breakdown between fault events
            (empty for fault-free runs).
        carbon: gCO2 accounting against a carbon trace, set by
            :func:`~repro.carbon.attach_carbon` after the run (None
            for an unpriced run).
    """

    policy: str
    duration_s: float
    per_model: dict[str, ModelStats]
    servers: tuple[ServerStats, ...]
    avg_power_w: float
    scale_events: tuple = ()
    events: int = 0
    availability: float = 1.0
    fault_events: tuple = ()
    phases: tuple = ()
    carbon: CarbonStats | None = None

    @property
    def total_completed(self) -> int:
        return sum(m.completed for m in self.per_model.values())

    @property
    def total_dropped(self) -> int:
        return sum(m.dropped for m in self.per_model.values())

    @property
    def total_failed(self) -> int:
        return sum(m.failed for m in self.per_model.values())

    @property
    def total_retried(self) -> int:
        return sum(m.retried for m in self.per_model.values())

    @property
    def total_hedged(self) -> int:
        return sum(m.hedged for m in self.per_model.values())

    @property
    def worst_violation_rate(self) -> float:
        if not self.per_model:
            return 0.0
        return max(m.violation_rate for m in self.per_model.values())

    @property
    def active_servers(self) -> int:
        """Replicas that served traffic at any point of the run."""
        return sum(1 for s in self.servers if s.ever_active)

    def to_dict(self) -> dict:
        """JSON-serializable view of the whole result.

        Floats are carried verbatim (``json.dumps`` renders them with
        ``repr``, so the output round-trips exactly); the autoscaler's
        ``ScaleEvent.server`` object is flattened to its fleet index.
        Empty models report ``Infinity`` percentiles -- Python's JSON
        dialect, accepted back by ``json.loads``.  The ``carbon`` key
        appears only when the run was priced, so an unpriced payload
        is byte-identical to a pre-carbon run.
        """
        doc = {
            "policy": self.policy,
            "duration_s": self.duration_s,
            "avg_power_w": self.avg_power_w,
            "events": self.events,
            "availability": self.availability,
            "per_model": {
                m: stats.to_dict() for m, stats in sorted(self.per_model.items())
            },
            "servers": [s.to_dict() for s in self.servers],
            "scale_events": [
                {
                    "time_s": ev.time_s,
                    "model": ev.model,
                    "action": ev.action,
                    "server": getattr(ev.server, "index", None),
                    "reason": ev.reason,
                }
                for ev in self.scale_events
            ],
            "fault_events": [
                {
                    "time_s": ev.time_s,
                    "kind": ev.kind,
                    "server": ev.server_index,
                    "factor": ev.factor,
                }
                for ev in self.fault_events
            ],
            "phases": [ph.to_dict() for ph in self.phases],
            "totals": {
                "completed": self.total_completed,
                "dropped": self.total_dropped,
                "failed": self.total_failed,
                "retried": self.total_retried,
                "hedged": self.total_hedged,
            },
            "worst_violation_rate": self.worst_violation_rate,
            "active_servers": self.active_servers,
        }
        if self.carbon is not None:
            doc["carbon"] = self.carbon.to_dict()
        return doc

    def format(self, title: str = "") -> str:
        """Render the per-model SLA table plus the fleet summary line."""
        faulty = bool(self.fault_events) or (
            self.total_failed or self.total_retried or self.total_hedged
        )
        headers = ["model", "served", "dropped", "QPS", "p50 ms", "p99 ms", "SLA ms", "viol"]
        if faulty:
            headers[3:3] = ["failed", "retried", "hedged"]
        rows = []
        for m in sorted(self.per_model.values(), key=lambda s: s.model):
            row = [
                m.model,
                m.completed,
                m.dropped,
                round(m.qps),
                round(m.p50_ms, 1),
                round(m.p99_ms, 1),
                round(m.sla_ms),
                f"{m.violation_rate * 100:.2f}%",
            ]
            if faulty:
                row[3:3] = [m.failed, m.retried, m.hedged]
            rows.append(row)
        table = format_table(
            headers,
            rows,
            title=title or f"fleet replay ({self.policy} routing)",
        )
        summary = (
            f"servers active {self.active_servers}/{len(self.servers)}, "
            f"fleet power {self.avg_power_w / 1e3:.2f} kW, "
            f"queries served {self.total_completed}"
        )
        if self.scale_events:
            summary += f", scale events {len(self.scale_events)}"
        if faulty:
            summary += (
                f"\navailability {self.availability * 100:.2f}%, "
                f"goodput {self.total_completed / max(self.duration_s, 1e-9):.0f} QPS, "
                f"failed {self.total_failed}, retried {self.total_retried}, "
                f"hedged {self.total_hedged}, fault events {len(self.fault_events)}"
            )
            for ph in self.phases:
                p99 = "-" if ph.p99_ms == float("inf") else f"{ph.p99_ms:.1f} ms"
                summary += (
                    f"\n  phase [{ph.start_s:.2f}s, {ph.end_s:.2f}s): "
                    f"p99 {p99} over {ph.completed} queries"
                )
        carbon = self.carbon
        if carbon is not None:
            summary += (
                f"\ncarbon {carbon.total_g:.2f} gCO2 "
                f"(realtime {carbon.realtime_g:.2f} g, deferrable "
                f"{carbon.deferrable_g:.2f} g, grid mean "
                f"{carbon.mean_intensity:.0f} gCO2/kWh)"
            )
            if carbon.jobs_submitted:
                cap = (
                    "uncapped"
                    if carbon.power_cap_w is None
                    else f"cap {carbon.power_cap_w / 1e3:.2f} kW"
                )
                summary += (
                    f"\ndeferrable jobs ({carbon.policy}, {cap}): "
                    f"{carbon.jobs_completed}/{carbon.jobs_submitted} "
                    f"completed, {carbon.jobs_suspended} suspended, "
                    f"{carbon.jobs_dropped} dropped, "
                    f"{carbon.job_suspensions} suspend events"
                )
        return f"{table}\n{summary}"
