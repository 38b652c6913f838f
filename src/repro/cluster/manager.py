"""Online serving: the cluster manager's provisioning loop (Fig. 13).

Every provisioning interval (tens of minutes, amortizing the tens of
seconds of workload setup) the manager reads the current loads, asks
its scheduling policy for an allocation, applies it to the cluster
state table, and records capacity/power.  The over-provision rate ``R``
absorbs load growth within the interval and is estimated from the
trace's own history, as Section IV-C prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.loads import DiurnalTrace
from repro.cluster.schedulers import ClusterScheduler
from repro.cluster.state import Allocation, ClusterStateTable

if TYPE_CHECKING:
    from repro.fleet.report import FleetResult
    from repro.models.zoo import RecommendationModel
    from repro.sim.queries import QueryWorkload

__all__ = ["IntervalRecord", "DaySummary", "ClusterManager", "estimate_over_provision"]


def estimate_over_provision(
    traces: dict[str, DiurnalTrace], interval_minutes: float
) -> float:
    """Estimate ``R`` from the largest load increase over one interval.

    Profiles the day's history per Section IV-C: the rate must cover
    the steepest climb any workload makes within a provisioning
    interval.
    """
    if interval_minutes <= 0:
        raise ValueError("interval must be positive")
    worst = 0.0
    for trace in traces.values():
        series = trace.series(interval_minutes)
        for (_, now), (_, nxt) in zip(series, series[1:] + series[:1]):
            if now > 0:
                worst = max(worst, (nxt - now) / now)
    return worst


@dataclass(frozen=True)
class IntervalRecord:
    """Cluster state for one provisioning interval.

    Attributes:
        hour: Interval start (hour of day).
        loads: Per-model arrival rate.
        allocation: The scheduler's decision.
        provisioned_power_w: Power budget of the activated servers.
        activated_servers: Total activated servers.
        churn: Servers activated/released/switched since the last
            interval, per type.
        coverage_margin: Minimum over models and intra-interval sample
            points of ``allocated capacity / instantaneous load``.  A
            value below 1.0 means the load outgrew the allocation
            before the next provisioning decision -- the failure mode
            the over-provision rate R exists to prevent.
    """

    hour: float
    loads: dict[str, float]
    allocation: Allocation
    provisioned_power_w: float
    activated_servers: int
    churn: dict[str, int] = field(default_factory=dict)
    coverage_margin: float = float("inf")


@dataclass(frozen=True)
class DaySummary:
    """Aggregates of one simulated day (the paper's peak/average rows)."""

    records: tuple[IntervalRecord, ...]

    @property
    def peak_power_w(self) -> float:
        return max(r.provisioned_power_w for r in self.records)

    @property
    def average_power_w(self) -> float:
        return sum(r.provisioned_power_w for r in self.records) / len(self.records)

    @property
    def peak_servers(self) -> int:
        return max(r.activated_servers for r in self.records)

    @property
    def average_servers(self) -> float:
        return sum(r.activated_servers for r in self.records) / len(self.records)

    @property
    def any_shortfall(self) -> bool:
        return any(r.allocation.has_shortfall for r in self.records)

    @property
    def worst_coverage_margin(self) -> float:
        """Smallest intra-interval capacity/load ratio of the day."""
        return min(r.coverage_margin for r in self.records)

    @property
    def intervals_underwater(self) -> int:
        """Intervals whose load outgrew the allocation before the next
        provisioning decision (margin < 1)."""
        return sum(1 for r in self.records if r.coverage_margin < 1.0)

    def power_series(self) -> list[tuple[float, float]]:
        return [(r.hour, r.provisioned_power_w) for r in self.records]


class ClusterManager:
    """Drives one scheduling policy through a diurnal day.

    Args:
        scheduler: The cluster scheduling policy.
        interval_minutes: Provisioning interval.
        over_provision: Rate ``R``; ``None`` estimates it from the
            traces' own history.
    """

    def __init__(
        self,
        scheduler: ClusterScheduler,
        interval_minutes: float = 30.0,
        over_provision: float | None = None,
        validate_minutes: float = 5.0,
    ) -> None:
        if interval_minutes <= 0:
            raise ValueError("interval must be positive")
        if validate_minutes <= 0:
            raise ValueError("validate_minutes must be positive")
        self.scheduler = scheduler
        self.interval_minutes = interval_minutes
        self.over_provision = over_provision
        self.validate_minutes = validate_minutes

    def _coverage_margin(
        self,
        allocation,
        traces: dict[str, DiurnalTrace],
        start_hour: float,
    ) -> float:
        """Min capacity/load ratio at fine sample points of one interval."""
        margin = float("inf")
        steps = max(1, int(round(self.interval_minutes / self.validate_minutes)))
        for i in range(steps):
            hour = (start_hour + i * self.validate_minutes / 60.0) % 24.0
            for name, trace in traces.items():
                load = trace.load_at(hour)
                if load <= 0:
                    continue
                capacity = allocation.capacity_qps(self.scheduler.table, name)
                margin = min(margin, capacity / load)
        return margin

    def run_day(self, traces: dict[str, DiurnalTrace]) -> DaySummary:
        """Simulate one day of provisioning decisions."""
        if not traces:
            raise ValueError("need at least one workload trace")
        rate = (
            self.over_provision
            if self.over_provision is not None
            else estimate_over_provision(traces, self.interval_minutes)
        )
        state = ClusterStateTable(fleet=dict(self.scheduler.fleet))
        records = []
        steps = int(round(24.0 * 60.0 / self.interval_minutes))
        for step in range(steps):
            hour = step * self.interval_minutes / 60.0
            loads = {name: t.load_at(hour) for name, t in traces.items()}
            allocation = self.scheduler.allocate(loads, over_provision=rate)
            churn = state.transition_to(allocation)
            records.append(
                IntervalRecord(
                    hour=hour,
                    loads=loads,
                    allocation=allocation,
                    provisioned_power_w=allocation.provisioned_power_w(
                        self.scheduler.table
                    ),
                    activated_servers=allocation.total_servers,
                    churn=churn,
                    coverage_margin=self._coverage_margin(
                        allocation, traces, hour
                    ),
                )
            )
        return DaySummary(records=tuple(records))

    def replay_request_level(
        self,
        traces: dict[str, DiurnalTrace],
        models: "dict[str, RecommendationModel]",
        workloads: "dict[str, QueryWorkload] | None" = None,
        policy: str = "p2c",
        sim_seconds_per_interval: float = 2.0,
        load_scale: float = 1.0,
        stride: int = 1,
        seed: int = 0,
    ) -> "list[tuple[float, FleetResult]]":
        """Replay the day's allocations at request granularity.

        For every ``stride``-th provisioning interval, the interval's
        allocation is instantiated as a fleet of discrete-event server
        pipelines and the interval's load is replayed as a Poisson
        query stream through the given routing policy -- turning the
        closed-form coverage margins of :meth:`run_day` into measured
        p99/SLA-violation numbers (any :class:`ClusterScheduler` works).

        Args:
            traces: The diurnal day to provision and replay.
            models: Model objects per name (for stage pipelines/SLAs).
            workloads: Query-size distributions (defaults per model).
            policy: Routing-policy registry name.
            sim_seconds_per_interval: Simulated seconds of traffic per
                replayed interval (intervals are time-compressed).
            load_scale: Scales arrival rates (and nothing else) to keep
                large clusters affordable to replay.
            stride: Replay every ``stride``-th interval.
            seed: Trace/policy RNG seed.

        Returns:
            ``(hour, FleetResult)`` pairs for the replayed intervals.
        """
        from repro.fleet import FleetSimulator, build_fleet, build_fleet_trace
        from repro.sim.queries import QueryWorkload

        if stride < 1:
            raise ValueError("stride must be >= 1")
        if sim_seconds_per_interval <= 0:
            raise ValueError("sim_seconds_per_interval must be positive")
        day = self.run_day(traces)
        sla_ms = {name: model.sla_ms for name, model in models.items()}
        resolved = {
            name: (workloads or {}).get(name)
            or QueryWorkload.for_model(model.config.mean_query_size)
            for name, model in models.items()
        }
        results: list[tuple[float, "FleetResult"]] = []
        for i, record in enumerate(day.records):
            if i % stride:
                continue
            if not record.allocation.counts:
                continue
            segments = {
                name: [(load * load_scale, sim_seconds_per_interval)]
                for name, load in record.loads.items()
                if load > 0
            }
            if not segments:
                continue
            servers = build_fleet(record.allocation, self.scheduler.table, models, resolved)
            trace = build_fleet_trace(resolved, segments, seed=seed + i)
            if not trace:
                continue
            sim = FleetSimulator(servers, policy=policy, sla_ms=sla_ms, seed=seed + i)
            results.append(
                (record.hour, sim.run(trace, warmup_s=sim_seconds_per_interval * 0.1))
            )
        return results
