"""Fault-aware provisioning: close the availability -> ``R`` loop.

The paper's provisioner picks an over-provision rate ``R`` up front and
sizes the cluster so every model's capacity covers ``load * (1 + R)``
(Section IV-C).  That choice is blind to how the fleet actually
degrades when replicas crash: the same ``R`` that is wasteful on a
reliable fleet is hopeless under correlated rack outages.  This module
closes the loop the way the HPC-characterization literature insists on
-- *measure*, don't assume: it replays the fault-injected fleet,
measures the service availability the allocation actually delivers,
and feeds that measurement back into ``R`` until the smallest rate
meeting a target availability is found.  The answer to "how much
standby capacity does a target availability cost in power?" falls out
as the power delta between that fixpoint and the fault-blind baseline.

Two availability notions appear throughout, both reported:

- **service availability** -- the fraction of offered queries served
  within their SLA (completions under SLA over completed + failed +
  dropped).  This is the SLO-style number a serving tier is judged by,
  and the one capacity can buy: headroom absorbs a crashed replica's
  re-routed load before the survivors' tails blow through the SLA.
- **uptime availability** -- the replica-seconds-based uptime fraction
  the fleet report already carries.  Standby capacity cannot raise it
  (crashes happen regardless); it contextualizes the service number.

The search is deterministic given (trace, schedule, seed): it first
brackets the target by geometric growth of ``R`` from ``r_min``, then
bisects the bracket down to ``r_tol``, evaluating each candidate ``R``
with one full fault-injected replay.  Service availability is treated
as monotone in ``R`` (more headroom never hurts absorption); the
stochastic wiggle around that trend is what ``r_tol`` tolerates.

Entry points: :func:`provision_fault_aware` (library),
``python -m repro.cli provision-fault-aware`` (CLI),
``benchmarks/bench_fault_aware_provisioning.py`` (the power-vs-
availability frontier sweep).

:func:`provision_carbon_aware` runs the same search routine, with no
fault schedule and no baseline point, to answer the sibling question
"what is the *lowest-carbon* fleet that still meets a target service
availability?": it bisects ``R`` down to the smallest rate whose
fault-free replay meets the target (fewer replicas = less energy =
less carbon), then -- on that fixed fleet's measured activation
profile -- grid-sweeps the deferrable executor over (policy, power
cap, deferral horizon) combinations and picks the one emitting the
least gCO2 while completing every batch job.  The sweep prices each
combination with :func:`~repro.carbon.run_deferrable` alone (no fleet
replay), so its cost is O(jobs x breakpoints) per point.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.analysis import format_table
from repro.cluster.provision import standby_power_w
from repro.cluster.state import Allocation
from repro.fleet.engine import FleetSimulator, build_fleet
from repro.fleet.report import FleetResult

if TYPE_CHECKING:
    from repro.carbon.deferrable import DeferrableJob
    from repro.carbon.trace import CarbonTrace
    from repro.fleet.faults import FaultSchedule
    from repro.models.zoo import RecommendationModel
    from repro.scheduling.profiler import ClassificationTable
    from repro.sim.queries import Query, QueryWorkload

__all__ = [
    "ProvisionEval",
    "FaultAwareProvisioning",
    "provision_fault_aware",
    "service_availability",
    "CarbonPlanPoint",
    "CarbonAwareProvisioning",
    "provision_carbon_aware",
]

#: First bracketing step when the search starts at ``r_min == 0``.
_FIRST_STEP = 0.1


def _search_min_r(
    scheduler, table, models, workloads, trace, loads, *, sla_ms,
    target_availability, policy, seed, core, percentile_mode, warmup_s,
    r_min, r_max, r_tol, max_evals, faults=None, baseline_r=None,
    retries=0, hedge_ms=None,
):
    """Bracket-then-bisect the smallest ``R`` whose replay meets a target.

    The one search routine of :func:`provision_fault_aware` and
    :func:`provision_carbon_aware` (arguments as theirs).  Each
    candidate ``R`` is priced by one replay of ``trace`` over
    ``scheduler.allocate(loads, over_provision=R)``; ``baseline_r``,
    when given, is evaluated first and its replay does not count
    against ``max_evals``.  Stage 1+2 bracket the target from below by
    geometric growth of ``R`` from ``r_min``; stage 3 bisects the
    bracket down to ``r_tol``.

    A per-``R`` memo makes revisiting a rate free, and a per-allocation
    cache replays each distinct allocation once (nearby rates often
    integerize to the same one).  That cache keeps ``(FleetResult,
    servers, last_horizon_s)`` -- the replicas carry the activation
    windows carbon pricing reads -- and never the simulator, so a
    tracked replay's per-query log dies with its evaluation.

    Returns ``(chosen_r, points, evaluations, replays)``: the lowest
    passing ``R`` (None when no evaluated rate met the target -- fleet
    exhausted or ``r_max`` reached), the memo ``{r: (ProvisionEval,
    Allocation, (FleetResult, servers, last_horizon_s))}``, every point
    in evaluation order, and the replay count.
    """
    if not 0.0 < target_availability <= 1.0:
        raise ValueError("target_availability must be in (0, 1]")
    if r_min < 0.0 or r_max < r_min:
        raise ValueError("need 0 <= r_min <= r_max")
    if r_tol <= 0.0:
        raise ValueError("r_tol must be > 0")
    if max_evals < 2:
        raise ValueError("max_evals must be >= 2")
    if isinstance(trace, Iterator):
        # A one-shot stream cannot be replayed per candidate R;
        # re-iterable sources (lists, FleetArrivals, RecordedTrace)
        # pass through and are re-streamed by every evaluation.
        trace = list(trace)

    points: dict[float, tuple[ProvisionEval, Allocation, tuple]] = {}
    replays: dict[tuple, tuple[FleetResult, list, float]] = {}
    order: list[ProvisionEval] = []

    def evaluate(r: float) -> ProvisionEval:
        if r in points:
            return points[r][0]
        allocation = scheduler.allocate(loads, over_provision=r)
        needed = 0 if faults is None else faults.min_fleet_size()
        if allocation.total_servers < needed:
            # Index-targeted faults (crash@T:IDX, domain:LO-HI) name
            # concrete fleet positions, but the search sizes the fleet
            # per R -- fail actionably instead of deep in the replay.
            raise ValueError(
                f"fault schedule targets replica/domain positions needing "
                f">= {needed} replicas, but the allocation at R={r:.3f} has "
                f"only {allocation.total_servers}; use fleet-size-adaptive "
                "forms (domain:size=K, random:...) with the provisioning "
                "search, or raise the offered load / r_min"
            )
        key = tuple(sorted(allocation.counts.items()))
        replay = replays.get(key)
        if replay is None:
            sim = FleetSimulator(
                build_fleet(allocation, table, models, workloads),
                policy=policy,
                sla_ms=sla_ms,
                seed=seed,
                faults=faults,
                retries=retries,
                hedge_ms=hedge_ms,
                core=core,
                percentile_mode=percentile_mode,
            )
            result = sim.run(trace, warmup_s=warmup_s)
            replay = replays[key] = (result, sim.servers, sim.last_horizon_s)
        result = replay[0]
        avail = service_availability(result)
        ev = ProvisionEval(
            r=r,
            servers=allocation.total_servers,
            provisioned_power_w=allocation.provisioned_power_w(table),
            service_availability=avail,
            uptime_availability=result.availability,
            worst_violation_rate=result.worst_violation_rate,
            meets_target=avail >= target_availability,
            shortfall_qps=sum(allocation.shortfall.values()),
        )
        points[r] = (ev, allocation, replay)
        order.append(ev)
        return ev

    if baseline_r is not None:
        evaluate(baseline_r)
    baseline_replays = len(replays)

    def searched() -> int:
        """Replays spent on the search proper."""
        return len(replays) - baseline_replays

    lo: float | None = None  # highest R known to fail
    hi: float | None = None  # lowest R known to pass
    ev = evaluate(r_min)
    if ev.meets_target:
        hi = r_min
    else:
        lo = r_min
        while searched() < max_evals:
            if ev.shortfall_qps > 0 or lo >= r_max - 1e-12:
                break  # the fleet cannot buy more coverage
            r = min(r_max, max(2.0 * lo, _FIRST_STEP))
            ev = evaluate(r)
            if ev.meets_target:
                hi = r
                break
            lo = r
    while (
        hi is not None
        and lo is not None
        and hi - lo > r_tol
        and searched() < max_evals
    ):
        mid = 0.5 * (lo + hi)
        ev = evaluate(mid)
        if ev.meets_target:
            hi = mid
        else:
            lo = mid
    return hi, points, tuple(order), len(replays)


def service_availability(result: FleetResult) -> float:
    """Fraction of offered demand served within SLA across all models.

    ``1 - total violations / total demand`` where demand is completed +
    failed + dropped queries and violations are over-SLA completions
    plus every failed/dropped query (exactly the populations behind
    each model's ``violation_rate``).  1.0 for an empty run.
    """
    demand = 0.0
    violations = 0.0
    for stats in result.per_model.values():
        d = stats.completed + stats.failed + stats.dropped
        demand += d
        violations += stats.violation_rate * d
    return 1.0 - violations / demand if demand else 1.0


@dataclass(frozen=True)
class ProvisionEval:
    """One measured point of the availability-vs-``R`` search.

    Attributes:
        r: Over-provision rate this replay used.
        servers: Integer replica count of the allocation.
        provisioned_power_w: LP-objective power budget (profiled peak
            power of every activated replica).
        service_availability: Measured fraction of demand served
            within SLA (see :func:`service_availability`).
        uptime_availability: Measured uptime fraction from the replay.
        worst_violation_rate: Highest per-model SLA-violation rate.
        meets_target: Whether ``service_availability`` reached the
            search target.
        shortfall_qps: Unserved coverage when the fleet ran out of
            servers at this ``R`` (0 when fully covered) -- a nonzero
            shortfall caps the search.
    """

    r: float
    servers: int
    provisioned_power_w: float
    service_availability: float
    uptime_availability: float
    worst_violation_rate: float
    meets_target: bool
    shortfall_qps: float


@dataclass(frozen=True)
class FaultAwareProvisioning:
    """Outcome of one fault-aware provisioning fixpoint search.

    Attributes:
        target_availability: The service-availability target.
        converged: Whether some evaluated ``R`` met the target.
        chosen_r: Smallest evaluated rate meeting the target (None when
            the search failed -- fleet exhausted or ``r_max`` reached).
        allocation / result: The chosen allocation and its measured
            fault-injected replay (None when not converged).
        baseline_r / baseline_allocation / baseline_result: The
            fault-blind provisioner's rate, allocation, and its replay
            under the *same* fault schedule -- what you would have
            shipped without the loop.
        evaluations: Every measured point, in evaluation order.
        replays: Fault-injected replays actually run (baseline
            included) -- at most ``len(evaluations)``, fewer when
            nearby rates integerized to the same allocation.
        provisioned_power_w / baseline_power_w: Power budgets of the
            chosen and baseline allocations.
        standby_power_w: Provisioned power of the replicas the chosen
            allocation holds beyond the baseline (the cost of the
            availability headroom).
    """

    target_availability: float
    converged: bool
    chosen_r: float | None
    allocation: Allocation | None
    result: FleetResult | None
    baseline_r: float
    baseline_allocation: Allocation
    baseline_result: FleetResult
    evaluations: tuple[ProvisionEval, ...]
    replays: int
    provisioned_power_w: float
    baseline_power_w: float
    standby_power_w: float

    @property
    def power_delta_w(self) -> float:
        """Provisioned-power cost of fault awareness vs the blind
        baseline (negative when the loop proves a *smaller* ``R``
        suffices)."""
        return self.provisioned_power_w - self.baseline_power_w

    @property
    def baseline_meets_target(self) -> bool:
        return (
            service_availability(self.baseline_result) >= self.target_availability
        )

    def format(self, title: str = "") -> str:
        """Render the search trajectory and the chosen-vs-blind verdict."""
        rows = [
            [
                f"{ev.r:.3f}",
                ev.servers,
                f"{ev.provisioned_power_w / 1e3:.2f}",
                f"{ev.service_availability * 100:.3f}%",
                f"{ev.uptime_availability * 100:.2f}%",
                f"{ev.worst_violation_rate * 100:.2f}%",
                "yes" if ev.meets_target else "no",
            ]
            for ev in self.evaluations
        ]
        table = format_table(
            ["R", "servers", "prov kW", "svc avail", "uptime", "worst viol", "meets"],
            rows,
            title=title
            or (
                "fault-aware provisioning "
                f"(target availability {self.target_availability * 100:.2f}%)"
            ),
        )
        lines = [table]
        base_avail = service_availability(self.baseline_result)
        lines.append(
            f"fault-blind baseline R={self.baseline_r:.3f}: "
            f"{self.baseline_allocation.total_servers} servers, "
            f"{self.baseline_power_w / 1e3:.2f} kW provisioned, measured "
            f"service availability {base_avail * 100:.3f}%"
        )
        if self.converged:
            chosen = self.result
            lines.append(
                f"chosen R={self.chosen_r:.3f}: "
                f"{self.allocation.total_servers} servers, "
                f"{self.provisioned_power_w / 1e3:.2f} kW provisioned "
                f"({self.power_delta_w / 1e3:+.2f} kW vs fault-blind, standby "
                f"power {self.standby_power_w / 1e3:.2f} kW)"
            )
            lines.append(
                f"measured at chosen R: service availability "
                f"{service_availability(chosen) * 100:.3f}%, uptime "
                f"{chosen.availability * 100:.2f}%, drawn fleet power "
                f"{chosen.avg_power_w / 1e3:.2f} kW"
            )
        else:
            lines.append(
                "did not converge: no evaluated R met the target "
                "(fleet exhausted or r_max reached) -- best effort shown above"
            )
        return "\n".join(lines)


def provision_fault_aware(
    scheduler,
    table: "ClassificationTable",
    models: "dict[str, RecommendationModel]",
    workloads: "dict[str, QueryWorkload]",
    trace: Sequence[tuple[str, "Query"]],
    loads: dict[str, float],
    faults: "FaultSchedule",
    *,
    sla_ms: dict[str, float],
    target_availability: float = 0.999,
    baseline_r: float = 0.05,
    policy: str = "p2c",
    retries: int = 2,
    hedge_ms: float | None = None,
    seed: int = 0,
    core: str = "auto",
    percentile_mode: str = "exact",
    warmup_s: float = 0.0,
    r_min: float = 0.0,
    r_max: float = 1.0,
    r_tol: float = 0.02,
    max_evals: int = 12,
) -> FaultAwareProvisioning:
    """Iterate the fleet replay to the smallest ``R`` meeting a target.

    Each candidate over-provision rate is priced by one deterministic
    fault-injected replay of ``trace`` over the allocation
    ``scheduler.allocate(loads, over_provision=R)`` -- measured service
    availability decides whether ``R`` passes.  The search brackets the
    target geometrically from ``r_min`` and bisects to ``r_tol``; every
    replay shares the same trace, schedule, and seed, so the whole
    search is reproducible bit-for-bit.

    Args:
        scheduler: Cluster scheduler with an
            ``allocate(loads, over_provision=)`` method (typically
            :class:`~repro.cluster.schedulers.HerculesClusterScheduler`).
        table: Offline-profiled efficiency tuples for the fleet.
        models / workloads: Model objects and query workloads by name.
        trace: The ``(model, query)`` arrival traffic every evaluation
            replays -- a materialized list, or a *re-iterable* arrival
            source (:class:`~repro.traces.FleetArrivals`,
            :class:`~repro.traces.RecordedTrace`): each candidate ``R``
            restarts the stream, so identical traffic prices every
            allocation.  A one-shot iterator is materialized once up
            front.
        loads: Per-model demand (QPS) the provisioner must cover.
        faults: Fault schedule applied to every replay (its domains, if
            declared, also steer hedging and standby activation).
        sla_ms: Per-model SLA targets for violation accounting.
        target_availability: Service-availability target in (0, 1].
        baseline_r: The fault-blind rate to compare against (the ``R``
            you would have shipped without measuring).
        policy / retries / hedge_ms / seed / core: Fleet-replay knobs,
            as on :class:`~repro.fleet.engine.FleetSimulator`.  A plain
            schedule with ``retries=0``, no hedging and any built-in
            routing policy replays on the vector core's segmented fault
            path; the default ``retries=2`` needs the per-event python
            core, so ``core="auto"`` logs the fallback and
            ``core="vector"`` raises.
        percentile_mode: Report percentile machinery for every replay
            (``"exact"`` or ``"sketch"``).  The availability the search
            thresholds on is *exact* in both modes -- it is built from
            completion/failure counts and replica uptime, not from
            percentiles -- so sketch mode trades only report-percentile
            precision for O(models) replay memory on long traces.
        warmup_s: Replay warmup excluded from the statistics.
        r_min / r_max: Search bounds for ``R``.
        r_tol: Bisection width at which the search stops; the chosen
            ``R`` is at most this far above the true threshold.
        max_evals: Hard cap on fault-injected replays (excluding the
            baseline replay).
    """
    # The fault-blind point is what baseline_r actually delivers under
    # the measured fault behaviour (memoized into the search when the
    # bracketing happens to revisit it).
    hi, points, evaluations, replays = _search_min_r(
        scheduler, table, models, workloads, trace, loads, sla_ms=sla_ms,
        target_availability=target_availability, policy=policy, seed=seed,
        core=core, percentile_mode=percentile_mode, warmup_s=warmup_s,
        r_min=r_min, r_max=r_max, r_tol=r_tol, max_evals=max_evals,
        faults=faults, baseline_r=baseline_r, retries=retries,
        hedge_ms=hedge_ms,
    )
    base_ev, base_alloc, (base_result, _, _) = points[baseline_r]
    converged = hi is not None
    chosen_alloc = chosen_result = None
    chosen_power = 0.0
    standby_w = 0.0
    if converged:
        chosen_ev, chosen_alloc, (chosen_result, _, _) = points[hi]
        chosen_power = chosen_ev.provisioned_power_w
        standby_w = standby_power_w(chosen_alloc, base_alloc, table)
    return FaultAwareProvisioning(
        target_availability=target_availability,
        converged=converged,
        chosen_r=hi,
        allocation=chosen_alloc,
        result=chosen_result,
        baseline_r=baseline_r,
        baseline_allocation=base_alloc,
        baseline_result=base_result,
        evaluations=evaluations,
        replays=replays,
        provisioned_power_w=chosen_power,
        baseline_power_w=base_ev.provisioned_power_w,
        standby_power_w=standby_w,
    )


# ----------------------------------------------------------------------
# Carbon-aware provisioning: the lowest-carbon fleet meeting a target
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CarbonPlanPoint:
    """One (policy, cap, horizon) point of the deferrable-plan sweep.

    Attributes:
        policy: Deferrable scheduling policy evaluated.
        power_cap_w: Fleet power cap the executor honored (None =
            uncapped).
        deferral_horizon_s: Cap on completion slip past each job's
            natural finish (None = deadline-bound only).
        completed / dropped / suspended: Terminal job counts.
        deferrable_g: Batch-job emissions of this plan (gCO2).
        feasible: Whether every submitted job completed -- only
            feasible points compete for the chosen plan.
    """

    policy: str
    power_cap_w: float | None
    deferral_horizon_s: float | None
    completed: int
    dropped: int
    suspended: int
    deferrable_g: float
    feasible: bool


@dataclass(frozen=True)
class CarbonAwareProvisioning:
    """Outcome of one carbon-aware provisioning search.

    Attributes:
        target_availability: The service-availability target.
        converged: Whether some evaluated ``R`` met the target.
        chosen_r: Smallest evaluated rate meeting the target (None when
            the search failed).
        allocation: The chosen allocation (None when not converged).
        result: The chosen allocation's replay with the winning
            deferrable plan's carbon accounting attached (None when not
            converged).
        evaluations: Every measured availability-vs-``R`` point, in
            evaluation order (``realtime carbon`` falls out of each
            replay's :class:`~repro.fleet.report.CarbonStats`).
        plan: Every (policy, cap, horizon) sweep point, in sweep order
            (empty when the run carried no deferrable jobs).
        chosen_plan: The feasible sweep point with the least batch
            emissions (None when no point was feasible or no jobs).
        no_wait_g: Batch emissions of the uncapped no-wait baseline --
            what running every job immediately would emit.
        replays: Fleet replays actually run (allocation-deduplicated).
        provisioned_power_w: Power budget of the chosen allocation.
    """

    target_availability: float
    converged: bool
    chosen_r: float | None
    allocation: Allocation | None
    result: FleetResult | None
    evaluations: tuple[ProvisionEval, ...]
    plan: tuple[CarbonPlanPoint, ...]
    chosen_plan: CarbonPlanPoint | None
    no_wait_g: float
    replays: int
    provisioned_power_w: float

    @property
    def total_g(self) -> float:
        """Fleet-wide emissions of the chosen operating point."""
        if self.result is None or self.result.carbon is None:
            return 0.0
        return self.result.carbon.total_g

    @property
    def deferral_savings_g(self) -> float:
        """Batch emissions avoided vs running every job immediately."""
        if self.chosen_plan is None:
            return 0.0
        return self.no_wait_g - self.chosen_plan.deferrable_g

    def format(self, title: str = "") -> str:
        """Render the R search, the plan sweep, and the verdict."""
        rows = [
            [
                f"{ev.r:.3f}",
                ev.servers,
                f"{ev.provisioned_power_w / 1e3:.2f}",
                f"{ev.service_availability * 100:.3f}%",
                f"{ev.worst_violation_rate * 100:.2f}%",
                "yes" if ev.meets_target else "no",
            ]
            for ev in self.evaluations
        ]
        table = format_table(
            ["R", "servers", "prov kW", "svc avail", "worst viol", "meets"],
            rows,
            title=title
            or (
                "carbon-aware provisioning "
                f"(target availability {self.target_availability * 100:.2f}%)"
            ),
        )
        lines = [table]
        if self.plan:
            plan_rows = [
                [
                    pt.policy,
                    "-" if pt.power_cap_w is None else f"{pt.power_cap_w / 1e3:.2f}",
                    "-" if pt.deferral_horizon_s is None else f"{pt.deferral_horizon_s:.0f}",
                    pt.completed,
                    pt.dropped,
                    f"{pt.deferrable_g:.2f}",
                    "yes" if pt.feasible else "no",
                ]
                for pt in self.plan
            ]
            lines.append(
                format_table(
                    ["policy", "cap kW", "horizon s", "done", "dropped", "gCO2", "feasible"],
                    plan_rows,
                    title="deferrable plan sweep",
                )
            )
        if not self.converged:
            lines.append(
                "did not converge: no evaluated R met the target "
                "(fleet exhausted or r_max reached)"
            )
            return "\n".join(lines)
        carbon = self.result.carbon
        lines.append(
            f"chosen R={self.chosen_r:.3f}: "
            f"{self.allocation.total_servers} servers, "
            f"{self.provisioned_power_w / 1e3:.2f} kW provisioned, "
            f"realtime {carbon.realtime_g:.2f} gCO2"
        )
        if self.chosen_plan is not None:
            pt = self.chosen_plan
            cap = "uncapped" if pt.power_cap_w is None else f"cap {pt.power_cap_w / 1e3:.2f} kW"
            horizon = (
                "deadline-bound"
                if pt.deferral_horizon_s is None
                else f"horizon {pt.deferral_horizon_s:.0f} s"
            )
            lines.append(
                f"chosen plan: {pt.policy} ({cap}, {horizon}) -- "
                f"{pt.completed} jobs at {pt.deferrable_g:.2f} gCO2, "
                f"{self.deferral_savings_g:+.2f} g saved vs no-wait "
                f"(total {carbon.total_g:.2f} gCO2)"
            )
        elif self.plan:
            lines.append(
                "no feasible deferrable plan: every sweep point dropped "
                "or suspended at least one job"
            )
        return "\n".join(lines)


def provision_carbon_aware(
    scheduler,
    table: "ClassificationTable",
    models: "dict[str, RecommendationModel]",
    workloads: "dict[str, QueryWorkload]",
    trace: Sequence[tuple[str, "Query"]],
    loads: dict[str, float],
    carbon: "CarbonTrace",
    *,
    sla_ms: dict[str, float],
    jobs: "Sequence[DeferrableJob]" = (),
    policies: Sequence[str] | None = None,
    power_caps: Sequence[float | None] = (None,),
    deferral_horizons: Sequence[float | None] = (None,),
    target_availability: float = 0.999,
    policy: str = "p2c",
    seed: int = 0,
    core: str = "auto",
    percentile_mode: str = "exact",
    warmup_s: float = 0.0,
    r_min: float = 0.0,
    r_max: float = 1.0,
    r_tol: float = 0.02,
    max_evals: int = 12,
) -> CarbonAwareProvisioning:
    """Find the lowest-carbon operating point meeting an availability.

    Two nested searches share one deterministic replay budget:

    1. **Fleet size.**  The search routine of
       :func:`provision_fault_aware` finds the smallest over-provision
       rate ``R`` whose fault-free replay meets ``target_availability``
       (no baseline point, no retries or hedging) -- the smallest
       fleet is the lowest-carbon fleet, because every additional
       replica burns energy at the same grid intensity.
    2. **Deferrable plan.**  On the chosen fleet's *measured*
       activation profile, every (policy, power cap, deferral horizon)
       combination from ``policies`` x ``power_caps`` x
       ``deferral_horizons`` is priced with the deferrable executor
       alone -- no further fleet replays -- and the feasible point
       (all jobs completed) with the least batch emissions wins.  Ties
       keep the earliest sweep point, so narrower policy lists and
       cap/horizon orders are stable knobs.

    Args mirror :func:`provision_fault_aware` where shared; new ones:

    Args:
        carbon: The grid carbon-intensity trace pricing every joule.
        jobs: Deferrable batch jobs to place (empty = realtime only).
        policies: Deferrable policies to sweep (default: all of
            :data:`~repro.carbon.DEFERRABLE_POLICIES`).
        power_caps: Fleet power caps (W) to sweep; None = uncapped.
        deferral_horizons: Deferral horizons (s) to sweep; None =
            deadline-bound only.
    """
    from repro.carbon.accounting import attach_carbon, realtime_power_profile
    from repro.carbon.deferrable import DEFERRABLE_POLICIES, run_deferrable

    if policies is None:
        policies = DEFERRABLE_POLICIES
    for name in policies:
        if name not in DEFERRABLE_POLICIES:
            raise ValueError(
                f"unknown deferrable policy {name!r}; one of "
                f"{', '.join(DEFERRABLE_POLICIES)}"
            )
    hi, points, evaluations, replays = _search_min_r(
        scheduler, table, models, workloads, trace, loads, sla_ms=sla_ms,
        target_availability=target_availability, policy=policy, seed=seed,
        core=core, percentile_mode=percentile_mode, warmup_s=warmup_s,
        r_min=r_min, r_max=r_max, r_tol=r_tol, max_evals=max_evals,
    )
    converged = hi is not None
    chosen_alloc = chosen_result = None
    chosen_power = 0.0
    plan: list[CarbonPlanPoint] = []
    chosen_plan: CarbonPlanPoint | None = None
    no_wait_g = 0.0
    if converged:
        chosen_ev, chosen_alloc, (chosen_result, servers, horizon) = points[hi]
        chosen_power = chosen_ev.provisioned_power_w
        best_report = None
        if jobs:
            profile = realtime_power_profile(servers)
            baseline = run_deferrable(
                jobs, carbon, policy="no-wait", horizon_s=horizon,
                realtime_profile=profile,
            )
            no_wait_g = baseline.total_gco2
            for plc in policies:
                for cap in power_caps:
                    for dh in deferral_horizons:
                        report = run_deferrable(
                            jobs, carbon, policy=plc, horizon_s=horizon,
                            power_cap_w=cap, realtime_profile=profile,
                            deferral_horizon_s=dh,
                        )
                        point = CarbonPlanPoint(
                            policy=plc,
                            power_cap_w=cap,
                            deferral_horizon_s=dh,
                            completed=report.completed,
                            dropped=report.dropped,
                            suspended=report.suspended,
                            deferrable_g=report.total_gco2,
                            feasible=report.completed == report.submitted,
                        )
                        plan.append(point)
                        if point.feasible and (
                            chosen_plan is None
                            or point.deferrable_g < chosen_plan.deferrable_g
                        ):
                            chosen_plan = point
                            best_report = report
        # Price the chosen replay once, with the winning plan (if any),
        # so result.carbon reports the full operating point.
        chosen_result = attach_carbon(
            chosen_result, servers, carbon, horizon, best_report
        )
    return CarbonAwareProvisioning(
        target_availability=target_availability,
        converged=converged,
        chosen_r=hi,
        allocation=chosen_alloc,
        result=chosen_result,
        evaluations=evaluations,
        plan=tuple(plan),
        chosen_plan=chosen_plan,
        no_wait_g=no_wait_g,
        replays=replays,
        provisioned_power_w=chosen_power,
    )
