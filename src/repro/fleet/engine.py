"""Request-level discrete-event simulation of a whole serving fleet.

The single-node simulator answers "what does one server's tail look
like"; this engine answers the cluster question the paper's prototype
measures with its load generator (Fig. 13): given a provisioned
allocation, a routing policy, and a shared diurnal multi-model trace,
what p50/p99, SLA-violation rate, and power does the *fleet* deliver?

Design notes (performance matters -- 50 servers x 100k queries must
stay interactive):

- One global event heap drives every server, but arrivals never enter
  it: the engine merges the time-sorted arrival list with the heap
  (:mod:`repro.sim.event_core`), so heap traffic is proportional to
  batch completions only.
- Replicas whose pipeline is a single SPLIT stage -- every CPU
  placement -- run on the event core's :class:`DirectStage`
  recurrence: the query's completion time is computed exactly at
  arrival and one completion event is scheduled, instead of an event
  per sub-batch.  FUSE-bearing (accelerator) pipelines keep the full
  event path, since batch formation there depends on queue state.
- Stage pipelines and closed-form timings are memoized per
  (server type, model, plan) through :mod:`repro.sim.plan_cache`;
  fifty replicas of the same triple share one evaluation *and* one set
  of quantized service-time tables.
- Queries are routed at arrival by a per-model
  :class:`~repro.fleet.routing.RoutingPolicy`; an optional
  :class:`~repro.fleet.autoscaler.ReactiveAutoscaler` activates or
  drains replicas between provisioning intervals based on windowed
  SLA-violation rates.
- The hot loops live in :mod:`repro.fleet.faults`: every run without
  retries, hedging or tracing takes the *light* loop, which handles a
  fault schedule between queries and is the exact pre-fault loop when
  there is none; the rest take the *tracked* loop
  (``tests/test_perf_equivalence.py`` pins both).
"""

from __future__ import annotations

import gc
import logging
from contextlib import contextmanager
from heapq import heappush
from typing import Sequence

from repro.cluster.state import Allocation
from repro.fleet.faults import _run_light_loop, run_fault_loop
from repro.fleet.report import (
    FleetResult,
    ModelStats,
    ServerStats,
    fleet_power_summary,
)
from repro.fleet.routing import (
    LeastOutstandingPolicy,
    PowerOfTwoPolicy,
    RoutingPolicy,
    make_policy,
)
from repro.hardware.server import ServerType, get_server_type
from repro.models.zoo import RecommendationModel
from repro.scheduling.profiler import ClassificationTable
from repro.sim import plan_cache
from repro.sim.evaluator import PlanTimings
from repro.sim.event_core import DirectStage, EventHeap, Pipeline
from repro.sim.queries import Query, QueryWorkload
from repro.traces.arrivals import FleetArrivals, PiecewisePoissonProcess

_LOG = logging.getLogger(__name__)

#: Valid ``FleetSimulator(core=...)`` selections.
FLEET_CORES = ("auto", "python", "vector")

__all__ = [
    "FleetServer",
    "FleetSimulator",
    "build_fleet",
    "build_fleet_trace",
    "diurnal_segments",
]


@contextmanager
def _gc_paused():
    """Keep the generational GC out of a replay.

    The replay loops allocate an event tuple (or batch list) per event
    and never build cycles; collections would only rescan them, which
    costs a few percent on long replays.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class FleetServer:
    """One provisioned replica: a stage pipeline plus runtime state.

    The stage tuple (with its memo tables) and timings are shared
    across every replica of the same (server type, model, plan);
    queues, free-unit counts, and counters are per-replica.
    Single-stage SPLIT pipelines additionally get a
    :class:`DirectStage` fast path (``direct``).
    """

    __slots__ = (
        "index",
        "server_type",
        "model_name",
        "plan",
        "stages",
        "timings",
        "weight",
        "pipeline",
        "direct",
        "outstanding",
        "completed",
        "completed_in_window",
        "items_done",
        "active",
        "draining",
        "dead",
        "slow_factor",
        "domain",
        "active_s",
        "_active_since",
        "active_windows",
        "wrr_current",
    )

    def __init__(
        self,
        index: int,
        server_type: ServerType,
        model_name: str,
        plan,
        stages: Sequence,
        timings: PlanTimings,
        weight: float,
        active: bool = True,
    ) -> None:
        self.index = index
        self.server_type = server_type
        self.model_name = model_name
        self.plan = plan
        self.pipeline = Pipeline(stages, owner=self)
        self.stages = self.pipeline.stages
        self.direct = (
            DirectStage(self.stages[0])
            if len(self.stages) == 1 and not self.stages[0].is_fuse
            else None
        )
        self.timings = timings
        self.weight = weight  # profiled latency-bounded QPS
        self.outstanding = 0
        self.completed = 0
        self.completed_in_window = 0
        self.items_done = 0
        self.active = active
        self.draining = False
        self.dead = False  # crashed by the fault injector
        self.slow_factor = 1.0  # straggler service-time multiplier
        self.domain = index  # fault domain (singleton unless declared)
        self.active_s = 0.0
        self._active_since = 0.0 if active else None
        self.active_windows: list[tuple[float, float]] = []
        self.wrr_current = 0.0

    def settle(self, now: float) -> None:
        """Close any open activation window at ``now``.

        The window's length folds into ``active_s`` and the closed
        ``(start, now)`` interval is kept in ``active_windows`` -- one
        tuple per window, never one per query -- so carbon pricing
        (:mod:`repro.carbon.accounting`) can spread the replica's power
        over the intervals it was actually active.
        """
        if self._active_since is not None:
            self.active_s += now - self._active_since
            self.active_windows.append((self._active_since, now))
            self._active_since = None

    def power_w(self) -> float:
        """Wall power over the replica's active window (idle if unused)."""
        if self.active_s <= 0.0:
            return 0.0
        items_per_s = self.items_done / self.active_s
        return self.timings.power_at(self.server_type, items_per_s)[3]


def build_fleet(
    allocation: Allocation,
    table: ClassificationTable,
    models: dict[str, RecommendationModel],
    workloads: dict[str, QueryWorkload] | None = None,
    standby: Allocation | None = None,
) -> list[FleetServer]:
    """Instantiate replicas for a scheduler's allocation.

    Every (server type, model) cell becomes ``count`` replicas running
    the plan the offline profiler recorded for that pair; ``standby``
    adds inactive replicas the autoscaler may bring online.
    """
    servers: list[FleetServer] = []

    def instantiate(alloc: Allocation, active: bool) -> None:
        for (srv_name, model_name), count in sorted(alloc.counts.items()):
            tup = table.get(srv_name, model_name)
            if tup.plan is None:
                raise ValueError(
                    f"({srv_name}, {model_name}) has no feasible plan to replay"
                )
            model = models[model_name]
            workload = (workloads or {}).get(
                model_name
            ) or QueryWorkload.for_model(model.config.mean_query_size)
            server_type = get_server_type(srv_name)
            stages = plan_cache.stages_for(server_type, model, workload, tup.plan)
            timings = plan_cache.timings_for(server_type, model, workload, tup.plan)
            for _ in range(count):
                servers.append(
                    FleetServer(
                        index=len(servers),
                        server_type=server_type,
                        model_name=model_name,
                        plan=tup.plan,
                        stages=stages,
                        timings=timings,
                        weight=tup.qps,
                        active=active,
                    )
                )

    instantiate(allocation, active=True)
    if standby is not None:
        instantiate(standby, active=False)
    return servers


def diurnal_segments(
    trace, duration_s: float, steps: int = 24, load_scale: float = 1.0
) -> list[tuple[float, float]]:
    """Compress a one-day diurnal profile into ``duration_s`` seconds.

    Returns ``(qps, segment_duration)`` pairs: instantaneous rates keep
    their diurnal shape while the day is replayed in compressed time.
    """
    if duration_s <= 0 or steps < 1:
        raise ValueError("need positive duration and at least one segment")
    seg = duration_s / steps
    return [
        (max(trace.load_at(24.0 * i / steps) * load_scale, 1e-9), seg)
        for i in range(steps)
    ]


def build_fleet_trace(
    workloads: dict[str, QueryWorkload],
    segments: dict[str, Sequence[tuple[float, float]]],
    seed: int = 0,
) -> list[tuple[str, Query]]:
    """Merge per-model Poisson segments into one arrival-sorted trace.

    Thin adapter over :mod:`repro.traces`: builds one
    :class:`~repro.traces.PiecewisePoissonProcess` per model and
    materializes the merged :class:`~repro.traces.FleetArrivals`
    stream.  Draw sequence and merge order are bit-identical to the
    historical in-place implementation (pinned by
    ``tests/test_perf_equivalence.py``); pass the ``FleetArrivals``
    object itself to :meth:`FleetSimulator.run` to skip the
    materialization entirely.

    Args:
        workloads: Query-size/pooling distributions per model.
        segments: Per-model ``(qps, duration_s)`` chain; segments are
            laid back to back starting at t=0.
        seed: Base RNG seed (each model/segment draws independently).
    """
    processes = {
        model: PiecewisePoissonProcess(workloads[model], segs)
        for model, segs in segments.items()
    }
    return list(FleetArrivals(processes, seed=seed))


class FleetSimulator:
    """Event-driven execution of a replica fleet over a multi-model trace.

    After :meth:`run`, ``last_event_count``, ``last_tick_count`` and
    ``last_horizon_s`` (the exact measurement horizon) describe the
    replay on every core.  Carbon pricing is not a replay feature:
    every replica records its activation windows, and a caller prices
    the finished run in gCO2 with :func:`~repro.carbon.attach_carbon`
    (after :func:`~repro.carbon.run_deferrable` for batch jobs) against
    ``last_horizon_s``; see ``docs/carbon.md``.

    Args:
        servers: Replicas from :func:`build_fleet` (active + standby).
        policy: Routing-policy registry name; one independent policy
            instance is created per model stream.
        sla_ms: Per-model SLA targets for violation accounting (and the
            autoscaler's trigger).
        autoscaler: Optional reactive scaler consulted every window.
        seed: Seed for policy randomness (p2c sampling) and for
            materializing stochastic fault schedules.
        faults: Optional :class:`~repro.fleet.faults.FaultSchedule`.
            ``None`` and an empty schedule replay identically.
        retries: Per-query budget of router re-dispatches after a
            crash kills the query's last outstanding attempt.
        hedge_ms: If set, a duplicate attempt is dispatched to a second
            replica once a query has been outstanding this long; the
            query completes at its fastest attempt.
        observer: Optional :class:`~repro.obs.FleetProbe`.  ``None``
            (the default) keeps every loop hook dark -- zero extra
            float operations, pinned bit-identical by
            ``tests/test_perf_equivalence.py``.  A probe with
            ``trace=True`` forces the tracked fault loop so per-query
            spans can be materialized from ``last_query_log``.
        core: Event-core selection.  ``"auto"`` (the default) uses the
            vectorized core (:mod:`repro.sim.fast_core`) when the run
            is eligible -- outstanding-oblivious routing (rr /
            weighted), or p2c or least through their exact per-arrival
            routers (eligibility is decided on the exact
            :class:`PowerOfTwoPolicy` / :class:`LeastOutstandingPolicy`
            class, so a subclass falls back), no retries/hedging/tracing
            (plain fault schedules are fine: they run the segmented
            vectorized fault path, bit-identical to the python light
            loop), no observer -- and otherwise falls back to the exact
            per-event python core, logging every applicable reason
            once.  ``"python"`` forces the per-event core; ``"vector"``
            demands the vectorized core and raises ``ValueError``
            listing *all* ineligibility reasons instead of silently
            degrading.  See ``docs/performance.md`` for the selection
            matrix and the float-reordering caveat.
        percentile_mode: How the report's latency percentiles are
            computed.  ``"exact"`` (the default) stores every measured
            latency and runs ``numpy.percentile`` -- bit-identical to
            every prior release, O(queries) memory.  ``"sketch"`` folds
            completions into P² quantile sketches
            (:mod:`repro.obs.sketch`) as they retire: O(1) memory per
            model, so week-long 10⁸-query replays survive, at the cost
            of estimated p50/p95/p99 (completed/dropped/qps/
            violation-rate stay exact) and an empty ``phases`` tuple.
            Sketch mode requires the per-event python core.
    """

    #: Sharded workers set this so the auto-core fallback is logged
    #: once by the parent process instead of once per shard.
    _quiet_core_fallback = False

    def __init__(
        self,
        servers: Sequence[FleetServer],
        policy: str | RoutingPolicy = "p2c",
        sla_ms: dict[str, float] | None = None,
        autoscaler=None,
        seed: int = 0,
        faults=None,
        retries: int = 0,
        hedge_ms: float | None = None,
        observer=None,
        core: str = "auto",
        percentile_mode: str = "exact",
    ) -> None:
        if not servers:
            raise ValueError("need at least one fleet server")
        if core not in FLEET_CORES:
            raise ValueError(
                f"unknown core {core!r}; choose from {list(FLEET_CORES)}"
            )
        if percentile_mode not in ("exact", "sketch"):
            raise ValueError(
                f"unknown percentile_mode {percentile_mode!r}; "
                "choose 'exact' or 'sketch'"
            )
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if hedge_ms is not None and hedge_ms <= 0.0:
            raise ValueError("hedge_ms must be > 0 (or None to disable)")
        self.servers = list(servers)
        self.sla_ms = dict(sla_ms or {})
        self.autoscaler = autoscaler
        self._policy_spec = policy
        self._seed = seed
        self.faults = faults
        self.retries = int(retries)
        self.hedge_ms = hedge_ms
        self.observer = observer
        self.core = core
        self.percentile_mode = percentile_mode
        self._sketch_stats: dict | None = None
        self.last_query_log: tuple = ()
        if faults is not None and getattr(faults, "domains", None) is not None:
            # Stamp the schedule's rack/power-domain assignment onto the
            # replicas; hedged dispatch and standby activation use it to
            # diversify placement across domains.
            for server, dom in zip(self.servers, faults.domain_map(len(self.servers))):
                server.domain = dom
        self._routable: dict[str, list[FleetServer]] = {}
        self._policies: dict[str, RoutingPolicy] = {}
        self.last_event_count = 0
        self.last_tick_count = 0
        self.last_horizon_s = 0.0
        model_names = sorted({s.model_name for s in self.servers})
        for i, model in enumerate(model_names):
            self._routable[model] = [
                s for s in self.servers if s.model_name == model and s.active
            ]
            if isinstance(policy, RoutingPolicy):
                if len(model_names) > 1:
                    raise ValueError(
                        "pass a policy name (not an instance) for multi-model "
                        "fleets; policies hold per-stream state"
                    )
                self._policies[model] = policy
            else:
                self._policies[model] = make_policy(policy, seed=seed + i)

    @property
    def policy_name(self) -> str:
        return next(iter(self._policies.values())).name

    def _standby_for(self, model: str) -> list[FleetServer]:
        return [
            s
            for s in self.servers
            if s.model_name == model
            and not s.active
            and not s.draining
            and not s.dead
        ]

    def _apply_autoscaler_tick(
        self,
        now: float,
        window_lat: dict,
        window_arrivals: dict,
        window_drops: dict,
        scale_events: list,
        window_failures: dict,
    ) -> None:
        """One autoscaler window: tick, apply decisions, reset the feeds.

        Cold path (fires once per window), shared verbatim by every
        replay loop so scale-event application cannot drift between
        them.
        """
        routable = self._routable
        dead_domains = None
        if self._fault_mode:
            dead_domains = {s.domain for s in self.servers if s.dead}
        decisions = self.autoscaler.tick(
            now,
            window_lat,
            window_arrivals,
            routable,
            self._standby_for,
            window_drops=window_drops,
            window_failures=window_failures,
            dead_domains=dead_domains,
        )
        if self.observer is not None:
            # Decision point + forecast inputs for the control-plane
            # timeline; cold path, fires once per window.
            self.observer.on_autoscaler_tick(now, decisions, self.autoscaler)
        for event in decisions:
            scale_events.append(event)
            scaled = event.server
            if event.action == "activate":
                scaled.active = True
                scaled.draining = False
                scaled._active_since = now
                routable[scaled.model_name].append(scaled)
            else:  # drain
                routable[scaled.model_name].remove(scaled)
                scaled.draining = True
                if scaled.outstanding == 0:
                    scaled.settle(now)
                    scaled.active = False
                    scaled.draining = False
        for m in window_lat:
            window_lat[m] = []
            window_arrivals[m] = 0
        for m in window_drops:
            window_drops[m] = 0
        for m in window_failures:
            window_failures[m] = 0

    @property
    def _tracked(self) -> bool:
        """Whether the run needs per-query records: retries, hedging,
        or a tracing observer (spans are built from the tracked loop's
        per-query log)."""
        return (
            self.retries > 0
            or self.hedge_ms is not None
            or (self.observer is not None and self.observer.trace)
        )

    @property
    def _fault_mode(self) -> bool:
        """Whether any fault machinery could fire: a non-``None``
        schedule (even an empty one) or a tracked run."""
        return self.faults is not None or self._tracked

    def _vector_fallback_reasons(self) -> list[str]:
        """Every reason this run cannot use the vectorized core.

        The vectorized core pre-routes oblivious arrival segments,
        routes p2c and least per arrival against live per-replica
        queues, and delivers completions per replica, which is exact
        only when nothing observes or perturbs the per-event
        interleaving: retries/hedging/tracing, live observers, and any
        other queue-aware policy (a :class:`PowerOfTwoPolicy` or
        :class:`LeastOutstandingPolicy` subclass may override
        ``choose``) force the per-event python core.  Plain fault
        schedules (``retries == 0``, no hedging/tracing) are eligible
        -- they run the segmented vectorized fault path.

        Returns the empty list when the run is eligible; otherwise
        *all* applicable reasons, so a forced ``core="vector"`` error
        (and the ``auto`` fallback log line) names everything the
        caller would have to change, not just the first obstacle.
        """
        reasons: list[str] = []
        if self._tracked:
            reasons.append(
                "retries, hedging, or tracing requires the per-event core"
            )
        if self.observer is not None:
            reasons.append(
                "a live observer requires per-event completion hooks"
            )
        if self.percentile_mode != "exact":
            reasons.append(
                "sketch-mode reports fold completions one event at a "
                "time; the batch core would have to materialize them"
            )
        for model, policy in self._policies.items():
            if not (
                policy.outstanding_oblivious
                or type(policy) in (PowerOfTwoPolicy, LeastOutstandingPolicy)
            ):
                reasons.append(
                    f"policy {policy.name!r} (model {model!r}) is "
                    "queue-aware: it reads live outstanding counts"
                )
        return reasons

    def _seal_sketches(self, horizon: float) -> None:
        """Close sketch accumulators at the measurement horizon.

        Called once when the arrival stream exhausts (the moment the
        horizon becomes known); completions draining in after it are
        filtered at append time, mirroring exact mode's
        ``finish <= horizon`` cut.  No-op in exact mode and for
        accumulators already sealed by a forced ``horizon_s``.
        """
        sketches = self._sketch_stats
        if sketches is not None:
            for acc in sketches.values():
                if type(acc) is not list:
                    acc.seal(horizon)

    # ------------------------------------------------------------------

    def run(
        self, trace, warmup_s: float = 0.0, *, horizon_s: float | None = None
    ) -> FleetResult:
        """Play a multi-model arrival source through the fleet.

        Args:
            trace: ``(model_name, query)`` pairs -- either a
                materialized list/tuple (any order; sorted here, the
                legacy shape) or a lazily-consumed arrival source: a
                :class:`~repro.traces.FleetArrivals`, a
                :class:`~repro.traces.RecordedTrace`, or any iterable
                already sorted by arrival time.  Streams are pulled one
                arrival at a time, so a multi-million-query replay
                holds O(replicas + one segment) memory instead of the
                whole trace.  The measurement horizon is the last
                arrival's timestamp in both shapes.  Stochastic fault
                schedules additionally need a draw horizon: lists use
                their last arrival, streams use the source's nominal
                ``end_s`` (synthetic processes expose it; a horizon-
                less iterator is refused) -- so a ``random:`` schedule
                draws slightly past the last arrival on the streamed
                shape.  Scripted schedules are horizon-free and
                bit-identical across both shapes.
            warmup_s: Initial window excluded from the statistics.
            horizon_s: Force the measurement horizon instead of using
                the stream's last arrival.  The sharded runner passes
                the *fleet-wide* last arrival here so every shard
                measures the identical window (qps denominators, tick
                counts, and active-time accounting all match the
                single-process run bit-for-bit).  Must be >= the
                stream's own last arrival; fault-free runs only.  An
                empty stream is an error unless it is given: replicas
                then idle up to it, and autoscaler ticks still fire.
        """
        if horizon_s is not None:
            if self._fault_mode:
                raise ValueError(
                    "horizon_s is only supported for fault-free runs "
                    "(the fault loops derive their own horizon)"
                )
            if horizon_s <= warmup_s:
                raise ValueError("horizon_s must exceed warmup_s")
        if self.core != "python":
            reasons = self._vector_fallback_reasons()
            if not reasons:
                from repro.sim import fast_core

                with _gc_paused():
                    return fast_core.run_vectorized(
                        self, trace, warmup_s, horizon_s
                    )
            reason = "; ".join(reasons)
            if self.core != "auto":
                raise ValueError(
                    f"core='{self.core}' is unavailable for this run: "
                    f"{reason}; use core='python' or core='auto'"
                )
            if not self._quiet_core_fallback:
                _LOG.info(
                    "core='auto': falling back to the python event core (%s)",
                    reason,
                )
        heap = EventHeap()
        if isinstance(trace, (list, tuple)) and trace:
            import numpy as np

            trace = list(trace)
            arr = np.asarray([q.arrival_s for _, q in trace])
            finite = np.isfinite(arr)
            if not finite.all():
                k = int(np.argmin(finite))
                raise ValueError(
                    f"trace entry {k} ({trace[k][0]!r}) has a non-finite "
                    f"arrival time ({float(arr[k])!r})"
                )
            if len(arr) > 1 and bool((np.diff(arr) < 0.0).any()):
                # Stable order keeps trace position on ties, matching
                # the event counters the old all-arrivals-on-the-heap
                # scheme assigned.
                order = np.argsort(arr, kind="stable").tolist()
                trace = [trace[k] for k in order]
            # The last arrival (max, not the caller-order last element)
            # bounds stochastic fault draws, exactly as before.
            end_hint = float(arr.max())
            arrivals = iter(trace)
        else:
            # A streamed source (or an empty list); trust its sort
            # order (verified as the stream is consumed).  Its nominal
            # end is needed only to bound stochastic fault draws --
            # fetched lazily because e.g. RecordedTrace.end_s costs a
            # full file scan.
            end_hint = None
            if (
                self.faults is not None
                and getattr(self.faults, "stochastic_params", None) is not None
            ):
                end_hint = getattr(trace, "end_s", None)
            arrivals = iter(trace)
        first = next(arrivals, None)
        if first is None and horizon_s is None:
            raise ValueError("empty fleet trace")

        # Windowed completion/arrival/drop feeds for the autoscaler.
        window_lat: dict[str, list[float]] = {m: [] for m in self._routable}
        window_arrivals: dict[str, int] = {m: 0 for m in self._routable}
        window_drops: dict[str, int] = {m: 0 for m in self._routable}
        scale_events: list = []
        if self.autoscaler is not None:
            # One tick lives on the heap at a time, rescheduled as it
            # fires; seq -1 keeps the legacy tie order (a tick at
            # exactly a finish timestamp still wins, arrivals still
            # win over ticks).
            heappush(heap.items, (self.autoscaler.window_s, -1, None, 0, None))

        # Models with no replica anywhere in the fleet are added as the
        # stream names them, so they still surface as dropped/violating.
        # Sketch mode swaps the per-model sample lists for O(1)-memory
        # accumulators exposing the same ``append((finish, lat))`` the
        # loops call; the loops themselves are unchanged.
        completions: dict
        if self.percentile_mode == "sketch":
            from repro.fleet.report import LatencySketchSeries

            completions = {
                m: LatencySketchSeries(
                    sla_ms=self.sla_ms.get(m, float("inf")),
                    warmup_s=warmup_s,
                    horizon_s=horizon_s,
                )
                for m in self._routable
            }
            self._sketch_stats = completions
        else:
            self._sketch_stats = None
            completions = {m: [] for m in self._routable}
        dropped: dict[str, int] = {m: 0 for m in completions}
        scaling = self.autoscaler is not None

        # One lookup per arrival: model -> (replica list, policy).  The
        # replica lists are the exact objects the autoscaler mutates.
        streams = {
            m: (self._routable[m], self._policies[m]) for m in self._routable
        }
        if self.observer is not None:
            self.observer.bind(self)
        with _gc_paused():
            if self._tracked:
                fault_info = run_fault_loop(
                    self, arrivals, first, streams, heap,
                    warmup_s, end_hint, scaling, completions, dropped,
                    window_lat, window_arrivals, window_drops, scale_events,
                )
            else:
                fault_info = _run_light_loop(
                    self, arrivals, first, streams, heap,
                    warmup_s, end_hint, scaling, completions, dropped,
                    window_lat, window_arrivals, window_drops, scale_events,
                    horizon_s,
                )
        horizon = fault_info["horizon"]
        ticks = fault_info["ticks"]

        for server in self.servers:
            server.settle(horizon)
        self.last_event_count = fault_info["arrivals"] + heap.seq + ticks
        self.last_tick_count = ticks
        self.last_horizon_s = horizon
        self.last_query_log = fault_info.pop("log")

        result = self._summarize(
            completions, dropped, warmup_s, horizon, tuple(scale_events),
            fault_info,
        )
        if self.observer is not None:
            self.observer.finish(horizon, warmup_s, result, self)
        return result

    # ------------------------------------------------------------------

    def _summarize(
        self,
        completions: dict[str, list[tuple[float, float]]],
        dropped: dict[str, int],
        warmup_s: float,
        horizon: float,
        scale_events: tuple,
        fault_info: dict,
    ) -> FleetResult:
        """Build the report from a finished replay.

        ``fault_info`` is the replay loop's fault accounting: per-model
        ``failed``/``retried``/``hedged`` counts (absent models count
        zero), the applied fault ``events``, and ``downtime_s``.
        """
        import numpy as np

        duration = max(horizon - warmup_s, 1e-9)
        failed_by = fault_info["failed"]
        retried_by = fault_info["retried"]
        hedged_by = fault_info["hedged"]
        per_model: dict[str, ModelStats] = {}
        for model, samples in completions.items():
            # Measure the window [warmup, horizon]: arrivals before the
            # warmup cut are excluded, and so are completions draining
            # after the last arrival -- otherwise an overloaded fleet
            # would report more than its sustainable throughput.  The
            # vectorized core hands samples as a finish-sorted
            # ``(finish, latency)`` array pair instead of a tuple list;
            # the filter performs the same float comparison either way.
            sla = self.sla_ms.get(model, float("inf"))
            drops = dropped.get(model, 0)
            fails = failed_by.get(model, 0)
            lost = drops + fails
            if type(samples) is tuple:
                fin, lats = samples
                measured = lats[(fin - lats >= warmup_s) & (fin <= horizon)]
            elif type(samples) is not list:
                # Sketch accumulator: warmup/horizon filtering already
                # happened at append time; emit estimated percentiles
                # and exact counts without ever holding a sample list.
                samples.seal(horizon)
                per_model[model] = samples.to_stats(
                    model=model,
                    sla_ms=sla,
                    dropped=drops,
                    duration_s=duration,
                    failed=fails,
                    retried=retried_by.get(model, 0),
                    hedged=hedged_by.get(model, 0),
                )
                continue
            else:
                measured = [
                    lat
                    for finish, lat in samples
                    if finish - lat >= warmup_s and finish <= horizon
                ]
            if len(measured):
                arr = np.asarray(measured) * 1e3
                violations = int((arr > sla).sum()) + lost
                per_model[model] = ModelStats(
                    model=model,
                    sla_ms=sla,
                    completed=len(measured),
                    dropped=drops,
                    qps=len(measured) / duration,
                    p50_ms=float(np.percentile(arr, 50)),
                    p95_ms=float(np.percentile(arr, 95)),
                    p99_ms=float(np.percentile(arr, 99)),
                    mean_ms=float(arr.mean()),
                    violation_rate=violations / max(len(measured) + lost, 1),
                    failed=fails,
                    retried=retried_by.get(model, 0),
                    hedged=hedged_by.get(model, 0),
                )
            else:
                per_model[model] = ModelStats(
                    model=model,
                    sla_ms=sla,
                    completed=0,
                    dropped=drops,
                    qps=0.0,
                    p50_ms=float("inf"),
                    p95_ms=float("inf"),
                    p99_ms=float("inf"),
                    mean_ms=float("inf"),
                    violation_rate=1.0 if lost else 0.0,
                    failed=fails,
                    retried=retried_by.get(model, 0),
                    hedged=hedged_by.get(model, 0),
                )

        server_stats = []
        for s in self.servers:
            power = s.power_w()
            server_stats.append(
                ServerStats(
                    index=s.index,
                    server_type=s.server_type.name,
                    model=s.model_name,
                    plan=s.plan.describe(),
                    completed=s.completed,
                    qps=s.completed_in_window / duration if duration > 0 else 0.0,
                    power_w=power,
                    active_s=s.active_s,
                    ever_active=s.active_s > 0,
                    domain=s.domain,
                )
            )
        # Uptime fraction of routable serving time: time replicas
        # actually served over that plus time crashed-while-routable
        # replicas spent dead.  Robust to mid-run activations and drains
        # (both sides count the same replica-populations), and in [0, 1]
        # by construction.
        availability = 1.0
        downtime = fault_info["downtime_s"]
        if downtime > 0.0:
            serving = sum(s.active_s for s in self.servers)
            availability = serving / (serving + downtime)
        fault_events = fault_info["events"]
        phases: tuple = ()
        if fault_events and self.percentile_mode == "exact":
            # Sketch mode keeps no finish-stamped samples to bucket
            # into phases; documented as empty in that mode.
            from repro.fleet.report import phase_breakdown

            phases = phase_breakdown(
                completions,
                tuple(ev.time_s for ev in fault_events),
                warmup_s,
                horizon,
            )
        _, avg_power_w = fleet_power_summary(
            ((row.power_w, row.active_s) for row in server_stats), horizon
        )
        return FleetResult(
            policy=self.policy_name,
            duration_s=duration,
            per_model=per_model,
            servers=tuple(server_stats),
            avg_power_w=avg_power_w,
            scale_events=scale_events,
            events=self.last_event_count,
            availability=availability,
            fault_events=fault_events,
            phases=phases,
        )
