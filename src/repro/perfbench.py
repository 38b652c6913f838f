"""Perf-regression harness: timed, seeded scenarios over the hot paths.

Classic HPC benchmarking practice (RZBENCH and its descendants) is to
establish a reproducible measurement harness *first* and optimize the
measured bottlenecks second.  This module is that harness for the
repo's hot paths, one scenario each (in registry order):

- ``search``        -- the gradient task-scheduling search for a pair;
- ``profile_table`` -- full classification-table construction (the 60
  workload/server efficiency tuples of Fig. 9b);
- ``loadgen``       -- Poisson trace synthesis;
- ``single_node_des`` -- the single-server discrete-event simulation;
- ``fleet_replay``  -- the request-level fleet replay (50 servers x
  100k queries in the full configuration);
- ``fleet_replay_fastcore`` -- the same replay under round-robin
  routing through the vectorized batch core vs the per-event python
  core (CI gates ``speedup_vector_vs_python`` > 3.0 on the full
  configuration), asserting both cores agree on every per-model
  statistic;
- ``fleet_replay_queueaware`` -- one model fleet-wide under ``least``
  and under p2c, each on the python core vs the vector core's exact
  per-arrival router (CI gates ``speedup_vector_least_vs_python``
  > 2.0 on the full configuration), asserting equal reports;
- ``fleet_replay_streaming`` -- the same replay fed by a lazily
  streamed arrival process instead of the materialized list, reporting
  the wall-time ratio against the list path (CI bounds it at < 1.1)
  and asserting both agree exactly, once under p2c on the python
  core and once under rr on the vector core (streamed source vs its
  pre-built list, also bounded at < 1.1);
- ``fleet_replay_faultpath`` -- the same replay with an empty fault
  schedule (asserting it equals no schedule) and through the tracked
  loop, then a scripted schedule on the python core vs the vectorized
  core (CI gates ``speedup_vector_fault_vs_python`` > 2.5 on the full
  configuration).
- ``fleet_replay_carbonpath`` -- the same replay priced in gCO2
  after the run vs the bare replay, reporting the ratio CI bounds at
  < 1.1x and asserting the realtime report agrees float-for-float; a
  third leg adds deferrable jobs for trend inspection.
- ``fleet_replay_observed`` -- the same replay on the python core
  with the observability probe off vs plain construction (CI bounds
  the dormant-guard ratio at < 1.05x), with per-query tracing vs the
  tracked loop it rides on (< 1.5x), and with streaming metrics vs
  the dark loop (< 1.6x), asserting every leg agrees float-for-float.
- ``fleet_replay_sharded`` -- a four-model fleet replayed in four
  worker processes vs one, asserting the merged report is equal
  (``speedup_shards`` recorded ungated).
- ``fleet_replay_sketchmem`` -- a long streamed replay in sketch
  percentile mode under a fixed RSS-growth budget.
- ``fault_aware_provisioning`` -- the availability -> ``R`` fixpoint
  search under a scripted rack-outage schedule (several fault-injected
  replays per run); wall time tracks the cost of closing the loop.

Every scenario runs on fixed seeds and reports machine-readable
metrics (wall seconds, queries/sec, events/sec, and the process RSS
high-water mark after the scenario) so each future PR has
a trajectory to defend.  ``python -m repro.cli bench`` drives it and
writes ``BENCH_perf.json``; ``benchmarks/bench_perf_core.py`` wraps it
for the pytest-benchmark lane.

The harness measures the checkout it ships in.  To compare two
checkouts or hosts, write a document from each and diff them with
``python -m repro.cli bench --compare OLD.json NEW.json``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Callable

__all__ = [
    "SCENARIOS",
    "BENCH_GATES",
    "run_bench",
    "compare_bench",
    "format_bench",
    "write_bench_json",
]

#: Scenario dimensions.  ``quick`` keeps CI smoke runs in seconds;
#: ``full`` is the acceptance configuration (50 servers x 100k queries,
#: all 10 server types x all 6 models).
_QUICK = {
    "profile_servers": ("T2", "T3", "T7"),
    "profile_models": ("DLRM-RMC1", "DLRM-RMC2"),
    "search_pairs": (("T2", "DLRM-RMC1"),),
    "loadgen_queries": 50_000,
    "des_queries": 10_000,
    "fleet_servers": 12,
    "fleet_queries": 10_000,
    "provision_fleet": {"T2": 12},
    "provision_load_units": 2.7,  # demand in T2 replica-equivalents
    "provision_duration_s": 1.5,
    "sketch_queries": 20_000,
    "queueaware_servers": 24,
    "queueaware_queries": 20_000,
}
_FULL = {
    "profile_servers": None,  # all server types
    "profile_models": None,  # all models
    "search_pairs": (("T2", "DLRM-RMC1"), ("T7", "DLRM-RMC2")),
    "loadgen_queries": 200_000,
    "des_queries": 50_000,
    "fleet_servers": 50,
    "fleet_queries": 100_000,
    "provision_fleet": {"T2": 28},
    "provision_load_units": 8.1,
    "provision_duration_s": 3.0,
    "sketch_queries": 10_000_000,
    # The queue-aware scenario runs one model fleet-wide: the python
    # least-outstanding scan is O(replicas) per arrival, so the full
    # configuration doubles the fleet to size the gap the exact least
    # router closes (and doubles the queries so the walls are not
    # sub-100ms).
    "queueaware_servers": 100,
    "queueaware_queries": 200_000,
}

#: Offered load for the DES scenarios as a fraction of capacity; the
#: regime the slow-lane fleet test also measures.
_RHO = 0.75

#: Server types every scenario fleet is built from.
_FLEET_SERVERS = ("T2", "T3", "T7")

#: Per-model ``{server type: share of the fleet}`` allocations.  The
#: two-model fleet is availability-shaped (the full configuration
#: reproduces the slow-lane 50 servers); the queue-aware scenario
#: spreads one model fleet-wide; the scale-out scenarios need at least
#: four models for four real shards (the planner clamps to one shard
#: per model).  Each fleet's shares sum to 1.0.
_TWO_MODEL_SHARES = {
    "DLRM-RMC1": {"T2": 0.36, "T3": 0.12, "T7": 0.08},
    "DLRM-RMC2": {"T2": 0.24, "T3": 0.12, "T7": 0.08},
}
_ONE_MODEL_SHARES = {"DLRM-RMC1": {"T2": 0.60, "T3": 0.24, "T7": 0.16}}
_SCALE_OUT_SHARES = {
    "DIN": {"T2": 0.12, "T7": 0.16},
    "DLRM-RMC1": {"T2": 0.20, "T3": 0.08},
    "DLRM-RMC2": {"T2": 0.16, "T3": 0.08},
    "DLRM-RMC3": {"T3": 0.12, "T7": 0.08},
}


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _max_rss_kb() -> int | None:
    """Process RSS high-water mark in KiB (None where unsupported).

    ``ru_maxrss`` is monotone over the process lifetime, so the value
    recorded after each scenario is a running peak: the scenario whose
    reading jumps is the one that grew it.  A cheap OS counter is used
    instead of ``tracemalloc`` so the wall-time numbers stay honest.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return rss // 1024 if platform.system() == "Darwin" else rss


class _Context:
    """Artifacts shared across scenarios of one bench run."""

    def __init__(self, quick: bool, seed: int, jobs: int) -> None:
        self.seed = seed
        self.jobs = jobs
        self.cfg = dict(_QUICK if quick else _FULL)
        self.tables: list = []  # classification tables built so far

    def table(self, models: tuple[str, ...] = ("DLRM-RMC1", "DLRM-RMC2")):
        """A classification table covering T2/T3/T7 x ``models``.

        Reuses any table this run already built that covers those pairs
        (``profile_table``'s does in full mode), else profiles the slice.
        """
        pairs = [(s, m) for s in _FLEET_SERVERS for m in models]
        for table in self.tables:
            if all(pair in table.entries for pair in pairs):
                return table
        from repro.hardware import SERVER_TYPES
        from repro.models import build_model
        from repro.scheduling import OfflineProfiler

        table = OfflineProfiler().profile(
            [SERVER_TYPES[s] for s in _FLEET_SERVERS],
            [build_model(m) for m in models],
            jobs=self.jobs,
        )
        self.tables.append(table)
        return table


class _Fleet:
    """Replicas and rho-loaded arrival traffic for the fleet scenarios.

    ``shares`` maps each model to ``{server type: share}``; a cell gets
    ``max(1, round(servers * share))`` replicas.  Each model is offered
    ``_RHO`` of its replicas' profiled capacity for the duration in
    which the fleet expects ``queries`` arrivals, drawn lazily by
    :attr:`stream` as ``segments`` equal back-to-back Poisson segments.
    """

    def __init__(
        self,
        ctx: _Context,
        shares: dict[str, dict[str, float]],
        servers: int,
        queries: int,
        segments: int = 1,
    ) -> None:
        from repro.cluster.state import Allocation
        from repro.models import build_model
        from repro.sim import QueryWorkload
        from repro.traces import FleetArrivals, PiecewisePoissonProcess

        self.seed = ctx.seed
        self.table = table = ctx.table(tuple(shares))
        self.models = {n: build_model(n) for n in shares}
        self.workloads = {
            n: QueryWorkload.for_model(m.config.mean_query_size)
            for n, m in self.models.items()
        }
        self.sla = {n: m.sla_ms for n, m in self.models.items()}
        self.allocation = allocation = Allocation()
        for name, row in shares.items():
            for srv, share in row.items():
                allocation.add(srv, name, max(1, round(servers * share)))
        self.servers = sum(allocation.counts.values())
        capacity = {
            n: sum(
                c * table.qps(srv, m)
                for (srv, m), c in allocation.counts.items()
                if m == n
            )
            for n in shares
        }
        self.duration = queries / (_RHO * sum(capacity.values()))
        self.stream = FleetArrivals(
            {
                n: PiecewisePoissonProcess(
                    self.workloads[n],
                    [(_RHO * capacity[n], self.duration / segments)] * segments,
                )
                for n in shares
            },
            seed=ctx.seed,
        )

    def make_servers(self) -> list:
        from repro.fleet import build_fleet

        return build_fleet(self.allocation, self.table, self.models, self.workloads)

    def replay(
        self,
        reps: int,
        source: Callable[[], Any],
        make_probe: Callable[[], Any] | None = None,
        price: Callable[[Any, Any], Any] | None = None,
        **kwargs: Any,
    ) -> tuple[float, Any, Any]:
        """Best wall of ``reps`` timed ``sim.run(source())`` calls.

        Each run gets a fresh simulator over fresh replicas, built with
        ``kwargs`` (plus ``observer=make_probe()`` when given).
        ``source()`` runs inside the timer, so a leg that materializes
        its traffic pays for it; so does ``price(sim, result)``, whose
        return value replaces the run's result.  The ratio legs feed CI
        gates, so they take several runs to keep single-sample
        scheduler noise out.  Returns the best wall and the last run's
        result and probe.
        """
        from repro.fleet import FleetSimulator

        best = probe = None
        for _ in range(reps):
            if make_probe is not None:
                probe = kwargs["observer"] = make_probe()
            sim = FleetSimulator(
                self.make_servers(), sla_ms=self.sla, seed=self.seed, **kwargs
            )

            def run():
                result = sim.run(source(), warmup_s=self.duration * 0.1)
                return result if price is None else price(sim, result)

            wall, result = _timed(run)
            best = wall if best is None else min(best, wall)
        return best, result, probe


def _two_model_fleet(ctx: _Context) -> tuple[_Fleet, list]:
    """The fleet-replay scenarios' fleet and its materialized trace."""
    fleet = _Fleet(
        ctx, _TWO_MODEL_SHARES, ctx.cfg["fleet_servers"], ctx.cfg["fleet_queries"]
    )
    return fleet, list(fleet.stream)


def _scale_out_fleet(ctx: _Context, queries: int) -> _Fleet:
    """The four-model fleet, streamed and never materialized.

    A piecewise process materializes one segment of arrivals at a time,
    so a single queries-long segment would hold the whole stream
    (~190 B/query -- GiBs at the sketchmem scale).  The constant rate is
    chopped into <=100k-query segments to keep generation memory flat;
    the rate trajectory is unchanged.
    """
    return _Fleet(
        ctx, _SCALE_OUT_SHARES, ctx.cfg["fleet_servers"], queries,
        segments=-(-queries // 100_000),
    )


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------


def _scenario_search(ctx: _Context) -> dict[str, Any]:
    from repro.hardware import SERVER_TYPES
    from repro.models import build_model
    from repro.scheduling import HerculesTaskScheduler
    from repro.sim import ServerEvaluator

    pairs = ctx.cfg["search_pairs"]
    built = [
        (ServerEvaluator(SERVER_TYPES[s]), build_model(m)) for s, m in pairs
    ]

    def run():
        return [
            HerculesTaskScheduler(evaluator, model).search()
            for evaluator, model in built
        ]

    wall, results = _timed(run)
    evaluations = sum(r.evaluations for r in results)
    return {
        "wall_s": wall,
        "pairs": len(pairs),
        "evaluations": evaluations,
        "evaluations_per_s": evaluations / wall if wall > 0 else 0.0,
        "feasible": sum(1 for r in results if r.feasible),
    }


def _scenario_profile_table(ctx: _Context) -> dict[str, Any]:
    from repro.hardware import SERVER_TYPES
    from repro.models import MODEL_NAMES, build_model
    from repro.scheduling import OfflineProfiler

    servers = [SERVER_TYPES[s] for s in ctx.cfg["profile_servers"] or SERVER_TYPES]
    models = [build_model(m) for m in ctx.cfg["profile_models"] or MODEL_NAMES]

    wall, table = _timed(
        lambda: OfflineProfiler().profile(servers, models, jobs=ctx.jobs)
    )
    ctx.tables.append(table)  # reused by the fleets it covers
    pairs = len(table.entries)
    evaluations = sum(t.evaluations for t in table.entries.values())
    return {
        "wall_s": wall,
        "pairs": pairs,
        "pairs_per_s": pairs / wall if wall > 0 else 0.0,
        "evaluations": evaluations,
        "evals_per_s": evaluations / wall if wall > 0 else 0.0,
        "feasible_pairs": sum(1 for t in table.entries.values() if t.feasible),
        "jobs": ctx.jobs,
    }


def _scenario_loadgen(ctx: _Context) -> dict[str, Any]:
    from repro.sim import QueryWorkload
    from repro.sim.loadgen import generate_trace

    workload = QueryWorkload.for_model(120)
    queries = ctx.cfg["loadgen_queries"]
    qps = 10_000.0
    duration = queries / qps

    wall, trace = _timed(
        lambda: generate_trace(workload, qps, duration, seed=ctx.seed)
    )
    return {
        "wall_s": wall,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall if wall > 0 else 0.0,
    }


def _scenario_single_node_des(ctx: _Context) -> dict[str, Any]:
    from repro.hardware import SERVER_TYPES
    from repro.models import build_model
    from repro.sim import QueryWorkload
    from repro.sim.loadgen import generate_trace
    from repro.sim.server_sim import DiscreteEventServerSim, build_stages
    from repro.sim.evaluator import ServerEvaluator
    from repro.models.partition import partition_model

    tup = ctx.table().get("T2", "DLRM-RMC1")
    model = build_model("DLRM-RMC1")
    workload = QueryWorkload.for_model(model.config.mean_query_size)
    evaluator = ServerEvaluator(SERVER_TYPES["T2"])
    partitioned = partition_model(model)
    stages = build_stages(evaluator, partitioned, workload, tup.plan)

    queries = ctx.cfg["des_queries"]
    qps = _RHO * tup.qps
    duration = queries / qps
    trace = generate_trace(workload, qps, duration, seed=ctx.seed + 1)

    sim = DiscreteEventServerSim(list(stages))
    wall, result = _timed(lambda: sim.run(trace, warmup_s=duration * 0.1))
    events = result.events
    return {
        "wall_s": wall,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall if wall > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall) if (events and wall > 0) else None,
        "completed": result.completed,
    }


def _scenario_fleet_replay(ctx: _Context) -> dict[str, Any]:
    fleet, trace = _two_model_fleet(ctx)
    # Pinned to the python core so this scenario's trajectory keeps
    # measuring the per-event loop ("auto" would route p2c on the
    # vector core).
    wall, result, _ = fleet.replay(
        1, lambda: trace, policy="p2c", core="python"
    )
    events = result.events
    return {
        "wall_s": wall,
        "servers": fleet.servers,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall if wall > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall) if (events and wall > 0) else None,
        "completed": result.total_completed,
    }


def _scenario_fleet_replay_fastcore(ctx: _Context) -> dict[str, Any]:
    """Vectorized batch core vs the exact per-event core, same traffic.

    Replays the identical fleet/trace under round-robin routing (the
    measurement configuration the vectorized core targets) through
    both cores.  ``speedup_vector_vs_python`` is the number CI's
    perf-smoke job gates at > 3.0 on the full configuration, and the
    two replays must agree on every per-model statistic -- a built-in
    differential smoke check of the batched delivery.  Best-of-three
    walls per side keep single-sample scheduler noise out of the gate
    (one repetition more than the ratio scenarios: this gate is the
    tightest in CI).
    """
    fleet, trace = _two_model_fleet(ctx)
    wall_py, result_py, _ = fleet.replay(
        3, lambda: trace, policy="rr", core="python"
    )
    wall_vec, result_vec, _ = fleet.replay(
        3, lambda: trace, policy="rr", core="vector"
    )
    if result_vec.per_model != result_py.per_model:
        raise AssertionError(
            "vectorized core diverged from the python core on per-model stats"
        )
    if result_vec.events != result_py.events:
        raise AssertionError(
            "vectorized core event count diverged from the python core"
        )

    events = result_vec.events
    return {
        "wall_s": wall_vec,
        "wall_python_s": wall_py,
        "speedup_vector_vs_python": wall_py / wall_vec if wall_vec > 0 else None,
        "servers": fleet.servers,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall_vec if wall_vec > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall_vec) if (events and wall_vec > 0) else None,
        "completed": result_vec.total_completed,
    }


def _scenario_fleet_replay_queueaware(ctx: _Context) -> dict[str, Any]:
    """Queue-aware routing: the exact per-arrival routers vs python.

    One model spread fleet-wide -- the configuration where the python
    core's least-outstanding scan pays O(replicas) per arrival.  The
    same fleet and trace replay under ``least`` and under p2c, each on
    the python core and on ``core='auto'``, which routes both exactly
    per arrival on the vector core; each pair of reports must be
    ``==``.  ``speedup_vector_least_vs_python`` is the number CI gates
    at > 2.0 on the full configuration, best-of-three walls per side;
    ``speedup_vector_p2c_vs_python`` (also best of three) is recorded
    ungated.
    """
    fleet = _Fleet(
        ctx, _ONE_MODEL_SHARES, ctx.cfg["queueaware_servers"],
        ctx.cfg["queueaware_queries"],
    )
    trace = list(fleet.stream)
    legs = {}
    for policy in ("least", "p2c"):
        wall_py, result_py, _ = fleet.replay(
            3, lambda: trace, policy=policy, core="python"
        )
        wall_vec, result_vec, _ = fleet.replay(
            3, lambda: trace, policy=policy, core="auto"
        )
        if result_vec.to_dict() != result_py.to_dict():
            raise AssertionError(
                f"exact {policy} routing on the vector core diverged from "
                "the python core"
            )
        legs[policy] = wall_py, wall_vec, result_vec

    (model,) = _ONE_MODEL_SHARES
    wall_py, wall_vec, result = legs["least"]
    wall_p2c_py, wall_p2c_vec, _ = legs["p2c"]
    stats = result.per_model[model]
    return {
        "wall_s": wall_vec,
        "wall_python_s": wall_py,
        "speedup_vector_least_vs_python": (
            wall_py / wall_vec if wall_vec > 0 else None
        ),
        "servers": fleet.servers,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall_vec if wall_vec > 0 else 0.0,
        "p50_ms": stats.p50_ms,
        "p99_ms": stats.p99_ms,
        "completed": stats.completed,
        "wall_p2c_python_s": wall_p2c_py,
        "wall_p2c_vector_s": wall_p2c_vec,
        "speedup_vector_p2c_vs_python": (
            wall_p2c_py / wall_p2c_vec if wall_p2c_vec > 0 else None
        ),
    }


def _scenario_fleet_replay_faultpath(ctx: _Context) -> dict[str, Any]:
    """Fault machinery engaged but idle, and a scripted schedule.

    Replays the identical fleet/trace three ways: no schedule; an
    empty schedule (both run the light loop, so the legs must agree
    exactly -- an empty schedule must still equal no schedule); and
    the tracked loop (empty schedule plus a retry budget, which buys
    per-query attempt records).  ``ratio_tracked_vs_fault_off`` is
    recorded for trend inspection only (per-query records are
    documented overhead).

    A fourth and fifth leg replay a *scripted* schedule (two recovering
    crashes, a slowdown episode, a permanent crash) under round-robin
    through the python core and the segmented vectorized fault path.
    ``speedup_vector_fault_vs_python`` is the number CI gates at > 2.5
    on the full configuration, best-of-three walls per side, and the
    two legs must agree float-for-float on every report field.
    """
    from repro.fleet import FaultSchedule
    from repro.fleet.faults import crash, slowdown

    fleet, trace = _two_model_fleet(ctx)
    # The p2c legs are pinned to the python core: the tracked leg must
    # run there, so its ratio compares one core with itself.
    wall_off, result_off, _ = fleet.replay(
        2, lambda: trace, policy="p2c", core="python"
    )
    wall_light, result_light, _ = fleet.replay(
        2, lambda: trace, policy="p2c", core="python", faults=FaultSchedule()
    )
    wall_tracked, result_tracked, _ = fleet.replay(
        2, lambda: trace, policy="p2c", core="python",
        faults=FaultSchedule(), retries=2,
    )
    for label, result in (("light", result_light), ("tracked", result_tracked)):
        if result.per_model != result_off.per_model:
            raise AssertionError(
                f"{label} replay with an empty schedule diverged from the "
                "replay with no schedule"
            )

    # Scripted-schedule legs: the vectorized fault path partitions the
    # horizon at fault boundaries and must stay bit-identical.
    n_srv = fleet.servers
    duration = fleet.duration

    def scripted():
        # Targets scale with the fleet so quick mode stays in range.
        return FaultSchedule([
            crash(duration * 0.30, 0, recover_after=duration * 0.15),
            crash(duration * 0.55, max(1, n_srv // 4),
                  recover_after=duration * 0.10),
            slowdown(duration * 0.20, max(2, n_srv // 3), 2.5,
                     duration=duration * 0.30),
            crash(duration * 0.80, n_srv - 1),
        ])

    wall_fault_py, result_fault_py, _ = fleet.replay(
        3, lambda: trace, policy="rr", core="python", faults=scripted()
    )
    wall_fault_vec, result_fault_vec, _ = fleet.replay(
        3, lambda: trace, policy="rr", core="vector", faults=scripted()
    )
    for field in ("per_model", "fault_events", "availability",
                  "phases", "events", "avg_power_w"):
        if getattr(result_fault_vec, field) != getattr(result_fault_py, field):
            raise AssertionError(
                "vectorized fault path diverged from the python "
                f"core on {field}"
            )

    events = result_light.events
    return {
        "wall_s": wall_light,
        "wall_fault_off_s": wall_off,
        "wall_tracked_s": wall_tracked,
        "ratio_tracked_vs_fault_off": (
            wall_tracked / wall_off if wall_off > 0 else None
        ),
        "wall_fault_python_s": wall_fault_py,
        "wall_fault_vector_s": wall_fault_vec,
        "speedup_vector_fault_vs_python": (
            wall_fault_py / wall_fault_vec if wall_fault_vec > 0 else None
        ),
        "queries": len(trace),
        "queries_per_s": len(trace) / wall_light if wall_light > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall_light) if (events and wall_light > 0) else None,
        "completed": result_light.total_completed,
    }


def _scenario_fleet_replay_carbonpath(ctx: _Context) -> dict[str, Any]:
    """gCO2 pricing after the replay vs the bare replay.

    Every replay records per-replica activation windows; pricing them
    is a pass over the finished run.  Replays the identical fleet/trace
    three ways: bare (carbon off); priced (the replay plus one
    ``attach_carbon`` pass -- what a replay pays for a gCO2 report);
    and priced with a batch of deferrable jobs (the replay plus the
    deferrable planner/executor plus pricing).

    ``ratio_vs_carbon_off`` (priced/bare, no jobs) is the number CI's
    perf-smoke job bounds at < 1.1; the jobs ratio is recorded for
    trend inspection.  The realtime report must agree float-for-float
    across all three legs -- a built-in differential smoke check that
    pricing only adds the ``carbon`` block.
    """
    from repro.carbon import (
        CarbonTrace,
        DeferrableJob,
        attach_carbon,
        realtime_power_profile,
        run_deferrable,
    )

    fleet, trace = _two_model_fleet(ctx)
    duration = fleet.duration
    carbon = CarbonTrace.diurnal(period_s=duration, steps=24)
    jobs = tuple(
        DeferrableJob(
            name=f"batch-{i}",
            submit_s=i * duration / 8.0,
            duration_s=duration / 16.0,
            power_w=800.0,
            deadline_s=i * duration / 8.0 + duration / 4.0,
        )
        for i in range(4)
    )

    def price(sim, result, jobs=()):
        horizon = sim.last_horizon_s
        report = None
        if jobs:
            report = run_deferrable(
                jobs, carbon, policy="carbon-waiting", horizon_s=horizon,
                realtime_profile=realtime_power_profile(sim.servers),
            )
        return attach_carbon(result, sim.servers, carbon, horizon, report)

    wall_off, result_off, _ = fleet.replay(2, lambda: trace, policy="p2c")
    wall_on, result_on, _ = fleet.replay(
        2, lambda: trace, price=price, policy="p2c"
    )
    wall_jobs, result_jobs, _ = fleet.replay(
        2, lambda: trace, price=lambda sim, r: price(sim, r, jobs),
        policy="p2c",
    )
    for label, result in (("carbon", result_on), ("deferrable", result_jobs)):
        if result.per_model != result_off.per_model:
            raise AssertionError(
                f"{label} run diverged from the carbon-off replay on "
                "per-model stats"
            )
        if result.avg_power_w != result_off.avg_power_w:
            raise AssertionError(
                f"{label} run diverged from the carbon-off replay on power"
            )
    if result_on.carbon is None or result_on.carbon.total_g <= 0.0:
        raise AssertionError("carbon-on replay produced no emissions")

    events = result_on.events
    return {
        "wall_s": wall_on,
        "wall_carbon_off_s": wall_off,
        "wall_deferrable_s": wall_jobs,
        "ratio_vs_carbon_off": wall_on / wall_off if wall_off > 0 else None,
        "ratio_deferrable_vs_carbon_off": (
            wall_jobs / wall_off if wall_off > 0 else None
        ),
        "queries": len(trace),
        "queries_per_s": len(trace) / wall_on if wall_on > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall_on) if (events and wall_on > 0) else None,
        "completed": result_on.total_completed,
        "total_g": result_on.carbon.total_g,
    }


def _scenario_fleet_replay_streaming(ctx: _Context) -> dict[str, Any]:
    """Streamed arrivals vs materialize-then-replay on the same traffic.

    The arrival-stream refactor lets the fleet engine pull arrivals
    lazily from an :class:`~repro.traces.FleetArrivals` source (O(one
    segment) memory) instead of a fully-materialized sorted list.
    This scenario runs the identical fleet/traffic both ways end to
    end on the python core -- traffic synthesis *included* on both
    sides, since either path must draw the arrivals: the materialized
    leg builds the full list first and replays it, the streamed leg
    replays the source directly.  ``ratio_vs_materialized`` (streamed wall over
    materialized wall) is the number CI's perf-smoke job bounds at
    < 1.1, and the two replays must agree float-for-float -- a
    built-in differential smoke check of the lazy pull.

    A second, vector leg replays the same traffic under rr on
    ``core="vector"``: the source directly (its synthesis timed, its
    merged blocks ingested as arrays) against its list built before
    the timer.  ``ratio_vector_stream_vs_list`` (best of three walls
    per side) is gated at < 1.1: a streamed vector replay must cost
    about what the vector core costs on a pre-built list.
    """
    fleet, trace = _two_model_fleet(ctx)
    stream = fleet.stream
    wall_mat, result_mat, _ = fleet.replay(
        2, lambda: list(stream), policy="p2c", core="python"
    )
    wall_stream, result_stream, _ = fleet.replay(
        2, lambda: stream, policy="p2c", core="python"
    )
    if result_stream.per_model != result_mat.per_model:
        raise AssertionError(
            "streamed arrivals diverged from the materialized trace"
        )

    wall_vec_list, result_vec_list, _ = fleet.replay(
        3, lambda: trace, policy="rr", core="vector"
    )
    wall_vec_stream, result_vec_stream, _ = fleet.replay(
        3, lambda: stream, policy="rr", core="vector"
    )
    if result_vec_stream.per_model != result_vec_list.per_model:
        raise AssertionError(
            "streamed arrivals diverged from the pre-built list on "
            "the vector core"
        )

    events = result_stream.events
    return {
        "wall_s": wall_stream,
        "wall_materialized_s": wall_mat,
        "ratio_vs_materialized": (
            wall_stream / wall_mat if wall_mat > 0 else None
        ),
        "wall_vector_list_s": wall_vec_list,
        "wall_vector_stream_s": wall_vec_stream,
        "ratio_vector_stream_vs_list": (
            wall_vec_stream / wall_vec_list if wall_vec_list > 0 else None
        ),
        "queries": len(trace),
        "queries_per_s": len(trace) / wall_stream if wall_stream > 0 else 0.0,
        "events": events,
        "events_per_s": (
            events / wall_stream if (events and wall_stream > 0) else None
        ),
        "completed": result_stream.total_completed,
    }


def _scenario_fleet_replay_observed(ctx: _Context) -> dict[str, Any]:
    """Observer cost: dark engine vs metrics probe vs tracing probe.

    Replays the identical fleet/trace five ways, all on the python
    core (the only core that takes probes, tracing and retries): the
    plain engine exactly as every pre-observability caller constructs
    it (no ``observer`` argument); explicitly observer-off (the
    dormant-guard path); with a streaming-metrics
    :class:`~repro.obs.FleetProbe`; through the tracked fault loop
    without an observer (empty schedule plus a retry budget -- the
    loop tracing rides on); and with a trace-only probe.  All five
    must agree float-for-float on per-model stats -- the bit-identical
    observer-off contract, checked differentially on every bench run.

    Three ratios feed CI gates.  ``ratio_off_vs_plain`` (< 1.05)
    bounds the observer-off path against the no-observer
    construction: the dormant hook guards must stay within
    measurement noise of the plain engine.
    ``ratio_traced_vs_tracked`` (< 1.5) bounds tracing against the
    tracked loop it rides on: span capture reads the loop's own
    per-query records and defers span construction to export, so a
    traced run must stay close to the tracked loop's cost.
    ``ratio_metrics_vs_off`` (< 1.60) bounds live windowed metrics,
    which pay a Python hook per event, against the dark loop.
    """
    from repro.fleet import FaultSchedule
    from repro.obs import FleetProbe

    fleet, trace = _two_model_fleet(ctx)
    window_s = max(fleet.duration / 32.0, 1e-3)  # ~32 samples regardless of mode

    # Every leg runs the python core: probes, tracing and retries need
    # it, so the dark legs are pinned there too.
    legs = {"policy": "p2c", "core": "python"}
    wall_plain, result_plain, _ = fleet.replay(2, lambda: trace, **legs)
    wall_off, result_off, _ = fleet.replay(
        2, lambda: trace, observer=None, **legs
    )
    wall_metrics, result_metrics, probe_m = fleet.replay(
        2, lambda: trace,
        make_probe=lambda: FleetProbe(window_s=window_s, metrics=True),
        **legs,
    )
    wall_tracked, result_tracked, _ = fleet.replay(
        2, lambda: trace, faults=FaultSchedule(), retries=2, **legs
    )
    wall_traced, result_traced, probe_t = fleet.replay(
        2, lambda: trace,
        make_probe=lambda: FleetProbe(window_s=window_s, metrics=False, trace=True),
        **legs,
    )
    for label, result in (
        ("observer-off", result_off),
        ("metrics", result_metrics),
        ("tracked", result_tracked),
        ("traced", result_traced),
    ):
        if result.per_model != result_plain.per_model:
            raise AssertionError(
                f"{label} replay perturbed the simulation: per-model stats "
                "diverged from the plain run"
            )

    events = result_plain.events
    return {
        "wall_s": wall_off,
        "wall_plain_s": wall_plain,
        "wall_metrics_s": wall_metrics,
        "wall_tracked_s": wall_tracked,
        "wall_traced_s": wall_traced,
        "ratio_off_vs_plain": wall_off / wall_plain if wall_plain > 0 else None,
        "ratio_traced_vs_tracked": (
            wall_traced / wall_tracked if wall_tracked > 0 else None
        ),
        "ratio_metrics_vs_off": wall_metrics / wall_off if wall_off > 0 else None,
        "ratio_traced_vs_off": wall_traced / wall_off if wall_off > 0 else None,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall_off if wall_off > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall_off) if (events and wall_off > 0) else None,
        "completed": result_plain.total_completed,
        "metric_rows": len(probe_m.metrics_rows),
        "trace_spans": len(probe_t.spans),
    }


def _scenario_fleet_replay_sharded(ctx: _Context) -> dict[str, Any]:
    """4-shard multi-process replay vs the single-process engine.

    Shards the four-model fleet by model across a process pool
    (weighted routing, exact percentile mode, ``core='auto'`` on both
    legs, so the workers run the vector core) and raises unless the
    merged report equals the single-process report float for float;
    ``sharded_merge_equal`` records that the check ran.
    ``speedup_shards`` is recorded ungated: on a host with fewer CPUs
    than shards the workers serialize (and pay process spawn and a
    phase-A stream scan), so read it next to the document's
    ``host.cpus``; the scaling story lives in
    ``benchmarks/bench_scale_out.py``.
    """
    from repro.fleet.sharded import run_fleet_sharded

    fleet = _scale_out_fleet(ctx, ctx.cfg["fleet_queries"])

    def replay(shards):
        return _timed(
            lambda: run_fleet_sharded(
                fleet.allocation,
                fleet.table,
                fleet.models,
                fleet.workloads,
                fleet.stream,
                shards=shards,
                # weighted splits load by replica capacity; rr's equal
                # split saturates the slowest server type at this rho
                # and the resulting backlog dominates wall and memory
                policy="weighted",
                sla_ms=fleet.sla,
                seed=ctx.seed,
                warmup_s=fleet.duration * 0.1,
                core="auto",
            )
        )
    wall_single, result_single = replay(1)
    wall_sharded, result_sharded = replay(4)
    if result_sharded.to_dict() != result_single.to_dict():
        raise AssertionError(
            "sharded merge diverged from the single-process replay"
        )

    queries = result_single.total_completed + result_single.total_dropped
    events = result_sharded.events
    return {
        "wall_s": wall_sharded,
        "wall_single_s": wall_single,
        "speedup_shards": (
            wall_single / wall_sharded if wall_sharded > 0 else None
        ),
        "sharded_merge_equal": True,
        "shards": 4,
        "servers": len(result_sharded.servers),
        "queries": queries,
        "queries_per_s": queries / wall_sharded if wall_sharded > 0 else 0.0,
        "events": events,
        "events_per_s": (
            events / wall_sharded if (events and wall_sharded > 0) else None
        ),
        "completed": result_sharded.total_completed,
    }


def _scenario_fleet_replay_sketchmem(ctx: _Context) -> dict[str, Any]:
    """Sketch-mode report memory: a long streamed replay on a budget.

    Streams ``sketch_queries`` arrivals (10M in the slow-lane full
    configuration) through the four-model fleet with
    ``percentile_mode="sketch"``: the report folds completions into
    O(models) P² sketches instead of per-query latency lists, which at
    the full scale would hold ~10M ``(finish, latency)`` tuples --
    close to a GiB of list -- just to compute three percentiles.  The
    replay must finish inside a fixed RSS-growth budget (asserted
    in-scenario; ``rss_delta_kb`` lands in BENCH_perf.json as the
    recorded evidence).
    """
    from repro.fleet import FleetSimulator

    fleet = _scale_out_fleet(ctx, ctx.cfg["sketch_queries"])
    sim = FleetSimulator(
        fleet.make_servers(),
        # capacity-proportional routing keeps the in-flight backlog
        # bounded, so measured RSS growth is report state, not queues
        policy="weighted",
        sla_ms=fleet.sla,
        seed=ctx.seed,
        core="python",
        percentile_mode="sketch",
    )

    rss_before = _max_rss_kb()
    wall, result = _timed(
        lambda: sim.run(fleet.stream, warmup_s=fleet.duration * 0.1)
    )
    rss_after = _max_rss_kb()
    delta = (
        rss_after - rss_before
        if rss_before is not None and rss_after is not None
        else None
    )
    # ~256 MiB of growth headroom: generous against allocator noise,
    # far under the per-query lists exact mode would have appended.
    budget_kb = 262_144
    if delta is not None and delta > budget_kb:
        raise AssertionError(
            f"sketch-mode replay grew RSS by {delta} KiB "
            f"(budget {budget_kb} KiB): the report path is holding "
            "per-query state again"
        )

    queries = result.total_completed + result.total_dropped
    events = result.events
    return {
        "wall_s": wall,
        "queries": queries,
        "queries_per_s": queries / wall if wall > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall) if (events and wall > 0) else None,
        "completed": result.total_completed,
        "rss_delta_kb": delta,
        "rss_budget_kb": budget_kb,
        "percentile_mode": "sketch",
    }


def _scenario_fault_aware_provisioning(ctx: _Context) -> dict[str, Any]:
    """Time one availability -> R fixpoint search (several replays).

    A T2 fleet sized so the R=0 allocation runs ~90% utilized, under a
    scripted rack outage: the search must grow R past the crash's
    absorption point, replaying the same deterministic trace at each
    candidate rate.  Wall time therefore tracks both the replay cost
    and the number of allocations the bracketing visits.
    """
    from repro.cluster import HerculesClusterScheduler
    from repro.fleet import FaultSchedule, build_fleet_trace, provision_fault_aware
    from repro.models import build_model
    from repro.sim import QueryWorkload

    table = ctx.table()
    model_name = "DLRM-RMC1"
    models = {model_name: build_model(model_name)}
    workloads = {
        model_name: QueryWorkload.for_model(
            models[model_name].config.mean_query_size
        )
    }
    tup = table.get("T2", model_name)
    loads = {model_name: ctx.cfg["provision_load_units"] * tup.qps}
    duration = ctx.cfg["provision_duration_s"]
    trace = build_fleet_trace(
        workloads, {model_name: [(loads[model_name], duration)]}, seed=ctx.seed
    )
    scheduler = HerculesClusterScheduler(table, dict(ctx.cfg["provision_fleet"]))
    faults = FaultSchedule.parse(f"domain:size=2;crash@{duration * 0.5}:dom0+0.3")

    wall, outcome = _timed(
        lambda: provision_fault_aware(
            scheduler,
            table,
            models,
            workloads,
            trace,
            loads,
            faults,
            sla_ms={model_name: models[model_name].sla_ms},
            target_availability=0.995,
            baseline_r=0.05,
            policy="least",
            retries=2,
            seed=ctx.seed,
            warmup_s=duration * 0.05,
            r_tol=0.05,
            max_evals=8,
        )
    )
    # Rate over *actual* replays: evaluations whose allocation
    # integerized identically share one replay and cost ~nothing.
    replays = outcome.replays
    return {
        "wall_s": wall,
        "queries": len(trace),
        "evaluations": len(outcome.evaluations),
        "replays": replays,
        "queries_per_s": replays * len(trace) / wall if wall > 0 else 0.0,
        "converged": outcome.converged,
        "chosen_r": outcome.chosen_r,
        "power_delta_w": outcome.power_delta_w if outcome.converged else None,
    }


#: Scenario registry in execution order (later scenarios reuse earlier
#: artifacts -- the classification table feeds the DES scenarios).
_SCENARIO_FNS: dict[str, Callable[[_Context], dict[str, Any]]] = {
    "search": _scenario_search,
    "profile_table": _scenario_profile_table,
    "loadgen": _scenario_loadgen,
    "single_node_des": _scenario_single_node_des,
    "fleet_replay": _scenario_fleet_replay,
    "fleet_replay_fastcore": _scenario_fleet_replay_fastcore,
    "fleet_replay_queueaware": _scenario_fleet_replay_queueaware,
    "fleet_replay_streaming": _scenario_fleet_replay_streaming,
    "fleet_replay_faultpath": _scenario_fleet_replay_faultpath,
    "fleet_replay_carbonpath": _scenario_fleet_replay_carbonpath,
    "fleet_replay_observed": _scenario_fleet_replay_observed,
    "fleet_replay_sharded": _scenario_fleet_replay_sharded,
    "fleet_replay_sketchmem": _scenario_fleet_replay_sketchmem,
    "fault_aware_provisioning": _scenario_fault_aware_provisioning,
}
SCENARIOS: tuple[str, ...] = tuple(_SCENARIO_FNS)


def run_bench(
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    scenarios: tuple[str, ...] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the harness and return the BENCH_perf document."""
    selected = scenarios or SCENARIOS
    unknown = [s for s in selected if s not in _SCENARIO_FNS]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown}; choose from {SCENARIOS}")
    ctx = _Context(quick, seed, jobs)
    results: dict[str, Any] = {}
    for name, fn in _SCENARIO_FNS.items():  # registry order: artifacts flow downstream
        if name not in selected:
            continue
        if progress is not None:
            progress(name)
        results[name] = fn(ctx)
        # Running peak: the scenario whose reading jumps grew it.
        results[name].setdefault("max_rss_kb", _max_rss_kb())
    return {
        "schema": 1,
        "suite": "repro-perf-core",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "jobs": jobs,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "scenarios": results,
    }


def format_bench(doc: dict[str, Any]) -> str:
    """Human-readable summary table of one BENCH_perf document."""
    lines = [
        f"perf-core bench ({doc.get('mode')} mode, seed {doc.get('seed')}, "
        f"jobs {doc.get('jobs')})"
    ]
    for name, metrics in doc.get("scenarios", {}).items():
        wall = metrics.get("wall_s", 0.0)
        rate = metrics.get("queries_per_s") or metrics.get("pairs_per_s") or (
            metrics.get("evaluations_per_s")
        )
        rate_txt = f" | {rate:,.0f}/s" if rate else ""
        lines.append(f"  {name:<22} {wall:8.3f} s{rate_txt}")
    return "\n".join(lines)


#: CI's perf gates as data: (scenario, metric, op, threshold,
#: full_only).  ``<`` metrics are overhead ratios bounded from above;
#: ``>`` metrics are speedups bounded from below.  ``full_only`` gates
#: are sized for the full configuration (the quick fleets are too small
#: for the vector cores' gap to show), so a quick document skips them.
#: ``bench --compare`` applies these to any two BENCH_perf documents;
#: CI runs it on a quick document and on a full-mode run of the vector
#: scenarios, and a regression is visible locally the same way.
BENCH_GATES: tuple[tuple[str, str, str, float, bool], ...] = (
    ("fleet_replay_carbonpath", "ratio_vs_carbon_off", "<", 1.10, False),
    ("fleet_replay_streaming", "ratio_vs_materialized", "<", 1.10, False),
    ("fleet_replay_streaming", "ratio_vector_stream_vs_list", "<", 1.10, False),
    ("fleet_replay_observed", "ratio_off_vs_plain", "<", 1.05, False),
    ("fleet_replay_observed", "ratio_traced_vs_tracked", "<", 1.50, False),
    ("fleet_replay_observed", "ratio_metrics_vs_off", "<", 1.60, False),
    ("fleet_replay_fastcore", "speedup_vector_vs_python", ">", 3.0, True),
    ("fleet_replay_faultpath", "speedup_vector_fault_vs_python", ">", 2.5, True),
    ("fleet_replay_queueaware", "speedup_vector_least_vs_python", ">", 2.0, True),
)


def compare_bench(
    old: dict[str, Any], new: dict[str, Any]
) -> tuple[str, bool]:
    """Diff two BENCH_perf documents and apply the CI gates to the new one.

    Returns ``(report, regressed)``: a human-readable table of
    per-scenario wall times (old vs new, ungated -- wall deltas across
    machines are noise) followed by one row per :data:`BENCH_GATES`
    entry present in either document, and a flag that is True when any
    gated metric in the *new* document fails its threshold, or when a
    gated scenario ran in the new document but recorded
    ``{"skipped": ...}`` (documents can come from any checkout).
    ``full_only`` gates are skipped on a document
    not produced in full mode; metrics absent from the new document
    (scenario not run, or an older schema) are reported but never fail
    the comparison.
    """
    old_sc = old.get("scenarios", {})
    new_sc = new.get("scenarios", {})
    lines = [
        f"bench compare: old={old.get('mode')}/seed {old.get('seed')} "
        f"vs new={new.get('mode')}/seed {new.get('seed')}"
    ]
    if old.get("mode") != new.get("mode"):
        lines.append(
            "  note: documents were produced in different modes; wall "
            "times and gated metrics are not directly comparable"
        )
    lines.append(f"  {'scenario':<26} {'old wall':>10} {'new wall':>10} {'delta':>8}")
    names = [n for n in SCENARIOS if n in old_sc or n in new_sc]
    names += [n for n in sorted(set(old_sc) | set(new_sc)) if n not in names]
    for name in names:
        o = old_sc.get(name, {}).get("wall_s")
        nw = new_sc.get(name, {}).get("wall_s")
        o_txt = f"{o:9.3f}s" if isinstance(o, (int, float)) else "      --  "
        n_txt = f"{nw:9.3f}s" if isinstance(nw, (int, float)) else "      --  "
        if isinstance(o, (int, float)) and isinstance(nw, (int, float)) and o > 0:
            d_txt = f"{(nw - o) / o * 100.0:+7.1f}%"
        else:
            d_txt = "     --"
        lines.append(f"  {name:<26} {o_txt:>10} {n_txt:>10} {d_txt:>8}")
    lines.append("")
    lines.append(
        f"  {'gate':<58} {'old':>8} {'new':>8}  verdict"
    )
    regressed = False
    for scenario, metric, op, threshold, full_only in BENCH_GATES:
        o = old_sc.get(scenario, {}).get(metric)
        nw = new_sc.get(scenario, {}).get(metric)
        skipped = new_sc.get(scenario, {}).get("skipped")
        if o is None and nw is None and skipped is None:
            continue
        label = f"{scenario}.{metric} {op} {threshold}"
        o_txt = f"{o:7.3f}" if isinstance(o, (int, float)) else "    -- "
        n_txt = f"{nw:7.3f}" if isinstance(nw, (int, float)) else "    -- "
        if full_only and new.get("mode") != "full":
            verdict = "SKIP (needs a full-mode document)"
        elif skipped is not None:
            verdict = f"FAIL (scenario skipped: {skipped})"
            regressed = True
        elif not isinstance(nw, (int, float)):
            verdict = "SKIP (not in new document)"
        elif (nw < threshold) if op == "<" else (nw > threshold):
            verdict = "PASS"
        else:
            verdict = "FAIL"
            regressed = True
        lines.append(f"  {label:<58} {o_txt:>8} {n_txt:>8}  {verdict}")
    return "\n".join(lines), regressed


def write_bench_json(path: str, doc: dict[str, Any]) -> None:
    """Write the document with stable formatting (sorted, indented)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
