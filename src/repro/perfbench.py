"""Perf-regression harness: timed, seeded scenarios over the hot paths.

Classic HPC benchmarking practice (RZBENCH and its descendants) is to
establish a reproducible measurement harness *first* and optimize the
measured bottlenecks second.  This module is that harness for the
repo's hot paths, one scenario each (in registry order):

- ``search``        -- the gradient task-scheduling search for a pair;
- ``profile_table`` -- full classification-table construction (the 60
  workload/server efficiency tuples of Fig. 9b);
- ``loadgen``       -- Poisson trace synthesis;
- ``single_node_des`` -- the single-server discrete-event simulation
  (best of three runs);
- seven fleet-replay scenarios, each a row of ``_REPLAY_SCENARIOS``
  that times legs of ``_LEGS`` (one replay configuration each) and
  checks their reports ``==``:

  - ``fleet_replay`` -- the request-level fleet replay on the python
    core (50 servers x 100k queries in the full configuration);
  - ``fleet_replay_fastcore`` -- round-robin routing on the vectorized
    batch core vs the per-event python core (CI gates
    ``speedup_vector_vs_python`` > 3.0 on the full configuration);
  - ``fleet_replay_queueaware`` -- one model fleet-wide under ``least``
    and under p2c, each on the python core vs the vector core's exact
    per-arrival router (``speedup_vector_least_vs_python`` > 2.0 on
    the full configuration);
  - ``fleet_replay_streaming`` -- a lazily streamed arrival process vs
    the materialized list, under p2c on the python core and under rr
    on the vector core (both ratios bounded at < 1.1);
  - ``fleet_replay_faultpath`` -- an empty fault schedule vs none, the
    tracked loop, and a scripted schedule on the python core vs the
    vectorized core (``speedup_vector_fault_vs_python`` > 2.5 on the
    full configuration);
  - ``fleet_replay_carbonpath`` -- gCO2 pricing after the run vs the
    bare replay (< 1.1), and a third leg that adds deferrable jobs;
  - ``fleet_replay_observed`` -- observer off vs plain construction
    (< 1.05; the same code, so an A/A), per-query tracing vs the
    tracked loop it rides on (< 1.5) and streaming metrics vs the dark
    loop (< 1.6).

  Each round runs every leg of a scenario once, reversing the order
  every other round; a leg's wall is its best over the rounds, a ratio
  the quotient of best walls (what ``BENCH_GATES`` reads) and
  ``<ratio>_rounds`` its per-round quotients.
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
from functools import partial
from typing import Any, Callable, NamedTuple

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


def _per(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def _replay_rates(result: Any, wall: float, queries: int) -> dict[str, Any]:
    """The rate fields of every fleet-replay block."""
    return {
        "queries": queries,
        "queries_per_s": _per(queries, wall),
        "events": result.events,
        "events_per_s": _per(result.events, wall),
        "completed": result.total_completed,
    }


def _max_rss_kb(children: bool = False) -> int | None:
    """Process RSS high-water mark in KiB (None where unsupported).

    ``ru_maxrss`` is monotone over the process lifetime, so the value
    recorded after each scenario is a running peak: the scenario whose
    reading jumps is the one that grew it.  A cheap OS counter is used
    instead of ``tracemalloc`` so the wall-time numbers stay honest.
    ``children=True`` reads the largest reaped child process instead
    (pool workers, once their pool has closed).
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    rss = resource.getrusage(who).ru_maxrss
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

    def time_leg(self, leg: dict[str, Any], trace: list) -> tuple[float, Any, Any]:
        """Time one ``sim.run`` of ``leg`` (a :data:`_LEGS` entry).

        Fresh replicas, the simulator and the probe are built before the
        timer; the leg's source and pricing pass run inside it.  Returns
        the wall, the report and the probe (None without one).
        """
        from repro.fleet import FleetSimulator

        kwargs = {"seed": self.seed, **leg}
        source = {
            "list": lambda: trace,
            "materialize": lambda: list(self.stream),
            "stream": lambda: self.stream,
        }[kwargs.pop("source", "list")]
        if "faults" in kwargs:
            kwargs["faults"] = _fault_schedule(kwargs["faults"], self)
        probe = None
        if "probe" in kwargs:
            probe = kwargs["observer"] = _probe(kwargs.pop("probe"), self)
        price = _pricer(kwargs.pop("price"), self) if "price" in kwargs else None
        sim = FleetSimulator(self.make_servers(), sla_ms=self.sla, **kwargs)

        def run():
            result = sim.run(source(), warmup_s=self.duration * 0.1)
            return result if price is None else price(sim, result)

        wall, result = _timed(run)
        return wall, result, probe


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
    pooled = (ctx.jobs or os.cpu_count() or 1) > 1 and len(servers) > 1
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
        # A pooled search runs in the workers, which RUSAGE_SELF does
        # not see; None when the profile ran in this process.
        "workers_max_rss_kb": _max_rss_kb(children=True) if pooled else None,
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
    # Best of three runs: one timed run spans too much scheduler noise
    # to resolve a change to the DES loop.
    wall, result = min(
        (_timed(lambda: sim.run(trace, warmup_s=duration * 0.1)) for _ in range(3)),
        key=lambda timed: timed[0],
    )
    events = result.events
    return {
        "wall_s": wall,
        "queries": len(trace),
        "queries_per_s": len(trace) / wall if wall > 0 else 0.0,
        "events": events,
        "events_per_s": (events / wall) if (events and wall > 0) else None,
        "completed": result.completed,
    }


#: Timed replay configurations ("legs"), each written once however many
#: scenarios time it.  Keys are ``FleetSimulator`` keywords (``seed``
#: defaults to the run's) except four that :meth:`_Fleet.time_leg`
#: resolves against the fleet: ``source`` (``"list"``, the trace built
#: before the timer, by default; ``"materialize"``, ``list(stream)``
#: inside it; ``"stream"``, the lazy source), ``faults`` (``"empty"`` or
#: ``"scripted"``), ``probe`` (a ``"metrics"`` or ``"trace"`` observer)
#: and ``price`` (gCO2 pricing after the run; ``"deferrable"`` first
#: plans and runs four jobs).
_LEGS: dict[str, dict[str, Any]] = {
    "p2c_python": {"policy": "p2c", "core": "python"},
    # observer=None is FleetSimulator's default, so this leg runs the
    # same code as p2c_python: their ratio is the harness's A/A null.
    "p2c_python_observer_off": {"policy": "p2c", "core": "python", "observer": None},
    "p2c_python_materialize": {
        "policy": "p2c", "core": "python", "source": "materialize",
    },
    "p2c_python_stream": {"policy": "p2c", "core": "python", "source": "stream"},
    "p2c_python_empty_faults": {"policy": "p2c", "core": "python", "faults": "empty"},
    # A retry budget buys per-query attempt records: the tracked loop,
    # which tracing rides on.
    "p2c_python_tracked": {
        "policy": "p2c", "core": "python", "faults": "empty", "retries": 2,
    },
    "p2c_python_metrics": {"policy": "p2c", "core": "python", "probe": "metrics"},
    "p2c_python_traced": {"policy": "p2c", "core": "python", "probe": "trace"},
    # "auto" routes p2c and least exactly per arrival on the vector core.
    "p2c_auto": {"policy": "p2c", "core": "auto"},
    "p2c_auto_carbon": {"policy": "p2c", "core": "auto", "price": "carbon"},
    "p2c_auto_deferrable": {"policy": "p2c", "core": "auto", "price": "deferrable"},
    "least_python": {"policy": "least", "core": "python"},
    "least_auto": {"policy": "least", "core": "auto"},
    "rr_python": {"policy": "rr", "core": "python"},
    "rr_vector": {"policy": "rr", "core": "vector"},
    "rr_vector_stream": {"policy": "rr", "core": "vector", "source": "stream"},
    "rr_python_scripted": {"policy": "rr", "core": "python", "faults": "scripted"},
    "rr_vector_scripted": {"policy": "rr", "core": "vector", "faults": "scripted"},
}


def _fault_schedule(kind: str, fleet: _Fleet):
    from repro.fleet import FaultSchedule
    from repro.fleet.faults import crash, slowdown

    if kind == "empty":
        return FaultSchedule()
    # Two recovering crashes, a slowdown episode and a permanent crash;
    # targets scale with the fleet so quick mode stays in range.
    n_srv, duration = fleet.servers, fleet.duration
    return FaultSchedule([
        crash(duration * 0.30, 0, recover_after=duration * 0.15),
        crash(duration * 0.55, max(1, n_srv // 4), recover_after=duration * 0.10),
        slowdown(duration * 0.20, max(2, n_srv // 3), 2.5, duration=duration * 0.30),
        crash(duration * 0.80, n_srv - 1),
    ])


def _probe(kind: str, fleet: _Fleet):
    from repro.obs import FleetProbe

    window_s = max(fleet.duration / 32.0, 1e-3)  # ~32 samples regardless of mode
    return FleetProbe(
        window_s=window_s, metrics=kind == "metrics", trace=kind == "trace"
    )


def _pricer(kind: str, fleet: _Fleet) -> Callable[[Any, Any], Any]:
    """``price(sim, result)``: the post-run gCO2 pass a priced replay pays."""
    from repro.carbon import (
        CarbonTrace,
        DeferrableJob,
        attach_carbon,
        realtime_power_profile,
        run_deferrable,
    )

    duration = fleet.duration
    carbon = CarbonTrace.diurnal(period_s=duration, steps=24)
    jobs = () if kind == "carbon" else tuple(
        DeferrableJob(
            name=f"batch-{i}",
            submit_s=i * duration / 8.0,
            duration_s=duration / 16.0,
            power_w=800.0,
            deadline_s=i * duration / 8.0 + duration / 4.0,
        )
        for i in range(4)
    )

    def price(sim, result):
        horizon = sim.last_horizon_s
        report = run_deferrable(
            jobs, carbon, policy="carbon-waiting", horizon_s=horizon,
            realtime_profile=realtime_power_profile(sim.servers),
        ) if jobs else None
        return attach_carbon(result, sim.servers, carbon, horizon, report)

    return price


#: The replay scenarios' fleets: shares, then the ``cfg`` keys of their
#: size.
_REPLAY_FLEETS = {
    "two_model": (_TWO_MODEL_SHARES, "fleet_servers", "fleet_queries"),
    "one_model": (_ONE_MODEL_SHARES, "queueaware_servers", "queueaware_queries"),
}


class _ReplayScenario(NamedTuple):
    """One fleet-replay scenario as data, run by :func:`_time_legs`.

    ``walls`` maps output wall keys to legs, in timing order (the
    ``wall_s`` leg's report fills the common fields); ``ratios`` maps
    output keys to ``(leg, leg)``, best wall over best wall; ``checks``
    are ``(leg, reference leg, report fields)`` that must be ``==``
    (``name()`` calls a method); ``extra`` adds fields from the last
    round's ``{leg: (report, probe)}``.
    """

    fleet: str
    rounds: int
    walls: dict[str, str]
    ratios: dict[str, tuple[str, str]]
    checks: tuple[tuple[str, str, tuple[str, ...]], ...] = ()
    extra: Callable[[dict[str, Any]], dict[str, Any]] | None = None


def _least_percentiles(runs: dict[str, Any]) -> dict[str, Any]:
    (stats,) = runs["least_auto"][0].per_model.values()
    return {"p50_ms": stats.p50_ms, "p99_ms": stats.p99_ms}


def _emissions(runs: dict[str, Any]) -> dict[str, Any]:
    carbon = runs["p2c_auto_carbon"][0].carbon
    if carbon is None or carbon.total_g <= 0.0:
        raise AssertionError("carbon-on replay produced no emissions")
    return {"total_g": carbon.total_g}


def _probe_sizes(runs: dict[str, Any]) -> dict[str, Any]:
    return {
        "metric_rows": len(runs["p2c_python_metrics"][1].metrics_rows),
        "trace_spans": len(runs["p2c_python_traced"][1].spans),
    }


#: The fleet-replay scenarios, in registry order.
_REPLAY_SCENARIOS: dict[str, _ReplayScenario] = {
    # The per-event loop's absolute trajectory, pinned to the python
    # core ("auto" would route p2c on the vector core).
    "fleet_replay": _ReplayScenario("two_model", 1, {"wall_s": "p2c_python"}, {}),
    # rr: the configuration the vectorized batch core targets.
    "fleet_replay_fastcore": _ReplayScenario(
        "two_model", 3,
        {"wall_python_s": "rr_python", "wall_s": "rr_vector"},
        {"speedup_vector_vs_python": ("rr_python", "rr_vector")},
        (("rr_vector", "rr_python", ("per_model", "events")),),
    ),
    "fleet_replay_queueaware": _ReplayScenario(
        "one_model", 3,
        {
            "wall_python_s": "least_python",
            "wall_s": "least_auto",
            "wall_p2c_python_s": "p2c_python",
            "wall_p2c_vector_s": "p2c_auto",
        },
        {
            "speedup_vector_least_vs_python": ("least_python", "least_auto"),
            "speedup_vector_p2c_vs_python": ("p2c_python", "p2c_auto"),
        },
        (
            ("least_auto", "least_python", ("to_dict()",)),
            ("p2c_auto", "p2c_python", ("to_dict()",)),
        ),
        _least_percentiles,
    ),
    # Traffic synthesis is timed on both sides of the python pair: the
    # materialized leg builds the list inside its timer.
    "fleet_replay_streaming": _ReplayScenario(
        "two_model", 3,
        {
            "wall_materialized_s": "p2c_python_materialize",
            "wall_s": "p2c_python_stream",
            "wall_vector_list_s": "rr_vector",
            "wall_vector_stream_s": "rr_vector_stream",
        },
        {
            "ratio_vs_materialized": ("p2c_python_stream", "p2c_python_materialize"),
            "ratio_vector_stream_vs_list": ("rr_vector_stream", "rr_vector"),
        },
        (
            ("p2c_python_stream", "p2c_python_materialize", ("per_model",)),
            ("rr_vector_stream", "rr_vector", ("per_model",)),
        ),
    ),
    # An empty schedule must equal no schedule, on the light loop and
    # on the tracked one; the vectorized fault path partitions the
    # horizon at fault boundaries and must stay bit-identical.
    "fleet_replay_faultpath": _ReplayScenario(
        "two_model", 3,
        {
            "wall_s": "p2c_python_empty_faults",
            "wall_fault_off_s": "p2c_python",
            "wall_tracked_s": "p2c_python_tracked",
            "wall_fault_python_s": "rr_python_scripted",
            "wall_fault_vector_s": "rr_vector_scripted",
        },
        {
            "ratio_tracked_vs_fault_off": ("p2c_python_tracked", "p2c_python"),
            "speedup_vector_fault_vs_python": (
                "rr_python_scripted", "rr_vector_scripted",
            ),
        },
        (
            ("p2c_python_empty_faults", "p2c_python", ("per_model",)),
            ("p2c_python_tracked", "p2c_python", ("per_model",)),
            (
                "rr_vector_scripted", "rr_python_scripted",
                ("per_model", "fault_events", "availability", "phases",
                 "events", "avg_power_w"),
            ),
        ),
    ),
    # Pricing only adds the carbon block: the realtime report of every
    # priced leg must equal the bare replay's.
    "fleet_replay_carbonpath": _ReplayScenario(
        "two_model", 2,
        {
            "wall_s": "p2c_auto_carbon",
            "wall_carbon_off_s": "p2c_auto",
            "wall_deferrable_s": "p2c_auto_deferrable",
        },
        {
            "ratio_vs_carbon_off": ("p2c_auto_carbon", "p2c_auto"),
            "ratio_deferrable_vs_carbon_off": ("p2c_auto_deferrable", "p2c_auto"),
        },
        (
            ("p2c_auto_carbon", "p2c_auto", ("per_model", "avg_power_w")),
            ("p2c_auto_deferrable", "p2c_auto", ("per_model", "avg_power_w")),
        ),
        _emissions,
    ),
    # Every leg runs the python core (probes, tracing and retries need
    # it), and no observer may perturb a float of the plain run.
    "fleet_replay_observed": _ReplayScenario(
        "two_model", 2,
        {
            "wall_plain_s": "p2c_python",
            "wall_s": "p2c_python_observer_off",
            "wall_metrics_s": "p2c_python_metrics",
            "wall_tracked_s": "p2c_python_tracked",
            "wall_traced_s": "p2c_python_traced",
        },
        {
            "ratio_off_vs_plain": ("p2c_python_observer_off", "p2c_python"),
            "ratio_traced_vs_tracked": ("p2c_python_traced", "p2c_python_tracked"),
            "ratio_metrics_vs_off": ("p2c_python_metrics", "p2c_python_observer_off"),
            "ratio_traced_vs_off": ("p2c_python_traced", "p2c_python_observer_off"),
        },
        tuple(
            (leg, "p2c_python", ("per_model",))
            for leg in ("p2c_python_observer_off", "p2c_python_metrics",
                        "p2c_python_tracked", "p2c_python_traced")
        ),
        _probe_sizes,
    ),
}


def _report_field(result: Any, field: str) -> Any:
    if field.endswith("()"):
        return getattr(result, field[:-2])()
    return getattr(result, field)


def _time_legs(ctx: _Context, spec: _ReplayScenario) -> dict[str, Any]:
    """Time a scenario's legs in interleaved rounds and summarize them.

    Every round replays each leg once, in table order on even rounds and
    reversed on odd ones, so the two legs of a ratio run side by side
    instead of all runs of one before all runs of the other.  A leg's
    wall is its best over the rounds, a ratio the quotient of best walls
    (the gated statistic) and ``<ratio>_rounds`` its per-round
    quotients.  A failed check raises :class:`AssertionError` naming
    both legs and the field.
    """
    shares, servers, queries = _REPLAY_FLEETS[spec.fleet]
    fleet = _Fleet(ctx, shares, ctx.cfg[servers], ctx.cfg[queries])
    trace = list(fleet.stream)
    order = list(spec.walls.values())
    walls: dict[str, list[float]] = {leg: [] for leg in order}
    runs: dict[str, Any] = {}
    for r in range(spec.rounds):
        for leg in order if r % 2 == 0 else order[::-1]:
            wall, result, probe = fleet.time_leg(_LEGS[leg], trace)
            walls[leg].append(wall)
            runs[leg] = result, probe
    for leg, ref, fields in spec.checks:
        for field in fields:
            got = _report_field(runs[leg][0], field)
            if got != _report_field(runs[ref][0], field):
                raise AssertionError(
                    f"leg {leg!r} diverged from its reference leg {ref!r} on {field}"
                )

    best = {leg: min(w) for leg, w in walls.items()}
    out: dict[str, Any] = {key: best[leg] for key, leg in spec.walls.items()}
    for key, (num, den) in spec.ratios.items():
        out[key] = _per(best[num], best[den])
        out[f"{key}_rounds"] = [_per(a, b) for a, b in zip(walls[num], walls[den])]
    out["servers"] = fleet.servers
    out.update(_replay_rates(runs[spec.walls["wall_s"]][0], out["wall_s"], len(trace)))
    if spec.extra is not None:
        out.update(spec.extra(runs))
    return out


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
    return {
        "wall_s": wall_sharded,
        "wall_single_s": wall_single,
        "speedup_shards": _per(wall_single, wall_sharded),
        "sharded_merge_equal": True,
        "shards": 4,
        "servers": len(result_sharded.servers),
        **_replay_rates(result_sharded, wall_sharded, queries),
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
    return {
        "wall_s": wall,
        **_replay_rates(result, wall, queries),
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
    **{name: partial(_time_legs, spec=s) for name, s in _REPLAY_SCENARIOS.items()},
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
    entry present in either document, with the new value's per-round
    range where the document records ``<metric>_rounds``, and a flag
    that is True when any gated metric in the *new* document fails its
    threshold, or when a gated scenario ran in the new document but
    recorded ``{"skipped": ...}`` (documents can come from any
    checkout).  ``full_only`` gates are skipped on a document not
    produced in full mode; metrics absent from the new document
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
        block = new_sc.get(scenario, {})
        o = old_sc.get(scenario, {}).get(metric)
        nw = block.get(metric)
        skipped = block.get("skipped")
        if o is None and nw is None and skipped is None:
            continue
        label = f"{scenario}.{metric} {op} {threshold}"
        o_txt = f"{o:7.3f}" if isinstance(o, (int, float)) else "    -- "
        n_txt = f"{nw:7.3f}" if isinstance(nw, (int, float)) else "    -- "
        rounds = block.get(f"{metric}_rounds")
        if rounds:
            n_txt += f" [rounds {min(rounds):.3f}-{max(rounds):.3f}]"
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
