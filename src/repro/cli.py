"""Command-line interface for the Hercules reproduction.

Subcommands:

- ``models``   -- list the Table I model zoo.
- ``servers``  -- list the Table II server types.
- ``search``   -- run the task-scheduling search for one pair.
- ``profile``  -- build the efficiency-tuple classification table.
- ``serve``    -- provision a diurnal day through a cluster scheduler.
- ``fleet``    -- request-level fleet replay (routing, reactive or
  predictive autoscaling, fault injection with retries/hedging,
  measured SLA/availability/power report) over a synthesized diurnal
  day, an ``--arrivals`` process spec (Poisson/MMPP-burst/diurnal
  superpositions), or a recorded ``--trace`` file.
- ``provision-fault-aware`` -- close the availability loop: iterate
  fault-injected fleet replays to the smallest over-provision rate
  ``R`` meeting a target service availability, and report the power
  delta against the fault-blind provisioner.
- ``provision-carbon-aware`` -- find the lowest-carbon operating
  point: bisect ``R`` to the smallest fleet meeting a target service
  availability, then sweep deferrable-job (policy, power cap,
  deferral horizon) plans on its measured activation profile and pick
  the least-gCO2 feasible one.
- ``observe``  -- summarize (or diff) telemetry files exported by
  ``fleet --metrics-out/--trace-out``: windowed metrics series
  (CSV/JSONL), tagged span traces (JSONL), and Chrome trace-event
  JSON.
- ``bench``    -- perf-regression harness over the hot paths; writes
  machine-readable ``BENCH_perf.json``.

``fleet``, ``provision-fault-aware``, and ``provision-carbon-aware``
accept ``--json`` for
machine-readable results (floats serialized with ``repr``, so they
round-trip exactly); progress chatter then moves to stderr.

Subcommands that fan out over (server type, model) pairs accept
``--jobs`` for process-parallel profiling and thread ``--seed`` through
every trace generator, so runs are reproducible bit-for-bit.

Installed as ``hercules-repro`` (see pyproject) or run with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence

from repro.analysis import format_series, format_table
from repro.carbon import (
    DEFERRABLE_POLICIES,
    attach_carbon,
    load_carbon,
    parse_deferrable,
    realtime_power_profile,
    run_deferrable,
)
from repro.cluster import (
    Allocation,
    ClusterManager,
    GreedyScheduler,
    HerculesClusterScheduler,
    NHScheduler,
    PriorityAwareScheduler,
    allocation_drawn_power_w,
    synchronous_traces,
)
from repro.fleet import (
    ROUTING_POLICIES,
    FaultSchedule,
    FleetSimulator,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    build_fleet,
    diurnal_segments,
    provision_carbon_aware,
    provision_fault_aware,
)
from repro.fleet.engine import FLEET_CORES
from repro.hardware import SERVER_AVAILABILITY, SERVER_TYPES
from repro.models import MODEL_NAMES, build_model
from repro.rowfile import csv_cell_refusal
from repro.scheduling import (
    BaselineTaskScheduler,
    HerculesTaskScheduler,
    OfflineProfiler,
)
from repro.sim import QueryWorkload, ServerEvaluator
from repro.traces import (
    FleetArrivals,
    PiecewisePoissonProcess,
    RecordedTrace,
    parse_arrivals,
)

_CLUSTER_POLICIES = {
    "nh": NHScheduler,
    "greedy": GreedyScheduler,
    "priority": PriorityAwareScheduler,
    "hercules": HerculesClusterScheduler,
}


def _cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name in MODEL_NAMES:
        d = build_model(name).describe()
        rows.append(
            [
                d["model"],
                d["service"],
                d["tables"],
                d["pooling"],
                round(d["weight_gb"], 1),
                round(d["flops_per_item"] / 1e6, 2),
                d["sla_ms"],
            ]
        )
    print(
        format_table(
            ["model", "service", "tables", "pooling", "GB", "MFLOP/item", "SLA ms"],
            rows,
            title="Table I model zoo",
        )
    )
    return 0


def _cmd_servers(args: argparse.Namespace) -> int:
    rows = [
        [
            name,
            server.label,
            server.cpu.cores,
            round(server.memory.capacity_bytes / 1e9),
            round(server.tdp_w),
            SERVER_AVAILABILITY[name],
        ]
        for name, server in SERVER_TYPES.items()
    ]
    print(
        format_table(
            ["type", "composition", "cores", "mem GB", "TDP W", "avail"],
            rows,
            title="Table II server types",
        )
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    model = build_model(args.model)
    evaluator = ServerEvaluator(SERVER_TYPES[args.server])
    sla = args.sla if args.sla is not None else model.sla_ms
    hercules = HerculesTaskScheduler(evaluator, model, sla_ms=sla).search()
    rows = [
        [
            "Hercules",
            hercules.plan.describe() if hercules.plan else "infeasible",
            round(hercules.perf.qps) if hercules.feasible else 0,
            round(hercules.perf.latency.p99_ms, 1) if hercules.feasible else "-",
            round(hercules.perf.qps_per_watt, 2) if hercules.feasible else "-",
            hercules.evaluations,
        ]
    ]
    if args.baseline:
        baseline = BaselineTaskScheduler(evaluator, model, sla_ms=sla).search()
        rows.append(
            [
                "DeepRecSys+Baymax",
                baseline.plan.describe() if baseline.plan else "infeasible",
                round(baseline.perf.qps) if baseline.feasible else 0,
                round(baseline.perf.latency.p99_ms, 1) if baseline.feasible else "-",
                round(baseline.perf.qps_per_watt, 2) if baseline.feasible else "-",
                baseline.evaluations,
            ]
        )
    print(
        format_table(
            ["scheduler", "plan", "QPS", "p99 ms", "QPS/W", "evals"],
            rows,
            title=f"{args.model} on {args.server} (SLA {sla:.0f} ms)",
        )
    )
    return 0 if hercules.feasible else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    servers = [SERVER_TYPES[s] for s in args.servers]
    models = [build_model(m) for m in args.models]
    table = OfflineProfiler().profile(servers, models, jobs=args.jobs)
    rows = [
        [
            tup.server_name,
            tup.model_name,
            round(tup.qps),
            round(tup.power_w),
            round(tup.qps_per_watt, 2),
            tup.plan.describe() if tup.plan else "infeasible",
        ]
        for tup in table.entries.values()
    ]
    print(
        format_table(
            ["server", "model", "QPS", "power W", "QPS/W", "plan"],
            rows,
            title="Workload classification (efficiency tuples)",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    servers = [SERVER_TYPES[s] for s in args.servers]
    models = [build_model(m) for m in args.models]
    table = OfflineProfiler().profile(servers, models)
    fleet = {s: SERVER_AVAILABILITY[s] for s in args.servers}
    peaks = {m.name: args.peak_qps for m in models}
    traces = synchronous_traces(peaks)
    policy = _CLUSTER_POLICIES[args.policy]
    manager = ClusterManager(
        policy(table, fleet),
        interval_minutes=args.interval,
        over_provision=args.over_provision,
    )
    day = manager.run_day(traces)
    print(
        format_series(
            day.power_series(),
            x_label="hour",
            y_label="provisioned W",
            title=f"{args.policy} provisioning over one day",
            precision=0,
        )
    )
    print(
        f"\npeak {day.peak_power_w / 1e3:.2f} kW / avg "
        f"{day.average_power_w / 1e3:.2f} kW, peak servers "
        f"{day.peak_servers}, shortfall: {day.any_shortfall}"
    )
    return 1 if day.any_shortfall else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _distribute_fleet(total: int, types: list[str]) -> dict[str, int]:
    """Split ``total`` servers over types proportional to availability."""
    weights = {t: SERVER_AVAILABILITY[t] for t in types}
    scale = sum(weights.values())
    counts = {t: int(total * w / scale) for t, w in weights.items()}
    remainders = sorted(
        types, key=lambda t: total * weights[t] / scale - counts[t], reverse=True
    )
    for t in remainders:
        if sum(counts.values()) >= total:
            break
        counts[t] += 1
    return {t: n for t, n in counts.items() if n > 0}


def _fleet_inputs(args: argparse.Namespace, target_utilization: float):
    """Shared `fleet`/`provision-*` setup: profile the table, shape the
    fleet, and build the arrival source.

    Peak loads are explicit (``--peak-qps``) or sized so the fleet
    peaks around ``target_utilization`` of aggregate capacity.  The
    arrival source is the legacy compressed diurnal piecewise-Poisson
    stream by default, an ``--arrivals`` process spec scaled to each
    model's peak, or an on-disk ``--trace`` replay -- all returned as
    lazily-streamed re-iterable sources.
    Returns ``(models, table, fleet_counts, traces, workloads, source)``.
    """
    if getattr(args, "trace", None) and getattr(args, "arrivals", None):
        raise SystemExit("--trace and --arrivals are mutually exclusive")
    if getattr(args, "trace", None) and args.peak_qps is None:
        raise SystemExit(
            "--trace needs --peak-qps (the recorded file fixes the arrival "
            "rates, but provisioning still sizes the fleet from the peak)"
        )
    # Check the trace's format and parse the arrival spec before the
    # profile, so a malformed value fails fast.
    recorded = RecordedTrace(args.trace) if getattr(args, "trace", None) else None
    spec = parse_arrivals(args.arrivals) if getattr(args, "arrivals", None) else None
    _check_exports(args, recorded)
    server_types = [SERVER_TYPES[s] for s in args.server_types]
    models = {name: build_model(name) for name in args.models}
    print(
        f"Profiling {len(server_types)} server types x {len(models)} models ...",
        flush=True,
        # --json owns stdout; progress chatter moves to stderr.
        file=sys.stderr if getattr(args, "json", False) else sys.stdout,
    )
    table = OfflineProfiler().profile(
        server_types, list(models.values()), jobs=args.jobs
    )
    fleet_counts = _distribute_fleet(args.servers, list(args.server_types))

    if args.peak_qps is not None:
        peaks = {name: args.peak_qps for name in models}
    else:
        peaks = {}
        for name in models:
            capacity = sum(
                count * table.qps(t, name) for t, count in fleet_counts.items()
            )
            peaks[name] = target_utilization * capacity / len(models)
    traces = synchronous_traces(peaks)
    workloads = {
        name: QueryWorkload.for_model(m.config.mean_query_size)
        for name, m in models.items()
    }
    if recorded is not None:
        source = recorded
    elif spec is not None:
        source = FleetArrivals(
            {
                name: spec.build(workloads[name], peaks[name], args.duration)
                for name in models
            },
            seed=args.seed,
        )
    else:
        segments = {
            name: diurnal_segments(trace, args.duration, steps=args.segments)
            for name, trace in traces.items()
        }
        source = FleetArrivals(
            {
                name: PiecewisePoissonProcess(workloads[name], segs)
                for name, segs in segments.items()
            },
            seed=args.seed,
        )
    return models, table, fleet_counts, traces, workloads, source


def _check_exports(args: argparse.Namespace, recorded: RecordedTrace | None) -> None:
    """Refuse, before the profile, an output file the replay could not
    write: a ``--metrics-out``/``--trace-out`` extension the probe does
    not write, or a CSV ``--metrics-out`` that a recorded trace's model
    names would corrupt (read from the scan ``end_s`` makes anyway)."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if not (metrics_out or trace_out):
        return
    from repro.obs import FleetProbe

    try:
        metrics_fmt = FleetProbe.metrics_format(metrics_out) if metrics_out else None
        if trace_out:
            FleetProbe.trace_format(trace_out)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if metrics_fmt == "csv" and recorded is not None:
        for name in recorded.models():
            refusal = csv_cell_refusal("model", name)
            if refusal is not None:
                raise SystemExit(f"{metrics_out}: {refusal}")


def _replay_span_s(args: argparse.Namespace, source) -> float:
    """Seconds the replay spans: --duration, or the recorded trace's
    actual extent (a capture's span has nothing to do with --duration,
    and warmup/autoscaler windows must scale with the real one)."""
    if getattr(args, "trace", None):
        return max(source.end_s, 1e-9)
    return args.duration


def _cmd_fleet(args: argparse.Namespace) -> int:
    # Every spec is parsed before the profile, so a malformed one fails fast.
    faults = FaultSchedule.parse(args.faults) if args.faults else None
    carbon = load_carbon(args.carbon) if args.carbon else None
    deferrable = None
    if args.deferrable:
        if carbon is None:
            raise SystemExit("--deferrable needs --carbon (jobs are "
                             "scheduled against the grid's intensity)")
        deferrable = parse_deferrable(args.deferrable)
    if not args.deferrable and (
        args.power_cap is not None or args.deferral_horizon is not None
    ):
        raise SystemExit(
            "--power-cap/--deferral-horizon shape the deferrable plan; "
            "they need --carbon and --deferrable"
        )
    if args.shards > 1:
        if faults is not None or args.retries or args.hedge_ms is not None:
            raise SystemExit(
                "--shards > 1 supports fault-free replays only: fault "
                "injection couples shards through cross-model dead "
                "domains; drop --faults/--retries/--hedge-ms or run "
                "--shards 1 (add --percentile-mode sketch for the "
                "memory ceiling)"
            )
        if args.metrics_out or args.trace_out:
            raise SystemExit(
                "--shards > 1 cannot export observability (the probe "
                "needs the single-process loop); drop "
                "--metrics-out/--trace-out or run --shards 1"
            )
        if carbon is not None:
            raise SystemExit(
                "--shards > 1 cannot account carbon (activation windows "
                "live in the worker processes); drop --carbon or run "
                "--shards 1"
            )
    # 60% aggregate utilization: the regime where routing quality shows.
    models, table, fleet_counts, traces, workloads, source = _fleet_inputs(
        args, target_utilization=0.6
    )
    span = _replay_span_s(args, source)
    scheduler = HerculesClusterScheduler(table, fleet_counts)

    peak_loads = {m: t.peak_qps for m, t in traces.items()}
    allocation = scheduler.allocate(peak_loads, over_provision=args.over_provision)
    peak_allocation = allocation
    autoscaler = None
    standby = None
    if args.autoscale:
        trough_loads = {
            m: t.peak_qps * t.trough_ratio for m, t in traces.items()
        }
        base = scheduler.allocate(trough_loads, over_provision=args.over_provision)
        standby = allocation.minus(base)
        allocation = base
        window = max(span / 48.0, 0.02)
        sla = {name: m.sla_ms for name, m in models.items()}
        if args.autoscale_mode == "predictive":
            autoscaler = PredictiveAutoscaler(sla, window_s=window)
        else:
            autoscaler = ReactiveAutoscaler(
                sla, window_s=window, cooldown_s=2.0 * window
            )
    chatter = sys.stderr if args.json else sys.stdout
    if peak_allocation.has_shortfall:
        print("warning: fleet cannot cover the requested peak load", file=chatter)

    deferrable_jobs = deferrable.build(span) if deferrable is not None else ()
    probe = None
    if args.metrics_out or args.trace_out:
        from repro.obs import FleetProbe

        probe = FleetProbe(
            window_s=args.metrics_window_s,
            metrics=args.metrics_out is not None,
            trace=args.trace_out is not None,
        )
    if args.shards > 1:
        from repro.fleet.sharded import run_fleet_sharded

        result = run_fleet_sharded(
            allocation,
            table,
            models,
            workloads,
            source,
            shards=args.shards,
            policy=args.policy,
            sla_ms={name: m.sla_ms for name, m in models.items()},
            autoscaler=autoscaler,
            seed=args.seed,
            percentile_mode=args.percentile_mode,
            warmup_s=span * 0.05,
            standby=standby,
            core=args.core,
        )
    else:
        servers = build_fleet(
            allocation, table, models, workloads, standby=standby
        )
        sim = FleetSimulator(
            servers,
            policy=args.policy,
            sla_ms={name: m.sla_ms for name, m in models.items()},
            autoscaler=autoscaler,
            seed=args.seed,
            faults=faults,
            retries=args.retries,
            hedge_ms=args.hedge_ms,
            observer=probe,
            core=args.core,
            percentile_mode=args.percentile_mode,
        )
        result = sim.run(source, warmup_s=span * 0.05)
        if carbon is not None:
            report = None
            if deferrable_jobs:
                report = run_deferrable(
                    deferrable_jobs,
                    carbon,
                    policy=args.deferrable_policy,
                    horizon_s=sim.last_horizon_s,
                    power_cap_w=args.power_cap,
                    realtime_profile=realtime_power_profile(servers),
                    deferral_horizon_s=args.deferral_horizon,
                )
            result = attach_carbon(
                result, servers, carbon, sim.last_horizon_s, report
            )
    if probe is not None:
        if args.metrics_out:
            probe.export_metrics(args.metrics_out)
            print(f"wrote metrics series to {args.metrics_out}", file=chatter)
        if args.trace_out:
            probe.export_trace(args.trace_out)
            print(f"wrote query trace to {args.trace_out}", file=chatter)
    avg_loads = {m: t.average_load() for m, t in traces.items()}
    drawn = allocation_drawn_power_w(peak_allocation, table, avg_loads, models)
    provisioned = peak_allocation.provisioned_power_w(table)
    if args.json:
        payload = result.to_dict()
        payload["analytic"] = {
            "provisioned_power_w": provisioned,
            "drawn_power_w": drawn,
        }
        print(json.dumps(payload))
    else:
        print()
        print(
            result.format(
                title=(
                    f"{args.policy} routing, {len(result.servers)} provisioned of "
                    f"{args.servers} fleet servers "
                    + (
                        f"({span:.0f}s recorded trace)"
                        if args.trace
                        else f"({span:.0f}s compressed diurnal day)"
                    )
                )
            )
        )
        print(
            f"analytic check: provisioned {provisioned / 1e3:.2f} kW, "
            f"drawn at average load {drawn / 1e3:.2f} kW"
        )
    # Drops are an error only when nothing (autoscaler, fault injection)
    # could legitimately leave a stream without replicas.
    return 1 if result.total_dropped and not (args.autoscale or faults) else 0


def _provision_inputs(args: argparse.Namespace):
    """Shared `provision-*` setup: profile the table, shape the fleet,
    and materialize the traffic every candidate ``R`` replays.

    Returns ``(span, search)``: the replay span and the arguments both
    library searches take, by name.
    """
    # 50% aggregate utilization: leaves fleet headroom to grow R into.
    models, table, fleet_counts, traces, workloads, source = _fleet_inputs(
        args, target_utilization=0.5
    )
    span = _replay_span_s(args, source)
    search = dict(
        scheduler=HerculesClusterScheduler(table, fleet_counts),
        table=table,
        models=models,
        workloads=workloads,
        # The search replays the identical traffic at every candidate R;
        # materializing once beats re-drawing the stream a dozen times.
        trace=list(source),
        loads={m: t.peak_qps for m, t in traces.items()},
        sla_ms={name: m.sla_ms for name, m in models.items()},
        target_availability=args.target_availability,
        policy=args.policy,
        seed=args.seed,
        core=args.core,
        percentile_mode=args.percentile_mode,
        warmup_s=span * 0.05,
        r_min=args.r_min,
        r_max=args.r_max,
        r_tol=args.r_tol,
        max_evals=args.max_evals,
    )
    return span, search


def _announce_search(args: argparse.Namespace, detail: str) -> None:
    print(
        f"Searching R in [{args.r_min:.2f}, {args.r_max:.2f}] for "
        f"{args.target_availability * 100:.2f}% service availability"
        f"{detail} ...",
        flush=True,
        file=sys.stderr if args.json else sys.stdout,
    )


def _print_provision(args: argparse.Namespace, outcome, to_doc) -> int:
    """Shared `provision-*` tail: print the outcome as one JSON object
    (``to_doc(outcome)``) or as tables; exit 0 when converged."""
    if args.json:
        print(json.dumps(to_doc(outcome)))
    else:
        print()
        print(outcome.format())
        if outcome.converged:
            print()
            print(
                outcome.result.format(
                    title=(
                        f"fleet replay at chosen R={outcome.chosen_r:.3f} "
                        f"({args.policy} routing, "
                        f"{outcome.allocation.total_servers} replicas)"
                    )
                )
            )
    return 0 if outcome.converged else 1


def _allocation_doc(allocation) -> dict:
    """An allocation as a ``"server:model" -> replicas`` count map."""
    return {
        f"{srv}:{model}": count
        for (srv, model), count in sorted(allocation.counts.items())
    }


def _ledger_doc(evaluations, omit: tuple[str, ...] = ()) -> list[dict]:
    """The per-``R`` evaluation ledger, one row per point in
    :class:`~repro.fleet.ProvisionEval` field order, less ``omit``."""
    return [
        {k: v for k, v in dataclasses.asdict(ev).items() if k not in omit}
        for ev in evaluations
    ]


def _cmd_provision_fault_aware(args: argparse.Namespace) -> int:
    if args.shards > 1:
        raise SystemExit(
            "--shards > 1 is not supported by provision-fault-aware: its "
            "replays are fault-injected, and fault injection couples "
            "shards through cross-model dead domains; use --percentile-"
            "mode sketch to bound replay memory instead"
        )
    faults = FaultSchedule.parse(args.faults)
    _, search = _provision_inputs(args)
    if faults.is_empty:
        print(
            "warning: empty fault schedule -- the loop will trivially pick "
            "the smallest R meeting the SLA",
            file=sys.stderr if args.json else sys.stdout,
        )
    _announce_search(args, f" ({len(search['trace'])} queries per replay)")
    outcome = provision_fault_aware(
        faults=faults,
        baseline_r=args.baseline_r,
        retries=args.retries,
        hedge_ms=args.hedge_ms,
        **search,
    )
    return _print_provision(args, outcome, _provision_outcome_dict)


def _provision_outcome_dict(outcome) -> dict:
    """JSON view of a fault-aware provisioning search outcome.

    Floats pass through untouched (``json.dumps`` renders them with
    ``repr``, so values round-trip exactly).  A search that did not
    converge has no chosen allocation or result: both are ``null``.
    """
    converged = outcome.converged
    return {
        "target_availability": outcome.target_availability,
        "converged": converged,
        "chosen_r": outcome.chosen_r,
        "baseline_r": outcome.baseline_r,
        "replays": outcome.replays,
        "provisioned_power_w": outcome.provisioned_power_w,
        "baseline_power_w": outcome.baseline_power_w,
        "standby_power_w": outcome.standby_power_w,
        "power_delta_w": outcome.power_delta_w,
        "allocation": _allocation_doc(outcome.allocation) if converged else None,
        "baseline_allocation": _allocation_doc(outcome.baseline_allocation),
        "evaluations": _ledger_doc(outcome.evaluations),
        "result": outcome.result.to_dict() if converged else None,
        "baseline_result": outcome.baseline_result.to_dict(),
    }


def _cmd_provision_carbon_aware(args: argparse.Namespace) -> int:
    if args.shards > 1:
        raise SystemExit(
            "--shards > 1 is not supported by provision-carbon-aware: "
            "carbon accounting needs the single-process loop's "
            "activation windows; use --percentile-mode sketch to bound "
            "replay memory instead"
        )
    if args.retries or args.hedge_ms is not None:
        raise SystemExit(
            "--retries/--hedge-ms are not supported by "
            "provision-carbon-aware: its search replays every candidate "
            "fleet fault-free, without retries or hedging; drop them, or "
            "size the fleet against crashes with provision-fault-aware, "
            "which takes both"
        )
    carbon = load_carbon(args.carbon)
    deferrable = parse_deferrable(args.deferrable) if args.deferrable else None
    span, search = _provision_inputs(args)
    jobs = deferrable.build(span) if deferrable is not None else ()
    _announce_search(
        args,
        f", then sweeping {len(jobs)} deferrable jobs over "
        f"{len(args.policies)} policies x {len(args.power_caps)} caps x "
        f"{len(args.deferral_horizons)} horizons",
    )
    outcome = provision_carbon_aware(
        carbon=carbon,
        jobs=jobs,
        policies=args.policies,
        power_caps=args.power_caps,
        deferral_horizons=args.deferral_horizons,
        **search,
    )
    return _print_provision(args, outcome, _carbon_outcome_dict)


def _carbon_outcome_dict(outcome) -> dict:
    """JSON view of a carbon-aware provisioning search outcome."""
    doc = {
        "target_availability": outcome.target_availability,
        "converged": outcome.converged,
        "chosen_r": outcome.chosen_r,
        "replays": outcome.replays,
        "provisioned_power_w": outcome.provisioned_power_w,
        "total_g": outcome.total_g,
        "no_wait_g": outcome.no_wait_g,
        "deferral_savings_g": outcome.deferral_savings_g,
        "evaluations": _ledger_doc(
            outcome.evaluations,
            omit=("uptime_availability", "worst_violation_rate"),
        ),
        "plan": [dataclasses.asdict(pt) for pt in outcome.plan],
        "chosen_plan": (
            dataclasses.asdict(outcome.chosen_plan)
            if outcome.chosen_plan is not None
            else None
        ),
    }
    if outcome.converged:
        doc["allocation"] = _allocation_doc(outcome.allocation)
        doc["result"] = outcome.result.to_dict()
    return doc


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.obs import diff_summaries, format_diff, format_summary, summarize_file

    summary = summarize_file(args.file)
    if args.other is None:
        if args.json:
            print(json.dumps(summary))
        else:
            print(format_summary(summary))
        return 0
    other = summarize_file(args.other)
    delta = diff_summaries(summary, other)
    if args.json:
        print(json.dumps({"a": summary, "b": other, "diff": delta}))
    else:
        print(format_diff(delta))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import perfbench

    if args.compare:
        import json

        with open(args.compare[0]) as fh:
            old_doc = json.load(fh)
        with open(args.compare[1]) as fh:
            new_doc = json.load(fh)
        text, regressed = perfbench.compare_bench(old_doc, new_doc)
        print(text)
        return 1 if regressed else 0

    doc = perfbench.run_bench(
        quick=args.quick,
        seed=args.seed,
        jobs=args.jobs,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        progress=lambda name: print(f"bench: {name} ...", flush=True),
    )
    perfbench.write_bench_json(args.output, doc)
    print(perfbench.format_bench(doc))
    print(f"\nwrote {args.output}")
    return 0


def _add_fleet_shared_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags `fleet` and the two `provision-*` commands share.

    All three feed the common :func:`_fleet_inputs` setup, so
    the fleet-shape, traffic-source, and retry/hedging flags are
    declared once here; per-subcommand defaults are overridden with
    ``set_defaults`` at the subparser.
    """
    parser.add_argument(
        "--servers", type=_positive_int, default=20, help="fleet size in servers"
    )
    parser.add_argument(
        "--server-types",
        nargs="+",
        default=["T2", "T3", "T7"],
        choices=tuple(SERVER_TYPES),
        help="server types the fleet draws from (availability-weighted)",
    )
    parser.add_argument(
        "--models", nargs="+", default=["DLRM-RMC1", "DLRM-RMC2"], choices=MODEL_NAMES
    )
    parser.add_argument(
        "--policy",
        choices=tuple(ROUTING_POLICIES),
        default="p2c",
        help="load-balancing policy routing each model's query stream",
    )
    parser.add_argument(
        "--peak-qps",
        type=_positive_float,
        default=None,
        help="per-model diurnal peak QPS (default: sized from fleet capacity)",
    )
    parser.add_argument(
        "--duration",
        type=_positive_float,
        default=8.0,
        help="simulated seconds the compressed day spans",
    )
    parser.add_argument(
        "--segments", type=_positive_int, default=24, help="diurnal segments per day"
    )
    parser.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help=(
            "arrival-process spec replacing the default diurnal synthesis: "
            "'+'-separated shape:key=value,... sections, shapes "
            "poisson/mmpp/diurnal with level= rates relative to each "
            "model's peak (e.g. 'diurnal:noise=0.15+mmpp:levels=0/1.2,"
            "dwell=3/0.25' -- see docs/cli.md)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "replay a recorded trace file (.csv/.jsonl with model,arrival_s,"
            "size,pooling_scale rows) instead of synthesizing arrivals; "
            "requires --peak-qps for fleet sizing"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="per-query router re-dispatch budget after a crash kills its attempt",
    )
    parser.add_argument(
        "--hedge-ms",
        type=_positive_float,
        default=None,
        help=(
            "dispatch a duplicate attempt to a second replica once a query "
            "is outstanding this long; the fastest attempt wins (off by default)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--core",
        choices=FLEET_CORES,
        default="auto",
        help=(
            "event-core selection: 'auto' uses the vectorized core "
            "when eligible (every built-in routing policy -- p2c and "
            "least through exact per-arrival routers -- and plain fault "
            "schedules) and falls back to the exact per-event core "
            "otherwise (retries, hedging, tracing, live telemetry, "
            "sketch percentiles); 'python' forces the per-event core; "
            "'vector' demands the vectorized core and errors with every "
            "blocking reason when ineligible (see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for offline profiling (0 = all CPUs)",
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "shard the replay by model across this many worker processes "
            "and merge the reports (seed-deterministic: exact mode merges "
            "bit-identical to --shards 1); fault-free runs only -- "
            "--faults/--retries/--hedge-ms and the observability exports "
            "need the single-process loop (see docs/cli.md)"
        ),
    )
    parser.add_argument(
        "--percentile-mode",
        choices=("exact", "sketch"),
        default="exact",
        help=(
            "report percentiles: 'exact' stores every measured latency "
            "(bit-identical, O(queries) memory); 'sketch' folds "
            "completions into P2 quantile sketches as they retire "
            "(O(models) memory -- week-long replays survive; "
            "completed/qps/violation-rate stay exact, p50/p95/p99 are "
            "estimates, phases empty)"
        ),
    )


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """Search flags both `provision-*` commands share: the target, the
    ``R`` bracket and budget (the library searches' arguments of the
    same names), and ``--json``."""
    parser.add_argument(
        "--target-availability",
        type=float,
        default=0.999,
        help="service-availability target in (0, 1] (default 0.999)",
    )
    parser.add_argument(
        "--r-min", type=float, default=0.0, help="search lower bound for R"
    )
    parser.add_argument(
        "--r-max", type=float, default=1.0, help="search upper bound for R"
    )
    parser.add_argument(
        "--r-tol",
        type=_positive_float,
        default=0.02,
        help="bisection width at which the search stops",
    )
    parser.add_argument(
        "--max-evals",
        type=_positive_int,
        default=12,
        help=(
            "cap on the search's fleet replays (provision-fault-aware's "
            "baseline replay is not counted)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the search outcome as one JSON object (repr-exact "
            "floats) on stdout; progress chatter moves to stderr"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hercules-repro",
        description="Hercules (HPCA 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the Table I model zoo").set_defaults(
        func=_cmd_models
    )
    sub.add_parser("servers", help="list the Table II server types").set_defaults(
        func=_cmd_servers
    )

    search = sub.add_parser("search", help="task-scheduling search for one pair")
    search.add_argument("model", choices=MODEL_NAMES)
    search.add_argument("server", choices=tuple(SERVER_TYPES))
    search.add_argument("--sla", type=float, default=None, help="SLA ms override")
    search.add_argument(
        "--baseline", action="store_true", help="also run DeepRecSys+Baymax"
    )
    search.set_defaults(func=_cmd_search)

    profile = sub.add_parser("profile", help="build the classification table")
    profile.add_argument(
        "--servers", nargs="+", default=["T2", "T3", "T7"], choices=tuple(SERVER_TYPES)
    )
    profile.add_argument(
        "--models", nargs="+", default=["DLRM-RMC1", "DLRM-RMC2"], choices=MODEL_NAMES
    )
    profile.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the pair fan-out (0 = all CPUs)",
    )
    profile.set_defaults(func=_cmd_profile)

    serve = sub.add_parser("serve", help="provision a diurnal day")
    serve.add_argument(
        "--servers", nargs="+", default=["T2", "T3", "T7"], choices=tuple(SERVER_TYPES)
    )
    serve.add_argument(
        "--models", nargs="+", default=["DLRM-RMC1", "DLRM-RMC2"], choices=MODEL_NAMES
    )
    serve.add_argument(
        "--policy", choices=tuple(_CLUSTER_POLICIES), default="hercules"
    )
    serve.add_argument("--peak-qps", type=float, default=10_000.0)
    serve.add_argument("--interval", type=float, default=30.0, help="minutes")
    serve.add_argument("--over-provision", type=float, default=0.05)
    serve.set_defaults(func=_cmd_serve)

    # Flags `fleet` and the `provision-*` searches share (they feed the
    # common _fleet_inputs setup), plus the search flags of the two
    # `provision-*` commands; each subcommand overrides defaults via
    # set_defaults below instead of re-declaring the arguments.  Built
    # fresh per subparser: argparse's set_defaults mutates the Action
    # objects, which ``parents=`` would otherwise share.
    def _shared_flags(*add_arguments) -> argparse.ArgumentParser:
        shared = argparse.ArgumentParser(add_help=False)
        for add in add_arguments:
            add(shared)
        return shared

    fleet = sub.add_parser(
        "fleet",
        parents=[_shared_flags(_add_fleet_shared_arguments)],
        help="request-level fleet replay of a diurnal day",
        description=(
            "Provision a fleet with the Hercules LP, then replay a "
            "compressed diurnal multi-model day (or --arrivals/--trace "
            "traffic) query-by-query through a routing policy, reporting "
            "measured p50/p99, SLA-violation rate, fleet power, and "
            "queries served.  --faults injects replica crashes and "
            "stragglers (deterministic given --seed); --retries and "
            "--hedge-ms control how lost or slow queries are "
            "re-dispatched."
        ),
    )
    fleet.add_argument(
        "--autoscale",
        action="store_true",
        help="provision at trough and let the autoscaler track load",
    )
    fleet.add_argument(
        "--autoscale-mode",
        choices=("reactive", "predictive"),
        default="reactive",
        help=(
            "with --autoscale: reactive (violation-triggered) or predictive "
            "(windowed rate-trend forecast activates standbys ahead of the "
            "ramp)"
        ),
    )
    fleet.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault schedule: comma-separated crash@T:TGT[+DUR], "
            "blip@T:TGT[+DUR], slow@T:TGT*FACTOR[+DUR] entries (TGT = "
            "replica index or domN), domain:LO-HI / domain:size=K "
            "correlated-fault-domain declarations, and/or a "
            "random:crash_mtbf=S,mttr=S,slow_mtbf=S,domain_mtbf=S,... "
            "seed-deterministic stochastic section; sections separate "
            "with ';' (e.g. 'domain:0-9;crash@5s:dom0' -- see docs/cli.md)"
        ),
    )
    fleet.add_argument("--over-provision", type=float, default=0.05)
    fleet.add_argument(
        "--carbon",
        default=None,
        metavar="SPEC|PATH",
        help=(
            "attach a grid carbon-intensity trace and report gCO2: a "
            "recorded .csv/.jsonl file (time_s,gco2_per_kwh rows), or a "
            "'+'-superposed synthetic spec with shapes "
            "constant:intensity=, diurnal:base=,swing=,period=, "
            "step:levels=400/120,at=0/3600 (see docs/carbon.md)"
        ),
    )
    fleet.add_argument(
        "--deferrable",
        default=None,
        metavar="SPEC",
        help=(
            "deadline-bound batch jobs run next to the real-time traffic "
            "(needs --carbon): jobs:count=4,duration=120,power=800,"
            "slack=2.0[,start=0,every=600] sections joined with '+' "
            "(see docs/carbon.md)"
        ),
    )
    fleet.add_argument(
        "--deferrable-policy",
        choices=DEFERRABLE_POLICIES,
        default="no-wait",
        help=(
            "when the deferrable jobs run: immediately (no-wait), in the "
            "lowest-carbon contiguous slot before each deadline "
            "(lowest-carbon-slot), split across below-average-intensity "
            "periods (carbon-waiting), or preemptively in the cheapest "
            "seconds (suspend-resume)"
        ),
    )
    fleet.add_argument(
        "--power-cap",
        type=_positive_float,
        default=None,
        metavar="WATTS",
        help=(
            "fleet power cap the deferrable executor honors: jobs only "
            "run when cap minus the serving replicas' measured draw "
            "leaves headroom (needs --deferrable)"
        ),
    )
    fleet.add_argument(
        "--deferral-horizon",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "cap how far past its natural finish (submit + duration) a "
            "deferrable job may slip, tightening deadlines that allow "
            "more slack (needs --deferrable)"
        ),
    )
    fleet.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "attach the streaming-metrics probe and export its windowed "
            "time series (qps, p50/p95/p99, queue depth, active replicas, "
            "power, violation rate per model) to PATH (.csv or .jsonl)"
        ),
    )
    fleet.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "attach the query tracer and export per-query spans with "
            "retry/hedge child attempts to PATH: .jsonl for tagged lines, "
            ".json for Chrome trace-event format (Perfetto-loadable)"
        ),
    )
    fleet.add_argument(
        "--metrics-window-s",
        type=_positive_float,
        default=0.25,
        help="simulated seconds per metrics sample window (default 0.25)",
    )
    fleet.add_argument(
        "--json",
        action="store_true",
        help=(
            "print the run result as one JSON object (repr-exact floats) "
            "on stdout; progress chatter moves to stderr"
        ),
    )
    fleet.set_defaults(func=_cmd_fleet)

    provision = sub.add_parser(
        "provision-fault-aware",
        parents=[
            _shared_flags(_add_fleet_shared_arguments, _add_search_arguments)
        ],
        help="close the availability -> over-provision-rate R loop",
        description=(
            "Iterate fault-injected fleet replays to a fixpoint: find the "
            "smallest over-provision rate R whose allocation delivers a "
            "target service availability (fraction of queries served "
            "within SLA) under the given fault schedule, and report the "
            "provisioned-power delta against the fault-blind provisioner "
            "at --baseline-r.  Every candidate R replays identical "
            "traffic.  Deterministic given --seed."
        ),
    )
    provision.set_defaults(servers=24, models=["DLRM-RMC1"], retries=2)
    provision.add_argument(
        "--faults",
        required=True,
        metavar="SPEC",
        help=(
            "fault schedule applied to every replay; same mini-language as "
            "'fleet --faults' including domain:LO-HI / domain:size=K and "
            "random:domain_mtbf=S correlated outages (see docs/cli.md)"
        ),
    )
    provision.add_argument(
        "--baseline-r",
        type=float,
        default=0.05,
        help="fault-blind over-provision rate to compare against",
    )
    provision.set_defaults(func=_cmd_provision_fault_aware)

    def _sweep_values(text: str) -> tuple:
        """Slash-separated sweep list; 'none' = the uncapped/unbounded
        point (e.g. 'none/2000/3000')."""
        values = []
        for token in text.split("/"):
            token = token.strip().lower()
            if token in ("none", "-"):
                values.append(None)
            else:
                try:
                    values.append(float(token))
                except ValueError:
                    raise argparse.ArgumentTypeError(
                        f"bad sweep value {token!r}; use numbers or 'none'"
                    )
        return tuple(values)

    carbon_prov = sub.add_parser(
        "provision-carbon-aware",
        parents=[
            _shared_flags(_add_fleet_shared_arguments, _add_search_arguments)
        ],
        help="find the lowest-carbon fleet meeting an availability target",
        description=(
            "Bisect the over-provision rate R to the smallest fleet whose "
            "fault-free replay meets a target service availability, then "
            "sweep deferrable-job (policy, power cap, deferral horizon) "
            "plans on that fleet's measured activation profile and pick "
            "the feasible plan emitting the least gCO2.  Every candidate "
            "R replays identical traffic; the plan sweep re-prices the "
            "deferrable executor only.  Deterministic given --seed."
        ),
    )
    carbon_prov.set_defaults(servers=24, models=["DLRM-RMC1"])
    carbon_prov.add_argument(
        "--carbon",
        required=True,
        metavar="SPEC|PATH",
        help=(
            "grid carbon-intensity trace pricing every joule; same "
            "mini-language as 'fleet --carbon' (see docs/carbon.md)"
        ),
    )
    carbon_prov.add_argument(
        "--deferrable",
        default=None,
        metavar="SPEC",
        help=(
            "deferrable batch jobs to place; same mini-language as "
            "'fleet --deferrable' (omit for a realtime-only search)"
        ),
    )
    carbon_prov.add_argument(
        "--policies",
        nargs="+",
        choices=DEFERRABLE_POLICIES,
        default=list(DEFERRABLE_POLICIES),
        help="deferrable policies the plan sweep compares",
    )
    carbon_prov.add_argument(
        "--power-caps",
        type=_sweep_values,
        default=(None,),
        metavar="W/W/...",
        help=(
            "slash-separated fleet power caps (watts) to sweep; 'none' "
            "= uncapped (default: uncapped only)"
        ),
    )
    carbon_prov.add_argument(
        "--deferral-horizons",
        type=_sweep_values,
        default=(None,),
        metavar="S/S/...",
        help=(
            "slash-separated deferral horizons (seconds) to sweep; "
            "'none' = deadline-bound only (default)"
        ),
    )
    carbon_prov.set_defaults(func=_cmd_provision_carbon_aware)

    observe = sub.add_parser(
        "observe",
        help="summarize or diff exported telemetry files",
        description=(
            "Inspect files written by 'fleet --metrics-out/--trace-out': "
            "summarize one metrics series (CSV/JSONL), trace (JSONL or "
            "Chrome trace-event JSON), or diff two files of the same "
            "family.  Formats are sniffed from extension and content."
        ),
    )
    observe.add_argument("file", help="telemetry file to summarize")
    observe.add_argument(
        "other",
        nargs="?",
        default=None,
        help="second file of the same family to diff against",
    )
    observe.add_argument(
        "--json", action="store_true", help="emit the summary/diff as JSON"
    )
    observe.set_defaults(func=_cmd_observe)

    bench = sub.add_parser(
        "bench",
        help="run the perf-regression harness",
        description=(
            "Times the hot paths (task-scheduling search, classification-"
            "table build, trace generation, single-node DES, fleet replay) "
            "on fixed seeds and writes machine-readable BENCH_perf.json "
            "(wall seconds, queries/sec, events/sec per scenario)."
        ),
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized scenarios (seconds instead of minutes)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the profiling scenario (0 = all CPUs)",
    )
    from repro.perfbench import SCENARIOS

    bench.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=SCENARIOS,
        metavar="NAME",
        help=f"subset of scenarios to run (default: all of {', '.join(SCENARIOS)})",
    )
    bench.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="output JSON path (default: ./BENCH_perf.json)",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help=(
            "compare two existing BENCH_perf.json documents instead of "
            "running the harness: per-scenario wall deltas plus the CI "
            "gate table applied to NEW; exits nonzero when a gate fails"
        ),
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
