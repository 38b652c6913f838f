"""Sharded multi-process fleet replay with a seed-deterministic merge.

One process replays a few hundred thousand queries per second; a
day of traffic for millions of users (10⁸–10⁹ queries) needs
horizontal scale.  Per-model routing is already independent — each
model stream has its own replicas, its own policy instance, and its
own autoscaler decisions — so the fleet shards cleanly **by model**:
each worker process runs a full :class:`~repro.fleet.engine
.FleetSimulator` over its model subset, and the parent merges the
per-shard :class:`~repro.fleet.report.FleetResult` objects into the
report the single-process run would have produced.

The merge is *bit-identical* in exact percentile mode (pinned by
``tests/test_fleet_sharded.py`` and asserted inside the
``fleet_replay_sharded`` perfbench scenario), which rests on three
invariants:

- **Seed lanes.**  :class:`~repro.traces.FleetArrivals` streams model
  ``m`` with ``seed + stride * sorted_index(m)``; workers rebuild
  their sub-stream with explicit per-model ``seeds=`` pinned to the
  *fleet-wide* sorted index, so every model draws the same arrivals it
  would in one process.  Routing policies are reseeded the same way
  (``seed + global_sorted_index``).
- **A shared horizon.**  The measurement horizon is the fleet-wide
  last arrival.  Each shard's own stream ends earlier, so workers run
  with ``FleetSimulator.run(horizon_s=...)`` forcing the global
  horizon: qps denominators, active-time/power accounting, and
  autoscaler tick chains all cover the identical window.  That is the
  engine's own call, on whichever core ``core`` selects, also for a
  shard whose models drew no arrivals.
- **Ordered reduction.**  Per-model stats pass through untouched
  (each model lives wholly in one shard).  Replica rows are re-indexed
  to their fleet-wide build order and fleet energy re-accumulated in
  that order (float addition order matters).  Scale-event timelines
  interleave by ``(time, autoscaler model order)`` — exactly the order
  one process's tick loop emits them.

Limitations (all raise actionable errors): fault injection, retries,
hedging, and observers couple shards (cross-model dead domains,
shared query logs) and are not supported — run those single-process,
optionally with ``percentile_mode="sketch"`` for the memory ceiling.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from dataclasses import dataclass

from repro.cluster.state import Allocation
from repro.fleet.engine import FleetSimulator, build_fleet
from repro.fleet.report import FleetResult, fleet_power_summary
from repro.fleet.routing import RoutingPolicy, make_policy
from repro.traces.arrivals import MODEL_SEED_STRIDE, FleetArrivals
from repro.traces.recorded import RecordedTrace

_LOG = logging.getLogger(__name__)

__all__ = ["run_fleet_sharded", "merge_shard_results", "plan_shards"]


@dataclass(frozen=True)
class _ReplicaRef:
    """Light stand-in for a worker's ``FleetServer`` in scale events.

    Workers translate their local replica objects to fleet-global
    references before results cross the process boundary (the live
    server objects hold pipelines and owner back-references that have
    no business being pickled).  Carries exactly what reports read:
    the fleet index and the model name.
    """

    index: int
    model_name: str


class _FilteredSource:
    """Re-iterable view of a fleet arrival source restricted to models.

    Used for sources without native per-model decomposition (e.g.
    :class:`~repro.traces.RecordedTrace`): each worker streams the full
    file and keeps its shard's rows.  Order is preserved, so the
    sub-stream is sorted whenever the source is.
    """

    def __init__(self, source, models: frozenset) -> None:
        self.source = source
        self.models = models

    def __iter__(self):
        models = self.models
        return ((m, q) for m, q in iter(self.source) if m in models)


def plan_shards(models: list[str], shards: int) -> list[list[str]]:
    """Deterministic model → shard assignment (round-robin over the
    sorted model list, clamped to at most one shard per model)."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    names = sorted(models)
    shards = min(shards, len(names))
    plan: list[list[str]] = [[] for _ in range(shards)]
    for i, name in enumerate(names):
        plan[i % shards].append(name)
    return plan


def _source_models_and_horizon(source):
    """The source's model set and, when knowable without a draw, the
    fleet-wide last arrival (``None`` means phase A must discover it)."""
    if isinstance(source, FleetArrivals):
        return list(source.processes), None
    if isinstance(source, RecordedTrace):
        return list(source.models()), source.end_s
    if isinstance(source, (list, tuple)):
        if not source:
            raise ValueError("empty fleet trace")
        names = sorted({m for m, _ in source})
        return names, max(q.arrival_s for _, q in source)
    if iter(source) is source:
        raise ValueError(
            "sharded replay needs a re-iterable arrival source "
            "(FleetArrivals, RecordedTrace, or a materialized list); "
            "a bare iterator can only be consumed once"
        )
    seen: set = set()
    last = None
    for m, q in source:
        seen.add(m)
        t = q.arrival_s
        if last is None or t > last:
            last = t
    if last is None:
        raise ValueError("empty fleet trace")
    return sorted(seen), last


def _sub_source(source, shard_models: frozenset):
    """The shard's view of the arrival source (seed lanes preserved)."""
    if isinstance(source, FleetArrivals):
        procs = {m: p for m, p in source.processes.items() if m in shard_models}
        if not procs:
            return ()
        lanes = {
            m: source.seed + MODEL_SEED_STRIDE * i
            for i, m in enumerate(source.processes)
        }
        if source.seeds is not None:
            lanes = dict(source.seeds)
        return FleetArrivals(
            procs, seed=source.seed, seeds={m: lanes[m] for m in procs}
        )
    if isinstance(source, (list, tuple)):
        return [pair for pair in source if pair[0] in shard_models]
    return _FilteredSource(source, shard_models)


def _sub_allocation(allocation, shard_models: frozenset):
    if allocation is None:
        return None
    counts = {
        (srv, model): count
        for (srv, model), count in allocation.counts.items()
        if model in shard_models
    }
    return Allocation(counts=counts)


def _global_rows(allocation, standby):
    """Replica (server type, model) rows in ``build_fleet`` order —
    the fleet-global index space workers re-index into."""
    rows: list[tuple[str, str]] = []
    for alloc in (allocation, standby):
        if alloc is None:
            continue
        for (srv, model), count in sorted(alloc.counts.items()):
            rows.extend([(srv, model)] * count)
    return rows


def _scan_shard_task(source) -> float | None:
    """Phase A pool task: the shard's last arrival (its streams are
    time-sorted, so the last element is the max)."""
    last = None
    for _model, q in source:
        last = q.arrival_s
    return last


def _run_shard_task(task: tuple):
    """Phase B pool task: simulate one shard against the global horizon.

    Returns ``(FleetResult, ticks, reasons)`` with replica rows and
    scale-event targets already translated to fleet-global indices;
    ``reasons`` says why ``core="auto"`` fell back to the python core.
    """
    (
        allocation,
        standby,
        table,
        models,
        workloads,
        source,
        policy,
        sla_ms,
        autoscaler,
        seed,
        policy_seeds,
        percentile_mode,
        core,
        warmup_s,
        horizon,
        global_indices,
    ) = task
    servers = build_fleet(allocation, table, models, workloads, standby=standby)
    sim = FleetSimulator(
        servers,
        policy=policy,
        sla_ms=sla_ms,
        autoscaler=autoscaler,
        seed=seed,
        core=core,
        percentile_mode=percentile_mode,
    )
    # The parent logs the auto-core fallback once for the whole run.
    sim._quiet_core_fallback = True
    # Reseed each model's policy to its fleet-wide sorted index: the
    # engine numbered them within the shard.
    for model in sim._policies:
        sim._policies[model] = make_policy(policy, seed=policy_seeds[model])
    result = sim.run(source, warmup_s=warmup_s, horizon_s=horizon)
    reasons = sim._vector_fallback_reasons() if core == "auto" else []
    gmap = dict(enumerate(global_indices))
    rows = tuple(
        dataclasses.replace(row, index=gmap[row.index], domain=gmap[row.index])
        for row in result.servers
    )
    events = tuple(
        dataclasses.replace(
            ev,
            server=_ReplicaRef(gmap[ev.server.index], ev.server.model_name),
        )
        for ev in result.scale_events
    )
    result = dataclasses.replace(result, servers=rows, scale_events=events)
    return result, sim.last_tick_count, reasons


def merge_shard_results(
    payloads: list[tuple[FleetResult, int]],
    horizon: float,
    model_order: list[str],
) -> FleetResult:
    """Seed-deterministic reduction of per-shard results.

    ``model_order`` is the autoscaler's model iteration order (its
    ``sla_ms`` insertion order) — the order one process's tick emits
    same-timestamp scale events across models.
    """
    results = [r for r, _ in payloads]
    ticks = max(t for _, t in payloads)
    per_model: dict = {}
    for r in results:
        per_model.update(r.per_model)
    rows = sorted(
        (row for r in results for row in r.servers), key=lambda s: s.index
    )
    # Re-accumulate fleet energy in global index order: float addition
    # order is part of the bit-identity contract.
    _, avg_power_w = fleet_power_summary(
        ((row.power_w, row.active_s) for row in rows), horizon
    )
    rank = {m: i for i, m in enumerate(model_order)}
    scale_events = sorted(
        (ev for r in results for ev in r.scale_events),
        key=lambda ev: (ev.time_s, rank.get(ev.model, 0)),
    )
    return FleetResult(
        policy=results[0].policy,
        duration_s=results[0].duration_s,
        per_model=per_model,
        servers=tuple(rows),
        avg_power_w=avg_power_w,
        scale_events=tuple(scale_events),
        events=sum(r.events - t for r, t in payloads) + ticks,
        availability=1.0,
        fault_events=(),
        phases=(),
    )


def run_fleet_sharded(
    allocation,
    table,
    models: dict,
    workloads: dict | None,
    source,
    *,
    shards: int,
    policy: str = "p2c",
    sla_ms: dict | None = None,
    autoscaler=None,
    seed: int = 0,
    percentile_mode: str = "exact",
    warmup_s: float = 0.0,
    standby=None,
    core: str = "auto",
) -> FleetResult:
    """Replay a fleet sharded by model across a process pool.

    Same inputs :func:`~repro.fleet.engine.build_fleet` +
    :class:`FleetSimulator` take, minus fault machinery (unsupported
    sharded — see the module docstring).  ``shards=1`` runs inline in
    this process (no pool, no horizon forcing) and is the reference
    the merge is tested against.

    Two phases: (A) workers draw their shard's arrival stream once to
    find the fleet-wide last arrival (skipped when the source already
    knows it, e.g. a recorded trace); (B) workers simulate against
    that shared horizon and the parent merges
    (:func:`merge_shard_results`).

    Args:
        allocation / standby: Active and standby replica allocations.
        table: Offline profiler classification table.
        models / workloads: Model zoo entries and query workloads.
        source: Re-iterable fleet arrival source.
        shards: Worker process count (clamped to the model count).
        policy: Routing policy *name* (instances hold per-stream state
            and cannot cross process boundaries).
        autoscaler: Optional pristine autoscaler; each worker gets its
            own copy, ticking only its shard's models (decisions are
            per-model, so the union matches the fleet-wide run).
        percentile_mode: ``"exact"`` (bit-identical merge) or
            ``"sketch"`` (O(models) report memory; see the engine).
        core: Each worker's ``FleetSimulator(core=...)``; the
            ``"auto"`` fallback is logged once, here.

    The pool runs ``min(shards, cpus)`` workers.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if isinstance(policy, RoutingPolicy):
        raise ValueError(
            "sharded replay needs a policy name, not an instance: "
            "policies hold per-stream state that cannot be split "
            "across worker processes"
        )
    sla_ms = dict(sla_ms or {})

    if shards == 1:
        servers = build_fleet(allocation, table, models, workloads, standby=standby)
        sim = FleetSimulator(
            servers,
            policy=policy,
            sla_ms=sla_ms,
            autoscaler=autoscaler,
            seed=seed,
            core=core,
            percentile_mode=percentile_mode,
        )
        return sim.run(source, warmup_s=warmup_s)

    rows = _global_rows(allocation, standby)
    if not rows:
        raise ValueError("need at least one fleet server")
    source_models, horizon = _source_models_and_horizon(source)
    server_models = sorted({model for _, model in rows})
    all_models = sorted(set(server_models) | set(source_models))
    policy_seeds = {m: seed + i for i, m in enumerate(server_models)}
    plan = plan_shards(all_models, shards)
    # Every shard must own at least one replica (the engine refuses an
    # empty fleet).  Models with no replica anywhere still need an
    # owner so their arrivals are counted as drops — fold replica-less
    # groups into the first group that has replicas, exactly the drop
    # accounting the single-process run performs.
    server_model_set = set(server_models)
    with_replicas = [g for g in plan if server_model_set & set(g)]
    orphans = [m for g in plan if not (server_model_set & set(g)) for m in g]
    if not with_replicas:
        raise ValueError("need at least one fleet server")
    if orphans:
        with_replicas[0] = with_replicas[0] + orphans
    shard_sets = [frozenset(g) for g in with_replicas]

    tasks = []
    for group in shard_sets:
        sub_alloc = _sub_allocation(allocation, group)
        sub_standby = _sub_allocation(standby, group)
        if sub_standby is not None and not sub_standby.counts:
            sub_standby = None
        global_indices = [
            i for i, (_, model) in enumerate(rows) if model in group
        ]
        tasks.append(
            [
                sub_alloc,
                sub_standby,
                table,
                {m: models[m] for m in group if m in models},
                {m: (workloads or {}).get(m) for m in group} if workloads else None,
                _sub_source(source, group),
                policy,
                {m: sla_ms[m] for m in group if m in sla_ms},
                autoscaler,
                seed,
                {m: policy_seeds[m] for m in group if m in policy_seeds},
                percentile_mode,
                core,
                warmup_s,
                None,  # horizon, filled below
                global_indices,
            ]
        )

    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(tasks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if horizon is None:
            lasts = list(pool.map(_scan_shard_task, [t[5] for t in tasks]))
            known = [t for t in lasts if t is not None]
            if not known:
                raise ValueError("empty fleet trace")
            horizon = max(known)
        for t in tasks:
            t[14] = horizon
        outs = list(pool.map(_run_shard_task, [tuple(t) for t in tasks]))

    reasons = list(dict.fromkeys(r for _, _, rs in outs for r in rs))
    if reasons:
        _LOG.info(
            "core='auto': falling back to the python event core (%s)",
            "; ".join(reasons),
        )
    payloads = [(result, ticks) for result, ticks, _ in outs]
    model_order = list(autoscaler.sla_ms) if autoscaler is not None else []
    return merge_shard_results(payloads, horizon, model_order)
