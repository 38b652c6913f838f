"""Shared memoization of closed-form plan evaluations.

Plan scoring is the repo's hottest analytic path: the gradient search
re-times hundreds of candidate plans per (model, server) pair, the
offline profiler runs that search for every pair, and the fleet
simulator builds one stage pipeline per provisioned server.  All of
those reduce to :meth:`ServerEvaluator.plan_timings`, which is a pure
function of ``(partitioned model, workload, plan)``.

The search keeps none of them: it scores each plan once, caches only
the plan's operating point, and a :class:`ServerEvaluator` holds no
plan-timings memo.  The one memo lives here, in a module-level
registry keyed by *content* -- :func:`model_key` and
:func:`partition_key` rather than object identity, so keys computed in
different processes agree.  ``shared_evaluator``, ``partitioned_for``,
``timings_for`` and ``stages_for`` serve ``build_fleet``, the cluster
provisioner's power pricing and the provisioning searches, which re-read
the same (server type, model, plan) triples: fifty replicas cost one
evaluation, not fifty.  ``stages_for`` hands every replica the same
:class:`~repro.sim.event_core.SimStage` tuple, so the stages' service
and chunk memo tables fill once per fleet.

``clear_shared_caches()`` resets everything (tests use it to measure
hit rates deterministically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported lazily at runtime to avoid import cycles
    from repro.hardware.server import ServerType
    from repro.models.partition import PartitionedModel
    from repro.models.zoo import RecommendationModel
    from repro.plans import ExecutionPlan
    from repro.sim.evaluator import PlanTimings, ServerEvaluator
    from repro.sim.queries import QueryWorkload

__all__ = [
    "CacheStats",
    "partition_key",
    "model_key",
    "shared_evaluator",
    "partitioned_for",
    "timings_for",
    "stages_for",
    "shared_cache_stats",
    "clear_shared_caches",
]


@dataclass
class CacheStats:
    """Hit/miss counters for one memo table."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


def model_key(model: "RecommendationModel") -> tuple:
    """Content identity of a model: its full config plus variant.

    The config is a frozen dataclass, so two ``build_model`` calls (or
    a pickle round-trip across a process pool) produce equal keys,
    while models that merely share a display name cannot alias.
    """
    return (model.config, model.variant)


def partition_key(partitioned: "PartitionedModel") -> tuple:
    """Content identity of a partitioned model (explicit, hashable).

    Combines the model identity with everything the partitioning step
    depends on: the capacity budget it was sized for, the resulting hot
    set, and the access profile's hit rate.  No object identity is
    involved, so keys computed in different processes agree.
    """
    return (
        model_key(partitioned.model),
        partitioned.capacity_budget_bytes,
        partitioned.hot_rows_per_table,
        partitioned.hot_hit_rate,
    )


# ----------------------------------------------------------------------
# Content-keyed shared registry (fleet + provisioning)
# ----------------------------------------------------------------------

_EVALUATORS: dict[str, "ServerEvaluator"] = {}
_PARTITIONS: dict[tuple, "PartitionedModel"] = {}
_TIMINGS: dict[tuple, "PlanTimings"] = {}
_STAGES: dict[tuple, tuple] = {}
_TIMINGS_STATS = CacheStats()
_STATS = CacheStats()


def shared_evaluator(server: "ServerType") -> "ServerEvaluator":
    """One default-configured evaluator per server type.

    Sharing the evaluator shares its per-graph tables (hoisted op
    profiles, the NMP LUT) across every fleet and provisioning call.
    """
    from repro.sim.evaluator import ServerEvaluator

    evaluator = _EVALUATORS.get(server.name)
    if evaluator is None:
        evaluator = ServerEvaluator(server)
        _EVALUATORS[server.name] = evaluator
    return evaluator


def partitioned_for(
    server: "ServerType",
    model: "RecommendationModel",
    plan: "ExecutionPlan",
) -> "PartitionedModel":
    """The partitioned model a plan was searched with (memoized).

    GPU model-based plans partition against the device-memory budget
    divided by the plan's co-location degree; every other placement
    uses the unconstrained host split (whose ``Gs``/``Gd`` graphs are
    identical to the budgeted split's).
    """
    from repro.models.partition import partition_model
    from repro.plans import Placement

    if plan.placement is Placement.GPU_MODEL_BASED:
        if server.gpu is None:
            raise ValueError(f"{server.name} has no accelerator for {plan.describe()}")
        key = (model_key(model), server.name, plan.threads)
        if key not in _PARTITIONS:
            _PARTITIONS[key] = partition_model(
                model, server.gpu.memory_bytes, plan.threads
            )
        return _PARTITIONS[key]
    key = (model_key(model), None, 0)
    if key not in _PARTITIONS:
        _PARTITIONS[key] = partition_model(model)
    return _PARTITIONS[key]


def timings_for(
    server: "ServerType",
    model: "RecommendationModel",
    workload: "QueryWorkload",
    plan: "ExecutionPlan",
) -> "PlanTimings":
    """Closed-form timings for a (server type, model, plan) triple.

    Memoized by content; only successful evaluations are stored, so an
    infeasible plan re-raises its exact ``ValueError`` every call.
    """
    partitioned = partitioned_for(server, model, plan)
    key = (server.name, partition_key(partitioned), workload, plan)
    timings = _TIMINGS.get(key)
    if timings is None:
        _TIMINGS_STATS.misses += 1
        timings = shared_evaluator(server).plan_timings(partitioned, workload, plan)
        _TIMINGS[key] = timings
    else:
        _TIMINGS_STATS.hits += 1
    return timings


def stages_for(
    server: "ServerType",
    model: "RecommendationModel",
    workload: "QueryWorkload",
    plan: "ExecutionPlan",
) -> tuple:
    """DES stage pipeline for a triple, memoized across replicas.

    A stage's spec is immutable and its memo tables hold pure functions
    of the spec (per-replica queue state lives in the engines), so one
    tuple is safely shared by every replica of the same (server type,
    model, plan), and its memo tables fill once per fleet.
    """
    from repro.sim.server_sim import build_stages

    key = (server.name, model_key(model), workload, plan)
    stages = _STAGES.get(key)
    if stages is None:
        _STATS.misses += 1
        evaluator = shared_evaluator(server)
        partitioned = partitioned_for(server, model, plan)
        stages = tuple(build_stages(evaluator, partitioned, workload, plan))
        _STAGES[key] = stages
    else:
        _STATS.hits += 1
    return stages


def shared_cache_stats() -> dict[str, CacheStats]:
    """Hit/miss counters of the ``stages`` and ``timings`` memos."""
    return {"stages": _STATS, "timings": _TIMINGS_STATS}


def clear_shared_caches() -> None:
    """Reset the registry (evaluators, partitions, timings, stages, stats)."""
    global _STATS, _TIMINGS_STATS
    _EVALUATORS.clear()
    _PARTITIONS.clear()
    _TIMINGS.clear()
    _STAGES.clear()
    _STATS = CacheStats()
    _TIMINGS_STATS = CacheStats()
