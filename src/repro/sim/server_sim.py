"""Discrete-event simulation of a single serving node.

The analytical evaluator answers "what QPS can this plan sustain?" in
closed form; this module answers the same question by actually playing
a query trace through the plan's stage pipeline:

- arrivals follow the trace (Poisson with heavy-tail sizes);
- *split* stages chop queries into sub-batches of ``d`` items served by
  ``units`` parallel threads (the CPU query dispatcher of Fig. 3);
- *fuse* stages accumulate whole queries up to the fusion limit and
  serve them as one accelerator batch (query fusion, Section II-B);
- a query completes when its last work unit leaves the last stage.

The event mechanics (stage records, batch formation, the per-replica
pipeline state and its private event loop) live in
:mod:`repro.sim.event_core`: the trace runs through the same
:class:`~repro.sim.event_core.ReplicaLoop` that replays each
accelerator replica on the vector fleet core.  The equivalence tests
pin this engine's latencies, in completion order, bit-for-bit against
a reference implementation of the pre-optimization event loop.

Integration tests check the DES against the closed-form evaluator; the
examples use it to show live tail-latency behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.models.partition import PartitionedModel
from repro.plans import ExecutionPlan
from repro.sim.evaluator import ServerEvaluator
from repro.sim.event_core import Pipeline, ReplicaLoop, SimStage, StageMode
from repro.sim.loadgen import generate_trace
from repro.sim.metrics import LatencyStats, ServerPerformance
from repro.sim.queries import QueryWorkload

__all__ = [
    "StageMode",
    "SimStage",
    "SimResult",
    "DiscreteEventServerSim",
    "simulate",
]


@dataclass(frozen=True)
class SimResult:
    """Raw outcome of one DES run.

    Attributes:
        latencies_s: Per-completed-query end-to-end latency.
        completed: Number of completed queries in the measured window
            (every query that arrived after warmup).
        duration_s: Measured window length: from the end of warmup to
            the last measured completion.
        items_served: Total items completed.
        events: Events processed (arrivals + batch completions).
    """

    latencies_s: np.ndarray
    completed: int
    duration_s: float
    items_served: int
    events: int = 0

    @property
    def qps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def events_per_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.events / self.duration_s


class DiscreteEventServerSim:
    """Event-driven execution of a stage pipeline over a query trace."""

    def __init__(self, stages: list[SimStage]) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = stages

    def run(self, queries, warmup_s: float = 0.0) -> SimResult:
        """Play a trace through the pipeline.

        The trace runs through one
        :class:`~repro.sim.event_core.ReplicaLoop`, the replica loop
        of the vector fleet core, to its last completion.

        Args:
            queries: Arrival-sorted trace -- a list of
                :class:`~repro.sim.queries.Query` records or any
                iterable of them (e.g. an
                :meth:`repro.traces.ArrivalProcess.stream`).
            warmup_s: Initial window excluded from the statistics.

        Returns:
            Latency samples of the post-warmup window, in completion
            order.
        """
        # Stable sort: equal arrival times keep trace order.
        trace = sorted(queries, key=lambda q: q.arrival_s)
        if not trace:
            raise ValueError("empty trace")
        sizes = [q.size for q in trace]
        if min(sizes) < 1:
            raise ValueError(
                "query size must be >= 1 (zero units never complete)"
            )
        n = len(trace)
        arrivals = [q.arrival_s for q in trace]
        finish = [0.0] * n
        rank = [0] * n
        loop = ReplicaLoop(Pipeline(self.stages))
        loop.pump(
            arrivals, sizes, [q.pooling_scale for q in trace], range(n),
            float("inf"), finish, rank, False,
        )

        t = np.array(arrivals)
        fin = np.array(finish)
        order = np.argsort(rank)
        measured = order[t[order] >= warmup_s]
        if not measured.size:
            raise RuntimeError("no queries completed in the measured window")
        return SimResult(
            latencies_s=fin[measured] - t[measured],
            completed=len(measured),
            # The window ends at the last measured completion: an
            # overloaded server drains its backlog past the last
            # arrival, and throughput must count that time.
            duration_s=max(float(fin[measured].max()) - warmup_s, 1e-9),
            items_served=int(np.array(sizes)[measured].sum()),
            events=n + loop.seq,
        )


def _interpolator(t_one: float, t_nominal: float, nominal: float) -> Callable[[int], float]:
    """Linear batch-latency model through (1, t_one) and (nominal, t_nominal)."""
    if nominal <= 1:
        return lambda items: t_nominal
    slope = (t_nominal - t_one) / (nominal - 1)
    return lambda items: max(t_one, t_one + slope * (items - 1))


def build_stages(
    evaluator: ServerEvaluator,
    partitioned: PartitionedModel,
    workload: QueryWorkload,
    plan: ExecutionPlan,
) -> list[SimStage]:
    """Derive DES stages from the evaluator's timing profile.

    Stage service times interpolate between batch-of-1 and the plan's
    nominal batch, so partial sub-batches and under-filled fused
    batches are served faster than full ones.
    """
    nominal = evaluator.plan_timings(partitioned, workload, plan)
    small_plan = plan.with_(
        batch_size=1, fusion_limit=1 if plan.fusion_limit > 0 else 0
    )
    tiny = evaluator.plan_timings(partitioned, workload, small_plan)
    tiny_by_name = {s.name: s for s in tiny.stages}

    multi_hot = partitioned.model.config.is_multi_hot
    stages = []
    for stage in nominal.stages:
        t_one = tiny_by_name[stage.name].batch_s if stage.name in tiny_by_name else stage.batch_s
        fn = _interpolator(min(t_one, stage.batch_s), stage.batch_s, stage.items_per_batch)
        if stage.name in ("loading", "inference") and plan.placement.uses_gpu:
            mode = StageMode.FUSE
            fuse = plan.fusion_limit
            chunk = max(1, int(stage.items_per_batch))
        else:
            mode = StageMode.SPLIT
            fuse = 0
            chunk = plan.batch_size
        # Multi-hot models: embedding gathers and index transfers scale
        # with the query's pooling factor (Fig. 2c variance).
        if multi_hot and stage.name == "sparse":
            sensitivity = 0.9
        elif multi_hot and stage.name == "loading":
            sensitivity = 0.6
        elif multi_hot and stage.name == "inference" and not plan.placement.uses_gpu:
            # Whole-model host execution folds the gathers into the
            # single inference stage; roughly half its time is sparse.
            sensitivity = 0.5
        else:
            sensitivity = 0.0
        stages.append(
            SimStage(
                name=stage.name,
                units=stage.units,
                mode=mode,
                chunk_items=chunk,
                fuse_items=fuse,
                latency_fn=fn,
                pooling_sensitivity=sensitivity,
            )
        )
    return stages


def simulate(
    evaluator: ServerEvaluator,
    partitioned: PartitionedModel,
    workload: QueryWorkload,
    plan: ExecutionPlan,
    arrival_qps: float,
    duration_s: float = 20.0,
    seed: int = 0,
) -> ServerPerformance:
    """Run the DES and summarize it as a :class:`ServerPerformance`.

    Power is derived from the same per-item resource coefficients the
    closed-form evaluator uses, applied to the *measured* throughput.
    """
    timings = evaluator.plan_timings(partitioned, workload, plan)
    stages = build_stages(evaluator, partitioned, workload, plan)
    trace = generate_trace(workload, arrival_qps, duration_s, seed=seed)
    sim = DiscreteEventServerSim(stages)
    result = sim.run(trace, warmup_s=duration_s * 0.1)

    items_per_s = result.items_served / result.duration_s
    cpu_util, gpu_util, mem_util, power = timings.power_at(
        evaluator.server, items_per_s
    )
    return ServerPerformance(
        qps=result.qps,
        latency=LatencyStats.from_samples_s(result.latencies_s),
        power_w=power,
        cpu_util=cpu_util,
        gpu_util=gpu_util,
        mem_util=mem_util,
    )
