"""List scheduling of a computation graph onto parallel operator workers.

The DL-framework graph executor (Fig. 3) launches operators in
dependency order; with ``o`` parallel operator workers, independent
operators run concurrently but dependent ones serialize, leaving
workers idle -- the effect quantified in Fig. 5 (25-74% idle cycles for
2-4 workers).  This module reproduces that executor: a greedy
earliest-finish list scheduler over per-op latencies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.models.graph import Graph

__all__ = ["NodeSchedule", "ScheduleResult", "list_schedule", "list_makespan"]


@dataclass(frozen=True)
class NodeSchedule:
    """Placement of one node in the worker schedule."""

    name: str
    worker: int
    start_s: float
    finish_s: float

    @property
    def duration_s(self) -> float:
        return self.finish_s - self.start_s


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a graph on ``workers`` operator workers.

    Attributes:
        makespan_s: Wall time for the whole graph.
        busy_s: Total worker-seconds doing useful work.
        workers: Number of operator workers used.
        nodes: Per-node placements in start order.
    """

    makespan_s: float
    busy_s: float
    workers: int
    nodes: tuple[NodeSchedule, ...]

    @property
    def idle_fraction(self) -> float:
        """Fraction of worker-time spent idle (Fig. 5c's y-axis)."""
        total = self.makespan_s * self.workers
        if total == 0:
            return 0.0
        return 1.0 - self.busy_s / total


def list_schedule(
    graph: Graph, latencies: dict[str, float], workers: int
) -> ScheduleResult:
    """Greedy list scheduling of ``graph`` on ``workers`` workers.

    Ready nodes (all dependencies finished) are dispatched to the
    earliest-available worker in topological order -- the behaviour of
    a work-stealing graph executor with static priorities.

    Args:
        graph: The computation (sub-)graph.
        latencies: Per-node execution time in seconds.
        workers: Number of parallel operator workers (>= 1).

    Returns:
        The schedule with makespan and idle statistics.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    missing = [n.name for n in graph if n.name not in latencies]
    if missing:
        raise ValueError(f"missing latencies for nodes: {missing}")

    worker_free = [(0.0, w) for w in range(workers)]
    heapq.heapify(worker_free)
    finish: dict[str, float] = {}
    placements: list[NodeSchedule] = []

    for node in graph.topological_order():
        ready_at = max((finish[d] for d in node.deps), default=0.0)
        free_at, worker = heapq.heappop(worker_free)
        start = max(ready_at, free_at)
        end = start + latencies[node.name]
        finish[node.name] = end
        heapq.heappush(worker_free, (end, worker))
        placements.append(
            NodeSchedule(name=node.name, worker=worker, start_s=start, finish_s=end)
        )

    makespan = max((p.finish_s for p in placements), default=0.0)
    busy = sum(p.duration_s for p in placements)
    return ScheduleResult(
        makespan_s=makespan,
        busy_s=busy,
        workers=workers,
        nodes=tuple(placements),
    )


def list_makespan(
    deps: Sequence[tuple[int, ...]],
    latencies: Sequence[float],
    workers: int,
) -> tuple[float, float]:
    """Makespan and busy-seconds of the greedy list schedule, nothing else.

    The evaluator's bandwidth-contention fixpoint bisects over dozens
    of candidate shares, re-scheduling the same graph each time.  This
    kernel returns exactly :func:`list_schedule`'s ``(makespan_s,
    busy_s)`` -- same dispatch order, same worker tie-breaks, same
    running max/sum -- on an index-keyed topology, without building
    per-node :class:`NodeSchedule` records or a name-keyed latency map.

    Args:
        deps: Per node in topological order, the indices of the nodes
            it depends on.
        latencies: Per-node execution time in seconds (>= 0), in the
            same order.
        workers: Number of parallel operator workers (>= 1).

    Returns:
        ``(makespan_s, busy_s)``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        # One worker runs the nodes back to back: every dependency has
        # finished by the time the worker frees up (latencies are
        # non-negative), so each node starts at its predecessor's
        # finish and the schedule is a running sum.
        t = busy = 0.0
        for lat in latencies:
            end = t + lat
            busy += end - t
            t = end
        return t, busy
    free = [0.0] * workers
    finish: list[float] = []
    makespan = busy = 0.0
    for node_deps, lat in zip(deps, latencies):
        ready_at = max([finish[d] for d in node_deps], default=0.0)
        # The earliest-free worker, lowest index on ties: the worker
        # list_schedule's (free_at, worker) heap pops.
        free_at = min(free)
        worker = free.index(free_at)
        start = max(ready_at, free_at)
        end = start + lat
        finish.append(end)
        free[worker] = end
        if end > makespan:
            makespan = end
        busy += end - start
    return makespan, busy
