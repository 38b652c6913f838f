"""Offline profiling: the workload-classification table (Fig. 9b).

For every (server type, model) pair Hercules runs the task-scheduling
search and records the **efficiency tuple** ``(QPS, Power)`` -- the
latency-bounded throughput and the measured peak power at that optimum.
The table classifies workloads for the online cluster scheduler: QPS
feeds the coverage constraint, power feeds both the objective and the
per-server provisioned budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.hardware.server import ServerType
from repro.models.zoo import RecommendationModel
from repro.scheduling.parallelism import ExecutionPlan
from repro.scheduling.search import HerculesTaskScheduler, SearchResult
from repro.sim.evaluator import ServerEvaluator
from repro.sim.queries import QueryWorkload

__all__ = ["EfficiencyTuple", "ClassificationTable", "OfflineProfiler"]


@dataclass(frozen=True)
class EfficiencyTuple:
    """One cell of the workload-classification table.

    Attributes:
        server_name: Table II server type name.
        model_name: Table I model name.
        qps: Latency-bounded throughput ``QPS_{h,m}``.
        power_w: Peak power at that operating point ``Power_{h,m}``;
            used as the per-server provisioned power budget online.
        plan: The winning scheduling configuration.
        evaluations: Search cost that produced this tuple.
    """

    server_name: str
    model_name: str
    qps: float
    power_w: float
    plan: ExecutionPlan | None
    evaluations: int = 0

    @property
    def qps_per_watt(self) -> float:
        if self.power_w <= 0:
            return 0.0
        return self.qps / self.power_w

    @property
    def feasible(self) -> bool:
        return self.plan is not None and self.qps > 0


@dataclass
class ClassificationTable:
    """The efficiency-tuple table for all workload/server pairs."""

    entries: dict[tuple[str, str], EfficiencyTuple] = field(default_factory=dict)

    def add(self, tup: EfficiencyTuple) -> None:
        self.entries[(tup.server_name, tup.model_name)] = tup

    def get(self, server_name: str, model_name: str) -> EfficiencyTuple:
        try:
            return self.entries[(server_name, model_name)]
        except KeyError:
            raise KeyError(
                f"no efficiency tuple for ({server_name}, {model_name}); "
                "run the offline profiler first"
            ) from None

    def qps(self, server_name: str, model_name: str) -> float:
        return self.get(server_name, model_name).qps

    def power(self, server_name: str, model_name: str) -> float:
        return self.get(server_name, model_name).power_w

    @property
    def server_names(self) -> list[str]:
        return sorted({s for s, _ in self.entries})

    @property
    def model_names(self) -> list[str]:
        return sorted({m for _, m in self.entries})

    def rank_servers(
        self, model_name: str, metric: str = "qps_per_watt"
    ) -> list[EfficiencyTuple]:
        """Server types ranked best-first for one workload.

        This is the classification step of the greedy scheduler
        (Section II-C): ranking by latency-bounded energy efficiency.
        """
        if metric not in ("qps_per_watt", "qps"):
            raise ValueError(f"unknown ranking metric {metric!r}")
        rows = [
            tup
            for (server, model), tup in self.entries.items()
            if model == model_name and tup.feasible
        ]
        return sorted(rows, key=lambda t: getattr(t, metric), reverse=True)

    def normalized(
        self, metric: str = "qps", baseline_server: str = "T1"
    ) -> dict[str, dict[str, float]]:
        """Per-model values normalized to one server type (Fig. 15)."""
        out: dict[str, dict[str, float]] = {}
        for model in self.model_names:
            base = self.get(baseline_server, model)
            base_value = getattr(base, metric) if base.feasible else 0.0
            row = {}
            for server in self.server_names:
                tup = self.entries.get((server, model))
                if tup is None or not tup.feasible or base_value <= 0:
                    row[server] = 0.0
                else:
                    row[server] = getattr(tup, metric) / base_value
            out[model] = row
        return out


class OfflineProfiler:
    """Runs the task-scheduling search for every workload/server pair.

    Args:
        scheduler_factory: Builds the per-pair task scheduler; defaults
            to :class:`HerculesTaskScheduler`.  Pass a baseline factory
            to build the comparison tables of Fig. 14.
        evaluator_factory: Builds the per-server evaluator; override to
            inject custom interference or PCIe models.
    """

    def __init__(
        self,
        scheduler_factory: Callable[..., object] = HerculesTaskScheduler,
        evaluator_factory: Callable[[ServerType], ServerEvaluator] = ServerEvaluator,
    ) -> None:
        self.scheduler_factory = scheduler_factory
        self.evaluator_factory = evaluator_factory
        self._evaluators: dict[str, ServerEvaluator] = {}

    def evaluator(self, server: ServerType) -> ServerEvaluator:
        if server.name not in self._evaluators:
            self._evaluators[server.name] = self.evaluator_factory(server)
        return self._evaluators[server.name]

    def profile_pair(
        self,
        server: ServerType,
        model: RecommendationModel,
        workload: QueryWorkload | None = None,
        sla_ms: float | None = None,
    ) -> EfficiencyTuple:
        """Search one (server, model) pair and record its tuple."""
        scheduler = self.scheduler_factory(
            self.evaluator(server), model, workload, sla_ms
        )
        result: SearchResult = scheduler.search()
        if not result.feasible:
            return EfficiencyTuple(
                server_name=server.name,
                model_name=model.name,
                qps=0.0,
                power_w=server.idle_w,
                plan=None,
                evaluations=result.evaluations,
            )
        return EfficiencyTuple(
            server_name=server.name,
            model_name=model.name,
            qps=result.perf.qps,
            power_w=result.perf.power_w,
            plan=result.plan,
            evaluations=result.evaluations,
        )

    def profile(
        self,
        servers: list[ServerType],
        models: list[RecommendationModel],
        workloads: dict[str, QueryWorkload] | None = None,
        jobs: int = 1,
    ) -> ClassificationTable:
        """Profile all pairs into a classification table.

        Args:
            servers: Server types to profile.
            models: Models to profile.
            workloads: Optional per-model workload overrides.
            jobs: Worker processes for the fan-out.  ``1`` (default)
                profiles serially in-process; ``0``/``None`` uses every
                CPU.  Parallel granularity is one server type per task,
                so each worker shares its evaluator (and NMP LUT)
                across that server's models exactly like the serial
                path.  The table is identical to a serial run -- each
                pair's search is deterministic and results are merged
                in server-major order.  Requires picklable models and
                factories (the defaults are).
        """
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        table = ClassificationTable()
        if jobs == 1 or len(servers) <= 1:
            for server in servers:
                for model in models:
                    workload = (workloads or {}).get(model.name)
                    table.add(self.profile_pair(server, model, workload))
            return table

        from concurrent.futures import ProcessPoolExecutor

        tasks = [
            (self.scheduler_factory, self.evaluator_factory, server, models, workloads)
            for server in servers
        ]
        with ProcessPoolExecutor(max_workers=min(jobs, len(servers))) as pool:
            for rows in pool.map(_profile_server_task, tasks):
                for tup in rows:
                    table.add(tup)
        return table


def _profile_server_task(args: tuple) -> list[EfficiencyTuple]:
    """Profile one server type against every model (pool worker).

    Module-level so it pickles; returns plain :class:`EfficiencyTuple`
    rows (floats + frozen plans), which pickle cheaply.
    """
    scheduler_factory, evaluator_factory, server, models, workloads = args
    profiler = OfflineProfiler(scheduler_factory, evaluator_factory)
    return [
        profiler.profile_pair(server, model, (workloads or {}).get(model.name))
        for model in models
    ]
