"""Cluster scheduling policies: NH, greedy, priority-aware, Hercules.

The four policies the paper compares (Sections III-C, VI-C):

- **NH** (heterogeneity-oblivious): assigns whatever servers come next
  in fleet order, ignoring per-pair performance differences.
- **Greedy** [Paragon/Quasar]: per workload, allocates the best-ranked
  available servers first; when workloads compete for the same type,
  whoever is processed first wins -- the deficiency Fig. 8 exposes.
- **Priority-aware**: the characterization's improvement -- contested
  server types go to the workload with the largest *relative* benefit.
- **Hercules**: the LP provisioner of Section IV-C.

All consume the same offline-profiled efficiency-tuple table and return
an :class:`Allocation` for the current interval's loads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.provision import integerize, solve_allocation_lp
from repro.cluster.state import Allocation
from repro.scheduling.profiler import ClassificationTable, EfficiencyTuple

__all__ = [
    "ClusterScheduler",
    "NHScheduler",
    "GreedyScheduler",
    "PriorityAwareScheduler",
    "HerculesClusterScheduler",
]


@dataclass
class ClusterScheduler:
    """Common state for cluster scheduling policies.

    Attributes:
        table: Offline-profiled efficiency tuples.
        fleet: Per-type availability ``N_h``.
        ranking_metric: Metric used to rank server types per workload
            (the paper classifies by latency-bounded energy efficiency).
    """

    table: ClassificationTable
    fleet: dict[str, int]
    ranking_metric: str = "qps_per_watt"

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.fleet.values()):
            raise ValueError("fleet availabilities must be >= 0")

    @property
    def name(self) -> str:
        return type(self).__name__

    def allocate(
        self, loads: dict[str, float], over_provision: float = 0.0
    ) -> Allocation:
        raise NotImplementedError

    def _fill(
        self,
        allocation: Allocation,
        used: dict[str, int],
        model: str,
        target_qps: float,
        candidates: list[EfficiencyTuple],
    ) -> None:
        """Allocate from ``candidates`` in order until coverage or exhaustion."""
        deficit = target_qps - allocation.capacity_qps(self.table, model)
        for tup in candidates:
            if deficit <= 1e-6:
                break
            if tup.qps <= 0:
                continue
            available = self.fleet.get(tup.server_name, 0) - used.get(
                tup.server_name, 0
            )
            if available <= 0:
                continue
            needed = int(-(-deficit // tup.qps))  # ceil
            take = min(needed, available)
            allocation.add(tup.server_name, model, take)
            used[tup.server_name] = used.get(tup.server_name, 0) + take
            deficit = target_qps - allocation.capacity_qps(self.table, model)
        if deficit > 1e-6:
            allocation.shortfall[model] = deficit


class NHScheduler(ClusterScheduler):
    """Heterogeneity-oblivious baseline: fleet order, no ranking."""

    def allocate(
        self, loads: dict[str, float], over_provision: float = 0.0
    ) -> Allocation:
        allocation = Allocation()
        used: dict[str, int] = {}
        for model, load in loads.items():
            if load <= 0:
                continue
            # Candidates in raw fleet order -- whatever happens to be
            # listed first gets assigned, regardless of fit.
            candidates = [
                self.table.get(srv, model)
                for srv in self.fleet
                if self.table.entries.get((srv, model)) is not None
                and self.table.get(srv, model).feasible
            ]
            self._fill(
                allocation, used, model, load * (1.0 + over_provision), candidates
            )
        return allocation


class GreedyScheduler(ClusterScheduler):
    """Heterogeneity-aware greedy scheduler [Paragon, Quasar].

    Ranks server types per workload and always picks the best available.
    Workloads are processed in dictionary order; contested types are
    consumed first-come-first-served, which is exactly what the
    priority-aware and Hercules schedulers improve on.
    """

    def allocate(
        self, loads: dict[str, float], over_provision: float = 0.0
    ) -> Allocation:
        allocation = Allocation()
        used: dict[str, int] = {}
        for model, load in loads.items():
            if load <= 0:
                continue
            candidates = self.table.rank_servers(model, self.ranking_metric)
            self._fill(
                allocation, used, model, load * (1.0 + over_provision), candidates
            )
        return allocation


class PriorityAwareScheduler(ClusterScheduler):
    """Greedy with contention-aware workload priority (Section III-C).

    For each server type, the workload with the highest relative
    benefit -- the ratio of its efficiency on that type over its
    efficiency on its next-best type -- claims the type first.  This
    captures the Fig. 8 insight that CPU+NMP should go to RMC2 before
    RMC1 because RMC2 gains more from it.
    """

    def allocate(
        self, loads: dict[str, float], over_provision: float = 0.0
    ) -> Allocation:
        active = [m for m, load in loads.items() if load > 0]
        # Relative benefit of giving type h to model m: the efficiency
        # improvement over the model's commodity fallback (its worst
        # feasible type).  RMC2 improves more on CPU+NMP than RMC1
        # (2.04x vs 1.75x in Fig. 8a), so RMC2 claims the NMP servers.
        priorities: list[tuple[float, str, str]] = []
        for model in active:
            ranked = self.table.rank_servers(model, self.ranking_metric)
            if not ranked:
                continue
            fallback = max(getattr(ranked[-1], self.ranking_metric), 1e-12)
            for tup in ranked:
                benefit = getattr(tup, self.ranking_metric) / fallback
                priorities.append((benefit, tup.server_name, model))
        priorities.sort(reverse=True)

        allocation = Allocation()
        used: dict[str, int] = {}
        targets = {m: loads[m] * (1.0 + over_provision) for m in active}
        for _, srv, model in priorities:
            deficit = targets[model] - allocation.capacity_qps(self.table, model)
            if deficit <= 1e-6:
                continue
            tup = self.table.get(srv, model)
            if not tup.feasible or tup.qps <= 0:
                continue
            available = self.fleet.get(srv, 0) - used.get(srv, 0)
            if available <= 0:
                continue
            take = min(int(-(-deficit // tup.qps)), available)
            allocation.add(srv, model, take)
            used[srv] = used.get(srv, 0) + take
        for model in active:
            deficit = targets[model] - allocation.capacity_qps(self.table, model)
            if deficit > 1e-6:
                allocation.shortfall[model] = deficit
        return allocation


class HerculesClusterScheduler(ClusterScheduler):
    """Goal-oriented provisioning: solve the LP with the built-in
    simplex, then integerize; an LP the fleet cannot cover falls back to
    greedy, which reports the shortfall per model."""

    def allocate(
        self, loads: dict[str, float], over_provision: float = 0.0
    ) -> Allocation:
        active = {m: q for m, q in loads.items() if q > 0}
        if not active:
            return Allocation()
        solution = solve_allocation_lp(self.table, active, self.fleet, over_provision)
        if not solution.feasible:
            # Fleet cannot cover the load even fractionally: fall back
            # to greedy so the shortfall is reported per model.
            return GreedyScheduler(self.table, self.fleet, self.ranking_metric).allocate(
                loads, over_provision
            )
        return integerize(solution, self.table, active, self.fleet, over_provision)
