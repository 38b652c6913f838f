"""Model-evolution experiment (paper Section VI-C, Fig. 16).

The paper mimics model evolution by linearly shifting the workload mix
from the older DLRM family (RMC1/RMC2/RMC3) to the newer, more complex
models (DIN/DIEN/MT-WnD) over a sequence of model-update cycles, and
measures how cluster capacity and provisioned power grow on a CPU-only
cluster versus an accelerated one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.loads import DiurnalTrace, synchronous_traces
from repro.cluster.manager import ClusterManager, DaySummary
from repro.cluster.schedulers import ClusterScheduler

__all__ = ["EvolutionMix", "linear_evolution", "EvolutionResult", "run_evolution"]

OLD_MODELS: tuple[str, ...] = ("DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3")
NEW_MODELS: tuple[str, ...] = ("DIN", "DIEN", "MT-WnD")

#: Relative load shares within each family.  High-traffic ranking
#: services (RMC1) carry most of the old family's load; the wide
#: 100-table RMC2 serves a smaller, specialized slice.
OLD_SHARES: dict[str, float] = {
    "DLRM-RMC1": 0.7,
    "DLRM-RMC2": 0.1,
    "DLRM-RMC3": 0.2,
}
NEW_SHARES: dict[str, float] = {"DIN": 0.4, "DIEN": 0.3, "MT-WnD": 0.3}


@dataclass(frozen=True)
class EvolutionMix:
    """One point of the synthetic evolution: load share per model.

    Attributes:
        cycle: Model-update cycle index (0 = all old models).
        shares: Fraction of the total load routed to each model;
            must sum to ~1.
    """

    cycle: int
    shares: dict[str, float]

    def __post_init__(self) -> None:
        total = sum(self.shares.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"shares must sum to 1, got {total}")
        if any(v < 0 for v in self.shares.values()):
            raise ValueError("shares must be >= 0")


def linear_evolution(cycles: int = 6) -> list[EvolutionMix]:
    """Linear shift of load from old to new models over ``cycles`` steps.

    Cycle 0 routes everything to RMC1/RMC2/RMC3 (equal split); the last
    cycle routes everything to DIN/DIEN/MT-WnD, matching the synthetic
    linear process of Fig. 16(a).
    """
    if cycles < 2:
        raise ValueError("need at least 2 cycles")
    mixes = []
    for cycle in range(cycles):
        new_fraction = cycle / (cycles - 1)
        shares: dict[str, float] = {}
        for name, weight in OLD_SHARES.items():
            shares[name] = (1.0 - new_fraction) * weight
        for name, weight in NEW_SHARES.items():
            shares[name] = new_fraction * weight
        shares = {k: v for k, v in shares.items() if v > 0}
        mixes.append(EvolutionMix(cycle=cycle, shares=shares))
    return mixes


@dataclass(frozen=True)
class EvolutionResult:
    """Per-cycle day summaries for one cluster configuration."""

    mixes: tuple[EvolutionMix, ...]
    days: tuple[DaySummary, ...]

    def peak_power_series(self) -> list[float]:
        return [d.peak_power_w for d in self.days]

    def peak_server_series(self) -> list[int]:
        return [d.peak_servers for d in self.days]


def run_evolution(
    scheduler: ClusterScheduler,
    total_peak_qps: float,
    cycles: int = 6,
    interval_minutes: float = 30.0,
    over_provision: float | None = 0.05,
) -> EvolutionResult:
    """Run the synthetic evolution through a cluster scheduler.

    Args:
        scheduler: The policy under test (its table must cover every
            model that appears in the mixes).
        total_peak_qps: Aggregate peak load, split by each mix's shares.
        cycles: Number of model-update cycles.
        interval_minutes: Provisioning interval.
        over_provision: Rate ``R`` (None = estimate from traces).
    """
    if total_peak_qps <= 0:
        raise ValueError("total_peak_qps must be positive")
    manager = ClusterManager(
        scheduler,
        interval_minutes=interval_minutes,
        over_provision=over_provision,
    )
    mixes = linear_evolution(cycles)
    days = []
    for mix in mixes:
        peaks = {
            name: total_peak_qps * share for name, share in mix.shares.items()
        }
        traces = synchronous_traces(peaks)
        days.append(manager.run_day(traces))
    return EvolutionResult(mixes=tuple(mixes), days=tuple(days))
