"""Serving metrics: latency percentiles, throughput, power, energy.

The paper's high-level workload-classification metrics are
latency-bounded throughput (QPS) and energy efficiency (QPS-per-Watt)
-- Section III-A argues these beat low-level metrics like CPU
utilization.  Everything the benches print flows through these types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LatencyStats", "ServerPerformance", "percentile"]


def percentile(samples: list[float] | np.ndarray, p: float) -> float:
    """The ``p``-th percentile of a latency sample set (p in [0, 100])."""
    if len(samples) == 0:
        raise ValueError("cannot take a percentile of zero samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    return float(np.percentile(np.asarray(samples, dtype=float), p))


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution summary in milliseconds.

    Attributes:
        p50_ms / p95_ms / p99_ms: Percentiles of query latency.
        mean_ms: Mean query latency.
    """

    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float

    @classmethod
    def from_samples_s(cls, samples_s: list[float] | np.ndarray) -> "LatencyStats":
        """Build from latency samples in seconds."""
        arr = np.asarray(samples_s, dtype=float) * 1e3
        return cls(
            p50_ms=percentile(arr, 50),
            p95_ms=percentile(arr, 95),
            p99_ms=percentile(arr, 99),
            mean_ms=float(arr.mean()),
        )

    def meets(self, sla_ms: float) -> bool:
        """SLA check on the tail (the paper's targets bind at p99)."""
        return self.p99_ms <= sla_ms


@dataclass(frozen=True)
class ServerPerformance:
    """Performance of one (model, server, scheduling config) operating point.

    Attributes:
        qps: Sustained queries per second.
        latency: Latency distribution at that load.
        power_w: Average wall power.
        cpu_util: Average busy fraction of all physical cores (Fig. 4c).
        gpu_util: GPU busy fraction (0 without GPU).
        mem_util: Memory-bandwidth demand over peak.
        breakdown: Fractions of query latency by stage, e.g.
            ``{"queuing": .., "loading": .., "inference": ..}`` (Fig. 7).
        feasible: Whether this point satisfies SLA/power/capacity
            constraints.
        infeasible_reason: Human-readable constraint violation.
    """

    qps: float
    latency: LatencyStats
    power_w: float
    cpu_util: float = 0.0
    gpu_util: float = 0.0
    mem_util: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    infeasible_reason: str = ""

    @property
    def qps_per_watt(self) -> float:
        """Energy efficiency -- the cluster scheduler's ranking metric."""
        if self.power_w <= 0:
            return 0.0
        return self.qps / self.power_w

    @staticmethod
    def infeasible(reason: str, power_w: float = 0.0) -> "ServerPerformance":
        """A sentinel for configurations that violate a constraint."""
        zero = LatencyStats(
            p50_ms=math.inf, p95_ms=math.inf, p99_ms=math.inf, mean_ms=math.inf
        )
        return ServerPerformance(
            qps=0.0,
            latency=zero,
            power_w=power_w,
            feasible=False,
            infeasible_reason=reason,
        )
