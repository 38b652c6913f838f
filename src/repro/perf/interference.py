"""Co-location interference on shared memory bandwidth and LLC.

On multi-core CPUs the co-located inference threads contend for memory
bandwidth and last-level cache (Section III-A: halving the number of
co-located threads "reduces interference").  We model two effects:

1. *Bandwidth saturation*: when the sum of per-thread bandwidth demand
   exceeds the socket's achievable bandwidth, every thread's effective
   share scales down proportionally.
2. *LLC contention*: each additional co-located thread evicts shared
   cache lines, inflating memory time by a small per-thread factor.

Both are deliberately simple -- what matters for reproducing the paper
is that throughput stops scaling linearly in thread count, creating the
concave QPS surface of Fig. 11(a).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterferenceModel"]


@dataclass(frozen=True)
class InterferenceModel:
    """Tunable co-location interference model.

    Attributes:
        llc_penalty_per_thread: Fractional memory-time inflation added
            by each co-located thread beyond the first.
        max_llc_penalty: Cap on total LLC inflation.
    """

    llc_penalty_per_thread: float = 0.02
    max_llc_penalty: float = 0.5

    def __post_init__(self) -> None:
        if self.llc_penalty_per_thread < 0:
            raise ValueError("llc penalty must be >= 0")
        if self.max_llc_penalty < 0:
            raise ValueError("max penalty must be >= 0")

    def bandwidth_fraction(
        self, demand_bytes_per_s: float, peak_bytes_per_s: float
    ) -> float:
        """Fraction of its demanded bandwidth each thread actually gets.

        Returns 1.0 while aggregate demand fits under the peak; beyond
        saturation every thread is throttled fairly.
        """
        if demand_bytes_per_s < 0 or peak_bytes_per_s <= 0:
            raise ValueError("bandwidths must be non-negative/positive")
        if demand_bytes_per_s <= peak_bytes_per_s:
            return 1.0
        return peak_bytes_per_s / demand_bytes_per_s

    def llc_inflation(self, co_located_threads: int) -> float:
        """Multiplier (>= 1) on memory time from cache contention."""
        if co_located_threads < 1:
            raise ValueError("co_located_threads must be >= 1")
        penalty = self.llc_penalty_per_thread * (co_located_threads - 1)
        return 1.0 + min(penalty, self.max_llc_penalty)
