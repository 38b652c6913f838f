"""Trace-driven load generation (the paper's Fig. 13 load generator).

Historically this module owned the Poisson sampling; the arrival layer
now lives in :mod:`repro.traces` (piecewise Poisson, MMPP bursts,
diurnal ramps, recorded-trace replay) and this module is the thin
backward-compatible adapter: :func:`generate_trace` delegates to
:func:`repro.traces.arrivals.poisson_segment`, which preserves the
historical draw sequence bit-for-bit (pinned by
``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.queries import Query, QueryWorkload

__all__ = ["generate_trace", "PoissonLoadGenerator"]


def generate_trace(
    workload: QueryWorkload,
    arrival_rate_qps: float,
    duration_s: float,
    seed: int = 0,
    start_s: float = 0.0,
    first_id: int = 0,
) -> list[Query]:
    """Generate a Poisson query trace.

    Args:
        workload: Size/pooling distributions to sample.
        arrival_rate_qps: Mean arrival rate.
        duration_s: Trace length.
        seed: RNG seed (traces are reproducible).
        start_s: Timestamp of the window start.
        first_id: Id of the first query (for chaining segments).

    Returns:
        Queries sorted by arrival time.
    """
    # Imported here, not at module level: repro.traces imports
    # repro.sim, so a top-level import would close an import cycle
    # whenever repro.traces (or a package importing it) loads first.
    from repro.traces.arrivals import poisson_segment

    return poisson_segment(
        workload,
        arrival_rate_qps,
        duration_s,
        seed=seed,
        start_s=start_s,
        first_id=first_id,
    )


@dataclass
class PoissonLoadGenerator:
    """Stateful generator for chaining variable-rate trace segments.

    Used by the cluster manager to replay a diurnal day: each
    provisioning interval generates a segment at the interval's rate.
    Segment ``k`` draws with seed ``seed + k`` -- the same schedule
    :class:`repro.traces.PiecewisePoissonProcess` uses, so a chain of
    ``next_segment`` calls equals one streamed process.
    """

    workload: QueryWorkload
    seed: int = 0

    def __post_init__(self) -> None:
        self._next_id = 0
        self._clock_s = 0.0
        self._segment = 0

    def next_segment(self, arrival_rate_qps: float, duration_s: float) -> list[Query]:
        """Generate the next contiguous segment of the trace."""
        from repro.traces.arrivals import poisson_segment

        queries = poisson_segment(
            self.workload,
            arrival_rate_qps,
            duration_s,
            seed=self.seed + self._segment,
            start_s=self._clock_s,
            first_id=self._next_id,
        )
        self._segment += 1
        self._clock_s += duration_s
        self._next_id += len(queries)
        return queries
