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

from repro.sim.queries import Query, QueryWorkload

__all__ = ["generate_trace"]


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
