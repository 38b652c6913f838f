"""gCO2 accounting: price the fleet's measured energy with the grid.

The fleet engine already measures active-time-weighted energy per
replica (``power_w() x active_s``); this module integrates that energy
against a :class:`~repro.carbon.CarbonTrace` to turn joules into grams
of CO2.  Each replica's average active power is spread over its
*recorded activation windows* -- exact for static fleets (one window:
the whole horizon) and honest for autoscaled/faulted fleets, where a
replica's draw is priced only over the intervals it was actually on.

The same windows double as the real-time power profile the deferrable
executor's power cap binds against, so "cap minus serving draw" uses
the identical accounting the emissions do.

Everything here runs after :meth:`~repro.fleet.FleetSimulator.run`,
on the replicas it settled and at its ``last_horizon_s``::

    result = sim.run(trace, warmup_s=warmup)
    report = run_deferrable(jobs, carbon, horizon_s=sim.last_horizon_s,
                            realtime_profile=realtime_power_profile(sim.servers))
    result = attach_carbon(result, sim.servers, carbon, sim.last_horizon_s, report)
"""

from __future__ import annotations

import dataclasses

from repro.carbon.deferrable import DeferrableReport
from repro.carbon.trace import CarbonTrace
from repro.fleet.report import CarbonStats, FleetResult, J_PER_KWH

__all__ = [
    "realtime_power_profile",
    "realtime_emissions_g",
    "summarize_carbon",
    "attach_carbon",
]


def realtime_power_profile(servers) -> tuple[tuple[float, float, float], ...]:
    """Per-replica ``(start_s, end_s, power_w)`` activation windows.

    Reads each replica's ``active_windows``, which the engine records
    on every run.  Replicas that never served contribute nothing
    (their power is 0 anyway).
    """
    profile = []
    for s in servers:
        power = s.power_w()
        if power <= 0.0:
            continue
        for start, end in s.active_windows:
            if end > start:
                profile.append((start, end, power))
    return tuple(profile)


def realtime_emissions_g(
    servers, carbon: CarbonTrace
) -> tuple[float, float]:
    """Emissions and energy of the serving replicas.

    Returns ``(gco2_g, energy_kwh)``: each replica's average active
    power integrated against the trace over its activation windows, in
    fleet-index order (deterministic float accumulation).
    """
    total_g = 0.0
    total_kwh = 0.0
    for s in servers:
        power = s.power_w()
        if power <= 0.0:
            continue
        for start, end in s.active_windows:
            if end > start:
                total_g += power * carbon.integral(start, end) / J_PER_KWH
                total_kwh += power * (end - start) / J_PER_KWH
    return total_g, total_kwh


def summarize_carbon(
    servers,
    carbon: CarbonTrace,
    horizon_s: float,
    deferrable: DeferrableReport | None = None,
) -> CarbonStats:
    """Fold replica windows (and an optional deferrable report) into
    the :class:`~repro.fleet.report.CarbonStats` row."""
    realtime_g, energy_kwh = realtime_emissions_g(servers, carbon)
    if deferrable is None:
        return CarbonStats(
            total_g=realtime_g,
            realtime_g=realtime_g,
            deferrable_g=0.0,
            energy_kwh=energy_kwh,
            deferrable_energy_kwh=0.0,
            mean_intensity=carbon.mean(0.0, horizon_s),
        )
    return CarbonStats(
        total_g=realtime_g + deferrable.total_gco2,
        realtime_g=realtime_g,
        deferrable_g=deferrable.total_gco2,
        energy_kwh=energy_kwh,
        deferrable_energy_kwh=deferrable.energy_kwh,
        mean_intensity=carbon.mean(0.0, horizon_s),
        policy=deferrable.policy,
        power_cap_w=deferrable.power_cap_w,
        jobs_submitted=deferrable.submitted,
        jobs_completed=deferrable.completed,
        jobs_suspended=deferrable.suspended,
        jobs_dropped=deferrable.dropped,
        job_suspensions=deferrable.suspension_events,
    )


def attach_carbon(
    result: FleetResult,
    servers,
    carbon: CarbonTrace,
    horizon_s: float,
    deferrable: DeferrableReport | None = None,
) -> FleetResult:
    """Return ``result`` with its ``carbon`` field populated.

    Everything else is carried through untouched -- the real-time
    report is never perturbed by carbon accounting (the differential
    lane in ``tests/test_perf_equivalence.py`` pins this).
    """
    stats = summarize_carbon(servers, carbon, horizon_s, deferrable)
    return dataclasses.replace(result, carbon=stats)
