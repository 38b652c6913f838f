"""The emissions-vs-availability frontier of carbon-aware operation.

``provision_carbon_aware`` answers one point question -- the
lowest-carbon plan meeting an availability target.  This bench draws
the frontier behind that answer: one fleet, sized once to the target,
replayed and priced against a carbon trace, then the *same* deferrable
work placed by every policy at several power caps.  Availability is held
equal by construction -- the realtime replay is identical across
policies (the differential lane pins it float-for-float), only the
batch-job placement moves -- so the table isolates what each policy's
time-shifting is worth in gCO2.

Asserted (structural -- wall times are not gated here):

- every policy conserves work (submitted == completed + suspended +
  dropped) and, uncapped, completes everything;
- the emission ordering ``no-wait >= lowest-carbon-slot >=
  carbon-waiting >= suspend-resume`` holds at every power cap where
  all policies complete the same work;
- carbon-waiting strictly beats no-wait on this diurnal grid (the
  headline the issue asks the bench to witness);
- the provisioning search converges, meets the target, and its chosen
  plan emits no more than the swept no-wait baseline.

Marked ``slow``: the search replays the fleet once per candidate
``R``; the policy sweep itself re-runs only the deferrable executor.
"""

from __future__ import annotations

import pytest

from _shared import SLA_MS, model, profile_table, workload
from conftest import run_once

from repro.analysis import format_table
from repro.carbon import (
    DEFERRABLE_POLICIES,
    CarbonTrace,
    DeferrableJob,
    attach_carbon,
    realtime_power_profile,
    run_deferrable,
)
from repro.cluster import HerculesClusterScheduler
from repro.fleet import (
    FleetSimulator,
    build_fleet,
    build_fleet_trace,
    provision_carbon_aware,
    service_availability,
)

MODEL = "DLRM-RMC1"
DURATION_S = 3.0
SEED = 23
TARGET = 0.999
LOAD_UNITS = 4.0
FLEET = {"T2": 24}
#: One compressed "day" of grid intensity over the replay window.
CARBON = CarbonTrace.diurnal(
    base=350.0, swing=150.0, period_s=DURATION_S, steps=24
)
POWER_CAPS = (None, 9000.0)


def _jobs(horizon_s: float) -> tuple[DeferrableJob, ...]:
    """Four batch jobs with real slack, submitted through the day."""
    duration = horizon_s / 12.0
    return tuple(
        DeferrableJob(
            name=f"batch-{i}",
            submit_s=i * horizon_s / 6.0,
            duration_s=duration,
            power_w=900.0,
            deadline_s=i * horizon_s / 6.0 + duration * 5.0,
        )
        for i in range(4)
    )


def _sweep():
    models = {MODEL: model(MODEL)}
    workloads = {MODEL: workload(MODEL)}
    table = profile_table(("T2",), (MODEL,))
    tup = table.get("T2", MODEL)
    loads = {MODEL: LOAD_UNITS * tup.qps}
    trace = build_fleet_trace(
        workloads, {MODEL: [(loads[MODEL], DURATION_S)]}, seed=SEED
    )
    scheduler = HerculesClusterScheduler(table, dict(FLEET))
    sla = {MODEL: SLA_MS[MODEL]}
    warmup = DURATION_S * 0.05

    outcome = provision_carbon_aware(
        scheduler,
        table,
        models,
        workloads,
        trace,
        loads,
        CARBON,
        sla_ms=sla,
        jobs=_jobs(DURATION_S),
        power_caps=POWER_CAPS,
        target_availability=TARGET,
        policy="least",
        seed=SEED,
        warmup_s=warmup,
        r_tol=0.05,
    )
    assert outcome.converged, "the availability search must converge"
    assert service_availability(outcome.result) >= TARGET

    # The frontier proper: same fleet, same profile, every policy at
    # every cap -- only the deferrable placement moves.
    servers = build_fleet(outcome.allocation, table, models, workloads)
    sim = FleetSimulator(servers, policy="least", sla_ms=sla, seed=SEED)
    replay = sim.run(trace, warmup_s=warmup)
    horizon = sim.last_horizon_s
    replay = attach_carbon(replay, servers, CARBON, horizon)
    profile = realtime_power_profile(servers)
    jobs = _jobs(DURATION_S)

    frontier = []
    for cap in POWER_CAPS:
        for policy in DEFERRABLE_POLICIES:
            report = run_deferrable(
                jobs,
                CARBON,
                policy=policy,
                horizon_s=horizon,
                power_cap_w=cap,
                realtime_profile=profile,
            )
            assert (
                report.completed + report.suspended + report.dropped
                == report.submitted
            )
            frontier.append(
                {
                    "power_cap_w": cap,
                    "policy": policy,
                    "completed": report.completed,
                    "suspensions": report.suspension_events,
                    "deferrable_g": report.total_gco2,
                    "realtime_g": replay.carbon.realtime_g,
                    "total_g": replay.carbon.realtime_g + report.total_gco2,
                }
            )
    return frontier, outcome, replay


@pytest.mark.slow
def test_carbon_frontier_policy_ordering(benchmark, show, record):
    frontier, outcome, replay = run_once(benchmark, _sweep)

    rows = [
        [
            "none" if pt["power_cap_w"] is None else f"{pt['power_cap_w']:.0f}",
            pt["policy"],
            pt["completed"],
            pt["suspensions"],
            f"{pt['deferrable_g']:.4f}",
            f"{pt['total_g']:.4f}",
        ]
        for pt in frontier
    ]
    show(
        format_table(
            ["cap W", "policy", "done", "susp", "deferrable g", "total g"],
            rows,
            title=(
                "gCO2 by policy at equal availability "
                f"(target {TARGET * 100:.1f}%, chosen R={outcome.chosen_r:.3f})"
            ),
        )
        + "\n\n"
        + outcome.format()
    )
    record(
        {
            "frontier": frontier,
            "chosen_r": outcome.chosen_r,
            "chosen_policy": outcome.chosen_plan.policy
            if outcome.chosen_plan
            else None,
            "no_wait_g": outcome.no_wait_g,
            "total_g": outcome.total_g,
            "savings_g": outcome.deferral_savings_g,
        }
    )

    by_cap = {}
    for pt in frontier:
        by_cap.setdefault(pt["power_cap_w"], {})[pt["policy"]] = pt
    ladder = ("no-wait", "lowest-carbon-slot", "carbon-waiting", "suspend-resume")
    for cap, points in by_cap.items():
        if cap is None:
            assert all(
                pt["completed"] == len(_jobs(DURATION_S))
                for pt in points.values()
            ), "uncapped, every policy must complete every job"
        done = {pt["completed"] for pt in points.values()}
        if len(done) == 1:
            eps = 1e-9 * max(1.0, points["no-wait"]["deferrable_g"])
            for costlier, cheaper in zip(ladder, ladder[1:]):
                assert (
                    points[cheaper]["deferrable_g"]
                    <= points[costlier]["deferrable_g"] + eps
                ), f"{cheaper} out-emitted {costlier} at cap {cap}"

    uncapped = by_cap[None]
    assert (
        uncapped["carbon-waiting"]["deferrable_g"]
        < uncapped["no-wait"]["deferrable_g"]
    ), "carbon-waiting must beat no-wait on a diurnal grid"
    if outcome.chosen_plan is not None:
        assert outcome.total_g <= outcome.no_wait_g + outcome.result.carbon.realtime_g
