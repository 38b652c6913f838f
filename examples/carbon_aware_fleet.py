"""Carbon-aware operation: price the fleet, time-shift the batch work.

The `fault_aware_provisioning` example buys availability with standby
power; this walkthrough spends the other currency -- gCO2:

1. profile a small T2 fleet and attach a diurnal grid carbon-intensity
   trace (one compressed "day" over the replay window);
2. replay the fleet, price the run against the trace, and read the
   realtime emissions off the report -- the SLA traffic is priced but
   never moved;
3. submit four deferrable batch jobs with real slack and place them
   with each scheduling policy, watching the emission ladder
   `no-wait >= lowest-carbon-slot >= carbon-waiting >= suspend-resume`;
4. run ``provision_carbon_aware``: the smallest fleet meeting the
   availability target, plus the least-gCO2 feasible deferrable plan
   swept over policies and power caps.

Run:  python examples/carbon_aware_fleet.py
"""

from __future__ import annotations

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
)
from repro.hardware import SERVER_TYPES
from repro.models import build_model
from repro.scheduling import OfflineProfiler
from repro.sim import QueryWorkload

MODEL = "DLRM-RMC1"
DURATION_S = 3.0
SEED = 7
TARGET = 0.999
LOAD_UNITS = 4.0


def jobs_for(horizon_s: float) -> tuple[DeferrableJob, ...]:
    """Four batch jobs submitted through the day, each with 4x slack."""
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


def main() -> None:
    model = build_model(MODEL)
    models = {MODEL: model}
    workloads = {MODEL: QueryWorkload.for_model(model.config.mean_query_size)}

    print("Offline profiling the fleet ...")
    table = OfflineProfiler().profile([SERVER_TYPES["T2"]], [model])
    tup = table.get("T2", MODEL)
    loads = {MODEL: LOAD_UNITS * tup.qps}
    trace = build_fleet_trace(
        workloads, {MODEL: [(loads[MODEL], DURATION_S)]}, seed=SEED
    )
    scheduler = HerculesClusterScheduler(table, {"T2": 20})

    # One compressed "day": intensity swings 200..500 gCO2/kWh with the
    # trough at midday.  Same grammar as `fleet --carbon
    # diurnal:base=350,swing=150,period=3,steps=24`.
    carbon = CarbonTrace.diurnal(
        base=350.0, swing=150.0, period_s=DURATION_S, steps=24
    )
    print(
        f"{len(trace)} queries over {DURATION_S:.0f}s; grid mean "
        f"{carbon.mean(0.0, DURATION_S):.0f} gCO2/kWh\n"
    )

    # -- 2. price the realtime fleet -----------------------------------
    allocation = scheduler.allocate(loads, over_provision=0.05)
    servers = build_fleet(allocation, table, models, workloads)
    sim = FleetSimulator(
        servers,
        policy="least",
        sla_ms={MODEL: model.sla_ms},
        seed=SEED,
    )
    result = sim.run(trace, warmup_s=DURATION_S * 0.05)
    # The exact horizon the replay measured to; the deferrable jobs
    # below run on the same timeline.
    horizon = sim.last_horizon_s
    stats = attach_carbon(result, servers, carbon, horizon).carbon
    print(
        f"realtime serving: {stats.energy_kwh * 1e3:.3f} Wh -> "
        f"{stats.realtime_g:.3f} gCO2 at grid mean "
        f"{stats.mean_intensity:.0f} gCO2/kWh"
    )

    # -- 3. the policy ladder on the same timeline ---------------------
    profile = realtime_power_profile(servers)
    jobs = jobs_for(DURATION_S)
    print(f"\nplacing {len(jobs)} deferrable jobs (900 W, 4x slack):")
    for policy in DEFERRABLE_POLICIES:
        report = run_deferrable(
            jobs,
            carbon,
            policy=policy,
            horizon_s=horizon,
            realtime_profile=profile,
        )
        print(
            f"  {policy:>18}: {report.completed}/{report.submitted} done, "
            f"{report.suspension_events} suspensions, "
            f"{report.total_gco2:.4f} gCO2"
        )

    # -- 4. the whole loop in one call ---------------------------------
    print()
    outcome = provision_carbon_aware(
        scheduler,
        table,
        models,
        workloads,
        trace,
        loads,
        carbon,
        sla_ms={MODEL: model.sla_ms},
        jobs=jobs,
        power_caps=(None, 9000.0),
        target_availability=TARGET,
        policy="least",
        seed=SEED,
        warmup_s=DURATION_S * 0.05,
        r_tol=0.05,
    )
    print(outcome.format())
    if outcome.converged and outcome.chosen_plan is not None:
        print(
            f"\ntime-shifting the batch work saved "
            f"{outcome.deferral_savings_g:.4f} gCO2 "
            f"({outcome.deferral_savings_g / max(outcome.no_wait_g, 1e-12) * 100:.0f}% "
            f"of the no-wait batch emissions) at the same availability"
        )


if __name__ == "__main__":
    main()
