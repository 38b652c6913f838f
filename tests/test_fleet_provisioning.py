"""Fault-aware provisioning: the availability -> ``R`` fixpoint loop.

Pins the tentpole semantics: the search converges to the smallest
over-provision rate whose fault-injected replay meets the target
service availability, reports the power delta against the fault-blind
baseline, is deterministic given (trace, schedule, seed), and degrades
gracefully (no convergence) when no ``R`` can meet the target.
"""

from __future__ import annotations

import pytest

from repro.cluster import HerculesClusterScheduler
from repro.fleet import (
    FaultDomains,
    FaultSchedule,
    build_fleet_trace,
    crash,
    domain_crash,
    provision_fault_aware,
    service_availability,
)
from repro.models import build_model
from repro.sim import QueryWorkload

MODEL = "DLRM-RMC1"
DURATION_S = 2.0
SEED = 7


@pytest.fixture(scope="module")
def rmc1_models():
    return {MODEL: build_model(MODEL)}


@pytest.fixture(scope="module")
def rmc1_workloads(rmc1_models):
    model = rmc1_models[MODEL]
    return {MODEL: QueryWorkload.for_model(model.config.mean_query_size)}


@pytest.fixture(scope="module")
def provisioning_inputs(small_table, rmc1_workloads):
    """A load that saturates the R=0 allocation: 2.7 replica-equivalents
    of demand lands on ceil(2.7) = 3 replicas at 90% utilization, so a
    mid-run crash overloads the survivors and only headroom (R) can
    absorb it."""
    tup = small_table.get("T2", MODEL)
    loads = {MODEL: 2.7 * tup.qps}
    trace = build_fleet_trace(
        rmc1_workloads, {MODEL: [(loads[MODEL], DURATION_S)]}, seed=SEED
    )
    scheduler = HerculesClusterScheduler(small_table, {"T2": 12})
    return scheduler, loads, trace


def _provision(
    small_table, rmc1_models, rmc1_workloads, provisioning_inputs, *, faults, **kw
):
    scheduler, loads, trace = provisioning_inputs
    kwargs = dict(
        sla_ms={MODEL: 20.0},
        target_availability=0.995,
        baseline_r=0.0,
        policy="least",
        retries=2,
        seed=SEED,
        warmup_s=0.1,
        r_tol=0.05,
    )
    kwargs.update(kw)
    return provision_fault_aware(
        scheduler,
        small_table,
        rmc1_models,
        rmc1_workloads,
        trace,
        loads,
        faults,
        **kwargs,
    )


class TestConvergence:
    def test_converges_above_failing_baseline(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        """The fault-blind R=0 point misses the target; the loop finds a
        bigger R that meets it and prices the difference."""
        schedule = FaultSchedule([crash(1.0, 0, recover_after=0.4)])
        outcome = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=schedule,
        )
        assert outcome.converged
        assert not outcome.baseline_meets_target, (
            "the scenario must be one the fault-blind provisioner fails"
        )
        assert outcome.chosen_r is not None and outcome.chosen_r > 0.0
        assert service_availability(outcome.result) >= 0.995
        # The headroom costs real provisioned power, and the report
        # quantifies it against the blind baseline.
        assert outcome.allocation.total_servers > outcome.baseline_allocation.total_servers
        assert outcome.power_delta_w > 0.0
        assert outcome.standby_power_w > 0.0
        assert outcome.provisioned_power_w == pytest.approx(
            outcome.baseline_power_w + outcome.power_delta_w
        )
        # Every evaluated point carries the measured pair the loop fed back.
        assert outcome.evaluations[0].r == 0.0  # baseline first
        for ev in outcome.evaluations:
            assert 0.0 <= ev.service_availability <= 1.0
            assert 0.0 <= ev.uptime_availability <= 1.0
            assert ev.meets_target == (ev.service_availability >= 0.995)

    def test_correlated_domain_crash_needs_more_headroom(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        """Losing a whole 2-replica rack costs at least as much R as
        losing one replica (same instant, same recovery)."""
        single = FaultSchedule([crash(1.0, 0, recover_after=0.4)])
        rack = FaultSchedule(
            domains=FaultDomains(size=2),
            domain_events=[domain_crash(1.0, 0, recover_after=0.4)],
        )
        lone = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=single,
        )
        correlated = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=rack,
        )
        assert lone.converged and correlated.converged
        assert correlated.chosen_r >= lone.chosen_r
        assert (
            correlated.allocation.total_servers >= lone.allocation.total_servers
        )

    def test_trivial_when_target_already_met(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        """An empty schedule meets any reasonable target at r_min."""
        outcome = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=FaultSchedule(),
        )
        assert outcome.converged
        assert outcome.chosen_r == 0.0
        assert outcome.power_delta_w == 0.0
        assert outcome.standby_power_w == 0.0

    def test_reports_non_convergence_on_impossible_target(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        """A permanent all-replica blackout can't be provisioned away:
        the loop stops at r_max and says so instead of looping."""
        blackout = FaultSchedule(
            domains=FaultDomains(size=1000),  # every replica in rack 0
            domain_events=[domain_crash(1.0, 0)],
        )
        outcome = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=blackout, r_max=0.4, max_evals=6,
        )
        assert not outcome.converged
        assert outcome.chosen_r is None
        assert outcome.allocation is None
        assert outcome.evaluations  # best effort is still reported
        assert "did not converge" in outcome.format()

    def test_deterministic_given_seed(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        schedule = FaultSchedule.stochastic(
            crash_mtbf_s=3.0, mttr_s=0.4
        )
        a = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=schedule,
        )
        b = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=schedule,
        )
        assert a.chosen_r == b.chosen_r
        assert a.evaluations == b.evaluations
        assert a.power_delta_w == b.power_delta_w


class TestReporting:
    def test_format_surfaces_the_loop(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        schedule = FaultSchedule([crash(1.0, 0, recover_after=0.4)])
        outcome = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=schedule,
        )
        text = outcome.format()
        for token in (
            "svc avail",
            "fault-blind baseline",
            "chosen R=",
            "standby",
            "kW",
        ):
            assert token in text

    def test_service_availability_matches_per_model_accounting(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        schedule = FaultSchedule([crash(1.0, 0, recover_after=0.4)])
        outcome = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=schedule,
        )
        result = outcome.baseline_result
        demand = violations = 0.0
        for stats in result.per_model.values():
            d = stats.completed + stats.failed + stats.dropped
            demand += d
            violations += stats.violation_rate * d
        assert service_availability(result) == pytest.approx(
            1.0 - violations / demand
        )

    def test_index_targeted_schedule_too_big_fails_actionably(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        """A schedule naming fleet positions beyond an evaluated
        allocation raises an actionable error (not a mid-replay
        traceback): the search sizes fleets per R, so position-targeted
        specs must use fleet-size-adaptive forms."""
        oversized = FaultSchedule.parse("domain:4-7;crash@1:dom0+0.3")
        with pytest.raises(ValueError, match="fleet-size-adaptive"):
            _provision(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                faults=oversized,
            )

    def test_replays_at_most_evaluations(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        """Rates that integerize to one allocation share one replay."""
        outcome = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=FaultSchedule([crash(1.0, 0, recover_after=0.4)]),
        )
        assert 1 <= outcome.replays <= len(outcome.evaluations)

    def test_input_validation(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        schedule = FaultSchedule()
        with pytest.raises(ValueError, match="target_availability"):
            _provision(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                faults=schedule, target_availability=1.5,
            )
        with pytest.raises(ValueError, match="r_min"):
            _provision(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                faults=schedule, r_min=0.5, r_max=0.1,
            )
        with pytest.raises(ValueError, match="r_tol"):
            _provision(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                faults=schedule, r_tol=0.0,
            )
        with pytest.raises(ValueError, match="max_evals"):
            _provision(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                faults=schedule, max_evals=1,
            )


class TestCarbonAwareSearch:
    """The carbon search sizes the fleet with the fault-aware search's
    replay: a fault-free ledger, the same ``R`` trajectory, the same
    argument checks.  A 6 ms SLA makes the saturated R=0 fleet miss a
    99.9% target, so the search has to bracket and bisect."""

    SLA_MS = 6.0
    TARGET = 0.999

    def _carbon(self, small_table, rmc1_models, rmc1_workloads,
                provisioning_inputs, **kw):
        from repro.carbon import CarbonTrace, parse_deferrable
        from repro.fleet import provision_carbon_aware

        scheduler, loads, trace = provisioning_inputs
        kwargs = dict(
            sla_ms={MODEL: self.SLA_MS},
            jobs=parse_deferrable(
                "jobs:count=2,duration=0.4,power=800,slack=2"
            ).build(DURATION_S),
            power_caps=(None, 9000.0),
            target_availability=self.TARGET,
            policy="least",
            seed=SEED,
            warmup_s=0.1,
            r_tol=0.05,
            max_evals=12,
        )
        kwargs.update(kw)
        return provision_carbon_aware(
            scheduler,
            small_table,
            rmc1_models,
            rmc1_workloads,
            trace,
            loads,
            CarbonTrace.diurnal(base=350.0, swing=150.0),
            **kwargs,
        )

    def test_ledger_matches_fault_free_fault_aware_search(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        carbon = self._carbon(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs
        )
        fault = _provision(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
            faults=FaultSchedule(), retries=0, sla_ms={MODEL: self.SLA_MS},
            target_availability=self.TARGET, max_evals=12,
        )
        assert not carbon.evaluations[0].meets_target, (
            "the scenario must make R=0 miss the target"
        )
        assert carbon.converged and fault.converged
        assert carbon.chosen_r == fault.chosen_r
        # max_evals does not bind: both searches stop on r_tol.
        assert carbon.replays < 12
        by_r = {ev.r: ev for ev in fault.evaluations}
        shared = [ev for ev in carbon.evaluations if ev.r in by_r]
        assert len(shared) == len(carbon.evaluations)
        for ev in shared:
            assert ev == by_r[ev.r]
        assert carbon.allocation == fault.allocation
        assert carbon.result.per_model == fault.result.per_model
        assert carbon.result.carbon is not None and carbon.plan

    def test_deterministic(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        a = self._carbon(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs
        )
        b = self._carbon(
            small_table, rmc1_models, rmc1_workloads, provisioning_inputs
        )
        assert a == b

    @pytest.mark.parametrize(
        "kw,match",
        [
            (dict(target_availability=1.5), "target_availability"),
            (dict(target_availability=0.0), "target_availability"),
            (dict(r_min=0.5, r_max=0.1), "r_min"),
            (dict(r_min=-0.1), "r_min"),
            (dict(r_tol=0.0), "r_tol"),
            (dict(max_evals=1), "max_evals"),
        ],
    )
    def test_input_validation_matches_fault_aware(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
        kw, match,
    ):
        with pytest.raises(ValueError, match=match) as fault:
            _provision(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                faults=FaultSchedule(), **kw,
            )
        with pytest.raises(ValueError, match=match) as carbon:
            self._carbon(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                **kw,
            )
        assert str(carbon.value) == str(fault.value)

    def test_unknown_deferrable_policy_refused(
        self, small_table, rmc1_models, rmc1_workloads, provisioning_inputs
    ):
        with pytest.raises(ValueError, match="unknown deferrable policy"):
            self._carbon(
                small_table, rmc1_models, rmc1_workloads, provisioning_inputs,
                policies=("no-wait", "bogus"),
            )
