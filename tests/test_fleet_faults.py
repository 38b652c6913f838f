"""Fault-injection tests: schedules, invariants, autoscaler interplay.

The property-based lane pins the semantics the fault subsystem
guarantees regardless of schedule, load, or seed:

- conservation -- every query ends in exactly one terminal outcome
  (completed, failed after exhausting its retry budget, or dropped);
- no query is ever routed to a dead replica;
- hedging never increases a query's completion time versus its
  fastest finishing attempt;
- identical seeds produce identical reports (scripted and stochastic).

The differential half of the lockdown (fault machinery present but
idle == the fault-free engine, float for float) lives in
``tests/test_perf_equivalence.py``.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.state import Allocation
from repro.fleet import (
    FaultEvent,
    FaultSchedule,
    FleetSimulator,
    ReactiveAutoscaler,
    build_fleet,
    build_fleet_trace,
    crash,
    slowdown,
)
from repro.fleet.routing import LeastOutstandingPolicy
from repro.models import build_model
from repro.sim import QueryWorkload

MODEL = "DLRM-RMC1"


@pytest.fixture(scope="module")
def rmc1_models():
    return {MODEL: build_model(MODEL)}


@pytest.fixture(scope="module")
def rmc1_workloads(rmc1_models):
    model = rmc1_models[MODEL]
    return {MODEL: QueryWorkload.for_model(model.config.mean_query_size)}


def _fleet(small_table, models, workloads, count=3, srv="T2"):
    allocation = Allocation()
    allocation.add(srv, MODEL, count)
    return build_fleet(allocation, small_table, models, workloads)


def _trace(small_table, workloads, rho=0.7, count=3, duration=3.0, seed=3):
    tup = small_table.get("T2", MODEL)
    return build_fleet_trace(
        workloads, {MODEL: [(rho * count * tup.qps, duration)]}, seed=seed
    )


# ----------------------------------------------------------------------
# FaultSchedule: construction, parsing, materialization
# ----------------------------------------------------------------------


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(1.0, "explode", 0)
        with pytest.raises(ValueError, match="time"):
            FaultEvent(-1.0, "crash", 0)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(1.0, "slow", 0, factor=0.0)
        with pytest.raises(ValueError, match="duration"):
            crash(1.0, 0, recover_after=-2.0)

    def test_empty_schedule(self):
        assert FaultSchedule().is_empty
        assert FaultSchedule.parse("").is_empty
        assert not FaultSchedule([crash(1.0, 0)]).is_empty
        assert not FaultSchedule.stochastic(crash_mtbf_s=10.0).is_empty

    def test_truthiness_tracks_is_empty(self):
        # A stochastic-only schedule has zero scripted events but must
        # still be truthy (the CLI's exit-code logic relies on it).
        assert not FaultSchedule()
        assert FaultSchedule([crash(1.0, 0)])
        assert FaultSchedule.stochastic(crash_mtbf_s=10.0)
        assert len(FaultSchedule.stochastic(crash_mtbf_s=10.0)) == 0

    def test_parse_scripted_entries(self):
        sched = FaultSchedule.parse("crash@2:0+1,slow@1.5:3*2.5+2,blip@4:1")
        kinds = [(e.kind, e.server_index) for e in sched.events]
        assert kinds == [("crash", 0), ("slow", 3), ("crash", 1)]
        assert sched.events[1].factor == 2.5
        assert sched.events[2].duration_s == 0.25  # blip default recovery

    @pytest.mark.parametrize(
        "bad",
        [
            "crash@2",
            "melt@1:0",
            "slow@1:0",
            "crash@1:0*2",
            "random:mtbf=x",
            "random:crash_mtbf=20,crash_mtbf=5",
            "random:crash_mtbf=abc",
        ],
    )
    def test_parse_rejects_bad_entries(self, bad):
        # The error names the offending entry or section.
        with pytest.raises(ValueError, match=re.escape(bad)):
            FaultSchedule.parse(bad)

    def test_parse_stochastic(self):
        sched = FaultSchedule.parse("random:crash_mtbf=20,mttr=2,slow_mtbf=15")
        assert sched.stochastic_params["crash_mtbf_s"] == 20.0
        assert sched.stochastic_params["mttr_s"] == 2.0

    def test_materialize_expands_durations_sorted(self):
        sched = FaultSchedule([crash(2.0, 0, recover_after=1.0), slowdown(1.0, 1, 3.0, duration=4.0)])
        atomic = sched.materialize(2, horizon_s=10.0)
        assert [(e.time_s, e.kind) for e in atomic] == [
            (1.0, "slow"),
            (2.0, "crash"),
            (3.0, "recover"),
            (5.0, "restore"),
        ]

    def test_materialize_validates_indices(self):
        with pytest.raises(ValueError, match="only 2 replicas"):
            FaultSchedule([crash(1.0, 5)]).materialize(2, 10.0)

    def test_stochastic_materialize_deterministic(self):
        sched = FaultSchedule.stochastic(crash_mtbf_s=5.0, mttr_s=1.0, slow_mtbf_s=4.0)
        a = sched.materialize(4, 20.0, seed=7)
        b = sched.materialize(4, 20.0, seed=7)
        c = sched.materialize(4, 20.0, seed=8)
        assert a == b
        assert a != c
        assert all(e.time_s < 20.0 or e.kind in ("recover", "restore") for e in a)


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------


class TestInvariants:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        crash_frac=st.floats(0.1, 0.9),
        retries=st.integers(1, 3),
    )
    def test_conservation(
        self, small_table, rmc1_models, rmc1_workloads, seed, crash_frac, retries
    ):
        """Every query is exactly one of completed / failed / dropped."""
        duration = 2.0
        trace = _trace(
            small_table, rmc1_workloads, duration=duration, seed=seed
        )
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sched = FaultSchedule(
            [crash(duration * crash_frac, 0), crash(duration * crash_frac + 0.2, 1)]
        )
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            seed=seed,
            faults=sched,
            retries=retries,
        )
        sim.run(trace, warmup_s=0.0)
        log = sim.last_query_log
        assert len(log) == len(trace)
        outcomes = [t.outcome for t in log]
        # 1 = completed, 2 = failed, 3 = dropped; nothing in flight.
        assert all(o in (1, 2, 3) for o in outcomes)
        completed = sum(1 for o in outcomes if o == 1)
        failed = sum(1 for o in outcomes if o == 2)
        droppedq = sum(1 for o in outcomes if o == 3)
        assert completed + failed + droppedq == len(trace)
        # A failed query exhausted its budget or found no replica.
        for t in log:
            if t.failed:
                assert t.retries <= retries
            if t.done:
                assert t.finish_s is not None

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_never_routes_to_dead_replica(
        self, small_table, rmc1_models, rmc1_workloads, seed
    ):
        """Candidate sets handed to the policy never contain dead replicas."""

        class Recording(LeastOutstandingPolicy):
            def choose(self, candidates):
                assert candidates, "engine must not route with no candidates"
                for server in candidates:
                    assert not server.dead, "dead replica in candidate set"
                    assert server.active
                return super().choose(candidates)

        duration = 2.0
        trace = _trace(small_table, rmc1_workloads, duration=duration, seed=seed)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sched = FaultSchedule(
            [
                crash(0.5, 0, recover_after=0.6),
                crash(0.9, 1),
                slowdown(0.3, 2, 2.0, duration=1.0),
            ]
        )
        sim = FleetSimulator(
            servers,
            policy=Recording(),
            sla_ms={MODEL: 20.0},
            seed=seed,
            faults=sched,
            retries=2,
            hedge_ms=5.0,
        )
        result = sim.run(trace, warmup_s=0.0)
        assert result.per_model[MODEL].completed > 0

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 1_000), hedge_ms=st.floats(2.0, 12.0))
    def test_hedging_completes_at_fastest_attempt(
        self, small_table, rmc1_models, rmc1_workloads, seed, hedge_ms
    ):
        """A hedged query's finish equals its earliest finishing attempt."""
        duration = 2.0
        trace = _trace(small_table, rmc1_workloads, duration=duration, seed=seed)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sched = FaultSchedule([slowdown(0.4, 0, 4.0, duration=1.0)])
        sim = FleetSimulator(
            servers,
            policy="rr",
            sla_ms={MODEL: 20.0},
            seed=seed,
            faults=sched,
            retries=1,
            hedge_ms=hedge_ms,
        )
        result = sim.run(trace, warmup_s=0.0)
        hedged = [t for t in sim.last_query_log if t.hedged and t.done]
        assert result.per_model[MODEL].hedged == len(
            [t for t in sim.last_query_log if t.hedged]
        )
        assert hedged, "the straggler must force some hedges"
        for t in hedged:
            finishes = [a[2] for a in t.attempts if a[3] == 1]
            assert finishes, "a done query has at least one finished attempt"
            assert t.finish_s == min(finishes)
            # The duplicate attempt targeted a different replica.
            assert len({id(a[0]) for a in t.attempts}) == len(t.attempts)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_identical_seeds_identical_reports(
        self, small_table, rmc1_models, rmc1_workloads, seed
    ):
        """Same (trace seed, schedule, sim seed) -> float-identical reports."""
        sched = FaultSchedule.stochastic(
            crash_mtbf_s=2.0, mttr_s=0.5, slow_mtbf_s=3.0, slow_factor=2.5
        )
        trace = _trace(small_table, rmc1_workloads, duration=2.0, seed=seed)

        def run():
            servers = _fleet(small_table, rmc1_models, rmc1_workloads)
            sim = FleetSimulator(
                servers,
                policy="p2c",
                sla_ms={MODEL: 20.0},
                seed=seed,
                faults=sched,
                retries=1,
                hedge_ms=8.0,
            )
            result = sim.run(trace, warmup_s=0.2)
            return result, sim.last_query_log

        res_a, log_a = run()
        res_b, log_b = run()
        assert res_a.per_model == res_b.per_model
        assert res_a.fault_events == res_b.fault_events
        assert res_a.availability == res_b.availability
        assert res_a.phases == res_b.phases
        assert [t.outcome for t in log_a] == [t.outcome for t in log_b]
        assert [t.finish_s for t in log_a] == [t.finish_s for t in log_b]


# ----------------------------------------------------------------------
# Scripted-crash acceptance behaviour
# ----------------------------------------------------------------------


class TestCrashSemantics:
    def test_crash_fails_in_flight_without_retries(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """Light loop: a crashed replica's in-flight queries fail."""
        trace = _trace(small_table, rmc1_workloads, seed=5)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            faults=FaultSchedule([crash(1.0, 0), crash(1.5, 1)]),
        )
        result = sim.run(trace, warmup_s=0.0)
        stats = result.per_model[MODEL]
        assert stats.failed > 0
        assert stats.retried == 0
        assert result.availability < 1.0
        assert len(result.fault_events) == 2
        assert result.phases, "fault runs report a phase breakdown"
        # The light loop allocates no per-query records.
        assert sim.last_query_log == ()

    def test_retries_convert_failures(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """The same crashes with a budget: retried > 0, fewer failures."""
        trace = _trace(small_table, rmc1_workloads, seed=5)
        schedule = FaultSchedule([crash(1.0, 0), crash(1.5, 1)])

        def run(retries):
            servers = _fleet(small_table, rmc1_models, rmc1_workloads)
            sim = FleetSimulator(
                servers,
                policy="least",
                sla_ms={MODEL: 20.0},
                faults=schedule,
                retries=retries,
            )
            return sim.run(trace, warmup_s=0.0).per_model[MODEL]

        without = run(0)
        with_budget = run(2)
        assert with_budget.retried > 0
        assert with_budget.failed < without.failed

    def test_all_replicas_dead_drops_stream(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """With every replica crashed, later arrivals drop (visibly)."""
        trace = _trace(small_table, rmc1_workloads, seed=7)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            faults=FaultSchedule([crash(1.0, i) for i in range(3)]),
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        stats = result.per_model[MODEL]
        assert stats.dropped > 0
        assert stats.violation_rate > 0.0
        assert result.availability < 1.0
        # Conservation still holds through the total blackout.
        log = sim.last_query_log
        assert all(t.outcome in (1, 2, 3) for t in log)

    def test_recovery_restores_service(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """A recovered replica serves again; availability reflects downtime."""
        duration = 3.0
        trace = _trace(small_table, rmc1_workloads, duration=duration, seed=9)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="rr",
            sla_ms={MODEL: 20.0},
            faults=FaultSchedule([crash(1.0, 0, recover_after=0.5)]),
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        # Downtime 0.5s of one of three replicas over ~3s.
        horizon = max(q.arrival_s for _, q in trace)
        expected = 1.0 - 0.5 / (3 * horizon)
        assert result.availability == pytest.approx(expected, abs=0.01)
        crashed = next(s for s in sim.servers if s.index == 0)
        assert not crashed.dead
        assert crashed.completed > 0

    def test_recovery_past_horizon_keeps_accounting_sane(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """A recover firing in the post-horizon drain must not corrupt
        active-time, power, or availability (regression: it used to set
        _active_since past the horizon, driving active_s negative and
        availability above 1)."""
        trace = _trace(small_table, rmc1_workloads, duration=2.0, seed=21)
        horizon = max(q.arrival_s for _, q in trace)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            # Recovery lands well past the last arrival.
            faults=FaultSchedule([crash(1.0, 0, recover_after=10.0)]),
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        assert all(s.active_s >= 0.0 for s in sim.servers)
        assert all(s.power_w >= 0.0 for s in result.servers)
        assert 0.0 <= result.availability < 1.0
        # Down from the crash to the horizon: availability matches.
        serving = 3 * horizon - (horizon - 1.0)
        assert result.availability == pytest.approx(
            serving / (3 * horizon), abs=0.01
        )

    def test_overlapping_crash_pins_replica_dead(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """A permanent crash inside a recovery window wins: the earlier
        scheduled recover must not revive the replica."""
        trace = _trace(small_table, rmc1_workloads, seed=15)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            faults=FaultSchedule.parse("crash@1:0+1,crash@1.5:0"),
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        crashed = next(s for s in sim.servers if s.index == 0)
        assert crashed.dead, "the permanent crash must outlive the recover"
        kinds = [e.kind for e in result.fault_events]
        assert kinds.count("crash") == 2
        assert kinds.count("recover") == 0  # swallowed by the overlap
        # Downtime runs from the first crash to the horizon.
        horizon = max(q.arrival_s for _, q in trace)
        serving = 3 * horizon - (horizon - 1.0)
        assert result.availability == pytest.approx(
            serving / (3 * horizon), abs=0.01
        )

    def test_overlapping_slowdowns_end_at_last_restore(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """A nested shorter slowdown must not cancel the outer episode."""
        trace = _trace(small_table, rmc1_workloads, rho=0.3, seed=16)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="rr",
            sla_ms={MODEL: 20.0},
            # Outer 4x until t=2.5; inner 2x episode ends t=1.5 -- its
            # restore is swallowed, the factor resets only at t=2.5.
            faults=FaultSchedule.parse("slow@0.5:0*4+2,slow@1:0*2+0.5"),
        )
        result = sim.run(trace, warmup_s=0.0)
        kinds = [e.kind for e in result.fault_events]
        assert kinds.count("slow") == 2
        assert kinds.count("restore") == 1  # only the last one applies
        slowed = next(s for s in sim.servers if s.index == 0)
        assert slowed.slow_factor == 1.0  # restored by the end

    def test_availability_bounded_with_activated_standbys(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """Crashing replicas the autoscaler activated must keep
        availability inside [0, 1] (regression: the old formula divided
        by initially-active capacity only and went negative)."""
        tup = small_table.get("T2", MODEL)
        allocation = Allocation()
        allocation.add("T2", MODEL, 1)
        standby = Allocation()
        standby.add("T2", MODEL, 2)
        servers = build_fleet(
            allocation, small_table, rmc1_models, rmc1_workloads, standby=standby
        )
        duration = 4.0
        trace = build_fleet_trace(
            rmc1_workloads, {MODEL: [(2.5 * tup.qps, duration)]}, seed=18
        )
        scaler = ReactiveAutoscaler({MODEL: 20.0}, window_s=0.2, cooldown_s=0.1)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            autoscaler=scaler,
            faults=FaultSchedule([crash(2.0, 1), crash(2.0, 2)]),
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        activations = [e for e in result.scale_events if e.action == "activate"]
        assert len(activations) >= 2, "both standbys must come online first"
        assert 0.0 <= result.availability < 1.0

    def test_straggler_slows_only_the_episode(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """Service started inside the slow window takes factor-x longer."""
        trace = _trace(small_table, rmc1_workloads, rho=0.4, seed=11)

        def run(factor):
            servers = _fleet(small_table, rmc1_models, rmc1_workloads)
            schedule = (
                FaultSchedule([slowdown(1.0, 0, factor, duration=1.0)])
                if factor is not None
                else FaultSchedule()
            )
            sim = FleetSimulator(
                servers,
                policy="rr",
                sla_ms={MODEL: 20.0},
                faults=schedule,
            )
            return sim.run(trace, warmup_s=0.0)

        clean = run(None)
        slowed = run(6.0)
        assert slowed.per_model[MODEL].p99_ms > clean.per_model[MODEL].p99_ms
        # Same queries completed either way: slowdowns delay, never lose.
        assert slowed.per_model[MODEL].failed == 0


# ----------------------------------------------------------------------
# Autoscaler interaction
# ----------------------------------------------------------------------


class TestAutoscalerInteraction:
    def test_crash_triggers_standby_activation_within_window(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """Losing a replica mid-ramp activates a standby within ~2 windows."""
        tup = small_table.get("T2", MODEL)
        allocation = Allocation()
        allocation.add("T2", MODEL, 2)
        standby = Allocation()
        standby.add("T2", MODEL, 2)
        servers = build_fleet(
            allocation, small_table, rmc1_models, rmc1_workloads, standby=standby
        )
        duration, window = 4.0, 0.25
        trace = build_fleet_trace(
            rmc1_workloads, {MODEL: [(1.5 * tup.qps, duration)]}, seed=2
        )
        t_crash = 1.5
        scaler = ReactiveAutoscaler(
            {MODEL: 20.0}, window_s=window, cooldown_s=0.5 * window
        )
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            autoscaler=scaler,
            faults=FaultSchedule([crash(t_crash, 0)]),
            retries=2,
        )
        result = sim.run(trace, warmup_s=0.5)
        post_crash = [
            e
            for e in result.scale_events
            if e.action == "activate" and e.time_s > t_crash
        ]
        assert post_crash, "the crash must trigger standby activation"
        assert post_crash[0].time_s <= t_crash + 2 * window

    def test_autoscaler_never_activates_dead_standby(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """A crashed standby replica is invisible to the scaler."""
        tup = small_table.get("T2", MODEL)
        allocation = Allocation()
        allocation.add("T2", MODEL, 1)
        standby = Allocation()
        standby.add("T2", MODEL, 1)
        servers = build_fleet(
            allocation, small_table, rmc1_models, rmc1_workloads, standby=standby
        )
        duration = 3.0
        trace = build_fleet_trace(
            rmc1_workloads, {MODEL: [(2.0 * tup.qps, duration)]}, seed=4
        )
        scaler = ReactiveAutoscaler({MODEL: 20.0}, window_s=0.25, cooldown_s=0.1)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            autoscaler=scaler,
            faults=FaultSchedule([crash(0.1, 1)]),  # kill the standby early
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        assert not [e for e in result.scale_events if e.action == "activate"]
        dead_standby = next(s for s in sim.servers if s.index == 1)
        assert dead_standby.dead
        assert dead_standby.completed == 0

    def test_drained_replicas_finish_in_flight_before_going_cold(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        """Draining loses nothing: all queries complete, server ends cold."""
        tup = small_table.get("T2", MODEL)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads, count=3)
        duration = 4.0
        trace = build_fleet_trace(
            rmc1_workloads, {MODEL: [(0.1 * tup.qps, duration)]}, seed=6
        )
        scaler = ReactiveAutoscaler({MODEL: 20.0}, window_s=0.5, cooldown_s=1.0)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            autoscaler=scaler,
            faults=FaultSchedule(),  # fault machinery on, no faults
            retries=1,
        )
        result = sim.run(trace, warmup_s=0.0)
        drains = [e for e in result.scale_events if e.action == "drain"]
        assert drains, "an over-provisioned fleet at 10% load must drain"
        # Conservation through drains: every query completed.
        log = sim.last_query_log
        assert all(t.done for t in log)
        assert result.per_model[MODEL].failed == 0
        for event in drains:
            drained = event.server
            assert drained.outstanding == 0
            if not drained.active:  # went cold after finishing in-flight work
                assert not drained.draining


# ----------------------------------------------------------------------
# Report surface
# ----------------------------------------------------------------------


class TestFaultReport:
    def test_format_shows_fault_columns_and_phases(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        trace = _trace(small_table, rmc1_workloads, seed=5)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={MODEL: 20.0},
            faults=FaultSchedule([crash(1.0, 0)]),
            retries=1,
        )
        text = sim.run(trace, warmup_s=0.0).format()
        for token in ("failed", "retried", "hedged", "availability", "phase ["):
            assert token in text

    def test_fault_free_format_unchanged(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        trace = _trace(small_table, rmc1_workloads, seed=5)
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        sim = FleetSimulator(servers, policy="least", sla_ms={MODEL: 20.0})
        text = sim.run(trace, warmup_s=0.0).format()
        assert "failed" not in text
        assert "availability" not in text

    def test_invalid_fault_config_rejected(
        self, small_table, rmc1_models, rmc1_workloads
    ):
        servers = _fleet(small_table, rmc1_models, rmc1_workloads)
        with pytest.raises(ValueError, match="retries"):
            FleetSimulator(servers, sla_ms={MODEL: 20.0}, retries=-1)
        with pytest.raises(ValueError, match="hedge_ms"):
            FleetSimulator(servers, sla_ms={MODEL: 20.0}, hedge_ms=0.0)
