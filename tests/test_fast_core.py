"""Differential lane: the vectorized event core vs the python core.

``core="vector"`` promises *bit-identical* results to ``core="python"``
for every run it accepts (outstanding-oblivious, p2c or least routing,
plain fault schedules, no live observer): the per-replica float
recurrences are evaluated in the same order, so summaries are compared
with ``==`` -- no tolerances.
The only reordering the design permits is cross-replica finish-time
ties inside one model's completion stream (documented in
``docs/performance.md``); none of the traffic here produces one, so the
pins below are exact.

The lane sweeps the eligibility surface -- routing policies (rr,
weighted, and p2c and least through the per-arrival routers), arrival
shapes (piecewise Poisson, MMPP bursts, diurnal ramps, recorded
replay), and autoscaler modes (none, reactive, predictive) -- and then
asserts the *other* half of the contract: every ineligible
configuration falls back (``auto`` logs why, ``vector`` raises), so
custom policies, tracking, and live observers always get the exact
per-event core.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.cluster.state import Allocation
from repro.fleet import FleetSimulator, build_fleet, build_fleet_trace
from repro.fleet.routing import LeastOutstandingPolicy, PowerOfTwoPolicy
from repro.sim import QueryWorkload

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

_ENGINE_LOGGER = "repro.fleet.engine"


@pytest.fixture(scope="module")
def two_model_inputs():
    from repro.models import build_model

    models = {name: build_model(name) for name in ("DLRM-RMC1", "DLRM-RMC2")}
    workloads = {
        name: QueryWorkload.for_model(model.config.mean_query_size)
        for name, model in models.items()
    }
    return models, workloads


def _mixed_allocation(extra_t7: int = 1) -> Allocation:
    """3 direct-path T2 replicas + T7 event-path replicas, RMC1 only."""
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 3)
    if extra_t7:
        allocation.add("T7", "DLRM-RMC1", extra_t7)
    return allocation


def _rmc1_trace(small_table, workloads, load: float, seed: int, duration=2.5):
    capacity = 3 * small_table.qps("T2", "DLRM-RMC1") + small_table.qps(
        "T7", "DLRM-RMC1"
    )
    return build_fleet_trace(
        {"DLRM-RMC1": workloads["DLRM-RMC1"]},
        {"DLRM-RMC1": [(load * capacity, duration)]},
        seed=seed,
    )


def _replay(small_table, inputs, allocation, trace, core, **kwargs):
    """Build a fresh fleet (servers are mutated by a run) and replay."""
    models, workloads = inputs
    servers = build_fleet(
        allocation, small_table, models, workloads,
        standby=kwargs.pop("standby", None),
    )
    sim = FleetSimulator(
        servers,
        policy=kwargs.pop("policy", "rr"),
        sla_ms={name: 20.0 for name in models},
        seed=kwargs.pop("seed", 7),
        core=core,
        **kwargs,
    )
    result = sim.run(trace, warmup_s=kwargs.get("warmup_s", 0.0) or 0.3)
    return sim, result


def _assert_identical(vec, base):
    """The full exactness contract: summaries, counters, power, events."""
    assert vec.per_model == base.per_model
    assert vec.avg_power_w == base.avg_power_w
    assert vec.events == base.events
    assert [
        (s.completed, s.qps, s.power_w, s.active_s) for s in vec.servers
    ] == [(s.completed, s.qps, s.power_w, s.active_s) for s in base.servers]
    # ScaleEvent embeds the FleetServer object, and the two replays build
    # separate fleets -- compare decisions field for field, not by object.
    assert [
        (e.time_s, e.model, e.action, e.server.index, e.reason)
        for e in vec.scale_events
    ] == [
        (e.time_s, e.model, e.action, e.server.index, e.reason)
        for e in base.scale_events
    ]


# ----------------------------------------------------------------------
# Exact pins across the eligibility surface
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["rr", "weighted", "p2c", "least"])
@pytest.mark.parametrize("seed", [13, 41])
def test_vector_bit_identical_mixed_fleet(
    small_table, two_model_inputs, policy, seed
):
    """Direct + FUSE replicas, both oblivious policies, p2c and least,
    ``==`` floats."""
    allocation = _mixed_allocation()
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.65, seed)
    _, base = _replay(
        small_table, two_model_inputs, allocation, trace, "python", policy=policy
    )
    _, vec = _replay(
        small_table, two_model_inputs, allocation, trace, "vector", policy=policy
    )
    _assert_identical(vec, base)


def test_vector_bit_identical_two_models(small_table, two_model_inputs):
    """Two model streams routed independently stay exact per model."""
    models, workloads = two_model_inputs
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 2)
    allocation.add("T3", "DLRM-RMC2", 2)
    segments = {
        "DLRM-RMC1": [(0.7 * 2 * small_table.qps("T2", "DLRM-RMC1"), 2.0)],
        "DLRM-RMC2": [(0.6 * 2 * small_table.qps("T3", "DLRM-RMC2"), 2.0)],
    }
    trace = build_fleet_trace(workloads, segments, seed=17)
    _, base = _replay(small_table, two_model_inputs, allocation, trace, "python")
    _, vec = _replay(small_table, two_model_inputs, allocation, trace, "vector")
    _assert_identical(vec, base)
    assert set(vec.per_model) == {"DLRM-RMC1", "DLRM-RMC2"}


def _autoscaled_replays(small_table, inputs, mode):
    """One T2 replica plus two standbys at 2x its capacity, replayed on
    both cores under rr; returns ``{core: (sim, result)}``."""
    from repro.fleet import PredictiveAutoscaler, ReactiveAutoscaler

    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 1)
    standby = Allocation()
    standby.add("T2", "DLRM-RMC1", 2)
    tup = small_table.get("T2", "DLRM-RMC1")
    trace = build_fleet_trace(
        {"DLRM-RMC1": inputs[1]["DLRM-RMC1"]},
        {"DLRM-RMC1": [(2.0 * tup.qps, 3.0)]},
        seed=23,
    )

    def scaler():
        if mode == "reactive":
            return ReactiveAutoscaler(
                {"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5
            )
        return PredictiveAutoscaler({"DLRM-RMC1": 20.0}, window_s=0.25)

    return {
        core: _replay(
            small_table, inputs, allocation, trace, core,
            standby=standby, autoscaler=scaler(),
        )
        for core in ("python", "vector")
    }


@pytest.mark.parametrize("mode", ["reactive", "predictive"])
def test_vector_bit_identical_with_autoscaler(
    small_table, two_model_inputs, mode
):
    """Segmented delivery reproduces every autoscaler decision exactly:
    the vector core replays arrivals window by window, hands the scaler
    the same outstanding counts and window sketches at every tick, and
    honours drain settles identically."""
    runs = _autoscaled_replays(small_table, two_model_inputs, mode)
    base, vec = runs["python"][1], runs["vector"][1]
    _assert_identical(vec, base)
    assert base.scale_events  # the scaler actually acted


@pytest.mark.parametrize("mode", ["reactive", "predictive"])
def test_vector_counts_ticks_like_python(small_table, two_model_inputs, mode):
    """``last_tick_count`` and ``last_event_count`` agree across cores on
    an autoscaled, fault-free rr run."""
    runs = _autoscaled_replays(small_table, two_model_inputs, mode)
    py, vec = runs["python"][0], runs["vector"][0]
    assert vec.last_tick_count == py.last_tick_count > 0
    assert vec.last_event_count == py.last_event_count


@pytest.mark.parametrize("shape", ["mmpp", "diurnal", "recorded"])
def test_vector_bit_identical_arrival_shapes(
    small_table, two_model_inputs, tmp_path, shape
):
    """Bursty, ramping, and file-replayed traffic all replay exactly."""
    from repro.traces import (
        DiurnalProcess,
        FleetArrivals,
        MMPPProcess,
        RecordedTrace,
        save_trace,
    )

    workload = two_model_inputs[1]["DLRM-RMC1"]
    qps = small_table.qps("T2", "DLRM-RMC1")
    allocation = _mixed_allocation(extra_t7=0)

    if shape == "mmpp":
        process = MMPPProcess(
            workload, rates=(0.8 * qps, 2.4 * qps), dwell_s=(0.6, 0.2),
            duration_s=2.5,
        )
        source = FleetArrivals({"DLRM-RMC1": process}, seed=5)
    elif shape == "diurnal":
        process = DiurnalProcess(
            workload, peak_qps=2.0 * qps, duration_s=2.5, steps=8
        )
        source = FleetArrivals({"DLRM-RMC1": process}, seed=5)
    else:
        trace = _rmc1_trace(small_table, two_model_inputs[1], 0.6, seed=9)
        path = tmp_path / "replay.jsonl"
        save_trace(str(path), trace)
        source = RecordedTrace(str(path), default_model="DLRM-RMC1")

    _, base = _replay(small_table, two_model_inputs, allocation, source, "python")
    _, vec = _replay(small_table, two_model_inputs, allocation, source, "vector")
    _assert_identical(vec, base)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    policy=st.sampled_from(["rr", "weighted", "p2c", "least"]),
    load=st.floats(0.3, 0.95),
)
def test_vector_matches_python_property(
    small_table, two_model_inputs, seed, policy, load
):
    """Property sweep: any oblivious, p2c or least replay is exact, load
    and seed free."""
    allocation = _mixed_allocation()
    trace = _rmc1_trace(small_table, two_model_inputs[1], load, seed, duration=1.5)
    _, base = _replay(
        small_table, two_model_inputs, allocation, trace, "python", policy=policy
    )
    _, vec = _replay(
        small_table, two_model_inputs, allocation, trace, "vector", policy=policy
    )
    _assert_identical(vec, base)


def test_auto_selects_vector_without_logging(
    small_table, two_model_inputs, caplog
):
    """``core="auto"`` on an eligible run -- oblivious rr, or exact p2c or
    least -- takes the fast path silently and still matches the python
    core exactly."""
    allocation = _mixed_allocation()
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.6, seed=3)
    for policy in ("rr", "p2c", "least"):
        _, base = _replay(
            small_table, two_model_inputs, allocation, trace, "python",
            policy=policy,
        )
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=_ENGINE_LOGGER):
            _, auto = _replay(
                small_table, two_model_inputs, allocation, trace, "auto",
                policy=policy,
            )
        assert not [
            r for r in caplog.records if "falling back" in r.getMessage()
        ]
        _assert_identical(auto, base)


def test_auto_takes_vector_fault_path_silently(
    small_table, two_model_inputs, caplog
):
    """A plain fault schedule (no retries/hedging/tracing) no longer
    forces the python core: ``auto`` runs the segmented vectorized
    fault path, silently, and the result is bit-identical."""
    from repro.fleet import FaultSchedule
    from repro.fleet.faults import crash, slowdown

    allocation = _mixed_allocation()
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.6, seed=3)

    def schedule():
        return FaultSchedule(
            [crash(0.6, 0, recover_after=0.4), slowdown(0.3, 1, 2.0, duration=0.5)]
        )

    _, base = _replay(
        small_table, two_model_inputs, allocation, trace, "python",
        faults=schedule(),
    )
    with caplog.at_level(logging.INFO, logger=_ENGINE_LOGGER):
        _, auto = _replay(
            small_table, two_model_inputs, allocation, trace, "auto",
            faults=schedule(),
        )
    assert not [
        r for r in caplog.records if "falling back" in r.getMessage()
    ]
    _assert_identical(auto, base)
    assert auto.fault_events == base.fault_events


# ----------------------------------------------------------------------
# Scripted-fault differential lane: the segmented vector fault path
# ----------------------------------------------------------------------


def _fault_schedule(kind, n_replicas):
    """Scripted schedules scaled to the fleet: a hard crash, a blip
    (crash + recovery), a transient slowdown, and a storm of all three."""
    from repro.fleet import FaultSchedule
    from repro.fleet.faults import crash, slowdown

    last = n_replicas - 1
    if kind == "crash":
        return FaultSchedule([crash(0.5, 0)])
    if kind == "blip":
        return FaultSchedule([crash(0.4, min(1, last), recover_after=0.3)])
    if kind == "slow":
        return FaultSchedule([slowdown(0.3, 0, 2.5, duration=0.6)])
    assert kind == "storm"
    return FaultSchedule(
        [
            crash(0.35, 0, recover_after=0.4),
            slowdown(0.25, min(1, last), 2.0, duration=0.5),
            crash(0.8, last),
        ]
    )


class TestVectorFaultDifferential:
    """The segmented fault path promises the same ``==`` contract as the
    fault-free vector core: kills, recoveries, and slowdowns partition
    the horizon into fault-free segments replayed through the vector
    machinery, and every per-query float, fault event, availability
    ratio, and phase-breakdown percentile must match the python light
    fault loop exactly."""

    def _run(self, small_table, inputs, kind, core, **kwargs):
        allocation = _mixed_allocation()
        trace = _rmc1_trace(small_table, inputs[1], 0.6, seed=11)
        return _replay(
            small_table, inputs, allocation, trace, core,
            faults=_fault_schedule(kind, 4), **kwargs,
        )[1]

    def _assert_fault_identical(self, vec, base):
        _assert_identical(vec, base)
        assert vec.fault_events == base.fault_events
        assert vec.availability == base.availability
        assert vec.phases == base.phases

    @pytest.mark.parametrize("policy", ["rr", "weighted", "p2c", "least"])
    @pytest.mark.parametrize("kind", ["crash", "blip", "slow", "storm"])
    def test_fault_legs_bit_identical(
        self, small_table, two_model_inputs, kind, policy
    ):
        base = self._run(small_table, two_model_inputs, kind, "python",
                         policy=policy)
        vec = self._run(small_table, two_model_inputs, kind, "vector",
                        policy=policy)
        self._assert_fault_identical(vec, base)
        assert base.fault_events  # the schedule actually fired

    def test_fault_with_reactive_autoscaler_bit_identical(
        self, small_table, two_model_inputs
    ):
        """Fault segmentation and autoscaler tick segmentation compose:
        the scaler reacts to the crash-induced backlog identically on
        both cores, down to the scale-event timestamps."""
        from repro.fleet import ReactiveAutoscaler

        def run(core):
            standby = Allocation()
            standby.add("T2", "DLRM-RMC1", 2)
            return self._run(
                small_table, two_model_inputs, "storm", core,
                standby=standby,
                autoscaler=ReactiveAutoscaler(
                    {"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5
                ),
            )

        base, vec = run("python"), run("vector")
        self._assert_fault_identical(vec, base)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        policy=st.sampled_from(["rr", "weighted", "p2c", "least"]),
    )
    def test_fault_property_sweep(
        self, small_table, two_model_inputs, seed, policy
    ):
        """Any seed, either oblivious policy, p2c or least: the storm
        schedule replays exactly."""
        allocation = _mixed_allocation()
        trace = _rmc1_trace(
            small_table, two_model_inputs[1], 0.6, seed, duration=1.5
        )

        def run(core):
            return _replay(
                small_table, two_model_inputs, allocation, trace, core,
                policy=policy, faults=_fault_schedule("storm", 4),
            )[1]

        base, vec = run("python"), run("vector")
        self._assert_fault_identical(vec, base)


# ----------------------------------------------------------------------
# Exact p2c and least: the vector core's per-arrival routers
# ----------------------------------------------------------------------


def _router_scaler(mode):
    """A fresh autoscaler for the router rows (``None`` for ``"none"``)."""
    from repro.fleet import PredictiveAutoscaler, ReactiveAutoscaler

    if mode == "none":
        return None
    if mode == "reactive":
        return ReactiveAutoscaler(
            {"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5
        )
    return PredictiveAutoscaler({"DLRM-RMC1": 20.0}, window_s=0.25)


def _router_storm():
    """A crash, two blips and a slowdown on the mixed fleet.  The blips
    recover while their victims' finish times still lie ahead, so a
    replica must come back with no outstanding queries -- on the
    slowed DirectStage replica and on the FUSE replica alike."""
    from repro.fleet import FaultSchedule
    from repro.fleet.faults import crash, slowdown

    return FaultSchedule(
        [
            slowdown(0.2, 0, 3.0, duration=0.6),
            crash(0.5, 0, recover_after=0.002),
            crash(0.9, 3, recover_after=0.002),
            crash(1.4, 1),
        ]
    )


def _both_cores(small_table, inputs, allocation, trace, make_kwargs):
    """Replay on both cores, calling ``make_kwargs()`` per run (scalers,
    schedules and policy instances hold state); returns ``{core:
    (to_dict, event count, tick count)}``."""
    out = {}
    for core in ("python", "vector"):
        sim, result = _replay(
            small_table, inputs, allocation, trace, core, **make_kwargs()
        )
        out[core] = (
            result.to_dict(), sim.last_event_count, sim.last_tick_count
        )
    return out


def _router_rows(test):
    """Seeds x {no autoscaler, reactive, predictive} x {no faults, a
    crash/blip/slowdown storm}: the matrix both routers are pinned on."""
    test = pytest.mark.parametrize("seed", [5, 19])(test)
    test = pytest.mark.parametrize(
        "scaler", ["none", "reactive", "predictive"]
    )(test)
    return pytest.mark.parametrize(
        "faults", [False, True], ids=["no-faults", "storm"]
    )(test)


class TestExactP2C:
    """p2c and least on the vector core route each arrival against live
    queues -- p2c draws with the policy's own ``Random`` and brings only
    the two drawn replicas up to the arrival time, least retires every
    candidate's finishes before the arrival -- so the whole report, the
    event count and the tick count are ``==`` to the python core's, on a
    fleet of DirectStage (T2) and FUSE (T7) replicas."""

    def _check_row(
        self, small_table, inputs, policy, load, seed, scaler, faults
    ):
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 2)
        trace = _rmc1_trace(small_table, inputs[1], load, seed)

        def kwargs():
            return {
                "policy": policy,
                "seed": seed,
                "standby": standby,
                "autoscaler": _router_scaler(scaler),
                "faults": _router_storm() if faults else None,
            }

        runs = _both_cores(
            small_table, inputs, _mixed_allocation(), trace, kwargs
        )
        assert runs["vector"] == runs["python"]
        doc = runs["python"][0]
        assert bool(doc["fault_events"]) == faults
        assert bool(doc["scale_events"]) == (scaler != "none")

    @_router_rows
    def test_p2c_bit_identical(
        self, small_table, two_model_inputs, seed, scaler, faults
    ):
        self._check_row(
            small_table, two_model_inputs, "p2c", 1.0, seed, scaler, faults
        )

    @_router_rows
    def test_least_bit_identical(
        self, small_table, two_model_inputs, seed, scaler, faults
    ):
        # least keeps the tail under the reactive trigger at load 1.0.
        self._check_row(
            small_table, two_model_inputs, "least", 1.2, seed, scaler, faults
        )

    def test_one_replica_model_draws_nothing(
        self, small_table, two_model_inputs
    ):
        """A one-replica model routes without a draw (the one-candidate
        rule) while a second model's stream draws two per arrival: its
        policy's ``Random`` is still in its seeded state afterwards."""
        import random

        models, workloads = two_model_inputs
        allocation = _mixed_allocation()
        allocation.add("T3", "DLRM-RMC2", 1)
        rmc1 = 3 * small_table.qps("T2", "DLRM-RMC1") + small_table.qps(
            "T7", "DLRM-RMC1"
        )
        trace = build_fleet_trace(
            workloads,
            {
                "DLRM-RMC1": [(0.8 * rmc1, 2.0)],
                "DLRM-RMC2": [(0.7 * small_table.qps("T3", "DLRM-RMC2"), 2.0)],
            },
            seed=17,
        )
        runs = {}
        for core in ("python", "vector"):
            sim, result = _replay(
                small_table, two_model_inputs, allocation, trace, core,
                policy="p2c", seed=7,
            )
            runs[core] = (
                result.to_dict(), sim.last_event_count,
                sim._policies["DLRM-RMC2"]._rng.getstate(),
            )
        assert runs["vector"] == runs["python"]
        assert runs["python"][0]["per_model"]["DLRM-RMC2"]["completed"] > 0
        # Models are seeded in sorted order: DLRM-RMC2's policy got 7 + 1.
        assert runs["python"][2] == random.Random(8).getstate()

    def test_policy_instance(self, small_table, two_model_inputs):
        """A ``PowerOfTwoPolicy`` instance takes the router too, and
        both cores leave its ``Random`` in the same state."""
        trace = _rmc1_trace(small_table, two_model_inputs[1], 0.8, seed=31)
        policies = []

        def kwargs():
            policies.append(PowerOfTwoPolicy(seed=11))
            return {"policy": policies[-1]}

        runs = _both_cores(
            small_table, two_model_inputs, _mixed_allocation(), trace, kwargs
        )
        assert runs["vector"] == runs["python"]
        py_policy, vec_policy = policies
        assert vec_policy._rng.getstate() == py_policy._rng.getstate()

    def test_one_batch_completes_in_batch_order(
        self, small_table, two_model_inputs
    ):
        """Queries one FUSE batch completes share a finish time, and the
        python core records them in batch order.  A SPLIT stage can
        finish a later arrival first, so that order is not arrival
        order; on this fleet it changes DLRM-RMC2's ``mean_ms`` in the
        last place unless the vector core sorts ties by each replica's
        completion order."""
        models, workloads = two_model_inputs
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 2)
        allocation.add("T7", "DLRM-RMC1", 1)
        allocation.add("T3", "DLRM-RMC2", 1)
        allocation.add("T7", "DLRM-RMC2", 1)
        segments = {
            model: [
                (
                    0.835 * sum(
                        c * small_table.qps(srv, m)
                        for (srv, m), c in allocation.counts.items()
                        if m == model
                    ),
                    1.5,
                )
            ]
            for model in ("DLRM-RMC1", "DLRM-RMC2")
        }
        trace = build_fleet_trace(workloads, segments, seed=4)

        def run(core):
            servers = build_fleet(allocation, small_table, models, workloads)
            sim = FleetSimulator(
                servers, policy="p2c", sla_ms={m: 20.0 for m in models},
                seed=4, core=core,
            )
            result = sim.run(trace, warmup_s=0.2)
            return result.to_dict(), sim.last_event_count

        assert run("vector") == run("python")

    @staticmethod
    def _tie_runs(small_table, inputs, policy, seed):
        """Two queries on two T2 replicas, the second arriving exactly at
        the first's DirectStage finish and one ulp later, replayed on
        both cores: ``{core: [at the finish, one ulp later]}``, each run
        as ``(to_dict, sorted completed counts)``."""
        from repro.sim.event_core import DirectStage
        from repro.sim.queries import Query

        models, workloads = inputs
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 2)

        def run(core, t1):
            servers = build_fleet(allocation, small_table, models, workloads)
            sim = FleetSimulator(
                servers, policy=policy, sla_ms={"DLRM-RMC1": 20.0},
                seed=seed, core=core,
            )
            result = sim.run([
                ("DLRM-RMC1", Query(0, 0.0, 40, 1.0)),
                ("DLRM-RMC1", Query(1, t1, 40, 1.0)),
            ])
            return result.to_dict(), sorted(s.completed for s in result.servers)

        stage = build_fleet(
            allocation, small_table, models, workloads
        )[0].direct.stage
        finish = DirectStage(stage).completion_time(0.0, 40, 1.0, 1.0)
        after = float(np.nextafter(finish, np.inf))
        return {
            core: [run(core, finish), run(core, after)]
            for core in ("python", "vector")
        }

    def test_arrival_on_a_pending_finish_counts_it(
        self, small_table, two_model_inputs
    ):
        """An arrival at exactly a pending DirectStage finish still sees
        that query outstanding (the python core pops the arrival before
        the completion), and here that decides the pick: arriving at the
        finish, the second query goes to the idle replica; one ulp later
        it joins the first.  Seed 3 makes p2c draw both replicas."""
        runs = self._tie_runs(small_table, two_model_inputs, "p2c", 3)
        at_tie, later = runs["python"]
        assert at_tie[1] == [1, 1]
        assert later[1] == [0, 2]
        assert runs["vector"] == runs["python"]

    def test_least_arrival_on_a_pending_finish_counts_it(
        self, small_table, two_model_inputs
    ):
        """The same tie under ``least``: the router retires only the
        finishes strictly before an arrival."""
        runs = self._tie_runs(small_table, two_model_inputs, "least", 0)
        at_tie, later = runs["python"]
        assert at_tie[1] == [1, 1]
        assert later[1] == [0, 2]
        assert runs["vector"] == runs["python"]

    def test_least_ties_follow_list_order(self, small_table, two_model_inputs):
        """``least`` breaks (outstanding, weight) ties by position in the
        candidate list, not by server index.  A quiet start drains the
        low-index replica 0; when the load returns it is re-activated at
        the end of the list, where it ties with its equal-weight T2
        peers."""
        from repro.fleet import ReactiveAutoscaler

        workload = two_model_inputs[1]["DLRM-RMC1"]
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 3)
        capacity = 3 * small_table.qps("T2", "DLRM-RMC1")
        trace = build_fleet_trace(
            {"DLRM-RMC1": workload},
            {"DLRM-RMC1": [(0.1 * capacity, 0.5), (1.2 * capacity, 1.5)]},
            seed=2,
        )

        def kwargs():
            return {
                "policy": "least",
                "autoscaler": ReactiveAutoscaler(
                    {"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5
                ),
            }

        runs = _both_cores(
            small_table, two_model_inputs, allocation, trace, kwargs
        )
        scaled = [
            (ev["action"], ev["server"])
            for ev in runs["python"][0]["scale_events"]
        ]
        assert scaled[:2] == [("drain", 0), ("activate", 0)]
        assert runs["vector"] == runs["python"]


# ----------------------------------------------------------------------
# Fallback surface: ineligible runs log (auto) or raise (vector)
# ----------------------------------------------------------------------


class _CustomP2C(PowerOfTwoPolicy):
    """A p2c subclass that overrides ``choose``: the vector core cannot
    know what the override reads, so eligibility is decided on the
    exact class and this policy falls back."""

    def choose(self, candidates):
        return super().choose(candidates)


class _CustomLeast(LeastOutstandingPolicy):
    """The same for ``least``: a subclass falls back."""

    def choose(self, candidates):
        return super().choose(candidates)


def _ineligible_kwargs(kind):
    from repro.fleet import FaultSchedule
    from repro.obs import FleetProbe

    if kind == "least-subclass":
        return {"policy": _CustomLeast()}, "queue-aware"
    if kind == "p2c-subclass":
        return {"policy": _CustomP2C(seed=7)}, "queue-aware"
    if kind == "tracked":
        return {"faults": FaultSchedule(), "retries": 2}, "per-event core"
    assert kind == "observer"
    return {"observer": FleetProbe(window_s=0.25)}, "live observer"


@pytest.mark.parametrize(
    "kind", ["least-subclass", "p2c-subclass", "tracked", "observer"]
)
def test_auto_falls_back_and_logs(small_table, two_model_inputs, caplog, kind):
    """Every ineligible configuration degrades to the python core under
    ``auto``, logging the reason, and the result is the python result."""
    kwargs, reason_fragment = _ineligible_kwargs(kind)
    allocation = _mixed_allocation()
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.6, seed=3)
    _, base = _replay(
        small_table, two_model_inputs, allocation, trace, "python",
        **_ineligible_kwargs(kind)[0],
    )
    with caplog.at_level(logging.INFO, logger=_ENGINE_LOGGER):
        _, auto = _replay(
            small_table, two_model_inputs, allocation, trace, "auto", **kwargs
        )
    fallbacks = [
        r for r in caplog.records if "falling back" in r.getMessage()
    ]
    assert fallbacks, "auto must log why it refused the vector core"
    assert reason_fragment in fallbacks[0].getMessage()
    assert auto.per_model == base.per_model
    assert auto.events == base.events


@pytest.mark.parametrize(
    "kind", ["least-subclass", "p2c-subclass", "tracked", "observer"]
)
def test_vector_raises_when_ineligible(small_table, two_model_inputs, kind):
    """Forcing ``core="vector"`` on an ineligible run is an actionable
    error, not a silent degrade."""
    kwargs, reason_fragment = _ineligible_kwargs(kind)
    allocation = _mixed_allocation()
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.6, seed=3)
    with pytest.raises(ValueError, match="core='vector' is unavailable") as exc:
        _replay(
            small_table, two_model_inputs, allocation, trace, "vector", **kwargs
        )
    assert reason_fragment in str(exc.value)
    assert "core='auto'" in str(exc.value)  # the error names the way out


def test_vector_error_lists_every_reason(small_table, two_model_inputs):
    """A run blocked for several reasons reports them all, ``;``-joined,
    so the configuration is fixed once instead of whack-a-mole."""
    from repro.obs import FleetProbe

    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.6, seed=3)
    with pytest.raises(ValueError) as exc:
        _replay(
            small_table, two_model_inputs, _mixed_allocation(), trace,
            "vector", policy=_CustomLeast(),
            observer=FleetProbe(window_s=0.25), retries=1,
        )
    msg = str(exc.value)
    assert "retries, hedging, or tracing" in msg
    assert "live observer" in msg
    assert "queue-aware" in msg
    assert msg.count(";") >= 2  # the reasons arrive joined, not truncated


def test_unknown_core_name_rejected(small_table, two_model_inputs):
    models, workloads = two_model_inputs
    servers = build_fleet(_mixed_allocation(), small_table, models, workloads)
    with pytest.raises(ValueError, match="unknown core"):
        FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0},
                       core="numba")


# ----------------------------------------------------------------------
# Input validation parity with the python core
# ----------------------------------------------------------------------


def test_vector_empty_trace_raises(small_table, two_model_inputs):
    with pytest.raises(ValueError, match="empty fleet trace"):
        _replay(small_table, two_model_inputs, _mixed_allocation(), [], "vector")


def test_vector_unsorted_stream_raises(small_table, two_model_inputs):
    """A lazily-streamed source with regressing timestamps fails with
    the same message the python core produces."""
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.5, seed=3)
    rotated = trace[1:] + trace[:1]  # earliest arrival moved last
    stream = iter(rotated)  # a generator cannot be re-sorted silently
    with pytest.raises(ValueError, match="not sorted by time"):
        _replay(
            small_table, two_model_inputs, _mixed_allocation(), stream, "vector"
        )


@pytest.mark.parametrize("core", ["python", "vector"])
@pytest.mark.parametrize("shape", ["list", "stream"])
def test_nan_arrival_raises(small_table, two_model_inputs, core, shape):
    """A NaN arrival time fails loudly on both cores and both trace
    shapes instead of slipping past the sortedness checks and silently
    losing queries."""
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.5, seed=3)
    model, query = trace[2]
    trace[2] = (model, query._replace(arrival_s=float("nan")))
    source = trace if shape == "list" else iter(trace)
    with pytest.raises(
        ValueError, match=r"trace entry 2 .* non-finite arrival time \(nan\)|t=nan"
    ):
        _replay(small_table, two_model_inputs, _mixed_allocation(), source, core)


def test_vector_unsorted_list_sorted_like_python(small_table, two_model_inputs):
    """Out-of-order *lists* are sorted by both cores before replay."""
    trace = _rmc1_trace(small_table, two_model_inputs[1], 0.5, seed=3)
    rotated = trace[1:] + trace[:1]
    _, base = _replay(
        small_table, two_model_inputs, _mixed_allocation(), rotated, "python"
    )
    _, vec = _replay(
        small_table, two_model_inputs, _mixed_allocation(), rotated, "vector"
    )
    _assert_identical(vec, base)


# ----------------------------------------------------------------------
# Block ingest: a FleetArrivals source hands the vector core its merged
# arrays; every other source shape takes the pair path
# ----------------------------------------------------------------------


def _two_model_source(small_table, workloads, models=("DLRM-RMC1", "DLRM-RMC2")):
    from repro.traces import FleetArrivals, MMPPProcess, PiecewisePoissonProcess

    qps = small_table.qps("T2", "DLRM-RMC1")
    processes = {}
    for k, name in enumerate(models):
        workload = workloads.get(name, workloads["DLRM-RMC1"])
        if k % 2:
            processes[name] = MMPPProcess(
                workload, rates=(0.2 * qps, 1.2 * qps), dwell_s=(0.5, 0.2),
                duration_s=2.0,
            )
        else:
            processes[name] = PiecewisePoissonProcess(
                workload, [(0.8 * qps, 0.7), (1.6 * qps, 0.6), (0.0, 0.2),
                           (1.1 * qps, 0.5)],
            )
    return FleetArrivals(processes, seed=11)


def _two_model_allocation() -> Allocation:
    allocation = _mixed_allocation()
    allocation.add("T2", "DLRM-RMC2", 2)
    return allocation


@pytest.mark.parametrize(
    "models",
    [
        ("DLRM-RMC1", "DLRM-RMC2"),
        ("DLRM-RMC1",),
        # Models with no replica anywhere: dropped, coded in
        # first-arrival order on both ingest paths.
        ("DLRM-RMC1", "DLRM-RMC2", "ZZ-unserved", "AA-unserved"),
    ],
    ids=["two-models", "one-model", "unserved-models"],
)
@pytest.mark.parametrize("faults", [None, "crash"])
def test_vector_block_ingest_matches_pair_path(
    small_table, two_model_inputs, models, faults
):
    """The vector core on a FleetArrivals source (block ingest) gives a
    report ``==`` to the same run on ``list(source)`` and on a plain
    generator over it (the pair path a wrapped iterator takes)."""
    from repro.fleet import FaultSchedule, crash

    source = _two_model_source(small_table, two_model_inputs[1], models)
    rows = list(source)

    def run(trace):
        kwargs = {}
        if faults:
            kwargs["faults"] = FaultSchedule([crash(0.9, 1, recover_after=0.4)])
        sim, result = _replay(
            small_table, two_model_inputs, _two_model_allocation(), trace,
            "vector", **kwargs,
        )
        # per_model's key order is the drop order of unserved models.
        return result.to_dict(), list(result.per_model), sim.last_event_count

    blocks = run(source)
    assert blocks == run(rows)
    assert blocks == run(pair for pair in source)
    for model in models:
        if "unserved" in model:
            assert blocks[0]["per_model"][model]["dropped"] > 0


def test_block_source_rows_cannot_be_taken_twice(small_table, two_model_inputs):
    """The row iterator offers its blocks only before the first row, and
    never hands out both."""
    source = _two_model_source(small_table, two_model_inputs[1])
    rows = iter(source)
    next(rows)
    assert rows.take_blocks() is None
    taken = iter(source)
    assert taken.take_blocks() is not None
    with pytest.raises(RuntimeError, match="already taken as blocks"):
        next(taken)


@pytest.mark.parametrize("core", ["python", "vector"])
def test_backwards_blocks_raise_same_error_on_both_cores(
    small_table, two_model_inputs, core
):
    """A process whose blocks go backwards in time is refused by the
    merge itself, so both cores raise the identical error."""
    from repro.traces import FleetArrivals, PoissonProcess
    from repro.traces.arrivals import ArrivalProcess

    class _Backwards(ArrivalProcess):
        workload = two_model_inputs[1]["DLRM-RMC1"]
        end_s = 2.0
        mean_qps = 10.0

        def blocks(self, seed=0):
            yield np.array([1.0, 1.5]), np.array([10, 20]), np.ones(2)
            yield np.array([0.5, 2.0]), np.array([30, 40]), np.ones(2)

    steady = PoissonProcess(two_model_inputs[1]["DLRM-RMC2"], 50.0, 2.0)
    source = FleetArrivals({"DLRM-RMC1": _Backwards(), "DLRM-RMC2": steady})
    with pytest.raises(ValueError) as exc:
        _replay(
            small_table, two_model_inputs, _two_model_allocation(), source, core
        )
    assert str(exc.value) == (
        "arrival stream is not sorted by time (t=0.5 after t=1.5)"
    )
