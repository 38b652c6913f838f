"""Fleet engine tests: analytic consistency, SLA accounting, scaling.

The load-bearing checks mirror how the paper validates its models
against the load-generator prototype:

- a steady-load fleet's per-server throughput must match the offered
  share (and the saturated throughput the closed-form evaluator
  predicts) within tolerance;
- p99 must be monotone non-decreasing in offered load;
- a single-replica fleet must agree with the single-node DES.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import ClusterManager, GreedyScheduler, synchronous_traces
from repro.cluster.state import Allocation
from repro.fleet import (
    FleetSimulator,
    ReactiveAutoscaler,
    build_fleet,
    build_fleet_trace,
    diurnal_segments,
)
from repro.models import build_model
from repro.sim import Query, QueryWorkload
from repro.sim.server_sim import DiscreteEventServerSim, build_stages
from repro.sim import plan_cache


@pytest.fixture(scope="module")
def rmc1_models():
    return {"DLRM-RMC1": build_model("DLRM-RMC1")}


@pytest.fixture(scope="module")
def rmc1_only_workloads(rmc1_models):
    model = rmc1_models["DLRM-RMC1"]
    return {"DLRM-RMC1": QueryWorkload.for_model(model.config.mean_query_size)}


def _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, count, srv="T2"):
    allocation = Allocation()
    allocation.add(srv, "DLRM-RMC1", count)
    return build_fleet(allocation, small_table, rmc1_models, rmc1_only_workloads)


def _steady_trace(rmc1_only_workloads, qps, duration, seed=0):
    return build_fleet_trace(
        rmc1_only_workloads, {"DLRM-RMC1": [(qps, duration)]}, seed=seed
    )


class TestAnalyticConsistency:
    def test_per_server_throughput_matches_offered_share(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """Under capacity, each replica completes its routed share."""
        tup = small_table.get("T2", "DLRM-RMC1")
        n = 4
        offered = 0.7 * n * tup.qps
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, n)
        trace = _steady_trace(rmc1_only_workloads, offered, duration=8.0, seed=3)
        # rr splits a uniform fleet evenly; queue-aware policies skew
        # per-server counts through deterministic tie-breaks.
        sim = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0})
        result = sim.run(trace, warmup_s=1.0)
        fleet_qps = result.per_model["DLRM-RMC1"].qps
        assert fleet_qps == pytest.approx(offered, rel=0.06)
        for stats in result.servers:
            assert stats.qps == pytest.approx(offered / n, rel=0.15)

    def test_saturated_throughput_matches_evaluator_capacity(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """Overloaded, a replica converges to the analytic capacity."""
        model = rmc1_models["DLRM-RMC1"]
        workload = rmc1_only_workloads["DLRM-RMC1"]
        tup = small_table.get("T2", "DLRM-RMC1")
        from repro.hardware import SERVER_TYPES

        timings = plan_cache.timings_for(
            SERVER_TYPES["T2"], model, workload, tup.plan
        )
        capacity_qps = timings.capacity_items_s / workload.mean_size
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 1)
        trace = _steady_trace(
            rmc1_only_workloads, 1.5 * capacity_qps, duration=6.0, seed=5
        )
        sim = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0})
        result = sim.run(trace, warmup_s=1.0)
        measured = result.servers[0].qps
        assert measured == pytest.approx(capacity_qps, rel=0.2)
        # The latency-bounded operating point can never exceed capacity.
        assert tup.qps <= capacity_qps * 1.01

    def test_p99_monotone_in_offered_load(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """Property: heavier offered load never improves the tail."""
        tup = small_table.get("T2", "DLRM-RMC1")
        n = 3
        p99s = []
        for frac in (0.3, 0.55, 0.8):
            servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, n)
            trace = _steady_trace(
                rmc1_only_workloads, frac * n * tup.qps, duration=6.0, seed=11
            )
            sim = FleetSimulator(servers, policy="least", sla_ms={"DLRM-RMC1": 20.0})
            p99s.append(sim.run(trace, warmup_s=1.0).per_model["DLRM-RMC1"].p99_ms)
        assert p99s[1] >= p99s[0] * 0.95
        assert p99s[2] >= p99s[1] * 0.95
        assert p99s[2] > p99s[0]

    def test_single_replica_fleet_matches_single_node_des(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """A 1-server fleet is the single-node simulator, re-housed."""
        from repro.hardware import SERVER_TYPES

        model = rmc1_models["DLRM-RMC1"]
        workload = rmc1_only_workloads["DLRM-RMC1"]
        tup = small_table.get("T2", "DLRM-RMC1")
        evaluator = plan_cache.shared_evaluator(SERVER_TYPES["T2"])
        partitioned = plan_cache.partitioned_for(SERVER_TYPES["T2"], model, tup.plan)
        stages = build_stages(evaluator, partitioned, workload, tup.plan)

        trace = _steady_trace(rmc1_only_workloads, 0.6 * tup.qps, duration=8.0, seed=7)
        queries = [q for _, q in trace]
        single = DiscreteEventServerSim(stages).run(queries, warmup_s=1.0)

        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 1)
        fleet = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0})
        result = fleet.run(trace, warmup_s=1.0)

        import numpy as np

        stats = result.per_model["DLRM-RMC1"]
        # The fleet excludes completions draining past the horizon, the
        # single-node sim does not -- identical otherwise.
        assert stats.completed == pytest.approx(single.completed, rel=0.01)
        assert stats.p50_ms == pytest.approx(
            float(np.percentile(single.latencies_s, 50)) * 1e3, rel=0.02
        )
        assert stats.p99_ms == pytest.approx(
            float(np.percentile(single.latencies_s, 99)) * 1e3, rel=0.05
        )


class TestEngineBehaviour:
    def test_empty_trace_rejected(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 1)
        sim = FleetSimulator(servers, sla_ms={"DLRM-RMC1": 20.0})
        with pytest.raises(ValueError, match="empty fleet trace"):
            sim.run([])

    def test_no_servers_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetSimulator([], sla_ms={})

    def test_queries_without_replica_are_dropped(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """A model with zero active replicas loses its stream, visibly."""
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 1)
        standby = Allocation()
        standby.add("T2", "DLRM-RMC2", 1)
        models = dict(rmc1_models)
        models["DLRM-RMC2"] = build_model("DLRM-RMC2")
        servers = build_fleet(allocation, small_table, models, standby=standby)
        workloads = dict(rmc1_only_workloads)
        workloads["DLRM-RMC2"] = QueryWorkload.for_model(
            models["DLRM-RMC2"].config.mean_query_size
        )
        trace = build_fleet_trace(
            workloads,
            {"DLRM-RMC1": [(200.0, 2.0)], "DLRM-RMC2": [(50.0, 2.0)]},
            seed=1,
        )
        sim = FleetSimulator(
            servers, sla_ms={"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0}
        )
        result = sim.run(trace)
        assert result.per_model["DLRM-RMC2"].dropped > 0
        assert result.per_model["DLRM-RMC2"].violation_rate == 1.0
        assert result.per_model["DLRM-RMC1"].dropped == 0

    def test_model_absent_from_fleet_surfaces_as_dropped(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """A trace naming a model no replica serves must not vanish."""
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 1)
        workloads = dict(rmc1_only_workloads)
        workloads["DLRM-RMC2"] = QueryWorkload.for_model(150)
        trace = build_fleet_trace(
            workloads,
            {"DLRM-RMC1": [(200.0, 2.0)], "DLRM-RMC2": [(50.0, 2.0)]},
            seed=6,
        )
        sim = FleetSimulator(
            servers, sla_ms={"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0}
        )
        result = sim.run(trace)
        assert "DLRM-RMC2" in result.per_model
        assert result.per_model["DLRM-RMC2"].dropped > 0
        assert result.per_model["DLRM-RMC2"].violation_rate == 1.0
        assert result.total_dropped > 0

    @pytest.mark.parametrize("core", ["python", "vector"])
    def test_last_horizon_s_is_exact(
        self, small_table, rmc1_models, rmc1_only_workloads, core
    ):
        """``last_horizon_s`` is the replay's own horizon -- the last
        arrival, or a forced ``horizon_s`` (which only the python core
        accepts) -- not ``duration_s + warmup_s``, which misses both by
        one ulp here and would move every post-run carbon price."""
        from repro.sim.queries import Query

        last, warmup, forced = 25.05098666653591, 1.2525493333267956, 27.3
        trace = [
            ("DLRM-RMC1", Query(i, t, 64))
            for i, t in enumerate((0.5, 3.0, 12.0, last))
        ]

        def run(**kwargs):
            servers = _uniform_fleet(
                small_table, rmc1_models, rmc1_only_workloads, 2
            )
            sim = FleetSimulator(
                servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0}, core=core
            )
            return sim, sim.run(trace, warmup_s=warmup, **kwargs)

        sim, result = run()
        assert result.duration_s + warmup != last
        assert sim.last_horizon_s == last
        if core == "python":
            sim, result = run(horizon_s=forced)
            assert result.duration_s + warmup != forced
            assert sim.last_horizon_s == forced

    def test_report_format_mentions_all_models(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 2)
        trace = _steady_trace(rmc1_only_workloads, 500.0, duration=2.0)
        result = FleetSimulator(servers, sla_ms={"DLRM-RMC1": 20.0}).run(trace)
        text = result.format()
        assert "DLRM-RMC1" in text
        assert "fleet power" in text

    def test_report_format_renders_an_unserved_model(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """A model the trace names but the fleet does not serve has no
        SLA (``inf``): its table row shows ``-`` there, and every one
        of its arrivals as a drop."""
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 4)
        models = ("DLRM-RMC1", "web,burst")
        trace = [
            (models[i % 2], Query(i // 2, 0.005 * i, 20, 1.0)) for i in range(400)
        ]
        result = FleetSimulator(servers, sla_ms={"DLRM-RMC1": 20.0}).run(trace)
        assert result.per_model["web,burst"].sla_ms == float("inf")
        row = next(
            line for line in result.format().splitlines()
            if line.startswith("web,burst")
        )
        # model, served, dropped, QPS, p50 ms, p99 ms, SLA ms, viol
        assert row.split() == [
            "web,burst", "0", "200", "0", "inf", "inf", "-", "100.00%"
        ]

    def test_diurnal_segments_compress_the_day(self):
        traces = synchronous_traces({"DLRM-RMC1": 1000.0})
        segs = diurnal_segments(traces["DLRM-RMC1"], duration_s=4.0, steps=8)
        assert len(segs) == 8
        assert sum(d for _, d in segs) == pytest.approx(4.0)
        assert max(q for q, _ in segs) > 2 * min(q for q, _ in segs)


class TestAutoscaler:
    def test_overload_activates_standby(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        tup = small_table.get("T2", "DLRM-RMC1")
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 1)
        standby = Allocation()
        standby.add("T2", "DLRM-RMC1", 2)
        servers = build_fleet(
            allocation, small_table, rmc1_models, rmc1_only_workloads, standby=standby
        )
        trace = _steady_trace(rmc1_only_workloads, 2.2 * tup.qps, duration=6.0, seed=2)
        scaler = ReactiveAutoscaler(
            {"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5
        )
        sim = FleetSimulator(
            servers, policy="least", sla_ms={"DLRM-RMC1": 20.0}, autoscaler=scaler
        )
        result = sim.run(trace, warmup_s=1.0)
        activations = [e for e in result.scale_events if e.action == "activate"]
        assert len(activations) >= 2
        assert result.active_servers == 3

        # Without the autoscaler the same trace must end with a worse tail.
        static = FleetSimulator(
            build_fleet(allocation, small_table, rmc1_models, rmc1_only_workloads),
            policy="least",
            sla_ms={"DLRM-RMC1": 20.0},
        ).run(trace, warmup_s=1.0)
        assert (
            result.per_model["DLRM-RMC1"].p99_ms
            < static.per_model["DLRM-RMC1"].p99_ms
        )

    def test_low_load_drains_replicas(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        tup = small_table.get("T2", "DLRM-RMC1")
        servers = _uniform_fleet(small_table, rmc1_models, rmc1_only_workloads, 3)
        trace = _steady_trace(rmc1_only_workloads, 0.1 * tup.qps, duration=6.0, seed=4)
        scaler = ReactiveAutoscaler(
            {"DLRM-RMC1": 20.0}, window_s=0.5, cooldown_s=1.0
        )
        sim = FleetSimulator(
            servers, policy="least", sla_ms={"DLRM-RMC1": 20.0}, autoscaler=scaler
        )
        result = sim.run(trace, warmup_s=1.0)
        drains = [e for e in result.scale_events if e.action == "drain"]
        assert drains, "an over-provisioned fleet at 10% load must drain"
        # min_active floor holds.
        assert sum(1 for s in result.servers if s.ever_active) >= 1

    def test_standby_only_model_bootstraps_from_drops(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        """Drops trigger activation even with zero active replicas."""
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 1)
        standby = Allocation()
        standby.add("T2", "DLRM-RMC2", 1)
        models = dict(rmc1_models)
        models["DLRM-RMC2"] = build_model("DLRM-RMC2")
        workloads = dict(rmc1_only_workloads)
        workloads["DLRM-RMC2"] = QueryWorkload.for_model(
            models["DLRM-RMC2"].config.mean_query_size
        )
        servers = build_fleet(
            allocation, small_table, models, workloads, standby=standby
        )
        trace = build_fleet_trace(
            workloads,
            {"DLRM-RMC1": [(200.0, 5.0)], "DLRM-RMC2": [(40.0, 5.0)]},
            seed=8,
        )
        scaler = ReactiveAutoscaler(
            {"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0}, window_s=0.25, cooldown_s=0.5
        )
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0},
            autoscaler=scaler,
        )
        result = sim.run(trace)
        activations = [
            e
            for e in result.scale_events
            if e.action == "activate" and e.model == "DLRM-RMC2"
        ]
        assert activations, "drops must bootstrap the standby replica"
        assert result.per_model["DLRM-RMC2"].completed > 0

    def test_min_active_respected(self):
        scaler = ReactiveAutoscaler({"m": 10.0}, min_active=1)
        events = scaler.tick(
            now=10.0,
            window_lat_ms={"m": [1.0] * 50},
            window_arrivals={"m": 1},
            routable={"m": [type("S", (), {"weight": 100.0})()]},
            standby_for=lambda m: [],
        )
        assert events == []


class TestManagerReplay:
    def test_replay_request_level_yields_interval_results(
        self, small_table, rmc1_models, rmc1_only_workloads
    ):
        fleet = {"T2": 8, "T3": 2}
        manager = ClusterManager(
            GreedyScheduler(small_table, fleet), interval_minutes=240.0
        )
        traces = synchronous_traces({"DLRM-RMC1": 2000.0})
        results = manager.replay_request_level(
            traces,
            rmc1_models,
            rmc1_only_workloads,
            policy="p2c",
            sim_seconds_per_interval=1.0,
            seed=3,
        )
        assert len(results) == 6  # 24h / 240min intervals
        hours = [h for h, _ in results]
        assert hours == sorted(hours)
        for _, res in results:
            assert res.per_model["DLRM-RMC1"].completed > 0
            assert res.avg_power_w > 0


@pytest.mark.slow
def test_steady_state_50_servers_100k_queries_under_30s(
    small_table, rmc1_models, rmc1_only_workloads
):
    """The ISSUE acceptance bound: 50 x 100k steady state in < 30 s."""
    models = dict(rmc1_models)
    models["DLRM-RMC2"] = build_model("DLRM-RMC2")
    workloads = dict(rmc1_only_workloads)
    workloads["DLRM-RMC2"] = QueryWorkload.for_model(
        models["DLRM-RMC2"].config.mean_query_size
    )
    allocation = Allocation()
    for name, counts in {
        "DLRM-RMC1": {"T2": 18, "T3": 6, "T7": 4},
        "DLRM-RMC2": {"T2": 12, "T3": 6, "T7": 4},
    }.items():
        for srv, count in counts.items():
            allocation.add(srv, name, count)
    servers = build_fleet(allocation, small_table, models, workloads)
    assert len(servers) == 50
    capacity = {
        name: sum(
            c * small_table.qps(srv, m)
            for (srv, m), c in allocation.counts.items()
            if m == name
        )
        for name in models
    }
    total = 0.75 * sum(capacity.values())
    duration = 100_000 / total
    trace = build_fleet_trace(
        workloads,
        {name: [(0.75 * capacity[name], duration)] for name in models},
        seed=9,
    )
    assert len(trace) >= 90_000
    start = time.monotonic()
    sim = FleetSimulator(
        servers, policy="p2c", sla_ms={n: m.sla_ms for n, m in models.items()}
    )
    result = sim.run(trace, warmup_s=duration * 0.1)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"fleet steady state took {elapsed:.1f}s"
    assert result.total_completed > 80_000
