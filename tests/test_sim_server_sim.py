"""Tests for the discrete-event server simulator."""

from __future__ import annotations

import pytest

from repro.models import ModelVariant, build_model, partition_model
from repro.plans import ExecutionPlan, Placement
from repro.sim import (
    DiscreteEventServerSim,
    Query,
    QueryWorkload,
    SimStage,
    StageMode,
    simulate,
)
from repro.sim.event_core import _split


class TestSplit:
    def test_exact_division(self):
        assert _split(512, 256) == [256, 256]

    def test_remainder(self):
        assert _split(300, 128) == [128, 128, 44]

    def test_small_query(self):
        assert _split(5, 256) == [5]

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            _split(10, 0)


def _one_stage(units=2, mode=StageMode.SPLIT, chunk=100, fuse=0, service=0.01):
    return SimStage(
        name="inference",
        units=units,
        mode=mode,
        chunk_items=chunk,
        fuse_items=fuse,
        latency_fn=lambda items: service,
    )


class TestDiscreteEventServerSim:
    def test_single_query_latency_is_service_time(self):
        sim = DiscreteEventServerSim([_one_stage(service=0.02)])
        queries = [Query(query_id=0, arrival_s=0.0, size=50)]
        result = sim.run(queries)
        assert result.completed == 1
        assert result.latencies_s[0] == pytest.approx(0.02)

    def test_single_query_throughput_is_finite(self):
        # The measured window ends at the query's completion, not at
        # its arrival (a zero-length window read 1e9 qps).
        sim = DiscreteEventServerSim([_one_stage(service=0.02)])
        result = sim.run([Query(query_id=0, arrival_s=0.0, size=50)])
        assert result.duration_s == pytest.approx(0.02)
        assert result.qps == pytest.approx(50.0)

    def test_split_query_uses_parallel_units(self):
        # 200 items -> 2 chunks on 2 units: one service time total.
        sim = DiscreteEventServerSim([_one_stage(units=2, chunk=100, service=0.05)])
        queries = [Query(query_id=0, arrival_s=0.0, size=200)]
        result = sim.run(queries)
        assert result.latencies_s[0] == pytest.approx(0.05)

    def test_split_query_serializes_on_one_unit(self):
        sim = DiscreteEventServerSim([_one_stage(units=1, chunk=100, service=0.05)])
        queries = [Query(query_id=0, arrival_s=0.0, size=200)]
        result = sim.run(queries)
        assert result.latencies_s[0] == pytest.approx(0.10)

    def test_queueing_delay_under_contention(self):
        sim = DiscreteEventServerSim([_one_stage(units=1, chunk=100, service=0.05)])
        queries = [
            Query(query_id=i, arrival_s=0.0, size=50) for i in range(4)
        ]
        result = sim.run(queries)
        assert result.latencies_s.max() == pytest.approx(0.20)

    def test_fusion_merges_queued_queries(self):
        captured = []

        def latency_fn(items):
            captured.append(items)
            return 0.05

        stage = SimStage(
            name="inference",
            units=1,
            mode=StageMode.FUSE,
            chunk_items=1,
            fuse_items=300,
            latency_fn=latency_fn,
        )
        sim = DiscreteEventServerSim([stage])
        queries = [Query(query_id=i, arrival_s=0.0, size=100) for i in range(3)]
        result = sim.run(queries)
        # First batch grabs the head query; once the unit frees, the
        # remaining two fuse into one 200-item batch.
        assert captured[0] == 100
        assert 200 in captured
        assert result.completed == 3

    def test_two_stage_pipeline(self):
        stages = [
            _one_stage(units=1, chunk=100, service=0.01),
            SimStage(
                name="dense",
                units=1,
                mode=StageMode.SPLIT,
                chunk_items=100,
                fuse_items=0,
                latency_fn=lambda items: 0.02,
            ),
        ]
        sim = DiscreteEventServerSim(stages)
        queries = [Query(query_id=0, arrival_s=0.0, size=80)]
        result = sim.run(queries)
        assert result.latencies_s[0] == pytest.approx(0.03)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            DiscreteEventServerSim([_one_stage()]).run([])

    @pytest.mark.parametrize("mode", [StageMode.SPLIT, StageMode.FUSE])
    def test_zero_size_query_rejected(self, mode):
        # ``_make`` skips the constructor's size check, as a recorded
        # or hand-built trace can.
        queries = [
            Query(query_id=0, arrival_s=0.0, size=10),
            Query._make((1, 0.5, 0, 1.0)),
        ]
        sim = DiscreteEventServerSim([_one_stage(mode=mode, fuse=64)])
        with pytest.raises(ValueError, match="zero units never complete"):
            sim.run(queries)

    def test_no_completion_in_window_rejected(self):
        sim = DiscreteEventServerSim([_one_stage()])
        queries = [Query(query_id=0, arrival_s=0.0, size=10)]
        with pytest.raises(RuntimeError, match="no queries completed"):
            sim.run(queries, warmup_s=1.0)

    def test_no_stages_rejected(self):
        with pytest.raises(ValueError):
            DiscreteEventServerSim([])


class TestDesVsAnalytical:
    """The DES validates the closed-form evaluator (same plan, load)."""

    @pytest.mark.parametrize("load_fraction", [0.3, 0.6])
    def test_cpu_model_based_agreement(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload, load_fraction
    ):
        plan = ExecutionPlan(
            Placement.CPU_MODEL_BASED, threads=10, cores_per_thread=2, batch_size=256
        )
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        qps = timings.capacity_items_s / rmc1_workload.mean_size * load_fraction
        analytic = t2_evaluator.perf_at(timings, rmc1_workload, qps)
        des = simulate(
            t2_evaluator,
            rmc1_partitioned,
            rmc1_workload,
            plan,
            arrival_qps=qps,
            duration_s=15.0,
            seed=5,
        )
        assert des.qps == pytest.approx(qps, rel=0.1)
        # Tail latency within 2x band (queueing formulas are approximations).
        assert des.latency.p99_ms < 2.5 * analytic.latency.p99_ms
        assert analytic.latency.p99_ms < 4.0 * des.latency.p99_ms
        assert des.power_w == pytest.approx(analytic.power_w, rel=0.15)

    def test_overload_throughput_stays_below_capacity(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        """Offered 3x its capacity, the server reports what it completed
        (its backlog drains past the last arrival), not the offered
        load."""
        plan = ExecutionPlan(
            Placement.CPU_MODEL_BASED, threads=10, cores_per_thread=2, batch_size=256
        )
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity = timings.capacity_items_s / rmc1_workload.mean_size
        des = simulate(
            t2_evaluator,
            rmc1_partitioned,
            rmc1_workload,
            plan,
            arrival_qps=3.0 * capacity,
            duration_s=5.0,
            seed=2,
        )
        assert des.qps < capacity
        assert des.cpu_util < 1.0

    def test_gpu_fusion_des_runs(self, t7_evaluator):
        model = build_model("DLRM-RMC3", ModelVariant.SMALL)
        wl = QueryWorkload.for_model(model.config.mean_query_size)
        pm = partition_model(model, device_memory_bytes=16e9, co_location=2)
        plan = ExecutionPlan(
            Placement.GPU_MODEL_BASED, threads=2, fusion_limit=2048
        )
        perf = simulate(
            t7_evaluator, pm, wl, plan, arrival_qps=2000, duration_s=8.0, seed=1
        )
        assert perf.qps == pytest.approx(2000, rel=0.15)
        assert perf.gpu_util > 0
        assert perf.latency.p99_ms < 100.0
