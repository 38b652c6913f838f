"""Tests for the closed-form steady-state evaluator."""

from __future__ import annotations

import math

import pytest

from repro.hardware import SERVER_TYPES
from repro.models import build_model, partition_model, ModelVariant
from repro.plans import ExecutionPlan, Placement
from repro.scheduling import HerculesTaskScheduler
from repro.sim import QueryWorkload, ServerEvaluator
from repro.sim.metrics import ServerPerformance


def cpu_plan(threads=10, cores=2, batch=256):
    return ExecutionPlan(
        Placement.CPU_MODEL_BASED,
        threads=threads,
        cores_per_thread=cores,
        batch_size=batch,
    )


class TestCpuModelBased:
    def test_timings_have_positive_capacity(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        t = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, cpu_plan())
        assert t.capacity_items_s > 0
        assert t.cpu_core_s_per_item > 0
        assert t.gpu_busy_s_per_item == 0
        assert len(t.stages) == 1

    def test_memory_bound_capacity_respects_bandwidth(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        """RMC1 is memory-dominated: aggregate gather bandwidth caps
        throughput no matter how many threads are used."""
        t = t2_evaluator.plan_timings(
            rmc1_partitioned, rmc1_workload, cpu_plan(threads=20, cores=1)
        )
        achieved = t.capacity_items_s * t.mem_bytes_per_item
        peak = SERVER_TYPES["T2"].memory.gather_bw_bytes
        assert achieved <= peak * 1.1

    def test_fewer_colocated_threads_reduce_interference(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        """The Fig. 4 effect: 10x2 beats 20x1 for memory-dominated RMC1."""
        sla = 64.0
        p20 = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(20, 1), sla
        )
        p10 = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(10, 2), sla
        )
        assert p10.qps > p20.qps
        assert p10.qps_per_watt > p20.qps_per_watt
        assert p10.cpu_util < p20.cpu_util

    def test_plan_must_fit_cores(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        with pytest.raises(ValueError, match="does not fit"):
            t2_evaluator.plan_timings(
                rmc1_partitioned, rmc1_workload, cpu_plan(threads=21, cores=1)
            )

    def test_model_must_fit_host_memory(self, rmc1_workload):
        t1 = ServerEvaluator(SERVER_TYPES["T1"])  # 64 GB host
        big = partition_model(build_model("DIEN"))
        big_model_bytes = big.model.graph.total_weight_bytes()
        if big_model_bytes <= 64e9:
            pytest.skip("model fits; nothing to check")
        with pytest.raises(ValueError, match="GB"):
            t1.plan_timings(big, rmc1_workload, cpu_plan())


class TestQueueingModel:
    def test_latency_grows_with_load(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity_qps = timings.capacity_items_s / rmc1_workload.mean_size
        p_light = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * 0.2)
        p_heavy = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * 0.9)
        assert p_heavy.latency.p99_ms > p_light.latency.p99_ms
        assert p_heavy.power_w > p_light.power_w

    def test_overload_is_infeasible(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity_qps = timings.capacity_items_s / rmc1_workload.mean_size
        perf = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * 1.2)
        assert not perf.feasible
        assert "overloaded" in perf.infeasible_reason

    def test_percentiles_ordered(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        perf = t2_evaluator.evaluate(
            rmc1_partitioned, rmc1_workload, cpu_plan(), arrival_qps=800
        )
        lat = perf.latency
        assert lat.p50_ms <= lat.p95_ms <= lat.p99_ms


class TestLatencyBounded:
    def test_result_meets_sla(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        perf = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(), sla_ms=64.0
        )
        assert perf.feasible
        assert perf.latency.p99_ms <= 64.0

    def test_monotone_in_sla(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        plan = cpu_plan()
        qps = [
            t2_evaluator.latency_bounded(
                rmc1_partitioned, rmc1_workload, plan, sla_ms=sla
            ).qps
            for sla in (16.0, 64.0, 256.0)
        ]
        assert qps[0] <= qps[1] <= qps[2]

    def test_impossible_sla_is_infeasible(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        perf = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, cpu_plan(), sla_ms=0.01
        )
        assert not perf.feasible

    def test_power_budget_constrains_throughput(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        free = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=64.0
        )
        capped = t2_evaluator.latency_bounded(
            rmc1_partitioned,
            rmc1_workload,
            plan,
            sla_ms=64.0,
            power_budget_w=free.power_w * 0.9,
        )
        assert capped.qps < free.qps
        assert capped.power_w <= free.power_w * 0.9 + 1e-6


class TestNmpServer:
    def test_nmp_speeds_up_multi_hot_models(
        self, t2_evaluator, t3_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = cpu_plan()
        base = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=20.0
        )
        nmp = t3_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=20.0
        )
        assert nmp.qps > 1.5 * base.qps

    def test_nmp_does_not_help_one_hot_models(self, t2_evaluator, t3_evaluator):
        model = build_model("DIN")
        pm = partition_model(model)
        wl = QueryWorkload.for_model(model.config.mean_query_size)
        # Small batches: DIN's attention makes large per-core batches
        # blow the SLA regardless of memory system.
        plan = cpu_plan(batch=32)
        base = t2_evaluator.latency_bounded(pm, wl, plan, sla_ms=100.0)
        nmp = t3_evaluator.latency_bounded(pm, wl, plan, sla_ms=100.0)
        assert nmp.qps == pytest.approx(base.qps, rel=0.1)
        # ... but pays the NMP idle-power tax (Fig. 15b).
        assert nmp.qps_per_watt < base.qps_per_watt


class TestSdPipeline:
    def test_pipeline_stages(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        plan = ExecutionPlan(
            Placement.CPU_SD_PIPELINE,
            batch_size=256,
            sparse_threads=4,
            sparse_cores=2,
            dense_threads=8,
        )
        t = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        names = [s.name for s in t.stages]
        assert names == ["sparse", "dense"]
        assert t.capacity_items_s > 0


class TestGpuPlacements:
    def test_gpu_model_based_small_model(self, t7_evaluator, rmc1_workload):
        model = build_model("DLRM-RMC1", ModelVariant.SMALL)
        pm = partition_model(model, device_memory_bytes=16e9, co_location=2)
        plan = ExecutionPlan(
            Placement.GPU_MODEL_BASED, threads=2, fusion_limit=1024
        )
        t = t7_evaluator.plan_timings(pm, rmc1_workload, plan)
        names = [s.name for s in t.stages]
        assert names == ["loading", "inference"]
        assert t.gpu_busy_s_per_item > 0
        assert t.fill_items == 1024

    def test_gpu_model_based_requires_hot_partition(
        self, t7_evaluator, rmc1_partitioned, rmc1_workload
    ):
        plan = ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1)
        with pytest.raises(ValueError, match="hot-sparse"):
            t7_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)

    def test_cold_path_requires_host_threads(self, t7_evaluator, rmc1_workload):
        model = build_model("DLRM-RMC2")  # 38 GB: never fully hot
        pm = partition_model(model, device_memory_bytes=16e9, co_location=1)
        assert pm.cold_miss_rate > 0
        plan = ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1, sparse_threads=0)
        with pytest.raises(ValueError, match="sparse_threads"):
            t7_evaluator.plan_timings(pm, rmc1_workload, plan)

    def test_gpu_memory_capacity_enforced(self, t7_evaluator, rmc1_workload):
        model = build_model("DLRM-RMC1")  # 3.8 GB per copy
        pm = partition_model(model, device_memory_bytes=16e9, co_location=1)
        plan = ExecutionPlan(Placement.GPU_MODEL_BASED, threads=8)
        with pytest.raises(ValueError, match="device memory"):
            t7_evaluator.plan_timings(pm, rmc1_workload, plan)

    def test_gpu_sd_stages(self, t7_evaluator, rmc1_partitioned, rmc1_workload):
        plan = ExecutionPlan(
            Placement.GPU_SD,
            threads=2,
            fusion_limit=2048,
            sparse_threads=8,
            sparse_cores=2,
            batch_size=256,
        )
        t = t7_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        names = [s.name for s in t.stages]
        assert names == ["sparse", "loading", "inference"]

    def test_gpu_placement_needs_gpu(self, t2_evaluator, rmc1_partitioned, rmc1_workload):
        plan = ExecutionPlan(
            Placement.GPU_SD,
            threads=1,
            sparse_threads=2,
            fusion_limit=512,
        )
        with pytest.raises(ValueError, match="does not fit"):
            t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)

    def test_query_fusion_improves_gpu_throughput(self, t7_evaluator, rmc1_workload):
        """The Fig. 6 effect: fusing queries into large batches raises
        latency-bounded throughput for compute-heavy models."""
        model = build_model("DLRM-RMC3", ModelVariant.SMALL)
        wl = QueryWorkload.for_model(model.config.mean_query_size)
        pm = partition_model(model, device_memory_bytes=16e9, co_location=1)
        no_fusion = t7_evaluator.latency_bounded(
            pm, wl, ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1), sla_ms=50.0
        )
        fused = t7_evaluator.latency_bounded(
            pm,
            wl,
            ExecutionPlan(Placement.GPU_MODEL_BASED, threads=1, fusion_limit=4096),
            sla_ms=50.0,
        )
        assert fused.qps > 1.5 * no_fusion.qps


def _per_probe_latency_bounded(
    evaluator, partitioned, workload, plan, sla_ms, power_budget_w=None
):
    """Reference copy of the rate bisection before the scalar probe:
    a full ``perf_at`` operating point at every probed rate."""
    try:
        timings = evaluator.plan_timings(partitioned, workload, plan)
    except ValueError as exc:
        return ServerPerformance.infeasible(str(exc))
    capacity_qps = timings.capacity_items_s / workload.mean_size
    if not math.isfinite(capacity_qps) or capacity_qps <= 0:
        return ServerPerformance.infeasible("plan has no capacity")

    def feasible(qps):
        perf = evaluator.perf_at(timings, workload, qps, power_budget_w)
        if perf.feasible and perf.latency.p99_ms <= sla_ms:
            return perf
        return None

    fractions = (0.98, 0.95, 0.9, 0.8, 0.65, 0.5, 0.35, 0.2, 0.1, 0.05, 0.02)
    best = None
    hi = capacity_qps
    for frac in fractions:
        qps = capacity_qps * frac
        perf = feasible(qps)
        if perf is not None:
            best = perf
            break
        hi = qps
    if best is None:
        return ServerPerformance.infeasible(
            f"SLA {sla_ms} ms unreachable at any load"
        )
    lo = best.qps
    for _ in range(24):
        mid = (lo + hi) / 2.0
        perf = feasible(mid)
        if perf is not None:
            best, lo = perf, mid
        else:
            hi = mid
    return best


@pytest.mark.parametrize("server", ["T2", "T3", "T7"])
@pytest.mark.parametrize("model_name", ["DLRM-RMC1", "DLRM-RMC2"])
def test_latency_bounded_matches_per_probe_bisection(server, model_name):
    """Every plan a search visits scores ``==`` to the per-probe
    reference, with no power budget and with a binding one."""
    evaluator = ServerEvaluator(SERVER_TYPES[server])
    scheduler = HerculesTaskScheduler(evaluator, build_model(model_name))
    space = scheduler.search_space
    visited = scheduler.search().visited
    assert visited
    for plan, _ in visited:
        partitioned = (
            space.gpu_partition(plan.threads)
            if plan.placement is Placement.GPU_MODEL_BASED
            else space.host_partition()
        )
        args = (partitioned, space.workload, plan, space.sla_ms)
        free = evaluator.latency_bounded(*args)
        assert free == _per_probe_latency_bounded(evaluator, *args)
        if free.feasible:
            budget = 0.9 * free.power_w
            capped = evaluator.latency_bounded(*args, budget)
            assert capped == _per_probe_latency_bounded(evaluator, *args, budget)
            assert capped.qps < free.qps
