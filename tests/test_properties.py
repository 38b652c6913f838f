"""Cross-cutting property-based tests (hypothesis).

These pin down the invariants the schedulers rely on:

- the evaluator's tail latency and power are monotone in load;
- latency-bounded throughput never exceeds raw pipeline capacity;
- the DES conserves queries (all arrivals eventually complete);
- random covering LPs: the built-in simplex allocates exactly as with
  SciPy's HiGHS, infeasible loads included, and the integerized
  allocation always covers or reports shortfall;
- graph roll-ups are additive under sparse/dense splitting.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import HerculesClusterScheduler, integerize, solve_allocation_lp
from repro.models import build_model, partition_model
from repro.plans import ExecutionPlan, Placement
from repro.scheduling import ClassificationTable, EfficiencyTuple
from repro.sim import DiscreteEventServerSim, Query, SimStage, StageMode

_PLAN = ExecutionPlan(Placement.CPU_MODEL_BASED, threads=1)


class TestEvaluatorMonotonicity:
    @settings(max_examples=12, deadline=None)
    @given(
        low=st.floats(0.05, 0.45),
        high=st.floats(0.5, 0.95),
    )
    def test_latency_and_power_monotone_in_load(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload, low, high
    ):
        plan = ExecutionPlan(
            Placement.CPU_MODEL_BASED, threads=10, cores_per_thread=2, batch_size=256
        )
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity_qps = timings.capacity_items_s / rmc1_workload.mean_size
        p_low = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * low)
        p_high = t2_evaluator.perf_at(timings, rmc1_workload, capacity_qps * high)
        assert p_high.latency.p99_ms >= p_low.latency.p99_ms
        assert p_high.power_w >= p_low.power_w
        assert p_high.cpu_util >= p_low.cpu_util

    @settings(max_examples=8, deadline=None)
    @given(sla=st.floats(5.0, 500.0))
    def test_bounded_qps_below_capacity(
        self, t2_evaluator, rmc1_partitioned, rmc1_workload, sla
    ):
        plan = ExecutionPlan(
            Placement.CPU_MODEL_BASED, threads=10, cores_per_thread=2, batch_size=256
        )
        timings = t2_evaluator.plan_timings(rmc1_partitioned, rmc1_workload, plan)
        capacity_qps = timings.capacity_items_s / rmc1_workload.mean_size
        perf = t2_evaluator.latency_bounded(
            rmc1_partitioned, rmc1_workload, plan, sla_ms=sla
        )
        if perf.feasible:
            assert perf.qps <= capacity_qps
            assert perf.latency.p99_ms <= sla


class TestDesConservation:
    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 400), min_size=1, max_size=40),
        units=st.integers(1, 4),
        chunk=st.integers(16, 256),
    )
    def test_all_queries_complete(self, sizes, units, chunk):
        stage = SimStage(
            name="inference",
            units=units,
            mode=StageMode.SPLIT,
            chunk_items=chunk,
            fuse_items=0,
            latency_fn=lambda items: 1e-4 + items * 1e-6,
        )
        queries = [
            Query(query_id=i, arrival_s=i * 1e-3, size=s)
            for i, s in enumerate(sizes)
        ]
        result = DiscreteEventServerSim([stage]).run(queries)
        assert result.completed == len(queries)
        assert (result.latencies_s > 0).all()

    @settings(max_examples=10, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=2, max_size=30),
        fuse=st.integers(0, 600),
    )
    def test_fusion_conserves_queries(self, sizes, fuse):
        stage = SimStage(
            name="inference",
            units=2,
            mode=StageMode.FUSE,
            chunk_items=1,
            fuse_items=fuse,
            latency_fn=lambda items: 1e-4,
        )
        queries = [
            Query(query_id=i, arrival_s=0.0, size=s) for i, s in enumerate(sizes)
        ]
        result = DiscreteEventServerSim([stage]).run(queries)
        assert result.completed == len(queries)
        assert result.items_served == sum(sizes)


class TestLpProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_servers=st.integers(2, 4),
        num_models=st.integers(1, 3),
    )
    def test_integerized_allocation_covers_or_reports(
        self, seed, num_servers, num_models
    ):
        rng = np.random.default_rng(seed)
        table = ClassificationTable()
        fleet = {}
        servers = [f"S{i}" for i in range(num_servers)]
        models = [f"M{j}" for j in range(num_models)]
        for s in servers:
            fleet[s] = int(rng.integers(1, 30))
            for m in models:
                table.add(
                    EfficiencyTuple(
                        server_name=s,
                        model_name=m,
                        qps=float(rng.uniform(50, 5000)),
                        power_w=float(rng.uniform(50, 500)),
                        plan=_PLAN,
                    )
                )
        loads = {m: float(rng.uniform(100, 20_000)) for m in models}
        solution = solve_allocation_lp(table, loads, fleet)
        if not solution.feasible:
            return
        alloc = integerize(solution, table, loads, fleet)
        assert alloc.respects_fleet(fleet)
        for m, load in loads.items():
            covered = alloc.capacity_qps(table, m) + alloc.shortfall.get(m, 0.0)
            assert covered >= load - 1e-3

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), overload=st.sampled_from([1.0, 10.0]))
    def test_simplex_matches_scipy_objective(self, highs_allocation, seed, overload):
        """``overload`` 10 scales the loads past most of these fleets."""
        rng = np.random.default_rng(seed)
        table = ClassificationTable()
        fleet = {"A": int(rng.integers(2, 40)), "B": int(rng.integers(2, 40))}
        for s in fleet:
            for m in ("X", "Y"):
                table.add(
                    EfficiencyTuple(
                        server_name=s,
                        model_name=m,
                        qps=float(rng.uniform(100, 3000)),
                        power_w=float(rng.uniform(80, 400)),
                        plan=_PLAN,
                    )
                )
        loads = {
            "X": overload * float(rng.uniform(500, 30_000)),
            "Y": overload * float(rng.uniform(100, 5_000)),
        }
        reference, highs_w = highs_allocation(table, fleet, loads)
        solution = solve_allocation_lp(table, loads, fleet)
        assert solution.feasible == math.isfinite(highs_w)
        assert solution.objective_w == pytest.approx(highs_w, rel=1e-5, abs=1e-4)
        assert HerculesClusterScheduler(table, fleet).allocate(loads) == reference


class TestGraphSplitAdditivity:
    @pytest.mark.parametrize(
        "name", ["DLRM-RMC1", "DLRM-RMC3", "MT-WnD", "DIN", "DIEN"]
    )
    def test_sparse_plus_dense_equals_whole(self, name):
        model = build_model(name)
        pm = partition_model(model)
        for items in (1, 64, 777):
            whole_flops = model.graph.total_flops(items)
            split_flops = pm.sparse.total_flops(items) + pm.dense.total_flops(items)
            assert split_flops == pytest.approx(whole_flops)
            whole_weights = model.graph.total_weight_bytes()
            split_weights = (
                pm.sparse.total_weight_bytes() + pm.dense.total_weight_bytes()
            )
            assert split_weights == pytest.approx(whole_weights)
