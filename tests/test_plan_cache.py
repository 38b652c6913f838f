"""Tests for the shared plan-evaluation cache."""

from __future__ import annotations

import pytest

from repro.hardware import SERVER_TYPES
from repro.models import build_model, partition_model
from repro.plans import ExecutionPlan, Placement
from repro.sim import QueryWorkload, ServerEvaluator
from repro.sim import plan_cache


@pytest.fixture(autouse=True)
def fresh_registry():
    plan_cache.clear_shared_caches()
    yield
    plan_cache.clear_shared_caches()


@pytest.fixture(scope="module")
def rmc1_model():
    return build_model("DLRM-RMC1")


@pytest.fixture(scope="module")
def workload(rmc1_model):
    return QueryWorkload.for_model(rmc1_model.config.mean_query_size)


PLAN = ExecutionPlan(Placement.CPU_MODEL_BASED, threads=4, cores_per_thread=2, batch_size=64)


class TestEvaluatorMemo:
    """The one plan-timings memo, behind ``timings_for``; a
    :class:`ServerEvaluator` recomputes on every call."""

    def test_plan_timings_served_from_cache(self, rmc1_model, workload):
        server = SERVER_TYPES["T2"]
        first = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        second = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        assert second is first
        stats = plan_cache.shared_cache_stats()["timings"]
        assert (stats.hits, stats.misses) == (1, 1)
        evaluator = ServerEvaluator(server)
        partitioned = partition_model(rmc1_model)
        direct = evaluator.plan_timings(partitioned, workload, PLAN)
        assert direct == first and direct is not first
        assert evaluator.plan_timings(partitioned, workload, PLAN) is not direct

    def test_distinct_plans_miss(self, rmc1_model, workload):
        server = SERVER_TYPES["T2"]
        plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        plan_cache.timings_for(server, rmc1_model, workload, PLAN.with_(batch_size=128))
        plan_cache.timings_for(SERVER_TYPES["T3"], rmc1_model, workload, PLAN)
        stats = plan_cache.shared_cache_stats()["timings"]
        assert (stats.hits, stats.misses) == (0, 3)

    def test_infeasible_plans_not_cached(self, rmc1_model, workload):
        server = SERVER_TYPES["T2"]
        bad = ExecutionPlan(
            Placement.CPU_MODEL_BASED, threads=server.cpu.cores + 1, cores_per_thread=2
        )
        for _ in range(2):
            with pytest.raises(ValueError, match="does not fit"):
                plan_cache.timings_for(server, rmc1_model, workload, bad)
        stats = plan_cache.shared_cache_stats()["timings"]
        assert (stats.hits, stats.misses) == (0, 2)

    def test_content_keyed_partitions_share_entries(self, rmc1_model, workload):
        """Structurally equal models hash to the same explicit key.

        Content keys (not object identity) are what keeps the memo
        valid across ``pickle``/``fork`` boundaries: a model built
        twice, or one that crossed a process pool, hits the entry.
        """
        server = SERVER_TYPES["T2"]
        twin = build_model("DLRM-RMC1")
        assert twin is not rmc1_model
        ta = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        tb = plan_cache.timings_for(server, twin, workload, PLAN)
        assert tb is ta
        assert plan_cache.shared_cache_stats()["timings"].hits == 1
        assert plan_cache.partition_key(
            partition_model(rmc1_model)
        ) == plan_cache.partition_key(partition_model(twin))

    def test_clear_resets_stats(self, rmc1_model, workload):
        server = SERVER_TYPES["T2"]
        first = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        plan_cache.clear_shared_caches()
        assert plan_cache.shared_cache_stats()["timings"].lookups == 0
        assert plan_cache.timings_for(server, rmc1_model, workload, PLAN) is not first
        assert plan_cache.shared_cache_stats()["timings"].misses == 1


class TestSharedRegistry:
    def test_shared_evaluator_is_singleton_per_type(self):
        a = plan_cache.shared_evaluator(SERVER_TYPES["T2"])
        b = plan_cache.shared_evaluator(SERVER_TYPES["T2"])
        c = plan_cache.shared_evaluator(SERVER_TYPES["T3"])
        assert a is b
        assert a is not c

    def test_stages_memoized_across_calls(self, rmc1_model, workload):
        server = SERVER_TYPES["T2"]
        first = plan_cache.stages_for(server, rmc1_model, workload, PLAN)
        second = plan_cache.stages_for(server, rmc1_model, workload, PLAN)
        assert second is first
        stats = plan_cache.shared_cache_stats()["stages"]
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_timings_for_shares_the_evaluator_memo(self, rmc1_model, workload):
        """``build_fleet`` and ``allocation_drawn_power_w`` re-read one
        triple's timings from the registry's memo, priced by the shared
        evaluator."""
        server = SERVER_TYPES["T2"]
        first = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        second = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        assert second is first
        assert plan_cache.shared_cache_stats()["timings"].hits == 1
        evaluator = plan_cache.shared_evaluator(server)
        partitioned = plan_cache.partitioned_for(server, rmc1_model, PLAN)
        assert evaluator.plan_timings(partitioned, workload, PLAN) == first

    def test_gpu_model_based_partition_keyed_by_colocation(self, rmc1_model):
        server = SERVER_TYPES["T7"]
        plan1 = ExecutionPlan(
            Placement.GPU_MODEL_BASED, threads=1, fusion_limit=256, sparse_threads=1
        )
        plan2 = plan1.with_(threads=2)
        p1 = plan_cache.partitioned_for(server, rmc1_model, plan1)
        p2 = plan_cache.partitioned_for(server, rmc1_model, plan2)
        assert p1 is plan_cache.partitioned_for(server, rmc1_model, plan1)
        assert p1 is not p2
        assert p1.hot_sparse is not None

    def test_host_partition_shared_across_placements(self, rmc1_model):
        cpu_plan = PLAN
        sd_plan = ExecutionPlan(
            Placement.CPU_SD_PIPELINE,
            threads=0,
            batch_size=64,
            sparse_threads=2,
            dense_threads=2,
        )
        a = plan_cache.partitioned_for(SERVER_TYPES["T2"], rmc1_model, cpu_plan)
        b = plan_cache.partitioned_for(SERVER_TYPES["T2"], rmc1_model, sd_plan)
        assert a is b

    def test_clear_shared_caches(self, rmc1_model, workload):
        plan_cache.stages_for(SERVER_TYPES["T2"], rmc1_model, workload, PLAN)
        plan_cache.clear_shared_caches()
        assert plan_cache.shared_cache_stats()["stages"].lookups == 0


class TestEvictionAndForkSafety:
    def test_keys_survive_pickle_round_trip(self, rmc1_model, workload):
        """Explicit content keys, not object identity: a partitioned
        model that crossed a process boundary (pickle round-trip, as in
        the ProcessPoolExecutor fan-out) must hit the same cache entry."""
        import pickle

        partitioned = partition_model(rmc1_model)
        clone = pickle.loads(pickle.dumps(partitioned))
        assert clone is not partitioned
        assert plan_cache.partition_key(clone) == plan_cache.partition_key(
            partitioned
        )
        key_a = plan_cache.partition_key(partitioned)
        key_b = plan_cache.partition_key(clone)
        assert key_a == key_b and hash(key_a) == hash(key_b)

        server = SERVER_TYPES["T2"]
        model_clone = pickle.loads(pickle.dumps(rmc1_model))
        first = plan_cache.timings_for(server, rmc1_model, workload, PLAN)
        assert plan_cache.timings_for(server, model_clone, workload, PLAN) is first
        assert plan_cache.shared_cache_stats()["timings"].hits == 1

    def test_serviced_stages_shared_across_replicas(self, small_table):
        """``build_fleet`` hands every replica of one (server type,
        model, plan) the same stage records, so their memo tables fill
        once per fleet, not once per replica -- and a rebuilt fleet (a
        provisioning search builds one per candidate) keeps them."""
        from repro.cluster.state import Allocation
        from repro.fleet import build_fleet

        models = {m: build_model(m) for m in ("DLRM-RMC1", "DLRM-RMC2")}
        allocation = Allocation()
        allocation.add("T2", "DLRM-RMC1", 3)
        allocation.add("T7", "DLRM-RMC1", 2)
        allocation.add("T2", "DLRM-RMC2", 2)
        servers = build_fleet(allocation, small_table, models)
        cells: dict[tuple, list] = {}
        for server in servers:
            key = (server.server_type.name, server.model_name)
            cells.setdefault(key, []).append(server.stages)
        assert len(cells) == 3
        for replicas in cells.values():
            assert len(replicas) > 1
            for stages in replicas[1:]:
                assert all(a is b for a, b in zip(stages, replicas[0]))
        assert plan_cache.shared_cache_stats()["stages"].misses == 3
        rebuilt = build_fleet(allocation, small_table, models)
        assert all(
            a is b
            for old, new in zip(servers, rebuilt)
            for a, b in zip(old.stages, new.stages)
        )
