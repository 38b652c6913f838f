"""Tests for the four cluster scheduling policies."""

from __future__ import annotations

import math

import pytest

from repro.cluster import (
    GreedyScheduler,
    HerculesClusterScheduler,
    NHScheduler,
    PriorityAwareScheduler,
)
from repro.plans import ExecutionPlan, Placement
from repro.scheduling import ClassificationTable, EfficiencyTuple

_PLAN = ExecutionPlan(Placement.CPU_MODEL_BASED, threads=1)


def _asymmetric_table() -> ClassificationTable:
    """RMC2-like workload B benefits far more from the NMP type T3."""
    table = ClassificationTable()
    table.add(EfficiencyTuple("T2", "A", qps=1800, power_w=104, plan=_PLAN))
    table.add(EfficiencyTuple("T3", "A", qps=2400, power_w=130, plan=_PLAN))
    table.add(EfficiencyTuple("T2", "B", qps=110, power_w=78, plan=_PLAN))
    table.add(EfficiencyTuple("T3", "B", qps=330, power_w=116, plan=_PLAN))
    return table


FLEET = {"T2": 70, "T3": 15}
LOADS = {"A": 30_000.0, "B": 4_000.0}
ALL_POLICIES = [
    NHScheduler,
    GreedyScheduler,
    PriorityAwareScheduler,
    HerculesClusterScheduler,
]


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_every_policy_covers_the_load(policy, small_table):
    fleet = {"T2": 70, "T3": 15, "T7": 5}
    loads = {"DLRM-RMC1": 20_000.0, "DLRM-RMC2": 3_000.0}
    scheduler = policy(small_table, fleet)
    alloc = scheduler.allocate(loads, over_provision=0.05)
    assert alloc.respects_fleet(fleet)
    assert not alloc.has_shortfall
    assert alloc.covers(small_table, loads, over_provision=0.05)


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_zero_load_allocates_nothing(policy):
    scheduler = policy(_asymmetric_table(), dict(FLEET))
    alloc = scheduler.allocate({"A": 0.0, "B": 0.0})
    assert alloc.total_servers == 0


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_shortfall_reported_when_impossible(policy):
    scheduler = policy(_asymmetric_table(), {"T2": 1, "T3": 1})
    alloc = scheduler.allocate({"A": 1e7, "B": 1e7})
    assert alloc.has_shortfall


def test_greedy_beats_nh_on_power():
    table = _asymmetric_table()
    nh = NHScheduler(table, dict(FLEET)).allocate(LOADS)
    greedy = GreedyScheduler(table, dict(FLEET)).allocate(LOADS)
    assert greedy.provisioned_power_w(table) <= nh.provisioned_power_w(table)


def test_priority_gives_contested_type_to_bigger_gainer():
    """The Fig. 8(c) insight: B (RMC2-like) claims the NMP servers."""
    table = _asymmetric_table()
    priority = PriorityAwareScheduler(table, dict(FLEET))
    alloc = priority.allocate(LOADS)
    t3_for_b = alloc.counts.get(("T3", "B"), 0)
    t3_for_a = alloc.counts.get(("T3", "A"), 0)
    assert t3_for_b > 0
    # B's benefit ratio (330/116 vs 110/78 -> 2.0x) beats A's (1.6x),
    # so B is served before A touches T3.
    needed_by_b = -(-4000 // 330)
    assert t3_for_b >= min(needed_by_b, FLEET["T3"])


def test_hercules_never_worse_than_greedy_on_fixture():
    table = _asymmetric_table()
    greedy = GreedyScheduler(table, dict(FLEET)).allocate(LOADS)
    hercules = HerculesClusterScheduler(table, dict(FLEET)).allocate(LOADS)
    assert hercules.provisioned_power_w(table) <= greedy.provisioned_power_w(
        table
    ) * 1.02
    assert not hercules.has_shortfall


def test_hercules_simplex_backend_matches_scipy(highs_allocation):
    table = _asymmetric_table()
    for fleet, loads, lp_feasible in (
        (FLEET, LOADS, True),
        (FLEET, {"A": 1e6, "B": 4_000.0}, False),
        ({"T2": 1, "T3": 1}, {"A": 1e7}, False),
    ):
        reference, highs_w = highs_allocation(table, dict(fleet), loads, 0.05)
        assert math.isfinite(highs_w) == lp_feasible
        ours = HerculesClusterScheduler(table, dict(fleet)).allocate(loads, 0.05)
        assert ours == reference
        if not lp_feasible:
            greedy = GreedyScheduler(table, dict(fleet)).allocate(loads, 0.05)
            assert ours == greedy and ours.has_shortfall


def test_hercules_falls_back_to_greedy_when_infeasible():
    table = _asymmetric_table()
    scheduler = HerculesClusterScheduler(table, {"T2": 1, "T3": 1})
    alloc = scheduler.allocate({"A": 1e7})
    assert alloc.has_shortfall
    assert alloc.total_servers == 2  # everything available was used


def test_negative_fleet_rejected():
    with pytest.raises(ValueError):
        GreedyScheduler(_asymmetric_table(), {"T2": -1})
