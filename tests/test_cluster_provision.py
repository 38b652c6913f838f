"""Tests for the LP provisioner: simplex substrate, HiGHS parity, rounding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    GreedyScheduler,
    HerculesClusterScheduler,
    SimplexSolver,
    integerize,
    solve_allocation_lp,
)
from repro.cluster.provision import _lp_matrices
from repro.plans import ExecutionPlan, Placement
from repro.scheduling import ClassificationTable, EfficiencyTuple

_PLAN = ExecutionPlan(Placement.CPU_MODEL_BASED, threads=1)


def _table() -> ClassificationTable:
    table = ClassificationTable()
    table.add(EfficiencyTuple("T2", "A", qps=1000, power_w=100, plan=_PLAN))
    table.add(EfficiencyTuple("T3", "A", qps=4000, power_w=150, plan=_PLAN))
    table.add(EfficiencyTuple("T2", "B", qps=100, power_w=90, plan=_PLAN))
    table.add(EfficiencyTuple("T3", "B", qps=400, power_w=120, plan=_PLAN))
    return table


class TestSimplexSolver:
    def test_simple_minimization(self):
        # min x0 + 2 x1  s.t.  -x0 - x1 <= -4 (x0 + x1 >= 4), x <= 10 each
        c = np.array([1.0, 2.0])
        a = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([-4.0, 10.0, 10.0])
        x, obj = SimplexSolver().solve(c, a, b)
        assert x is not None
        assert obj == pytest.approx(4.0)
        assert x[0] == pytest.approx(4.0)

    def test_infeasible_detected(self):
        # x0 >= 5 and x0 <= 2 is infeasible.
        c = np.array([1.0])
        a = np.array([[-1.0], [1.0]])
        b = np.array([-5.0, 2.0])
        x, obj = SimplexSolver().solve(c, a, b)
        assert x is None and math.isinf(obj)

    def test_big_m_infeasible_lp_terminates(self):
        # Overloaded 3x3 LP: at Big-M scale a basic column's reduced cost
        # reads about -6.5e-5 instead of 0, and letting it re-enter
        # pivoted the column onto itself until the iteration limit.
        rng = np.random.default_rng(1186)
        ns, nm = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        table = ClassificationTable()
        for s in range(ns):
            for m in range(nm):
                table.add(
                    EfficiencyTuple(
                        f"S{s}",
                        f"M{m}",
                        qps=rng.uniform(100, 5000),
                        power_w=rng.uniform(80, 2000),
                        plan=_PLAN,
                    )
                )
        fleet = {f"S{s}": int(rng.integers(1, 50)) for s in range(ns)}
        loads = {f"M{m}": rng.uniform(1e4, 3e5) for m in range(nm)}
        assert fleet == {"S0": 45, "S1": 2, "S2": 32}
        _, c, a, b = _lp_matrices(table, loads, fleet, 0.0)
        x, obj = SimplexSolver().solve(c, a, b)
        assert x is None and math.isinf(obj)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SimplexSolver().solve(
                np.array([1.0]), np.array([[1.0, 2.0]]), np.array([1.0])
            )

    @settings(max_examples=30, deadline=None)
    @given(
        costs=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=4),
        demand=st.floats(1.0, 50.0),
    )
    def test_matches_scipy_on_random_covering_lps(self, costs, demand):
        """Covering LPs: min c@x s.t. sum(a_i x_i) >= demand, x_i <= 10."""
        rng = np.random.default_rng(int(demand * 1000) % 2**31)
        n = len(costs)
        rates = rng.uniform(1.0, 10.0, size=n)
        c = np.array(costs)
        a = np.vstack([-rates, np.eye(n)])
        b = np.concatenate([[-demand], np.full(n, 10.0)])
        ours, our_obj = SimplexSolver().solve(c, a, b)
        from scipy.optimize import linprog

        ref = linprog(c, A_ub=a, b_ub=b, method="highs")
        if ref.status == 0:
            assert ours is not None
            assert our_obj == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
        else:
            assert ours is None


class TestSolveAllocationLp:
    def test_fractional_solution_covers_loads(self):
        table = _table()
        loads = {"A": 10_000.0, "B": 800.0}
        fleet = {"T2": 50, "T3": 10}
        sol = solve_allocation_lp(table, loads, fleet)
        assert sol.feasible
        cover_a = sum(
            v * table.qps(s, m) for (s, m), v in sol.values.items() if m == "A"
        )
        assert cover_a >= 10_000.0 - 1e-6

    def test_scipy_and_simplex_agree(self, highs_allocation):
        table = _table()
        fleet = {"T2": 40, "T3": 8}
        loads = {"A": 12_000.0, "B": 1_000.0}
        reference, highs_w = highs_allocation(table, fleet, loads)
        sol = solve_allocation_lp(table, loads, fleet)
        assert sol.objective_w == pytest.approx(highs_w, rel=1e-6)
        assert integerize(sol, table, loads, fleet) == reference

        # HiGHS calls this LP infeasible: the scheduler reports greedy's
        # allocation, shortfall included.
        loads = {"A": 1e9, "B": 1_000.0}
        reference, highs_w = highs_allocation(table, fleet, loads)
        assert math.isinf(highs_w)
        assert not solve_allocation_lp(table, loads, fleet).feasible
        ours = HerculesClusterScheduler(table, fleet).allocate(loads)
        assert ours == reference == GreedyScheduler(table, fleet).allocate(loads)
        assert ours.has_shortfall

    def test_prefers_efficient_servers(self):
        table = _table()
        sol = solve_allocation_lp(table, {"A": 4000.0}, {"T2": 100, "T3": 100})
        # T3 serves A at 26.7 qps/W vs T2's 10: the LP should use T3 only.
        assert all(srv == "T3" for srv, _ in sol.values)

    def test_empty_loads_trivial(self):
        sol = solve_allocation_lp(_table(), {"A": 0.0}, {"T2": 10})
        assert sol.feasible and sol.values == {}

    def test_infeasible_when_fleet_too_small(self):
        sol = solve_allocation_lp(_table(), {"A": 1e9}, {"T2": 1, "T3": 1})
        assert not sol.feasible

    def test_over_provision_rate_raises_cost(self):
        table = _table()
        fleet = {"T2": 100, "T3": 100}
        base = solve_allocation_lp(table, {"A": 10_000.0}, fleet, over_provision=0.0)
        padded = solve_allocation_lp(table, {"A": 10_000.0}, fleet, over_provision=0.2)
        assert padded.objective_w == pytest.approx(1.2 * base.objective_w, rel=1e-6)


class TestIntegerize:
    def test_integer_allocation_covers_loads(self):
        table = _table()
        loads = {"A": 9_500.0, "B": 750.0}
        fleet = {"T2": 50, "T3": 10}
        sol = solve_allocation_lp(table, loads, fleet)
        alloc = integerize(sol, table, loads, fleet)
        assert alloc.covers(table, loads)
        assert alloc.respects_fleet(fleet)
        assert not alloc.has_shortfall

    def test_integer_cost_close_to_fractional(self):
        table = _table()
        loads = {"A": 9_500.0, "B": 750.0}
        fleet = {"T2": 50, "T3": 10}
        sol = solve_allocation_lp(table, loads, fleet)
        alloc = integerize(sol, table, loads, fleet)
        assert alloc.provisioned_power_w(table) <= sol.objective_w * 1.2 + 200

    def test_shortfall_recorded_when_fleet_exhausted(self):
        table = _table()
        loads = {"A": 1e8}
        fleet = {"T2": 2, "T3": 2}
        sol = solve_allocation_lp(table, loads, fleet)
        alloc = integerize(sol, table, loads, fleet)
        assert alloc.has_shortfall
        assert alloc.shortfall["A"] > 0
