"""Shared fixtures: models, evaluators, and a small profiled table.

Expensive artifacts (model graphs, evaluators, efficiency tables) are
session-scoped so the suite stays fast while every test works against
real production-scale configurations.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster import GreedyScheduler, LpSolution, integerize
from repro.cluster.provision import _lp_matrices
from repro.hardware import SERVER_TYPES
from repro.models import ModelVariant, build_model, partition_model
from repro.scheduling import OfflineProfiler
from repro.sim import QueryWorkload, ServerEvaluator


@pytest.fixture(scope="session")
def rmc1():
    return build_model("DLRM-RMC1")


@pytest.fixture(scope="session")
def rmc3():
    return build_model("DLRM-RMC3")


@pytest.fixture(scope="session")
def din():
    return build_model("DIN")


@pytest.fixture(scope="session")
def rmc1_small():
    return build_model("DLRM-RMC1", ModelVariant.SMALL)


@pytest.fixture(scope="session")
def rmc1_partitioned(rmc1):
    return partition_model(rmc1)


@pytest.fixture(scope="session")
def rmc1_workload(rmc1):
    return QueryWorkload.for_model(rmc1.config.mean_query_size)


@pytest.fixture(scope="session")
def t2_evaluator():
    return ServerEvaluator(SERVER_TYPES["T2"])


@pytest.fixture(scope="session")
def t3_evaluator():
    return ServerEvaluator(SERVER_TYPES["T3"])


@pytest.fixture(scope="session")
def t7_evaluator():
    return ServerEvaluator(SERVER_TYPES["T7"])


@pytest.fixture(scope="session")
def small_table():
    """Efficiency table for a T2/T3/T7 cluster serving RMC1 + RMC2."""
    servers = [SERVER_TYPES[s] for s in ("T2", "T3", "T7")]
    models = [build_model("DLRM-RMC1"), build_model("DLRM-RMC2")]
    return OfflineProfiler().profile(servers, models)


@pytest.fixture(scope="session")
def highs_allocation():
    """The Hercules allocation with SciPy's HiGHS as the LP solver.

    The test-only reference for the built-in simplex: HiGHS solves the
    same ``_lp_matrices`` LP, a feasible optimum is integerized as
    ``HerculesClusterScheduler.allocate`` integerizes the simplex's, and
    an LP HiGHS calls infeasible falls back to greedy.  Returns
    ``(allocation, objective_w)``, the objective ``inf`` when HiGHS
    calls the LP infeasible.
    """
    # Imported here: CI's numpy-only job loads this conftest without scipy.
    from scipy.optimize import linprog

    def allocate(table, fleet, loads, over_provision=0.0):
        active = {m: q for m, q in loads.items() if q > 0}
        variables, c, a_ub, b_ub = _lp_matrices(table, active, fleet, over_provision)
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
        if res.status != 0:
            greedy = GreedyScheduler(table, fleet).allocate(loads, over_provision)
            return greedy, math.inf
        values = {var: float(v) for var, v in zip(variables, res.x) if v > 1e-9}
        solution = LpSolution(values=values, objective_w=float(res.fun), feasible=True)
        allocation = integerize(solution, table, active, fleet, over_provision)
        return allocation, solution.objective_w

    return allocate
