"""Constrained-optimization provisioner (paper Section IV-C).

Hercules formulates cluster provisioning as a linear program:

    minimize    sum_{h,m} N_{h,m} * Power_{h,m}                  (1)
    subject to  sum_h N_{h,m} * QPS_{h,m} >= load_m * (1 + R)    (2)
                sum_m N_{h,m} <= N_h                             (3)
                N_{h,m} >= 0

The paper solves it with a standard interior-point/simplex solver; we
solve it with a self-contained dense Big-M primal simplex, so the
runtime needs numpy only (the tests check it against SciPy's HiGHS).
The fractional optimum is then integerized: floor, then greedily repair
any residual coverage deficit with the most power-efficient available
servers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.state import Allocation
from repro.scheduling.profiler import ClassificationTable
from repro.sim import plan_cache
from repro.sim.queries import QueryWorkload

if TYPE_CHECKING:
    from repro.models.zoo import RecommendationModel

__all__ = [
    "LpSolution",
    "SimplexSolver",
    "solve_allocation_lp",
    "integerize",
    "allocation_drawn_power_w",
    "standby_power_w",
]

# Cost of an artificial variable in the Big-M phase.
_BIG_M = 1e9
# Pivot budget; the provisioning LPs finish in a few dozen pivots.
_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class LpSolution:
    """Fractional solution of the provisioning LP.

    Attributes:
        values: ``(server_name, model_name) -> fractional server count``.
        objective_w: Provisioned power of the fractional optimum.
        feasible: False when the fleet cannot cover the loads even
            fractionally.
    """

    values: dict[tuple[str, str], float]
    objective_w: float
    feasible: bool


class SimplexSolver:
    """Dense Big-M primal simplex for ``min c@x s.t. A x <= b, x >= 0``.

    Small and dependency-free: the provisioning LPs have at most a few
    dozen variables (|server types| x |models|) and |types| + |models|
    constraints.  Rows with negative ``b`` (the >= coverage rows after
    negation) receive artificial variables priced at Big-M.
    """

    def solve(
        self, c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray
    ) -> tuple[np.ndarray | None, float]:
        """Return (x, objective) or (None, inf) when infeasible."""
        c = np.asarray(c, dtype=float)
        a = np.asarray(a_ub, dtype=float)
        b = np.asarray(b_ub, dtype=float)
        rows, cols = a.shape
        if b.shape != (rows,) or c.shape != (cols,):
            raise ValueError("inconsistent LP dimensions")

        # Normalize to b >= 0, tracking which rows need artificials.
        a = a.copy()
        b = b.copy()
        flipped = b < 0
        a[flipped] *= -1.0
        b[flipped] *= -1.0
        # Flipped rows became >=: slack enters with -1 and an artificial
        # basis column is required; plain rows take a +1 slack.
        num_art = int(flipped.sum())
        tableau_cols = cols + rows + num_art
        tab = np.zeros((rows, tableau_cols))
        tab[:, :cols] = a
        cost = np.zeros(tableau_cols)
        cost[:cols] = c
        basis = np.empty(rows, dtype=int)

        art_idx = cols + rows
        for i in range(rows):
            slack_col = cols + i
            if flipped[i]:
                tab[i, slack_col] = -1.0
                tab[i, art_idx] = 1.0
                cost[art_idx] = _BIG_M
                basis[i] = art_idx
                art_idx += 1
            else:
                tab[i, slack_col] = 1.0
                basis[i] = slack_col

        rhs = b.copy()
        for _ in range(_MAX_ITERATIONS):
            cb = cost[basis]
            # Reduced costs via the current basis rows (tab kept in
            # basis-canonical form by the pivots below).
            reduced = cost - cb @ tab
            # A basic column's reduced cost is 0 in exact arithmetic, but
            # at Big-M scale float noise can make it negative; re-entering
            # it would pivot the column onto itself until the limit.
            reduced[basis] = 0.0
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -1e-9:
                break  # optimal
            column = tab[:, entering]
            positive = column > 1e-12
            if not positive.any():
                return None, math.inf  # unbounded (cannot happen here)
            ratios = np.full(rows, np.inf)
            ratios[positive] = rhs[positive] / column[positive]
            leaving = int(np.argmin(ratios))
            pivot = tab[leaving, entering]
            tab[leaving] /= pivot
            rhs[leaving] /= pivot
            for i in range(rows):
                if i != leaving and abs(tab[i, entering]) > 1e-12:
                    factor = tab[i, entering]
                    tab[i] -= factor * tab[leaving]
                    rhs[i] -= factor * rhs[leaving]
            basis[leaving] = entering
        else:
            raise RuntimeError("simplex iteration limit exceeded")

        x = np.zeros(tableau_cols)
        x[basis] = rhs
        if (x[cols + rows :] > 1e-6).any():
            return None, math.inf  # artificials in basis -> infeasible
        solution = x[:cols]
        return solution, float(c @ solution)


def _lp_matrices(
    table: ClassificationTable,
    loads: dict[str, float],
    fleet: dict[str, int],
    over_provision: float,
) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray, np.ndarray]:
    """Build (variables, c, A_ub, b_ub) for the provisioning LP."""
    servers = [s for s in fleet if fleet[s] > 0]
    models = list(loads)
    variables = [
        (srv, model)
        for srv in servers
        for model in models
        if table.get(srv, model).feasible
    ]
    if not variables:
        raise ValueError("no feasible (server, model) pairs in the table")
    c = np.array([table.power(srv, model) for srv, model in variables])
    rows = []
    b = []
    for model in models:  # coverage: -sum qps x <= -load(1+R)
        row = np.array(
            [
                -table.qps(srv, m) if m == model else 0.0
                for srv, m in variables
            ]
        )
        rows.append(row)
        b.append(-loads[model] * (1.0 + over_provision))
    for srv in servers:  # availability: sum_m x <= N_h
        row = np.array([1.0 if s == srv else 0.0 for s, _ in variables])
        rows.append(row)
        b.append(float(fleet[srv]))
    return variables, c, np.vstack(rows), np.array(b)


def solve_allocation_lp(
    table: ClassificationTable,
    loads: dict[str, float],
    fleet: dict[str, int],
    over_provision: float = 0.0,
) -> LpSolution:
    """Solve the fractional provisioning LP with :class:`SimplexSolver`.

    Args:
        table: Offline-profiled efficiency tuples.
        loads: Current per-model load (QPS).
        fleet: Per-type availability ``N_h``.
        over_provision: Over-provision rate ``R`` (e.g. 0.1 for 10%).
    """
    active_loads = {m: q for m, q in loads.items() if q > 0}
    if not active_loads:
        return LpSolution(values={}, objective_w=0.0, feasible=True)
    variables, c, a_ub, b_ub = _lp_matrices(
        table, active_loads, fleet, over_provision
    )
    x, objective = SimplexSolver().solve(c, a_ub, b_ub)
    if x is None:
        return LpSolution(values={}, objective_w=math.inf, feasible=False)
    values = {
        var: float(val) for var, val in zip(variables, x) if val > 1e-9
    }
    return LpSolution(values=values, objective_w=objective, feasible=True)


def integerize(
    solution: LpSolution,
    table: ClassificationTable,
    loads: dict[str, float],
    fleet: dict[str, int],
    over_provision: float = 0.0,
) -> Allocation:
    """Round the fractional LP solution to whole servers.

    Floors every fractional count, then repairs residual coverage per
    model by adding the available server with the lowest power per unit
    of *useful* coverage -- the same marginal criterion the LP
    optimizes.  Records an explicit shortfall when the fleet runs out.
    """
    allocation = Allocation()
    used: dict[str, int] = {srv: 0 for srv in fleet}
    for (srv, model), value in solution.values.items():
        count = int(math.floor(value + 1e-9))
        count = min(count, fleet[srv] - used[srv])
        if count > 0:
            allocation.add(srv, model, count)
            used[srv] += count

    for model, load in loads.items():
        target = load * (1.0 + over_provision)
        deficit = target - allocation.capacity_qps(table, model)
        while deficit > 1e-6:
            best: tuple[float, str] | None = None
            for srv, available in fleet.items():
                if used.get(srv, 0) >= available:
                    continue
                tup = table.entries.get((srv, model))
                if tup is None or not tup.feasible:
                    continue
                useful = min(tup.qps, deficit)
                if useful <= 0:
                    continue
                marginal = tup.power_w / useful
                if best is None or marginal < best[0]:
                    best = (marginal, srv)
            if best is None:
                allocation.shortfall[model] = deficit
                break
            _, srv = best
            allocation.add(srv, model, 1)
            used[srv] = used.get(srv, 0) + 1
            deficit = target - allocation.capacity_qps(table, model)
    return allocation


def standby_power_w(
    allocation: Allocation,
    baseline: Allocation,
    table: ClassificationTable,
) -> float:
    """Provisioned power of the replicas ``allocation`` holds beyond
    ``baseline``.

    The per-cell surplus (``allocation.minus(baseline)``) priced at the
    profiled peak power -- the budget line item a fault-aware
    provisioner pays for availability headroom over the fault-blind
    allocation.  Cells present only in ``baseline`` contribute nothing
    (standby capacity cannot be negative per cell).
    """
    return allocation.minus(baseline).provisioned_power_w(table)


def allocation_drawn_power_w(
    allocation: Allocation,
    table: ClassificationTable,
    loads: dict[str, float],
    models: "dict[str, RecommendationModel]",
    workloads: dict[str, QueryWorkload] | None = None,
) -> float:
    """Analytic wall power an allocation draws at the *actual* loads.

    The LP objective charges each activated server its profiled peak
    power ``Power_{h,m}`` (the provisioned budget); off-peak, servers
    run below their latency-bounded operating point and draw less.
    This estimates the drawn power by splitting each model's load over
    its servers in proportion to their profiled throughput and pricing
    each share through the closed-form queueing model -- every timings
    lookup comes from the shared :mod:`repro.sim.plan_cache`, so a
    48-interval day re-prices plans instead of re-deriving them.
    """
    from repro.hardware.server import get_server_type

    total = 0.0
    for (srv_name, model_name), count in allocation.counts.items():
        tup = table.get(srv_name, model_name)
        server = get_server_type(srv_name)
        load = loads.get(model_name, 0.0)
        capacity = allocation.capacity_qps(table, model_name)
        share_qps = load * tup.qps / capacity if capacity > 0 else 0.0
        if share_qps <= 0 or tup.plan is None:
            total += count * server.idle_w
            continue
        model = models[model_name]
        workload = (workloads or {}).get(
            model_name
        ) or QueryWorkload.for_model(model.config.mean_query_size)
        timings = plan_cache.timings_for(server, model, workload, tup.plan)
        evaluator = plan_cache.shared_evaluator(server)
        perf = evaluator.perf_at(timings, workload, min(share_qps, tup.qps))
        total += count * (perf.power_w if perf.feasible else tup.power_w)
    return total
