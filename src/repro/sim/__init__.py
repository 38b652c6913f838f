"""Serving simulation: queries, load generation, evaluator, DES."""

from repro.sim import plan_cache
from repro.sim.evaluator import PlanTimings, ServerEvaluator, Stage
from repro.sim.loadgen import generate_trace
from repro.sim.metrics import LatencyStats, ServerPerformance, percentile
from repro.sim.queries import (
    PoolingFactorDistribution,
    Query,
    QuerySizeDistribution,
    QueryWorkload,
)
from repro.sim.server_sim import (
    DiscreteEventServerSim,
    SimResult,
    SimStage,
    StageMode,
    build_stages,
    simulate,
)

__all__ = [
    "plan_cache",
    "PlanTimings",
    "ServerEvaluator",
    "Stage",
    "generate_trace",
    "LatencyStats",
    "ServerPerformance",
    "percentile",
    "PoolingFactorDistribution",
    "Query",
    "QuerySizeDistribution",
    "QueryWorkload",
    "DiscreteEventServerSim",
    "SimResult",
    "SimStage",
    "StageMode",
    "build_stages",
    "simulate",
]
