"""Perf-regression lane: the hot-path scenarios of ``repro.perfbench``.

Runs the same fixed-seed scenarios as ``python -m repro.cli bench
--quick`` under the pytest-benchmark harness, prints the summary
table, and records machine-readable metrics to
``benchmarks/results/bench_perf_core.json`` (same schema as the
repo-root ``BENCH_perf.json``).

Assertions are sanity-only (every scenario ran and produced work, and
every gated metric is in the document): wall times are *recorded*,
never asserted, so a slow CI box cannot fail the lane -- regressions
are judged by comparing BENCH_perf.json across commits.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import format_table
from repro.perfbench import BENCH_GATES, SCENARIOS, run_bench

SEED = 0


def test_perf_core_scenarios(benchmark, show, record):
    doc = run_once(benchmark, lambda: run_bench(quick=True, seed=SEED, jobs=1))
    record(doc)

    rows = []
    for name, metrics in doc["scenarios"].items():
        rate = (
            metrics.get("queries_per_s")
            or metrics.get("pairs_per_s")
            or metrics.get("evaluations_per_s")
            or 0.0
        )
        rows.append(
            [
                name,
                round(metrics["wall_s"], 3),
                round(rate),
                metrics.get("events") or "-",
            ]
        )
    show(
        format_table(
            ["scenario", "wall s", "rate /s", "events"],
            rows,
            title=f"perf-core quick scenarios (seed {SEED})",
        )
    )

    scenarios = doc["scenarios"]
    assert tuple(scenarios) == SCENARIOS
    # compare_bench only SKIPs a gated metric that goes missing, so a
    # renamed or dropped one must fail here instead; so must a gate
    # whose legs are no longer timed in interleaved rounds.
    for scenario, metric, *_ in BENCH_GATES:
        assert isinstance(scenarios[scenario][metric], float), (scenario, metric)
        rounds = scenarios[scenario][f"{metric}_rounds"]
        assert rounds and all(isinstance(r, float) for r in rounds), (
            scenario, metric,
        )
    assert all(m["wall_s"] > 0 for m in scenarios.values())
    assert scenarios["fleet_replay"]["completed"] > 0
    assert scenarios["fleet_replay"]["events"] > scenarios["fleet_replay"]["queries"]
    assert scenarios["single_node_des"]["completed"] > 0
    assert scenarios["profile_table"]["feasible_pairs"] > 0
    assert scenarios["search"]["feasible"] == scenarios["search"]["pairs"]
    # An empty fault schedule matched no schedule (the scenario raises
    # on any float mismatch) and the tracked loop reported its cost.
    assert scenarios["fleet_replay_faultpath"]["ratio_tracked_vs_fault_off"] > 0
