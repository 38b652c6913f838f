"""The perf harness's fleet traffic, pinned.

Every fleet scenario of ``repro.perfbench`` draws its replicas and
arrivals from one builder; these pins catch a builder change that
would silently move a scenario's traffic (and with it every number
``bench --compare`` diffs across commits).
"""

from __future__ import annotations

from repro.perfbench import run_bench


def test_quick_fleet_traffic():
    doc = run_bench(
        quick=True,
        seed=0,
        scenarios=(
            "fleet_replay",
            "fleet_replay_fastcore",
            "fleet_replay_queueaware",
        ),
    )
    scenarios = doc["scenarios"]
    # The two-model fleet: 12 configured servers round to 11 replicas,
    # and both scenarios replay the same 10,047 arrivals.
    for name in ("fleet_replay", "fleet_replay_fastcore"):
        assert (scenarios[name]["servers"], scenarios[name]["queries"]) == (
            11,
            10_047,
        ), name
    # The queue-aware scenario spreads one model over 24 replicas.
    queueaware = scenarios["fleet_replay_queueaware"]
    assert (queueaware["servers"], queueaware["queries"]) == (24, 20_056)
