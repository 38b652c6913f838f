"""The perf harness's fleet traffic and leg table, pinned.

Every fleet scenario of ``repro.perfbench`` draws its replicas and
arrivals from one builder; the traffic pins catch a builder change
that would silently move a scenario's traffic (and with it every
number ``bench --compare`` diffs across commits).  The seven
fleet-replay scenarios are rows of one scenario table timed by one
round timer; the contract tests pin what that timer writes and that a
leg whose report drifts from its reference leg fails the run.
"""

from __future__ import annotations

import pytest

from repro import perfbench
from repro.perfbench import run_bench


@pytest.fixture(scope="module")
def replay_doc():
    """One quick-mode run of every leg-table scenario."""
    return run_bench(quick=True, seed=0, scenarios=tuple(perfbench._REPLAY_SCENARIOS))


def test_quick_fleet_traffic(replay_doc):
    scenarios = replay_doc["scenarios"]
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


def test_ratios_are_best_wall_quotients_with_rounds(replay_doc):
    """Each ratio divides its two legs' best walls, and ``_rounds``
    holds one quotient per round of its scenario."""
    for name, spec in perfbench._REPLAY_SCENARIOS.items():
        block = replay_doc["scenarios"][name]
        wall = {leg: block[key] for key, leg in spec.walls.items()}
        for ratio, (leg, base) in spec.ratios.items():
            assert block[ratio] == wall[leg] / wall[base], (name, ratio)
            rounds = block[f"{ratio}_rounds"]
            assert len(rounds) == spec.rounds, (name, ratio)
            assert all(isinstance(r, float) and r > 0 for r in rounds)


def test_leg_diverging_from_its_reference_fails(monkeypatch):
    """A priced leg replayed on another seed no longer equals the bare
    leg it is checked against: the run fails naming both and the field."""
    leg = perfbench._LEGS["p2c_auto_carbon"]
    monkeypatch.setitem(perfbench._LEGS, "p2c_auto_carbon", {**leg, "seed": 1})
    with pytest.raises(
        AssertionError, match="'p2c_auto_carbon'.*'p2c_auto' on per_model"
    ):
        run_bench(quick=True, seed=0, scenarios=("fleet_replay_carbonpath",))
