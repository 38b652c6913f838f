"""Unit tests for the fleet routing policies."""

from __future__ import annotations

import pytest

from repro.fleet.routing import (
    ROUTING_POLICIES,
    LeastOutstandingPolicy,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    RoutingError,
    WeightedPolicy,
    make_policy,
)


class _Stub:
    """Minimal replica: what policies are allowed to look at."""

    def __init__(self, weight: float = 1.0, outstanding: int = 0) -> None:
        self.weight = weight
        self.outstanding = outstanding
        self.wrr_current = 0.0


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(ROUTING_POLICIES) == {"rr", "least", "p2c", "weighted"}

    def test_make_policy_unknown_name(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_policy("fifo")

    @pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
    def test_make_policy_instances_are_independent(self, name):
        a, b = make_policy(name, seed=1), make_policy(name, seed=1)
        assert a is not b
        assert a.name == name


class TestRoundRobin:
    def test_cycles_through_candidates(self):
        policy = RoundRobinPolicy()
        servers = [_Stub() for _ in range(3)]
        picks = [policy.choose(servers) for _ in range(6)]
        assert picks == servers + servers

    def test_cursor_survives_membership_change(self):
        policy = RoundRobinPolicy()
        servers = [_Stub() for _ in range(4)]
        for _ in range(3):
            policy.choose(servers)
        # A drained replica shrinks the list; the cursor keeps cycling.
        assert policy.choose(servers[:2]) in servers[:2]


class TestLeastOutstanding:
    def test_picks_minimum_backlog(self):
        servers = [_Stub(outstanding=5), _Stub(outstanding=1), _Stub(outstanding=3)]
        assert LeastOutstandingPolicy().choose(servers) is servers[1]

    def test_ties_break_toward_throughput(self):
        slow = _Stub(weight=100.0, outstanding=2)
        fast = _Stub(weight=4000.0, outstanding=2)
        assert LeastOutstandingPolicy().choose([slow, fast]) is fast


class TestPowerOfTwo:
    def test_single_candidate(self):
        only = _Stub()
        assert PowerOfTwoPolicy(seed=0).choose([only]) is only

    def test_prefers_less_loaded_of_sample(self):
        # With two candidates every sample pair is {a, b} (or a repeat),
        # so the loaded replica can win only against itself.
        light, heavy = _Stub(outstanding=0), _Stub(outstanding=50)
        policy = PowerOfTwoPolicy(seed=3)
        picks = [policy.choose([light, heavy]) for _ in range(200)]
        # The loaded replica wins only on a heavy/heavy sample, so the
        # light replica should take ~3/4 of the picks; 0.65 leaves ~10
        # sigma of slack around the binomial expectation of 150/200.
        assert picks.count(light) > 130

    def test_deterministic_for_seed(self):
        servers = [_Stub(outstanding=i % 3) for i in range(5)]
        a = [PowerOfTwoPolicy(seed=9).choose(servers) for _ in range(20)]
        b = [PowerOfTwoPolicy(seed=9).choose(servers) for _ in range(20)]
        assert a == b


class TestWeighted:
    def test_shares_match_weights(self):
        fast = _Stub(weight=3000.0)
        slow = _Stub(weight=1000.0)
        policy = WeightedPolicy()
        picks = [policy.choose([fast, slow]) for _ in range(400)]
        assert picks.count(fast) == 300
        assert picks.count(slow) == 100

    def test_smooth_interleaving(self):
        # Smooth WRR must not burst: with weights 2:1 the slow replica
        # appears within every 3-pick window.
        fast, slow = _Stub(weight=2.0), _Stub(weight=1.0)
        policy = WeightedPolicy()
        picks = [policy.choose([fast, slow]) for _ in range(9)]
        for i in range(0, 9, 3):
            assert slow in picks[i : i + 3]

    def test_zero_weight_guarded(self):
        broken = _Stub(weight=0.0)
        healthy = _Stub(weight=100.0)
        policy = WeightedPolicy()
        picks = [policy.choose([broken, healthy]) for _ in range(50)]
        assert picks.count(healthy) >= 49


class TestEmptyCandidates:
    """All-replicas-down edge case: a clear error, not an IndexError.

    The fleet engine never routes an empty candidate set (such queries
    are dropped or failed), so this guards direct API users who filter
    replica lists themselves.
    """

    @pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
    def test_choose_on_empty_raises_routing_error(self, name):
        policy = make_policy(name, seed=1)
        with pytest.raises(RoutingError, match="no routable replicas"):
            policy.choose([])

    def test_routing_error_is_runtime_error(self):
        # Catchable both specifically and as a generic runtime failure.
        assert issubclass(RoutingError, RuntimeError)

    @pytest.mark.parametrize("name", sorted(ROUTING_POLICIES))
    def test_single_survivor_still_routable(self, name):
        policy = make_policy(name, seed=1)
        survivor = _Stub()
        assert policy.choose([survivor]) is survivor
