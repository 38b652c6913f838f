"""Pluggable load-balancing policies for the fleet simulator.

Each model's query stream is routed over the replicas currently serving
that model.  Policies range from the oblivious (round-robin) through
the queue-aware (least-outstanding, power-of-two-choices) to the
heterogeneity-aware (smooth weighted round-robin over each replica's
profiled latency-bounded throughput) -- the spread lets the fleet
benches quantify how much routing quality buys in tail latency on a
heterogeneous cluster, the request-level complement of the paper's
provisioning comparison.

A policy instance is per-model (its internal state -- cursors, RNG,
smoothing weights -- must not leak across query streams); build them
through :func:`make_policy`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.fleet.engine import FleetServer

__all__ = [
    "RoutingError",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastOutstandingPolicy",
    "PowerOfTwoPolicy",
    "WeightedPolicy",
    "ROUTING_POLICIES",
    "make_policy",
    "prefer_other_domains",
]


class RoutingError(RuntimeError):
    """No routable replica exists for a query (e.g. all replicas down).

    Policies raise this instead of an opaque ``IndexError`` /
    ``ZeroDivisionError`` so callers can distinguish "the fleet has no
    capacity for this stream right now" from a programming error.  The
    fleet engine checks for emptiness before routing (such queries are
    dropped or failed, not raised), so this surfaces only to direct API
    users.
    """


class RoutingPolicy:
    """Chooses a replica for each arriving query of one model."""

    name = "base"

    #: Whether ``choose`` ignores live queue depth (``outstanding``).
    #: Oblivious policies (rr, weighted) route a whole arrival segment
    #: identically whether or not completions interleave, which is what
    #: lets the vectorized fast core pre-route batches.  Queue-aware
    #: policies force the exact per-event engine, except
    #: :class:`PowerOfTwoPolicy` and :class:`LeastOutstandingPolicy`
    #: themselves, which the vectorized core routes per arrival against
    #: live per-replica queues.
    outstanding_oblivious = False

    def choose(self, candidates: Sequence["FleetServer"]) -> "FleetServer":
        raise NotImplementedError

    def choose_batch(self, candidates: Sequence["FleetServer"], n: int):
        """Route ``n`` consecutive arrivals; returns indices into ``candidates``
        (a list or, where an override vectorizes, a numpy integer array).

        The default loops :meth:`choose`, recovering each pick's
        position by identity -- exact for any policy, but only
        *meaningful* when the policy is outstanding-oblivious (the loop
        sees a frozen queue-depth snapshot; no completions interleave),
        which is the only way the vectorized core calls it.  The
        oblivious policies override it: rr as cursor arithmetic,
        weighted over local credit lists.
        """
        pos = {id(s): i for i, s in enumerate(candidates)}
        choose = self.choose
        return [pos[id(choose(candidates))] for _ in range(n)]


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through replicas regardless of their speed or backlog."""

    name = "rr"
    outstanding_oblivious = True

    def __init__(self, seed: int = 0) -> None:
        self._cursor = 0

    def choose(self, candidates: Sequence["FleetServer"]) -> "FleetServer":
        if not candidates:
            raise RoutingError("no routable replicas (all replicas down?)")
        pick = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return pick

    def choose_batch(self, candidates: Sequence["FleetServer"], n: int):
        """Pure cursor arithmetic: pick ``i`` is ``(cursor + i) % k``."""
        k = len(candidates)
        if not k:
            raise RoutingError("no routable replicas (all replicas down?)")
        cursor = self._cursor
        self._cursor = cursor + n
        return (cursor + np.arange(n)) % k


class LeastOutstandingPolicy(RoutingPolicy):
    """Send to the replica with the fewest in-flight queries.

    Ties break toward the higher-throughput replica, so a fast and a
    slow empty server are not treated as equals, and then toward the
    earlier position in ``candidates``.  The vectorized core's least
    router (``route_least`` in :mod:`repro.sim.fast_core`) reproduces
    this order, so the two change together.
    """

    name = "least"

    def __init__(self, seed: int = 0) -> None:
        pass

    def choose(self, candidates: Sequence["FleetServer"]) -> "FleetServer":
        # Manual argmin over (outstanding, -weight): same pick as
        # min(key=...) -- first minimum wins -- without building a key
        # tuple per replica on the per-arrival hot path.  The scan
        # starts past the seeded first candidate and only touches a
        # replica's ``weight`` on an outstanding tie, so the common
        # no-tie arrival costs one attribute read per replica.
        if not candidates:
            raise RoutingError("no routable replicas (all replicas down?)")
        it = iter(candidates)
        best = next(it)
        best_out = best.outstanding
        best_w = best.weight
        for server in it:
            out = server.outstanding
            if out < best_out:
                best = server
                best_out = out
                best_w = server.weight
            elif out == best_out:
                w = server.weight
                if w > best_w:
                    best = server
                    best_w = w
        return best


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two replicas, send to the less-loaded one.

    The classic O(1) approximation of least-outstanding: most of the
    tail benefit at a fraction of the bookkeeping.  The vectorized
    core's p2c router (``route_p2c`` in :mod:`repro.sim.fast_core`)
    replays :meth:`choose` draw for draw, so the two change together.
    """

    name = "p2c"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._random = self._rng.random

    def choose(self, candidates: Sequence["FleetServer"]) -> "FleetServer":
        # Indices come from the C-level ``random()`` instead of
        # ``randrange`` (which loops in Python): routing is the fleet's
        # per-arrival hot path.  Still uniform and seed-deterministic;
        # the guard covers the half-ulp case where ``r * n`` rounds up.
        n = len(candidates)
        if n == 1:
            return candidates[0]
        if n == 0:
            raise RoutingError("no routable replicas (all replicas down?)")
        rand = self._random
        i = int(rand() * n)
        j = int(rand() * n)
        if i >= n:
            i = n - 1
        if j >= n:
            j = n - 1
        a = candidates[i]
        if i == j:
            # Same replica drawn twice: comparing it to itself always
            # returns it, so skip the queue-depth reads entirely.
            return a
        b = candidates[j]
        b_out = b.outstanding
        a_out = a.outstanding
        if b_out < a_out or (b_out == a_out and b.weight > a.weight):
            return b
        return a


class WeightedPolicy(RoutingPolicy):
    """Smooth weighted round-robin by profiled throughput.

    Heterogeneity-aware but backlog-oblivious: each replica receives
    queries in proportion to its latency-bounded throughput (a T7 GPU
    box absorbs a multiple of a T2's stream).  Uses the nginx smooth
    WRR scheme, which interleaves picks instead of bursting them.
    """

    name = "weighted"
    outstanding_oblivious = True

    def __init__(self, seed: int = 0) -> None:
        pass

    def choose(self, candidates: Sequence["FleetServer"]) -> "FleetServer":
        if not candidates:
            raise RoutingError("no routable replicas (all replicas down?)")
        total = 0.0
        best = candidates[0]
        for server in candidates:
            weight = max(server.weight, 1e-9)
            server.wrr_current += weight
            total += weight
            if server.wrr_current > best.wrr_current:
                best = server
        best.wrr_current -= total
        return best

    def choose_batch(self, candidates: Sequence["FleetServer"], n: int) -> list[int]:
        """Smooth-WRR over local credit lists, written back once.

        Replays :meth:`choose`'s float sequence exactly -- same clamped
        weights added in the same order, same strict-``>`` argmax over
        already-updated credits, same ``total`` subtraction -- but the
        weights are clamped once per batch and the per-server
        ``wrr_current`` attribute traffic happens at the boundaries
        instead of per query.
        """
        k = len(candidates)
        if k == 0:
            raise RoutingError("no routable replicas (all replicas down?)")
        weights = [max(s.weight, 1e-9) for s in candidates]
        credits = [s.wrr_current for s in candidates]
        # choose() accumulates `total` per call in candidate order; the
        # candidate set is frozen across the batch, so the sum is the
        # same float every iteration.
        total = 0.0
        for w in weights:
            total += w
        out = []
        append = out.append
        rng = range(k)
        for _ in range(n):
            best = 0
            for i in rng:
                credits[i] += weights[i]
                if credits[i] > credits[best]:
                    best = i
            credits[best] -= total
            append(best)
        for server, credit in zip(candidates, credits):
            server.wrr_current = credit
        return out


def prefer_other_domains(
    candidates: Sequence["FleetServer"], attempted_domains: set
) -> Sequence["FleetServer"]:
    """Filter ``candidates`` to replicas outside the attempted fault domains.

    Used by hedged dispatch: the duplicate attempt should land in a
    fault domain the query has not touched, so one correlated rack or
    power-domain failure cannot kill both attempts.  Falls back to the
    unfiltered candidates when every live replica shares an attempted
    domain -- a same-domain hedge still beats no hedge.  When no fault
    domains are declared every replica is its own singleton domain and
    the filter returns ``candidates`` element-for-element, keeping
    hedge placement (and its policy RNG draws) unchanged.
    """
    fresh = [s for s in candidates if s.domain not in attempted_domains]
    return fresh or candidates


#: Policy registry: CLI/bench names -> constructor taking a seed.
ROUTING_POLICIES: dict[str, Callable[[int], RoutingPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastOutstandingPolicy.name: LeastOutstandingPolicy,
    PowerOfTwoPolicy.name: PowerOfTwoPolicy,
    WeightedPolicy.name: WeightedPolicy,
}


def make_policy(name: str, seed: int = 0) -> RoutingPolicy:
    """Instantiate a routing policy by registry name."""
    try:
        factory = ROUTING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; choose from {sorted(ROUTING_POLICIES)}"
        ) from None
    return factory(seed)
