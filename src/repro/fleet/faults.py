"""Deterministic fault injection for the fleet simulator.

The paper's cluster story is a provisioning story; whether it survives
contact with production depends on how the serving tier degrades when
replicas die or stall mid-interval.  This module adds that degradation
as a first-class, *seed-deterministic* input to the fleet DES:

- :class:`FaultEvent` / :class:`FaultSchedule` -- scripted and
  stochastic fault timelines (replica crash, crash-with-recovery,
  slowdown/straggler factors, transient blips).  ``materialize``
  expands a schedule into atomic, time-sorted events for a concrete
  fleet, so identical ``(schedule, fleet, seed)`` triples always
  replay identically.
- The engine's two replay loops.  The *light* loop serves every run
  without retries, hedging or tracing: crashed replicas leave the
  routable set and their in-flight queries fail; stragglers have their
  stage service times scaled.  With no faults scheduled it is the
  pre-fault hot loop, float for float.  :func:`run_fault_loop` is the
  *tracked* loop: lost queries are re-enqueued at the router (up to a
  retry budget) or failed, and hedged dispatch races a duplicate
  attempt on a second replica after a configurable delay.  With an
  empty schedule both loops execute the same float operations in the
  same order, which ``tests/test_perf_equivalence.py`` enforces with
  exact equality.

Fault semantics (all deterministic):

- ``crash``: the replica is removed from routing, its queued and
  in-service batches are cancelled, and every query that loses its
  last outstanding attempt is retried at the router (if the per-query
  retry budget allows and a routable replica exists) or failed.
  Arrivals at exactly the crash timestamp still route to the dying
  replica (arrivals win ties, as everywhere in the event loops).
- ``recover``: a replica that was serving when it crashed rejoins the
  routable set with empty queues; standby/draining replicas come back
  cold, available to the autoscaler again.
- ``slow`` / ``restore``: batches *started* while the factor is active
  take ``factor``x their nominal service time (in-flight batches keep
  their scheduled completions).
- Overlapping episodes on one replica resolve conservatively: a crash
  landing inside another crash's recovery window extends the outage to
  the *last* scheduled recover (a crash with no recover pins the
  replica dead); overlapping slowdowns apply the latest factor and end
  at the last scheduled restore.
- Hedging: at most one hedge per query; the duplicate attempt targets a
  replica the query has not tried, preferring one in a fault domain the
  query has not touched (see below).  The query completes at its
  fastest finishing attempt; the loser's work still counts against its
  server.
- Correlated fault domains: replicas can be grouped into rack /
  power-domain style :class:`FaultDomains`; a domain-targeted fault
  fires on *every* member at the same timestamp (they leave the
  routable set together), and hedged dispatch avoids placing both
  attempts of one query inside a single domain whenever a live replica
  exists in another domain.  Replicas outside any declared domain are
  singleton domains of their own, which makes the domain-aware code
  paths exact no-ops for undeclared fleets.

CLI spec grammar (``python -m repro.cli fleet --faults ...``):

The spec is a list of *sections* separated by ``;``.  A section is
either a single ``random:`` clause or a comma-separated list of
scripted entries.  Times and durations are seconds and accept an
optional ``s`` suffix (``crash@5s:dom0`` == ``crash@5:dom0``).

Scripted entries (``TGT`` is a replica index, or ``domN`` for fault
domain ``N``):

- ``crash@T:TGT`` -- kill the target at ``T`` seconds (for good).
- ``crash@T:TGT+DUR`` -- crash, recover after ``DUR`` seconds.
- ``blip@T:TGT[+DUR]`` -- transient crash (default recovery 0.25 s).
- ``slow@T:TGT*F[+DUR]`` -- straggler: service times x ``F`` from
  ``T``, optionally restored after ``DUR`` seconds.
- ``domain:LO-HI`` -- declare the next fault domain as replicas
  ``LO..HI`` inclusive (domains are numbered 0, 1, ... in declaration
  order; ranges must not overlap).
- ``domain:size=K`` -- partition the whole fleet into consecutive
  domains of ``K`` replicas (rack size); exclusive with range
  declarations.

Stochastic clause (drawn deterministically from the run seed):

- ``random:crash_mtbf=20,mttr=2,slow_mtbf=15,slow_factor=3,slow_dur=1``
  -- per-replica exponential time-between-failures and repair times.
- ``random:domain_mtbf=60,domain_mttr=2`` -- per-*domain* exponential
  crash/repair: all members of the drawn domain crash and recover
  together (requires ``domain:`` declarations).

Examples: ``crash@2:0+1,slow@1:3*2.5+2`` (independent faults),
``domain:0-9;crash@5s:dom0`` (rack 0 dies at 5 s),
``domain:size=4;random:domain_mtbf=30,domain_mttr=1`` (stochastic
rack-level outages on racks of four).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from repro.fleet.routing import prefer_other_domains
from repro.sim.event_core import QueryState
from repro.spec import parse_kv

__all__ = [
    "DomainFaultEvent",
    "FaultDomains",
    "FaultEvent",
    "FaultSchedule",
    "TrackedQuery",
    "crash",
    "domain_crash",
    "domain_slowdown",
    "slowdown",
    "run_fault_loop",
]

_KINDS = ("crash", "recover", "slow", "restore")


@dataclass(frozen=True)
class FaultEvent:
    """One fault on one replica.

    Attributes:
        time_s: Simulation time the fault fires.
        kind: ``"crash"``, ``"recover"``, ``"slow"``, or ``"restore"``.
        server_index: Fleet index of the targeted replica.
        factor: Service-time multiplier (``slow`` only; > 1 = slower).
        duration_s: Scripted sugar -- a ``crash``/``slow`` with a
            duration expands into the event plus its paired
            ``recover``/``restore`` at ``time_s + duration_s`` when the
            schedule is materialized.
    """

    time_s: float
    kind: str
    server_index: int
    factor: float = 1.0
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {_KINDS}")
        if self.time_s < 0.0:
            raise ValueError("fault time must be >= 0")
        if self.server_index < 0:
            raise ValueError("server_index must be >= 0")
        if self.kind == "slow" and self.factor <= 0.0:
            raise ValueError("slowdown factor must be > 0")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError("fault duration must be > 0")


def crash(time_s: float, server_index: int, recover_after: float | None = None) -> FaultEvent:
    """A replica crash, optionally recovering ``recover_after`` seconds later."""
    return FaultEvent(time_s, "crash", server_index, duration_s=recover_after)


def slowdown(
    time_s: float, server_index: int, factor: float, duration: float | None = None
) -> FaultEvent:
    """A straggler: service times x ``factor``, optionally for ``duration`` s."""
    return FaultEvent(time_s, "slow", server_index, factor=factor, duration_s=duration)


@dataclass(frozen=True)
class DomainFaultEvent:
    """One scripted fault on a whole fault domain.

    At :meth:`FaultSchedule.materialize` time the event expands into
    one atomic :class:`FaultEvent` per domain member, all at the same
    ``time_s`` (and, with a duration, one paired recover/restore per
    member) -- correlated failure is literally simultaneous failure of
    every replica in the domain.

    Attributes:
        time_s: Simulation time the fault fires.
        kind: ``"crash"`` or ``"slow"``.
        domain: Declared fault-domain id the event targets.
        factor: Service-time multiplier (``slow`` only; > 1 = slower).
        duration_s: Optional outage/episode length (expands into paired
            per-member ``recover``/``restore`` events).
    """

    time_s: float
    kind: str
    domain: int
    factor: float = 1.0
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "slow"):
            raise ValueError(
                f"domain faults support crash/slow, not {self.kind!r}"
            )
        if self.time_s < 0.0:
            raise ValueError("fault time must be >= 0")
        if self.domain < 0:
            raise ValueError("domain must be >= 0")
        if self.kind == "slow" and self.factor <= 0.0:
            raise ValueError("slowdown factor must be > 0")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError("fault duration must be > 0")


def domain_crash(
    time_s: float, domain: int, recover_after: float | None = None
) -> DomainFaultEvent:
    """Crash every member of ``domain``, optionally recovering together."""
    return DomainFaultEvent(time_s, "crash", domain, duration_s=recover_after)


def domain_slowdown(
    time_s: float, domain: int, factor: float, duration: float | None = None
) -> DomainFaultEvent:
    """Slow every member of ``domain`` by ``factor``, optionally for ``duration`` s."""
    return DomainFaultEvent(time_s, "slow", domain, factor=factor, duration_s=duration)


class FaultDomains:
    """Replica -> correlated-fault-domain assignment (racks, power domains).

    Exactly one of two shapes:

    - ``ranges``: explicit inclusive index ranges, one per domain, in
      declaration order (``[(0, 3), (4, 7)]`` -> domains 0 and 1).
      Ranges must not overlap; replicas outside every range become
      singleton domains of their own.
    - ``size``: partition the whole fleet into consecutive domains of
      ``size`` replicas (the "rack size" shorthand) -- resolved against
      the concrete fleet size at :meth:`map` time.

    The assignment is purely an *identity* function over replica
    indices; what it buys is (a) domain-targeted fault events expanding
    to every member simultaneously and (b) hedged dispatch preferring a
    replica whose domain the query has not touched.
    """

    def __init__(
        self,
        ranges: Sequence[tuple[int, int]] | None = None,
        size: int | None = None,
    ) -> None:
        if (ranges is None) == (size is None):
            raise ValueError("FaultDomains needs exactly one of ranges= or size=")
        if size is not None and size < 1:
            raise ValueError("domain size must be >= 1")
        self.size = size
        self.ranges: tuple[tuple[int, int], ...] = ()
        if ranges is not None:
            cleaned = []
            for lo, hi in ranges:
                if lo < 0 or hi < lo:
                    raise ValueError(f"bad domain range {lo}-{hi}")
                cleaned.append((int(lo), int(hi)))
            for (a_lo, a_hi), (b_lo, b_hi) in zip(
                sorted(cleaned), sorted(cleaned)[1:]
            ):
                if b_lo <= a_hi:
                    raise ValueError(
                        f"overlapping domain ranges {a_lo}-{a_hi} and {b_lo}-{b_hi}"
                    )
            if not cleaned:
                raise ValueError("need at least one domain range")
            self.ranges = tuple(cleaned)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.size is not None:
            return f"FaultDomains(size={self.size})"
        return f"FaultDomains(ranges={list(self.ranges)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultDomains)
            and self.size == other.size
            and self.ranges == other.ranges
        )

    def map(self, num_servers: int) -> list[int]:
        """Domain id per replica index for a concrete fleet size.

        Declared domains take ids ``0..K-1``; replicas outside every
        declared range get fresh singleton ids ``K, K+1, ...`` so no
        two unrelated replicas ever share a domain implicitly.
        """
        if self.size is not None:
            return [idx // self.size for idx in range(num_servers)]
        assigned = [-1] * num_servers
        for dom, (lo, hi) in enumerate(self.ranges):
            if hi >= num_servers:
                raise ValueError(
                    f"domain range {lo}-{hi} exceeds the fleet "
                    f"({num_servers} replicas)"
                )
            for idx in range(lo, hi + 1):
                assigned[idx] = dom
        next_id = len(self.ranges)
        for idx, dom in enumerate(assigned):
            if dom < 0:
                assigned[idx] = next_id
                next_id += 1
        return assigned

    def members(self, num_servers: int) -> dict[int, list[int]]:
        """Domain id -> member replica indices (declared domains only
        for range-shaped assignments; every domain for ``size=``)."""
        out: dict[int, list[int]] = {}
        for idx, dom in enumerate(self.map(num_servers)):
            out.setdefault(dom, []).append(idx)
        if self.size is None:
            out = {d: m for d, m in out.items() if d < len(self.ranges)}
        return out

    def num_domains(self, num_servers: int) -> int:
        """Declared (addressable) domain count for a concrete fleet."""
        if self.size is not None:
            return (num_servers + self.size - 1) // self.size
        return len(self.ranges)


_ENTRY_RE = re.compile(
    r"^(crash|slow|blip)@([0-9]*\.?[0-9]+(?:e-?[0-9]+)?)s?:(dom)?([0-9]+)"
    r"(?:\*([0-9]*\.?[0-9]+))?(?:\+([0-9]*\.?[0-9]+)s?)?$"
)
_DOMAIN_RANGE_RE = re.compile(r"^domain:([0-9]+)-([0-9]+)$")
_DOMAIN_SIZE_RE = re.compile(r"^domain:size=([0-9]+)$")

#: CLI keys for ``random:`` specs -> ``FaultSchedule.stochastic`` kwargs.
_STOCHASTIC_KEYS = {
    "crash_mtbf": "crash_mtbf_s",
    "mttr": "mttr_s",
    "slow_mtbf": "slow_mtbf_s",
    "slow_factor": "slow_factor",
    "slow_dur": "slow_duration_s",
    "domain_mtbf": "domain_mtbf_s",
    "domain_mttr": "domain_mttr_s",
}


class FaultSchedule:
    """A scripted and/or stochastic fault timeline for one fleet run.

    Scripted per-replica events are passed to the constructor, scripted
    whole-domain events via ``domain_events`` (which require a
    ``domains`` declaration); stochastic behaviour is configured with
    :meth:`stochastic` and drawn deterministically from the run seed at
    :meth:`materialize` time.  An empty schedule is the explicit "no
    faults" statement -- the engine keeps its exact fault-free
    semantics (enforced by the differential tests).  A schedule that
    declares ``domains`` but no events injects nothing either; the
    declaration still steers domain-aware hedging.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        domains: FaultDomains | None = None,
        domain_events: Iterable[DomainFaultEvent] = (),
    ) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(events)
        for ev in self.events:
            if not isinstance(ev, FaultEvent):
                raise TypeError(f"expected FaultEvent, got {type(ev).__name__}")
        self.domain_events: tuple[DomainFaultEvent, ...] = tuple(domain_events)
        for ev in self.domain_events:
            if not isinstance(ev, DomainFaultEvent):
                raise TypeError(
                    f"expected DomainFaultEvent, got {type(ev).__name__}"
                )
        if domains is not None and not isinstance(domains, FaultDomains):
            raise TypeError(f"expected FaultDomains, got {type(domains).__name__}")
        if self.domain_events and domains is None:
            raise ValueError("domain-targeted events need a domains= declaration")
        self.domains = domains
        self.stochastic_params: dict | None = None

    @property
    def is_empty(self) -> bool:
        return (
            not self.events
            and not self.domain_events
            and self.stochastic_params is None
        )

    def __len__(self) -> int:
        return len(self.events) + len(self.domain_events)

    def __bool__(self) -> bool:
        """Truthy when any fault (scripted or stochastic) can fire."""
        return not self.is_empty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{len(self.events)} scripted"]
        if self.domain_events:
            parts.append(f"{len(self.domain_events)} domain-scripted")
        if self.domains is not None:
            parts.append(repr(self.domains))
        if self.stochastic_params:
            parts.append(f"stochastic {self.stochastic_params}")
        return f"FaultSchedule({', '.join(parts)})"

    # ------------------------------------------------------------------

    @classmethod
    def stochastic(
        cls,
        crash_mtbf_s: float | None = None,
        mttr_s: float = 2.0,
        slow_mtbf_s: float | None = None,
        slow_factor: float = 3.0,
        slow_duration_s: float = 1.0,
        domain_mtbf_s: float | None = None,
        domain_mttr_s: float = 2.0,
        domains: FaultDomains | None = None,
    ) -> "FaultSchedule":
        """A seed-driven random schedule.

        Args:
            crash_mtbf_s: Per-replica mean time between crashes
                (exponential); ``None`` disables crashes.
            mttr_s: Mean time to recovery after a crash (exponential).
            slow_mtbf_s: Per-replica mean time between slowdown onsets;
                ``None`` disables stragglers.
            slow_factor: Service-time multiplier while slowed.
            slow_duration_s: Fixed straggler episode length.
            domain_mtbf_s: Per-*domain* mean time between correlated
                crashes (every member crashes together); requires
                ``domains``.  ``None`` disables domain outages.
            domain_mttr_s: Mean time to recovery of a domain outage.
            domains: Replica -> fault-domain assignment the domain
                draws (and domain-aware hedging) use.
        """
        if crash_mtbf_s is None and slow_mtbf_s is None and domain_mtbf_s is None:
            raise ValueError(
                "need crash_mtbf_s, slow_mtbf_s, and/or domain_mtbf_s"
            )
        for name, value in (
            ("crash_mtbf_s", crash_mtbf_s),
            ("mttr_s", mttr_s),
            ("slow_mtbf_s", slow_mtbf_s),
            ("slow_factor", slow_factor),
            ("slow_duration_s", slow_duration_s),
            ("domain_mtbf_s", domain_mtbf_s),
            ("domain_mttr_s", domain_mttr_s),
        ):
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if domain_mtbf_s is not None and domains is None:
            raise ValueError("domain_mtbf_s needs a domains= declaration")
        schedule = cls(domains=domains)
        schedule.stochastic_params = {
            "crash_mtbf_s": crash_mtbf_s,
            "mttr_s": mttr_s,
            "slow_mtbf_s": slow_mtbf_s,
            "slow_factor": slow_factor,
            "slow_duration_s": slow_duration_s,
            "domain_mtbf_s": domain_mtbf_s,
            "domain_mttr_s": domain_mttr_s,
        }
        return schedule

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse the ``--faults`` CLI mini-language into a schedule.

        The grammar (full reference in the module docstring and
        ``docs/cli.md``): the spec splits into ``;``-separated
        sections; each section is either one ``random:key=value,...``
        stochastic clause or a comma-separated list of scripted
        entries.  Scripted entries are ``kind@T:TGT[*F][+DUR]`` with
        ``kind`` one of ``crash``/``blip``/``slow``, ``TGT`` a replica
        index or ``domN``, and domain declarations ``domain:LO-HI`` /
        ``domain:size=K``.  Times/durations take an optional ``s``
        suffix.  Raises :class:`ValueError` with the offending entry on
        any syntax or consistency error (e.g. ``domN`` targets without
        a ``domain:`` declaration, two ``random:`` sections, mixing
        ``domain:size=`` with ranges).
        """
        spec = spec.strip()
        if not spec:
            return cls()
        events: list[FaultEvent] = []
        domain_events: list[DomainFaultEvent] = []
        ranges: list[tuple[int, int]] = []
        dom_size: int | None = None
        stochastic_kwargs: dict[str, float] | None = None
        for section in spec.split(";"):
            section = section.strip()
            if not section:
                continue
            if section.startswith("random:"):
                if stochastic_kwargs is not None:
                    raise ValueError("at most one random: section per spec")
                params = parse_kv(
                    "stochastic fault", section, section[len("random:"):],
                    _STOCHASTIC_KEYS,
                )
                stochastic_kwargs = {}
                for key, value in params.items():
                    try:
                        stochastic_kwargs[_STOCHASTIC_KEYS[key]] = float(value)
                    except ValueError:
                        raise ValueError(
                            f"bad stochastic fault value {key}={value!r} in "
                            f"section {section!r}; use a number"
                        ) from None
                continue
            for entry in section.split(","):
                entry = entry.strip()
                dm = _DOMAIN_RANGE_RE.match(entry)
                if dm is not None:
                    if dom_size is not None:
                        raise ValueError(
                            "cannot mix domain:size= with domain:LO-HI ranges"
                        )
                    ranges.append((int(dm.group(1)), int(dm.group(2))))
                    continue
                dm = _DOMAIN_SIZE_RE.match(entry)
                if dm is not None:
                    if ranges:
                        raise ValueError(
                            "cannot mix domain:size= with domain:LO-HI ranges"
                        )
                    if dom_size is not None:
                        raise ValueError("at most one domain:size= per spec")
                    dom_size = int(dm.group(1))
                    continue
                m = _ENTRY_RE.match(entry)
                if m is None:
                    raise ValueError(
                        f"bad fault entry {entry!r}; expected "
                        "kind@time:target[*factor][+duration] with kind one of "
                        "crash/slow/blip and target a replica index or domN, "
                        "a domain:LO-HI / domain:size=K declaration, or a "
                        "random:key=value,... section"
                    )
                kind, t, dom_tag, idx, factor, dur = m.groups()
                time_s, index = float(t), int(idx)
                duration = float(dur) if dur is not None else None
                if kind == "slow":
                    if factor is None:
                        raise ValueError(f"{entry!r}: slow needs *factor")
                else:
                    if factor is not None:
                        raise ValueError(f"{entry!r}: only slow takes *factor")
                    if kind == "blip" and duration is None:
                        duration = 0.25
                if dom_tag is not None:
                    if kind == "slow":
                        domain_events.append(
                            domain_slowdown(time_s, index, float(factor), duration)
                        )
                    else:
                        domain_events.append(
                            domain_crash(time_s, index, recover_after=duration)
                        )
                elif kind == "slow":
                    events.append(slowdown(time_s, index, float(factor), duration))
                else:
                    events.append(crash(time_s, index, recover_after=duration))
        domains: FaultDomains | None = None
        if dom_size is not None:
            domains = FaultDomains(size=dom_size)
        elif ranges:
            domains = FaultDomains(ranges=ranges)
        if domain_events and domains is None:
            raise ValueError(
                "domN fault targets need a domain:LO-HI or domain:size=K "
                "declaration in the same spec"
            )
        if stochastic_kwargs is not None:
            if events or domain_events:
                raise ValueError(
                    "scripted entries and random: cannot mix in one spec "
                    "(domain: declarations are fine)"
                )
            return cls.stochastic(**stochastic_kwargs, domains=domains)
        return cls(events, domains=domains, domain_events=domain_events)

    # ------------------------------------------------------------------

    def min_fleet_size(self) -> int:
        """Smallest fleet the schedule's explicit targets fit.

        Index-targeted scripted events and explicit ``domain:LO-HI``
        ranges name concrete fleet positions; replaying the schedule on
        a smaller fleet is an error (``materialize`` and the engine's
        domain stamping both raise).  Fleet-size-adaptive forms --
        ``domain:size=K`` and stochastic draws -- require nothing.
        Callers that size the fleet themselves (the fault-aware
        provisioner) check this up front to fail with an actionable
        message instead of mid-replay.
        """
        needed = max((ev.server_index + 1 for ev in self.events), default=0)
        if self.domains is not None:
            if self.domains.ranges:
                needed = max(
                    needed, max(hi + 1 for _, hi in self.domains.ranges)
                )
            elif self.domain_events:
                # size=K racks exist lazily: dom N needs the fleet to
                # reach rack N's first replica.
                max_dom = max(ev.domain for ev in self.domain_events)
                needed = max(needed, max_dom * self.domains.size + 1)
        return needed

    def domain_map(self, num_servers: int) -> list[int]:
        """Domain id per replica index (singletons when undeclared).

        This is what the fleet engine stamps onto each replica's
        ``domain`` attribute; with no declaration every replica is its
        own domain, which makes the domain-aware hedging filter an
        exact no-op.
        """
        if self.domains is None:
            return list(range(num_servers))
        return self.domains.map(num_servers)

    def materialize(
        self, num_servers: int, horizon_s: float, seed: int = 0
    ) -> list[FaultEvent]:
        """Expand into atomic, time-sorted events for a concrete fleet.

        Scripted durations become paired recover/restore events;
        domain-targeted events expand into one event per member (all at
        the same timestamp, so the members leave the routable set
        together); stochastic parameters are drawn per replica (or per
        domain) from RNGs derived from ``seed``, so the same
        (schedule, fleet size, horizon, seed) always yields the same
        list.
        """
        atomic: list[FaultEvent] = []

        def expand(ev: FaultEvent) -> None:
            if ev.duration_s is None:
                atomic.append(ev)
            elif ev.kind == "crash":
                atomic.append(FaultEvent(ev.time_s, "crash", ev.server_index))
                atomic.append(
                    FaultEvent(ev.time_s + ev.duration_s, "recover", ev.server_index)
                )
            elif ev.kind == "slow":
                atomic.append(
                    FaultEvent(ev.time_s, "slow", ev.server_index, factor=ev.factor)
                )
                atomic.append(
                    FaultEvent(ev.time_s + ev.duration_s, "restore", ev.server_index)
                )
            else:
                atomic.append(ev)

        for ev in self.events:
            if ev.server_index >= num_servers:
                raise ValueError(
                    f"fault targets replica {ev.server_index} but the fleet "
                    f"has only {num_servers} replicas"
                )
            expand(ev)
        if self.domain_events:
            members = self.domains.members(num_servers)
            for dev in self.domain_events:
                if dev.domain not in members:
                    raise ValueError(
                        f"fault targets domain {dev.domain} but only "
                        f"{self.domains.num_domains(num_servers)} domains are "
                        "declared for this fleet"
                    )
                for idx in members[dev.domain]:
                    expand(
                        FaultEvent(
                            dev.time_s,
                            dev.kind,
                            idx,
                            factor=dev.factor,
                            duration_s=dev.duration_s,
                        )
                    )
        if self.stochastic_params is not None:
            atomic.extend(self._draw(num_servers, horizon_s, seed))
        atomic.sort(key=lambda e: e.time_s)  # stable: generation order on ties
        return atomic

    def _draw(self, num_servers: int, horizon_s: float, seed: int) -> list[FaultEvent]:
        p = self.stochastic_params
        out: list[FaultEvent] = []
        for idx in range(num_servers):
            if p["crash_mtbf_s"] is not None:
                rng = random.Random(seed * 1_000_003 + 2 * idx)
                t = rng.expovariate(1.0 / p["crash_mtbf_s"])
                while t < horizon_s:
                    repair = rng.expovariate(1.0 / p["mttr_s"])
                    out.append(FaultEvent(t, "crash", idx))
                    out.append(FaultEvent(t + repair, "recover", idx))
                    t = t + repair + rng.expovariate(1.0 / p["crash_mtbf_s"])
            if p["slow_mtbf_s"] is not None:
                rng = random.Random(seed * 1_000_003 + 2 * idx + 1)
                t = rng.expovariate(1.0 / p["slow_mtbf_s"])
                while t < horizon_s:
                    out.append(FaultEvent(t, "slow", idx, factor=p["slow_factor"]))
                    out.append(FaultEvent(t + p["slow_duration_s"], "restore", idx))
                    t = t + p["slow_duration_s"] + rng.expovariate(
                        1.0 / p["slow_mtbf_s"]
                    )
        if p.get("domain_mtbf_s") is not None:
            # One independent RNG stream per *declared* domain, offset
            # away from the per-replica streams so adding domain faults
            # never perturbs the per-replica draws for the same seed.
            for dom, idxs in sorted(self.domains.members(num_servers).items()):
                rng = random.Random(seed * 1_000_003 + 1_000_081 + 2 * dom + 1)
                t = rng.expovariate(1.0 / p["domain_mtbf_s"])
                while t < horizon_s:
                    repair = rng.expovariate(1.0 / p["domain_mttr_s"])
                    for idx in idxs:
                        out.append(FaultEvent(t, "crash", idx))
                    for idx in idxs:
                        out.append(FaultEvent(t + repair, "recover", idx))
                    t = t + repair + rng.expovariate(1.0 / p["domain_mtbf_s"])
        return out


# ----------------------------------------------------------------------
# Runtime records
# ----------------------------------------------------------------------


class TrackedQuery:
    """Per-query fault-mode record: outcome plus every dispatch attempt.

    Every query ends the run in exactly one terminal ``outcome`` --
    completed, failed, or dropped (the conservation invariant the
    property tests pin).  ``attempts`` holds ``[server, dispatch_s,
    end_s | None, status]`` lists with status 0 = in flight, 1 =
    completed, 2 = killed by a crash; completed attempts end at their
    finish time, killed attempts at the crash that killed them (the
    tracer's attempt-span end).  Exposed as
    ``FleetSimulator.last_query_log``.

    The packed ``outcome`` / ``hedge_state`` ints keep the per-arrival
    allocation cheap (the record rides the fault loop's hot path); the
    ``done`` / ``failed`` / ``dropped`` / ``hedged`` properties are the
    readable API.
    """

    __slots__ = (
        "query",
        "model",
        "outcome",  # 0 = in flight, 1 = completed, 2 = failed, 3 = dropped
        "finish_s",
        "retries",
        "hedge_state",  # 0 = unarmed, 1 = timer armed, 2 = hedged
        "attempts",
    )

    def __init__(self, query, model: str) -> None:
        self.query = query
        self.model = model
        self.outcome = 0
        self.finish_s = None
        self.retries = 0
        self.hedge_state = 0
        self.attempts: list[list] = []

    @property
    def done(self) -> bool:
        return self.outcome == 1

    @property
    def failed(self) -> bool:
        return self.outcome == 2

    @property
    def dropped(self) -> bool:
        return self.outcome == 3

    @property
    def hedged(self) -> bool:
        return self.hedge_state == 2


class _FaultQueryState(QueryState):
    """Pipeline-path query state carrying its fault-mode bookkeeping."""

    __slots__ = ("tracked", "attempt")


#: Heap-owner sentinels (never equal to a FleetServer or None).
_FAULT = object()
_HEDGE = object()


class _FaultState:
    """Replica-level fault bookkeeping shared by both fault loops.

    Owns everything about a fault event except what happens to the
    crashed replica's in-flight queries (the one part the light and
    tracked loops do differently -- passed in as ``kill_in_flight``):
    role classification, routable-list membership, downtime accounting,
    the applied-event record, and overlap resolution.

    Overlap semantics: a crash landing while a replica is already dead
    swallows one future ``recover``, so the replica stays down until
    the *last* scheduled recover (or forever, if any covering crash was
    permanent).  A slowdown landing while a replica is already slowed
    applies the newest factor and swallows one future ``restore``, so
    the episode ends at the last scheduled restore.
    """

    __slots__ = (
        "servers",
        "routable",
        "applied",
        "downtime",
        "_roles",
        "_down_open",
        "_recover_skips",
        "_slow_overlaps",
    )

    def __init__(self, servers, routable) -> None:
        self.servers = servers
        self.routable = routable
        self.applied: list[FaultEvent] = []
        self.downtime = 0.0
        self._roles: dict = {}  # crashed server -> role at crash time
        self._down_open: dict = {}  # crashed-while-routable server -> crash time
        self._recover_skips: dict = {}  # server -> recovers to swallow
        self._slow_overlaps: dict = {}  # server -> restores to swallow

    def apply(self, ev: FaultEvent, now: float, horizon: float, kill_in_flight) -> None:
        server = self.servers[ev.server_index]
        kind = ev.kind
        if kind == "crash":
            if server.dead:
                # Overlapping crash window: extend the outage by one
                # scheduled recover (permanent crashes schedule none,
                # pinning the replica dead).
                self._recover_skips[server] = self._recover_skips.get(server, 0) + 1
                self.applied.append(ev)
                return
            if server.draining:
                role = "draining"
            elif server.active:
                role = "routable"
            else:
                role = "standby"
            if role == "routable":
                lst = self.routable.get(server.model_name)
                if lst is not None and server in lst:
                    lst.remove(server)
                self._down_open[server] = now
            self._roles[server] = role
            # Events can fire past the horizon while the heap drains;
            # active-time accounting stops at the horizon (the final
            # settle(horizon) must never see a later start).
            server.settle(min(now, horizon))
            server.active = False
            server.draining = False
            server.dead = True
            self.applied.append(ev)
            kill_in_flight(server, now)
        elif kind == "recover":
            if not server.dead:
                return
            skips = self._recover_skips.get(server, 0)
            if skips:
                # An overlapping crash claimed this recover; stay down.
                self._recover_skips[server] = skips - 1
                return
            server.dead = False
            self.applied.append(ev)
            t0 = self._down_open.pop(server, None)
            if t0 is not None:
                self.downtime += max(0.0, min(now, horizon) - min(t0, horizon))
            role = self._roles.pop(server, "standby")
            if role == "routable":
                server.active = True
                server._active_since = min(now, horizon)
                lst = self.routable.get(server.model_name)
                if lst is not None:
                    lst.append(server)
            # standby/draining replicas come back cold; the autoscaler
            # may re-activate them.
        elif kind == "slow":
            if server.slow_factor != 1.0:
                # Overlapping episode: newest factor wins, and the
                # superseded episode's restore must not end it early.
                self._slow_overlaps[server] = self._slow_overlaps.get(server, 0) + 1
            server.slow_factor = ev.factor
            server.pipeline.service_scale = ev.factor
            self.applied.append(ev)
        else:  # restore
            if server.slow_factor == 1.0:
                return
            skips = self._slow_overlaps.get(server, 0)
            if skips:
                self._slow_overlaps[server] = skips - 1
                return
            server.slow_factor = 1.0
            server.pipeline.service_scale = 1.0
            self.applied.append(ev)

    def close(self, horizon: float) -> float:
        """Fold still-open outages up to the horizon; return downtime."""
        for _server, t0 in self._down_open.items():
            self.downtime += max(0.0, horizon - min(t0, horizon))
        self._down_open.clear()
        return self.downtime


# ----------------------------------------------------------------------
# The fault-aware event loop
# ----------------------------------------------------------------------


def _materialized_faults(sim, num_servers: int, end_hint: float | None):
    """Expand the run's schedule against the replay-horizon hint.

    Materialized traces pass their exact last-arrival time; streamed
    sources pass their nominal ``end_s``.  Scripted events ignore the
    horizon entirely, so only stochastic schedules require one -- they
    refuse a horizon-less stream instead of drawing forever.
    """
    schedule = sim.faults
    if schedule is None:
        return ()
    if schedule.stochastic_params is not None and (
        end_hint is None or end_hint == float("inf")
    ):
        raise ValueError(
            "stochastic fault schedules need a replay horizon: pass a "
            "materialized trace or an arrival source exposing end_s "
            "(FleetArrivals and the synthetic processes all do)"
        )
    return schedule.materialize(
        num_servers, end_hint if end_hint is not None else 0.0, seed=sim._seed
    )


def iter_boundaries(fault_events, window_s: float, last_t: float):
    """Merge fault events with the autoscaler tick grid, in pop order.

    Yields ``("tick", time)`` and ``("fault", event)`` items exactly as
    the per-event loop would pop them: ticks live at ``window_s``
    multiples (built by repeated addition, the same float sequence the
    re-push produces) and fire only while strictly before the last
    arrival (the tick that pops at or past it is skipped and never
    re-pushed); fault events keep their materialized order, including
    equal-time groups; on an exact time tie the tick wins (its heap
    sequence number is -1, below every fault's).  Fault events *after*
    the last arrival still fire -- the heap drains past the horizon.

    ``window_s <= 0`` disables the tick grid (no autoscaler).  This is
    the segment skeleton of the vectorized core
    (:func:`repro.sim.fast_core.run_vectorized`): everything
    between two yielded items is fault-free and tick-free, so whole
    arrival spans can be routed and delivered in batches.
    """
    tick_t = window_s if window_s > 0.0 else float("inf")
    fi = 0
    nf = len(fault_events)
    while True:
        ft = fault_events[fi].time_s if fi < nf else float("inf")
        if tick_t < last_t and tick_t <= ft:
            yield ("tick", tick_t)
            tick_t += window_s
        elif fi < nf:
            yield ("fault", fault_events[fi])
            fi += 1
        else:
            return


def run_fault_loop(
    sim,
    arrivals,
    first,
    streams: dict,
    heap,
    warmup_s: float,
    end_hint: float | None,
    scaling: bool,
    completions: dict,
    dropped: dict,
    window_lat: dict,
    window_arrivals: dict,
    window_drops: dict,
    scale_events: list,
) -> dict:
    """The tracked loop: the light loop plus per-query records.

    Runs the same lazily-pulled arrival-merge event loop as
    :func:`_run_light_loop`, but every query gets a
    :class:`TrackedQuery` with per-attempt history, enabling retries,
    hedging, and the full query log (``last_query_log``).  With an
    empty schedule it performs the identical float operations in the
    identical order (same heap sequence numbers, same routing draws),
    which the differential tests verify with ``==`` on floats.

    Returns the fault accounting consumed by ``_summarize``:
    per-model ``failed``/``retried``/``hedged`` counts, the applied
    atomic events, the fleet availability, the per-query log, and the
    stream accounting (``arrivals``/``horizon``/``ticks``).
    """
    probe = sim.observer
    # One pre-bound bool guards every metrics hook; trace-only probes
    # keep it False (spans are built post-run from the query log).
    probe_on = probe is not None and probe.metrics
    events = heap.items
    dead = heap.dead
    finished: list = []
    servers = sim.servers
    routable = sim._routable
    retry_budget = sim.retries
    hedge_s = sim.hedge_ms * 1e-3 if sim.hedge_ms is not None else None
    horizon = float("inf")
    count = 0
    ticks = 0
    window_s = sim.autoscaler.window_s if scaling else 0.0

    log: list[TrackedQuery] = []
    failed: dict[str, int] = {m: 0 for m in completions}
    retried: dict[str, int] = {m: 0 for m in completions}
    hedged: dict[str, int] = {m: 0 for m in completions}
    window_failures: dict[str, int] = {m: 0 for m in window_drops}
    fstate = _FaultState(servers, routable)

    for ev in _materialized_faults(sim, len(servers), end_hint):
        heap.push(ev.time_s, _FAULT, 0, ev)

    # -- helpers -------------------------------------------------------

    def dispatch(tracked: TrackedQuery, server, now: float) -> None:
        """Start one attempt of ``tracked`` on ``server`` at ``now``."""
        attempt = [server, now, None, 0]
        tracked.attempts.append(attempt)
        server.outstanding += 1
        query = tracked.query
        direct = server.direct
        if direct is not None:
            factor = server.slow_factor
            if factor == 1.0:
                done = direct.completion_time(now, query.size, query.pooling_scale)
            else:
                done = direct.completion_time_slowed(
                    now, query.size, query.pooling_scale, factor
                )
            # Inlined heap.push: this is the per-arrival hot path.
            seq = heap.seq
            heap.seq = seq + 1
            heappush(events, (done, seq, server, -1, (tracked, attempt)))
        else:
            qs = _FaultQueryState(query, tracked.model)
            qs.server = server
            qs.tracked = tracked
            qs.attempt = attempt
            server.pipeline.enqueue(0, qs, qs.size, now, heap)
        if hedge_s is not None and tracked.hedge_state == 0:
            tracked.hedge_state = 1
            heap.push(now + hedge_s, _HEDGE, 0, tracked)

    def complete(server, tracked: TrackedQuery, attempt: list, now: float) -> None:
        """Retire one finished attempt (the light loop's bookkeeping)."""
        attempt[2] = now
        attempt[3] = 1
        query = tracked.query
        arrival = query.arrival_s
        server.completed += 1
        if arrival >= warmup_s and now <= horizon:
            server.completed_in_window += 1
        server.items_done += query.size
        server.outstanding -= 1
        if tracked.outcome == 0:
            tracked.outcome = 1
            tracked.finish_s = now
            latency = now - arrival
            completions[tracked.model].append((now, latency))
            if scaling:
                window_lat[tracked.model].append(latency * 1e3)
            if probe_on:
                probe.on_completion(tracked.model, latency, now)
        if server.draining and server.outstanding == 0:
            server.settle(now)
            server.active = False
            server.draining = False

    def resolve_lost(tracked: TrackedQuery, now: float) -> None:
        """A query lost its last outstanding attempt: retry or fail.

        Counters use the same measurement window as completions
        (query arrived after warmup, resolved by the horizon), so the
        failed/retried populations stay consistent with the measured
        one; the autoscaler's window feed stays unfiltered, like drops.
        """
        model = tracked.model
        stream = streams.get(model)
        if tracked.retries < retry_budget and stream and stream[0]:
            tracked.retries += 1
            # Attributed to the query: counted whenever the query is in
            # the measured population, wherever the retry lands in time.
            if tracked.query.arrival_s >= warmup_s:
                retried[model] = retried.get(model, 0) + 1
            candidates, policy = stream
            dispatch(tracked, policy.choose(candidates), now)
        else:
            tracked.outcome = 2  # failed
            # Failures enter violation_rate/goodput denominators, so
            # they use the completions measurement window exactly.
            if tracked.query.arrival_s >= warmup_s and now <= horizon:
                failed[model] = failed.get(model, 0) + 1
            if scaling:
                window_failures[model] = window_failures.get(model, 0) + 1
            if probe_on:
                probe.on_failure(model, now)

    def fire_hedge(tracked: TrackedQuery, now: float) -> None:
        tracked.hedge_state = 0  # timer consumed (re-armed on a retry)
        if tracked.outcome != 0:
            return
        stream = streams.get(tracked.model)
        if not stream or not stream[0]:
            return
        candidates, policy = stream
        attempted = {a[0] for a in tracked.attempts}
        fresh = [s for s in candidates if s not in attempted]
        if not fresh:
            return
        # Domain-aware placement: a correlated rack failure must not be
        # able to kill both attempts, so prefer a replica in a fault
        # domain the query has not touched (falling back to any untried
        # replica only when every live one shares an attempted domain).
        # Without declared domains every replica is a singleton domain
        # and this filter is exactly the untried set.
        fresh = prefer_other_domains(fresh, {a[0].domain for a in tracked.attempts})
        tracked.hedge_state = 2  # hedged
        if tracked.query.arrival_s >= warmup_s:
            hedged[tracked.model] = hedged.get(tracked.model, 0) + 1
        dispatch(tracked, policy.choose(fresh), now)

    def kill_in_flight(server, now: float) -> None:
        """Cancel a crashed replica's work: heap events (lazy deletion)
        and queued units; re-route or fail every query that lost its
        last outstanding attempt."""
        victims: dict[int, tuple] = {}
        for item in events:
            if item[2] is server and item[1] not in dead:
                dead.add(item[1])
                if item[3] < 0:
                    tr, at = item[4]
                    victims[id(at)] = (tr, at)
                else:
                    for unit in item[4]:
                        qs = unit[0]
                        victims[id(qs.attempt)] = (qs.tracked, qs.attempt)
        for queue in server.pipeline.queues:
            for unit in queue:
                qs = unit[0]
                victims[id(qs.attempt)] = (qs.tracked, qs.attempt)
        server.pipeline.reset()
        if server.direct is not None:
            server.direct.reset()
        server.outstanding = 0
        for tr, at in victims.values():
            at[2] = now  # kill timestamp (the tracer's attempt end)
            at[3] = 2  # killed
        for tr, at in victims.values():
            if tr.outcome != 0:
                continue
            if any(a[3] == 0 for a in tr.attempts):
                continue  # a hedge sibling is still racing
            resolve_lost(tr, now)

    # -- the loop ------------------------------------------------------

    nxt = first
    nxt_t = first[1][1]  # arrival_s via the namedtuple fast path
    while True:
        # -- next event: arrival stream vs heap, arrivals win ties --
        if nxt is not None:
            now = nxt_t
            if not events or now <= events[0][0]:
                model, query = nxt
                nxt = next(arrivals, None)
                if nxt is None:
                    horizon = now
                    sim._seal_sketches(now)
                else:
                    t = nxt[1][1]
                    if not t >= now:  # also refuses a NaN time
                        raise ValueError(
                            "arrival stream is not sorted by time "
                            f"(t={t!r} after t={now!r})"
                        )
                    nxt_t = t
                count += 1
                if probe_on:
                    probe.on_arrival(model, now)
                stream = streams.get(model)
                if not stream or not stream[0]:
                    tracked = TrackedQuery(query, model)
                    tracked.outcome = 3  # dropped
                    log.append(tracked)
                    if model not in completions:
                        completions[model] = []
                    if now >= warmup_s:
                        dropped[model] = dropped.get(model, 0) + 1
                    if scaling:
                        window_drops[model] = window_drops.get(model, 0) + 1
                    if probe_on:
                        probe.on_drop(model, now)
                    continue
                candidates, policy = stream
                server = policy.choose(candidates)
                if scaling:
                    window_arrivals[model] += 1
                tracked = TrackedQuery(query, model)
                log.append(tracked)
                dispatch(tracked, server, now)
                continue
        elif not events:
            break
        entry = heappop(events)
        if dead and entry[1] in dead:
            dead.discard(entry[1])
            continue
        now = entry[0]
        owner = entry[2]
        if owner is None:  # autoscaler tick
            if now >= horizon:
                continue  # stream drained past the last arrival
            ticks += 1
            heappush(events, (now + window_s, -1, None, 0, None))
            sim._apply_autoscaler_tick(
                now, window_lat, window_arrivals, window_drops, scale_events,
                window_failures,
            )
            continue
        if owner is _FAULT:
            fstate.apply(entry[4], now, horizon, kill_in_flight)
            continue
        if owner is _HEDGE:
            fire_hedge(entry[4], now)
            continue
        server = owner
        if entry[3] < 0:  # direct-path attempt completion, inlined
            tracked, attempt = entry[4]
            attempt[2] = now
            attempt[3] = 1
            query = tracked.query
            arrival = query.arrival_s
            server.completed += 1
            if arrival >= warmup_s and now <= horizon:
                server.completed_in_window += 1
            server.items_done += query.size
            server.outstanding -= 1
            if tracked.outcome == 0:
                tracked.outcome = 1
                tracked.finish_s = now
                latency = now - arrival
                completions[tracked.model].append((now, latency))
                if scaling:
                    window_lat[tracked.model].append(latency * 1e3)
                if probe_on:
                    probe.on_completion(tracked.model, latency, now)
            if server.draining and server.outstanding == 0:
                server.settle(now)
                server.active = False
                server.draining = False
            continue
        server.pipeline.on_finish(entry[3], entry[4], now, heap, finished)
        if finished:
            for qs in finished:
                complete(server, qs.tracked, qs.attempt, now)
            finished.clear()

    return {
        "failed": failed,
        "retried": retried,
        "hedged": hedged,
        "events": tuple(fstate.applied),
        "downtime_s": fstate.close(horizon),
        "log": tuple(log),
        "arrivals": count,
        "horizon": horizon,
        "ticks": ticks,
    }


def _run_light_loop(
    sim,
    arrivals,
    first,
    streams: dict,
    heap,
    warmup_s: float,
    end_hint: float | None,
    scaling: bool,
    completions: dict,
    dropped: dict,
    window_lat: dict,
    window_arrivals: dict,
    window_drops: dict,
    scale_events: list,
    horizon_s: float | None,
) -> dict:
    """The untracked python replay loop: no retries, hedging or tracing.

    Arrivals are pulled lazily from the ``arrivals`` iterator (one pair
    held in hand) and merged with the event heap, arrivals winning
    ties; fault events are handled between queries.  In-flight queries
    on a crashed replica are *failed* (there is no retry budget to
    spend), so no per-query record is ever allocated and a
    present-but-idle fault layer costs only the sentinel checks at
    event pops.

    The measurement horizon is the last arrival's timestamp, discovered
    at stream exhaustion -- until then it is ``inf``, which is
    equivalent because any event popped while arrivals remain is
    strictly earlier than the next (and hence the last) arrival.  A
    forced ``horizon_s`` replaces that discovery (the sharded runner's
    fleet-wide horizon; fault-free runs only); it behaves identically
    because every pre-exhaustion event is earlier than the stream's
    last arrival <= ``horizon_s``, while autoscaler ticks keep firing up
    to the forced horizon exactly as they would in the fleet-wide run.
    Under a forced horizon ``first`` may be ``None`` (an empty stream):
    the replicas idle and only the ticks fire.
    """
    events = heap.items
    dead = heap.dead
    finished: list = []
    servers = sim.servers
    routable = sim._routable
    horizon = float("inf") if horizon_s is None else horizon_s
    count = 0
    ticks = 0
    window_s = sim.autoscaler.window_s if scaling else 0.0
    # One pre-bound bool guards every hook, so an unobserved run adds
    # no float operations (bit-identical, pinned by
    # tests/test_perf_equivalence.py); a tracing observer never reaches
    # here (it takes the tracked loop), so only metrics hooks exist.
    probe = sim.observer
    probe_on = probe is not None and probe.metrics

    failed: dict[str, int] = {m: 0 for m in completions}
    window_failures: dict[str, int] = {m: 0 for m in window_drops}
    fstate = _FaultState(servers, routable)

    for ev in _materialized_faults(sim, len(servers), end_hint):
        heap.push(ev.time_s, _FAULT, 0, ev)

    def kill_in_flight(server, now: float) -> None:
        """Cancel a crashed replica's work; without a retry budget
        every lost query fails at the crash timestamp.  The failed
        counter uses the completions measurement window (arrival after
        warmup, resolved by the horizon); the autoscaler feed does not.
        """
        victims: dict[int, tuple] = {}
        for item in events:
            if item[2] is server and item[1] not in dead:
                dead.add(item[1])
                if item[3] < 0:
                    model, query = item[4]
                    victims[id(query)] = (model, query.arrival_s)
                else:
                    for unit in item[4]:
                        qs = unit[0]
                        victims[id(qs)] = (qs.model, qs.arrival_s)
        for queue in server.pipeline.queues:
            for unit in queue:
                qs = unit[0]
                victims[id(qs)] = (qs.model, qs.arrival_s)
        server.pipeline.reset()
        if server.direct is not None:
            server.direct.reset()
        server.outstanding = 0
        for model, arrival in victims.values():
            if arrival >= warmup_s and now <= horizon:
                failed[model] = failed.get(model, 0) + 1
            if scaling:
                window_failures[model] = window_failures.get(model, 0) + 1
            if probe_on:
                probe.on_failure(model, now)

    # -- the loop ------------------------------------------------------
    nxt = first
    nxt_t = 0.0 if first is None else first[1][1]  # namedtuple arrival_s
    while True:
        # -- next event: arrival stream vs heap, arrivals win ties --
        if nxt is not None:
            now = nxt_t
            if not events or now <= events[0][0]:
                model, query = nxt
                nxt = next(arrivals, None)
                if nxt is None:
                    if horizon_s is None:
                        horizon = now
                    elif now > horizon_s:
                        raise ValueError(
                            f"horizon_s={horizon_s!r} precedes the "
                            f"stream's last arrival (t={now!r})"
                        )
                    sim._seal_sketches(horizon)
                else:
                    t = nxt[1][1]
                    if not t >= now:  # also refuses a NaN time
                        raise ValueError(
                            "arrival stream is not sorted by time "
                            f"(t={t!r} after t={now!r})"
                        )
                    nxt_t = t
                count += 1
                if probe_on:
                    probe.on_arrival(model, now)
                stream = streams.get(model)
                if not stream or not stream[0]:
                    # Warmup drops stay out of the stats (mirroring the
                    # completion window) but feed the autoscaler.
                    if model not in completions:
                        completions[model] = []
                    if now >= warmup_s:
                        dropped[model] = dropped.get(model, 0) + 1
                    if scaling:
                        window_drops[model] = window_drops.get(model, 0) + 1
                    if probe_on:
                        probe.on_drop(model, now)
                    continue
                candidates, policy = stream
                server = policy.choose(candidates)
                server.outstanding += 1
                if scaling:
                    window_arrivals[model] += 1
                direct = server.direct
                if direct is not None:
                    factor = server.slow_factor
                    if factor == 1.0:
                        done = direct.completion_time(
                            now, query.size, query.pooling_scale
                        )
                    else:
                        done = direct.completion_time_slowed(
                            now, query.size, query.pooling_scale, factor
                        )
                    seq = heap.seq
                    heap.seq = seq + 1
                    heappush(events, (done, seq, server, -1, (model, query)))
                else:
                    qs = QueryState(query, model)
                    qs.server = server
                    server.pipeline.enqueue(0, qs, qs.size, now, heap)
                continue
        elif not events:
            break
        entry = heappop(events)
        if dead and entry[1] in dead:
            dead.discard(entry[1])
            continue
        now = entry[0]
        server = entry[2]
        if server is None:  # autoscaler tick
            if now >= horizon:
                continue  # stream drained past the last arrival
            ticks += 1
            heappush(events, (now + window_s, -1, None, 0, None))
            sim._apply_autoscaler_tick(
                now, window_lat, window_arrivals, window_drops, scale_events,
                window_failures,
            )
            continue
        if server is _FAULT:
            fstate.apply(entry[4], now, horizon, kill_in_flight)
            continue
        idx = entry[3]
        if idx < 0:  # direct-path completion, bookkept inline
            model, query = entry[4]
            arrival = query.arrival_s
            server.completed += 1
            if arrival >= warmup_s and now <= horizon:
                server.completed_in_window += 1
            server.items_done += query.size
            server.outstanding -= 1
            latency = now - arrival
            completions[model].append((now, latency))
            if scaling:
                window_lat[model].append(latency * 1e3)
            if probe_on:
                probe.on_completion(model, latency, now)
            if server.draining and server.outstanding == 0:
                server.settle(now)
                server.active = False
                server.draining = False
            continue
        server.pipeline.on_finish(idx, entry[4], now, heap, finished)
        if finished:
            for qs in finished:
                server.completed += 1
                if qs.arrival_s >= warmup_s and now <= horizon:
                    server.completed_in_window += 1
                server.items_done += qs.size
                server.outstanding -= 1
                latency = now - qs.arrival_s
                completions[qs.model].append((now, latency))
                if scaling:
                    window_lat[qs.model].append(latency * 1e3)
                if probe_on:
                    probe.on_completion(qs.model, latency, now)
                if server.draining and server.outstanding == 0:
                    server.settle(now)
                    server.active = False
                    server.draining = False
            finished.clear()

    return {
        "failed": failed,
        "retried": {m: 0 for m in completions},
        "hedged": {m: 0 for m in completions},
        "events": tuple(fstate.applied),
        "downtime_s": fstate.close(horizon),
        "log": (),
        "arrivals": count,
        "horizon": horizon,
        "ticks": ticks,
    }
