"""Tuned discrete-event core shared by the single-node and fleet engines.

Both simulators play query traces through stage pipelines; this module
owns the semantics (batch formation, unit accounting, service timing)
and the performance machinery so the two engines cannot drift apart:

- :class:`SimStage` / :class:`StageMode` -- the one stage record: an
  immutable spec (public; built by
  :func:`~repro.sim.server_sim.build_stages`) plus ``items -> base
  service`` and ``size -> chunks`` memo tables, which hold exactly
  what ``latency_fn`` / ``_split`` returned.
  :mod:`repro.sim.plan_cache` shares one stage tuple per (server
  type, model, plan), so the tables fill once per fleet.
- :class:`QueryState` -- per-query runtime record (``__slots__``).
- :class:`EventHeap` -- the python fleet loops' global event heap:
  flat ``(time, seq, owner, stage_idx, payload)`` tuples, a monotone
  sequence number for deterministic FIFO tie-breaks, and a ``dead``
  set of killed sequence numbers the loops skip.
- :class:`Pipeline` -- per-replica queue/free-unit state with
  closure-free ``enqueue``/``dispatch``/``on_finish`` methods on the
  global heap: the python reference of the batching semantics.
- :class:`ReplicaLoop` -- the same semantics on one replica's private
  heap, resumable at any time limit: the vector fleet core runs every
  FUSE-bearing replica on one, and the single-node simulator its
  whole trace.
- :class:`DirectStage` -- an exact arrival-driven fast path for
  single-stage SPLIT pipelines (every CPU placement): a G/D/c queue
  with deterministic service admits a unit-availability recurrence, so
  a query's completion time is computed *at arrival* and only one
  global event is scheduled instead of a per-chunk event chain.  The
  recurrence performs the same float operations in the same order as
  the event pipeline, so completion times are bit-identical.

Arrivals are *not* heap events: the loops merge the (sorted) arrival
list with the heap, preferring arrivals on ties -- equivalent to the
old behaviour of pushing every arrival up front with the lowest
sequence numbers, at a fraction of the heap traffic.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Callable, Sequence

__all__ = [
    "StageMode",
    "SimStage",
    "QueryState",
    "DirectStage",
    "EventHeap",
    "Pipeline",
    "ReplicaLoop",
]


class StageMode(enum.Enum):
    """How a stage forms batches from incoming queries."""

    SPLIT = "split"
    """Chop each query into sub-batches of at most ``chunk_items``."""

    FUSE = "fuse"
    """Merge whole queued queries into one batch up to ``fuse_items``."""


@dataclass(frozen=True, slots=True)
class SimStage:
    """One pipeline stage of a simulated server.

    The seven spec fields below define the stage; they alone take part
    in ``==`` and ``hash``.  The record also carries two memo tables,
    ``items -> base service`` and ``size -> chunks``, filled on demand
    by :meth:`form_and_time`, :meth:`chunks_for` and
    :class:`DirectStage`.  A memo holds exactly what ``latency_fn`` or
    ``_split`` returned, so memoized timings are bit-identical to
    :meth:`service_s` and ``_split``; one tuple of stages shared by
    every replica of a plan fills its tables once.

    Attributes:
        name: Stage label (matches the evaluator's stage names).
        units: Parallel service threads.
        mode: Batch-formation mode.
        chunk_items: Sub-batch size for SPLIT stages.
        fuse_items: Fusion limit for FUSE stages (0 = one query/batch).
        latency_fn: Batch service time as a function of items.
        pooling_sensitivity: Fraction of this stage's service time that
            scales with the batch's pooling factor.  Sparse (embedding)
            stages are pooling-bound, so the per-query pooling variance
            of Fig. 2(c) lengthens their service; dense stages are
            insensitive.
    """

    name: str
    units: int
    mode: StageMode
    chunk_items: int
    fuse_items: int
    latency_fn: Callable[[int], float]
    pooling_sensitivity: float = 0.0
    is_fuse: bool = field(init=False, repr=False, compare=False)
    _base_s: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _chunks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_fuse", self.mode is StageMode.FUSE)

    def service_s(self, items: int, pooling_scale: float) -> float:
        """Batch service time including the pooling-variance component."""
        base = self.latency_fn(items)
        if self.pooling_sensitivity <= 0.0:
            return base
        scale = (
            1.0 - self.pooling_sensitivity
            + self.pooling_sensitivity * pooling_scale
        )
        return base * scale

    def chunks_for(self, size: int) -> tuple[int, ...]:
        """``_split(size, chunk_items)``, memoized per query size."""
        chunks = self._chunks.get(size)
        if chunks is None:
            chunks = tuple(_split(size, self.chunk_items))
            self._chunks[size] = chunks
        return chunks

    def form_and_time(self, queue: deque) -> tuple[list, float]:
        """Pop one batch from a stage FIFO; return it and its service time.

        FUSE stages accumulate whole queued queries up to the fusion
        limit (a zero limit serves one query per batch); SPLIT stages
        serve one sub-batch per dispatch.  The service time equals
        :meth:`service_s` at the batch's items and item-weighted mean
        pooling, a single-unit batch's pooling kept as
        ``(pooling * items) / items`` rather than simplified.  Work
        units carry at least one item (enforced at enqueue), so no
        ``max(items, 1)`` guard is needed.
        """
        unit = queue.popleft()
        items = unit[1]
        fuse = self.fuse_items
        if self.is_fuse and fuse > 0:
            batch = [unit]
            total = items
            while queue and total + queue[0][1] <= fuse:
                extra = queue.popleft()
                total += extra[1]
                batch.append(extra)
            if len(batch) > 1:
                pooled = 0.0
                for st, it in batch:
                    pooled += st.pooling * it
                items = total
                pooling = pooled / items
            else:
                pooling = (unit[0].pooling * items) / items
        else:
            batch = [unit]
            pooling = (unit[0].pooling * items) / items
        base = self._base_s.get(items)
        if base is None:
            base = self.latency_fn(items)
            self._base_s[items] = base
        ps = self.pooling_sensitivity
        if ps <= 0.0:
            return batch, base
        return batch, base * (1.0 - ps + ps * pooling)


def _split(size: int, chunk: int) -> list[int]:
    """Sub-batch sizes for one query (last chunk may be partial)."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    full, rem = divmod(size, chunk)
    return [chunk] * full + ([rem] if rem else [])


class QueryState:
    """Runtime record of one in-flight query on a :class:`Pipeline`.

    ``arrival_s``/``size``/``pooling`` mirror the immutable
    :class:`~repro.sim.queries.Query` so the hot loops never chase the
    extra attribute hop; ``server``/``model`` name where it runs.
    """

    __slots__ = (
        "query",
        "model",
        "server",
        "arrival_s",
        "size",
        "pooling",
        "pending_units",
    )

    def __init__(self, query, model: str | None = None) -> None:
        self.query = query
        self.model = model
        self.server = None
        self.arrival_s = query.arrival_s
        self.size = query.size
        self.pooling = query.pooling_scale
        self.pending_units = 0


class DirectStage:
    """Exact arrival-driven execution of a single-stage SPLIT pipeline.

    A SPLIT stage with deterministic service is a FIFO G/D/c queue:
    work units are served in enqueue order, each starting when the
    earliest unit-thread frees.  Tracking the ``units`` per-thread
    availability times therefore reproduces the event engine exactly --
    ``start = max(now, min(avail))`` is the same float the finish-event
    cascade would produce -- while scheduling a single completion event
    per query instead of one per chunk.

    Only valid for one-stage pipelines: with downstream stages the
    enqueue order at stage 1 depends on stage-0 completion order, which
    the recurrence does not track.
    """

    __slots__ = ("stage", "avail")

    def __init__(self, stage: SimStage) -> None:
        if stage.is_fuse:
            raise ValueError("DirectStage requires a SPLIT stage")
        self.stage = stage
        self.avail = [0.0] * stage.units

    def completion_time(
        self, now: float, size: int, pooling_scale: float, factor: float
    ) -> float:
        """Completion time of a query arriving at ``now`` (claims units).

        Each chunk is timed as :meth:`SimStage.form_and_time` times a
        single-unit batch (chunk sizes are >= 1), then multiplied by the
        replica's straggler ``factor``; at 1.0 the multiply is skipped,
        so fault-free floats are those of the event pipeline.
        """
        stage = self.stage
        avail = self.avail
        base_memo = stage._base_s
        latency_fn = stage.latency_fn
        ps = stage.pooling_sensitivity
        if size <= stage.chunk_items:
            # Single-chunk fast path (the common case: mean query size
            # is below the plan's batch size): ``_split`` yields [size].
            base = base_memo.get(size)
            if base is None:
                base = latency_fn(size)
                base_memo[size] = base
            if ps > 0.0:
                base = base * (1.0 - ps + ps * ((pooling_scale * size) / size))
            if factor != 1.0:
                base *= factor
            t_free = avail[0]
            start = t_free if t_free > now else now
            done = start + base
            heapreplace(avail, done)
            return done
        finish = now
        for chunk in stage.chunks_for(size):
            base = base_memo.get(chunk)
            if base is None:
                base = latency_fn(chunk)
                base_memo[chunk] = base
            if ps > 0.0:
                base = base * (1.0 - ps + ps * ((pooling_scale * chunk) / chunk))
            if factor != 1.0:
                base *= factor
            t_free = avail[0]
            start = t_free if t_free > now else now
            done = start + base
            heapreplace(avail, done)
            if done > finish:
                finish = done
        return finish

    def reset(self) -> None:
        """Forget all claimed unit time (crash recovery starts fresh)."""
        self.avail = [0.0] * self.stage.units


class EventHeap:
    """Global event heap with FIFO tie-breaks and lazy deletion.

    Entries are flat ``(time, seq, owner, stage_idx, payload)`` tuples;
    comparison never reaches ``owner`` because ``seq`` is unique.  The
    python fleet loops pop ``items`` directly in their hot loops and
    skip entries whose sequence number they marked in ``dead`` (a
    crash kills its replica's in-flight batches that way).
    """

    __slots__ = ("items", "seq", "dead")

    def __init__(self) -> None:
        self.items: list[tuple] = []
        self.seq = 0
        self.dead: set[int] = set()

    def push(self, time_s: float, owner, stage_idx: int, payload) -> int:
        """Schedule an event; returns its sequence number."""
        seq = self.seq
        self.seq = seq + 1
        heappush(self.items, (time_s, seq, owner, stage_idx, payload))
        return seq


class Pipeline:
    """Per-replica stage queues, free-unit counts, and event plumbing.

    The methods drive the pipeline on a shared :class:`EventHeap` (the
    python fleet loops).  ``owner`` rides in every scheduled event so
    the driving loop can map a finish back to its replica without
    closures; it defaults to the pipeline itself.  A
    :class:`ReplicaLoop` drives the same queues on a private heap.
    """

    __slots__ = ("stages", "queues", "free", "owner", "last", "service_scale")

    def __init__(self, stages: Sequence[SimStage], owner=None) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        self.stages: tuple[SimStage, ...] = tuple(stages)
        self.queues: list[deque] = [deque() for _ in self.stages]
        self.free: list[int] = [s.units for s in self.stages]
        self.owner = owner if owner is not None else self
        self.last = len(self.stages) - 1
        # Straggler hook: service times of batches *started* while the
        # scale is != 1.0 are multiplied by it.  At the default 1.0 the
        # multiply is skipped entirely, so fault-free runs stay
        # bit-identical to the pre-fault engine.
        self.service_scale = 1.0

    def reset(self) -> None:
        """Drop all queued work and return every unit to the free pool.

        Used when a replica crashes: in-flight batches are cancelled at
        the heap, queued units are discarded here, and a later recovery
        starts from an empty pipeline.
        """
        for queue in self.queues:
            queue.clear()
        self.free = [s.units for s in self.stages]

    def dispatch(self, idx: int, now: float, heap: EventHeap) -> None:
        """Start batches at a stage while units and work are available."""
        free = self.free
        n = free[idx]
        if n <= 0:
            return
        queue = self.queues[idx]
        if not queue:
            return
        form = self.stages[idx].form_and_time
        owner = self.owner
        items = heap.items
        seq = heap.seq
        scale = self.service_scale
        while n > 0 and queue:
            batch, service = form(queue)
            if scale != 1.0:
                service *= scale
            n -= 1
            heappush(items, (now + service, seq, owner, idx, batch))
            seq += 1
        heap.seq = seq
        free[idx] = n

    def enqueue(self, idx: int, state, size: int, now: float, heap: EventHeap) -> None:
        """Admit one query's units at a stage and try to start them.

        SPLIT stages enqueue the query's ``chunk_items`` sub-batches,
        FUSE stages the whole query as one unit; either way the state's
        ``pending_units`` counts them.  A query with no items would
        never complete, so ``size < 1`` raises.
        """
        stage = self.stages[idx]
        queue = self.queues[idx]
        if size < 1:
            raise ValueError(
                "query size must be >= 1 (zero units never complete)"
            )
        if stage.is_fuse:
            state.pending_units = 1
            queue.append((state, size))
        else:
            chunks = stage._chunks.get(size)
            if chunks is None:
                chunks = stage.chunks_for(size)
            state.pending_units = len(chunks)
            append = queue.append
            for chunk in chunks:
                append((state, chunk))
        self.dispatch(idx, now, heap)

    def on_finish(
        self, idx: int, batch: list, now: float, heap: EventHeap, completed: list
    ) -> None:
        """Retire one batch: advance finished queries, refill the stage.

        Queries whose last unit left the last stage are appended to
        ``completed`` (engine-specific bookkeeping happens there).
        """
        self.free[idx] += 1
        last = self.last
        for unit in batch:
            state = unit[0]
            pending = state.pending_units - 1
            state.pending_units = pending
            if pending == 0:
                if idx < last:
                    self.enqueue(idx + 1, state, state.size, now, heap)
                else:
                    completed.append(state)
        self.dispatch(idx, now, heap)


class _State:
    """Query record of a :class:`ReplicaLoop`: the :class:`QueryState`
    fields the loop reads, plus the caller's index ``idx`` for it."""

    __slots__ = ("pooling", "pending_units", "size", "idx")

    def __init__(self, pooling: float, size: int, idx: int) -> None:
        self.pooling = pooling
        self.size = size
        self.idx = idx
        self.pending_units = 0


class ReplicaLoop:
    """Resumable private event loop for one replica's pipeline.

    Mirrors :class:`Pipeline`'s methods exactly -- including
    ``on_finish``'s per-query enqueue-then-dispatch order, which batch
    formation at the next stage observes -- but against a private heap
    of ``(time, seq, stage_idx, batch)`` events.  Only the order of one
    replica's own events matters to it, so the vector fleet core gives
    every FUSE-bearing replica one loop, and the single-node simulator
    runs its whole trace through one.

    :meth:`pump` feeds a sorted arrival slice and runs local events
    with ``time < limit``; events at or past the limit stay queued so
    the replica can resume after a segment boundary.  ``seq`` counts
    batch events exactly as the global heap's sequence would for this
    replica; ``inflight`` counts the admitted queries that have not
    finished (the replica's outstanding count).
    """

    __slots__ = (
        "pipeline", "queues", "free", "last",
        "stages", "forms", "chunk_memos", "is_fuse",
        "events", "seq", "completions", "inflight", "done",
    )

    def __init__(self, pipeline: Pipeline) -> None:
        stages = pipeline.stages
        self.pipeline = pipeline
        self.queues = pipeline.queues
        self.free = pipeline.free
        self.last = len(stages) - 1
        self.stages = stages
        self.forms = [s.form_and_time for s in stages]
        self.chunk_memos = [s._chunks for s in stages]
        self.is_fuse = [s.is_fuse for s in stages]
        self.events: list[tuple] = []
        self.seq = 0
        self.completions: list[tuple[float, int]] = []
        self.inflight = 0
        self.done = 0

    def kill(self) -> set:
        """Cancel all in-flight work after a crash.

        Returns the index of every query currently in the local heap or
        the stage queues, then resets to an empty pipeline.
        ``Pipeline.reset`` clears the queue deques in place but
        *replaces* ``free``, so the alias is re-synced here; ``seq`` is
        preserved (the python core's global heap sequence keeps
        counting across crashes).
        """
        vict: set = set()
        add = vict.add
        for entry in self.events:
            for unit in entry[3]:
                add(unit[0].idx)
        for q in self.queues:
            for unit in q:
                add(unit[0].idx)
        self.events = []
        self.completions = []
        self.inflight = 0
        self.pipeline.reset()
        self.free = self.pipeline.free
        return vict

    def pump(self, tl, sl, pl, il, limit, finish, rank, track: bool) -> None:
        """Admit a sorted arrival slice and run events before ``limit``.

        ``tl``/``sl``/``pl``/``il`` hold the arrivals' times, sizes
        (at least 1; the loop does not check), pooling scales and
        indices.  An arrival is admitted before a local event at the
        same time, as the python loops pop arrivals first.  Each query
        that leaves the last stage gets its finish time in
        ``finish[idx]`` and its completion number (``done`` so far) in
        ``rank[idx]``: the queries one batch completes share a finish
        time and complete in batch order, which need not be arrival
        order.  With ``track`` each completion is also appended to
        ``completions`` as ``(finish, idx)``.
        """
        stages = self.stages
        queues = self.queues
        free = self.free
        last = self.last
        forms = self.forms
        chunk_memos = self.chunk_memos
        is_fuse = self.is_fuse
        events = self.events
        seq = self.seq
        scale = self.pipeline.service_scale
        comp = self.completions.append
        nn = len(tl)
        done = self.done
        i = 0
        while True:
            if i < nn:
                now = tl[i]
                if not events or now <= events[0][0]:
                    st = _State(pl[i], sl[i], il[i])
                    i += 1
                    if is_fuse[0]:
                        st.pending_units = 1
                        queues[0].append((st, st.size))
                    else:
                        chunks = chunk_memos[0].get(st.size)
                        if chunks is None:
                            chunks = stages[0].chunks_for(st.size)
                        st.pending_units = len(chunks)
                        q0 = queues[0]
                        for chunk in chunks:
                            q0.append((st, chunk))
                    nfree = free[0]
                    q0 = queues[0]
                    form = forms[0]
                    while nfree > 0 and q0:
                        batch, service = form(q0)
                        if scale != 1.0:
                            service *= scale
                        heappush(events, (now + service, seq, 0, batch))
                        seq += 1
                        nfree -= 1
                    free[0] = nfree
                    continue
            elif not events or events[0][0] >= limit:
                break
            now, _, idx, batch = heappop(events)
            free[idx] += 1
            for unit in batch:
                st = unit[0]
                pending = st.pending_units - 1
                st.pending_units = pending
                if pending == 0:
                    if idx < last:
                        nxt = idx + 1
                        if is_fuse[nxt]:
                            st.pending_units = 1
                            queues[nxt].append((st, st.size))
                        else:
                            chunks = chunk_memos[nxt].get(st.size)
                            if chunks is None:
                                chunks = stages[nxt].chunks_for(st.size)
                            st.pending_units = len(chunks)
                            qn = queues[nxt]
                            for chunk in chunks:
                                qn.append((st, chunk))
                        nfree = free[nxt]
                        qn = queues[nxt]
                        form = forms[nxt]
                        while nfree > 0 and qn:
                            b2, service = form(qn)
                            if scale != 1.0:
                                service *= scale
                            heappush(events, (now + service, seq, nxt, b2))
                            seq += 1
                            nfree -= 1
                        free[nxt] = nfree
                    else:
                        finish[st.idx] = now
                        rank[st.idx] = done
                        done += 1
                        if track:
                            comp((now, st.idx))
            nfree = free[idx]
            q = queues[idx]
            if nfree > 0 and q:
                form = forms[idx]
                while nfree > 0 and q:
                    b2, service = form(q)
                    if scale != 1.0:
                        service *= scale
                    heappush(events, (now + service, seq, idx, b2))
                    seq += 1
                    nfree -= 1
                free[idx] = nfree
        self.seq = seq
        self.inflight += nn - (done - self.done)
        self.done = done
