"""Vectorized fleet-replay core: batched routing and completion delivery.

The pure-Python fleet engine (:mod:`repro.fleet.engine`) processes one
event at a time through a global heap.  Without retries, hedging or a
live observer, per-event interleaving across replicas is unnecessary:
replicas never interact except through the router, and a replica's
queue at time t depends only on its own admissions.  This module
exploits that in one loop, :func:`run_vectorized`:

- Arrivals are ingested into flat numpy arrays -- a
  :class:`~repro.traces.FleetArrivals` source hands over its merged
  blocks, so synthetic traffic never becomes a Python object per
  arrival.  Outstanding-oblivious policies (rr / weighted) route on
  arrival order alone, so they are **pre-routed in batches** per model
  via :meth:`RoutingPolicy.choose_batch` (round-robin collapses to
  modular index arithmetic, smooth-WRR to a tight local credit loop).
- The queue-aware policies are routed **per arrival** inside the same
  segment body, each by its own router.  p2c reads the outstanding
  counts of its two draws only, so just those two replicas are brought
  up to the arrival time (a DirectStage replica retires its known
  finishes, a FUSE replica pumps its local loop).  ``least`` reads
  every candidate, so one per-model heap of pending finishes retires
  the whole candidate set up to the arrival and per-level bitmasks
  give the argmin.  Either way the pick is admitted at once.
- Queries routed to a :class:`~repro.sim.event_core.DirectStage`
  replica (every CPU placement) are delivered as **per-replica batches**:
  chunk service times are expanded vectorized, then a compact
  ``heapreplace`` recurrence over the replica's persistent unit-
  availability heap reproduces the event core's float sequence exactly.
- FUSE-bearing (accelerator) replicas run a **per-replica local event
  loop** -- batch formation there genuinely depends on queue state --
  but with plain-tuple query states and the global heap replaced by a
  replica-private one, which preserves within-replica event order (the
  only order that matters for an isolated replica).
- Only **segment boundaries** go through global coordination: the
  trace is cut at autoscaler tick times and fault events, and the
  engine's own :meth:`FleetSimulator._apply_autoscaler_tick` (or the
  shared fault state) runs between segments with identically-ordered
  window feeds, so scaling decisions (and their seeds of divergence)
  cannot drift from the python core.

Exactness: per-replica completion floats are bit-identical to the
python core (the recurrences perform the same operations in the same
order; ``tests/test_fast_core.py`` pins representative configurations
and fuzzes the rest; equal finishes on one replica keep its completion
order).  The one caveat is *cross-replica ties*: two
completions with byte-equal finish timestamps on different replicas may
enter per-model statistics in a different order than the global heap
would pop them, which can move ``mean_ms`` by one ulp.  Continuous-time
arrival processes make such ties vanishingly rare; percentiles are
order-insensitive either way (see ``docs/performance.md``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

__all__ = ["run_vectorized"]

#: Per-ServicedStage dense service tables, shared across replicas (the
#: stage objects themselves are shared via plan_cache).  Keyed by id()
#: with the stage kept referenced so a recycled id cannot alias.
_SERVICE_TABLES: dict[int, tuple[object, int, np.ndarray]] = {}

#: Python-list views of the same tables for the scalar-indexed FUSE
#: drains: indexing a list of floats is ~3x cheaper than indexing a
#: numpy array element-wise.
_SERVICE_LISTS: dict[int, tuple[object, int, list]] = {}

#: FUSE stages with fusion limits above this keep the dict-memo lookup
#: (a dense table would mostly hold service times no batch ever forms).
_FUSE_TABLE_CAP = 4096

#: Arrivals the per-arrival routers turn into Python scalars at a time.
#: Whole-trace lists would hold a float or int object plus a list slot
#: per column, 108-136 B per arrival on top of the numpy columns.
_P2C_BLOCK = 8192


def _service_table(stage, maxsz: int) -> np.ndarray:
    """Dense ``items -> base service seconds`` table for a SPLIT stage.

    Reads the stage's memo where populated and calls ``latency_fn``
    for the rest -- the same floats the python core's on-demand memo
    would produce (the memo itself is left untouched).
    """
    key = id(stage)
    cached = _SERVICE_TABLES.get(key)
    if cached is not None and cached[0] is stage and cached[1] >= maxsz:
        return cached[2]
    memo = stage._base_s
    fn = stage.latency_fn
    tab = np.empty(maxsz + 1)
    tab[0] = 0.0
    for sz in range(1, maxsz + 1):
        base = memo.get(sz)
        if base is None:
            base = fn(sz)
        tab[sz] = base
    _SERVICE_TABLES[key] = (stage, maxsz, tab)
    return tab


def _service_list(stage, maxsz: int) -> list:
    """Plain-list view of :func:`_service_table` for scalar loops."""
    key = id(stage)
    cached = _SERVICE_LISTS.get(key)
    if cached is not None and cached[0] is stage and cached[1] >= maxsz:
        return cached[2]
    tab = _service_table(stage, maxsz).tolist()
    _SERVICE_LISTS[key] = (stage, len(tab) - 1, tab)
    return tab


class _State:
    """Local stand-in for :class:`QueryState` in generic pipelines."""

    __slots__ = ("pooling", "pending_units", "size", "idx")

    def __init__(self, pooling: float, size: int, idx: int) -> None:
        self.pooling = pooling
        self.size = size
        self.idx = idx
        self.pending_units = 0


class _LocalReplicaSim:
    """Resumable private event loop for one FUSE-bearing replica.

    Mirrors :class:`~repro.sim.event_core.Pipeline` semantics exactly --
    including ``on_finish``'s per-query enqueue-then-dispatch order,
    which batch formation at the next stage observes -- but against a
    replica-private heap.  ``pump`` feeds a sorted arrival slice and
    runs local events with ``time < limit``; events at or past the
    limit stay queued so the replica can resume after an autoscaler
    tick.  ``seq`` counts batch events exactly as the global heap's
    sequence would for this replica; ``inflight`` counts the admitted
    queries that have not finished (the replica's outstanding count).
    Each finished query gets its finish time in ``finish`` and its
    replica-local completion number (``done`` so far) in ``rank``:
    queries one batch completes share a finish time, and the python
    core records them in batch order, which need not be arrival order.
    """

    __slots__ = (
        "pipeline", "queues", "free", "last", "fuse_only",
        "stages", "forms", "chunk_memos", "is_fuse",
        "fuse_of", "tab_of", "memo_of", "fn_of", "ps_of",
        "events", "seq", "completions", "inflight", "done",
    )

    def __init__(self, pipeline) -> None:
        stages = pipeline.stages
        self.pipeline = pipeline
        self.queues = pipeline.queues
        self.free = pipeline.free
        self.last = len(stages) - 1
        self.fuse_only = all(s.is_fuse for s in stages)
        self.stages = stages
        self.forms = [s.form_and_time for s in stages]
        self.chunk_memos = [s._chunks for s in stages]
        self.is_fuse = [s.is_fuse for s in stages]
        self.fuse_of = [s.fuse_items for s in stages]
        # Dense service tables replace the dict-memo lookup in the FUSE
        # drains: any batch a stage with fusion limit F can form totals
        # at most F items (a single oversize query keeps the memo path).
        self.tab_of = [
            _service_list(s, s.fuse_items)
            if s.is_fuse and 0 < s.fuse_items <= _FUSE_TABLE_CAP
            else None
            for s in stages
        ]
        self.memo_of = [s._base_s for s in stages]
        self.fn_of = [s.latency_fn for s in stages]
        self.ps_of = [s.pooling_sensitivity for s in stages]
        self.events: list[tuple] = []
        self.seq = 0
        self.completions: list[tuple[float, int]] = []
        self.inflight = 0
        self.done = 0

    def kill(self) -> set:
        """Cancel all in-flight work after a crash.

        Returns the global arrival indices of every query currently in
        the local heap or the stage queues, then resets to an empty
        pipeline.  ``Pipeline.reset`` clears the queue deques in place
        but *replaces* ``free``, so the alias is re-synced here; ``seq``
        is preserved (the python core's global heap sequence keeps
        counting across crashes).
        """
        vict: set = set()
        add = vict.add
        if self.fuse_only:
            for entry in self.events:
                for tup in entry[3]:
                    add(tup[2])
            for q in self.queues:
                for tup in q:
                    add(tup[2])
        else:
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
        if self.fuse_only:
            self._pump_fuse(tl, sl, pl, il, limit, finish, rank, track)
        else:
            self._pump_generic(tl, sl, pl, il, limit, finish, rank, track)

    def _pump_fuse(self, tl, sl, pl, il, limit, finish, rank, track) -> None:
        """All-FUSE pipelines: query state is a plain (pooling, size,
        global-arrival-index) tuple and every dispatch is inlined.

        Service times come from the dense per-stage tables where built
        (``total <= fuse`` always holds for multi-unit batches; a lone
        oversize query falls back to the dict memo), the pooled-average
        loop runs only for pooling-sensitive stages, and batches started
        under a fault-scaled pipeline are stretched exactly like
        ``Pipeline.dispatch`` (the scale is constant within a pump: the
        fault path only changes it at segment boundaries).
        """
        queues = self.queues
        free = self.free
        last = self.last
        fuse_of = self.fuse_of
        tab_of = self.tab_of
        memo_of = self.memo_of
        fn_of = self.fn_of
        ps_of = self.ps_of
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
                    queues[0].append((pl[i], sl[i], il[i]))
                    i += 1
                    nfree = free[0]
                    q = queues[0]
                    if nfree > 0 and q:
                        fuse = fuse_of[0]
                        tab = tab_of[0]
                        memo = memo_of[0]
                        fn = fn_of[0]
                        ps = ps_of[0]
                        popleft = q.popleft
                        while nfree > 0 and q:
                            unit = popleft()
                            total = unit[1]
                            batch = [unit]
                            while q and total + q[0][1] <= fuse:
                                extra = popleft()
                                total += extra[1]
                                batch.append(extra)
                            if tab is not None and total <= fuse:
                                base = tab[total]
                            else:
                                base = memo.get(total)
                                if base is None:
                                    base = fn(total)
                                    memo[total] = base
                            if ps > 0.0:
                                if len(batch) > 1:
                                    pooled = 0.0
                                    for tup in batch:
                                        pooled += tup[0] * tup[1]
                                    pooling = pooled / total
                                else:
                                    pooling = (unit[0] * total) / total
                                base = base * (1.0 - ps + ps * pooling)
                            if scale != 1.0:
                                base = base * scale
                            heappush(events, (now + base, seq, 0, batch))
                            seq += 1
                            nfree -= 1
                        free[0] = nfree
                    continue
            elif not events or events[0][0] >= limit:
                break
            entry = heappop(events)
            now = entry[0]
            idx = entry[2]
            free[idx] += 1
            if idx < last:
                # Mirror Pipeline.on_finish: each finished query is
                # enqueued and the next stage dispatched before the next
                # query lands, so batch formation sees them one at a time.
                nxt = idx + 1
                q = queues[nxt]
                fuse = fuse_of[nxt]
                tab = tab_of[nxt]
                memo = memo_of[nxt]
                fn = fn_of[nxt]
                ps = ps_of[nxt]
                popleft = q.popleft
                for tup in entry[3]:
                    q.append(tup)
                    nfree = free[nxt]
                    while nfree > 0 and q:
                        unit = popleft()
                        total = unit[1]
                        batch = [unit]
                        while q and total + q[0][1] <= fuse:
                            extra = popleft()
                            total += extra[1]
                            batch.append(extra)
                        if tab is not None and total <= fuse:
                            base = tab[total]
                        else:
                            base = memo.get(total)
                            if base is None:
                                base = fn(total)
                                memo[total] = base
                        if ps > 0.0:
                            if len(batch) > 1:
                                pooled = 0.0
                                for t2 in batch:
                                    pooled += t2[0] * t2[1]
                                pooling = pooled / total
                            else:
                                pooling = (unit[0] * total) / total
                            base = base * (1.0 - ps + ps * pooling)
                        if scale != 1.0:
                            base = base * scale
                        heappush(events, (now + base, seq, nxt, batch))
                        seq += 1
                        nfree -= 1
                    free[nxt] = nfree
            else:
                for tup in entry[3]:
                    finish[tup[2]] = now
                    rank[tup[2]] = done
                    done += 1
                    if track:
                        comp((now, tup[2]))
            # refill the stage that just freed a unit
            nfree = free[idx]
            q = queues[idx]
            if nfree > 0 and q:
                fuse = fuse_of[idx]
                tab = tab_of[idx]
                memo = memo_of[idx]
                fn = fn_of[idx]
                ps = ps_of[idx]
                popleft = q.popleft
                while nfree > 0 and q:
                    unit = popleft()
                    total = unit[1]
                    batch = [unit]
                    while q and total + q[0][1] <= fuse:
                        extra = popleft()
                        total += extra[1]
                        batch.append(extra)
                    if tab is not None and total <= fuse:
                        base = tab[total]
                    else:
                        base = memo.get(total)
                        if base is None:
                            base = fn(total)
                            memo[total] = base
                    if ps > 0.0:
                        if len(batch) > 1:
                            pooled = 0.0
                            for t2 in batch:
                                pooled += t2[0] * t2[1]
                            pooling = pooled / total
                        else:
                            pooling = (unit[0] * total) / total
                        base = base * (1.0 - ps + ps * pooling)
                    if scale != 1.0:
                        base = base * scale
                    heappush(events, (now + base, seq, idx, batch))
                    seq += 1
                    nfree -= 1
                free[idx] = nfree
        self.seq = seq
        self.inflight += nn - (done - self.done)
        self.done = done

    def _pump_generic(
        self, tl, sl, pl, il, limit, finish, rank, track
    ) -> None:
        """Mixed SPLIT/FUSE pipelines: slotted query states with
        ``pending_units`` accounting, exactly like ``Pipeline``."""
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


def _ingest_blocks(models, blocks, codes):
    """Concatenate merged ``(t, size, pooling, model_index)`` blocks.

    ``models[model_index]`` names each arrival; models with no replica
    are added to ``codes`` in first-arrival order, as the pair path
    does.  An empty source yields empty columns.
    """
    cols = ([], [], [], [])
    for block in blocks:
        for col, arr in zip(cols, block):
            col.append(arr)
    if not cols[0]:
        floats, ints = np.empty(0), np.empty(0, np.int64)
        return floats, ints, floats, ints
    arr_t, arr_size, arr_pool, src = (np.concatenate(col) for col in cols)
    lut = np.full(len(models), -1, dtype=np.int64)
    firsts = []
    for k, m in enumerate(models):
        if m in codes:
            lut[k] = codes[m]
        else:
            hits = np.flatnonzero(src == k)
            if len(hits):
                firsts.append((int(hits[0]), k))
    for _, k in sorted(firsts):
        lut[k] = codes[models[k]] = len(codes)
    return arr_t, arr_size.astype(np.int64, copy=False), arr_pool, lut[src]


def _ingest(sim, trace):
    """Materialize the trace into flat arrays (sorted by arrival).

    A source whose iterator offers its merged blocks (``take_blocks``,
    see :class:`~repro.traces.FleetArrivals`) is concatenated block by
    block with no per-arrival Python object; any other source is read
    as ``(model, query)`` pairs.  Lists/tuples are stably sorted like
    the python core; streamed sources must already be sorted (same
    error text as the engine's lazy check).  Returns ``(arr_t,
    arr_size, arr_pool, arr_m, model_names, codes)`` where ``codes``
    maps model name -> row code (routable models first, in sorted
    order, then unknown models in first-arrival order).  An empty
    source gives empty arrays; the callers decide whether that is an
    error.
    """
    is_list = isinstance(trace, (list, tuple))
    codes = {m: i for i, m in enumerate(sorted(sim._routable))}
    rows = iter(trace)
    take = getattr(rows, "take_blocks", None)
    blocks = take() if take is not None else None
    if blocks is not None:
        arr_t, arr_size, arr_pool, arr_m = _ingest_blocks(
            rows.models, blocks, codes
        )
        n = len(arr_t)
    else:
        pairs = list(rows)
        n = len(pairs)
        arr_t = np.fromiter((q[1] for _, q in pairs), np.float64, count=n)
        arr_size = np.fromiter((q[2] for _, q in pairs), np.int64, count=n)
        arr_pool = np.fromiter((q[3] for _, q in pairs), np.float64, count=n)
        try:
            arr_m = np.fromiter(
                (codes[m] for m, _ in pairs), np.int64, count=n
            )
        except KeyError:
            # Rare: the trace names models with no replica anywhere.
            # They surface as dropped streams, coded in first-arrival
            # order.
            for m, _ in pairs:
                if m not in codes:
                    codes[m] = len(codes)
            arr_m = np.fromiter(
                (codes[m] for m, _ in pairs), np.int64, count=n
            )
    model_names = [None] * len(codes)
    for m, c in codes.items():
        model_names[c] = m
    finite = np.isfinite(arr_t)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"trace entry {k} ({model_names[arr_m[k]]!r}) has a non-finite "
            f"arrival time ({float(arr_t[k])!r})"
        )
    if n > 1:
        deltas = np.diff(arr_t)
        if bool((deltas < 0.0).any()):
            if not is_list:
                bad = int(np.nonzero(deltas < 0.0)[0][0])
                raise ValueError(
                    "arrival stream is not sorted by time "
                    f"(t={float(arr_t[bad + 1])!r} after "
                    f"t={float(arr_t[bad])!r})"
                )
            order = np.argsort(arr_t, kind="stable")
            arr_t = arr_t[order]
            arr_size = arr_size[order]
            arr_pool = arr_pool[order]
            arr_m = arr_m[order]
    return arr_t, arr_size, arr_pool, arr_m, model_names, codes


def _drop_unroutable(
    model, ts, warmup_s, known, dropped, drop_order, window_drops
) -> None:
    """Drop arrivals (times ``ts``) of a model with no routable replica.

    The python loop's drop path: post-warmup arrivals count as dropped,
    every one feeds the autoscaler window, and models the fleet does
    not serve at all (not in ``known``) are listed in first-drop order
    so the report still shows them.
    """
    dropped[model] = dropped.get(model, 0) + int(
        np.count_nonzero(ts >= warmup_s)
    )
    if model not in known and model not in drop_order:
        drop_order.append(model)
    window_drops[model] = window_drops.get(model, 0) + len(ts)


def _apply_settles(pending: dict, before: float = float("inf")) -> None:
    """Retire draining replicas whose last completion precedes ``before``.

    ``pending`` maps each drained replica to its last finish time; the
    python loop settles it when that completion pops, so the settle
    applies before any later boundary.
    """
    for drained, settle_t in list(pending.items()):
        if settle_t < before:
            drained.settle(settle_t)
            drained.active = False
            drained.draining = False
            del pending[drained]


def _report(
    sim, ingested, warmup_s, horizon, server_of, routed, finish, rank,
    dropped, drop_order, scale_events, fault_info, events,
):
    """Fold a batch replay's per-arrival arrays into the fleet report.

    ``routed`` marks the arrivals that completed (``server_of`` names
    their replica, ``finish`` their completion time).  Sets every
    replica's counters and settles it at ``horizon`` as the python
    loops leave them, hands ``_summarize`` ``(finish, latency)`` arrays
    per model sorted by finish, then ``rank`` (a FUSE replica's local
    completion order; zero on DirectStage replicas, whose equal
    finishes complete in arrival order), and records the event and
    tick counts and the horizon.
    """
    arr_t, arr_size, _, arr_m, _, codes = ingested
    servers = sim.servers
    n_servers = len(servers)
    srv_routed = server_of[routed]
    counts = np.bincount(srv_routed, minlength=n_servers)
    items = np.bincount(
        srv_routed,
        weights=arr_size[routed].astype(np.float64),
        minlength=n_servers,
    )
    inwin_mask = routed & (arr_t >= warmup_s)
    inwin_mask[inwin_mask] &= finish[inwin_mask] <= horizon
    inwin = np.bincount(server_of[inwin_mask], minlength=n_servers)
    for i, s in enumerate(servers):
        s.completed = int(counts[i])
        s.items_done = int(items[i])
        s.completed_in_window = int(inwin[i])
        s.outstanding = 0
        s.settle(horizon)

    lat_all = finish - arr_t
    completions: dict[str, tuple] = {}
    empty = (np.empty(0), np.empty(0))
    for m in sim._routable:
        completions[m] = empty
    for m in drop_order:
        completions.setdefault(m, empty)
    for model, code in codes.items():
        sel = routed & (arr_m == code)
        if not bool(sel.any()):
            continue
        fin_m = finish[sel]
        lat_m = lat_all[sel]
        o = np.lexsort((rank[sel], fin_m))
        completions[model] = (fin_m[o], lat_m[o])

    sim.last_event_count = events
    sim.last_tick_count = fault_info["ticks"]
    sim.last_horizon_s = horizon
    sim.last_query_log = ()
    return sim._summarize(
        completions, dropped, warmup_s, horizon, tuple(scale_events),
        fault_info,
    )


def _direct_batch(server, ts, szs, pls) -> np.ndarray:
    """Finish times of arrivals ``ts`` queued on a DirectStage replica.

    Chunk service times are expanded vectorized (scaled while a slow
    fault holds), then the exact DirectStage recurrence runs against
    the replica's persistent unit-availability heap.
    """
    st = server.direct.stage
    c = st.chunk_items
    ps = st.pooling_sensitivity
    maxsz = int(szs.max())
    base_tab = _service_table(st, maxsz if maxsz > c else c)
    full, rem = np.divmod(szs, c)
    has_rem = rem > 0
    nch = full + has_rem
    csf = float(c)
    if ps > 0.0:
        svc_full = base_tab[c] * (1.0 - ps + ps * ((pls * csf) / csf))
        remf = rem.astype(np.float64)
        svc_rem = base_tab[rem] * (
            1.0 - ps + ps * ((pls * remf) / np.where(has_rem, remf, 1.0))
        )
    else:
        svc_full = np.full(len(ts), base_tab[c])
        svc_rem = base_tab[rem]
    ends = np.cumsum(nch)
    rep_t = np.repeat(ts, nch)
    rep_svc = np.repeat(svc_full, nch)
    rep_svc[ends[has_rem] - 1] = svc_rem[has_rem]
    if server.slow_factor != 1.0:
        # A straggler: the per-chunk multiply of
        # DirectStage.completion_time_slowed.
        rep_svc *= server.slow_factor
    starts_q = np.concatenate(([0], ends[:-1]))
    avail = server.direct.avail
    done = []
    ap = done.append
    for now, sv in zip(rep_t.tolist(), rep_svc.tolist()):
        tf = avail[0]
        d = (tf if tf > now else now) + sv
        heapreplace(avail, d)
        ap(d)
    return np.maximum.reduceat(np.asarray(done), starts_q)


def run_vectorized(
    sim, trace, warmup_s: float = 0.0, horizon_s: float | None = None
):
    """Play ``trace`` through ``sim``'s fleet on the vectorized core.

    Faults only perturb the simulation at their event timestamps, so
    the horizon partitions into fault-free segments.  Each segment
    routes and delivers its arrivals in per-replica batches, and at
    every segment boundary -- an autoscaler tick or a fault event,
    merged in heap pop order by
    :func:`repro.fleet.faults.iter_boundaries` -- the engine's tick or
    the shared :class:`~repro.fleet.faults._FaultState` runs (role
    changes, heap cancellation of killed in-flight queries, service
    rescaling).  ``sim.faults=None`` is zero fault boundaries.  Results
    are bit-identical to the python light loop (modulo the
    cross-replica tie caveat in the module docstring); the caller has
    verified eligibility: outstanding-oblivious routing or the exact
    :class:`~repro.fleet.routing.PowerOfTwoPolicy` /
    :class:`~repro.fleet.routing.LeastOutstandingPolicy` classes, no
    retries, hedging, or observer.

    A forced ``horizon_s`` acts as in the light loop: ticks fire while
    before it, the report settles at it, and an empty stream is allowed.
    """
    from repro.fleet.faults import (
        _FaultState,
        _materialized_faults,
        iter_boundaries,
    )
    from repro.fleet.routing import LeastOutstandingPolicy, PowerOfTwoPolicy

    servers = sim.servers
    n_servers = len(servers)
    # Stochastic schedules draw against the stream's nominal end; fetch
    # it before ingest consumes the source (mirrors the engine's lazy
    # end_hint).  Materialized traces use their exact last arrival.
    end_hint = None
    if not isinstance(trace, (list, tuple)) and (
        sim.faults is not None
        and getattr(sim.faults, "stochastic_params", None) is not None
    ):
        end_hint = getattr(trace, "end_s", None)
    ingested = _ingest(sim, trace)
    arr_t, arr_size, arr_pool, arr_m, model_names, codes = ingested
    n = len(arr_t)
    if horizon_s is None:
        if not n:
            raise ValueError("empty fleet trace")
        horizon = float(arr_t[-1])
    else:
        horizon = horizon_s
        if n and arr_t[-1] > horizon:
            raise ValueError(
                f"horizon_s={horizon_s!r} precedes the "
                f"stream's last arrival (t={float(arr_t[-1])!r})"
            )
    if isinstance(trace, (list, tuple)):
        end_hint = horizon
    fault_evs = tuple(_materialized_faults(sim, n_servers, end_hint))
    scaling = sim.autoscaler is not None
    window_s = sim.autoscaler.window_s if scaling else 0.0

    finish = np.empty(n, dtype=np.float64)
    rank = np.zeros(n, dtype=np.int32)
    server_of = np.full(n, -1, dtype=np.int32)
    killed = np.zeros(n, dtype=bool)
    routable = sim._routable
    policies = sim._policies

    window_lat: dict[str, list[float]] = {m: [] for m in routable}
    window_arrivals: dict[str, int] = {m: 0 for m in routable}
    window_drops: dict[str, int] = {m: 0 for m in routable}
    window_failures: dict[str, int] = {m: 0 for m in routable}
    failed: dict[str, int] = {m: 0 for m in routable}
    scale_events: list = []
    dropped: dict[str, int] = {m: 0 for m in routable}
    drop_order: list[str] = []

    runners: dict[int, _LocalReplicaSim] = {}
    # Per-server delivered direct-query index chunks: the crash-victim
    # lookback (finish >= crash time) needs to find them.
    delivered: dict[int, list] = {}
    outstanding_vec = np.zeros(n_servers, dtype=np.int64)
    last_finish = np.zeros(n_servers, dtype=np.float64)
    pool: list[tuple] = []  # (fin_arr, lat_arr, code, server_index)
    pending_settles: dict = {}
    draining_fuse: set = set()
    direct_pushes = 0
    ticks = 0
    fstate = _FaultState(servers, routable)
    # Each DirectStage replica's known finishes: the queries it admitted
    # through a per-arrival router whose completion has not been retired
    # yet (a crash clears them).
    known = [[] if s.direct is not None else None for s in servers]

    def runner_of(server) -> _LocalReplicaSim:
        runner = runners.get(server.index)
        if runner is None:
            runner = runners[server.index] = _LocalReplicaSim(server.pipeline)
        return runner

    def candidate_view(candidates):
        """Per-position views of ``candidates`` for a per-arrival router:
        server indices, DirectStages and straggler factors, and local
        runners (``None`` on a DirectStage replica)."""
        return (
            [s.index for s in candidates],
            [s.direct for s in candidates],
            [s.slow_factor for s in candidates],
            [
                None if s.direct is not None else runner_of(s)
                for s in candidates
            ],
        )

    def route_p2c(sel, candidates, policy) -> None:
        """Route and admit arrivals ``sel`` one at a time, exactly as
        :meth:`PowerOfTwoPolicy.choose` would against live queues.

        The policy's own ``Random`` draws the two candidates (same
        clamp, ``i == j`` and one-candidate rules), and only those two
        replicas are brought up to the arrival time t: a DirectStage
        replica retires its known finishes strictly before t (the light
        loop pops an arrival before a completion at the same time), a
        FUSE replica's local loop is pumped to t.  The pick is admitted
        at once.  Arrivals become Python scalars one bounded block at a
        time, and each block's servers and direct finishes are written
        back to ``server_of`` / ``finish``.
        """
        k = len(candidates)
        srv_of, directs, slows, runs = candidate_view(candidates)
        weights = [s.weight for s in candidates]
        heaps = [known[i] for i in srv_of]
        rand = policy._random
        pop = heappop
        push = heappush
        for b in range(0, len(sel), _P2C_BLOCK):
            g = sel[b:b + _P2C_BLOCK]
            picks = []
            d_idx = []
            d_fin = []
            pick = picks.append
            d_idx_add = d_idx.append
            d_fin_add = d_fin.append
            for t, sz, pl, gi in zip(
                arr_t[g].tolist(), arr_size[g].tolist(),
                arr_pool[g].tolist(), g.tolist(),
            ):
                i = 0
                if k > 1:
                    i = int(rand() * k)
                    j = int(rand() * k)
                    if i >= k:
                        i = k - 1
                    if j >= k:
                        j = k - 1
                    if i != j:
                        h = heaps[i]
                        if h is None:
                            runner = runs[i]
                            ev = runner.events
                            if ev and ev[0][0] < t:
                                runner.pump(
                                    (), (), (), (), t, finish, rank, scaling
                                )
                            out_i = runner.inflight
                        else:
                            while h and h[0] < t:
                                pop(h)
                            out_i = len(h)
                        h = heaps[j]
                        if h is None:
                            runner = runs[j]
                            ev = runner.events
                            if ev and ev[0][0] < t:
                                runner.pump(
                                    (), (), (), (), t, finish, rank, scaling
                                )
                            out_j = runner.inflight
                        else:
                            while h and h[0] < t:
                                pop(h)
                            out_j = len(h)
                        if out_j < out_i or (
                            out_j == out_i and weights[j] > weights[i]
                        ):
                            i = j
                h = heaps[i]
                if h is None:
                    runs[i].pump(
                        [t], [sz], [pl], [gi], t, finish, rank, scaling
                    )
                else:
                    while h and h[0] < t:
                        pop(h)
                    f = slows[i]
                    if f == 1.0:
                        d = directs[i].completion_time(t, sz, pl)
                    else:
                        d = directs[i].completion_time_slowed(t, sz, pl, f)
                    push(h, d)
                    d_idx_add(gi)
                    d_fin_add(d)
                pick(srv_of[i])
            server_of[g] = picks
            if d_idx:
                finish[d_idx] = d_fin

    def route_least(sel, candidates, policy) -> None:
        """Route and admit arrivals ``sel`` one at a time, exactly as
        :meth:`LeastOutstandingPolicy.choose` would against live queues.

        ``choose`` keeps the first minimum of (outstanding, -weight) in
        candidate-list order, so each candidate owns one bit, ranked by
        (-weight, position), and ``levels[c]`` holds the bits of the
        candidates with ``c`` queries outstanding: the pick is the
        lowest bit of the lowest non-empty level.  One min-heap of
        (time, position) entries holds every pending DirectStage finish
        and each FUSE replica's next local event.  An arrival at t
        first retires the entries strictly before t -- a finish lowers
        its replica's count by one, a FUSE entry pumps that replica to
        t -- then admits the pick at once, in blocks as ``route_p2c``
        does.  The pending direct finishes go back to ``known`` at the
        end, where a crash and the next segment find them.
        """
        k = len(candidates)
        srv_of, directs, slows, runs = candidate_view(candidates)
        order = sorted(range(k), key=lambda p: (-candidates[p].weight, p))
        bits = [0] * k
        for r, p in enumerate(order):
            bits[p] = 1 << r
        count = [0] * k
        pending = []
        for p, runner in enumerate(runs):
            if runner is None:
                h = known[srv_of[p]]
                count[p] = len(h)
                pending += [(f, p) for f in h]
                h.clear()
            else:
                count[p] = runner.inflight
                if runner.events:
                    pending.append((runner.events[0][0], p))
        heapify(pending)
        # Only an admission raises a count, by one per arrival.
        levels = [0] * (max(count) + len(sel) + 2)
        for p in range(k):
            levels[count[p]] |= bits[p]
        low = min(count)
        pop = heappop
        push = heappush
        for b in range(0, len(sel), _P2C_BLOCK):
            g = sel[b:b + _P2C_BLOCK]
            picks = []
            d_idx = []
            d_fin = []
            pick = picks.append
            d_idx_add = d_idx.append
            d_fin_add = d_fin.append
            for t, sz, pl, gi in zip(
                arr_t[g].tolist(), arr_size[g].tolist(),
                arr_pool[g].tolist(), g.tolist(),
            ):
                while pending and pending[0][0] < t:
                    p = pop(pending)[1]
                    c = count[p]
                    runner = runs[p]
                    if runner is None:
                        out = c - 1
                    else:
                        ev = runner.events
                        if not ev or ev[0][0] >= t:
                            continue  # stale: already pumped past it
                        runner.pump((), (), (), (), t, finish, rank, scaling)
                        if ev:
                            push(pending, (ev[0][0], p))
                        out = runner.inflight
                        if out == c:
                            continue
                    bit = bits[p]
                    levels[c] ^= bit
                    levels[out] |= bit
                    count[p] = out
                    if out < low:
                        low = out
                m = levels[low]
                p = order[(m & -m).bit_length() - 1]
                runner = runs[p]
                if runner is None:
                    f = slows[p]
                    if f == 1.0:
                        d = directs[p].completion_time(t, sz, pl)
                    else:
                        d = directs[p].completion_time_slowed(t, sz, pl, f)
                    push(pending, (d, p))
                    d_idx_add(gi)
                    d_fin_add(d)
                else:
                    ev = runner.events
                    nxt = ev[0][0] if ev else None
                    runner.pump([t], [sz], [pl], [gi], t, finish, rank, scaling)
                    if ev and (nxt is None or ev[0][0] < nxt):
                        push(pending, (ev[0][0], p))
                c = count[p]
                count[p] = c + 1
                bit = bits[p]
                levels[c] ^= bit
                levels[c + 1] |= bit
                if not levels[c]:
                    low = c + 1
                pick(srv_of[p])
            server_of[g] = picks
            if d_idx:
                finish[d_idx] = d_fin
        for f, p in pending:
            if runs[p] is None:
                known[srv_of[p]].append(f)

    # The exact classes only: a subclass may override ``choose``.
    routers = {PowerOfTwoPolicy: route_p2c, LeastOutstandingPolicy: route_least}
    per_arrival = [type(policies[s.model_name]) in routers for s in servers]

    def deliver(lo: int, hi: int, limit: float) -> None:
        """Route and deliver arrivals [lo, hi) -- the fault-free
        segment body.  Oblivious policies pre-route the segment in one
        batch; p2c and least route and admit per arrival (``routers``).
        Batch-routed direct replicas then run the exact DirectStage
        recurrence in batches (chunk services scaled while a slow fault
        holds), and every direct replica keeps its delivered indices for
        the crash-victim lookback; batch-routed FUSE-bearing replicas
        pump their local loops to ``limit`` (the next boundary)."""
        nonlocal direct_pushes
        if lo >= hi:
            return
        seg_m = arr_m[lo:hi]
        seg_t = arr_t[lo:hi]
        for code in np.unique(seg_m).tolist():
            model = model_names[code]
            sel = np.nonzero(seg_m == code)[0]
            candidates = routable.get(model)
            if not candidates:
                _drop_unroutable(
                    model, seg_t[sel], warmup_s, routable,
                    dropped, drop_order, window_drops,
                )
                continue
            policy = policies[model]
            route = routers.get(type(policy))
            if route is not None:
                route(lo + sel, candidates, policy)
            else:
                picks = policy.choose_batch(candidates, len(sel))
                cand_idx = np.fromiter(
                    (s.index for s in candidates), np.int64,
                    count=len(candidates),
                )
                server_of[lo + sel] = cand_idx[np.asarray(picks)]
            if scaling:
                window_arrivals[model] += len(sel)
        seg_srv = server_of[lo:hi]
        order = np.argsort(seg_srv, kind="stable")
        sorted_srv = seg_srv[order]
        uniq, starts = np.unique(sorted_srv, return_index=True)
        bounds = starts.tolist() + [hi - lo]
        for j, srv_i in enumerate(uniq.tolist()):
            if srv_i < 0:
                continue
            gidx = lo + order[bounds[j]:bounds[j + 1]]
            s = servers[srv_i]
            ts = arr_t[gidx]
            if scaling:
                outstanding_vec[srv_i] += len(gidx)
            if s.direct is not None:
                if per_arrival[srv_i]:
                    fin = finish[gidx]
                else:
                    fin = _direct_batch(s, ts, arr_size[gidx], arr_pool[gidx])
                    finish[gidx] = fin
                direct_pushes += len(gidx)
                chunks = delivered.get(srv_i)
                if chunks is None:
                    delivered[srv_i] = [gidx]
                else:
                    chunks.append(gidx)
                if scaling:
                    fmax = float(fin.max())
                    if fmax > last_finish[srv_i]:
                        last_finish[srv_i] = fmax
                    pool.append((fin, fin - ts, codes[s.model_name], srv_i))
            elif not per_arrival[srv_i]:
                runner_of(s).pump(
                    ts.tolist(), arr_size[gidx].tolist(),
                    arr_pool[gidx].tolist(), gidx.tolist(),
                    limit, finish, rank, scaling,
                )

    def collect(limit: float) -> None:
        """Run every local loop up to ``limit`` and bank completions."""
        for srv_i, runner in runners.items():
            if runner.events:
                runner.pump((), (), (), (), limit, finish, rank, scaling)
            if scaling:
                comps = runner.completions
                if comps:
                    fin = np.fromiter(
                        (c[0] for c in comps), np.float64, count=len(comps)
                    )
                    aidx = np.fromiter(
                        (c[1] for c in comps), np.int64, count=len(comps)
                    )
                    runner.completions = []
                    s = servers[srv_i]
                    fmax = float(fin.max())
                    if fmax > last_finish[srv_i]:
                        last_finish[srv_i] = fmax
                    pool.append(
                        (fin, fin - arr_t[aidx], codes[s.model_name], srv_i)
                    )

    def harvest(tick_t: float) -> None:
        """Feed the window ending at ``tick_t`` from the pool.

        Completions with ``finish < tick_t`` pop before the tick in the
        python loop (the tick's seq -1 wins ties), so strict less-than
        matches its window membership exactly.  Within a window the
        feed is finish-sorted; both built-in autoscalers are
        order-insensitive (they count latencies, not fold them).
        """
        nonlocal pool
        if not pool:
            return
        kept: list[tuple] = []
        per_code: dict[int, list[tuple]] = {}
        for fin, lats, code, srv_i in pool:
            mask = fin < tick_t
            n_in = int(mask.sum())
            if n_in == 0:
                kept.append((fin, lats, code, srv_i))
                continue
            if n_in == len(fin):
                taken = (fin, lats)
            else:
                keep = ~mask
                kept.append((fin[keep], lats[keep], code, srv_i))
                taken = (fin[mask], lats[mask])
            outstanding_vec[srv_i] -= n_in
            per_code.setdefault(code, []).append(taken)
        pool = kept
        for code, chunks in per_code.items():
            if len(chunks) == 1:
                fin_c, lat_c = chunks[0]
            else:
                fin_c = np.concatenate([c[0] for c in chunks])
                lat_c = np.concatenate([c[1] for c in chunks])
            o = np.argsort(fin_c, kind="stable")
            window_lat[model_names[code]] = (lat_c[o] * 1e3).tolist()

    def kill_in_flight(server, now: float) -> None:
        """Cancel a crashed replica's work (the light loop's victim
        semantics): every query with an outstanding attempt -- direct
        finishes at or past the crash, local heap batches, queued
        units -- fails at the crash timestamp."""
        nonlocal pool
        srv_i = server.index
        vict = None
        if server.direct is not None:
            chunks = delivered.get(srv_i)
            if chunks:
                gidx = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
                vict = gidx[finish[gidx] >= now]
                delivered[srv_i] = []
            server.direct.reset()
            known[srv_i].clear()
        else:
            runner = runners.get(srv_i)
            if runner is not None:
                vict_idx = runner.kill()
                if vict_idx:
                    vict = np.fromiter(
                        vict_idx, np.int64, count=len(vict_idx)
                    )
            else:
                server.pipeline.reset()
        if vict is not None and len(vict):
            killed[vict] = True
            # failed counts use the completions measurement window
            # (arrival after warmup, crash at or before the horizon);
            # the autoscaler's failure feed stays unfiltered.
            in_horizon = now <= horizon
            for code, at in zip(arr_m[vict].tolist(), arr_t[vict].tolist()):
                model = model_names[code]
                if in_horizon and at >= warmup_s:
                    failed[model] = failed.get(model, 0) + 1
                if scaling:
                    window_failures[model] = (
                        window_failures.get(model, 0) + 1
                    )
        if scaling:
            # Completed-but-unharvested samples survive the crash (the
            # python loop already decremented outstanding for them when
            # they popped); victims must never reach a window feed.
            kept_count = 0
            if pool:
                new_pool = []
                for entry in pool:
                    if entry[3] != srv_i:
                        new_pool.append(entry)
                        continue
                    fin, lats = entry[0], entry[1]
                    keep = fin < now
                    n_keep = int(keep.sum())
                    if n_keep:
                        if n_keep == len(fin):
                            new_pool.append(entry)
                        else:
                            new_pool.append(
                                (fin[keep], lats[keep], entry[2], srv_i)
                            )
                        kept_count += n_keep
                pool = new_pool
            # Harvest will still decrement for the kept samples, so
            # park outstanding exactly that far above the python zero.
            outstanding_vec[srv_i] = kept_count
        server.outstanding = 0
        last_finish[srv_i] = 0.0
        draining_fuse.discard(server)
        pending_settles.pop(server, None)

    # -- boundary loop -------------------------------------------------
    pos = 0
    for kind, item in iter_boundaries(fault_evs, window_s, horizon):
        bt = item if kind == "tick" else item.time_s
        hi = int(np.searchsorted(arr_t, bt, side="right"))
        deliver(pos, hi, bt)
        pos = hi
        collect(bt)
        if scaling:
            if draining_fuse:
                for s in list(draining_fuse):
                    runner = runners.get(s.index)
                    if runner is None or (
                        not runner.events and not any(runner.queues)
                    ):
                        pending_settles[s] = float(last_finish[s.index])
                        draining_fuse.discard(s)
            _apply_settles(pending_settles, bt)
        if kind == "tick":
            harvest(bt)
            for s, out in zip(servers, outstanding_vec.tolist()):
                s.outstanding = out
            ticks += 1
            before = len(scale_events)
            sim._apply_autoscaler_tick(
                bt, window_lat, window_arrivals, window_drops, scale_events,
                window_failures,
            )
            for ev in scale_events[before:]:
                drained = ev.server
                if ev.action == "drain" and drained.draining:
                    if drained.direct is not None:
                        # All its finishes are already known.
                        pending_settles[drained] = float(
                            last_finish[drained.index]
                        )
                    else:
                        # A fault boundary may land before this runner
                        # empties, so it cannot be pumped dry here; the
                        # settle is discovered at the boundary where it
                        # runs out of work.
                        draining_fuse.add(drained)
        else:
            hz = float("inf") if bt < horizon else horizon
            fstate.apply(item, bt, hz, kill_in_flight)

    # -- final fault-free stretch --------------------------------------
    deliver(pos, n, float("inf"))
    collect(float("inf"))
    if scaling:
        for s in list(draining_fuse):
            pending_settles[s] = float(last_finish[s.index])
        draining_fuse.clear()
        _apply_settles(pending_settles)

    fault_info = {
        "failed": failed,
        "retried": {},
        "hedged": {},
        "events": tuple(fstate.applied),
        "downtime_s": fstate.close(horizon),
        "ticks": ticks,
    }
    local_pushes = sum(r.seq for r in runners.values())
    return _report(
        sim, ingested, warmup_s, horizon, server_of, (server_of >= 0) & ~killed,
        finish, rank, dropped, drop_order, scale_events, fault_info,
        n + len(fault_evs) + direct_pushes + local_pushes + ticks,
    )
