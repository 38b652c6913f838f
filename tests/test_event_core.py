"""Unit tests for the shared tuned event core.

Covers the pieces both engines build on: the event heap (ordering),
the private replica loop (resumable pumps), the stage record's memo
tables (service/chunk tables must reproduce the un-memoized spec
bit-for-bit), batch-formation edge cases on the code the engines run
(``Pipeline.enqueue`` and ``SimStage.form_and_time``: zero-size
queries, chunk boundaries, fusion-cap boundaries), and the direct
G/D/c fast path's eligibility rules and straggler scaling.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heapreplace

import pytest

from repro.sim.event_core import (
    DirectStage,
    EventHeap,
    Pipeline,
    QueryState,
    ReplicaLoop,
    SimStage,
    StageMode,
    _split,
)
from repro.sim.queries import Query

# The reference batch formation of the pre-optimization event loop.
from test_perf_equivalence import _ref_enqueue_units, _ref_form_batch


def _stage(mode=StageMode.SPLIT, units=2, chunk=10, fuse=0, sensitivity=0.0):
    return SimStage(
        name="s",
        units=units,
        mode=mode,
        chunk_items=chunk,
        fuse_items=fuse,
        latency_fn=lambda items: 1e-3 + 1e-5 * items,
        pooling_sensitivity=sensitivity,
    )


def _state(size=10, pooling=1.0, qid=0, arrival=0.0):
    return QueryState(Query(qid, arrival, size, pooling))


def _queued(stage, states):
    """Admit ``states`` through ``Pipeline.enqueue`` while every unit of
    ``stage`` is busy, so their units stay queued; returns the FIFO."""
    pipeline = Pipeline([stage])
    pipeline.free[0] = 0
    heap = EventHeap()
    for st in states:
        pipeline.enqueue(0, st, st.size, 0.0, heap)
    assert not heap.items
    return pipeline.queues[0]


class TestEventHeap:
    def test_orders_by_time_then_fifo(self):
        heap = EventHeap()
        heap.push(2.0, None, 0, "late")
        heap.push(1.0, None, 0, "a")
        heap.push(1.0, None, 0, "b")
        assert [heappop(heap.items)[4] for _ in range(3)] == ["a", "b", "late"]

    def test_sequence_numbers_monotone(self):
        heap = EventHeap()
        seqs = [heap.push(float(i), None, 0, None) for i in range(5)]
        assert seqs == sorted(seqs)
        assert heap.seq == 5


class TestServicedStageMemos:
    """The stage record's ``items -> service`` and ``size -> chunks``
    memo tables."""

    @pytest.mark.parametrize("sensitivity", [0.0, 0.9])
    def test_service_matches_spec_bitwise(self, sensitivity):
        stage = _stage(chunk=200, sensitivity=sensitivity)
        for items in (1, 7, 10, 123):
            for pooling in (0.25, 1.0, 3.7):
                expected = stage.service_s(items, (pooling * items) / items)
                for _ in range(2):  # the second is served from the memo
                    queue = _queued(stage, [_state(size=items, pooling=pooling)])
                    _, service = stage.form_and_time(queue)
                    assert service == expected

    def test_unit_service_matches_form_batch_pooling(self):
        """Single-unit batch pooling is (p * items) / items, verbatim."""
        stage = _stage(sensitivity=0.5)
        items, pooling = 3, 0.3
        expected = stage.service_s(items, (pooling * items) / max(items, 1))
        queue = _queued(stage, [_state(size=items, pooling=pooling)])
        assert stage.form_and_time(queue)[1] == expected

    def test_chunks_match_split(self):
        stage = _stage(chunk=10)
        for size in (1, 9, 10, 11, 25, 30):
            assert list(stage.chunks_for(size)) == _split(size, 10)
        assert stage.chunks_for(25) is stage.chunks_for(25)  # memoized

    def test_memos_stay_out_of_equality_and_hash(self):
        """The record stays a frozen spec: ``==``, ``hash`` and ``repr``
        see the seven spec fields only, filled memos or not."""
        fn = lambda items: 1e-3 + 1e-5 * items  # noqa: E731
        a, b = (SimStage("s", 2, StageMode.SPLIT, 10, 0, fn) for _ in range(2))
        a.chunks_for(25)
        a.form_and_time(_queued(a, [_state(size=7)]))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.chunks_for(25) is not b.chunks_for(25)
        with pytest.raises(AttributeError):
            a.units = 3


class TestEnqueueEdgeCases:
    def test_zero_size_query_rejected(self):
        """Zero units would never complete; fail loudly instead."""
        pipeline = Pipeline([_stage()])
        heap = EventHeap()
        with pytest.raises(ValueError, match="size must be >= 1"):
            pipeline.enqueue(0, _state(), 0, 0.0, heap)
        assert not pipeline.queues[0] and not heap.items

    def test_split_chunk_boundaries(self):
        assert _split(10, 10) == [10]
        assert _split(11, 10) == [10, 1]
        assert _split(9, 10) == [9]
        with pytest.raises(ValueError, match="chunk"):
            _split(5, 0)
        queue = _queued(_stage(chunk=10), [_state(size=s) for s in (10, 11, 9)])
        assert [items for _, items in queue] == [10, 10, 1, 9]

    def test_split_enqueue_sets_pending_units(self):
        state = _state(size=25)
        queue = _queued(_stage(chunk=10), [state])
        assert state.pending_units == 3
        assert [items for _, items in queue] == [10, 10, 5]

    def test_fuse_enqueue_single_unit(self):
        state = _state(size=25)
        queue = _queued(_stage(mode=StageMode.FUSE, fuse=64), [state])
        assert state.pending_units == 1
        assert list(queue) == [(state, 25)]


class TestFormBatchBoundaries:
    def test_fusion_respects_cap_exactly(self):
        """Exact fits fuse; one item over the cap stays queued."""
        stage = _stage(mode=StageMode.FUSE, fuse=30)
        queue = _queued(stage, [_state(size=size) for size in (10, 20, 1)])
        batch, _ = stage.form_and_time(queue)
        items = sum(it for _, it in batch)
        assert items == 30  # 10 + 20 fused, the 1 would fit but FIFO stops
        assert len(batch) == 2
        assert len(queue) == 1

    def test_oversized_head_unit_still_served(self):
        """A unit bigger than the cap is served alone, never starved."""
        stage = _stage(mode=StageMode.FUSE, fuse=30)
        queue = _queued(stage, [_state(size=100), _state(size=5)])
        batch, _ = stage.form_and_time(queue)
        items = sum(it for _, it in batch)
        assert items == 100 and len(batch) == 1

    def test_fuse_zero_cap_means_one_query_per_batch(self):
        stage = _stage(mode=StageMode.FUSE, fuse=0)
        queue = _queued(stage, [_state(size=4), _state(size=6)])
        batch, _ = stage.form_and_time(queue)
        items = sum(it for _, it in batch)
        assert items == 4 and len(batch) == 1

    def test_fast_path_equals_generic_form_batch(self):
        """SimStage.form_and_time == the reference formation + service_s."""
        stage = _stage(mode=StageMode.FUSE, fuse=40, sensitivity=0.7)
        for sizes in ([12, 9, 30], [40, 1], [3]):
            generic_q = deque()
            fast = []
            for i, size in enumerate(sizes):
                a = _state(size=size, pooling=0.5 + i, qid=i)
                _ref_enqueue_units(stage, generic_q, a, size)
                fast.append(_state(size=size, pooling=0.5 + i, qid=i))
            fast_q = _queued(stage, fast)
            while generic_q:
                batch, items, pooling = _ref_form_batch(stage, generic_q)
                expected = stage.service_s(items, pooling)
                fast_batch, service = stage.form_and_time(fast_q)
                assert service == expected
                assert [u[1] for u in fast_batch] == [u[1] for u in batch]
            assert not fast_q


def _ref_completion(stage, avail, now, size, pooling, factor=None):
    """The G/D/c recurrence chunk by chunk: each chunk is a single-unit
    batch, started when the earliest unit frees, its service scaled by
    ``factor`` unless that is ``None``."""
    finish = now
    for chunk in _split(size, stage.chunk_items):
        service = stage.service_s(chunk, (pooling * chunk) / chunk)
        if factor is not None:
            service *= factor
        done = max(now, avail[0]) + service
        heapreplace(avail, done)
        finish = max(finish, done)
    return finish


class TestDirectStage:
    def test_rejects_fuse_stage(self):
        with pytest.raises(ValueError, match="SPLIT"):
            DirectStage(_stage(mode=StageMode.FUSE, fuse=8))

    def test_idle_server_completion_is_sum_of_chunk_services(self):
        stage = _stage(units=2, chunk=10)
        direct = DirectStage(stage)
        # 25 items -> chunks 10/10/5 on 2 units: two start at t, the
        # third starts when the first unit frees and finishes last.
        s10 = stage.service_s(10, 1.0)
        s5 = stage.service_s(5, 1.0)
        fin = direct.completion_time(1.0, 25, 1.0, 1.0)
        assert fin == pytest.approx(1.0 + s10 + s5, rel=1e-12)

    def test_busy_units_defer_the_next_query(self):
        direct = DirectStage(_stage(units=1, chunk=100))
        first = direct.completion_time(0.0, 10, 1.0, 1.0)
        second = direct.completion_time(0.0, 10, 1.0, 1.0)
        assert second == pytest.approx(2 * first, rel=1e-12)

    def test_straggler_factor_scales_every_chunk(self):
        """A straggler's multi-chunk queries equal the per-chunk
        reference with every service scaled; at 1.0 the recurrence is
        the unscaled one."""
        stage = _stage(units=2, chunk=10, sensitivity=0.7)
        arrivals = [(0.0, 25, 0.4), (0.001, 37, 1.3), (0.0015, 8, 2.2),
                    (0.03, 21, 0.9)]
        for factor, ref_factor in ((2.5, 2.5), (1.0, None)):
            direct = DirectStage(stage)
            avail = [0.0] * stage.units
            for now, size, pooling in arrivals:
                got = direct.completion_time(now, size, pooling, factor)
                assert got == _ref_completion(
                    stage, avail, now, size, pooling, ref_factor
                )
            assert direct.avail == avail
        slowed = DirectStage(stage).completion_time(0.0, 25, 0.4, 2.5)
        assert slowed > DirectStage(stage).completion_time(0.0, 25, 0.4, 1.0)


class TestPipeline:
    def test_enqueue_dispatches_onto_the_heap(self):
        heap = EventHeap()
        pipeline = Pipeline([_stage(units=1, chunk=100)])
        pipeline.enqueue(0, _state(size=10), 10, 0.5, heap)
        assert len(heap.items) == 1
        time_s, _, owner, idx, batch = heap.items[0]
        assert time_s == 0.5 + pipeline.stages[0].service_s(10, (1.0 * 10) / 10)
        assert owner is pipeline and idx == 0 and len(batch) == 1

    def test_requires_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])

    def test_shared_serviced_stages_not_rewrapped(self):
        """Pipelines hold the stage records they are given, so replicas
        of one plan share its memo tables."""
        stage = _stage()
        first, second = Pipeline([stage]), Pipeline([stage])
        assert first.stages[0] is stage and second.stages[0] is stage


def _mixed_stages():
    return [
        _stage(units=2, chunk=8, sensitivity=0.9),
        _stage(mode=StageMode.FUSE, units=1, fuse=40, sensitivity=0.6),
    ]


def _arrivals(n=60):
    ts = [0.0004 * i + (0.0003 if i % 7 == 0 else 0.0) for i in range(n)]
    sizes = [1 + (i * 13) % 29 for i in range(n)]
    pools = [0.5 + (i % 5) * 0.3 for i in range(n)]
    return ts, sizes, pools


class TestReplicaLoop:
    def test_resumed_pumps_equal_one_pump(self):
        """Pumping arrival by arrival, with limits, as the vector fleet
        core does, gives the finishes, ranks and event count of one
        pump over the whole trace (the single-node simulator's call)."""
        ts, sizes, pools = _arrivals()
        n = len(ts)
        whole = ReplicaLoop(Pipeline(_mixed_stages()))
        fin_a, rank_a = [0.0] * n, [0] * n
        whole.pump(ts, sizes, pools, range(n), float("inf"), fin_a, rank_a, False)

        piece = ReplicaLoop(Pipeline(_mixed_stages()))
        fin_b, rank_b = [0.0] * n, [0] * n
        for i in range(n):
            piece.pump((), (), (), (), ts[i], fin_b, rank_b, True)
            piece.pump(
                [ts[i]], [sizes[i]], [pools[i]], [i], ts[i], fin_b, rank_b, True
            )
        piece.pump((), (), (), (), float("inf"), fin_b, rank_b, True)
        assert (fin_b, rank_b, piece.seq) == (fin_a, rank_a, whole.seq)
        assert sorted(rank_a) == list(range(n))
        assert piece.inflight == whole.inflight == 0
        assert sorted(i for _, i in piece.completions) == list(range(n))
