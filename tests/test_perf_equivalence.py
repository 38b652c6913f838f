"""The optimized event core must reproduce the reference engine exactly.

The hot-path overhaul (shared tuned event core, quantized service
memos, merged arrival stream, the DirectStage recurrence for
single-stage SPLIT pipelines) is only a refactor if it is *bit-exact*:
every per-query completion time must equal what the pre-optimization
engine produced on the same fixed-seed trace.

``_ReferenceDES`` below is a line-for-line copy of the pre-overhaul
single-node event loop (all arrivals on the heap, closure dispatch,
un-memoized ``SimStage.service_s``/``_split``); the tests drive it and
the optimized engines over identical traces and compare finish times
with ``==`` on floats -- no tolerances.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np
import pytest

from repro.cluster.state import Allocation
from repro.fleet import FleetSimulator, build_fleet, build_fleet_trace
from repro.sim import QueryWorkload
from repro.sim.event_core import DirectStage
from repro.sim.loadgen import generate_trace
from repro.sim.queries import QuerySizeDistribution
from repro.sim.server_sim import (
    DiscreteEventServerSim,
    SimStage,
    StageMode,
    _interpolator,
)


# ----------------------------------------------------------------------
# Reference implementation (pre-optimization event loop, verbatim
# semantics: heap-resident arrivals, per-event closures, no memos).
# ----------------------------------------------------------------------


class _RefState:
    def __init__(self, query):
        self.query = query
        self.pending_units = 0
        self.finish_s = 0.0


def _ref_split(size, chunk):
    full, rem = divmod(size, chunk)
    return [chunk] * full + ([rem] if rem else [])


def _ref_enqueue_units(stage, queue, state, size):
    if stage.mode is StageMode.SPLIT:
        chunks = _ref_split(size, stage.chunk_items)
        state.pending_units = len(chunks)
        queue.extend((state, chunk) for chunk in chunks)
    else:
        state.pending_units = 1
        queue.append((state, size))


def _ref_form_batch(stage, queue):
    batch = [queue.popleft()]
    if stage.mode is StageMode.FUSE and stage.fuse_items > 0:
        total = batch[0][1]
        limit = stage.fuse_items
        while queue and total + queue[0][1] <= limit:
            unit = queue.popleft()
            total += unit[1]
            batch.append(unit)
    items = sum(it for _, it in batch)
    pooling = sum(st.query.pooling_scale * it for st, it in batch) / max(items, 1)
    return batch, items, pooling


class _ReferenceDES:
    """The pre-overhaul single-node event loop."""

    def __init__(self, stages):
        self.stages = list(stages)

    def run(self, queries):
        counter = itertools.count()
        events = []

        def push(time_s, payload):
            heapq.heappush(events, (time_s, next(counter), payload))

        queues = [deque() for _ in self.stages]
        free = [s.units for s in self.stages]
        states = [_RefState(q) for q in queries]
        for st in states:
            push(st.query.arrival_s, ("arrive", st))
        done = []

        def enqueue(idx, state, time_s):
            _ref_enqueue_units(self.stages[idx], queues[idx], state, state.query.size)
            dispatch(idx, time_s)

        def dispatch(idx, time_s):
            stage = self.stages[idx]
            while free[idx] > 0 and queues[idx]:
                batch, items, pooling = _ref_form_batch(stage, queues[idx])
                service = stage.service_s(items, pooling)
                free[idx] -= 1
                push(time_s + service, ("finish", idx, batch))

        while events:
            now, _, payload = heapq.heappop(events)
            if payload[0] == "arrive":
                enqueue(0, payload[1], now)
            else:
                _, idx, batch = payload
                free[idx] += 1
                for state, _items in batch:
                    state.pending_units -= 1
                    if state.pending_units == 0:
                        if idx + 1 < len(self.stages):
                            enqueue(idx + 1, state, now)
                        else:
                            state.finish_s = now
                            done.append(state)
                dispatch(idx, now)
        return done


# ----------------------------------------------------------------------
# Stage/trace factories
# ----------------------------------------------------------------------


def _workload(mean=40.0, pooling_cv=0.4):
    return QueryWorkload(
        size_dist=QuerySizeDistribution(mean=mean, sigma=0.8, max_size=256),
        pooling_cv=pooling_cv,
    )


def _stage(name, units, mode, chunk=16, fuse=0, t_one=0.8e-3, t_nom=3.0e-3,
           nominal=16.0, sensitivity=0.0):
    return SimStage(
        name=name,
        units=units,
        mode=mode,
        chunk_items=chunk,
        fuse_items=fuse,
        latency_fn=_interpolator(t_one, t_nom, nominal),
        pooling_sensitivity=sensitivity,
    )


PIPELINES = {
    "split-1stage-multiunit": [_stage("inference", 3, StageMode.SPLIT, chunk=16)],
    "split-1stage-1unit": [_stage("inference", 1, StageMode.SPLIT, chunk=24)],
    "split-2stage": [
        _stage("sparse", 2, StageMode.SPLIT, chunk=16, sensitivity=0.9),
        _stage("dense", 2, StageMode.SPLIT, chunk=16),
    ],
    "fuse-pipeline": [
        _stage("loading", 2, StageMode.FUSE, chunk=32, fuse=64, sensitivity=0.6),
        _stage("inference", 2, StageMode.FUSE, chunk=32, fuse=64),
    ],
    "split-then-fuse": [
        _stage("sparse", 4, StageMode.SPLIT, chunk=16, sensitivity=0.9),
        _stage("loading", 2, StageMode.FUSE, chunk=32, fuse=96),
        _stage("inference", 2, StageMode.FUSE, chunk=32, fuse=96),
    ],
}


@pytest.mark.parametrize("name", sorted(PIPELINES))
@pytest.mark.parametrize("qps,seed", [(400.0, 3), (900.0, 17)])
def test_single_node_matches_reference_exactly(name, qps, seed):
    """Optimized engine == reference loop, float for float."""
    stages = PIPELINES[name]
    trace = generate_trace(_workload(), qps, duration_s=2.0, seed=seed)
    ref_done = _ReferenceDES(stages).run(trace)
    ref = sorted((st.query.query_id, st.finish_s) for st in ref_done)

    result = DiscreteEventServerSim(list(stages)).run(trace, warmup_s=0.0)
    # The result lists latencies in completion order, the reference's
    # ``done`` order; the (id, finish) pairs come from a second pass
    # through the python fleet core's global-heap Pipeline methods.
    assert result.latencies_s.tolist() == [
        st.finish_s - st.query.arrival_s for st in ref_done
    ]
    new_done = _run_optimized_collect(stages, trace)
    assert new_done == ref
    assert result.completed == len(ref)


def _run_optimized_collect(stages, trace):
    """Drive ``Pipeline`` on a global heap; exact (id, finish) pairs."""
    from repro.sim.event_core import EventHeap, Pipeline, QueryState
    from heapq import heappop

    pipeline = Pipeline(stages)
    heap = EventHeap()
    states = sorted((QueryState(q) for q in trace), key=lambda s: s.arrival_s)
    done = []
    completed = []
    events = heap.items
    i, n = 0, len(states)
    while True:
        if events:
            if i < n and states[i].arrival_s <= events[0][0]:
                st = states[i]
                i += 1
                pipeline.enqueue(0, st, st.size, st.arrival_s, heap)
                continue
            entry = heappop(events)
            now = entry[0]
            pipeline.on_finish(entry[3], entry[4], now, heap, completed)
            for st in completed:
                done.append((st.query.query_id, now))
            completed.clear()
        elif i < n:
            st = states[i]
            i += 1
            pipeline.enqueue(0, st, st.size, st.arrival_s, heap)
        else:
            break
    return sorted(done)


@pytest.mark.parametrize("seed", [5, 23])
def test_direct_recurrence_matches_reference_exactly(seed):
    """DirectStage's G/D/c recurrence == the event loop, bit for bit.

    This is the load-bearing check for the fleet fast path: every CPU
    placement runs through DirectStage.
    """
    spec = _stage("inference", 3, StageMode.SPLIT, chunk=16)
    trace = generate_trace(_workload(), 700.0, duration_s=2.0, seed=seed)
    ref_done = _ReferenceDES([spec]).run(trace)
    ref = sorted((st.query.query_id, st.finish_s) for st in ref_done)

    direct = DirectStage(spec)
    got = sorted(
        (q.query_id, direct.completion_time(q.arrival_s, q.size, q.pooling_scale, 1.0))
        for q in trace
    )
    assert got == ref


def test_one_replica_fleet_matches_reference_exactly(
    small_table, rmc1_small_fleet_inputs
):
    """A 1-replica fleet (direct path) == the reference single-node DES.

    The summary statistics are compared with exact float equality --
    identical latency multisets in identical order produce identical
    numpy percentiles and means.
    """
    models, workloads = rmc1_small_fleet_inputs
    tup = small_table.get("T2", "DLRM-RMC1")
    from repro.hardware import SERVER_TYPES
    from repro.sim import plan_cache
    from repro.sim.server_sim import build_stages

    evaluator = plan_cache.shared_evaluator(SERVER_TYPES["T2"])
    partitioned = plan_cache.partitioned_for(SERVER_TYPES["T2"], models["DLRM-RMC1"], tup.plan)
    stages = build_stages(evaluator, partitioned, workloads["DLRM-RMC1"], tup.plan)

    trace = build_fleet_trace(
        workloads, {"DLRM-RMC1": [(0.65 * tup.qps, 4.0)]}, seed=29
    )
    queries = [q for _, q in trace]
    warmup, horizon = 0.4, max(q.arrival_s for q in queries)

    ref_done = _ReferenceDES(stages).run(queries)
    measured = [
        st.finish_s - st.query.arrival_s
        for st in ref_done
        if st.query.arrival_s >= warmup and st.finish_s <= horizon
    ]
    arr = np.asarray(measured) * 1e3

    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 1)
    servers = build_fleet(allocation, small_table, models, workloads)
    assert servers[0].direct is not None  # CPU plan -> fast path
    result = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0}).run(
        trace, warmup_s=warmup
    )
    stats = result.per_model["DLRM-RMC1"]
    assert stats.completed == len(measured)
    assert stats.p50_ms == float(np.percentile(arr, 50))
    assert stats.p95_ms == float(np.percentile(arr, 95))
    assert stats.p99_ms == float(np.percentile(arr, 99))
    assert stats.mean_ms == float(arr.mean())


def test_one_replica_gpu_fleet_matches_reference_exactly(
    small_table, rmc1_small_fleet_inputs
):
    """A 1-replica T7 fleet (event pipeline, FUSE stages) == reference."""
    models, workloads = rmc1_small_fleet_inputs
    tup = small_table.get("T7", "DLRM-RMC1")
    from repro.hardware import SERVER_TYPES
    from repro.sim import plan_cache
    from repro.sim.server_sim import build_stages

    evaluator = plan_cache.shared_evaluator(SERVER_TYPES["T7"])
    partitioned = plan_cache.partitioned_for(SERVER_TYPES["T7"], models["DLRM-RMC1"], tup.plan)
    stages = build_stages(evaluator, partitioned, workloads["DLRM-RMC1"], tup.plan)

    trace = build_fleet_trace(
        workloads, {"DLRM-RMC1": [(0.6 * tup.qps, 3.0)]}, seed=31
    )
    queries = [q for _, q in trace]
    warmup, horizon = 0.3, max(q.arrival_s for q in queries)

    ref_done = _ReferenceDES(stages).run(queries)
    measured = [
        st.finish_s - st.query.arrival_s
        for st in ref_done
        if st.query.arrival_s >= warmup and st.finish_s <= horizon
    ]
    arr = np.asarray(measured) * 1e3

    allocation = Allocation()
    allocation.add("T7", "DLRM-RMC1", 1)
    servers = build_fleet(allocation, small_table, models, workloads)
    assert servers[0].direct is None  # FUSE pipeline -> event path
    result = FleetSimulator(servers, policy="rr", sla_ms={"DLRM-RMC1": 20.0}).run(
        trace, warmup_s=warmup
    )
    stats = result.per_model["DLRM-RMC1"]
    assert stats.completed == len(measured)
    assert stats.p50_ms == float(np.percentile(arr, 50))
    assert stats.p99_ms == float(np.percentile(arr, 99))
    assert stats.mean_ms == float(arr.mean())


@pytest.fixture()
def rmc1_small_fleet_inputs():
    from repro.models import build_model

    models = {"DLRM-RMC1": build_model("DLRM-RMC1")}
    workloads = {
        "DLRM-RMC1": QueryWorkload.for_model(
            models["DLRM-RMC1"].config.mean_query_size
        )
    }
    return models, workloads


# ----------------------------------------------------------------------
# Fault layer present-but-idle == the fault-free engine, float for float
# ----------------------------------------------------------------------


def _mixed_fleet_and_trace(small_table, models, workloads, seed):
    """3 direct-path T2 replicas + 1 event-path T7, moderate load."""
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 3)
    allocation.add("T7", "DLRM-RMC1", 1)
    servers = build_fleet(allocation, small_table, models, workloads)
    capacity = 3 * small_table.qps("T2", "DLRM-RMC1") + small_table.qps(
        "T7", "DLRM-RMC1"
    )
    trace = build_fleet_trace(
        workloads, {"DLRM-RMC1": [(0.65 * capacity, 3.0)]}, seed=seed
    )
    return allocation, trace


def _run_fleet(
    small_table, models, workloads, allocation, trace, policy="p2c", **kwargs
):
    servers = build_fleet(allocation, small_table, models, workloads)
    sim = FleetSimulator(
        servers, policy=policy, sla_ms={"DLRM-RMC1": 20.0}, seed=7, **kwargs
    )
    result = sim.run(trace, warmup_s=0.3)
    return sim, result


@pytest.mark.parametrize("seed", [13, 41])
def test_empty_fault_schedule_bit_identical(
    small_table, rmc1_small_fleet_inputs, seed
):
    """An empty FaultSchedule forces the (light) fault loop, which must
    reproduce the fault-free engine exactly: same percentiles, same
    per-replica counters, same power -- ``==`` on floats, no tolerances.
    """
    from repro.fleet import FaultSchedule

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    _, base = _run_fleet(small_table, models, workloads, allocation, trace)
    _, idle = _run_fleet(
        small_table, models, workloads, allocation, trace, faults=FaultSchedule()
    )

    assert idle.per_model == base.per_model
    assert idle.avg_power_w == base.avg_power_w
    assert idle.events == base.events
    assert [
        (s.completed, s.qps, s.power_w, s.active_s) for s in idle.servers
    ] == [(s.completed, s.qps, s.power_w, s.active_s) for s in base.servers]
    assert idle.availability == 1.0
    assert idle.fault_events == ()


@pytest.mark.parametrize("seed", [13, 41])
def test_tracked_fault_loop_bit_identical_when_idle(
    small_table, rmc1_small_fleet_inputs, seed
):
    """The tracked loop (retry budget engaged, empty schedule) performs
    the same float operations in the same order as the fault-free loop;
    the per-query log additionally accounts for every arrival.
    """
    from repro.fleet import FaultSchedule

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    _, base = _run_fleet(small_table, models, workloads, allocation, trace)
    sim, idle = _run_fleet(
        small_table,
        models,
        workloads,
        allocation,
        trace,
        faults=FaultSchedule(),
        retries=3,
    )

    assert idle.per_model == base.per_model
    assert idle.avg_power_w == base.avg_power_w
    assert idle.events == base.events
    assert [
        (s.completed, s.qps, s.power_w, s.active_s) for s in idle.servers
    ] == [(s.completed, s.qps, s.power_w, s.active_s) for s in base.servers]
    log = sim.last_query_log
    assert len(log) == len(trace)
    assert all(t.done and t.retries == 0 and not t.hedged for t in log)


@pytest.mark.parametrize("seed", [13, 41])
def test_domain_declarations_alone_bit_identical(
    small_table, rmc1_small_fleet_inputs, seed
):
    """Declaring correlated fault domains (with no fault events) stamps
    replica domains and enables the domain-aware hedging filter, but an
    idle schedule must still reproduce the fault-free engine exactly --
    including with hedging armed, where the singleton-domain filter of
    an undeclared fleet and the rack filter of a declared one must make
    identical policy draws when no fault ever fires.
    """
    from repro.fleet import FaultDomains, FaultSchedule

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    _, base = _run_fleet(small_table, models, workloads, allocation, trace)
    _, idle = _run_fleet(
        small_table, models, workloads, allocation, trace,
        faults=FaultSchedule(domains=FaultDomains(size=2)),
    )
    assert idle.per_model == base.per_model
    assert idle.avg_power_w == base.avg_power_w
    assert idle.events == base.events

    # With hedging armed, explicitly-declared singleton racks must make
    # the exact policy draws of an undeclared fleet: the cross-domain
    # preference then filters exactly the already-attempted replica.
    _, hedged_plain = _run_fleet(
        small_table, models, workloads, allocation, trace,
        faults=FaultSchedule(), hedge_ms=8.0,
    )
    _, hedged_domains = _run_fleet(
        small_table, models, workloads, allocation, trace,
        faults=FaultSchedule(domains=FaultDomains(ranges=[(0, 0), (1, 1), (2, 2), (3, 3)])),
        hedge_ms=8.0,
    )
    assert hedged_domains.per_model == hedged_plain.per_model
    assert hedged_domains.avg_power_w == hedged_plain.avg_power_w


# ----------------------------------------------------------------------
# Streamed arrivals == materialized lists, float for float; the legacy
# loadgen/trace builders == their pre-refactor implementations.
# ----------------------------------------------------------------------


def _legacy_generate_trace(workload, arrival_rate_qps, duration_s, seed=0,
                           start_s=0.0, first_id=0):
    """Verbatim copy of the pre-refactor ``sim.loadgen.generate_trace``."""
    from repro.sim.queries import Query

    rng = np.random.default_rng(seed)
    count = rng.poisson(arrival_rate_qps * duration_s)
    times = (np.sort(rng.uniform(0.0, duration_s, size=count)) + start_s).tolist()
    sizes = workload.size_dist.sample(rng, count).tolist()
    if workload.pooling_cv > 0:
        shape = 1.0 / workload.pooling_cv**2
        pooling = rng.gamma(shape, 1.0 / shape, size=count)
    else:
        pooling = np.ones(count)
    pooling = np.maximum(pooling, 1e-3).tolist()
    return list(
        map(
            Query._make,
            zip(range(first_id, first_id + count), times, sizes, pooling),
        )
    )


def _legacy_build_fleet_trace(workloads, segments, seed=0):
    """Verbatim copy of the pre-refactor ``fleet.engine.build_fleet_trace``."""
    merged = []
    for m_idx, (model, segs) in enumerate(sorted(segments.items())):
        workload = workloads[model]
        clock = 0.0
        next_id = 0
        for s_idx, (qps, dur) in enumerate(segs):
            if qps > 0 and dur > 0:
                queries = _legacy_generate_trace(
                    workload,
                    qps,
                    dur,
                    seed=seed + 7919 * m_idx + s_idx,
                    start_s=clock,
                    first_id=next_id,
                )
                merged.extend((model, q) for q in queries)
                next_id += len(queries)
            clock += dur
    merged.sort(key=lambda mq: mq[1].arrival_s)
    return merged


@pytest.mark.parametrize("seed", [0, 9, 101])
def test_loadgen_adapter_matches_legacy_exactly(seed):
    """The loadgen thin adapter draws the historical sequence bit-for-bit."""
    wl = _workload()
    assert generate_trace(wl, 650.0, 2.5, seed=seed, start_s=0.5, first_id=7) == (
        _legacy_generate_trace(wl, 650.0, 2.5, seed=seed, start_s=0.5, first_id=7)
    )


@pytest.mark.parametrize("seed", [0, 9, 101])
def test_build_fleet_trace_matches_legacy_exactly(seed):
    """The FleetArrivals-backed builder == the pre-refactor merge, and
    streaming the source yields the same elements without the sort."""
    from repro.traces import FleetArrivals, PiecewisePoissonProcess

    workloads = {
        "A": _workload(mean=30.0),
        "B": _workload(mean=60.0, pooling_cv=0.0),
    }
    segments = {
        "A": [(400.0, 1.0), (0.0, 0.5), (900.0, 1.0)],
        "B": [(250.0, 2.5)],
    }
    legacy = _legacy_build_fleet_trace(workloads, segments, seed=seed)
    assert build_fleet_trace(workloads, segments, seed=seed) == legacy
    source = FleetArrivals(
        {m: PiecewisePoissonProcess(workloads[m], s) for m, s in segments.items()},
        seed=seed,
    )
    assert list(source) == legacy
    assert list(source) == legacy  # re-iterable: second pass identical


def _mixed_fleet_stream(small_table, workloads, seed):
    """The streamed twin of ``_mixed_fleet_and_trace``'s traffic."""
    from repro.traces import FleetArrivals, PiecewisePoissonProcess

    capacity = 3 * small_table.qps("T2", "DLRM-RMC1") + small_table.qps(
        "T7", "DLRM-RMC1"
    )
    return FleetArrivals(
        {
            "DLRM-RMC1": PiecewisePoissonProcess(
                workloads["DLRM-RMC1"], [(0.65 * capacity, 3.0)]
            )
        },
        seed=seed,
    )


@pytest.mark.parametrize("seed", [13, 41])
@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"faults": "empty"},
        {"faults": "empty", "retries": 2},
        {"faults": "crash", "retries": 1},
        {"faults": "empty", "hedge_ms": 8.0},
    ],
    ids=["fault-free", "light", "tracked", "scripted-crash", "hedged"],
)
def test_streamed_arrivals_bit_identical(
    small_table, rmc1_small_fleet_inputs, seed, kwargs
):
    """A lazily-streamed FleetArrivals source reproduces the
    materialized-list replay exactly through every loop variant --
    fault-free, light, tracked, scripted faults, hedging -- with
    ``==`` on floats, per-replica counters, and the event count.
    """
    from repro.fleet import FaultSchedule, crash as make_crash

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)
    stream = _mixed_fleet_stream(small_table, workloads, seed)
    assert list(stream) == trace  # identical traffic before replaying

    kwargs = dict(kwargs)
    if kwargs.get("faults") == "empty":
        kwargs["faults"] = FaultSchedule()
    elif kwargs.get("faults") == "crash":
        kwargs["faults"] = FaultSchedule([make_crash(1.0, 0, recover_after=0.5)])

    _, base = _run_fleet(small_table, models, workloads, allocation, trace, **kwargs)
    _, streamed = _run_fleet(
        small_table, models, workloads, allocation, stream, **kwargs
    )
    assert streamed.per_model == base.per_model
    assert streamed.avg_power_w == base.avg_power_w
    assert streamed.events == base.events
    assert streamed.availability == base.availability
    assert [
        (s.completed, s.qps, s.power_w, s.active_s) for s in streamed.servers
    ] == [(s.completed, s.qps, s.power_w, s.active_s) for s in base.servers]


def test_unsorted_trace_keeps_stochastic_fault_horizon(
    small_table, rmc1_small_fleet_inputs
):
    """Sorting an out-of-order list must not shrink the stochastic
    fault horizon: the draw bound is the *latest* arrival, not the
    caller-order last element (which here is the earliest arrival)."""
    from repro.fleet import FaultSchedule

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, 13)
    rotated = trace[1:] + trace[:1]  # first (earliest) arrival moved last

    def run(source):
        return _run_fleet(
            small_table, models, workloads, allocation, source,
            faults=FaultSchedule.parse("random:crash_mtbf=1.5,mttr=0.3"),
            retries=1,
        )[1]

    base = run(trace)
    shuffled = run(rotated)
    assert base.fault_events  # the schedule actually fired
    assert shuffled.fault_events == base.fault_events
    assert shuffled.per_model == base.per_model
    assert shuffled.availability == base.availability


def test_streamed_arrivals_bit_identical_with_autoscaler(
    small_table, rmc1_small_fleet_inputs
):
    """Lazy tick scheduling preserves the materialized path's decisions."""
    from repro.cluster.state import Allocation as _Alloc
    from repro.fleet import ReactiveAutoscaler
    from repro.traces import FleetArrivals, PiecewisePoissonProcess

    models, workloads = rmc1_small_fleet_inputs
    allocation = _Alloc()
    allocation.add("T2", "DLRM-RMC1", 1)
    standby = _Alloc()
    standby.add("T2", "DLRM-RMC1", 2)
    tup = small_table.get("T2", "DLRM-RMC1")
    segments = {"DLRM-RMC1": [(2.0 * tup.qps, 3.0)]}
    trace = build_fleet_trace(workloads, segments, seed=23)
    stream = FleetArrivals(
        {
            "DLRM-RMC1": PiecewisePoissonProcess(
                workloads["DLRM-RMC1"], segments["DLRM-RMC1"]
            )
        },
        seed=23,
    )

    def run(source):
        servers = build_fleet(
            allocation, small_table, models, workloads, standby=standby
        )
        scaler = ReactiveAutoscaler({"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={"DLRM-RMC1": 20.0},
            autoscaler=scaler,
        )
        return sim.run(source, warmup_s=0.3)

    base = run(trace)
    streamed = run(stream)
    assert streamed.per_model == base.per_model
    assert streamed.avg_power_w == base.avg_power_w
    assert streamed.events == base.events
    assert [(e.time_s, e.model, e.action) for e in streamed.scale_events] == [
        (e.time_s, e.model, e.action) for e in base.scale_events
    ]


def test_idle_fault_loop_matches_with_autoscaler(
    small_table, rmc1_small_fleet_inputs
):
    """Autoscaler tick ordering survives the fault loop unchanged."""
    from repro.fleet import FaultSchedule, ReactiveAutoscaler
    from repro.cluster.state import Allocation as _Alloc

    models, workloads = rmc1_small_fleet_inputs
    allocation = _Alloc()
    allocation.add("T2", "DLRM-RMC1", 1)
    standby = _Alloc()
    standby.add("T2", "DLRM-RMC1", 2)
    tup = small_table.get("T2", "DLRM-RMC1")
    trace = build_fleet_trace(
        workloads, {"DLRM-RMC1": [(2.0 * tup.qps, 3.0)]}, seed=23
    )

    def run(**kwargs):
        servers = build_fleet(
            allocation, small_table, models, workloads, standby=standby
        )
        scaler = ReactiveAutoscaler({"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5)
        sim = FleetSimulator(
            servers,
            policy="least",
            sla_ms={"DLRM-RMC1": 20.0},
            autoscaler=scaler,
            **kwargs,
        )
        return sim.run(trace, warmup_s=0.3)

    base = run()
    idle = run(faults=FaultSchedule())
    assert idle.per_model == base.per_model
    assert idle.avg_power_w == base.avg_power_w
    assert [(e.time_s, e.model, e.action) for e in idle.scale_events] == [
        (e.time_s, e.model, e.action) for e in base.scale_events
    ]


# ----------------------------------------------------------------------
# Observability attached or absent == the dark engine, float for float
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [13, 41])
def test_observer_none_bit_identical(
    small_table, rmc1_small_fleet_inputs, seed
):
    """``observer=None`` (the default) must reproduce the pre-
    observability engine exactly: the dormant hook guards perform no
    float operations, so every percentile, counter, and power figure
    matches ``==`` with no tolerances.
    """
    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    _, base = _run_fleet(small_table, models, workloads, allocation, trace)
    _, dark = _run_fleet(
        small_table, models, workloads, allocation, trace, observer=None
    )
    assert dark.per_model == base.per_model
    assert dark.avg_power_w == base.avg_power_w
    assert dark.events == base.events
    assert [
        (s.completed, s.qps, s.power_w, s.active_s) for s in dark.servers
    ] == [(s.completed, s.qps, s.power_w, s.active_s) for s in base.servers]


@pytest.mark.parametrize("seed", [13, 41])
def test_metrics_probe_does_not_perturb(
    small_table, rmc1_small_fleet_inputs, seed
):
    """A live metrics probe only *reads* the simulation (counters and
    latency copies); the observed run's result must equal the dark
    run's float for float, on both the fault-free and fault loops.
    """
    from repro.fleet import FaultSchedule
    from repro.obs import FleetProbe

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    _, base = _run_fleet(small_table, models, workloads, allocation, trace)
    probe = FleetProbe(window_s=0.25)
    _, observed = _run_fleet(
        small_table, models, workloads, allocation, trace, observer=probe
    )
    assert observed.per_model == base.per_model
    assert observed.avg_power_w == base.avg_power_w
    assert observed.events == base.events
    assert probe.metrics_rows

    faults = "crash@0.8:0+0.5"
    _, base_f = _run_fleet(
        small_table, models, workloads, allocation, trace,
        faults=FaultSchedule.parse(faults), retries=2,
    )
    probe_f = FleetProbe(window_s=0.25)
    _, observed_f = _run_fleet(
        small_table, models, workloads, allocation, trace,
        faults=FaultSchedule.parse(faults), retries=2, observer=probe_f,
    )
    assert observed_f.per_model == base_f.per_model
    assert observed_f.avg_power_w == base_f.avg_power_w


@pytest.mark.parametrize("seed", [13, 41])
def test_tracing_probe_does_not_perturb(
    small_table, rmc1_small_fleet_inputs, seed
):
    """Tracing forces the tracked fault loop, which is bit-identical to
    the fault-free loop when idle; a traced fault-free run must
    therefore equal the dark run exactly, while producing one span per
    arrival.
    """
    from repro.obs import FleetProbe

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    _, base = _run_fleet(small_table, models, workloads, allocation, trace)
    probe = FleetProbe(metrics=False, trace=True)
    sim, traced = _run_fleet(
        small_table, models, workloads, allocation, trace, observer=probe
    )
    assert traced.per_model == base.per_model
    assert traced.avg_power_w == base.avg_power_w
    assert len(probe.spans) == len(sim.last_query_log) == len(trace)


# ----------------------------------------------------------------------
# Vectorized core == python core, float for float
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# Carbon pricing after the run: every core records the same windows
# ----------------------------------------------------------------------


def _carbon_trace():
    from repro.carbon import CarbonTrace

    return CarbonTrace.diurnal(base=350.0, swing=150.0, period_s=3.0, steps=12)


def _deferrable_jobs():
    from repro.carbon import DeferrableJob

    return (
        DeferrableJob("batch-0", 0.2, 0.4, 700.0, 2.6),
        DeferrableJob("batch-1", 0.9, 0.3, 500.0, 2.8),
    )


def _priced(sim, result, jobs=()):
    """``result`` priced the way the ``fleet`` command prices a run:
    deferrable jobs (carbon-waiting under a cap) on the replay's exact
    horizon, then the gCO2 block."""
    from repro.carbon import attach_carbon, realtime_power_profile, run_deferrable

    carbon = _carbon_trace()
    report = None
    if jobs:
        report = run_deferrable(
            jobs,
            carbon,
            policy="carbon-waiting",
            horizon_s=sim.last_horizon_s,
            power_cap_w=8000.0,
            realtime_profile=realtime_power_profile(sim.servers),
        )
    return attach_carbon(result, sim.servers, carbon, sim.last_horizon_s, report)


def _windows(sim):
    return [s.active_windows for s in sim.servers]


@pytest.mark.parametrize("seed", [13, 41])
@pytest.mark.parametrize(
    "core, kwargs",
    [
        ("python", {}),
        ("python", {"faults": "empty"}),
        ("python", {"faults": "empty", "retries": 2}),
        ("python", {"deferrable": True}),
        ("vector", {}),
        ("vector", {"faults": "empty"}),
        ("vector", {"deferrable": True}),
    ],
    ids=[
        "fault-free", "light", "tracked", "with-jobs",
        "vector-fault-free", "vector-light", "vector-with-jobs",
    ],
)
def test_carbon_attached_bit_identical(
    small_table, rmc1_small_fleet_inputs, seed, core, kwargs
):
    """Pricing a replay in gCO2 never perturbs it, and every core
    prices it alike.  Carbon accounting prices recorded activation
    windows *after* ``run()``, and deferrable jobs (under a cap) run
    beside the fleet, not on it.  The rr run on ``core`` records the
    python core's windows; its priced document, ``carbon`` block
    included, equals the python run's, and minus that block it is the
    unpriced document -- across the python fault-free, light, and
    tracked loops and the vector core's segmented loop.
    """
    from repro.fleet import FaultSchedule

    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    kwargs = dict(kwargs)
    jobs = _deferrable_jobs() if kwargs.pop("deferrable", False) else ()
    if kwargs.get("faults") == "empty":
        kwargs["faults"] = FaultSchedule()

    def run(core):
        return _run_fleet(
            small_table, models, workloads, allocation, trace,
            policy="rr", core=core, **kwargs,
        )

    ref_sim, base = run("python")
    sim, result = run(core)
    assert _windows(sim) == _windows(ref_sim)
    priced = _priced(sim, result, jobs)
    assert priced.to_dict() == _priced(ref_sim, base, jobs).to_dict()
    # JSON-level pin: the priced document is the unpriced document
    # plus one extra block.
    doc = priced.to_dict()
    assert doc.pop("carbon")["realtime_g"] > 0.0
    assert doc == base.to_dict()
    assert base.carbon is None


@pytest.mark.parametrize("core", ["python", "vector"])
def test_carbon_attached_bit_identical_with_autoscaler(
    small_table, rmc1_small_fleet_inputs, core
):
    """Scale events open and close activation windows through
    ``settle()``, which every core calls at each transition: the rr run
    on ``core`` scales on the python core's ticks, records its windows,
    and prices identically with and without deferrable jobs."""
    from repro.cluster.state import Allocation as _Alloc
    from repro.fleet import ReactiveAutoscaler

    models, workloads = rmc1_small_fleet_inputs
    allocation = _Alloc()
    allocation.add("T2", "DLRM-RMC1", 1)
    standby = _Alloc()
    standby.add("T2", "DLRM-RMC1", 2)
    tup = small_table.get("T2", "DLRM-RMC1")
    trace = build_fleet_trace(
        workloads, {"DLRM-RMC1": [(2.0 * tup.qps, 3.0)]}, seed=23
    )

    def run(core):
        servers = build_fleet(
            allocation, small_table, models, workloads, standby=standby
        )
        scaler = ReactiveAutoscaler({"DLRM-RMC1": 20.0}, window_s=0.25, cooldown_s=0.5)
        sim = FleetSimulator(
            servers,
            policy="rr",
            sla_ms={"DLRM-RMC1": 20.0},
            autoscaler=scaler,
            core=core,
        )
        return sim, sim.run(trace, warmup_s=0.3)

    ref_sim, base = run("python")
    sim, result = run(core)
    assert base.scale_events
    assert [(e.time_s, e.model, e.action) for e in result.scale_events] == [
        (e.time_s, e.model, e.action) for e in base.scale_events
    ]
    assert _windows(sim) == _windows(ref_sim)
    for jobs in ((), _deferrable_jobs()):
        priced = _priced(sim, result, jobs)
        assert priced.carbon.realtime_g > 0.0
        assert priced.to_dict() == _priced(ref_sim, base, jobs).to_dict()


def test_carbon_attached_matches_sharded_realtime(small_table):
    """The sharded leg: the multi-process merge (now folding energy
    through the shared ``fleet_power_summary`` seam) still equals the
    single-process replay, and the single-process replay with carbon
    attached reports the same realtime figures as both."""
    from repro.fleet.sharded import run_fleet_sharded
    from repro.models import build_model
    from repro.traces import FleetArrivals, PoissonProcess

    names = ("DLRM-RMC1", "DLRM-RMC2")
    sla = {"DLRM-RMC1": 20.0, "DLRM-RMC2": 50.0}
    models = {m: build_model(m) for m in names}
    workloads = {
        m: QueryWorkload.for_model(models[m].config.mean_query_size)
        for m in names
    }
    allocation = Allocation()
    allocation.add("T2", "DLRM-RMC1", 2)
    allocation.add("T3", "DLRM-RMC2", 2)

    def source():
        return FleetArrivals(
            {
                "DLRM-RMC1": PoissonProcess(workloads["DLRM-RMC1"], 300.0, 1.2),
                "DLRM-RMC2": PoissonProcess(workloads["DLRM-RMC2"], 200.0, 1.2),
            },
            seed=17,
        )

    def run_single():
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(servers, policy="rr", sla_ms=sla, seed=0)
        return sim, sim.run(source(), warmup_s=0.1)

    _, base = run_single()
    priced = _priced(*run_single())
    sharded = run_fleet_sharded(
        allocation, small_table, models, workloads, source(),
        shards=2, policy="rr", sla_ms=sla, seed=0, warmup_s=0.1,
        core="python",
    )
    assert priced.per_model == base.per_model == sharded.per_model
    assert priced.avg_power_w == base.avg_power_w == sharded.avg_power_w
    assert priced.events == base.events == sharded.events
    assert priced.carbon is not None and sharded.carbon is None


@pytest.mark.parametrize("policy", ["rr", "weighted"])
@pytest.mark.parametrize("seed", [13, 41])
def test_vector_core_bit_identical(
    small_table, rmc1_small_fleet_inputs, policy, seed
):
    """``core="vector"`` replays an oblivious-routing fleet with the
    exact per-replica float recurrences of the python core: summaries,
    per-replica counters, power, and the event count all compare ``==``
    with no tolerances.  (Queue-aware policies and fault loops fall
    back to the python core; tests/test_fast_core.py covers that
    surface.)
    """
    models, workloads = rmc1_small_fleet_inputs
    allocation, trace = _mixed_fleet_and_trace(small_table, models, workloads, seed)

    def run(core):
        servers = build_fleet(allocation, small_table, models, workloads)
        sim = FleetSimulator(
            servers, policy=policy, sla_ms={"DLRM-RMC1": 20.0}, seed=7, core=core
        )
        return sim.run(trace, warmup_s=0.3)

    base = run("python")
    vec = run("vector")
    assert vec.per_model == base.per_model
    assert vec.avg_power_w == base.avg_power_w
    assert vec.events == base.events
    assert [
        (s.completed, s.qps, s.power_w, s.active_s) for s in vec.servers
    ] == [(s.completed, s.qps, s.power_w, s.active_s) for s in base.servers]
