"""Tests for list scheduling of operator workers (Fig. 5 behaviour)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.models import build_model
from repro.models.graph import Graph, Node
from repro.models.ops import FullyConnected
from repro.perf import list_schedule
from repro.perf.schedule import list_makespan


def _chain(n: int) -> Graph:
    g = Graph("chain")
    prev: tuple[str, ...] = ()
    for i in range(n):
        g.add(Node(op=FullyConnected(name=f"n{i}"), deps=prev))
        prev = (f"n{i}",)
    return g


def _fan(n: int) -> Graph:
    g = Graph("fan")
    for i in range(n):
        g.add(Node(op=FullyConnected(name=f"n{i}")))
    return g


def test_chain_gains_nothing_from_workers():
    g = _chain(6)
    lat = {f"n{i}": 1.0 for i in range(6)}
    serial = list_schedule(g, lat, 1)
    parallel = list_schedule(g, lat, 4)
    assert serial.makespan_s == pytest.approx(6.0)
    assert parallel.makespan_s == pytest.approx(6.0)
    assert parallel.idle_fraction == pytest.approx(0.75)


def test_fan_parallelizes_perfectly():
    g = _fan(8)
    lat = {f"n{i}": 1.0 for i in range(8)}
    r = list_schedule(g, lat, 4)
    assert r.makespan_s == pytest.approx(2.0)
    assert r.idle_fraction == pytest.approx(0.0)
    assert r.speedup_vs_serial == pytest.approx(4.0)


@given(
    workers=st.integers(1, 8),
    latencies=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=12),
)
def test_makespan_bounds(workers, latencies):
    """Greedy schedules obey the classical bounds for any DAG shape."""
    g = _fan(len(latencies))
    lat = {f"n{i}": latencies[i] for i in range(len(latencies))}
    r = list_schedule(g, lat, workers)
    total = sum(latencies)
    assert r.makespan_s <= total + 1e-9  # never worse than serial
    assert r.makespan_s >= total / workers - 1e-9  # work conservation
    assert r.makespan_s >= max(latencies) - 1e-9  # longest op
    assert r.busy_s == pytest.approx(total)


def test_dependencies_respected():
    g = Graph("g")
    g.add(Node(op=FullyConnected(name="a")))
    g.add(Node(op=FullyConnected(name="b"), deps=("a",)))
    r = list_schedule(g, {"a": 2.0, "b": 1.0}, 4)
    placements = {p.name: p for p in r.nodes}
    assert placements["b"].start_s >= placements["a"].finish_s - 1e-12


def test_fig5_idle_grows_with_workers():
    """Fig. 5(c): operator dependencies leave parallel workers idle.

    Measured with real CPU op timings at batch 256, as in the paper.
    MT-WnD's four independent task towers pack well, so only a weak
    bound applies there; the dependency-chained models idle heavily.
    """
    from repro.hardware import CPU_T2, DDR4_T2
    from repro.perf import CpuOpModel

    cpu = CpuOpModel(CPU_T2, DDR4_T2)
    for name in ("DLRM-RMC1", "DLRM-RMC3", "MT-WnD", "DIN", "DIEN"):
        graph = build_model(name).graph
        lat = {n.name: cpu.op_timing(n.op, 256).latency_s for n in graph}
        idles = [
            list_schedule(graph, lat, workers).idle_fraction
            for workers in (1, 2, 4)
        ]
        assert idles[0] == pytest.approx(0.0)
        assert idles[-1] >= idles[1] - 1e-9
        if name != "MT-WnD":  # independent towers pack near-perfectly
            assert idles[-1] > 0.2


def test_missing_latency_rejected():
    g = _fan(2)
    with pytest.raises(ValueError, match="missing latencies"):
        list_schedule(g, {"n0": 1.0}, 2)


def test_zero_workers_rejected():
    with pytest.raises(ValueError):
        list_schedule(_fan(1), {"n0": 1.0}, 0)
    with pytest.raises(ValueError):
        list_makespan([()], [1.0], 0)


@st.composite
def _dags(draw):
    """A random DAG in topological order -- per node, the indices of
    earlier nodes it depends on -- and its latencies.  Zeros and
    repeated grid values tie worker free times, so the lowest-index
    tie-break is exercised."""
    n = draw(st.integers(1, 13))
    deps = [()] + [
        tuple(sorted(draw(st.sets(st.integers(0, i - 1), max_size=3))))
        for i in range(1, n)
    ]
    latency = st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 5.0)
    return deps, [draw(latency) for _ in range(n)]


@given(dag=_dags(), workers=st.integers(1, 5))
def test_list_makespan_matches_list_schedule(dag, workers):
    """The index-keyed kernel the evaluator runs returns the reference
    scheduler's exact floats, on one worker and on several."""
    deps, lats = dag
    graph = Graph("dag")
    for i, node_deps in enumerate(deps):
        graph.add(
            Node(op=FullyConnected(name=f"n{i}"), deps=tuple(f"n{d}" for d in node_deps))
        )
    ref = list_schedule(graph, {f"n{i}": lat for i, lat in enumerate(lats)}, workers)
    assert list_makespan(deps, lats, workers) == (ref.makespan_s, ref.busy_s)
