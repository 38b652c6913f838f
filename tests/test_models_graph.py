"""Unit tests for computation graphs."""

from __future__ import annotations

import pytest

from repro.models.graph import Graph, GraphError, Node
from repro.models.ops import Activation, EmbeddingLookup, FullyConnected, MLP


def _diamond() -> Graph:
    """bottom -> (left, right) -> top."""
    g = Graph("diamond")
    g.add(Node(op=FullyConnected(name="bottom", in_dim=8, out_dim=8)))
    g.add(Node(op=FullyConnected(name="left", in_dim=8, out_dim=8), deps=("bottom",)))
    g.add(Node(op=FullyConnected(name="right", in_dim=8, out_dim=8), deps=("bottom",)))
    g.add(Node(op=FullyConnected(name="top", in_dim=16, out_dim=1), deps=("left", "right")))
    return g


def test_construction_and_lookup():
    g = _diamond()
    assert len(g) == 4
    assert "left" in g
    assert g.node("top").deps == ("left", "right")
    with pytest.raises(GraphError):
        g.node("missing")


def test_duplicate_names_rejected():
    g = Graph("g")
    g.add(Node(op=FullyConnected(name="a")))
    with pytest.raises(GraphError):
        g.add(Node(op=FullyConnected(name="a")))


def test_dangling_dependency_rejected():
    g = Graph("g")
    with pytest.raises(GraphError):
        g.add(Node(op=FullyConnected(name="a"), deps=("ghost",)))


def test_sources_and_sinks():
    g = _diamond()
    assert [n.name for n in g.sources()] == ["bottom"]
    assert [n.name for n in g.sinks()] == ["top"]
    assert {n.name for n in g.consumers("bottom")} == {"left", "right"}


def test_topological_order_respects_deps():
    g = _diamond()
    order = [n.name for n in g.topological_order()]
    for node in g:
        for dep in node.deps:
            assert order.index(dep) < order.index(node.name)


def test_subgraph_drops_cross_edges():
    g = _diamond()
    sub = g.subgraph("sub", ["left", "top"])
    assert len(sub) == 2
    assert sub.node("left").deps == ()  # bottom edge dropped
    assert sub.node("top").deps == ("left",)  # right edge dropped
    with pytest.raises(GraphError):
        g.subgraph("bad", ["nope"])


def test_cost_rollups_sum_over_nodes():
    g = _diamond()
    items = 32
    assert g.total_flops(items) == pytest.approx(
        sum(n.op.flops(items) for n in g)
    )
    assert g.total_weight_bytes() == pytest.approx(
        sum(n.op.weight_bytes for n in g)
    )


def test_boundary_bytes_only_count_sources_and_sinks():
    g = _diamond()
    assert g.total_input_bytes(4) == pytest.approx(
        g.node("bottom").op.input_bytes(4)
    )
    assert g.total_output_bytes(4) == pytest.approx(
        g.node("top").op.output_bytes(4)
    )


def test_sparse_dense_split_views():
    g = Graph("mixed")
    g.add(Node(op=EmbeddingLookup(name="emb", pooling_factor=10)))
    g.add(Node(op=MLP(name="mlp", layer_dims=(8, 4)), deps=()))
    assert [n.name for n in g.sparse_nodes] == ["emb"]
    assert [n.name for n in g.dense_nodes] == ["mlp"]


def test_empty_graph_behaviour():
    g = Graph("empty")
    assert len(g) == 0
    assert g.sinks() == ()
