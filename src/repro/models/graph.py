"""Computation graphs for recommendation models.

A :class:`Graph` is a DAG of named operator nodes.  The task scheduler
partitions graphs into sub-graphs (SparseNet ``Gs``, DenseNet ``Gd``,
Hot-SparseNet ``Gs.hot``) and the serving simulator executes them with
parallel operator workers respecting the dependency edges, mirroring the
graph-executor abstraction of the paper's system stack (Fig. 3).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.models.ops import Operator, OpKind

__all__ = ["GraphError", "Node", "Graph"]


class GraphError(ValueError):
    """Raised for structurally invalid graphs (cycles, dangling deps)."""


@dataclass(frozen=True)
class Node:
    """One operator in a graph together with its dependencies.

    Attributes:
        op: The operator executed by this node.
        deps: Names of nodes whose outputs this node consumes.
    """

    op: Operator
    deps: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.op.name


class Graph:
    """An immutable operator DAG with cost roll-ups.

    Nodes are stored in insertion order, which must be a valid
    topological order (every dependency is added before its consumer).
    """

    def __init__(self, name: str, nodes: Iterable[Node] = ()) -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: Node) -> None:
        """Append a node; its dependencies must already be present."""
        if node.name in self._nodes:
            raise GraphError(f"duplicate node name {node.name!r} in {self.name!r}")
        for dep in node.deps:
            if dep not in self._nodes:
                raise GraphError(
                    f"node {node.name!r} depends on unknown node {dep!r}"
                )
        self._nodes[node.name] = node

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no node {name!r} in graph {self.name!r}") from None

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def topological_order(self) -> tuple[Node, ...]:
        """Nodes in dependency order (insertion order by construction)."""
        return tuple(self._nodes.values())

    def consumers(self, name: str) -> tuple[Node, ...]:
        """All nodes that directly depend on ``name``."""
        return tuple(n for n in self._nodes.values() if name in n.deps)

    def sinks(self) -> tuple[Node, ...]:
        """Nodes whose output no other node consumes."""
        consumed = {dep for n in self._nodes.values() for dep in n.deps}
        return tuple(n for n in self._nodes.values() if n.name not in consumed)

    def sources(self) -> tuple[Node, ...]:
        """Nodes with no dependencies."""
        return tuple(n for n in self._nodes.values() if not n.deps)

    def subgraph(self, name: str, node_names: Iterable[str]) -> "Graph":
        """Project onto ``node_names``, dropping edges that leave the set.

        Cross-boundary dependencies become sub-graph inputs (this is how
        the S-D pipeline passes pooled sparse output through a queue).
        """
        keep = set(node_names)
        unknown = keep - set(self._nodes)
        if unknown:
            raise GraphError(f"subgraph refers to unknown nodes {sorted(unknown)}")
        sub = Graph(name)
        for node in self._nodes.values():
            if node.name not in keep:
                continue
            kept_deps = tuple(d for d in node.deps if d in keep)
            sub.add(Node(op=node.op, deps=kept_deps))
        return sub

    # -- cost roll-ups -----------------------------------------------------

    def total_flops(self, items: int) -> float:
        return sum(n.op.flops(items) for n in self._nodes.values())

    def total_mem_bytes(self, items: int) -> float:
        return sum(n.op.mem_bytes(items) for n in self._nodes.values())

    def total_input_bytes(self, items: int) -> float:
        """Input bytes of source nodes only (what must cross PCIe)."""
        return sum(n.op.input_bytes(items) for n in self.sources())

    def total_output_bytes(self, items: int) -> float:
        """Output bytes of sink nodes only."""
        return sum(n.op.output_bytes(items) for n in self.sinks())

    def total_weight_bytes(self) -> float:
        """Resident model footprint (dominated by embeddings, >95% in prod)."""
        return sum(n.op.weight_bytes for n in self._nodes.values())

    def nodes_of_kind(self, *kinds: OpKind) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes.values() if n.op.kind in kinds)

    @property
    def sparse_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes.values() if n.op.kind.is_sparse)

    @property
    def dense_nodes(self) -> tuple[Node, ...]:
        return tuple(n for n in self._nodes.values() if not n.op.kind.is_sparse)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.name!r}, nodes={len(self)})"
