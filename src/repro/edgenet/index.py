"""TC-Tree indexing and query answering for edge database networks.

The set-enumeration construction of Algorithm 4 and the pruned BFS of
Algorithm 5 transfer unchanged: nodes store
:class:`~repro.edgenet.decomposition.EdgeTrussDecomposition`, children are
computed inside parent-truss intersections, and empty decompositions prune
whole subtrees (the anti-monotonicity arguments hold for per-edge
frequencies).

So the edge tree is built by the vertex tree's own build,
:func:`repro.index.tctree.build_tc_tree`, serial or process-parallel: an
:class:`~repro.edgenet.network.EdgeDatabaseNetwork` has ``kind = "edge"``,
which selects the edge model's decompose hook and node/tree classes in
the registry. This module adds the node and tree classes and
``backend="legacy"``, the original dict-of-sets serial loop kept as the
parity oracle.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro._ordering import EMPTY_PATTERN, Pattern
from repro.edgenet.decomposition import (
    EdgeTrussDecomposition,
    decompose_edge_network_pattern,
)
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.errors import TCIndexError
from repro.graphs.components import connected_components
from repro.graphs.csr import GraphLike
from repro.index.query import QueryAnswer, query_tc_tree
from repro.index.tcnode import TCNode
from repro.index.tctree import TCTree, build_tc_tree
from repro.network.theme import intersect_graphs


class EdgeTCNode(TCNode):
    """One node of an edge TC-Tree.

    Structure, child ordering, and traversal come from :class:`TCNode`
    (one shared implementation, as the decomposition is one shared
    class). Additionally, non-root nodes
    (``item is not None``) must carry a non-empty decomposition:
    Proposition 5.2 prunes empty subtrees at build time, so a node
    without one is structurally impossible — enforcing it here is what
    lets the query layer drop its ``decomposition is None`` escape
    hatches.
    """

    __slots__ = ()

    def __init__(
        self,
        item: int | None,
        pattern: Pattern,
        decomposition: EdgeTrussDecomposition | None,
    ) -> None:
        if item is not None and (
            decomposition is None or decomposition.is_empty()
        ):
            raise TCIndexError(
                f"edge TC-Tree node {pattern} requires a non-empty "
                "decomposition (Proposition 5.2 prunes empty subtrees)"
            )
        super().__init__(item, pattern, decomposition)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"EdgeTCNode(item={self.item}, pattern={self.pattern}, "
            f"children={len(self.children)})"
        )


class EdgeTCTree(TCTree):
    """A built edge TC-Tree.

    Shape queries (``num_nodes``/``depth``/``patterns``/``find_node``/
    ``max_alpha``/traversal) and the per-node calls of the one
    Algorithm-5 walk come from :class:`TCTree` — the edge model only
    adds the serving-layer kind tag and the query conveniences below.
    """

    #: Tree-model tag; the serving layer dispatches snapshot payloads
    #: on it (see :mod:`repro.serve.snapshot`).
    kind = "edge"

    def __init__(self, root: EdgeTCNode, num_items: int | None = None) -> None:
        if num_items is None:
            num_items = len(
                {
                    item
                    for node in root.iter_subtree()
                    if node.item is not None
                    for item in node.pattern
                }
            )
        super().__init__(root, num_items=num_items)  # type: ignore[arg-type]

    def query(
        self,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
    ) -> QueryAnswer:
        """Algorithm 5 on the edge tree: the one shared walk,
        :func:`repro.index.query.query_tc_tree`."""
        return query_tc_tree(self, pattern=pattern, alpha=alpha)

    def query_communities(
        self,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
    ) -> list[tuple[Pattern, set]]:
        """Theme communities (connected components) matching a query."""
        communities: list[tuple[Pattern, set]] = []
        for truss in self.query(pattern, alpha).trusses:
            for component in connected_components(truss.graph):
                communities.append((truss.pattern, component))
        return communities

    def __repr__(self) -> str:
        return f"EdgeTCTree(nodes={self.num_nodes}, items={self.num_items})"


def build_edge_tc_tree(
    network: EdgeDatabaseNetwork,
    max_length: int | None = None,
    workers: int = 1,
    backend: str = "process",
    reuse: dict[Pattern, EdgeTrussDecomposition] | None = None,
) -> EdgeTCTree:
    """Algorithm 4 over an edge database network.

    Every backend but ``"legacy"`` is :func:`repro.index.tctree.build_tc_tree`
    itself (``"process"`` fans out when ``workers > 1``, ``"serial"``
    never does; ``reuse`` has the same contract). ``backend="legacy"``
    runs the original dict-of-sets serial loop — the parity oracle every
    other backend must reproduce (exact patterns and per-level edge sets,
    thresholds within the cohesion tolerance); it rejects ``reuse``, as
    an oracle that skips work is no oracle.
    """
    if backend == "legacy":
        if reuse:
            raise TCIndexError(
                "the legacy oracle recomputes every decomposition; "
                "reuse is not supported"
            )
        return _build_edge_tc_tree_legacy(network, max_length=max_length)
    return build_tc_tree(  # type: ignore[return-value]
        network, max_length=max_length, workers=workers, reuse=reuse,
        backend=backend,
    )


def _build_edge_tc_tree_legacy(
    network: EdgeDatabaseNetwork,
    max_length: int | None = None,
) -> EdgeTCTree:
    """The original adjacency-set build — the cross-engine parity oracle.

    Frontier carriers materialize lazily via ``graph_at(0.0)`` and are
    **memoized** into the frontier map (the vertex tree's PR 2 fix: a
    sibling rebuilt for one pairing used to be rebuilt for every later
    pairing too), then released by the same pop-time lifecycle as the
    CSR path.
    """
    items = network.item_universe()
    root = EdgeTCNode(None, EMPTY_PATTERN, None)
    truss_graphs: dict[int, GraphLike] = {}
    queue: deque[EdgeTCNode] = deque()

    for item in items:
        decomposition = decompose_edge_network_pattern(
            network, (item,), engine="legacy"
        )
        if decomposition.is_empty():
            continue
        node = EdgeTCNode(item, (item,), decomposition)
        root.add_child(node)
        queue.append(node)

    parent_of: dict[int, EdgeTCNode] = {
        id(child): root for child in root.children
    }
    while queue:
        node_f = queue.popleft()
        if max_length is not None and len(node_f.pattern) >= max_length:
            truss_graphs.pop(id(node_f), None)
            parent_of.pop(id(node_f), None)
            continue
        parent = parent_of[id(node_f)]
        graph_f = truss_graphs.get(id(node_f))
        for node_b in parent.children:
            if node_b.item <= node_f.item:  # type: ignore[operator]
                continue
            if graph_f is None:
                graph_f = node_f.decomposition.graph_at(0.0)  # type: ignore[union-attr]
            graph_b = truss_graphs.get(id(node_b))
            if graph_b is None:
                graph_b = node_b.decomposition.graph_at(0.0)  # type: ignore[union-attr]
                truss_graphs[id(node_b)] = graph_b
            carrier = intersect_graphs(graph_f, graph_b)
            if carrier.num_edges == 0:
                continue
            child_pattern = node_f.pattern + (node_b.item,)  # type: ignore[operator]
            decomposition = decompose_edge_network_pattern(
                network, child_pattern, carrier=carrier, engine="legacy"
            )
            if decomposition.is_empty():
                continue
            child = EdgeTCNode(node_b.item, child_pattern, decomposition)
            node_f.add_child(child)
            parent_of[id(child)] = node_f
            queue.append(child)
        truss_graphs.pop(id(node_f), None)
        parent_of.pop(id(node_f), None)

    return EdgeTCTree(root, num_items=len(items))
