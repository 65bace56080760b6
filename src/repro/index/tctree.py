"""TC-Tree construction (Algorithm 4).

The TC-Tree is a set-enumeration tree over the item universe in which
every materialized node stores the decomposed maximal pattern truss
``L_p`` of its pattern. Construction is breadth-first:

1. Layer 1: for every item with a non-empty ``C*_{s}(0)``, decompose and
   attach under the root (the paper parallelizes this layer).
2. For a popped node ``n_f``, each *later* sibling ``n_b``
   (``s_{n_f} ≺ s_{n_b}``) proposes child pattern ``p_f ∪ {s_{n_b}}``;
   the child's truss is computed inside ``C*_{p_f}(0) ∩ C*_{p_b}(0)``
   (Proposition 5.3) and kept only when non-empty (Proposition 5.2
   justifies pruning the whole subtree otherwise).

``workers > 1`` selects a parallel build: ``backend="process"`` (the
default) fans layer-1 items and whole enumeration subtrees across a
process pool (:mod:`repro.index.parallel` — real speedup on a GIL-bound
engine). The serial path is the parity oracle: the process build must
reproduce its tree exactly.

One build serves every registered tree model. The network's ``kind``
(``"vertex"`` for :class:`~repro.network.dbnetwork.DatabaseNetwork`,
``"edge"`` for :class:`~repro.edgenet.network.EdgeDatabaseNetwork`)
picks its :class:`~repro.engine.registry.ModelSpec`, which supplies what
the model changes — the decompose call (frequency probe and routing),
the triangle warm-up, and the node and tree classes. Everything else
(layer 1, sibling pairing, carrier lifecycle) is this module's.

During the build each frontier node keeps its ``C*_p(0)`` carrier alive
for the intersection step; the carriers are released once the node's
children are built, so steady-state memory is the sum of the ``L_p``
lists, as in the paper. Carriers are kept in CSR form whenever the labels
allow it, so sibling intersections are sorted-array merges rather than
Python set intersections, and the child decomposition runs end-to-end on
the CSR engine.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro._ordering import EMPTY_PATTERN, Pattern
from repro.engine.registry import get_model
from repro.errors import TCIndexError
from repro.graphs.csr import CSRGraph, GraphLike
from repro.index.decomposition import MaskedCarrier, TrussDecomposition
from repro.index.tcnode import TCNode
from repro.network.dbnetwork import DatabaseNetwork
from repro.network.theme import intersect_graphs
from repro.obs.trace import Tracer, span, tracing


class TCTree:
    """A built TC-Tree: the queryable index of all maximal pattern trusses."""

    #: Tree-model tag; the serving layer dispatches snapshot payloads on
    #: it (``"edge"`` on :class:`repro.edgenet.index.EdgeTCTree`).
    kind = "vertex"

    def __init__(self, root: TCNode, num_items: int) -> None:
        self.root = root
        self.num_items = num_items

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Indexed nodes (excluding the root) = #maximal pattern trusses."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def depth(self) -> int:
        """Longest indexed pattern length."""
        return self.root.depth_below

    def iter_nodes(self) -> Iterator[TCNode]:
        """All non-root nodes, depth-first."""
        for child in self.root.children:
            yield from child.iter_subtree()

    def nodes_at_depth(self, depth: int) -> list[TCNode]:
        """All nodes whose pattern has length ``depth`` (depth >= 1)."""
        return [n for n in self.iter_nodes() if len(n.pattern) == depth]

    def patterns(self) -> list[Pattern]:
        return sorted(node.pattern for node in self.iter_nodes())

    def find_node(self, pattern: Pattern) -> TCNode | None:
        """Locate the node of ``pattern``, or None when not indexed."""
        node = self.root
        for item in pattern:
            node = next(
                (c for c in node.children if c.item == item), None
            )  # type: ignore[assignment]
            if node is None:
                return None
        return node if node is not self.root else None

    # Per-node calls of the one Algorithm-5 walk
    # (:func:`repro.index.query.query_tc_tree`), shared with
    # :class:`~repro.serve.snapshot.TCTreeSnapshot`.
    def children(self, node: TCNode) -> list[TCNode]:
        return node.children

    def item(self, node: TCNode) -> int:
        return node.item  # type: ignore[return-value]

    def prune_alpha(self, node: TCNode) -> float:
        """Least α at which ``node`` answers empty, in O(1).

        Levels ascend and each removes at least one edge, so this is
        the last level's threshold, equal to ``prune_alpha_of``.
        """
        return node.decomposition.max_alpha  # type: ignore[union-attr]

    def decode(self, node: TCNode) -> TrussDecomposition:
        return node.decomposition  # type: ignore[return-value]

    def max_alpha(self) -> float:
        """The global non-trivial α range upper bound over all themes."""
        return max(
            (n.decomposition.max_alpha for n in self.iter_nodes()
             if n.decomposition is not None),
            default=0.0,
        )

    def __repr__(self) -> str:
        return f"TCTree(nodes={self.num_nodes}, depth={self.depth})"


def _carrier_of(decomposition: TrussDecomposition) -> GraphLike:
    """The ``C*_p(0)`` frontier carrier, in the size-appropriate form.

    The CSR engine captures the carrier during decomposition; taking it
    here transfers ownership to the frontier bookkeeping (released once
    the node's children are built). Released or legacy-path carriers are
    rebuilt from the levels — tiny ones as adjacency-set graphs.
    """
    return decomposition.frontier_carrier()


def _expand_frontier(
    network: DatabaseNetwork,
    queue: deque[TCNode],
    truss_graphs: dict[int, GraphLike],
    parent_of: dict[int, TCNode],
    max_length: int | None,
    reuse: dict[Pattern, TrussDecomposition] | None,
    decompose,
    node_factory,
) -> None:
    """Run the BFS child-generation loop of Algorithm 4 to completion.

    ``queue`` seeds the frontier; ``truss_graphs`` maps ``id(node)`` to
    the node's live ``C*_p(0)`` carrier and ``parent_of`` maps it to the
    node whose ``children`` list supplies the pairing siblings. The serial
    build seeds all of layer 1; the process-parallel subtree workers seed
    a single layer-1 node whose siblings may arrive carrier-less — those
    carriers are rebuilt lazily and memoized back into ``truss_graphs``
    (released, like every carrier, when their node is popped).

    The loop is model-agnostic: ``decompose`` (the model's decompose
    hook, ``(network, pattern, carrier=..., capture_carrier=...)``) mines
    a child pattern inside a carrier and ``node_factory`` builds the
    matching node type. Everything else — sibling pairing, masked-carrier
    intersections, lazy materialization, carrier lifecycle — is identical
    in every model.
    """
    with span("build.frontier", seeds=len(queue)):
        _frontier_loop(
            network, queue, truss_graphs, parent_of,
            max_length, reuse, decompose, node_factory,
        )


def _frontier_loop(
    network, queue, truss_graphs, parent_of,
    max_length, reuse, decompose, node_factory,
) -> None:
    reuse = reuse or {}
    while queue:
        node_f = queue.popleft()
        if max_length is not None and len(node_f.pattern) >= max_length:
            truss_graphs.pop(id(node_f), None)
            parent_of.pop(id(node_f), None)
            # The capture was never needed: a max-depth node pairs with
            # nobody, so release it instead of letting it ride along in
            # the finished tree (and in worker result pickles).
            if node_f.decomposition is not None:
                node_f.decomposition.carrier0 = None
            continue
        parent = parent_of[id(node_f)]
        # Carriers materialize lazily on first pairing: a node with no
        # later siblings never builds one at all.
        graph_f = truss_graphs.get(id(node_f))
        for node_b in parent.children:
            if node_b.item <= node_f.item:  # type: ignore[operator]
                continue  # need s_{n_f} ≺ s_{n_b}
            if graph_f is None:
                graph_f = _carrier_of(node_f.decomposition)  # type: ignore[arg-type]
            graph_b = truss_graphs.get(id(node_b))
            if graph_b is None:
                # Sibling carrier not materialized — rebuild it once and
                # memoize it so every later node_f pairing with this
                # sibling reuses it instead of paying the O(m) rebuild
                # again; it is released by the same pop-time lifecycle as
                # captured carriers.
                graph_b = _carrier_of(node_b.decomposition)  # type: ignore[arg-type]
                truss_graphs[id(node_b)] = graph_b
            if isinstance(graph_f, CSRGraph) and isinstance(
                graph_b, CSRGraph
            ):
                # Carrier-projection fast path: keep the Proposition 5.3
                # intersection as (base, mask) — materialized only if the
                # child decomposition actually needs the subgraph, and
                # then as a single projection that derives its triangle
                # index from the parent chain.
                base, mask, count = graph_f.intersect_mask(graph_b)
                if count == 0:
                    continue
                carrier: "GraphLike | MaskedCarrier" = MaskedCarrier(
                    base, mask, count
                )
            else:
                carrier = intersect_graphs(graph_f, graph_b)
                if carrier.num_edges == 0:
                    continue
            child_pattern = node_f.pattern + (node_b.item,)  # type: ignore[operator]
            decomposition = reuse.get(child_pattern)
            if decomposition is None:
                decomposition = decompose(
                    network, child_pattern, carrier=carrier,
                    capture_carrier=True,
                )
            if decomposition.is_empty():
                continue
            child = node_factory(node_b.item, child_pattern, decomposition)
            node_f.add_child(child)
            parent_of[id(child)] = node_f
            queue.append(child)
        truss_graphs.pop(id(node_f), None)
        parent_of.pop(id(node_f), None)
        if node_f.decomposition is not None:
            node_f.decomposition.carrier0 = None  # release unused capture


def build_tc_tree(
    network: DatabaseNetwork,
    max_length: int | None = None,
    workers: int = 1,
    reuse: dict[Pattern, TrussDecomposition] | None = None,
    backend: str = "process",
    trace: Tracer | None = None,
) -> TCTree:
    """Build the TC-Tree of ``network`` (Algorithm 4).

    ``network`` is a vertex or an edge database network; its ``kind``
    picks the registered model, and the result is that model's tree
    (:class:`TCTree` or :class:`~repro.edgenet.index.EdgeTCTree`).
    ``max_length`` optionally caps indexed pattern length. ``workers > 1``
    with ``backend="process"`` (the default) fans layer-1 items and their
    enumeration subtrees across a process pool
    (:mod:`repro.index.parallel`); ``backend="serial"`` forces the
    single-process path regardless of ``workers``. ``reuse`` optionally
    maps patterns to decompositions known to still be valid (the
    incremental maintenance path — see :mod:`repro.index.updates`);
    matching patterns skip recomputation entirely. ``trace`` optionally
    installs a :class:`~repro.obs.trace.Tracer` for the duration of the
    build, so the phase spans (warm/layer1/frontier, or phase A/B on the
    process backend) land in it ready for export.
    """
    if trace is not None:
        with tracing(trace):
            with span(
                "build.tc_tree", backend=backend, workers=workers
            ) as sp:
                tree = build_tc_tree(
                    network, max_length=max_length, workers=workers,
                    reuse=reuse, backend=backend,
                )
                sp.set_attr("nodes", tree.num_nodes)
                return tree
    if backend not in ("process", "serial"):
        raise TCIndexError(f"unknown build backend {backend!r}")
    items = network.item_universe()
    if workers > 1 and len(items) > 1 and backend == "process":
        from repro.index.parallel import build_tc_tree_process

        return build_tc_tree_process(
            network, max_length=max_length, workers=workers, reuse=reuse
        )
    spec = get_model(network.kind)
    # Resolved per build, so a rebound module attribute is what runs.
    decompose = spec.hook("decompose")
    node_cls = spec.node_cls
    root = node_cls(None, EMPTY_PATTERN, None)
    reuse = reuse or {}
    # One network-triangle enumeration, amortized across every layer-1
    # theme subgraph that derives its index from it (projection path).
    with span("build.warm_triangles", items=len(items)):
        spec.hook("warm")(network, items)

    def first_layer(item: int) -> TrussDecomposition:
        cached = reuse.get((item,))
        if cached is not None:
            return cached
        return decompose(network, (item,), capture_carrier=True)

    with span("build.layer1", items=len(items), backend=backend):
        decompositions = [first_layer(item) for item in items]

    # Frontier bookkeeping: the C*_p(0) carrier of every node whose
    # children are still to be built (CSR when labels permit). Carriers
    # are materialized lazily by the frontier loop.
    truss_graphs: dict[int, GraphLike] = {}
    queue: deque[TCNode] = deque()
    for item, decomposition in zip(items, decompositions):
        if decomposition.is_empty():
            continue
        node = node_cls(item, (item,), decomposition)
        root.add_child(node)
        queue.append(node)

    parent_of: dict[int, TCNode] = {
        id(child): root for child in root.children
    }

    _expand_frontier(
        network, queue, truss_graphs, parent_of,
        max_length=max_length, reuse=reuse,
        decompose=decompose, node_factory=node_cls,
    )

    return spec.make_tree(root, len(items))
