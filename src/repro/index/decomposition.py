"""Maximal-pattern-truss decomposition (Section 6.1).

Theorem 6.1: ``C*_p(α)`` only shrinks when ``α`` crosses the minimum edge
cohesion of the current truss. The truss of a theme network can therefore
be decomposed along the ascending threshold sequence
``α_0 = 0, α_k = min edge cohesion of C*_p(α_{k-1})`` into *disjoint*
removed-edge sets ``R_p(α_k) = E*_p(α_{k-1}) \\ E*_p(α_k)``.

The decomposition stores exactly the edges of ``C*_p(0)`` (no blow-up) and
reconstructs any ``C*_p(α)`` by Equation 1::

    E*_p(α) = ∪_{α_k > α} R_p(α_k)

so a TC-Tree node answers arbitrary-threshold queries without re-mining.

Dense-int theme networks decompose on the CSR engine: triangles are
enumerated once, the per-level minimum comes from a lazy heap, and every
peel round is flat-array bookkeeping — the legacy path pays a full
``min(cohesion.values())`` scan per level plus set surgery per edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from repro._ordering import Pattern
from repro.core.cohesion import FrequencyMap
from repro.core.mptd import (
    COHESION_TOLERANCE,
    _maximal_pattern_truss_legacy,
    maximal_pattern_truss,
    peel_to_threshold,
)
from repro.core.truss import PatternTruss
from repro.engine.registry import record_route
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, GraphLike, as_csr, as_graph
from repro.graphs.graph import Edge, Graph
from repro.graphs.support import (
    CSR_MIN_EDGES,
    decompose_cohesion,
    derivable,
    projection_enabled,
    triangle_index,
)
from repro.network.dbnetwork import DatabaseNetwork
from repro.network.theme import (
    induce_theme_network,
    theme_frequencies,
    theme_network_within,
)



#: A TC-Tree child decomposes over the whole network CSR (sharing its
#: cached triangle index) only when its carrier is both a large share of
#: the network and large in absolute terms — re-enumerating a small
#: carrier is cheaper than flat passes over a big network's triangles.
CSR_NET_REUSE_MIN_EDGES = 1024


@dataclass
class DecompositionLevel:
    """One node of the linked list ``L_p``: threshold + removed edges."""

    alpha: float
    removed_edges: list[Edge]


class MaskedCarrier:
    """A child carrier kept as (base CSR graph, edge-survival mask).

    The Proposition 5.3 intersection ``C*_f(0) ∩ C*_b(0)`` arrives from
    :meth:`CSRGraph.intersect_mask` without ever being materialized: the
    frequency probes only need the surviving endpoints, the network-reuse
    cutover only needs the edge count, and the restricted decomposition
    graph is built by **one** projection of the base under the AND of the
    intersection mask and the frequency mask — instead of carrier
    materialization followed by a second subgraph build.
    """

    __slots__ = ("base", "mask", "num_edges", "_vertex_ids")

    def __init__(self, base: CSRGraph, mask: bytearray, num_edges: int):
        self.base = base
        self.mask = mask
        self.num_edges = num_edges
        self._vertex_ids: set[int] | None = None

    def vertex_ids(self) -> set[int]:
        """Internal ids (in base space) of surviving-edge endpoints."""
        ids = self._vertex_ids
        if ids is None:
            mask = self.mask
            ids = set(compress(self.base.edge_u, mask))
            ids.update(compress(self.base.edge_v, mask))
            self._vertex_ids = ids
        return ids

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids())

    def vertices(self) -> list:
        """Surviving endpoint labels (the frequency-probe candidates)."""
        labels = self.base.labels
        return [labels[i] for i in self.vertex_ids()]

    def materialize(self) -> CSRGraph:
        return self.base.project(self.mask)


class _PendingProjection:
    """A captured ``C*_p(0)`` carrier as (decomposed CSR, alive mask).

    The projection itself is deferred to
    :meth:`TrussDecomposition.take_carrier`, so nodes whose carrier is
    never requested pay nothing; when it *is* materialized the result
    carries projection provenance back to the decomposed graph — whose
    triangle index is warm from the decomposition that just ran — so the
    child build derives triangle indexes instead of re-enumerating.
    """

    __slots__ = ("csr", "alive")

    def __init__(self, csr: CSRGraph, alive: bytearray) -> None:
        self.csr = csr
        self.alive = alive

    def materialize(self) -> CSRGraph:
        return self.csr.project(self.alive)

    def edges(self) -> list[Edge]:
        """Canonical-sorted alive edge list (the pickle exchange shape)."""
        csr = self.csr
        labels = csr.labels
        edge_u = csr.edge_u
        edge_v = csr.edge_v
        alive = self.alive
        return [
            (labels[edge_u[e]], labels[edge_v[e]])
            for e in range(len(alive))
            if alive[e]
        ]


@dataclass
class TrussDecomposition:
    """The linked list ``L_p`` plus the data needed to rebuild trusses.

    ``levels[k]`` holds ``(α_{k+1}, R_p(α_{k+1}))`` in ascending threshold
    order. ``frequencies`` are the pattern frequencies of the vertices of
    ``C*_p(0)`` (needed to materialize :class:`PatternTruss` objects and to
    continue decomposing on updates).

    The edge model's
    :class:`~repro.edgenet.decomposition.EdgeTrussDecomposition` is this
    class with ``frequencies`` keyed by canonical edge pairs: levels,
    Equation 1 and the ``C*_p(0)`` carrier protocol are shared. A
    captured carrier materializes lazily (:meth:`take_carrier`), the
    TC-Tree frontier picks a size-appropriate representation
    (:meth:`frontier_carrier`), and pickling flattens a live CSR capture
    to its canonical edge list (:meth:`__getstate__`).
    """

    pattern: Pattern
    levels: list[DecompositionLevel] = field(default_factory=list)
    frequencies: FrequencyMap = field(default_factory=dict)
    #: ``C*_p(0)`` captured by the CSR engine: an already-built CSRGraph
    #: (nothing was peeled), a pending projection of the decomposed graph
    #: (projection fast path), or the canonical-sorted alive edge list
    #: (oracle path) — materialized lazily, so leaf nodes of the TC-Tree
    #: never pay the build. Excluded from equality and repr.
    carrier0: CSRGraph | list[Edge] | _PendingProjection | None = field(
        default=None, repr=False, compare=False
    )
    #: How this decomposition was computed — ``"<graph choice>+<engine>"``
    #: (e.g. ``"carrier-projected+csr"``, ``"net-reuse+csr"``,
    #: ``"net-small+legacy"``), or just the engine when
    #: :func:`decompose_theme` was called directly. Diagnostic only: the
    #: cutover boundary tests assert on it; excluded from equality.
    route: str | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.levels

    @property
    def num_edges(self) -> int:
        """Edges of ``C*_p(0)`` — L_p stores each exactly once."""
        return sum(len(level.removed_edges) for level in self.levels)

    @property
    def max_alpha(self) -> float:
        """``α*_p``: the least α for which ``C*_p(α)`` is empty.

        The non-trivial query range of this theme network is
        ``[0, max_alpha)``; read from the last list node (Section 6.1).
        """
        if not self.levels:
            return 0.0
        return self.levels[-1].alpha

    def thresholds(self) -> list[float]:
        """The ascending sequence ``α_1 < α_2 < ... < α_h``."""
        return [level.alpha for level in self.levels]

    # ------------------------------------------------------------------
    def edges_at(self, alpha: float) -> list[Edge]:
        """``E*_p(α)`` by Equation 1: union of suffix removed sets."""
        bound = alpha + COHESION_TOLERANCE
        edges: list[Edge] = []
        for level in self.levels:
            # Same tolerance as MPTD peeling so reconstruction agrees with
            # direct mining at exact-boundary thresholds.
            if level.alpha > bound:
                edges.extend(level.removed_edges)
        return edges

    def graph_at(self, alpha: float) -> Graph:
        """``C*_p(α)`` as an adjacency-set graph."""
        graph = Graph()
        for u, v in self.edges_at(alpha):
            graph.add_edge(u, v)
        return graph

    def truss_at(self, alpha: float) -> PatternTruss:
        """Materialize ``C*_p(α)`` as a :class:`PatternTruss`."""
        return PatternTruss(
            self.pattern, self.graph_at(alpha), self.frequencies, alpha
        )

    # ------------------------------------------------------------------
    # the TC-Tree frontier-carrier protocol
    # ------------------------------------------------------------------
    def _engine_cutover(self) -> int:
        """Edge count below which carriers stay adjacency-set graphs."""
        # Read the module global at call time so tests (and tuning) that
        # patch ``decomposition.CSR_MIN_EDGES`` take effect immediately.
        return CSR_MIN_EDGES

    def csr_at(self, alpha: float) -> CSRGraph | None:
        """``C*_p(α)`` as a CSR carrier, or None for unsortable labels.

        This is what the TC-Tree keeps per frontier node so sibling
        intersections are array merges rather than set intersections.
        """
        try:
            return CSRGraph.from_edges(self.edges_at(alpha))
        except GraphError:
            return None

    def take_carrier(self) -> CSRGraph | None:
        """Hand over the captured ``C*_p(0)`` carrier (cleared on take).

        The TC-Tree frees frontier carriers once a node's children are
        built; clearing here keeps steady-state memory at the sum of the
        ``L_p`` lists, as in the paper.
        """
        carrier = self.carrier0
        self.carrier0 = None
        if carrier is None or isinstance(carrier, CSRGraph):
            return carrier
        if isinstance(carrier, _PendingProjection):
            return carrier.materialize()
        return CSRGraph._from_canonical_edges(carrier)

    def frontier_carrier(self) -> "Graph | CSRGraph":
        """``C*_p(0)`` in the representation the TC-Tree should keep.

        Prefers the carrier captured by the CSR engine; tiny trusses
        (below the engine cutover) stay as adjacency-set graphs — CSR
        construction overhead dwarfs any merge win at that size — and
        anything larger is rebuilt in CSR form from the levels.
        """
        carrier = self.take_carrier()
        if carrier is not None:
            return carrier
        if self.num_edges < self._engine_cutover():
            return self.graph_at(0.0)
        csr = self.csr_at(0.0)
        if csr is not None:
            return csr
        return self.graph_at(0.0)

    def __getstate__(self):
        """Pickle protocol of the process-parallel build: flatten a live
        CSR ``carrier0`` to its canonical edge list so workers ship
        levels + frequencies + flat edges, never CSR objects (the receiver
        rebuilds lazily via :meth:`take_carrier`).

        The flat list duplicates edges the levels already carry, but
        deliberately so: on the fork path the parent receives it once
        (phase A result) and every subtree worker then inherits it
        copy-on-write, where dropping it would cost each worker an
        O(m log m) from-levels rebuild per sibling carrier it touches.
        """
        state = self.__dict__.copy()
        carrier = state.get("carrier0")
        if isinstance(carrier, (CSRGraph, _PendingProjection)):
            state["carrier0"] = carrier.edges()
        return state

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(pattern={self.pattern}, "
            f"levels={len(self.levels)}, edges={self.num_edges})"
        )


def decompose_truss(
    pattern: Pattern,
    truss_graph: Graph,
    frequencies: FrequencyMap,
    cohesion: dict[Edge, float],
) -> TrussDecomposition:
    """Decompose ``C*_p(0)`` into ``L_p`` by iterated peeling.

    ``truss_graph`` and ``cohesion`` must come from an MPTD run at α = 0;
    both are consumed (mutated to empty) — pass copies to keep them.

    Each round reads the current minimum cohesion β, peels every edge with
    cohesion <= β (cascading), and records the removed set under threshold
    β. Theorem 6.1 guarantees the recorded sets are exactly the
    ``R_p(α_k)``.
    """
    decomposition = TrussDecomposition(
        pattern=pattern,
        frequencies={
            v: frequencies[v] for v in truss_graph if v in frequencies
        },
    )
    while cohesion:
        beta = min(cohesion.values())
        removed: list[Edge] = []
        peel_to_threshold(
            truss_graph, frequencies, beta, cohesion, removed_sink=removed
        )
        decomposition.levels.append(DecompositionLevel(beta, removed))
    return decomposition


def decompose_theme(
    pattern: Pattern,
    graph: GraphLike,
    frequencies: FrequencyMap,
    engine: str = "auto",
    capture_carrier: bool = False,
) -> TrussDecomposition:
    """MPTD at α = 0 plus full decomposition of a theme network.

    ``engine`` selects the implementation: ``"auto"`` routes dense-int
    graphs through the CSR fast path, ``"csr"`` forces it (raises
    :class:`GraphError` when ineligible), ``"legacy"`` forces the
    adjacency-set path (the parity-test oracle). ``capture_carrier``
    additionally stashes the ``C*_p(0)`` CSR carrier on the result (the
    TC-Tree build wants it; plain decompositions skip the cost).
    """
    if engine not in ("auto", "csr", "legacy"):
        raise GraphError(f"unknown decomposition engine {engine!r}")
    use_csr = engine != "legacy"
    if use_csr and engine == "auto" and graph.num_edges < CSR_MIN_EDGES:
        # Tiny themes: the flat-engine fixed costs (triangle index, heap,
        # array construction) exceed the dict-of-sets loop's whole
        # runtime — decide before paying for any conversion.
        use_csr = False
    csr = as_csr(graph) if use_csr else None
    if csr is None:
        if engine == "csr":
            raise GraphError("graph is not CSR-eligible (non-int labels)")
        truss_graph, cohesion = _maximal_pattern_truss_legacy(
            as_graph(graph), frequencies, 0.0
        )
        decomposition = decompose_truss(
            pattern, truss_graph, frequencies, cohesion
        )
        decomposition.route = "legacy"
        return decomposition
    decomposition = _decompose_theme_csr(
        pattern, csr, frequencies, capture_carrier
    )
    decomposition.route = "csr"
    return decomposition


def _decompose_theme_csr(
    pattern: Pattern,
    csr: CSRGraph,
    frequencies: FrequencyMap,
    capture_carrier: bool = False,
) -> TrussDecomposition:
    """CSR-native decomposition: one engine call, then label conversion."""
    labels = csr.labels
    freq = [frequencies.get(label, 0.0) for label in labels]
    # The engine runs Phase 1, the α = 0 peel (removals belong to no
    # level), and the level rounds in one call; ``alive`` flags C*_p(0).
    alive, levels = decompose_cohesion(csr, freq)
    edge_u = csr.edge_u
    edge_v = csr.edge_v
    alive_count = sum(alive)
    # Surviving endpoints via compress/map pipelines.
    gl = labels.__getitem__
    surviving = set(map(gl, compress(edge_u, alive)))
    surviving.update(map(gl, compress(edge_v, alive)))
    carrier0: CSRGraph | list[Edge] | _PendingProjection | None = None
    if capture_carrier:
        # C*_p(0) as a CSR carrier, for free: when nothing was peeled the
        # input graph (sans isolated vertices) *is* the carrier; otherwise
        # defer to :meth:`TrussDecomposition.take_carrier`. The capture
        # keeps (graph, alive mask) so the materialized carrier carries
        # provenance back to the decomposed graph — whether a later
        # triangle index is then *derived* from that provenance or
        # re-enumerated is decided (flag-gated) at build time, keeping
        # capture itself identical on both sides of the parity oracle.
        if alive_count == csr.num_edges and not csr.has_isolated_vertices():
            carrier0 = csr
        else:
            carrier0 = _PendingProjection(csr, alive)
    decomposition = TrussDecomposition(
        pattern=pattern,
        frequencies={
            v: frequencies[v] for v in sorted(surviving) if v in frequencies
        },
        carrier0=carrier0,
    )
    ge_u = edge_u.__getitem__
    ge_v = edge_v.__getitem__
    for beta, removed in levels:
        decomposition.levels.append(
            DecompositionLevel(
                beta,
                list(zip(
                    map(gl, map(ge_u, removed)),
                    map(gl, map(ge_v, removed)),
                )),
            )
        )
    return decomposition


def decompose_network_pattern(
    network: DatabaseNetwork,
    pattern: Pattern,
    carrier: GraphLike | None = None,
    engine: str = "auto",
    capture_carrier: bool = False,
) -> TrussDecomposition:
    """Induce ``G_p``, run MPTD at α = 0, and decompose — one call.

    ``carrier`` optionally restricts the induction to a known superset of
    the truss (Proposition 5.3), which is how the TC-Tree builds children
    inside parent intersections; a CSR carrier keeps the whole round trip
    on the fast path — and, since carriers arrive as projections of a
    parent whose triangle index is warm, the child decomposition derives
    its index instead of re-enumerating.
    """
    if carrier is None:
        csr_net = network.csr_graph() if engine != "legacy" else None
        if csr_net is not None:
            frequencies = theme_frequencies(network, pattern)
            graph: GraphLike
            graph, graph_route = _restrict_for_decomposition(
                csr_net, frequencies
            )
            graph_route = "net-" + graph_route
        else:
            graph, frequencies = induce_theme_network(network, pattern)
            graph_route = "induced"
    elif (
        isinstance(carrier, (CSRGraph, MaskedCarrier))
        and engine != "legacy"
    ):
        masked = isinstance(carrier, MaskedCarrier)
        frequencies = theme_frequencies(
            network, pattern,
            candidates=carrier.vertices() if masked else carrier,
        )
        csr_net = network.csr_graph()
        derivation_base = carrier.base if masked else carrier
        # NOTE: the route choice must NOT depend on the projection
        # switch — the switch only picks derive-vs-re-enumerate for
        # triangle indexes (provably element-identical), so keeping
        # routes fixed is what makes the projection on/off parity
        # bit-exact by construction rather than by float luck.
        if csr_net is None:
            reuse_net = False
        elif derivable(derivation_base):
            reuse_net = _prefer_network_reuse(
                carrier.num_edges, derivation_base, csr_net
            )
        else:
            reuse_net = 3 * carrier.num_edges >= csr_net.num_edges
        if (
            csr_net is not None
            and carrier.num_edges >= CSR_NET_REUSE_MIN_EDGES
            and reuse_net
        ):
            # The carrier spans most of the network: decompose over the
            # network CSR itself and let the α = 0 peel prune. Vertices
            # outside the carrier get frequency 0, which by the
            # monotonicity argument of Proposition 5.3 leaves C*_p and
            # its levels unchanged — and the network CSR's cached
            # triangle index is shared by every node of the build.
            # (Below this cutover the projected carrier wins: deriving
            # its index costs one filter pass, while re-peeling the
            # whole network costs a flat pass over *all* its triangles
            # per child.)
            graph = csr_net
            graph_route = "net-reuse"
        elif masked:
            graph, graph_route = _restrict_for_decomposition(
                carrier.base, frequencies, carrier=carrier
            )
            graph_route = "carrier-" + graph_route
        else:
            graph, graph_route = _restrict_for_decomposition(
                carrier, frequencies
            )
            graph_route = "carrier-" + graph_route
    else:
        if isinstance(carrier, MaskedCarrier):
            carrier = carrier.materialize()
        graph, frequencies = theme_network_within(network, pattern, carrier)
        graph_route = "within"
    decomposition = decompose_theme(
        pattern, graph, frequencies,
        engine=engine, capture_carrier=capture_carrier,
    )
    decomposition.route = f"{graph_route}+{decomposition.route}"
    record_route("vertex", decomposition.route)
    return decomposition


def _prefer_network_reuse(
    carrier_edges: int, base: CSRGraph, csr_net: CSRGraph
) -> bool:
    """Net-reuse vs carrier projection, for a derivable carrier.

    Decomposing over the network CSR pays a Phase-1 pass over *all* its
    triangles plus the α = 0 peel of every non-carrier edge (each dying
    edge cascades through its triangles) but builds no index; the
    projected carrier pays the derived-index build over its own
    (smaller) triangle set. Measured on the dense benchmark family,
    projection wins essentially everywhere the carrier is a strict
    subset — reuse only when the carrier *is* nearly the network, where
    projecting buys nothing and the build cost is pure overhead. Either
    choice yields bit-identical decompositions (the Proposition 5.3
    zero-frequency argument), so this is purely a cost heuristic.
    """
    return 10 * carrier_edges >= 9 * csr_net.num_edges


def warm_network_triangles(
    network: DatabaseNetwork, items: list[int]
) -> bool:
    """Pre-enumerate the network CSR's triangle index when layer 1 will
    amortize it; returns True when warming happened.

    With projection on, every layer-1 theme graph that is a projection of
    the network CSR *derives* its triangle index from the network's — so
    one up-front enumeration replaces one per item. The expected cost of
    enumerating item ``s``'s theme subgraph scales like ``share_s²`` of
    the network enumeration (both endpoints of an edge must support the
    item), so warming pays off as soon as ``Σ share_s² ≥ 1``. With
    projection off only the covers-most regime reuses the network index
    (those decompositions run over the network CSR itself — the PR 2
    fork-warming predicate).
    """
    csr = network.csr_graph()
    if (
        csr is None
        or csr.num_edges < CSR_NET_REUSE_MIN_EDGES
        or csr.num_vertices == 0
    ):
        return False
    if csr._tri is not None:
        return True
    n = csr.num_vertices
    if projection_enabled():
        load = 0.0
        for item in items:
            share = len(network.vertices_containing_item(item)) / n
            load += share * share
            if load >= 1.0:
                triangle_index(csr)
                return True
        return False
    for item in items:
        if covers_most_vertices(
            len(network.vertices_containing_item(item)), n
        ):
            triangle_index(csr)
            return True
    return False


def covers_most_vertices(num_positive: int, num_vertices: int) -> bool:
    """The ≥90% frequency-coverage cutoff: decompose over the unfiltered
    network CSR instead of building a subgraph. One predicate shared by
    :func:`_restrict_for_decomposition` and the projection-off branch of
    :func:`warm_network_triangles` so tuning it never desynchronizes the
    two."""
    return 10 * num_positive >= 9 * num_vertices


def _restrict_for_decomposition(
    csr: CSRGraph,
    frequencies: FrequencyMap,
    carrier: MaskedCarrier | None = None,
) -> tuple[GraphLike, str]:
    """The graph to decompose for a frequency-positive vertex set, plus
    the route tag recorded on the decomposition.

    A vertex with ``f_v(p) = 0`` contributes weight 0 to every triangle
    through it, so each of its edges has cohesion 0 and dies in the α = 0
    peel without ever appearing in a level — decomposing the *unfiltered*
    graph with zero-filled frequencies is mathematically identical to
    decomposing the vertex-induced theme subgraph. When most vertices are
    frequency-positive we therefore skip the subgraph build entirely and
    let the peel do the filtering (``"full"``). A sparser theme gets one
    filter pass, and the surviving edge count picks the representation: a
    :meth:`CSRGraph.project` for the engine (``"projected"`` — provenance
    intact, so its triangle index derives from ``csr``'s cached one), or
    adjacency sets below the :data:`CSR_MIN_EDGES` cutover (``"small"``).

    With ``carrier`` (an unmaterialized intersection over ``csr``), its
    edge mask simply ANDs into the frequency mask, so the decomposition
    graph is a **single** projection of the base — same edges, same
    vertex set, bit-identical decompositions to materialize-then-filter
    at a fraction of the construction cost.
    """
    num_vertices = (
        carrier.num_vertices if carrier is not None else csr.num_vertices
    )
    if covers_most_vertices(len(frequencies), num_vertices):
        if carrier is not None:
            return carrier.materialize(), "full"
        return csr, "full"
    index = csr._index
    keep = bytearray(csr.num_vertices)
    for label in frequencies:
        i = index.get(label)
        if i is not None:
            keep[i] = 1
    edge_u = csr.edge_u
    edge_v = csr.edge_v
    m = len(edge_u)
    # An edge survives iff both endpoints are frequency-positive (and it
    # is in the carrier, when one is given): byte maps ANDed as big
    # ints — C speed end to end.
    at = keep.__getitem__
    if m:
        mask_int = (
            int.from_bytes(bytes(map(at, edge_u)), "little")
            & int.from_bytes(bytes(map(at, edge_v)), "little")
        )
        if carrier is not None:
            mask_int &= int.from_bytes(bytes(carrier.mask), "little")
        mask = mask_int.to_bytes(m, "little")
    else:
        mask = b""
    kept_count = sum(mask)
    if kept_count >= CSR_MIN_EDGES:
        return csr.project(mask), "projected"
    labels = csr.labels
    graph = Graph()
    for i in range(len(keep)):
        if keep[i]:
            graph.add_vertex(labels[i])
    for e in compress(range(m), mask):
        graph.add_edge(labels[edge_u[e]], labels[edge_v[e]])
    return graph, "small"


__all__ = [
    "DecompositionLevel",
    "TrussDecomposition",
    "decompose_truss",
    "decompose_theme",
    "decompose_network_pattern",
    "maximal_pattern_truss",
    "warm_network_triangles",
]
