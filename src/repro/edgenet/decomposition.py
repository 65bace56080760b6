"""Truss decomposition for edge theme networks.

The Theorem 6.1 argument only uses two facts — cohesion is a sum of
per-triangle minima, and peeling at the current minimum cohesion strictly
shrinks the truss — both of which hold verbatim with per-edge frequencies.
So an edge theme network's maximal pattern truss decomposes into the same
ascending-threshold linked list ``L_p``, reconstructed by Equation 1.

:class:`EdgeTrussDecomposition` is therefore the vertex
:class:`~repro.index.decomposition.TrussDecomposition` with per-*edge*
frequencies; this module supplies only what the edge model changes: the
frequency probe and routing of :func:`decompose_edge_network_pattern`,
the per-vertex summary view of ``truss_at``, the
:data:`EDGE_CSR_MIN_EDGES` cutover and the layer-1 planning helpers.

Routing mirrors :mod:`repro.index.decomposition`: a CSR (or masked) carrier
keeps the whole round trip on the flat engine — the edge theme network *is*
the carrier minus zero-frequency edges, so the decomposition graph is one
:meth:`~repro.graphs.csr.CSRGraph.project` whose triangle index derives
from the carrier's chain — and ``capture_carrier`` stashes ``C*_p(0)`` as a
pending projection for the TC-Tree frontier. The legacy adjacency-set path
is preserved untouched as the parity oracle.
"""

from __future__ import annotations

from itertools import compress

from repro._ordering import Pattern, make_pattern
from repro.core.truss import PatternTruss
from repro.edgenet.cohesion import edge_theme_cohesion_table
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.edgenet.theme import EdgeFrequencyMap, induce_edge_theme_network
from repro.engine.registry import count_routes
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, GraphLike, as_csr
from repro.graphs.graph import Edge, Graph
from repro.graphs.support import (
    decompose_cohesion_edges,
    edge_frequency_list,
    projection_enabled,
    triangle_index,
)
from repro.index.decomposition import (
    DecompositionLevel,
    MaskedCarrier,
    TrussDecomposition,
    _PendingProjection,
)

#: An edge decomposition reuses the network CSR (shared cached triangle
#: index, no subgraph build) only when the theme covers most of it —
#: mirrors :data:`repro.index.decomposition.CSR_NET_REUSE_MIN_EDGES`.
CSR_NET_REUSE_MIN_EDGES = 1024

#: Engine cutover for *edge* theme networks. Far below the vertex
#: model's :data:`~repro.graphs.support.CSR_MIN_EDGES` (512): the legacy
#: edge path recomputes common neighbourhoods per edge for the cohesion
#: table *and* per peel step, so the flat engine — whose triangle index
#: usually *derives* from the carrier chain here — wins much earlier.
#: Measured on the dense benchmark family (sweep 512→16): 512 = 0.79 s,
#: 256 = 0.59 s, 64 = 0.53 s, 32 = 0.57 s; the curve is flat below 128,
#: so 64 leaves margin on both sides.
EDGE_CSR_MIN_EDGES = 64


class EdgeTrussDecomposition(TrussDecomposition):
    """``L_p`` for an edge theme network: ``frequencies`` maps canonical
    edge pairs to ``f_e(p)``.

    Levels, Equation 1, pickling and the TC-Tree carrier protocol are the
    vertex model's; only the query-layer view and the engine cutover
    differ.
    """

    def truss_at(self, alpha: float) -> PatternTruss:
        """``C*_p(α)`` as a :class:`PatternTruss` for the query layer.

        The truss carries per-vertex *summary* frequencies (max incident
        ``f_e``, the reporting convention of
        :func:`repro.edgenet.finder.edge_tcfi`); the authoritative
        per-edge frequencies stay on :attr:`frequencies`.
        """
        graph = self.graph_at(alpha)
        view: dict = {}
        for (u, v), f in self.frequencies.items():
            if graph.has_edge(u, v):
                if f > view.get(u, 0.0):
                    view[u] = f
                if f > view.get(v, 0.0):
                    view[v] = f
        return PatternTruss(self.pattern, graph, view, alpha)

    def _engine_cutover(self) -> int:
        # Read at call time so tests patching the module constant (and
        # future tuning) take effect immediately.
        return EDGE_CSR_MIN_EDGES


def decompose_edge_truss(
    pattern: Pattern,
    truss_graph: Graph,
    frequencies: EdgeFrequencyMap,
    cohesion: dict[Edge, float],
) -> EdgeTrussDecomposition:
    """Iterated peeling of an α = 0 edge truss; inputs are consumed."""
    from repro.edgenet.finder import _peel

    decomposition = EdgeTrussDecomposition(
        pattern=pattern,
        frequencies={
            e: f
            for e, f in frequencies.items()
            if truss_graph.has_edge(*e)
        },
    )
    while cohesion:
        beta = min(cohesion.values())
        before = set(cohesion)
        _peel(truss_graph, frequencies, beta, cohesion)
        removed = sorted(before - set(cohesion))
        decomposition.levels.append(DecompositionLevel(beta, removed))
    return decomposition


def _decompose_edge_theme_csr(
    pattern: Pattern,
    csr: CSRGraph,
    frequencies: EdgeFrequencyMap,
    capture_carrier: bool = False,
) -> EdgeTrussDecomposition:
    """CSR-native edge decomposition: per-edge weights, one engine call.

    Runs :func:`~repro.graphs.support.decompose_cohesion_edges` — which
    derives the triangle index from ``csr``'s projection parent when one
    is cached — then converts edge ids back to canonical label pairs.
    Per-level removed sets are sorted into the legacy
    :func:`decompose_edge_truss` shape; as with the vertex engine,
    cross-engine parity is exact on level membership and
    tolerance-level on threshold floats (the two engines sum cohesion
    in different orders), while projection on/off parity within this
    engine is exact.

    ``capture_carrier`` stashes ``C*_p(0)`` as a pending projection of
    ``csr`` (or ``csr`` itself when nothing was peeled) — the frontier
    materializes it lazily, with provenance intact so children derive
    their triangle indexes instead of re-enumerating.
    """
    labels = csr.labels
    edge_u = csr.edge_u
    edge_v = csr.edge_v
    m = csr.num_edges
    freq_list = edge_frequency_list(csr, frequencies)
    alive, levels = decompose_cohesion_edges(csr, freq_list)
    carrier0: CSRGraph | list[Edge] | _PendingProjection | None = None
    if capture_carrier:
        if sum(alive) == m and not csr.has_isolated_vertices():
            carrier0 = csr
        else:
            carrier0 = _PendingProjection(csr, alive)
    decomposition = EdgeTrussDecomposition(
        pattern=pattern,
        frequencies={
            (labels[edge_u[e]], labels[edge_v[e]]): freq_list[e]
            for e in range(m)
            if alive[e]
        },
        carrier0=carrier0,
    )
    for beta, removed in levels:
        decomposition.levels.append(
            DecompositionLevel(
                beta,
                sorted(
                    (labels[edge_u[e]], labels[edge_v[e]]) for e in removed
                ),
            )
        )
    return decomposition


def covers_most_edges(num_positive: int, num_edges: int) -> bool:
    """The ≥90% frequency-coverage cutoff on *edges*: decompose over the
    unfiltered network CSR instead of projecting a subgraph. Shared by
    the route choice and :func:`warm_edge_network_triangles` so tuning it
    never desynchronizes the two."""
    return 10 * num_positive >= 9 * num_edges


def _probe_edge_frequencies(
    network: EdgeDatabaseNetwork,
    canonical: Pattern,
    base: CSRGraph,
    within,
) -> tuple[EdgeFrequencyMap, bytearray, int]:
    """Frequency-probe the edges of ``base`` flagged by ``within``.

    Returns ``(frequencies, mask, kept)`` where ``mask`` flags (in base
    edge-id space) the frequency-positive edges — for a masked carrier
    the result is the AND of the intersection mask and the frequency
    filter, so the caller's restricted decomposition graph is a single
    projection of the base (the Prop-5.3 fast path).
    """
    databases = network.databases
    labels = base.labels
    edge_u = base.edge_u
    edge_v = base.edge_v
    m = base.num_edges
    frequencies: EdgeFrequencyMap = {}
    mask = bytearray(m)
    kept = 0
    candidates = range(m) if within is None else compress(range(m), within)
    if len(canonical) == 1:
        # Single-item fast path (the whole first TC-Tree layer): read the
        # vertical index instead of scanning transactions per probe.
        item = canonical[0]
        for e in candidates:
            edge = (labels[edge_u[e]], labels[edge_v[e]])
            database = databases.get(edge)
            if database is None:
                continue
            f = database.item_frequency(item)
            if f > 0.0:
                mask[e] = 1
                kept += 1
                frequencies[edge] = f
        return frequencies, mask, kept
    for e in candidates:
        edge = (labels[edge_u[e]], labels[edge_v[e]])
        database = databases.get(edge)
        if database is None:
            continue
        f = database.frequency(canonical)
        if f > 0.0:
            mask[e] = 1
            kept += 1
            frequencies[edge] = f
    return frequencies, mask, kept


def decompose_edge_network_pattern(
    network: EdgeDatabaseNetwork,
    pattern: Pattern,
    carrier: GraphLike | MaskedCarrier | None = None,
    engine: str = "auto",
    capture_carrier: bool = False,
) -> EdgeTrussDecomposition:
    """Induce, peel at α = 0, decompose — one call.

    ``engine`` mirrors the vertex model: ``"auto"`` routes big
    int-labelled edge theme networks through the flat CSR engine,
    ``"csr"`` forces the engine, ``"legacy"`` forces the adjacency-set
    path — the parity oracle. A CSR ``carrier`` is *projected* down to
    its frequency-positive edges so the child theme network derives its
    triangle index from the carrier's chain instead of re-enumerating; a
    :class:`~repro.index.decomposition.MaskedCarrier` (the TC-Tree
    frontier's unmaterialized Prop-5.3 intersection) ANDs its edge mask
    into the frequency filter, so the decomposition graph is **one**
    projection of the base. Without a carrier the network CSR itself is
    the base: near-total coverage decomposes over it unfiltered (shared
    cached triangle index, the α = 0 peel prunes), sparser themes get
    one projection. The route choice never depends on the projection
    switch, keeping projection on/off builds bit-identical by
    construction.
    """
    from repro.edgenet.finder import maximal_edge_pattern_truss

    if engine not in ("auto", "csr", "legacy"):
        raise GraphError(f"unknown decomposition engine {engine!r}")
    if engine != "legacy" and isinstance(carrier, (CSRGraph, MaskedCarrier)):
        masked = isinstance(carrier, MaskedCarrier)
        base = carrier.base if masked else carrier
        frequencies, mask, kept = _probe_edge_frequencies(
            network, make_pattern(pattern), base,
            carrier.mask if masked else None,
        )
        if kept == 0:
            return EdgeTrussDecomposition(
                pattern=pattern, route="carrier-empty+none"
            )
        if engine == "csr" or kept >= EDGE_CSR_MIN_EDGES:
            decomposition = _decompose_edge_theme_csr(
                pattern, base.project(mask), frequencies,
                capture_carrier=capture_carrier,
            )
            decomposition.route = "carrier-projected+csr"
            return decomposition
        graph = Graph()
        for u, v in frequencies:
            graph.add_edge(u, v)
        graph_route = "carrier-small"
    elif engine != "legacy" and carrier is None and (
        csr_net := network.csr_graph()
    ) is not None:
        frequencies, mask, kept = _probe_edge_frequencies(
            network, make_pattern(pattern), csr_net, None
        )
        if kept == 0:
            return EdgeTrussDecomposition(
                pattern=pattern, route="net-empty+none"
            )
        if (
            kept >= CSR_NET_REUSE_MIN_EDGES
            and covers_most_edges(kept, csr_net.num_edges)
        ):
            # The theme spans most of the network: decompose over the
            # network CSR itself and let the α = 0 peel prune. A
            # zero-frequency edge weighs every triangle through it 0, so
            # it dies at α = 0 without perturbing any cohesion sum —
            # levels are bit-identical to the projected variant, and the
            # network's cached triangle index is shared by every caller.
            decomposition = _decompose_edge_theme_csr(
                pattern, csr_net, frequencies,
                capture_carrier=capture_carrier,
            )
            decomposition.route = "net-full+csr"
            return decomposition
        if engine == "csr" or kept >= EDGE_CSR_MIN_EDGES:
            decomposition = _decompose_edge_theme_csr(
                pattern, csr_net.project(mask), frequencies,
                capture_carrier=capture_carrier,
            )
            decomposition.route = "net-projected+csr"
            return decomposition
        graph = Graph()
        for u, v in frequencies:
            graph.add_edge(u, v)
        graph_route = "net-small"
    else:
        if isinstance(carrier, MaskedCarrier):
            carrier = carrier.materialize()
        graph, frequencies = induce_edge_theme_network(
            network, pattern, carrier=carrier
        )
        graph_route = "within" if carrier is not None else "induced"
        if engine == "csr" or (
            engine == "auto" and graph.num_edges >= EDGE_CSR_MIN_EDGES
        ):
            csr = as_csr(graph)
            if csr is not None:
                decomposition = _decompose_edge_theme_csr(
                    pattern, csr, frequencies,
                    capture_carrier=capture_carrier,
                )
                decomposition.route = f"{graph_route}+csr"
                return decomposition
            if engine == "csr":
                raise GraphError(
                    "graph is not CSR-eligible (non-int labels)"
                )
    truss, cohesion = maximal_edge_pattern_truss(graph, frequencies, 0.0)
    # Re-derive the cohesion table bound to the peeled graph copy so the
    # decomposition owns mutable state.
    work = truss.copy()
    table = edge_theme_cohesion_table(work, frequencies)
    decomposition = decompose_edge_truss(pattern, work, frequencies, table)
    decomposition.route = f"{graph_route}+legacy"
    return decomposition


# Seven return sites, one route counter: the registry decorator reads the
# ``route`` tag off whichever decomposition came back.
decompose_edge_network_pattern = count_routes(
    "edge", decompose_edge_network_pattern
)


def edge_layer1_costs(
    network: EdgeDatabaseNetwork, items: list[int]
) -> dict[int, float]:
    """Pre-layer-1 chunking cost proxy of the process-parallel build: the
    theme network of ``{s}`` is exactly the edges whose database mentions
    ``s``."""
    return {
        item: float(len(network.edges_containing_item(item)))
        for item in items
    }


def warm_edge_network_triangles(
    network: EdgeDatabaseNetwork, items: list[int]
) -> bool:
    """Pre-enumerate the network CSR's triangle index when layer 1 will
    amortize it; returns True when warming happened.

    The edge-model twin of
    :func:`repro.index.decomposition.warm_network_triangles`: with
    projection on, every layer-1 theme graph that projects off the
    network CSR derives its index from the network's, and the expected
    enumeration cost of item ``s``'s theme subgraph scales like its
    *edge* share squared. With projection off only the covers-most
    regime reuses the network index.
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
    m = csr.num_edges
    if projection_enabled():
        load = 0.0
        for item in items:
            share = len(network.edges_containing_item(item)) / m
            load += share * share
            if load >= 1.0:
                triangle_index(csr)
                return True
        return False
    for item in items:
        if covers_most_edges(len(network.edges_containing_item(item)), m):
            triangle_index(csr)
            return True
    return False
