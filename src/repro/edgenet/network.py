"""The edge database network container.

Mirrors :class:`~repro.network.dbnetwork.DatabaseNetwork` with the
transaction database attached to each edge instead of each vertex.
Edges are keyed canonically (sorted endpoint pair).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro._ordering import Pattern, make_pattern
from repro.errors import DatabaseError, GraphError
from repro.graphs.csr import CSRGraph, as_csr
from repro.graphs.graph import Edge, Graph, edge_key
from repro.txdb.database import TransactionDatabase


class EdgeDatabaseNetwork:
    """An undirected graph whose edges carry transaction databases."""

    #: Registered tree model this network builds (see
    #: :func:`repro.index.tctree.build_tc_tree`).
    kind = "edge"

    def __init__(
        self,
        graph: Graph | None = None,
        databases: dict[Edge, TransactionDatabase] | None = None,
        vertex_labels: dict[int, Hashable] | None = None,
        item_labels: dict[int, Hashable] | None = None,
    ) -> None:
        self.graph = graph if graph is not None else Graph()
        self.databases: dict[Edge, TransactionDatabase] = {}
        self.vertex_labels = vertex_labels or {}
        self.item_labels = item_labels or {}
        self._csr_cache: tuple[tuple[int, int], CSRGraph | None] | None = None
        for edge, database in (databases or {}).items():
            key = edge_key(*edge)
            if not self.graph.has_edge(*key):
                raise GraphError(
                    f"database attached to unknown edge {edge!r}"
                )
            self.databases[key] = database

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(
        self,
        u: int,
        v: int,
        database: TransactionDatabase | None = None,
    ) -> None:
        self.graph.add_edge(u, v)
        if database is not None:
            self.databases[edge_key(u, v)] = database

    def add_transaction(self, u: int, v: int, items: Iterable[int]) -> None:
        """Append one transaction to an edge's database, creating both the
        edge and its database on first use."""
        self.graph.add_edge(u, v)
        key = edge_key(u, v)
        database = self.databases.get(key)
        if database is None:
            database = TransactionDatabase()
            self.databases[key] = database
        database.add_transaction(items)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def csr_graph(self) -> CSRGraph | None:
        """Cached CSR view of the topology (None for non-int vertices).

        Same contract as :meth:`DatabaseNetwork.csr_graph`: the cache is
        keyed on ``(num_vertices, num_edges)`` and the construction API
        is grow-only, so any topology mutation invalidates it.
        """
        key = (self.graph.num_vertices, self.graph.num_edges)
        cached = self._csr_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        csr = as_csr(self.graph)
        self._csr_cache = (key, csr)
        return csr

    def edges_containing_item(self, item: int) -> list[Edge]:
        """Edges whose database mentions ``item`` at least once.

        The edge-model analogue of
        :meth:`DatabaseNetwork.vertices_containing_item`: the theme
        network of ``{item}`` is exactly this edge set (minus the edges
        whose frequency rounds to zero), so its size drives the parallel
        build's cost balancing and the triangle-warming predicate.
        """
        return [
            edge
            for edge, database in self.databases.items()
            if database.contains_item(item)
        ]

    def database(self, u: int, v: int) -> TransactionDatabase:
        try:
            return self.databases[edge_key(u, v)]
        except KeyError as exc:
            raise DatabaseError(
                f"edge ({u!r}, {v!r}) has no transaction database"
            ) from exc

    def frequency(self, u: int, v: int, pattern: Iterable[int]) -> float:
        """``f_e(p)`` — 0.0 when the edge has no database."""
        database = self.databases.get(edge_key(u, v))
        if database is None:
            return 0.0
        return database.frequency(pattern)

    def item_universe(self) -> list[int]:
        """All items appearing in any edge database (the universe S)."""
        universe: set[int] = set()
        for database in self.databases.values():
            universe |= database.items()
        return sorted(universe)

    def pattern_labels(self, pattern: Pattern) -> tuple[Hashable, ...]:
        return tuple(
            self.item_labels.get(i, i) for i in make_pattern(pattern)
        )

    def __repr__(self) -> str:
        return (
            f"EdgeDatabaseNetwork(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, databases={len(self.databases)})"
        )
