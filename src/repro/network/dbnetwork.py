"""The :class:`DatabaseNetwork` container.

Internally vertices and items are dense integers for speed; the container
keeps optional label maps so applications can use human-readable vertex
names (authors, users) and item names (keywords, places). All mining
algorithms operate on the integer view.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro._ordering import Pattern, make_pattern
from repro.errors import DatabaseError, GraphError
from repro.graphs.csr import CSRGraph, as_csr
from repro.graphs.graph import Graph
from repro.txdb.database import TransactionDatabase


class DatabaseNetwork:
    """An undirected graph whose vertices carry transaction databases.

    Use :class:`~repro.network.builder.DatabaseNetworkBuilder` to construct
    one from labelled data; construct directly when vertices/items are
    already dense integers.
    """

    #: Registered tree model this network builds (see
    #: :func:`repro.index.tctree.build_tc_tree`).
    kind = "vertex"

    def __init__(
        self,
        graph: Graph | None = None,
        databases: dict[int, TransactionDatabase] | None = None,
        vertex_labels: dict[int, Hashable] | None = None,
        item_labels: dict[int, Hashable] | None = None,
    ) -> None:
        self.graph = graph if graph is not None else Graph()
        self.databases: dict[int, TransactionDatabase] = databases or {}
        self.vertex_labels: dict[int, Hashable] = vertex_labels or {}
        self.item_labels: dict[int, Hashable] = item_labels or {}
        self._csr_cache: tuple[tuple[int, int], CSRGraph | None] | None = None
        for v in self.databases:
            if v not in self.graph:
                raise GraphError(
                    f"database attached to unknown vertex {v!r}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        vertex: int,
        database: TransactionDatabase | None = None,
    ) -> None:
        self.graph.add_vertex(vertex)
        if database is not None:
            self.databases[vertex] = database

    def add_edge(self, u: int, v: int) -> None:
        self.graph.add_edge(u, v)

    def set_database(self, vertex: int, database: TransactionDatabase) -> None:
        if vertex not in self.graph:
            raise GraphError(f"vertex {vertex!r} not in network")
        self.databases[vertex] = database

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

        The cache is keyed on ``(num_vertices, num_edges)``; the network's
        construction API is grow-only, so any topology mutation changes
        the counts and invalidates it.
        """
        key = (self.graph.num_vertices, self.graph.num_edges)
        cached = self._csr_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        csr = as_csr(self.graph)
        self._csr_cache = (key, csr)
        return csr

    def database(self, vertex: int) -> TransactionDatabase:
        try:
            return self.databases[vertex]
        except KeyError as exc:
            raise DatabaseError(
                f"vertex {vertex!r} has no transaction database"
            ) from exc

    def frequency(self, vertex: int, pattern: Iterable[int]) -> float:
        """``f_i(p)`` — 0.0 when the vertex has no database."""
        database = self.databases.get(vertex)
        if database is None:
            return 0.0
        return database.frequency(pattern)

    def item_universe(self) -> list[int]:
        """Sorted list of all items appearing in any vertex database (S)."""
        universe: set[int] = set()
        for database in self.databases.values():
            universe |= database.items()
        return sorted(universe)

    def vertices_containing_item(self, item: int) -> list[int]:
        """Vertices whose database mentions ``item`` at least once."""
        return [
            v
            for v, database in self.databases.items()
            if database.contains_item(item)
        ]

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def vertex_label(self, vertex: int) -> Hashable:
        return self.vertex_labels.get(vertex, vertex)

    def item_label(self, item: int) -> Hashable:
        return self.item_labels.get(item, item)

    def pattern_labels(self, pattern: Pattern) -> tuple[Hashable, ...]:
        """Human-readable spelling of a pattern."""
        return tuple(self.item_label(i) for i in make_pattern(pattern))

    # ------------------------------------------------------------------
    # derived networks
    # ------------------------------------------------------------------
    def subnetwork(self, vertices: Iterable[int]) -> "DatabaseNetwork":
        """Vertex-induced sub-network sharing the original databases.

        Databases are shared (not copied): mining never mutates them, and
        sharing keeps BFS sampling cheap.
        """
        keep = set(vertices)
        graph = self.graph.subgraph(keep)
        databases = {
            v: db for v, db in self.databases.items() if v in keep
        }
        return DatabaseNetwork(
            graph,
            databases,
            vertex_labels=self.vertex_labels,
            item_labels=self.item_labels,
        )

    def edge_subnetwork(
        self, edges: Iterable[tuple[int, int]]
    ) -> "DatabaseNetwork":
        """Edge-induced sub-network sharing the original databases."""
        graph = self.graph.edge_subgraph(edges)
        databases = {
            v: self.databases[v] for v in graph if v in self.databases
        }
        return DatabaseNetwork(
            graph,
            databases,
            vertex_labels=self.vertex_labels,
            item_labels=self.item_labels,
        )

    def __repr__(self) -> str:
        return (
            f"DatabaseNetwork(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, "
            f"databases={len(self.databases)})"
        )
