"""Lazy-loading warehouse query engine (:class:`IndexedWarehouse`).

Answers ``(q, α)`` queries against a binary snapshot without ever
materializing the whole tree, or against an in-memory tree published by
the live tier. Both run the one Algorithm-5 walk,
:func:`repro.index.query.query_tc_tree`, over the served
:class:`ServingGeneration`: item-disjoint and empty-truss subtrees
(Proposition 5.2) are pruned from each node's item and prune-α alone,
and a snapshot node's decomposition is decoded — through a thread-safe
LRU carrier cache — only when the node is actually retrieved.

Answers equal ``query_tc_tree`` on the in-memory tree by construction:
it is the same code. ``tests/index/test_query_reference.py`` checks the
walk on every backend against an independent reference. A JSON
warehouse document opens through the same API as the compatible
fallback (fully decoded at load, as before).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro._ordering import make_pattern
from repro.core.communities import ThemeCommunity
from repro.errors import TCIndexError
from repro.index.decomposition import TrussDecomposition
from repro.index.query import QueryAnswer, query_tc_tree
from repro.index.tctree import TCTree
from repro.obs.metrics import default_registry
from repro.search.topk import Score, default_score, top_k_communities
from repro.serve.snapshot import TCTreeSnapshot, is_snapshot_file

#: Default capacity of the decoded-carrier LRU cache, in nodes. Sized so
#: a warm serving mix keeps every hot subtree decoded while a worst-case
#: entry (levels + edges of one node) stays far below the snapshot size.
DEFAULT_CACHE_SIZE = 1024

QuerySpec = tuple[Sequence[int] | None, float]


class CarrierCache:
    """Thread-safe LRU map from snapshot node index to its decomposition.

    Decoding happens outside the lock (it is pure and idempotent), so a
    rare concurrent miss on the same node costs one duplicate decode
    rather than serializing every reader behind the buffer parse.

    The hit/miss counters are private and every read goes through the
    cache lock, so a ``stats()`` taken under concurrent ``get``/``put``
    traffic is a consistent point-in-time view (hits + misses == lookups
    at that instant) rather than a torn pair of mid-update values.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise TCIndexError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock
        self._entries: OrderedDict[int, TrussDecomposition] = (
            OrderedDict()
        )  # guarded-by: self._lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def get(self, key: int) -> TrussDecomposition | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: int, value: TrussDecomposition) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
            }


class ServingGeneration:
    """One immutable published generation: backend + its carrier cache.

    Everything a query touches hangs off this one object — the snapshot
    (or tree) and the decoded-carrier cache — so a reader that captured
    a generation reference sees a fully consistent world no matter how
    many times the engine hot-swaps underneath it, and cache entries can
    never leak across generations (each generation owns a fresh cache).

    ``index`` is whichever backend was given. The generation answers the
    per-node calls of :func:`~repro.index.query.query_tc_tree`, bound
    once to ``index``, so the one walk serves both backends; only a
    snapshot's ``decode`` goes through the carrier cache (a tree node
    already holds its decomposition).
    """

    __slots__ = (
        "number", "snapshot", "tree", "index", "cache", "snapshot_bytes",
        "root", "children", "item", "prune_alpha", "decode",
    )

    def __init__(
        self,
        number: int,
        snapshot: TCTreeSnapshot | None = None,
        tree: TCTree | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if (snapshot is None) == (tree is None):
            raise TCIndexError(
                "exactly one of snapshot/tree must be given"
            )
        self.number = number
        self.snapshot = snapshot
        self.tree = tree
        index = snapshot if snapshot is not None else tree
        self.index = index
        self.root = index.root
        self.children = index.children
        self.item = index.item
        self.prune_alpha = index.prune_alpha
        self.decode = tree.decode if tree is not None else self._cached_decode
        self.cache = CarrierCache(cache_size)
        # Captured once: the file may be replaced or deleted while the
        # live mmap keeps serving, so /stats must not re-stat it.
        self.snapshot_bytes = (
            snapshot.path.stat().st_size
            if snapshot is not None and snapshot.path is not None
            else None
        )

    @property
    def backend(self) -> str:
        return "snapshot" if self.snapshot is not None else "memory"

    @property
    def kind(self) -> str:
        return getattr(self.index, "kind", "vertex")

    def _cached_decode(self, node: int) -> TrussDecomposition:
        cached = self.cache.get(node)
        if cached is None:
            cached = self.snapshot.decode(node)  # type: ignore[union-attr]
            self.cache.put(node, cached)
        return cached

    def close(self) -> None:
        if self.snapshot is not None:
            self.snapshot.close()


class IndexedWarehouse:
    """Read-optimized warehouse facade over a snapshot (or JSON fallback).

    One instance is safe to share across server threads: the snapshot
    buffer is immutable, the carrier cache locks internally, and query
    state is per-call.

    The serving state lives in one :class:`ServingGeneration` reference:
    every query captures it exactly once up front, and :meth:`swap`
    publishes a new generation as a single reference assignment — an
    atomic store under the GIL — so in-flight readers finish on the old
    generation while new ones see the new, and no read can ever observe
    half of each (the hot-swap tier's no-torn-reads guarantee). Retired
    generations stay referenced (their mmaps must outlive in-flight
    readers) and are closed with the engine.
    """

    def __init__(
        self,
        snapshot: TCTreeSnapshot | None = None,
        tree: TCTree | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self._cache_size = cache_size
        #: Engine generation, bumped by :meth:`swap` under a live server;
        #: surfaced by ``/healthz`` so a load balancer can tell a
        #: restarted/reloaded engine from a stale one.
        self._gen = ServingGeneration(
            1, snapshot=snapshot, tree=tree, cache_size=cache_size
        )
        self._retired: list[ServingGeneration] = (
            []
        )  # guarded-by: self._swap_lock
        self._swap_lock = threading.Lock()
        self._count_lock = threading.Lock()
        # Aggregate per-query breakdown, over both backends: where query
        # wall time goes — walk + prunes vs decode + truss rebuild — and
        # the node-level traversal counters behind it. Cumulative across
        # generations (it describes the engine, not one index); its
        # ``queries`` is the engine's queries-served count.
        self._qstats = {  # guarded-by: self._count_lock
            "queries": 0,
            "visited_nodes": 0,
            "pruned_pattern": 0,
            "pruned_alpha": 0,
            "retrieved_nodes": 0,
            "toc_seconds": 0.0,
            "decode_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> "IndexedWarehouse":
        """Open a binary snapshot, or a JSON document as the fallback."""
        path = Path(path)
        if is_snapshot_file(path):
            return cls(
                snapshot=TCTreeSnapshot.open(path), cache_size=cache_size
            )
        from repro.index.warehouse import ThemeCommunityWarehouse

        return cls(
            tree=ThemeCommunityWarehouse.load(path).tree,
            cache_size=cache_size,
        )

    def close(self) -> None:
        with self._swap_lock:
            retired, self._retired = self._retired, []
        for generation in retired:
            generation.close()
        self._gen.close()

    def __enter__(self) -> "IndexedWarehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The currently served generation number (starts at 1)."""
        return self._gen.number

    @property
    def retired_generations(self) -> int:
        with self._swap_lock:
            return len(self._retired)

    def swap(
        self,
        *,
        snapshot: TCTreeSnapshot | None = None,
        tree: TCTree | None = None,
        number: int | None = None,
    ) -> int:
        """Publish a new serving generation; returns its number.

        The new generation must serve the same tree kind (readers may
        rely on the model never changing under them) and carry a higher
        number (``number=None`` bumps by one). Publication is a single
        reference assignment: in-flight queries that already captured the
        old generation finish on it untouched — its snapshot is retired,
        not closed, until the engine itself closes.
        """
        with self._swap_lock:
            old = self._gen
            generation = ServingGeneration(
                number if number is not None else old.number + 1,
                snapshot=snapshot,
                tree=tree,
                cache_size=self._cache_size,
            )
            if generation.number <= old.number:
                generation.close()
                raise TCIndexError(
                    f"generation {generation.number} does not advance "
                    f"the served generation {old.number}"
                )
            if generation.kind != old.kind:
                generation.close()
                raise TCIndexError(
                    f"cannot swap a {generation.kind!r} index under a "
                    f"{old.kind!r} engine"
                )
            self._retired.append(old)
            # The publication point: one atomic reference store.
            self._gen = generation
        default_registry().counter(
            "repro_engine_swaps_total",
            help="Serving generations published by hot swap.",
        ).inc()
        return generation.number

    def materialize_tree(self):
        """The current generation's index as an in-memory tree.

        The writer-side entry point of the live tier: overlays apply to
        a materialized tree, not to the mmap. On the memory backend this
        is the served tree itself (treat it as immutable — apply-delta
        clones before mutating).
        """
        generation = self._gen
        if generation.tree is not None:
            return generation.tree
        return generation.snapshot.materialize_tree()

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return self._gen.backend

    @property
    def kind(self) -> str:
        """Tree model served: ``"vertex"`` or ``"edge"``.

        Snapshots carry it in their header flags (REPROTCS v2 payload
        kind); in-memory trees tag themselves via their class. Queries
        dispatch transparently — edge decompositions answer the same
        ``truss_at`` contract — so the kind is informational (the CLI's
        ``--kind`` guard and ``/stats``).
        """
        return self._gen.kind

    @property
    def num_indexed_trusses(self) -> int:
        return self._gen.index.num_nodes

    @property
    def num_items(self) -> int:
        return self._gen.index.num_items

    def patterns(self) -> list:
        return self._gen.index.patterns()

    def alpha_range(self) -> tuple[float, float]:
        """The non-trivial query range ``[0, α*)`` — TOC-only on snapshots."""
        return (0.0, self._gen.index.max_alpha())

    # ------------------------------------------------------------------
    def query(
        self,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
    ) -> QueryAnswer:
        """Answer ``(q, α_q)`` — Algorithm 5 over the served generation."""
        # Captured exactly once: everything below reads this one
        # generation, so a concurrent swap cannot tear the answer.
        generation = self._gen
        start = time.perf_counter()
        try:
            answer = query_tc_tree(generation, pattern=pattern, alpha=alpha)
        finally:
            total = time.perf_counter() - start
            default_registry().histogram(
                "repro_query_seconds",
                help="End-to-end warehouse query latency.",
                backend=generation.backend,
            ).observe(total)
        answer.generation = generation.number
        with self._count_lock:
            qstats = self._qstats
            qstats["queries"] += 1
            qstats["visited_nodes"] += answer.visited_nodes
            qstats["pruned_pattern"] += answer.pruned_pattern
            qstats["pruned_alpha"] += answer.pruned_alpha
            qstats["retrieved_nodes"] += answer.retrieved_nodes
            qstats["toc_seconds"] += total - answer.decode_seconds
            qstats["decode_seconds"] += answer.decode_seconds
        default_registry().histogram(
            "repro_query_decode_seconds",
            help="Decode and truss-rebuild share of query latency.",
        ).observe(answer.decode_seconds)
        return answer

    def query_batch(
        self, queries: Iterable[QuerySpec]
    ) -> list[QueryAnswer]:
        """Answer many ``(pattern, alpha)`` pairs against one warm cache.

        Answers come back in input order; the shared carrier cache makes
        the batch asymptotically one decode per distinct retrieved node.
        """
        return [
            self.query(pattern=pattern, alpha=alpha)
            for pattern, alpha in queries
        ]

    def top_k(
        self,
        k: int,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
        score: Score = default_score,
        min_size: int = 3,
    ) -> list[ThemeCommunity]:
        """The ``k`` best-scoring communities of a query answer."""
        return top_k_communities(
            self.query(pattern=pattern, alpha=alpha),
            k,
            score=score,
            min_size=min_size,
        )

    def theme_strength(self, pattern: Iterable[int]) -> float:
        """``max_alpha`` of the indexed node of ``pattern`` (0.0 if none).

        On the snapshot backend this is a TOC lookup plus one cached
        decode — after a query retrieved the node, the carrier cache
        already holds its decomposition, so ranking reads are hits.
        """
        generation = self._gen
        node = generation.index.find_node(make_pattern(pattern))
        if node is None:
            return 0.0
        return generation.decode(node).max_alpha

    def search(
        self,
        query_vertices: Iterable[int],
        query_attributes: Iterable[int],
        alpha: float = 0.0,
        limit: int | None = None,
    ):
        """Attributed community search over this warehouse (ATC-style)."""
        from repro.search.attributed import attributed_community_search

        return attributed_community_search(
            self,
            query_vertices,
            query_attributes,
            alpha=alpha,
            limit=limit,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Operational counters for the ``/stats`` endpoint."""
        from repro.engine import registry

        generation = self._gen
        with self._count_lock:
            breakdown = dict(self._qstats)
        info: dict = {
            "backend": generation.backend,
            "kind": generation.kind,
            "model": registry.get_model(generation.kind).display,
            "generation": generation.number,
            "retired_generations": self.retired_generations,
            "indexed_trusses": self.num_indexed_trusses,
            "num_items": self.num_items,
            "queries_served": breakdown["queries"],
            "cache": generation.cache.stats(),
            "query_breakdown": breakdown,
        }
        snapshot = generation.snapshot
        if snapshot is not None and snapshot.path is not None:
            info["snapshot_path"] = str(snapshot.path)
            info["snapshot_bytes"] = generation.snapshot_bytes
        return info

    def __repr__(self) -> str:
        return (
            f"IndexedWarehouse(backend={self.backend!r}, "
            f"trusses={self.num_indexed_trusses})"
        )


__all__ = [
    "IndexedWarehouse",
    "CarrierCache",
    "ServingGeneration",
    "DEFAULT_CACHE_SIZE",
]
