"""TC-Tree query answering (Algorithm 5).

A query is a pair ``(q, α_q)``: the answer is every non-empty
``C*_p(α_q)`` with ``p ⊆ q``. Traversal is breadth-first with two prunes:

- an item outside ``q`` prunes the whole subtree (no descendant pattern
  can be a sub-pattern of ``q``);
- an empty ``C*_p(α_q)`` prunes the subtree (Proposition 5.2 — no
  super-pattern can survive a threshold its sub-pattern failed). The
  node's precomputed prune-α decides this before anything is decoded.

:func:`query_tc_tree` is the only implementation of this walk. It runs
on any index with the per-node calls ``root``, ``children``, ``item``,
``prune_alpha`` and ``decode``: the in-memory
:class:`~repro.index.tctree.TCTree` (and so the edge tree), a
:class:`~repro.serve.snapshot.TCTreeSnapshot`, or a serving generation
of :class:`~repro.serve.engine.IndexedWarehouse`, whose ``decode`` goes
through the carrier cache. Engine == tree therefore holds by
construction; ``tests/index/test_query_reference.py`` checks the walk
against an independent, traversal-free reference on every backend.

The paper evaluates two modes (Figure 5): QBA fixes ``q = S`` and sweeps
``α_q``; QBP fixes ``α_q = 0`` and sweeps the query pattern length.
"""

from __future__ import annotations

import math
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro._ordering import Pattern, make_pattern
from repro.core.communities import ThemeCommunity, extract_theme_communities
from repro.core.mptd import COHESION_TOLERANCE
from repro.core.truss import PatternTruss
from repro.errors import TCIndexError
from repro.index.tctree import TCTree


@dataclass
class QueryAnswer:
    """Result of one TC-Tree query."""

    query_pattern: Pattern | None  # None means q = S (all items)
    alpha: float
    trusses: list[PatternTruss] = field(default_factory=list)
    retrieved_nodes: int = 0  # RN in Figure 5
    visited_nodes: int = 0  # nodes touched, including pruned ones
    #: Serving generation the answer was computed against (stamped by
    #: :class:`~repro.serve.engine.IndexedWarehouse`; ``None`` on direct
    #: tree queries). Every truss in the answer comes from this one
    #: generation — the hot-swap tier's no-torn-reads witness.
    generation: int | None = None
    #: Visited nodes skipped by the item prune and by the prune-α test
    #: (Proposition 5.2), and the seconds spent decoding and rebuilding
    #: the trusses of the rest — the engine's ``query_breakdown``.
    pruned_pattern: int = field(default=0, init=False)
    pruned_alpha: int = field(default=0, init=False)
    decode_seconds: float = field(default=0.0, init=False, compare=False)

    @property
    def num_trusses(self) -> int:
        return len(self.trusses)

    def patterns(self) -> list[Pattern]:
        return sorted(t.pattern for t in self.trusses)

    def communities(self) -> list[ThemeCommunity]:
        """Theme communities of all retrieved trusses (Definition 3.5)."""
        return extract_theme_communities(self.trusses)

    def to_payload(self) -> dict:
        """JSON-serializable form (the serving layer's wire format)."""
        payload: dict = {
            "query_pattern": (
                None if self.query_pattern is None
                else list(self.query_pattern)
            ),
            "alpha": self.alpha,
            "retrieved_nodes": self.retrieved_nodes,
            "visited_nodes": self.visited_nodes,
            "num_trusses": self.num_trusses,
            "trusses": [
                {
                    "pattern": list(truss.pattern),
                    "num_vertices": truss.num_vertices,
                    "num_edges": truss.num_edges,
                    "communities": [
                        sorted(component)
                        for component in truss.communities()
                    ],
                }
                for truss in self.trusses
            ],
        }
        if self.generation is not None:
            payload["generation"] = self.generation
        return payload


def query_tc_tree(
    tree: TCTree,
    pattern: Iterable[int] | None = None,
    alpha: float = 0.0,
) -> QueryAnswer:
    """Answer query ``(q, α_q)`` on a TC-Tree (Algorithm 5).

    ``pattern=None`` queries with ``q = S`` (every item allowed).
    ``tree`` is any index with the per-node calls listed in the module
    docstring. A node is pruned by Proposition 5.2 when its prune-α is
    at most ``α + COHESION_TOLERANCE`` — the emptiness test of
    ``edges_at`` — so only retrieved nodes are decoded.
    """
    if not 0.0 <= alpha < math.inf:
        raise TCIndexError(f"alpha must be finite and >= 0, got {alpha}")
    query_pattern = None if pattern is None else make_pattern(pattern)
    query_items = None if query_pattern is None else set(query_pattern)
    answer = QueryAnswer(query_pattern=query_pattern, alpha=alpha)
    bound = alpha + COHESION_TOLERANCE

    children, item, prune_alpha, decode = (
        tree.children, tree.item, tree.prune_alpha, tree.decode
    )
    queue = deque([tree.root])
    while queue:
        for child in children(queue.popleft()):
            # A touched node counts as visited even when a prune
            # discards it — the Figure 5 RN/VN accounting measures nodes
            # touched, including pruned ones.
            answer.visited_nodes += 1
            if query_items is not None and item(child) not in query_items:
                answer.pruned_pattern += 1
                continue  # prune subtree: s_{n_c} ∉ q
            if not prune_alpha(child) > bound:
                answer.pruned_alpha += 1
                continue  # prune subtree: Proposition 5.2
            start = time.perf_counter()
            truss = decode(child).truss_at(alpha)
            answer.decode_seconds += time.perf_counter() - start
            if truss.is_empty():
                continue  # a snapshot whose TOC disagrees with its payload
            answer.trusses.append(truss)
            answer.retrieved_nodes += 1
            queue.append(child)
    return answer


def query_by_alpha(tree: TCTree, alpha: float) -> QueryAnswer:
    """QBA: all themes, threshold ``α_q`` (Figure 5 a-d)."""
    return query_tc_tree(tree, pattern=None, alpha=alpha)


def query_by_pattern(
    tree: TCTree, pattern: Iterable[int]
) -> QueryAnswer:
    """QBP: sub-patterns of ``q``, threshold 0 (Figure 5 e-h)."""
    return query_tc_tree(tree, pattern=pattern, alpha=0.0)
