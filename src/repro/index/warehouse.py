"""The theme-community data warehouse (Section 6 motivation).

The paper advocates building a warehouse of decomposed maximal pattern
trusses once, then answering arbitrary ``(q, α)`` queries from the index.
:class:`ThemeCommunityWarehouse` packages that workflow: build (or load) a
TC-Tree, query it, and persist it as JSON.

Persistence format (version 1)::

    {
      "format": "repro-tctree",
      "version": 1,
      "num_items": 42,
      "nodes": [
        {"pattern": [3, 7],
         "frequencies": {"0": 0.5, ...},
         "levels": [[alpha, [[u, v], ...]], ...]},
        ...
      ]
    }

Nodes are listed parent-before-child; the tree shape is implied by the
patterns (each node's parent is its pattern minus the last item).

JSON is the *interchange* format. For serving-grade load times use the
binary snapshot format of :mod:`repro.serve.snapshot`
(:meth:`ThemeCommunityWarehouse.save_snapshot`, ``repro snapshot``):
flat sections plus a per-node offset table, decodable node-by-node by
the lazy query engine (:class:`repro.serve.engine.IndexedWarehouse`).
:meth:`ThemeCommunityWarehouse.load` sniffs the magic bytes and accepts
both formats.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from repro._ordering import Pattern
from repro.core.communities import ThemeCommunity
from repro.errors import TCIndexError
from repro.index.decomposition import DecompositionLevel, TrussDecomposition
from repro.index.query import QueryAnswer, query_tc_tree
from repro.index.tcnode import TCNode
from repro.index.tctree import TCTree, build_tc_tree
from repro.network.dbnetwork import DatabaseNetwork

_FORMAT = "repro-tctree"
_VERSION = 1


class ThemeCommunityWarehouse:
    """Build-once / query-many facade over a TC-Tree."""

    def __init__(self, tree: TCTree) -> None:
        self.tree = tree

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: DatabaseNetwork,
        max_length: int | None = None,
        workers: int = 1,
        backend: str = "process",
        trace=None,
    ) -> "ThemeCommunityWarehouse":
        """Index every maximal pattern truss of ``network``.

        ``workers``/``backend``/``trace`` select the build parallelism and
        optional span tracing exactly as in
        :func:`~repro.index.tctree.build_tc_tree`.
        """
        return cls(
            build_tc_tree(
                network, max_length=max_length, workers=workers,
                backend=backend, trace=trace,
            )
        )

    # ------------------------------------------------------------------
    def query(
        self,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
    ) -> QueryAnswer:
        """Answer ``(q, α_q)``; see :func:`repro.index.query.query_tc_tree`."""
        return query_tc_tree(self.tree, pattern=pattern, alpha=alpha)

    def communities(
        self,
        pattern: Iterable[int] | None = None,
        alpha: float = 0.0,
        min_size: int = 3,
    ) -> list[ThemeCommunity]:
        """Theme communities matching a query, largest-first."""
        return [
            c
            for c in self.query(pattern, alpha).communities()
            if c.size >= min_size
        ]

    @property
    def num_indexed_trusses(self) -> int:
        return self.tree.num_nodes

    def alpha_range(self) -> tuple[float, float]:
        """The non-trivial query range ``[0, α*)`` over all themes."""
        return (0.0, self.tree.max_alpha())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        nodes = []
        for node in self.tree.iter_nodes():
            decomposition = node.decomposition
            assert decomposition is not None  # non-root nodes always have one
            nodes.append(
                {
                    "pattern": list(node.pattern),
                    "frequencies": {
                        str(v): f
                        for v, f in sorted(decomposition.frequencies.items())
                    },
                    "levels": [
                        [level.alpha, [list(e) for e in level.removed_edges]]
                        for level in decomposition.levels
                    ],
                }
            )
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "num_items": self.tree.num_items,
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ThemeCommunityWarehouse":
        if document.get("format") != _FORMAT:
            raise TCIndexError(
                f"not a {_FORMAT} document: format={document.get('format')!r}"
            )
        if document.get("version") != _VERSION:
            raise TCIndexError(
                f"unsupported version {document.get('version')!r}"
            )
        root = TCNode(None, (), None)
        nodes_by_pattern: dict[Pattern, TCNode] = {}
        for entry in document["nodes"]:
            pattern: Pattern = tuple(entry["pattern"])
            if not pattern:
                raise TCIndexError("node with empty pattern")
            if pattern in nodes_by_pattern:
                # A duplicate entry would add_child twice and silently
                # build a malformed tree (two siblings with one item).
                raise TCIndexError(f"duplicate node for pattern {pattern}")
            decomposition = TrussDecomposition(
                pattern=pattern,
                levels=[
                    DecompositionLevel(
                        alpha, [(int(u), int(v)) for u, v in edges]
                    )
                    for alpha, edges in entry["levels"]
                ],
                frequencies={
                    int(v): f for v, f in entry["frequencies"].items()
                },
            )
            node = TCNode(pattern[-1], pattern, decomposition)
            nodes_by_pattern[pattern] = node
            parent_pattern = pattern[:-1]
            parent = (
                root if not parent_pattern
                else nodes_by_pattern.get(parent_pattern)
            )
            if parent is None:
                raise TCIndexError(
                    f"node {pattern} appears before its parent "
                    f"{parent_pattern}"
                )
            parent.add_child(node)
        return cls(TCTree(root, num_items=int(document["num_items"])))

    def save(self, path: str | Path) -> None:
        """Write the JSON interchange document."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    def save_snapshot(self, path: str | Path) -> int:
        """Write the binary serving snapshot; returns its byte size.

        See :mod:`repro.serve.snapshot` for the format. Prefer this for
        anything the query engine or ``repro serve`` will load.
        """
        from repro.serve.snapshot import write_snapshot

        return write_snapshot(self.tree, path)

    @classmethod
    def load(cls, path: str | Path) -> "ThemeCommunityWarehouse":
        """Load either persistence format (sniffed by magic bytes).

        Binary snapshots are fully materialized here; use
        :class:`repro.serve.engine.IndexedWarehouse` to query one lazily.
        """
        from repro.serve.snapshot import TCTreeSnapshot, is_snapshot_file

        path = Path(path)
        if is_snapshot_file(path):
            with TCTreeSnapshot.open(path) as snapshot:
                if snapshot.kind != "vertex":
                    raise TCIndexError(
                        f"{snapshot.kind} snapshots hold no vertex "
                        "warehouse; use TCTreeSnapshot.materialize_tree() "
                        "or the lazy query engine"
                    )
                return cls(snapshot.materialize_tree())
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TCIndexError(f"invalid JSON in {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise TCIndexError(
                f"{path} is neither a snapshot nor a JSON document"
            ) from exc
        return cls.from_dict(document)
