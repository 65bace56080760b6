"""Incremental TC-Tree maintenance under transaction-stream deltas.

Re-indexing from scratch after every change wastes almost all of the
build: a transaction delta against one vertex (or edge) can only change
the theme networks of patterns drawn from that target's items — every
other database's frequencies are untouched, so every other theme network
(and its maximal pattern truss) is bit-for-bit identical. This is the
Proposition 5.3 locality argument run in reverse: the carrier of a
pattern is built from layer-1 intersections, so a pattern avoiding every
affected item has an unchanged carrier chain all the way down.

:class:`Delta` describes one transaction-level change — ``insert``,
``delete``, or ``modify`` against a vertex (int target) or an edge
(canonical pair target). :func:`apply_deltas` validates a whole stream
up front (atomicity: a bad delta raises :class:`TCIndexError` before the
network is touched), applies it, and rebuilds only the affected
subtrees by handing the surviving decompositions to the builder's
``reuse`` hook. The eager full rebuild stays available as the parity
oracle (``mode="full"``), and ``mode="auto"`` routes between the two
through the registry's cutover machinery — when nearly the whole item
universe is affected, scanning the old tree for reusable work costs more
than it saves.

Caveat: because inserts and deletes change the frequency denominator,
*all* patterns over a target's items (old and new) are treated as
affected, not just the patterns inside the changed transactions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro._ordering import Pattern
from repro.engine import registry
from repro.errors import TCIndexError
from repro.graphs.graph import edge_key
from repro.index.decomposition import TrussDecomposition
from repro.index.tctree import TCTree, build_tc_tree
from repro.network.dbnetwork import DatabaseNetwork
from repro.txdb.database import TransactionDatabase

#: ``mode="auto"`` cutover: when the affected items cover at least this
#: fraction of the item universe, route to a full rebuild — almost
#: nothing is reusable, so the old-tree scan and reuse-dict probing are
#: pure overhead. Swept by ``repro bench tune-cutovers`` (report-only: a
#: ratio, not a rewritable integer constant).
MAINT_FULL_REBUILD_FRACTION = 0.95

INSERT = "insert"
DELETE = "delete"
MODIFY = "modify"
_OPS = (INSERT, DELETE, MODIFY)


@dataclass(frozen=True)
class Delta:
    """One transaction-level change against a vertex or edge database.

    ``target`` is a vertex id (vertex model) or an endpoint pair (edge
    model; canonicalized through :func:`~repro.graphs.graph.edge_key`).
    ``items`` carries the new transaction for insert/modify; ``tid`` the
    stable transaction id for delete/modify (the id
    :meth:`~repro.txdb.database.TransactionDatabase.add_transaction`
    returned when the transaction was inserted).
    """

    op: str
    target: int | tuple[int, int]
    items: tuple[int, ...] | None = None
    tid: int | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise TCIndexError(
                f"unknown delta op {self.op!r} (expected one of {_OPS})"
            )
        if isinstance(self.target, Sequence):
            if len(self.target) != 2:
                raise TCIndexError(
                    f"edge delta target must be a pair, got {self.target!r}"
                )
            object.__setattr__(self, "target", edge_key(*self.target))
        if self.op in (INSERT, MODIFY):
            if not self.items:
                raise TCIndexError(
                    f"{self.op} delta requires a non-empty transaction"
                )
            object.__setattr__(
                self, "items", tuple(sorted(frozenset(self.items)))
            )
        elif self.items is not None:
            raise TCIndexError("delete deltas carry no transaction items")
        if self.op in (DELETE, MODIFY):
            if self.tid is None:
                raise TCIndexError(f"{self.op} delta requires a tid")
        elif self.tid is not None:
            raise TCIndexError("insert deltas are assigned a fresh tid")

    # -- constructors ---------------------------------------------------
    @classmethod
    def insert(
        cls, target: int | tuple[int, int], items: Iterable[int]
    ) -> Delta:
        return cls(INSERT, target, items=tuple(items))

    @classmethod
    def delete(cls, target: int | tuple[int, int], tid: int) -> Delta:
        return cls(DELETE, target, tid=tid)

    @classmethod
    def modify(
        cls, target: int | tuple[int, int], tid: int, items: Iterable[int]
    ) -> Delta:
        return cls(MODIFY, target, items=tuple(items), tid=tid)

    # -- wire shape -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"op": self.op, "target": self.target}
        if isinstance(self.target, tuple):
            doc["target"] = list(self.target)
        if self.items is not None:
            doc["items"] = list(self.items)
        if self.tid is not None:
            doc["tid"] = self.tid
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> Delta:
        try:
            op = doc["op"]
            target = doc["target"]
        except (TypeError, KeyError) as exc:
            raise TCIndexError(
                f"malformed delta document {doc!r}: missing {exc}"
            ) from None
        if isinstance(target, list):
            target = tuple(target)
        items = doc.get("items")
        return cls(
            op,
            target,
            items=tuple(items) if items is not None else None,
            tid=doc.get("tid"),
        )


@dataclass(frozen=True)
class MaintenanceResult:
    """What :func:`apply_deltas` did: the refreshed tree plus the route
    and reuse accounting the bench/obs layers report."""

    tree: TCTree
    route: str
    affected_items: frozenset[int] = frozenset()
    affected_fraction: float = 0.0
    reuse_candidates: int = 0
    reused: int = 0


def affected_items(
    network: DatabaseNetwork,
    vertex: int,
    new_transactions: Iterable[Iterable[int]],
) -> set[int]:
    """Items whose theme networks may change when ``vertex`` is updated.

    The union of the vertex's current items (their frequencies drop as the
    denominator grows) and the incoming items (they may newly appear).
    ``new_transactions`` may be any iterable — including a single-pass
    generator of generators; it is consumed exactly once.
    """
    items: set[int] = set()
    database = network.databases.get(vertex)
    if database is not None:
        items |= database.items()
    for transaction in new_transactions:
        items.update(transaction)
    return items


def reusable_decompositions(
    tree: TCTree, affected: set[int]
) -> dict[Pattern, TrussDecomposition]:
    """Decompositions of the old tree still valid after the update —
    exactly those whose pattern avoids every affected item."""
    reusable: dict[Pattern, TrussDecomposition] = {}
    for node in tree.iter_nodes():
        if node.decomposition is None:
            continue
        if not affected.intersection(node.pattern):
            reusable[node.pattern] = node.decomposition
    return reusable


def clone_tree(tree: TCTree) -> TCTree:
    """A structurally fresh tree sharing the (immutable-in-practice)
    decompositions — new node objects, same ``L_p`` lists. Dispatches
    through the model registry, so it works for every tree kind."""
    spec = registry.model_for_tree(tree)
    node_cls = spec.node_cls

    def clone(node):
        copy = node_cls(node.item, node.pattern, node.decomposition)
        for child in node.children:
            copy.add_child(clone(child))
        return copy

    return spec.make_tree(clone(tree.root), tree.num_items)


def _check_target(network, target) -> None:
    if isinstance(target, tuple):
        if not network.graph.has_edge(*target):
            raise TCIndexError(f"edge {target!r} not in network")
    elif target not in network.graph:
        raise TCIndexError(f"vertex {target!r} not in network")


def validate_deltas(network, deltas: Sequence[Delta]) -> None:
    """Raise :class:`TCIndexError` unless the whole stream can apply.

    Runs before any mutation so :func:`apply_deltas` is atomic: every
    target must exist in the network topology (a delta never creates
    vertices or edges — topology changes invalidate triangle structure
    and need a rebuild, not maintenance), and every delete/modify tid
    must be live at its point in the stream (simulated, so a delete may
    legally name a tid inserted earlier in the same stream).
    """
    simulated: dict[Any, list] = {}
    for position, delta in enumerate(deltas):
        if not isinstance(delta, Delta):
            raise TCIndexError(
                f"delta {position} is {type(delta).__name__!r}, not Delta"
            )
        _check_target(network, delta.target)
        state = simulated.get(delta.target)
        if state is None:
            database = network.databases.get(delta.target)
            state = simulated[delta.target] = (
                [database.tids(), database.next_tid]
                if database is not None
                else [set(), 0]
            )
        live, next_tid = state
        if delta.op == INSERT:
            live.add(next_tid)
            state[1] = next_tid + 1
        elif delta.tid not in live:
            raise TCIndexError(
                f"delta {position}: unknown transaction id {delta.tid!r} "
                f"on target {delta.target!r}"
            )
        elif delta.op == DELETE:
            live.discard(delta.tid)


def _apply_one(network, delta: Delta) -> None:
    database = network.databases.get(delta.target)
    if database is None:
        database = TransactionDatabase()
        network.databases[delta.target] = database
    if delta.op == INSERT:
        database.add_transaction(delta.items)
    elif delta.op == DELETE:
        database.remove_transaction(delta.tid)
    else:
        database.replace_transaction(delta.tid, delta.items)


def apply_deltas(
    network,
    tree: TCTree,
    deltas: Iterable[Delta],
    *,
    mode: str = "auto",
    max_length: int | None = None,
    workers: int = 1,
    backend: str = "serial",
) -> MaintenanceResult:
    """Apply a transaction-delta stream and refresh the TC-Tree.

    Works for both models: a vertex tree over a
    :class:`~repro.network.dbnetwork.DatabaseNetwork` and an edge tree
    over an :class:`~repro.edgenet.network.EdgeDatabaseNetwork` (delta
    targets are vertex ids resp. canonical edge pairs).

    The whole stream is validated first and applied atomically —
    ``network`` is only mutated once every delta is known to be
    applicable. ``tree`` is left untouched; a new tree is returned (an
    empty stream returns a structurally fresh clone), so readers may keep
    querying the old tree while the new one is built — the hot-swap
    serving tier depends on exactly this.

    ``mode`` selects the maintenance route: ``"incremental"`` reuses
    every decomposition whose pattern avoids the affected items,
    ``"full"`` is the eager from-scratch parity oracle, and ``"auto"``
    picks by affected fraction against ``MAINT_FULL_REBUILD_FRACTION``
    (the route taken is observable via the ``repro_engine_route_total``
    counter, tags ``maintain-incremental``/``maintain-full``).
    """
    if mode not in ("auto", "incremental", "full"):
        raise TCIndexError(f"unknown maintenance mode {mode!r}")
    deltas = list(deltas)
    validate_deltas(network, deltas)
    if not deltas:
        return MaintenanceResult(tree=clone_tree(tree), route="noop")

    affected: set[int] = set()
    for delta in deltas:
        database = network.databases.get(delta.target)
        if database is not None:
            affected |= database.items()
        if delta.items:
            affected.update(delta.items)
        _apply_one(network, delta)

    universe = set(network.item_universe())
    fraction = (
        len(affected & universe) / len(universe) if universe else 1.0
    )
    if mode == "auto":
        route = (
            "full"
            if fraction >= MAINT_FULL_REBUILD_FRACTION
            else "incremental"
        )
    else:
        route = mode

    reuse = (
        reusable_decompositions(tree, affected)
        if route == "incremental"
        else None
    )
    new_tree = build_tc_tree(
        network, max_length=max_length, workers=workers, reuse=reuse,
        backend=backend,
    )

    spec = registry.model_for_tree(tree)
    registry.record_route(spec.name, f"maintain-{route}")
    reused = 0
    if reuse:
        for node in new_tree.iter_nodes():
            if (
                node.decomposition is not None
                and reuse.get(node.pattern) is node.decomposition
            ):
                reused += 1
    return MaintenanceResult(
        tree=new_tree,
        route=route,
        affected_items=frozenset(affected),
        affected_fraction=fraction,
        reuse_candidates=len(reuse) if reuse else 0,
        reused=reused,
    )


def update_vertex_database(
    network: DatabaseNetwork,
    tree: TCTree,
    vertex: int,
    new_transactions: Iterable[Iterable[int]],
    max_length: int | None = None,
    workers: int = 1,
    backend: str = "process",
) -> TCTree:
    """Append transactions to one vertex and return the refreshed TC-Tree.

    The pre-delta entry point, kept as a thin wrapper over
    :func:`apply_deltas` with insert-only deltas and the incremental
    route forced (its callers already know the update is small).
    ``network`` is mutated; ``tree`` is left untouched and a new tree is
    returned — callers may keep querying the old tree independently, even
    when the update turns out to be empty.

    ``new_transactions`` may be any iterable of iterables (it is
    materialized once up front, so single-pass generators are safe);
    ``workers``/``backend`` select the rebuild parallelism exactly as in
    :func:`~repro.index.tctree.build_tc_tree`.
    """
    if vertex not in network.graph:
        raise TCIndexError(f"vertex {vertex!r} not in network")
    # Materialize before anything iterates: a generator input would
    # otherwise be silently exhausted by the first pass.
    transactions = [list(t) for t in new_transactions]
    result = apply_deltas(
        network,
        tree,
        [Delta.insert(vertex, t) for t in transactions],
        mode="incremental",
        max_length=max_length,
        workers=workers,
        backend=backend,
    )
    return result.tree
