"""Process-parallel TC-Tree construction.

The paper parallelizes the first TC-Tree layer because layer-1
decompositions are independent; beyond layer 1, each enumeration subtree
rooted at a layer-1 node is *also* independent — by Proposition 5.3 every
descendant pattern ``{s_i, ...}`` is mined inside intersections of the
layer-1 carriers ``C*_{s_j}(0)`` with ``s_j ⪰ s_i``, which are shared
read-only inputs. Threads cannot exploit either property on a pure-Python
peeling engine (the GIL serializes the hot loops), so this module fans
both phases across a :class:`~concurrent.futures.ProcessPoolExecutor`:

Phase A
    Layer-1 items are grouped into cost-balanced chunks and each worker
    decomposes its chunk against the network shipped once per worker via
    the pool initializer.
Phase B
    Each layer-1 item owns the enumeration subtree of all patterns whose
    smallest item it is. Workers receive the full layer-1 decomposition
    map once (second pool initializer) and build whole subtrees, returning
    finished :class:`~repro.index.tcnode.TCNode` trees.

The exchange format is deliberately compact: ``CSRGraph`` pickles as its
flat arrays only (label index and cached triangle index are rebuilt or
dropped), and ``TrussDecomposition.__getstate__`` flattens a live CSR
``carrier0`` into its canonical edge list, so workers ship levels +
frequencies + flat edge lists rather than live CSR objects. With carrier
sharing on (the default where :mod:`multiprocessing.shared_memory`
exists), the layer-1 carriers skip pickling entirely: phase-A workers
write their chunk's ``C*_s(0)`` CSR arrays into one shared segment and
return only a handle, and phase-B workers attach zero-copy
(:mod:`repro.index.shm`) — cutting the phase-A result-pickling term the
parallel benchmark tracks.

On fork platforms the *inbound* half of the protocol is free: worker
state (network, layer-1 map, reuse table) is published in module globals
immediately before the pool forks, so children inherit it copy-on-write —
including the network CSR and its triangle index, which the parent warms
once so no worker re-enumerates triangles. Spawn platforms fall back to
shipping the same state through the pool initializer.

Chunking is adaptive: per-item cost is estimated from ``C*_s(0)`` edge
counts (degree mass before layer 1 exists), and items are packed
largest-first onto the least-loaded chunk, so one hub item lands alone in
its own chunk instead of serializing the pool behind a uniform split.

The serial path in :func:`repro.index.tctree.build_tc_tree` is preserved
bit-for-bit and acts as the parity oracle for this module's tests.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import uuid
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from heapq import heapify, heappop, heappush

from repro._ordering import EMPTY_PATTERN, Pattern
from repro.engine.registry import get_model
from repro.graphs.csr import CSRGraph, GraphLike
from repro.index.decomposition import TrussDecomposition
from repro.index.shm import (
    HAS_SHARED_MEMORY,
    SharedCarrierStore,
    unlink_handle,
)
from repro.index.tcnode import TCNode
from repro.index.tctree import (
    TCTree,
    _carrier_of,
    _expand_frontier,
    build_tc_tree,
)
from repro.network.dbnetwork import DatabaseNetwork
from repro.obs.metrics import MetricsSnapshot, default_registry
from repro.obs.trace import span

#: Chunks per worker: oversubscription lets the pool rebalance when cost
#: estimates are off, at the price of a little extra task overhead.
CHUNKS_PER_WORKER = 4


# The orchestrator and the worker task functions are model-agnostic —
# everything tree-model-specific (how to decompose a pattern, which
# node/tree classes to build, how to estimate layer-1 costs, what to
# pre-warm before forking) resolves through repro.engine.registry by the
# network's ``kind``.

# ---------------------------------------------------------------------------
# adaptive chunking
# ---------------------------------------------------------------------------


def adaptive_chunks(
    items: list[int],
    costs: dict[int, float],
    workers: int,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
) -> list[list[int]]:
    """Pack ``items`` into at most ``workers * chunks_per_worker`` chunks.

    Greedy LPT scheduling: items are placed heaviest-first onto the
    currently lightest chunk, so a hub item (one huge ``C*_s(0)``) fills a
    chunk by itself and the remaining items spread over the rest of the
    pool instead of queuing behind it. Every item appears in exactly one
    chunk; chunks are returned and internally sorted in ascending item
    order (deterministic, and matching the serial enumeration order).
    """
    if not items:
        return []
    n_chunks = max(1, min(len(items), workers * chunks_per_worker))
    # Heaviest first; ties broken by item id for determinism.
    order = sorted(items, key=lambda i: (-costs.get(i, 0.0), i))
    heap: list[tuple[float, int]] = [(0.0, k) for k in range(n_chunks)]
    heapify(heap)
    bins: list[list[int]] = [[] for _ in range(n_chunks)]
    for item in order:
        load, k = heappop(heap)
        bins[k].append(item)
        heappush(heap, (load + max(costs.get(item, 0.0), 1.0), k))
    chunks = [sorted(b) for b in bins if b]
    chunks.sort(key=lambda c: c[0])
    return chunks


def layer1_costs(network: DatabaseNetwork, items: list[int]) -> dict[int, float]:
    """Pre-layer-1 cost proxy: degree mass of the item's supporting vertices.

    ``C*_s(0)`` is unknown before phase A runs, but it lives inside the
    subgraph induced by the vertices whose databases mention ``s`` — the
    sum of their degrees bounds that subgraph's edge count.
    """
    degree = network.graph.degree
    costs: dict[int, float] = {}
    for item in items:
        costs[item] = float(
            sum(degree(v) for v in network.vertices_containing_item(item))
        )
    return costs


# ---------------------------------------------------------------------------
# worker-side state and task functions
# ---------------------------------------------------------------------------

#: Worker state: {"network": ..., "layer1": ..., "reuse": ...}. On fork
#: platforms the parent publishes it here right before creating the pool
#: (children inherit it copy-on-write, caches included); on spawn
#: platforms :func:`_init_worker` fills it from the pickled initializer
#: payload.
_WORKER_STATE: dict = {}  # guarded-by: _STATE_LOCK
#: Per-process memo of materialized layer-1 carriers (item -> C*_s(0));
#: shared across the subtree chunks a worker executes so each sibling
#: carrier is built at most once per process.
_WORKER_CARRIERS: dict[int, GraphLike] = {}
#: Shared-memory stores this worker has attached (phase B). Held so the
#: mappings outlive the graphs built from them; reset per pool.
_WORKER_SHM: list[SharedCarrierStore] = []
#: Serializes fork-path pools across threads: :data:`_WORKER_STATE` is a
#: module global, so two concurrent builds in one parent process would
#: otherwise clobber each other's state between publish and fork.
_STATE_LOCK = threading.Lock()


def _init_worker(payload: bytes) -> None:
    global _WORKER_STATE
    # Worker process: the state dict is process-private here, the
    # parent-side lock does not apply.
    # repro-lint: disable=lock-discipline
    _WORKER_STATE = pickle.loads(payload)
    _WORKER_CARRIERS.clear()
    _WORKER_SHM.clear()


def _metrics_before() -> MetricsSnapshot:
    """Snapshot the worker's registry at task entry.

    Fork workers inherit the parent's counter values copy-on-write (and
    one worker runs many chunks), so a task's own contribution is the
    *delta* between its entry and exit snapshots — absolute snapshots
    would double-count everything inherited or accumulated by earlier
    chunks when the orchestrator merges task results.
    """
    return default_registry().snapshot()


def _metrics_delta(before: MetricsSnapshot) -> MetricsSnapshot:
    return default_registry().snapshot().delta(before)


def _layer1_chunk(
    task: tuple[list[int], str | None],
) -> tuple[list[TrussDecomposition], dict | None, MetricsSnapshot]:
    """Phase A task: decompose one chunk of single-item patterns.

    With carrier sharing on, the chunk's captured ``C*_s(0)`` CSR
    carriers are written to one shared-memory segment (under the
    orchestrator-chosen ``segment_name``, so the orchestrator can clean
    up even when the pool aborts before this task's result is consumed)
    and the task returns ``(decompositions, handle, metrics delta)`` —
    the decompositions travel back through the result pipe *without*
    their carrier edge lists, which is the result-pickling term
    ``bench_parallel_build.py`` tracks. The orchestrator owns the
    segment's unlink and folds the metrics delta into its own registry.
    """
    items, segment_name = task
    before = _metrics_before()
    network = _WORKER_STATE["network"]  # repro-lint: disable=lock-discipline
    decompose = get_model(network.kind).hook("decompose")
    decompositions = [
        decompose(network, (item,), capture_carrier=True)
        for item in items
    ]
    handle = None
    if segment_name is not None:
        carriers: dict[int, CSRGraph] = {}
        for item, decomposition in zip(items, decompositions):
            carrier = decomposition.take_carrier()
            if not isinstance(carrier, CSRGraph) or not carrier.num_edges:
                continue
            labels = carrier.labels
            if labels[0] < -(2 ** 63) or labels[-1] >= 2 ** 63:
                # Labels outside int64 cannot ride the flat segment —
                # hand the carrier back so it ships over the PR 2
                # pickled-edge-list protocol instead.
                decomposition.carrier0 = carrier
                continue
            carriers[item] = carrier
        if carriers:
            store = SharedCarrierStore.create(carriers, name=segment_name)
            handle = store.handle()
            store.close()
    return decompositions, handle, _metrics_delta(before)


def _attach_shared_carriers() -> None:
    """Attach every phase-A segment once per worker process and seed the
    carrier memo with zero-copy graphs."""
    handles = _WORKER_STATE.get(  # repro-lint: disable=lock-discipline
        "carrier_handles"
    )
    if not handles or _WORKER_SHM:
        return
    for handle in handles:
        store = SharedCarrierStore.attach(handle)
        _WORKER_SHM.append(store)
        for key in store.keys():
            _WORKER_CARRIERS.setdefault(key, store.graph(key))


def _release_chunk_caches() -> None:
    """Per-chunk teardown of derived state pinned by the carrier memo.

    Expanding a chunk builds (or derives) triangle indexes on the memoized
    carriers and leaves projection back-references to the decomposition
    graphs they were filtered from — state that would otherwise accumulate
    in the worker across every chunk it executes. Dropping it caps worker
    memory at one chunk's working set; the fork-inherited *network* index
    lives on `_WORKER_STATE["network"]`'s CSR (copy-on-write, shared) and
    is deliberately untouched.
    """
    for carrier in _WORKER_CARRIERS.values():
        if isinstance(carrier, CSRGraph):
            carrier._tri = None
            carrier.release_projection()


def _subtree_chunk(
    task: tuple[list[int], int | None],
) -> tuple[list[TCNode], MetricsSnapshot]:
    """Phase B task: build the enumeration subtrees of one chunk of roots."""
    roots, max_length = task
    before = _metrics_before()
    _attach_shared_carriers()
    members = set(roots)
    reuse = {
        pattern: decomposition
        # repro-lint: disable=lock-discipline
        for pattern, decomposition in _WORKER_STATE["reuse"].items()
        if pattern[0] in members
    }
    try:
        built = build_subtree_chunk(
            _WORKER_STATE["network"],  # repro-lint: disable=lock-discipline
            _WORKER_STATE["layer1"],  # repro-lint: disable=lock-discipline
            roots,
            max_length=max_length,
            reuse=reuse,
            carrier_cache=_WORKER_CARRIERS,
        )
        return built, _metrics_delta(before)
    finally:
        _release_chunk_caches()


def build_subtree_chunk(
    network: DatabaseNetwork,
    layer1: dict[int, TrussDecomposition],
    roots: list[int],
    max_length: int | None = None,
    reuse: dict[Pattern, TrussDecomposition] | None = None,
    carrier_cache: dict[int, GraphLike] | None = None,
) -> list[TCNode]:
    """Build the enumeration subtree rooted at each item of ``roots``.

    ``layer1`` maps every item with a non-empty decomposition to it; the
    subtree of root ``i`` pairs against the layer-1 siblings ``j > i``, so
    a synthetic root holding *all* layer-1 nodes drives the shared
    :func:`~repro.index.tctree._expand_frontier` loop. Sibling carriers
    start unmaterialized and are rebuilt lazily (and memoized) by that
    loop; ``carrier_cache`` optionally persists them across chunk calls in
    one worker process.

    Returns the layer-1 :class:`TCNode` of each root (in ascending item
    order) with its completed subtree attached; the node class and the
    decompose hook come from the registered model of ``network.kind``.
    """
    spec = get_model(network.kind)
    decompose = spec.hook("decompose")
    node_factory = spec.node_cls
    items = sorted(layer1)
    root = node_factory(None, EMPTY_PATTERN, None)
    nodes: dict[int, TCNode] = {}
    for item in items:
        node = node_factory(item, (item,), layer1[item])
        root.add_child(node)
        nodes[item] = node
    truss_graphs: dict[int, GraphLike] = {}
    if carrier_cache:
        for item, carrier in carrier_cache.items():
            if item in nodes:
                truss_graphs[id(nodes[item])] = carrier
    parent_of: dict[int, TCNode] = {}
    built: list[TCNode] = []
    for item in sorted(roots):
        node = nodes[item]
        parent_of[id(node)] = root
        if id(node) not in truss_graphs:
            truss_graphs[id(node)] = _carrier_of(node.decomposition)
        if carrier_cache is not None:
            # Persist before the frontier loop releases it: a later chunk
            # in this process may pair an earlier root against this item.
            carrier_cache[item] = truss_graphs[id(node)]
        queue: deque[TCNode] = deque([node])
        _expand_frontier(
            network, queue, truss_graphs, parent_of,
            max_length=max_length, reuse=reuse,
            decompose=decompose, node_factory=node_factory,
        )
        built.append(node)
    if carrier_cache is not None:
        for item, node in nodes.items():
            carrier = truss_graphs.get(id(node))
            if carrier is not None:
                carrier_cache[item] = carrier
    return built


# ---------------------------------------------------------------------------
# the orchestrator
# ---------------------------------------------------------------------------


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork: workers inherit the parent's state copy-on-write (no
    network pickling, shared warm caches) and start in milliseconds;
    other platforms fall back to their default context."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _worker_pool:
    """A ProcessPoolExecutor whose workers see ``state`` as
    :data:`_WORKER_STATE` — inherited through fork when possible, shipped
    through the pool initializer otherwise.

    On the fork path the parent's own global is published *before* the
    executor is constructed — the stdlib makes no contract about whether
    fork workers launch at construction or at first submit, and either
    way they must inherit the state — and restored on exit. A module
    lock is held for the pool's whole lifetime so concurrent builds from
    different threads cannot clobber each other's published state.
    """

    def __init__(
        self,
        ctx: multiprocessing.context.BaseContext,
        workers: int,
        state: dict,
    ) -> None:
        self._fork = ctx.get_start_method() == "fork"
        if self._fork:
            global _WORKER_STATE
            # Manual acquire: the lock spans the pool's lifetime
            # (released in __exit__), not a lexical with-block.
            _STATE_LOCK.acquire()
            _WORKER_STATE = state  # repro-lint: disable=lock-discipline
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=ctx
                )
            except BaseException:
                _WORKER_STATE = {}  # repro-lint: disable=lock-discipline
                _STATE_LOCK.release()
                raise
        else:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(
                    pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
                ),
            )

    def __enter__(self) -> ProcessPoolExecutor:
        return self._pool

    def __exit__(self, *exc_info) -> None:
        try:
            self._pool.shutdown()
        finally:
            if self._fork:
                global _WORKER_STATE
                # Held since __init__ (manual acquire/release pair).
                _WORKER_STATE = {}  # repro-lint: disable=lock-discipline
                _STATE_LOCK.release()


def build_tc_tree_process(
    network: DatabaseNetwork,
    max_length: int | None = None,
    workers: int = 2,
    reuse: dict[Pattern, TrussDecomposition] | None = None,
    share_carriers: bool | None = None,
) -> TCTree:
    """Build the TC-Tree with a process pool (two fan-out phases).

    Produces a tree identical to the serial
    :func:`~repro.index.tctree.build_tc_tree` (the parity suite asserts
    patterns, levels, thresholds, and frequencies all match). Reused
    decompositions for layer-1 patterns keep object identity; deeper
    reused decompositions cross a process boundary and come back as equal
    copies.

    ``share_carriers`` (default: on wherever
    :mod:`multiprocessing.shared_memory` exists) exchanges the layer-1
    ``C*_s(0)`` carriers through shared-memory segments instead of
    pickled edge lists: phase-A workers export their chunk's carriers and
    return a handle, phase-B workers attach and wrap the flat arrays
    zero-copy. The orchestrator unlinks every segment when the build
    finishes, success or not.

    Vertex and edge database networks ride the same chunking, pool,
    carrier-memo and shared-memory machinery; the build hooks and the
    node/tree classes resolve through :func:`repro.engine.registry.get_model`
    by ``network.kind``.
    """
    spec = get_model(network.kind)
    items = network.item_universe()
    reuse = reuse or {}
    # POSIX-only default: on Windows a named segment is destroyed when
    # its last open handle closes, and the phase-A creator closes its
    # handle before phase B attaches.
    shm_usable = HAS_SHARED_MEMORY and os.name == "posix"
    if share_carriers is None:
        share_carriers = shm_usable
    else:
        share_carriers = bool(share_carriers) and shm_usable
    if workers <= 1 or len(items) < 2:
        return build_tc_tree(
            network, max_length=max_length, reuse=reuse, backend="serial"
        )

    ctx = _pool_context()
    if ctx.get_start_method() == "fork":
        # Warm the caches forked workers inherit instead of redoing: the
        # network CSR and, where layer 1 amortizes it, its triangle index.
        with span("build.warm_triangles", items=len(items)):
            spec.hook("warm")(network, items)
    if share_carriers:
        # Start the resource tracker in the parent *before* the pool
        # forks: workers then inherit it and their segment registrations
        # land in the same tracker the parent's unlinks unregister from —
        # otherwise every worker spawns its own tracker, which warns
        # about "leaked" (already-unlinked) segments at shutdown.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is best-effort
            pass

    carrier_handles: list[dict] = []
    segment_names: list[str] = []
    try:
        # ------------------------------------------------------- phase A
        layer1: dict[int, TrussDecomposition] = {
            item: reuse[(item,)] for item in items if (item,) in reuse
        }
        todo = [item for item in items if item not in layer1]
        if todo:
            chunks = adaptive_chunks(
                todo, spec.hook("layer1_costs")(network, todo), workers
            )
            # Exporting carriers only pays off when phase B will attach
            # them — with max_length=1 there are no children to build.
            if share_carriers and (max_length is None or max_length > 1):
                # Orchestrator-assigned names: cleanup below can unlink
                # every *possible* segment even when the pool aborts
                # before a creating task reports back.
                token = uuid.uuid4().hex[:12]
                segment_names = [
                    f"rp{token}a{k}" for k in range(len(chunks))
                ]
                tasks = list(zip(chunks, segment_names))
            else:
                tasks = [(chunk, None) for chunk in chunks]
            state = {"network": network}
            with span(
                "build.phaseA", chunks=len(chunks), items=len(todo)
            ), _worker_pool(
                ctx, min(workers, len(chunks)), state
            ) as pool:
                for chunk, (decompositions, handle, delta) in zip(
                    chunks, pool.map(_layer1_chunk, tasks)
                ):
                    if handle is not None:
                        carrier_handles.append(handle)
                    default_registry().merge(delta)
                    for item, decomposition in zip(chunk, decompositions):
                        layer1[item] = decomposition
        layer1 = {
            item: decomposition
            for item, decomposition in layer1.items()
            if not decomposition.is_empty()
        }

        node_cls = spec.node_cls
        root = node_cls(None, EMPTY_PATTERN, None)
        nodes: dict[int, TCNode] = {}
        for item in sorted(layer1):
            node = node_cls(item, (item,), layer1[item])
            root.add_child(node)
            nodes[item] = node

        # ------------------------------------------------------- phase B
        # A single surviving layer-1 item has no pairing siblings, so its
        # subtree is itself — nothing to fan out.
        if len(layer1) >= 2 and (max_length is None or max_length > 1):
            costs = {
                item: float(decomposition.num_edges)
                for item, decomposition in layer1.items()
            }
            chunks = adaptive_chunks(sorted(layer1), costs, workers)
            deep_reuse = {
                pattern: decomposition
                for pattern, decomposition in reuse.items()
                if len(pattern) >= 2
            }
            state = {
                "network": network,
                "layer1": layer1,
                "reuse": deep_reuse,
                "carrier_handles": carrier_handles,
            }
            tasks = [(chunk, max_length) for chunk in chunks]
            with span(
                "build.phaseB", chunks=len(chunks), roots=len(layer1)
            ), _worker_pool(
                ctx, min(workers, len(chunks)), state
            ) as pool:
                for built, delta in pool.map(_subtree_chunk, tasks):
                    default_registry().merge(delta)
                    for subtree_root in built:
                        # Graft the worker-built subtree onto the
                        # parent-side layer-1 node (which holds the
                        # original decomposition object — reuse identity
                        # is preserved at layer 1).
                        nodes[subtree_root.item].children = (
                            subtree_root.children
                        )
    finally:
        # Every candidate name, not just reported handles — a pool abort
        # can leave segments whose creating task never returned.
        for name in segment_names:
            unlink_handle({"name": name})

    # The serial build consumes every captured carrier while expanding;
    # here the workers consumed their (copy-on-write / shipped / shared)
    # copies, so drop the parent-side ones for the same steady-state
    # memory: the sum of the L_p lists, as in the paper.
    for decomposition in layer1.values():
        decomposition.carrier0 = None

    return spec.make_tree(root, len(items))


__all__ = [
    "adaptive_chunks",
    "build_subtree_chunk",
    "build_tc_tree_process",
    "CHUNKS_PER_WORKER",
]
