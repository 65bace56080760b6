"""Tests for process-parallel TC-Tree construction.

The serial build is the parity oracle: both parallel backends (threaded
layer 1, process pool over layer-1 items and whole subtrees) must
reproduce its tree exactly — patterns, levels, thresholds, frequencies.
The pickle protocol tests pin the compact exchange format: flat arrays
for ``CSRGraph``, carrier-flattened ``TrussDecomposition``.
"""

from __future__ import annotations

import pickle
import uuid

import pytest
from hypothesis import given, settings

from repro.datasets.synthetic import generate_synthetic_network
from repro.graphs.csr import CSRGraph
from repro.graphs.support import triangle_index
from repro.index import parallel
from repro.index.decomposition import (
    TrussDecomposition,
    decompose_network_pattern,
)
from repro.index.parallel import (
    adaptive_chunks,
    build_subtree_chunk,
    build_tc_tree_process,
)
from repro.index.shm import SharedCarrierStore, unlink_handle
from repro.index.tctree import build_tc_tree
from repro.index.updates import update_vertex_database
from tests.conftest import database_networks


def assert_trees_identical(expected, actual):
    """Full structural equality: patterns, levels, thresholds, frequencies."""
    assert expected.patterns() == actual.patterns()
    assert expected.num_items == actual.num_items
    for pattern in expected.patterns():
        a = expected.find_node(pattern).decomposition
        b = actual.find_node(pattern).decomposition
        assert a.thresholds() == b.thresholds()
        assert a.frequencies == b.frequencies
        for alpha in a.thresholds():
            assert sorted(a.edges_at(alpha)) == sorted(b.edges_at(alpha))
        assert sorted(a.edges_at(0.0)) == sorted(b.edges_at(0.0))


@pytest.fixture(scope="module")
def syn_network():
    """A synthetic network big enough to have a multi-layer tree."""
    return generate_synthetic_network(
        num_items=6,
        num_seeds=2,
        mutation_rate=0.4,
        max_transactions=12,
        max_transaction_length=4,
        seed=3,
    )


class TestAdaptiveChunks:
    def test_partition(self):
        items = list(range(17))
        costs = {i: float(i + 1) for i in items}
        chunks = adaptive_chunks(items, costs, workers=3)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == items
        assert all(chunk == sorted(chunk) for chunk in chunks)

    def test_hub_item_isolated(self):
        """One hub item must not drag a chunk-mate behind it."""
        costs = {0: 1000.0}
        costs.update({i: 1.0 for i in range(1, 10)})
        chunks = adaptive_chunks(list(range(10)), costs, workers=2)
        hub_chunk = next(chunk for chunk in chunks if 0 in chunk)
        assert hub_chunk == [0]

    def test_deterministic(self):
        items = list(range(23))
        costs = {i: float((i * 7) % 5 + 1) for i in items}
        first = adaptive_chunks(items, costs, workers=4)
        second = adaptive_chunks(items, costs, workers=4)
        assert first == second

    def test_fewer_items_than_chunks(self):
        chunks = adaptive_chunks([3, 1], {1: 1.0, 3: 2.0}, workers=8)
        assert sorted(i for c in chunks for i in c) == [1, 3]
        assert all(chunk for chunk in chunks)

    def test_empty(self):
        assert adaptive_chunks([], {}, workers=4) == []


class TestPickleProtocol:
    def test_csr_round_trip_drops_caches(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        triangle_index(graph)  # populate the cache that must NOT ship
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._tri is None
        assert clone._index == graph._index
        assert list(clone.edge_ids) == list(graph.edge_ids)
        assert clone.edge_id(0, 2) == graph.edge_id(0, 2)
        assert clone.neighbors(2) == graph.neighbors(2)

    def test_csr_payload_smaller_than_default(self):
        graph = CSRGraph.from_edges(
            [(u, v) for u in range(30) for v in range(u + 1, 30)]
        )
        triangle_index(graph)
        payload = len(pickle.dumps(graph))
        cache_payload = len(pickle.dumps(graph._tri))
        # The triangle index of a dense graph dwarfs the graph itself;
        # shipping it would blow up every task result.
        assert payload < cache_payload

    def test_decomposition_round_trip_flattens_carrier(self, syn_network):
        item = syn_network.item_universe()[0]
        decomposition = decompose_network_pattern(
            syn_network, (item,), capture_carrier=True
        )
        original_carrier = decomposition.carrier0
        clone = pickle.loads(pickle.dumps(decomposition))
        # The original still owns its captured carrier (pickling must not
        # consume it), the clone carries a flat canonical edge list.
        assert decomposition.carrier0 is original_carrier
        assert clone.carrier0 is None or isinstance(clone.carrier0, list)
        assert clone.pattern == decomposition.pattern
        assert clone.thresholds() == decomposition.thresholds()
        assert clone.frequencies == decomposition.frequencies
        # take_carrier materializes an equivalent C*_p(0) on the receiver.
        ours = decomposition.take_carrier()
        theirs = clone.take_carrier()
        if ours is not None:
            assert sorted(ours.iter_edges()) == sorted(theirs.iter_edges())

    def test_decomposition_without_carrier_round_trips(self, syn_network):
        item = syn_network.item_universe()[0]
        decomposition = decompose_network_pattern(syn_network, (item,))
        clone = pickle.loads(pickle.dumps(decomposition))
        assert clone.carrier0 is None
        assert clone.thresholds() == decomposition.thresholds()

    def test_tree_nodes_round_trip(self, syn_network):
        tree = build_tc_tree(syn_network)
        clone_root = pickle.loads(pickle.dumps(tree.root))
        clone_patterns = sorted(
            node.pattern
            for child in clone_root.children
            for node in child.iter_subtree()
        )
        assert clone_patterns == tree.patterns()


class TestProcessParity:
    def test_toy(self, toy_network):
        serial = build_tc_tree(toy_network)
        process = build_tc_tree(toy_network, workers=3)
        assert_trees_identical(serial, process)

    def test_synthetic_all_backends(self, syn_network):
        serial = build_tc_tree(syn_network)
        process = build_tc_tree(syn_network, workers=2)
        assert_trees_identical(serial, process)

    def test_synthetic_max_length(self, syn_network):
        serial = build_tc_tree(syn_network, max_length=2)
        process = build_tc_tree(syn_network, max_length=2, workers=4)
        assert_trees_identical(serial, process)

    def test_direct_entry_point_serial_fallback(self, syn_network):
        serial = build_tc_tree(syn_network)
        fallback = build_tc_tree_process(syn_network, workers=1)
        assert_trees_identical(serial, fallback)

    @settings(deadline=None, max_examples=5)
    @given(database_networks())
    def test_randomized_parity(self, network):
        serial = build_tc_tree(network)
        process = build_tc_tree(network, workers=2)
        assert_trees_identical(serial, process)

    def test_update_through_process_pool(self, syn_network):
        import copy

        network = copy.deepcopy(syn_network)
        tree = build_tc_tree(network)
        vertex = next(iter(network.databases))
        new_transactions = [[0], [0, 1]]

        updated = update_vertex_database(
            network, tree, vertex, new_transactions, workers=2
        )
        scratch = build_tc_tree(network)
        assert_trees_identical(scratch, updated)


class TestSharedCarrierStore:
    def _graphs(self):
        dense = CSRGraph.from_edges(
            [(u, v) for u in range(12) for v in range(u + 1, 12)]
        )
        sparse = CSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (5, 9)])
        return {3: dense, 7: sparse}

    def test_round_trip_through_pickled_handle(self):
        graphs = self._graphs()
        store = SharedCarrierStore.create(graphs)
        try:
            handle = pickle.loads(pickle.dumps(store.handle()))
            attached = SharedCarrierStore.attach(handle)
            try:
                assert sorted(attached.keys()) == sorted(graphs)
                for key, graph in graphs.items():
                    clone = attached.graph(key)
                    assert clone.labels == graph.labels
                    assert clone.edges() == graph.edges()
                    assert list(clone.indptr) == list(graph.indptr)
                    assert list(clone.edge_ids) == list(graph.edge_ids)
                    # Engine smoke over the zero-copy views.
                    assert (
                        triangle_index(clone).num_triangles
                        == triangle_index(graph).num_triangles
                    )
            finally:
                attached.close()
        finally:
            store.close()
            store.unlink()

    def test_attached_graph_pickles_to_plain_arrays(self):
        graphs = self._graphs()
        store = SharedCarrierStore.create(graphs)
        try:
            attached = SharedCarrierStore.attach(store.handle())
            clone = pickle.loads(pickle.dumps(attached.graph(3)))
            # The pickle payload must not reference the segment: plain
            # array copies, fully usable after the segment is gone.
            from array import array

            assert isinstance(clone.indptr, array)
            assert clone == graphs[3]
        finally:
            store.close()
            store.unlink()
        assert clone.edges() == graphs[3].edges()

    def test_unlink_handle_is_idempotent(self):
        store = SharedCarrierStore.create(self._graphs())
        handle = store.handle()
        store.close()
        unlink_handle(handle)
        unlink_handle(handle)  # second call: segment already gone


class TestSharedCarrierBuild:
    def test_parity_with_and_without_sharing(self, syn_network):
        serial = build_tc_tree(syn_network)
        shared = build_tc_tree_process(
            syn_network, workers=2, share_carriers=True
        )
        pickled = build_tc_tree_process(
            syn_network, workers=2, share_carriers=False
        )
        assert_trees_identical(serial, shared)
        assert_trees_identical(serial, pickled)

    def test_phase_a_results_ship_without_carriers(self, syn_network):
        """The point of the exchange: decompositions come back over the
        pipe carrier-less (the carriers travel through shared memory)."""
        chunk = sorted(syn_network.item_universe())
        segment_name = f"rptest{uuid.uuid4().hex[:10]}"
        parallel._WORKER_STATE = {"network": syn_network}
        handle = None
        try:
            decompositions, handle, _delta = parallel._layer1_chunk(
                (chunk, segment_name)
            )
            assert handle is not None
            assert handle["name"] == segment_name
            assert all(d.carrier0 is None for d in decompositions)
            attached = SharedCarrierStore.attach(handle)
            try:
                serial = {
                    item: decompose_network_pattern(
                        syn_network, (item,), capture_carrier=True
                    )
                    for item in chunk
                }
                for key in attached.keys():
                    expected = serial[key].take_carrier()
                    assert (
                        attached.graph(key).edges() == expected.edges()
                    )
            finally:
                attached.close()
        finally:
            if handle is not None:
                unlink_handle(handle)
            parallel._WORKER_STATE = {}


class TestWorkerCacheRelease:
    """Satellite: the per-chunk teardown must drop triangle/projection
    state pinned by the worker carrier memo, keeping worker memory flat
    across repeated chunks (the PR 2 code let it accumulate)."""

    def _worker_state(self, network):
        layer1 = {
            item: pickle.loads(
                pickle.dumps(
                    decompose_network_pattern(
                        network, (item,), capture_carrier=True
                    )
                )
            )
            for item in network.item_universe()
        }
        layer1 = {
            item: dec for item, dec in layer1.items() if not dec.is_empty()
        }
        return {"network": network, "layer1": layer1, "reuse": {}}

    def test_chunk_teardown_clears_carrier_caches(self, syn_network):
        parallel._WORKER_STATE = self._worker_state(syn_network)
        parallel._WORKER_CARRIERS.clear()
        try:
            roots = sorted(parallel._WORKER_STATE["layer1"])
            parallel._subtree_chunk((roots, None))
            assert parallel._WORKER_CARRIERS  # memo was populated
            for carrier in parallel._WORKER_CARRIERS.values():
                if isinstance(carrier, CSRGraph):
                    assert carrier._tri is None
                    assert carrier._proj_parent is None
                    assert carrier._proj_eids is None
        finally:
            parallel._WORKER_STATE = {}
            parallel._WORKER_CARRIERS.clear()

    def test_repeated_chunks_do_not_grow_memory(self, syn_network):
        import tracemalloc

        parallel._WORKER_STATE = self._worker_state(syn_network)
        parallel._WORKER_CARRIERS.clear()
        try:
            roots = sorted(parallel._WORKER_STATE["layer1"])
            task = (roots, None)
            parallel._subtree_chunk(task)  # warm every lazy cache once
            tracemalloc.start()
            parallel._subtree_chunk(task)
            baseline, _ = tracemalloc.get_traced_memory()
            for _ in range(4):
                parallel._subtree_chunk(task)
            current, _ = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            # Four extra chunks may not retain more than a small, flat
            # overhead — a leaked triangle index per chunk would be
            # hundreds of kilobytes on this network.
            assert current - baseline < 64 * 1024
        finally:
            parallel._WORKER_STATE = {}
            parallel._WORKER_CARRIERS.clear()


class TestSubtreeChunk:
    def _layer1(self, network):
        return {
            item: decompose_network_pattern(
                network, (item,), capture_carrier=True
            )
            for item in network.item_universe()
        }

    def test_matches_serial_subtrees(self, syn_network):
        serial = build_tc_tree(syn_network)
        layer1 = {
            item: dec
            for item, dec in self._layer1(syn_network).items()
            if not dec.is_empty()
        }
        roots = sorted(layer1)
        built = build_subtree_chunk(syn_network, layer1, roots)
        built_patterns = sorted(
            node.pattern
            for subtree in built
            for node in subtree.iter_subtree()
        )
        assert built_patterns == serial.patterns()

    def test_sibling_carrier_rebuilt_at_most_once(
        self, syn_network, monkeypatch
    ):
        """Regression: the frontier loop used to rebuild a carrier-less
        sibling's ``C*_p(0)`` on *every* pairing and drop it on the floor;
        it must be memoized so each layer-1 decomposition materializes its
        carrier at most once per chunk (max_length-capped build)."""
        layer1 = {
            item: dec
            for item, dec in self._layer1(syn_network).items()
            if not dec.is_empty()
        }
        assert len(layer1) >= 3  # need two earlier roots pairing one sibling
        # Ship-shape the decompositions as the workers would receive them:
        # carriers flattened, then rebuilt lazily inside the chunk.
        layer1 = {
            item: pickle.loads(pickle.dumps(dec))
            for item, dec in layer1.items()
        }

        calls: dict[int, int] = {}
        original = TrussDecomposition.frontier_carrier

        def counting(self):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return original(self)

        monkeypatch.setattr(
            TrussDecomposition, "frontier_carrier", counting
        )
        build_subtree_chunk(
            syn_network, layer1, sorted(layer1), max_length=2
        )
        layer1_ids = {id(dec) for dec in layer1.values()}
        layer1_calls = {
            i: n for i, n in calls.items() if i in layer1_ids
        }
        assert layer1_calls, "no layer-1 carrier was ever materialized"
        assert max(layer1_calls.values()) == 1

    def test_root_carrier_persisted_across_chunks(
        self, syn_network, monkeypatch
    ):
        """Regression: a chunk root's carrier is consumed by its own
        expansion — it must still land in the worker's carrier cache so a
        later chunk pairing an earlier root against it skips the rebuild
        (chunks reach a worker in arbitrary order)."""
        layer1 = {
            item: pickle.loads(pickle.dumps(dec))
            for item, dec in self._layer1(syn_network).items()
            if not dec.is_empty()
        }
        items = sorted(layer1)
        assert len(items) >= 2
        cache: dict = {}
        build_subtree_chunk(
            syn_network, layer1, [items[-1]], carrier_cache=cache
        )
        assert items[-1] in cache

        calls: list = []
        original = TrussDecomposition.frontier_carrier
        last = layer1[items[-1]]

        def counting(self):
            if self is last:
                calls.append(self)
            return original(self)

        monkeypatch.setattr(
            TrussDecomposition, "frontier_carrier", counting
        )
        # The earlier root pairs against items[-1]; its carrier must come
        # from the cache, not another frontier_carrier materialization.
        build_subtree_chunk(
            syn_network, layer1, [items[0]], carrier_cache=cache
        )
        assert calls == []
