"""Property-based parity: projection fast path vs re-enumeration oracle.

The convention pinned here (and documented in README "Testing"): the
**serial re-enumeration path is ground truth**. Running with projection
disabled re-enumerates every triangle index from scratch exactly like
the pre-projection code; running with it enabled derives indexes through
projection chains, exchanges carriers as masks, and may choose different
decomposition routes. Because a derived index is element-identical to a
fresh enumeration and every route decomposes the same edge set under the
same float-summation order, the resulting TC-Trees must be
**bit-identical** — exact threshold floats, exact level membership,
exact frequency maps — on every input, across the serial, thread, and
process build backends.

Cutover constants are forced down so the hypothesis-sized networks
actually exercise the CSR engine, the masked-carrier flow, and derived
indexes (at their production values only big networks would).
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

import repro.core.mptd as mptd
import repro.index.decomposition as decomposition
from repro.edgenet.decomposition import decompose_edge_network_pattern
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.graphs.csr import CSRGraph
from repro.graphs.support import TriangleIndex, projection, triangle_index
from repro.index.tctree import build_tc_tree
from tests.conftest import database_networks, small_graphs


def assert_trees_bit_identical(expected, actual):
    """Exact equality: patterns, thresholds, level membership, freqs."""
    assert expected.patterns() == actual.patterns()
    for pattern in expected.patterns():
        a = expected.find_node(pattern).decomposition
        b = actual.find_node(pattern).decomposition
        assert a.thresholds() == b.thresholds()
        assert a.frequencies == b.frequencies
        assert [
            sorted(level.removed_edges) for level in a.levels
        ] == [sorted(level.removed_edges) for level in b.levels]


@contextmanager
def forced_csr_cutovers():
    """Shrink the engine cutovers so tiny networks take the fast path.

    A context manager rather than a fixture: hypothesis re-runs the test
    body per example, and the override must wrap every example.
    """
    saved = (
        decomposition.CSR_MIN_EDGES,
        decomposition.CSR_NET_REUSE_MIN_EDGES,
        mptd.CSR_MIN_EDGES,
    )
    decomposition.CSR_MIN_EDGES = 1
    decomposition.CSR_NET_REUSE_MIN_EDGES = 3
    mptd.CSR_MIN_EDGES = 1
    try:
        yield
    finally:
        (
            decomposition.CSR_MIN_EDGES,
            decomposition.CSR_NET_REUSE_MIN_EDGES,
            mptd.CSR_MIN_EDGES,
        ) = saved


class TestTreeParity:
    @settings(deadline=None, max_examples=25)
    @given(database_networks())
    def test_serial_projection_matches_oracle(self, network):
        with forced_csr_cutovers():
            with projection(False):
                oracle = build_tc_tree(network)
            with projection(True):
                projected = build_tc_tree(network)
        assert_trees_bit_identical(oracle, projected)

    @settings(deadline=None, max_examples=5)
    @given(database_networks())
    def test_all_backends_match_oracle(self, network):
        with forced_csr_cutovers():
            with projection(False):
                oracle = build_tc_tree(network)
            with projection(True):
                process = build_tc_tree(network, workers=2)
        assert_trees_bit_identical(oracle, process)

    @settings(deadline=None, max_examples=10)
    @given(database_networks())
    def test_parity_at_production_cutovers(self, network):
        """Without forced cutovers the tiny-graph legacy branch engages —
        the oracle contract must hold there too."""
        with projection(False):
            oracle = build_tc_tree(network)
        with projection(True):
            projected = build_tc_tree(network)
        assert_trees_bit_identical(oracle, projected)


class TestDerivedIndexProperties:
    @settings(deadline=None, max_examples=60)
    @given(small_graphs(max_vertices=10, min_edges=1))
    def test_random_masks_derive_identical_indexes(self, graph):
        csr = CSRGraph.from_graph(graph)
        triangle_index(csr)
        rng = random.Random(csr.num_edges * 31 + csr.num_vertices)
        mask = bytearray(
            1 if rng.random() < 0.6 else 0 for _ in range(csr.num_edges)
        )
        child = csr.project(mask)
        if child is csr:
            return
        with projection(True):
            derived = triangle_index(child)
        fresh = TriangleIndex(child)
        assert derived.source in ("derived", "enumerated")
        for field in (
            "tri_u", "tri_v", "tri_w", "tri_e1", "tri_e2", "tri_e3",
            "edge_tris",
        ):
            assert getattr(derived, field) == getattr(fresh, field)

    @settings(deadline=None, max_examples=60)
    @given(small_graphs(max_vertices=10, min_edges=1))
    def test_projection_equals_edge_list_construction(self, graph):
        csr = CSRGraph.from_graph(graph)
        rng = random.Random(csr.num_edges * 17 + 1)
        mask = bytearray(
            1 if rng.random() < 0.5 else 0 for _ in range(csr.num_edges)
        )
        child = csr.project(mask)
        reference = CSRGraph._from_canonical_edges(
            [csr.edge_label(e) for e in range(csr.num_edges) if mask[e]]
        )
        if child is csr:
            assert reference == csr
            return
        assert child.labels == reference.labels
        assert list(child.indptr) == list(reference.indptr)
        assert list(child.indices) == list(reference.indices)
        assert list(child.edge_ids) == list(reference.edge_ids)


class TestEdgeNetworkParity:
    def _random_edge_network(self, seed: int) -> EdgeDatabaseNetwork:
        rng = random.Random(seed)
        network = EdgeDatabaseNetwork()
        n = rng.randint(4, 9)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    for _ in range(rng.randint(1, 3)):
                        items = [
                            item for item in range(3)
                            if rng.random() < 0.6
                        ]
                        if items:
                            network.add_transaction(u, v, items)
        return network

    @pytest.mark.parametrize("seed", range(8))
    def test_csr_engine_matches_legacy_engine(self, seed):
        """Cross-engine parity: exact level membership and frequencies,
        thresholds to the float tolerance (the engines sum cohesion in
        different orders — same convention as the vertex model)."""
        network = self._random_edge_network(seed)
        for item in network.item_universe():
            legacy = decompose_edge_network_pattern(
                network, (item,), engine="legacy"
            )
            csr = decompose_edge_network_pattern(
                network, (item,), engine="csr"
            )
            assert len(legacy.levels) == len(csr.levels)
            assert legacy.frequencies == csr.frequencies
            for expected, actual in zip(legacy.levels, csr.levels):
                assert actual.alpha == pytest.approx(expected.alpha)
                assert actual.removed_edges == expected.removed_edges

    @pytest.mark.parametrize("seed", range(8))
    def test_projected_edge_decomposition_matches_oracle(self, seed):
        network = self._random_edge_network(seed)
        carrier = CSRGraph.from_edges(network.graph.iter_edges())
        triangle_index(carrier)
        for item in network.item_universe():
            with projection(True):
                projected = decompose_edge_network_pattern(
                    network, (item,), carrier=carrier, engine="csr"
                )
            with projection(False):
                oracle = decompose_edge_network_pattern(
                    network, (item,), carrier=carrier, engine="csr"
                )
            assert projected.thresholds() == oracle.thresholds()
            assert projected.frequencies == oracle.frequencies
            assert [
                level.removed_edges for level in projected.levels
            ] == [level.removed_edges for level in oracle.levels]
