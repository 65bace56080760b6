"""Cross-engine parity for the edge TC-Tree (mirrors the vertex suite in
``tests/graphs/test_projection_properties.py``).

Convention: the **legacy dict-of-sets serial build is the cross-engine
oracle** — every CSR-engine backend must reproduce its patterns and
per-level removed-edge sets exactly, and its thresholds within the
cohesion tolerance (the engines sum cohesion in different orders).
*Within* the CSR engine the contract is stricter: serial, thread, and
process builds, with projection on or off, must be **bit-identical**
(exact threshold floats, exact level membership, exact frequencies) —
derived triangle indexes are element-identical to fresh enumeration and
the route choice never depends on the projection switch.

Cutover constants are forced down so hypothesis-sized networks actually
exercise the CSR engine, masked carriers, and derived indexes.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings

import repro.edgenet.decomposition as edge_decomposition
from repro.edgenet.decomposition import decompose_edge_network_pattern
from repro.edgenet.index import build_edge_tc_tree
from repro.graphs.support import projection
from tests.edgenet.test_edge_index import edge_networks


@contextmanager
def forced_edge_csr_cutovers():
    """Shrink the edge-engine cutovers so tiny networks take the fast
    path (a context manager so it wraps every hypothesis example)."""
    saved = (
        edge_decomposition.EDGE_CSR_MIN_EDGES,
        edge_decomposition.CSR_NET_REUSE_MIN_EDGES,
    )
    edge_decomposition.EDGE_CSR_MIN_EDGES = 1
    edge_decomposition.CSR_NET_REUSE_MIN_EDGES = 3
    try:
        yield
    finally:
        (
            edge_decomposition.EDGE_CSR_MIN_EDGES,
            edge_decomposition.CSR_NET_REUSE_MIN_EDGES,
        ) = saved


def assert_edge_trees_bit_identical(expected, actual):
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


def assert_matches_legacy_oracle(oracle, actual):
    """Cross-engine contract: exact patterns, per-level edge sets, and
    frequencies; thresholds to the float tolerance."""
    assert oracle.patterns() == actual.patterns()
    for pattern in oracle.patterns():
        a = oracle.find_node(pattern).decomposition
        b = actual.find_node(pattern).decomposition
        assert len(a.levels) == len(b.levels)
        assert a.frequencies == b.frequencies
        for expected_level, actual_level in zip(a.levels, b.levels):
            assert actual_level.alpha == pytest.approx(expected_level.alpha)
            assert (
                sorted(actual_level.removed_edges)
                == sorted(expected_level.removed_edges)
            )


class TestEdgeTreeParity:
    @settings(deadline=None, max_examples=25)
    @given(edge_networks())
    def test_serial_projection_matches_oracle(self, network):
        with forced_edge_csr_cutovers():
            oracle = build_edge_tc_tree(network, backend="legacy")
            with projection(False):
                off = build_edge_tc_tree(network, backend="serial")
            with projection(True):
                on = build_edge_tc_tree(network, backend="serial")
        assert_edge_trees_bit_identical(off, on)
        assert_matches_legacy_oracle(oracle, on)

    @settings(deadline=None, max_examples=5)
    @given(edge_networks())
    def test_all_backends_match_oracle(self, network):
        with forced_edge_csr_cutovers():
            oracle = build_edge_tc_tree(network, backend="legacy")
            with projection(True):
                serial = build_edge_tc_tree(network, backend="serial")
                process = build_edge_tc_tree(network, workers=2)
        assert_edge_trees_bit_identical(serial, process)
        assert_matches_legacy_oracle(oracle, serial)

    @settings(deadline=None, max_examples=10)
    @given(edge_networks())
    def test_parity_at_production_cutovers(self, network):
        """Without forced cutovers the tiny-graph legacy branch engages —
        the oracle contract must hold there too."""
        oracle = build_edge_tc_tree(network, backend="legacy")
        with projection(False):
            off = build_edge_tc_tree(network, backend="serial")
        with projection(True):
            on = build_edge_tc_tree(network, backend="serial")
        assert_edge_trees_bit_identical(off, on)
        assert_matches_legacy_oracle(oracle, on)

    def test_max_length_matches_across_backends(self):
        from tests.edgenet.test_edge_index import _toy_dense_network

        network = _toy_dense_network()
        with forced_edge_csr_cutovers():
            oracle = build_edge_tc_tree(
                network, max_length=2, backend="legacy"
            )
            capped = build_edge_tc_tree(network, max_length=2)
            process = build_edge_tc_tree(network, max_length=2, workers=2)
        assert_matches_legacy_oracle(oracle, capped)
        assert_edge_trees_bit_identical(capped, process)
        assert all(len(p) <= 2 for p in capped.patterns())


class TestEdgeRoutes:
    def test_children_take_the_carrier_projection_route(self):
        from tests.edgenet.test_edge_index import _toy_dense_network

        network = _toy_dense_network()
        with forced_edge_csr_cutovers():
            tree = build_edge_tc_tree(network)
        deep = [n for n in tree.iter_nodes() if len(n.pattern) >= 2]
        assert deep
        assert all(
            n.decomposition.route == "carrier-projected+csr" for n in deep
        )
        layer1 = [n for n in tree.iter_nodes() if len(n.pattern) == 1]
        assert all(
            n.decomposition.route in ("net-full+csr", "net-projected+csr")
            for n in layer1
        )

    def test_routes_do_not_depend_on_projection_switch(self):
        from tests.edgenet.test_edge_index import _toy_dense_network

        network = _toy_dense_network()
        with forced_edge_csr_cutovers():
            with projection(True):
                on = build_edge_tc_tree(network)
            with projection(False):
                off = build_edge_tc_tree(network)
        routes_on = {
            n.pattern: n.decomposition.route for n in on.iter_nodes()
        }
        routes_off = {
            n.pattern: n.decomposition.route for n in off.iter_nodes()
        }
        assert routes_on == routes_off

    def test_forced_csr_engine_matches_auto(self):
        from tests.edgenet.test_edge_index import _toy_dense_network

        network = _toy_dense_network()
        for item in network.item_universe():
            auto = decompose_edge_network_pattern(network, (item,))
            forced = decompose_edge_network_pattern(
                network, (item,), engine="csr"
            )
            assert [
                sorted(level.removed_edges) for level in auto.levels
            ] == [sorted(level.removed_edges) for level in forced.levels]
            for a, b in zip(auto.thresholds(), forced.thresholds()):
                assert a == pytest.approx(b)
