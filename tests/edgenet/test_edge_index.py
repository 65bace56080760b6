"""Tests for edge-network decomposition, TC-Tree, and serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgenet.decomposition import decompose_edge_network_pattern
from repro.edgenet.finder import edge_tcfi, maximal_edge_pattern_truss
from repro.edgenet.index import build_edge_tc_tree
from repro.edgenet.io import (
    edge_network_from_dict,
    edge_network_to_dict,
    load_edge_network,
    save_edge_network,
)
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.edgenet.theme import induce_edge_theme_network
from repro.errors import NetworkFormatError, TCIndexError
from tests.edgenet.test_edgenet import _toy_edge_network


@st.composite
def edge_networks(draw):
    """Small random edge database networks."""
    import itertools

    n = draw(st.integers(min_value=3, max_value=6))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=10,
                 unique=True)
    )
    network = EdgeDatabaseNetwork()
    for u, v in edges:
        count = draw(st.integers(min_value=1, max_value=3))
        for _ in range(count):
            items = draw(
                st.sets(st.integers(min_value=0, max_value=2),
                        min_size=1, max_size=3)
            )
            network.add_transaction(u, v, items)
    return network


class TestEdgeDecomposition:
    def test_toy_theme_0(self):
        decomposition = decompose_edge_network_pattern(
            _toy_edge_network(), (0,)
        )
        # The strong triangle survives α = 0 (pendant edge 3-4 has no
        # triangle); one level at its uniform cohesion 0.8.
        assert decomposition.num_edges == 3
        assert decomposition.thresholds() == [pytest.approx(0.8)]
        assert decomposition.max_alpha == pytest.approx(0.8)

    def test_missing_pattern_empty(self):
        decomposition = decompose_edge_network_pattern(
            _toy_edge_network(), (777,)
        )
        assert decomposition.is_empty()

    @settings(deadline=None, max_examples=25)
    @given(edge_networks(), st.sampled_from([0.0, 0.2, 0.5]))
    def test_reconstruction_matches_direct(self, network, alpha):
        """Equation 1 round-trip in the edge model."""
        for item in network.item_universe():
            decomposition = decompose_edge_network_pattern(network, (item,))
            reconstructed = set(
                decomposition.graph_at(alpha).iter_edges()
            )
            graph, freqs = induce_edge_theme_network(network, (item,))
            direct, _ = maximal_edge_pattern_truss(graph, freqs, alpha)
            assert reconstructed == set(direct.iter_edges())

    @settings(deadline=None, max_examples=20)
    @given(edge_networks())
    def test_levels_ascending_disjoint(self, network):
        for item in network.item_universe():
            decomposition = decompose_edge_network_pattern(network, (item,))
            thresholds = decomposition.thresholds()
            assert thresholds == sorted(thresholds)
            seen = set()
            for level in decomposition.levels:
                assert level.removed_edges
                for edge in level.removed_edges:
                    assert edge not in seen
                    seen.add(edge)


class TestEdgeTCTree:
    def test_toy_tree(self):
        tree = build_edge_tc_tree(_toy_edge_network())
        # Item 9 rides on the strong triangle's edges with frequency 0.2,
        # so it also forms an (α = 0) truss; 8 only sits on the pendant
        # edge and never closes a triangle.
        assert set(tree.patterns()) == {(0,), (1,), (9,)}

    def test_query_modes(self):
        tree = build_edge_tc_tree(_toy_edge_network())
        all_answers = tree.query(alpha=0.0)
        assert set(all_answers.patterns()) == {(0,), (1,), (9,)}
        only_0 = tree.query(pattern=(0,))
        assert only_0.patterns() == [(0,)]
        # Theme 1's triangle has uniform frequency 1.0 → cohesion 1.0;
        # it survives α = 0.9 while theme 0 (cohesion 0.8) does not.
        high = tree.query(alpha=0.9)
        assert high.patterns() == [(1,)]

    def test_query_negative_alpha(self):
        tree = build_edge_tc_tree(_toy_edge_network())
        with pytest.raises(TCIndexError):
            tree.query(alpha=-1.0)

    def test_query_answer_counts_item_pruned_children(self):
        """The Figure 5 VN contract: a touched child counts as visited
        even when the item prune discards it (same accounting as
        ``query_tc_tree``)."""
        tree = build_edge_tc_tree(_toy_edge_network())
        everything = tree.query(alpha=0.0)
        assert everything.visited_nodes == tree.num_nodes
        assert everything.retrieved_nodes == tree.num_nodes
        only_0 = tree.query(pattern=(0,))
        # All three layer-1 children are touched; two are item-pruned.
        assert only_0.visited_nodes == 3
        assert only_0.retrieved_nodes == 1

    def test_node_requires_nonempty_decomposition(self):
        from repro.edgenet.decomposition import EdgeTrussDecomposition
        from repro.edgenet.index import EdgeTCNode

        with pytest.raises(TCIndexError, match="non-empty"):
            EdgeTCNode(3, (3,), None)
        with pytest.raises(TCIndexError, match="non-empty"):
            EdgeTCNode(3, (3,), EdgeTrussDecomposition(pattern=(3,)))
        # The virtual root carries neither an item nor a decomposition.
        assert EdgeTCNode(None, (), None).item is None

    def test_query_communities(self):
        tree = build_edge_tc_tree(_toy_edge_network())
        communities = tree.query_communities(alpha=0.0)
        members = {frozenset(m) for _, m in communities}
        assert frozenset({1, 2, 3}) in members
        assert frozenset({5, 6, 7}) in members

    @settings(deadline=None, max_examples=20)
    @given(edge_networks())
    def test_tree_matches_mining(self, network):
        """Tree completeness: indexed patterns = edge_tcfi at α = 0 and
        every query equals fresh mining."""
        tree = build_edge_tc_tree(network)
        mined = edge_tcfi(network, 0.0)
        assert set(tree.patterns()) == set(mined.patterns())
        for alpha in (0.0, 0.3):
            answer = tree.query(alpha=alpha)
            queried = {t.pattern: t.edges() for t in answer.trusses}
            fresh = edge_tcfi(network, alpha)
            assert queried == {p: fresh[p].edges() for p in fresh}

    @settings(deadline=None, max_examples=10)
    @given(edge_networks())
    def test_max_length_cap(self, network):
        capped = build_edge_tc_tree(network, max_length=1)
        assert all(len(p) <= 1 for p in capped.patterns())


class TestEdgeBuildReuse:
    def test_reused_layer1_decompositions_keep_identity(self):
        from repro.edgenet.decomposition import (
            decompose_edge_network_pattern,
        )

        network = _toy_edge_network()
        cached = decompose_edge_network_pattern(
            network, (0,), capture_carrier=True
        )
        tree = build_edge_tc_tree(network, reuse={(0,): cached})
        assert tree.find_node((0,)).decomposition is cached

    def test_reuse_honored_at_one_worker_process_fallback(self):
        """The workers<=1 fallback of the process path must honor reuse
        exactly like the fanned-out path (it used to drop it)."""
        from repro.edgenet.decomposition import (
            decompose_edge_network_pattern,
        )
        from repro.index.parallel import build_tc_tree_process

        network = _toy_edge_network()
        cached = decompose_edge_network_pattern(
            network, (1,), capture_carrier=True
        )
        tree = build_tc_tree_process(
            network, workers=1, reuse={(1,): cached}
        )
        assert tree.find_node((1,)).decomposition is cached

    def test_legacy_oracle_rejects_reuse(self):
        network = _toy_edge_network()
        with pytest.raises(TCIndexError, match="oracle"):
            build_edge_tc_tree(
                network, backend="legacy", reuse={(0,): object()}
            )


class TestLegacyFrontierMemoization:
    def test_sibling_carriers_rebuilt_at_most_once(self, monkeypatch):
        """Regression for the per-pairing ``graph_at(0.0)`` rebuild: the
        legacy frontier must memoize lazily materialized sibling
        carriers, so the number of α = 0 reconstructions during a build
        is bounded by two per node (once as the expanding node, once as
        a pairing sibling) — not by the number of sibling pairings."""
        from repro.edgenet.decomposition import EdgeTrussDecomposition

        network = _toy_dense_network()
        calls = {"n": 0}
        original = EdgeTrussDecomposition.graph_at

        def counting_graph_at(self, alpha):
            if alpha == 0.0:
                calls["n"] += 1
            return original(self, alpha)

        monkeypatch.setattr(
            EdgeTrussDecomposition, "graph_at", counting_graph_at
        )
        tree = build_edge_tc_tree(network, backend="legacy")
        num_nodes = tree.num_nodes
        assert num_nodes >= 7  # the workload actually exercises pairing
        assert calls["n"] <= 2 * num_nodes


def _toy_dense_network() -> EdgeDatabaseNetwork:
    """A clique whose edges all share several items — every layer-1 node
    pairs with every later sibling, so an unmemoized frontier would
    rebuild carriers per pairing."""
    network = EdgeDatabaseNetwork()
    for u in range(6):
        for v in range(u + 1, 6):
            network.add_transaction(u, v, [0, 1, 2, 3])
            network.add_transaction(u, v, [0, 1, 2])
    return network


class TestEdgeNetworkIO:
    def test_round_trip_file(self, tmp_path):
        network = _toy_edge_network()
        path = tmp_path / "edge.json"
        save_edge_network(network, path)
        loaded = load_edge_network(path)
        assert loaded.graph == network.graph
        assert set(loaded.databases) == set(network.databases)
        for edge in network.databases:
            assert loaded.frequency(*edge, (0,)) == network.frequency(
                *edge, (0,)
            )

    @settings(deadline=None, max_examples=20)
    @given(edge_networks())
    def test_round_trip_dict(self, network):
        document = json.loads(json.dumps(edge_network_to_dict(network)))
        restored = edge_network_from_dict(document)
        assert restored.graph == network.graph
        for edge, db in network.databases.items():
            assert restored.databases[edge].num_transactions == (
                db.num_transactions
            )

    def test_bad_format(self):
        with pytest.raises(NetworkFormatError):
            edge_network_from_dict({"format": "nope"})

    def test_bad_edge_key(self):
        with pytest.raises(NetworkFormatError):
            edge_network_from_dict(
                {
                    "format": "repro-edgenetwork",
                    "version": 1,
                    "vertices": [0, 1],
                    "edges": [[0, 1]],
                    "databases": {"zero~one": [[1]]},
                }
            )

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{{{")
        with pytest.raises(NetworkFormatError):
            load_edge_network(path)
