"""The one Algorithm-5 walk, checked against an independent reference.

``query_tc_tree`` answers every backend — in-memory vertex and edge
trees, snapshot generations and live memory generations of the engine —
so engine == tree holds by construction. These tests pin the walk
itself, against a reference that follows no traversal order at all:
retrieved = every indexed ``p ⊆ q`` whose ``truss_at(α)`` is non-empty,
visited = the children of the root and of the retrieved nodes.

The module also holds the contracts that come with one walk: a
non-finite or negative α is refused on every backend, ``/stats`` counts
every query once whichever backend served it, a memory generation
rebuilds trusses for retrieved nodes only, and the tree's O(1) prune-α
equals the snapshot writer's ``prune_alpha_of``.
"""

from __future__ import annotations

import json
import math
import urllib.request

import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.datasets.synthetic import generate_synthetic_network
from repro.edgenet.index import build_edge_tc_tree
from repro.errors import TCIndexError
from repro.index.decomposition import TrussDecomposition
from repro.index.query import query_tc_tree
from repro.index.tctree import build_tc_tree
from repro.index.updates import Delta, apply_deltas
from repro.serve.engine import IndexedWarehouse
from repro.serve.live import LiveIndex
from repro.serve.server import start_server_thread
from repro.serve.snapshot import prune_alpha_of, write_snapshot
from tests.conftest import database_networks
from tests.edgenet.test_edge_index import edge_networks
from tests.serve.test_edge_snapshot import _edge_network


def _network():
    return generate_synthetic_network(
        num_items=6, num_seeds=2, mutation_rate=0.4,
        max_transactions=10, max_transaction_length=4, seed=7,
    )


@pytest.fixture(scope="module")
def vertex_tree():
    return build_tc_tree(_network())


@pytest.fixture(scope="module")
def edge_tree():
    return build_edge_tc_tree(_edge_network())


@pytest.fixture(scope="module")
def maintained_tree(vertex_tree):
    """A vertex tree after one incremental delta — what a live memory
    generation serves between compactions."""
    network = _network()
    vertex = sorted(network.databases)[1]
    result = apply_deltas(
        network, vertex_tree, [Delta.insert(vertex, [0, 3])],
        mode="incremental",
    )
    return result.tree


def _open_snapshot_engine(tree, directory) -> IndexedWarehouse:
    path = directory / f"{tree.kind}.tcsnap"
    write_snapshot(tree, path)
    return IndexedWarehouse.open(path)


def reference(tree, pattern, alpha):
    """``(retrieved, visited, pruned_pattern, pruned_alpha)`` from set
    definitions alone: no queue, no traversal order, no prune-α."""
    allowed = None if pattern is None else set(pattern)
    retrieved = {}
    for node in tree.iter_nodes():
        if allowed is None or allowed.issuperset(node.pattern):
            truss = node.decomposition.truss_at(alpha)
            if not truss.is_empty():
                retrieved[node.pattern] = truss
    expanded = [tree.root] + [
        node for node in tree.iter_nodes() if node.pattern in retrieved
    ]
    touched = [child for node in expanded for child in node.children]
    admitted = [
        child for child in touched
        if allowed is None or child.item in allowed
    ]
    pruned_alpha = sum(child.pattern not in retrieved for child in admitted)
    return retrieved, len(touched), len(touched) - len(admitted), pruned_alpha


def assert_matches_reference(answer, tree, pattern, alpha) -> None:
    retrieved, visited, pruned_pattern, pruned_alpha = reference(
        tree, pattern, alpha
    )
    assert answer.patterns() == sorted(retrieved)
    assert answer.retrieved_nodes == len(retrieved)
    assert answer.visited_nodes == visited
    assert answer.pruned_pattern == pruned_pattern
    assert answer.pruned_alpha == pruned_alpha
    for truss in answer.trusses:
        expected = retrieved[truss.pattern]
        assert set(truss.graph.iter_edges()) == set(
            expected.graph.iter_edges()
        )
        assert truss.frequencies == expected.frequencies


def _queries(tree):
    """Query patterns × thresholds that exercise both prunes: exact
    level boundaries (the tolerance edge), midpoints, and past α*."""
    longest = max(tree.patterns(), key=len)
    thresholds = sorted(
        {
            level.alpha
            for node in tree.iter_nodes()
            for level in node.decomposition.levels
        }
    )
    step = max(1, len(thresholds) // 6)
    picked = thresholds[::step]
    alphas = [0.0, *picked]
    alphas += [(a + b) / 2 for a, b in zip(picked, picked[1:])]
    alphas.append(thresholds[-1] + 1.0)
    patterns = [None, longest, longest[:1], (*longest, 10_000)]
    return [(pattern, alpha) for pattern in patterns for alpha in alphas]


class TestWalkMatchesReference:
    def test_vertex_tree(self, vertex_tree):
        for pattern, alpha in _queries(vertex_tree):
            answer = query_tc_tree(vertex_tree, pattern, alpha)
            assert_matches_reference(answer, vertex_tree, pattern, alpha)

    def test_edge_tree(self, edge_tree):
        for pattern, alpha in _queries(edge_tree):
            answer = edge_tree.query(pattern, alpha)
            assert_matches_reference(answer, edge_tree, pattern, alpha)

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_snapshot_engine(self, kind, request, tmp_path):
        tree = request.getfixturevalue(f"{kind}_tree")
        with _open_snapshot_engine(tree, tmp_path) as engine:
            assert engine.backend == "snapshot"
            for pattern, alpha in _queries(tree):
                answer = engine.query(pattern, alpha)
                assert_matches_reference(answer, tree, pattern, alpha)

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_live_memory_generation(self, kind, request, tmp_path):
        base = request.getfixturevalue(f"{kind}_tree")
        served = (
            request.getfixturevalue("maintained_tree")
            if kind == "vertex" else base
        )
        with _open_snapshot_engine(base, tmp_path) as engine:
            LiveIndex(engine).publish_tree(served)
            assert engine.backend == "memory"
            for pattern, alpha in _queries(served):
                answer = engine.query(pattern, alpha)
                assert answer.generation == 2
                assert_matches_reference(answer, served, pattern, alpha)


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("backend", ["tree", "snapshot", "memory"])
    def test_rejected_on_every_backend(
        self, backend, alpha, vertex_tree, tmp_path
    ):
        if backend == "tree":
            with pytest.raises(TCIndexError, match="alpha"):
                query_tc_tree(vertex_tree, alpha=alpha)
            return
        engine = (
            _open_snapshot_engine(vertex_tree, tmp_path)
            if backend == "snapshot"
            else IndexedWarehouse(tree=vertex_tree)
        )
        with engine:
            assert engine.backend == backend
            with pytest.raises(TCIndexError, match="alpha"):
                engine.query(alpha=alpha)
            # A refused query is not a served one.
            assert engine.stats()["queries_served"] == 0

    def test_cli_query_refuses_nan(self, vertex_tree, tmp_path):
        path = tmp_path / "index.tcsnap"
        write_snapshot(vertex_tree, path)
        with pytest.raises(TCIndexError, match="finite"):
            main(["query", str(path), "--alpha", "nan"])


class TestEngineAccounting:
    def test_stats_agree_across_backends(self, vertex_tree, tmp_path):
        """``queries_served`` and ``query_breakdown`` count the same
        queries, whichever backend answered them."""
        engine = _open_snapshot_engine(vertex_tree, tmp_path)
        server, _thread = start_server_thread(engine)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            answers = [engine.query(alpha=0.0).to_payload()]  # snapshot
            LiveIndex(engine).publish_tree(vertex_tree)
            answers.append(engine.query(alpha=0.0).to_payload())  # memory
            with urllib.request.urlopen(f"{base}/query?alpha=0.1") as reply:
                answers.append(json.load(reply))
            with urllib.request.urlopen(f"{base}/stats") as reply:
                stats = json.load(reply)
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
        assert [a["generation"] for a in answers] == [1, 2, 2]
        breakdown = stats["query_breakdown"]
        assert stats["queries_served"] == breakdown["queries"] == 3
        for key in ("visited_nodes", "retrieved_nodes"):
            assert breakdown[key] == sum(a[key] for a in answers)

    def test_memory_generation_rebuilds_only_retrieved_trusses(
        self, vertex_tree, monkeypatch
    ):
        prune_alphas = sorted(
            vertex_tree.prune_alpha(node) for node in vertex_tree.iter_nodes()
        )
        alpha = prune_alphas[len(prune_alphas) // 2]
        rebuilt = []
        truss_at = TrussDecomposition.truss_at

        def counting_truss_at(decomposition, at):
            rebuilt.append(decomposition.pattern)
            return truss_at(decomposition, at)

        monkeypatch.setattr(TrussDecomposition, "truss_at", counting_truss_at)
        engine = IndexedWarehouse(tree=vertex_tree)
        answer = engine.query(alpha=alpha)
        assert engine.backend == "memory"
        assert answer.pruned_alpha > 0 and answer.retrieved_nodes > 0
        assert sorted(rebuilt) == answer.patterns()


class TestTreePruneAlpha:
    """The tree's O(1) prune-α equals the snapshot TOC's ``prune_alpha_of``
    on every decomposition the code builds, in both models."""

    @staticmethod
    def assert_prune_alphas_agree(tree) -> None:
        for node in tree.iter_nodes():
            assert tree.prune_alpha(node) == prune_alpha_of(
                node.decomposition
            )

    def test_built_maintained_and_decoded_trees(
        self, vertex_tree, edge_tree, maintained_tree, tmp_path
    ):
        for tree in (vertex_tree, edge_tree, maintained_tree):
            self.assert_prune_alphas_agree(tree)
            with _open_snapshot_engine(tree, tmp_path) as engine:
                self.assert_prune_alphas_agree(engine.materialize_tree())

    @settings(deadline=None, max_examples=25)
    @given(database_networks())
    def test_random_vertex_networks(self, network):
        self.assert_prune_alphas_agree(build_tc_tree(network))

    @settings(deadline=None, max_examples=25)
    @given(edge_networks())
    def test_random_edge_networks(self, network):
        self.assert_prune_alphas_agree(build_edge_tc_tree(network))
