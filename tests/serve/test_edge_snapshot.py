"""Edge TC-Tree serving: REPROTCS v2 payload kind, engine dispatch, HTTP.

The in-memory :meth:`EdgeTCTree.query` is the oracle; the snapshot-backed
engine must reproduce its answers bit-identically, exactly as the vertex
serving suite demands of ``query_tc_tree``.
"""

from __future__ import annotations

import json
import struct
import urllib.request

import pytest

from repro.edgenet.index import build_edge_tc_tree
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.errors import TCIndexError
from repro.index.warehouse import ThemeCommunityWarehouse
from repro.serve.engine import IndexedWarehouse
from repro.serve.snapshot import (
    EDGE_VERSION,
    FLAG_EDGE,
    MAGIC,
    TCTreeSnapshot,
    is_snapshot_file,
    write_snapshot,
)
from repro.serve.server import start_server_thread
from tests.serve.conftest import assert_answers_identical


def _edge_network() -> EdgeDatabaseNetwork:
    import random

    rng = random.Random(23)
    network = EdgeDatabaseNetwork()
    for u in range(9):
        for v in range(u + 1, 9):
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, 3)):
                    items = [i for i in range(4) if rng.random() < 0.6]
                    if items:
                        network.add_transaction(u, v, items)
    return network


@pytest.fixture(scope="module")
def edge_tree():
    return build_edge_tc_tree(_edge_network())


@pytest.fixture()
def edge_snapshot_path(edge_tree, tmp_path):
    path = tmp_path / "edge.tcsnap"
    write_snapshot(edge_tree, path)
    return path


class TestEdgeSnapshotFormat:
    def test_header_carries_v2_and_edge_flag(self, edge_snapshot_path):
        blob = edge_snapshot_path.read_bytes()
        magic, version, flags = struct.unpack_from("<8sII", blob, 0)
        assert magic == MAGIC
        assert version == EDGE_VERSION
        assert flags & FLAG_EDGE
        assert is_snapshot_file(edge_snapshot_path)

    def test_open_round_trips(self, edge_tree, edge_snapshot_path):
        with TCTreeSnapshot.open(edge_snapshot_path) as snapshot:
            assert snapshot.kind == "edge"
            assert snapshot.num_nodes == edge_tree.num_nodes
            assert snapshot.num_items == edge_tree.num_items
            assert snapshot.patterns() == edge_tree.patterns()
            for index in range(snapshot.num_nodes):
                decoded = snapshot.decode(index)
                original = edge_tree.find_node(
                    snapshot.pattern(index)
                ).decomposition
                assert decoded.pattern == original.pattern
                assert decoded.thresholds() == original.thresholds()
                assert decoded.frequencies == original.frequencies
                assert [
                    level.removed_edges for level in decoded.levels
                ] == [level.removed_edges for level in original.levels]

    def test_materialize_dispatch(self, edge_tree, edge_snapshot_path):
        with TCTreeSnapshot.open(edge_snapshot_path) as snapshot:
            rebuilt = snapshot.materialize_tree()
        # The vertex warehouse refuses an edge file outright.
        with pytest.raises(TCIndexError, match="edge"):
            ThemeCommunityWarehouse.load(edge_snapshot_path)
        assert rebuilt.kind == "edge"
        assert rebuilt.patterns() == edge_tree.patterns()
        for alpha in (0.0, 0.3):
            assert_answers_identical(
                edge_tree.query(alpha=alpha), rebuilt.query(alpha=alpha)
            )

    def test_stats_snapshot_estimate_is_exact(
        self, edge_tree, edge_snapshot_path
    ):
        """The capacity-planning estimate must equal the written size —
        edge payloads charge 24 bytes per frequency entry (endpoint
        pair + value), not the vertex layout's 16."""
        from repro.index.stats import tc_tree_statistics

        stats = tc_tree_statistics(edge_tree)
        assert stats.kind == "edge"
        assert (
            stats.estimated_snapshot_bytes
            == edge_snapshot_path.stat().st_size
        )

    def test_v2_without_edge_flag_is_rejected(self, edge_snapshot_path):
        blob = bytearray(edge_snapshot_path.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC) + 4, 0)  # clear flags
        bad = edge_snapshot_path.with_name("noflag.tcsnap")
        bad.write_bytes(blob)
        with pytest.raises(TCIndexError, match="version"):
            TCTreeSnapshot.open(bad)


class TestEdgeEngine:
    def test_engine_answers_match_tree(self, edge_tree, edge_snapshot_path):
        with IndexedWarehouse.open(edge_snapshot_path) as engine:
            assert engine.backend == "snapshot"
            assert engine.kind == "edge"
            for pattern in (None, (0,), (1, 2), (99,)):
                for alpha in (0.0, 0.2, 0.5):
                    assert_answers_identical(
                        edge_tree.query(pattern=pattern, alpha=alpha),
                        engine.query(pattern=pattern, alpha=alpha),
                    )

    def test_alpha_range_from_toc(self, edge_tree, edge_snapshot_path):
        with IndexedWarehouse.open(edge_snapshot_path) as engine:
            low, high = engine.alpha_range()
        assert low == 0.0
        assert high == pytest.approx(edge_tree.max_alpha())

    def test_stats_kind(self, edge_snapshot_path):
        with IndexedWarehouse.open(edge_snapshot_path) as engine:
            stats = engine.stats()
        assert stats["kind"] == "edge"
        assert stats["backend"] == "snapshot"


class TestEdgeServing:
    def test_served_end_to_end(self, edge_tree, edge_snapshot_path):
        engine = IndexedWarehouse.open(edge_snapshot_path)
        server, _thread = start_server_thread(engine)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with urllib.request.urlopen(
                base + "/query?alpha=0.2", timeout=10
            ) as response:
                payload = json.load(response)
            expected = edge_tree.query(alpha=0.2)
            expected.generation = engine.generation
            assert payload == expected.to_payload()
            with urllib.request.urlopen(
                base + "/stats", timeout=10
            ) as response:
                stats = json.load(response)
            assert stats["kind"] == "edge"
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
