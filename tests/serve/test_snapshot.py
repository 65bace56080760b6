"""Tests for the binary TC-Tree snapshot format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import TCIndexError
from repro.index.warehouse import ThemeCommunityWarehouse
from repro.serve.snapshot import (
    MAGIC,
    TCTreeSnapshot,
    estimate_snapshot_bytes,
    is_snapshot_file,
    migrate_json_to_snapshot,
    prune_alpha_of,
    write_snapshot,
)
from tests.conftest import database_networks


def _assert_lossless(original, restored) -> None:
    assert restored.tree.patterns() == original.tree.patterns()
    for pattern in original.tree.patterns():
        ours = original.tree.find_node(pattern).decomposition
        theirs = restored.tree.find_node(pattern).decomposition
        assert theirs.thresholds() == ours.thresholds()
        assert theirs.frequencies == ours.frequencies
        assert [level.removed_edges for level in theirs.levels] == [
            level.removed_edges for level in ours.levels
        ]


class TestRoundTrip:
    def test_toy_round_trip(self, toy_warehouse, toy_snapshot_path):
        with TCTreeSnapshot.open(toy_snapshot_path) as snapshot:
            assert snapshot.num_nodes == toy_warehouse.num_indexed_trusses
            assert snapshot.patterns() == toy_warehouse.tree.patterns()
            _assert_lossless(
                toy_warehouse,
                ThemeCommunityWarehouse(snapshot.materialize_tree()),
            )

    @settings(deadline=None, max_examples=15)
    @given(database_networks())
    def test_random_round_trip(self, tmp_path_factory, network):
        warehouse = ThemeCommunityWarehouse.build(network)
        path = tmp_path_factory.mktemp("snap") / "net.tcsnap"
        write_snapshot(warehouse.tree, path)
        with TCTreeSnapshot.open(path) as snapshot:
            assert snapshot.num_items == warehouse.tree.num_items
            _assert_lossless(
                warehouse,
                ThemeCommunityWarehouse(snapshot.materialize_tree()),
            )

    def test_empty_tree(self, tmp_path):
        from repro.network.dbnetwork import DatabaseNetwork

        warehouse = ThemeCommunityWarehouse.build(DatabaseNetwork())
        path = tmp_path / "empty.tcsnap"
        write_snapshot(warehouse.tree, path)
        with TCTreeSnapshot.open(path) as snapshot:
            assert snapshot.num_nodes == 0
            assert snapshot.patterns() == []
            assert snapshot.materialize_tree().num_nodes == 0

    def test_reported_size_matches_file(
        self, toy_warehouse, tmp_path
    ):
        path = tmp_path / "toy.tcsnap"
        written = write_snapshot(toy_warehouse.tree, path)
        assert path.stat().st_size == written

    def test_rewrite_is_atomic_for_open_readers(
        self, toy_warehouse, tmp_path
    ):
        """Re-indexing over a served snapshot must swap the inode, not
        truncate it in place under a live reader's mmap."""
        path = tmp_path / "toy.tcsnap"
        write_snapshot(toy_warehouse.tree, path)
        with TCTreeSnapshot.open(path) as snapshot:
            write_snapshot(toy_warehouse.tree, path)  # overwrite
            # The open reader still sees a complete, decodable file.
            for i in range(snapshot.num_nodes):
                snapshot.decode(i)
        assert not list(tmp_path.glob("*.tmp"))


class TestLazyDecoding:
    def test_decode_single_node(self, toy_warehouse, toy_snapshot_path):
        with TCTreeSnapshot.open(toy_snapshot_path) as snapshot:
            for i in range(snapshot.num_nodes):
                pattern = snapshot.pattern(i)
                expected = toy_warehouse.tree.find_node(
                    pattern
                ).decomposition
                decoded = snapshot.decode(i)
                assert decoded.pattern == pattern
                assert decoded.thresholds() == expected.thresholds()
                assert decoded.frequencies == expected.frequencies

    def test_prune_alpha_matches_emptiness(
        self, toy_warehouse, toy_snapshot_path
    ):
        """The TOC threshold reproduces edges_at emptiness exactly."""
        from repro.core.mptd import COHESION_TOLERANCE

        with TCTreeSnapshot.open(toy_snapshot_path) as snapshot:
            for i in range(snapshot.num_nodes):
                decomposition = snapshot.decode(i)
                assert snapshot.prune_alpha(i) == prune_alpha_of(
                    decomposition
                )
                for alpha in (0.0, 0.3, 0.45, 0.6, 1.0):
                    bound = alpha + COHESION_TOLERANCE
                    assert (
                        snapshot.prune_alpha(i) > bound
                    ) == bool(decomposition.edges_at(alpha))

    def test_children_adjacency(self, toy_warehouse, toy_snapshot_path):
        with TCTreeSnapshot.open(toy_snapshot_path) as snapshot:
            from repro.serve.snapshot import ROOT

            root_patterns = sorted(
                snapshot.pattern(i) for i in snapshot.children(ROOT)
            )
            assert root_patterns == [
                c.pattern for c in toy_warehouse.tree.root.children
            ]


class TestMigration:
    def test_json_to_binary_lossless(self, toy_warehouse, tmp_path):
        json_path = tmp_path / "toy.tctree.json"
        snap_path = tmp_path / "toy.tcsnap"
        toy_warehouse.save(json_path)
        json_bytes, snapshot_bytes = migrate_json_to_snapshot(
            json_path, snap_path
        )
        assert json_bytes == json_path.stat().st_size
        assert snapshot_bytes == snap_path.stat().st_size
        with TCTreeSnapshot.open(snap_path) as snapshot:
            _assert_lossless(
                toy_warehouse,
                ThemeCommunityWarehouse(snapshot.materialize_tree()),
            )

    @settings(deadline=None, max_examples=10)
    @given(database_networks())
    def test_migrated_round_trip_random(self, tmp_path_factory, network):
        """JSON → binary → memory preserves every float and edge."""
        warehouse = ThemeCommunityWarehouse.build(network)
        base = tmp_path_factory.mktemp("migrate")
        warehouse.save(base / "net.json")
        migrate_json_to_snapshot(base / "net.json", base / "net.tcsnap")
        _assert_lossless(
            warehouse, ThemeCommunityWarehouse.load(base / "net.tcsnap")
        )

    def test_warehouse_load_sniffs_snapshot(
        self, toy_warehouse, toy_snapshot_path
    ):
        loaded = ThemeCommunityWarehouse.load(toy_snapshot_path)
        _assert_lossless(toy_warehouse, loaded)

    def test_is_snapshot_file(self, toy_snapshot_path, tmp_path):
        assert is_snapshot_file(toy_snapshot_path)
        json_path = tmp_path / "x.json"
        json_path.write_text("{}")
        assert not is_snapshot_file(json_path)
        assert not is_snapshot_file(tmp_path / "missing")


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tcsnap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(TCIndexError):
            TCTreeSnapshot.open(path)

    def test_bad_version(self, toy_snapshot_path):
        data = bytearray(toy_snapshot_path.read_bytes())
        data[8] = 99  # version field follows the 8-byte magic
        toy_snapshot_path.write_bytes(bytes(data))
        with pytest.raises(TCIndexError):
            TCTreeSnapshot.open(toy_snapshot_path)

    def test_truncated_file(self, toy_snapshot_path):
        data = toy_snapshot_path.read_bytes()
        toy_snapshot_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TCIndexError):
            TCTreeSnapshot.open(toy_snapshot_path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(TCIndexError):
            TCTreeSnapshot.open(path)

    def test_magic_prefix_only(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(MAGIC)
        with pytest.raises(TCIndexError):
            TCTreeSnapshot.open(path)

    def test_duplicate_sibling_rejected(self, tmp_path):
        """Same invariant from_dict enforces on JSON: two siblings with
        one item are a malformed tree and must not load."""
        from repro.index.decomposition import (
            DecompositionLevel,
            TrussDecomposition,
        )
        from repro.index.tcnode import TCNode
        from repro.index.tctree import TCTree

        root = TCNode(None, (), None)
        for _ in range(2):  # two nodes for pattern (0,)
            decomposition = TrussDecomposition(
                pattern=(0,),
                levels=[DecompositionLevel(0.5, [(1, 2)])],
                frequencies={1: 0.5, 2: 0.5},
            )
            root.children.append(TCNode(0, (0,), decomposition))
        path = tmp_path / "dup.tcsnap"
        write_snapshot(TCTree(root, num_items=1), path)
        with pytest.raises(TCIndexError, match="duplicate"):
            TCTreeSnapshot.open(path)


class TestSizeEstimate:
    def test_estimate_is_exact(self, toy_warehouse, toy_snapshot_path):
        from repro.index.stats import tc_tree_statistics

        stats = tc_tree_statistics(toy_warehouse.tree)
        assert (
            estimate_snapshot_bytes(
                stats.num_nodes,
                stats.total_decomposition_levels,
                stats.total_edges_stored,
                stats.total_frequency_entries,
            )
            == toy_snapshot_path.stat().st_size
        )
