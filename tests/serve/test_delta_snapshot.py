"""Golden-fixture regression for the REPROTCD v1 overlay delta format.

``fixtures/golden_delta_v1.tcsnap`` was written from the same
deterministic network as ``golden_v1.tcsnap`` (the full-snapshot golden)
plus a pinned two-delta maintenance stream. The same two contracts are
pinned as for the full format: a v1 overlay written by an older build
must keep opening and applying on every future build, and rewriting the
identical diff must reproduce identical bytes. Any change to either MUST
bump :data:`repro.serve.snapshot.DELTA_VERSION`, regenerate the fixture,
and keep this file as the back-compat witness.
"""

from __future__ import annotations

import copy
import struct
from pathlib import Path

import pytest

from repro.errors import TCIndexError
from repro.graphs.graph import Graph
from repro.index.tctree import build_tc_tree
from repro.index.updates import Delta, apply_deltas
from repro.network.dbnetwork import DatabaseNetwork
from repro.serve.snapshot import (
    DELTA_MAGIC,
    DELTA_VERSION,
    DeltaSnapshot,
    TCTreeSnapshot,
    apply_delta_to_tree,
    diff_trees,
    is_delta_snapshot_file,
    is_snapshot_file,
    write_delta_snapshot,
    write_snapshot,
)
from repro.txdb.database import TransactionDatabase
from tests.serve.test_golden_snapshot import FIXTURE as FULL_FIXTURE
from tests.serve.test_golden_snapshot import golden_network

DELTA_FIXTURE = (
    Path(__file__).parent / "fixtures" / "golden_delta_v1.tcsnap"
)


def golden_maintenance():
    """(base_tree, updated_tree): the pinned delta stream applied to the
    golden network — an insert plus a delete against vertex 0."""
    network = golden_network()
    base = build_tc_tree(network)
    mutated = copy.deepcopy(network)
    deltas = [Delta.insert(0, [0, 2]), Delta.delete(0, 0)]
    result = apply_deltas(mutated, base, deltas, mode="incremental")
    return base, result.tree


class TestGoldenDeltaFixture:
    def test_version_is_pinned(self):
        assert DELTA_VERSION == 1

    def test_opens_with_pinned_metadata(self):
        delta = DeltaSnapshot.open(DELTA_FIXTURE)
        assert delta.generation == 2
        assert delta.base_generation == 1
        assert delta.num_items == 5
        assert delta.kind == "vertex"
        assert delta.removed_patterns == []
        assert delta.changed_patterns == [(0,), (2,), (3,)]
        for index in range(delta.num_changed):
            decomposition = delta.decode(index)
            assert decomposition.pattern == delta.changed_patterns[index]
            assert not decomposition.is_empty()

    def test_write_is_byte_stable(self, tmp_path):
        base, updated = golden_maintenance()
        out = tmp_path / "rebuilt.tcdelta"
        write_delta_snapshot(
            base, updated, out, generation=2, base_generation=1
        )
        assert out.read_bytes() == DELTA_FIXTURE.read_bytes()

    def test_base_plus_overlay_reconstructs_updated(self, tmp_path):
        """The serving contract: full base snapshot + overlay chain ==
        the updated index, bit for bit."""
        base_tree = TCTreeSnapshot.open(FULL_FIXTURE).materialize_tree()
        delta = DeltaSnapshot.open(DELTA_FIXTURE)
        reconstructed = apply_delta_to_tree(base_tree, delta)
        _, updated = golden_maintenance()
        a = tmp_path / "reconstructed.tcsnap"
        b = tmp_path / "updated.tcsnap"
        write_snapshot(reconstructed, a)
        write_snapshot(updated, b)
        assert a.read_bytes() == b.read_bytes()

    def test_future_version_is_rejected(self, tmp_path):
        blob = bytearray(DELTA_FIXTURE.read_bytes())
        struct.pack_into("<I", blob, len(DELTA_MAGIC), DELTA_VERSION + 1)
        bumped = tmp_path / "bumped.tcdelta"
        bumped.write_bytes(blob)
        with pytest.raises(TCIndexError, match="version"):
            DeltaSnapshot.open(bumped)

    def test_bad_magic_is_rejected(self, tmp_path):
        blob = bytearray(DELTA_FIXTURE.read_bytes())
        blob[:8] = b"NOTADELT"
        bad = tmp_path / "bad.tcdelta"
        bad.write_bytes(blob)
        with pytest.raises(TCIndexError):
            DeltaSnapshot.open(bad)

    def test_format_sniffing(self):
        assert is_delta_snapshot_file(DELTA_FIXTURE)
        assert not is_delta_snapshot_file(FULL_FIXTURE)
        assert not is_snapshot_file(DELTA_FIXTURE)


class TestDiffAndApply:
    def _removal_network(self):
        # Item 1 lives in exactly one transaction of vertex 0 — deleting
        # it zeroes the item-1 frequency there, which empties the (1,)
        # and (0, 1) trusses (a 3-truss needs all three triangle
        # vertices), so those patterns vanish from the tree.
        graph = Graph([(0, 1), (1, 2), (0, 2)])
        databases = {
            0: TransactionDatabase([[0, 1], [0]]),
            1: TransactionDatabase([[0, 1]]),
            2: TransactionDatabase([[0, 1]]),
        }
        return DatabaseNetwork(graph, databases)

    def test_delta_carries_removed_patterns(self, tmp_path):
        network = self._removal_network()
        base = build_tc_tree(network)
        assert (1,) in base.patterns()
        result = apply_deltas(
            network, base, [Delta.delete(0, 0)], mode="incremental"
        )
        assert (1,) not in result.tree.patterns()
        removed, changed = diff_trees(base, result.tree)
        assert (1,) in removed
        out = tmp_path / "removal.tcdelta"
        write_delta_snapshot(
            base, result.tree, out, generation=2, base_generation=1
        )
        delta = DeltaSnapshot.open(out)
        assert (1,) in delta.removed_patterns
        reconstructed = apply_delta_to_tree(base, delta)
        a = tmp_path / "a.tcsnap"
        b = tmp_path / "b.tcsnap"
        write_snapshot(reconstructed, a)
        write_snapshot(result.tree, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unchanged_trees_diff_empty(self, tmp_path):
        base = build_tc_tree(self._removal_network())
        result = apply_deltas(self._removal_network(), base, [])
        removed, changed = diff_trees(base, result.tree)
        assert removed == []
        assert changed == []

    def test_generation_must_advance_base(self, tmp_path):
        base, updated = golden_maintenance()
        with pytest.raises(TCIndexError):
            write_delta_snapshot(
                base, updated, tmp_path / "x.tcdelta",
                generation=1, base_generation=1,
            )

    def test_apply_rejects_kind_mismatch(self):
        from repro.edgenet.index import build_edge_tc_tree
        from repro.edgenet.network import EdgeDatabaseNetwork

        edge_network = EdgeDatabaseNetwork()
        edge_network.add_transaction(0, 1, [0, 1])
        edge_tree = build_edge_tc_tree(edge_network, backend="serial")
        delta = DeltaSnapshot.open(DELTA_FIXTURE)
        with pytest.raises(TCIndexError):
            apply_delta_to_tree(edge_tree, delta)
