"""Golden fixtures for the edge payload kind of both snapshot formats.

``fixtures/golden_edge_v2.tcsnap`` (REPROTCS v2 with :data:`FLAG_EDGE`)
and ``fixtures/golden_edge_delta_v1.tcsnap`` (REPROTCD v1 with the edge
flag) were written from the seeded 9-vertex network of
``test_edge_snapshot.py``; the overlay carries one insert delta against
its first edge. They pin the same two contracts as the vertex goldens
(``test_golden_snapshot.py``, ``test_delta_snapshot.py``): the files
keep opening and decoding on every future build, and rebuilding the
same trees writes the same bytes.
"""

from __future__ import annotations

import copy
import struct
from pathlib import Path

import pytest

from repro.edgenet.index import build_edge_tc_tree
from repro.errors import TCIndexError
from repro.index.updates import Delta, apply_deltas
from repro.serve.snapshot import (
    DELTA_MAGIC,
    DELTA_VERSION,
    EDGE_VERSION,
    FLAG_EDGE,
    MAGIC,
    DeltaSnapshot,
    TCTreeSnapshot,
    apply_delta_to_tree,
    write_delta_snapshot,
    write_snapshot,
)
from tests.serve.test_edge_snapshot import _edge_network

FIXTURES = Path(__file__).parent / "fixtures"
FULL_FIXTURE = FIXTURES / "golden_edge_v2.tcsnap"
DELTA_FIXTURE = FIXTURES / "golden_edge_delta_v1.tcsnap"

EDGE_PATTERNS = [
    (0,), (0, 1), (0, 2), (0, 2, 3), (0, 3), (1,), (2,), (2, 3), (3,),
]
CHANGED_PATTERNS = [(0, 1), (0, 2), (1,), (2,), (3,)]


def golden_edge_maintenance():
    """(base_tree, updated_tree): one insert delta against edge (0, 4)."""
    network = _edge_network()
    base = build_edge_tc_tree(network)
    mutated = copy.deepcopy(network)
    result = apply_deltas(
        mutated, base, [Delta.insert((0, 4), [0, 3])], mode="incremental"
    )
    return base, result.tree


def _with_u32(fixture: Path, offset: int, value: int, tmp_path):
    """A copy of ``fixture`` with the header word at ``offset`` replaced
    (after the 8-byte magic: the version, then the flags)."""
    blob = bytearray(fixture.read_bytes())
    struct.pack_into("<I", blob, offset, value)
    crafted = tmp_path / f"crafted-{fixture.name}"
    crafted.write_bytes(blob)
    return crafted


class TestGoldenEdgeSnapshot:
    def test_header_is_v2_with_edge_flag(self):
        _magic, version, flags = struct.unpack_from(
            "<8sII", FULL_FIXTURE.read_bytes(), 0
        )
        assert (version, flags) == (EDGE_VERSION, FLAG_EDGE)

    def test_opens_and_decodes(self):
        with TCTreeSnapshot.open(FULL_FIXTURE) as snapshot:
            assert snapshot.kind == "edge"
            assert snapshot.num_items == 4
            assert snapshot.patterns() == EDGE_PATTERNS
            for index in range(snapshot.num_nodes):
                decomposition = snapshot.decode(index)
                assert decomposition.pattern == snapshot.pattern(index)
                assert not decomposition.is_empty()
                assert all(
                    len(key) == 2 for key in decomposition.frequencies
                )
                assert decomposition.max_alpha == pytest.approx(
                    snapshot.prune_alpha(index)
                )

    def test_write_is_byte_stable(self, tmp_path):
        out = tmp_path / "rebuilt.tcsnap"
        write_snapshot(build_edge_tc_tree(_edge_network()), out)
        assert out.read_bytes() == FULL_FIXTURE.read_bytes()

    def test_future_version_is_rejected(self, tmp_path):
        bumped = _with_u32(
            FULL_FIXTURE, len(MAGIC), EDGE_VERSION + 1, tmp_path
        )
        with pytest.raises(TCIndexError, match="version"):
            TCTreeSnapshot.open(bumped)

    def test_unknown_flag_bits_are_rejected(self, tmp_path):
        crafted = _with_u32(
            FULL_FIXTURE, len(MAGIC) + 4, FLAG_EDGE | 0x80, tmp_path
        )
        with pytest.raises(TCIndexError, match="flags"):
            TCTreeSnapshot.open(crafted)


class TestGoldenEdgeDelta:
    def test_opens_with_pinned_metadata(self):
        delta = DeltaSnapshot.open(DELTA_FIXTURE)
        assert delta.kind == "edge"
        assert (delta.generation, delta.base_generation) == (2, 1)
        assert delta.num_items == 4
        assert delta.removed_patterns == []
        assert delta.changed_patterns == CHANGED_PATTERNS
        for index in range(delta.num_changed):
            decomposition = delta.decode(index)
            assert decomposition.pattern == CHANGED_PATTERNS[index]
            assert not decomposition.is_empty()

    def test_write_is_byte_stable(self, tmp_path):
        base, updated = golden_edge_maintenance()
        out = tmp_path / "rebuilt.tcdelta"
        write_delta_snapshot(
            base, updated, out, generation=2, base_generation=1
        )
        assert out.read_bytes() == DELTA_FIXTURE.read_bytes()

    def test_base_plus_overlay_reconstructs_updated(self, tmp_path):
        with TCTreeSnapshot.open(FULL_FIXTURE) as snapshot:
            base = snapshot.materialize_tree()
        reconstructed = apply_delta_to_tree(
            base, DeltaSnapshot.open(DELTA_FIXTURE)
        )
        _, updated = golden_edge_maintenance()
        a = tmp_path / "reconstructed.tcsnap"
        b = tmp_path / "updated.tcsnap"
        write_snapshot(reconstructed, a)
        write_snapshot(updated, b)
        assert a.read_bytes() == b.read_bytes()

    def test_future_version_is_rejected(self, tmp_path):
        bumped = _with_u32(
            DELTA_FIXTURE, len(DELTA_MAGIC), DELTA_VERSION + 1, tmp_path
        )
        with pytest.raises(TCIndexError, match="version"):
            DeltaSnapshot.open(bumped)

    def test_unknown_flag_bits_are_rejected(self, tmp_path):
        crafted = _with_u32(
            DELTA_FIXTURE, len(DELTA_MAGIC) + 4, 0x80, tmp_path
        )
        with pytest.raises(TCIndexError, match="flags"):
            DeltaSnapshot.open(crafted)
