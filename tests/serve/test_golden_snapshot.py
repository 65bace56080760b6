"""Golden-fixture regression for the REPROTCS v1 snapshot format.

``fixtures/golden_v1.tcsnap`` was written by PR 4 from a deterministic
synthetic network. Two contracts are pinned:

1. **Cross-version open** — a v1 file written by an older build must keep
   opening and decoding on every future build. If this fails, a reader
   change broke the on-disk contract.
2. **Byte-stable writes** — rebuilding the identical tree must reproduce
   the identical bytes. Writer output covers the format *and* the
   numeric pipeline (threshold floats are raw binary64), so any change
   to either MUST bump :data:`repro.serve.snapshot.VERSION`, regenerate
   the fixture for the new version, and keep this v1 file (plus this
   open test) as the back-compat witness.
"""

from __future__ import annotations

import struct
from pathlib import Path

import pytest

from repro.datasets.synthetic import generate_synthetic_network
from repro.errors import TCIndexError
from repro.index.tctree import build_tc_tree
from repro.serve.snapshot import (
    FLAG_EDGE,
    MAGIC,
    VERSION,
    TCTreeSnapshot,
    write_snapshot,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden_v1.tcsnap"

GOLDEN_PATTERNS = [
    (0,), (0, 3), (0, 4), (1,), (1, 2), (1, 3), (1, 4),
    (2,), (2, 3), (2, 4), (3,), (3, 4), (4,),
]


def golden_network():
    return generate_synthetic_network(
        num_items=5,
        num_seeds=2,
        mutation_rate=0.4,
        max_transactions=10,
        max_transaction_length=4,
        seed=11,
    )


class TestGoldenFixture:
    def test_version_is_pinned(self):
        # Bumping the format version requires a new golden fixture for
        # that version; this file stays as the v1 back-compat witness.
        assert VERSION == 1

    def test_opens_and_decodes(self):
        with TCTreeSnapshot.open(FIXTURE) as snapshot:
            assert snapshot.num_nodes == len(GOLDEN_PATTERNS)
            assert snapshot.num_items == 5
            assert snapshot.patterns() == GOLDEN_PATTERNS
            for index in range(snapshot.num_nodes):
                decomposition = snapshot.decode(index)
                assert decomposition.pattern == snapshot.pattern(index)
                assert not decomposition.is_empty()
                assert decomposition.max_alpha == pytest.approx(
                    snapshot.prune_alpha(index)
                )

    def test_materializes_round_trip(self):
        with TCTreeSnapshot.open(FIXTURE) as snapshot:
            tree = snapshot.materialize_tree()
        assert tree.kind == "vertex"
        assert tree.patterns() == GOLDEN_PATTERNS

    def test_write_is_byte_stable(self, tmp_path):
        """Rebuilding the same tree must reproduce the fixture exactly.

        A failure here means the build's numeric pipeline or the writer
        changed output for existing data — bump VERSION and regenerate
        (see module docstring) rather than silently shifting bytes.
        """
        tree = build_tc_tree(golden_network())
        out = tmp_path / "rebuilt.tcsnap"
        write_snapshot(tree, out)
        assert out.read_bytes() == FIXTURE.read_bytes()

    def test_future_version_is_rejected(self, tmp_path):
        blob = bytearray(FIXTURE.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), VERSION + 1)
        bumped = tmp_path / "bumped.tcsnap"
        bumped.write_bytes(blob)
        with pytest.raises(TCIndexError, match="version"):
            TCTreeSnapshot.open(bumped)

    @pytest.mark.parametrize("flags", [FLAG_EDGE, 0x80, 0xFFFFFFFF])
    def test_foreign_flags_are_rejected(self, tmp_path, flags):
        """The flags must name a payload kind exactly: the edge flag on
        a v1 file, or a bit no model declares, is refused — not read as
        a vertex snapshot."""
        blob = bytearray(FIXTURE.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC) + 4, flags)
        crafted = tmp_path / "flags.tcsnap"
        crafted.write_bytes(blob)
        with pytest.raises(TCIndexError):
            TCTreeSnapshot.open(crafted)
