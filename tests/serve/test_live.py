"""LiveIndex writer tier: overlay ingestion, compaction, watching."""

from __future__ import annotations

import time

import pytest

from repro.datasets.synthetic import generate_synthetic_network
from repro.errors import ServeError, TCIndexError
from repro.index.tctree import build_tc_tree
from repro.index.updates import Delta, apply_deltas
from repro.obs.metrics import use_registry
from repro.serve.engine import IndexedWarehouse
from repro.serve.live import LiveIndex
from repro.serve.snapshot import write_delta_snapshot, write_snapshot


@pytest.fixture()
def chain(tmp_path):
    """(engine, overlay paths): a base engine plus three applicable
    overlay files gen-2..4 written to ``tmp_path``."""
    network = generate_synthetic_network(
        num_items=5, num_seeds=2, mutation_rate=0.4,
        max_transactions=10, max_transaction_length=4, seed=23,
    )
    tree = build_tc_tree(network)
    snap = tmp_path / "base.tcsnap"
    write_snapshot(tree, snap)
    engine = IndexedWarehouse.open(snap)
    vertices = sorted(network.databases)
    overlays = []
    for generation in (2, 3, 4):
        result = apply_deltas(
            network, tree,
            [Delta.insert(vertices[generation], [generation % 5])],
            mode="incremental",
        )
        path = tmp_path / f"gen-{generation:08d}.tcdelta"
        write_delta_snapshot(
            tree, result.tree, path,
            generation=generation, base_generation=generation - 1,
        )
        tree = result.tree
        overlays.append(path)
    yield engine, overlays
    engine.close()


class TestApplyDelta:
    def test_accepts_paths_and_advances_generations(self, chain):
        engine, overlays = chain
        live = LiveIndex(engine)
        for expected, overlay in enumerate(overlays, start=2):
            summary = live.apply_delta(overlay)
            assert summary["generation"] == expected
            assert engine.generation == expected
        assert live.deltas_applied == 3

    def test_stale_overlay_rejected(self, chain):
        engine, overlays = chain
        live = LiveIndex(engine)
        live.apply_delta(overlays[0])
        with pytest.raises(TCIndexError, match="base generation"):
            live.apply_delta(overlays[0])  # base 1, served 2

    def test_out_of_order_overlay_rejected(self, chain):
        engine, overlays = chain
        live = LiveIndex(engine)
        with pytest.raises(TCIndexError, match="base generation"):
            live.apply_delta(overlays[1])  # base 2, served 1

    def test_compaction_swaps_to_snapshot(self, chain, tmp_path):
        engine, overlays = chain
        compact_dir = tmp_path / "compact"
        compact_dir.mkdir()
        live = LiveIndex(engine, directory=compact_dir,
                         compact_threshold=2)
        first = live.apply_delta(overlays[0])
        assert not first["compacted"]
        assert engine.backend == "memory"  # overlay served from memory
        second = live.apply_delta(overlays[1])
        assert second["compacted"]
        assert engine.backend == "snapshot"
        assert (compact_dir / "gen-00000003.tcsnap").exists()
        assert live.overlays_since_compaction == 0
        # The chain keeps going on top of the compacted snapshot.
        third = live.apply_delta(overlays[2])
        assert engine.generation == 4
        assert not third["compacted"]

    def test_compact_threshold_must_be_positive(self, chain):
        engine, _ = chain
        with pytest.raises(ServeError):
            LiveIndex(engine, compact_threshold=0)


class TestPublishTree:
    def test_publishes_and_tracks(self, chain):
        engine, _ = chain
        live = LiveIndex(engine)
        tree = engine.materialize_tree()
        assert live.publish_tree(tree) == 2
        assert engine.generation == 2
        assert live.deltas_applied == 1


class TestPublishMetrics:
    def test_both_publish_paths_count_and_time_alike(self, chain):
        """Every publication, by overlay or by tree, bumps the counter
        and adds one publish-seconds sample, so the two always agree."""
        engine, overlays = chain
        with use_registry() as registry:
            live = LiveIndex(engine)

            def counts():
                applied = registry.counters("repro_live_deltas_applied_total")
                timed = registry.histograms("repro_live_publish_seconds")
                return (
                    sum(applied.values()),
                    sum(h.count for h in timed.values()),
                )

            live.apply_delta(overlays[0])
            assert counts() == (1, 1)
            live.publish_tree(engine.materialize_tree())
            assert counts() == (2, 2)


class TestWatcher:
    def test_poll_once_applies_in_generation_order(self, chain):
        engine, overlays = chain
        live = LiveIndex(engine, directory=overlays[0].parent)
        assert live.poll_once() == 3
        assert engine.generation == 4
        assert live.watch_errors == []
        # A second pass finds nothing new.
        assert live.poll_once() == 0

    def test_poll_defers_future_base_until_chain_catches_up(
        self, chain, tmp_path
    ):
        engine, overlays = chain
        watch_dir = tmp_path / "watch"
        watch_dir.mkdir()
        # Only gen-3 present: its base (2) is not served yet.
        (watch_dir / overlays[1].name).write_bytes(
            overlays[1].read_bytes()
        )
        live = LiveIndex(engine, directory=watch_dir)
        assert live.poll_once() == 0
        assert engine.generation == 1
        assert live.watch_errors == []  # deferred, not an error
        # Its predecessor arrives: both apply on the next pass.
        (watch_dir / overlays[0].name).write_bytes(
            overlays[0].read_bytes()
        )
        assert live.poll_once() == 2
        assert engine.generation == 3

    def test_poll_skips_superseded_overlays(self, chain, tmp_path):
        engine, overlays = chain
        live = LiveIndex(engine)
        live.apply_delta(overlays[0])
        live.apply_delta(overlays[1])
        watch_dir = tmp_path / "late"
        watch_dir.mkdir()
        (watch_dir / overlays[0].name).write_bytes(
            overlays[0].read_bytes()
        )
        assert live.poll_once(watch_dir) == 0
        assert engine.generation == 3  # untouched
        assert live.watch_errors == []

    def test_poll_collects_errors_from_bad_files(self, chain, tmp_path):
        engine, _ = chain
        watch_dir = tmp_path / "bad"
        watch_dir.mkdir()
        (watch_dir / "junk.tcdelta").write_bytes(b"not a delta at all")
        live = LiveIndex(engine, directory=watch_dir)
        assert live.poll_once() == 0
        assert len(live.watch_errors) == 1
        assert "junk.tcdelta" in live.watch_errors[0]
        # The bad file is remembered; it does not error on every pass.
        assert live.poll_once() == 0
        assert len(live.watch_errors) == 1

    def test_poll_requires_a_directory(self, chain):
        engine, _ = chain
        live = LiveIndex(engine)
        with pytest.raises(ServeError, match="no watch directory"):
            live.poll_once()
        with pytest.raises(ServeError, match="no watch directory"):
            live.watch()

    def test_watch_thread_applies_dropped_overlays(self, chain, tmp_path):
        engine, overlays = chain
        watch_dir = tmp_path / "drop"
        watch_dir.mkdir()
        live = LiveIndex(engine, directory=watch_dir)
        thread = live.watch(poll_interval=0.05)
        assert live.watch(poll_interval=0.05) is thread  # idempotent
        try:
            for overlay in overlays:
                (watch_dir / overlay.name).write_bytes(
                    overlay.read_bytes()
                )
            deadline = time.monotonic() + 10.0
            while (
                engine.generation < 4 and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert engine.generation == 4
            assert live.watch_errors == []
        finally:
            live.stop()
        assert not thread.is_alive()
        live.stop()  # no-op when already stopped

    def test_repr(self, chain):
        engine, _ = chain
        live = LiveIndex(engine)
        assert "generation=1" in repr(live)
