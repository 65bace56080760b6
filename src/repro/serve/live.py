"""Writer side of the live-index tier (:class:`LiveIndex`).

The serving engine (:class:`~repro.serve.engine.IndexedWarehouse`) is
read-only and generation-swappable; this module is the single writer
that feeds it. A :class:`LiveIndex` keeps the authoritative in-memory
tree of the served index, applies generation-stamped overlay files
(:class:`~repro.serve.snapshot.DeltaSnapshot`) to it, and publishes each
result as a new engine generation — the HTAP split: queries never block
on maintenance, maintenance never tears a query.

Generation chain and compaction: every applied overlay must name the
currently served generation as its base (a stale or out-of-order overlay
is refused), so the served index is always ``base snapshot + an overlay
chain``. After :attr:`compact_threshold` consecutive overlay
publications the writer compacts — it writes a fresh full snapshot of
the current tree next to the watch directory and swaps the engine back
onto the mmap-backed snapshot, resetting the chain.

``watch()`` runs the file-driven flavor as a daemon thread: overlay
files (``*.tcdelta``) dropped into a directory are applied in name
order, which is what ``repro serve --watch`` wires up. The HTTP-driven
flavor is ``POST /admin/apply-delta`` on the server.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.errors import ServeError, TCIndexError
from repro.obs.metrics import default_registry
from repro.serve.engine import IndexedWarehouse
from repro.serve.snapshot import (
    DeltaSnapshot,
    TCTreeSnapshot,
    apply_delta_to_tree,
    write_snapshot,
)

#: Overlay publications between compactions: after this many in-memory
#: generations the writer persists a full snapshot and swaps the engine
#: back onto the mmap path (bounds both the retired-generation list and
#: recovery time after a restart).
COMPACT_OVERLAY_THRESHOLD = 4

#: Overlay files the watcher picks up.
WATCH_SUFFIX = ".tcdelta"


def _record_publish(start: float) -> None:
    """Count one publication and time it from ``start``; both publish
    paths call this, so the counter and the histogram count agree."""
    registry = default_registry()
    registry.counter(
        "repro_live_deltas_applied_total",
        help="Overlay deltas applied and published by the live index.",
    ).inc()
    registry.histogram(
        "repro_live_publish_seconds",
        help="Delta apply-and-publish latency (staleness floor).",
    ).observe(time.perf_counter() - start)


class LiveIndex:
    """Single-writer delta ingestion over a hot-swappable engine."""

    def __init__(
        self,
        engine: IndexedWarehouse,
        directory: str | Path | None = None,
        compact_threshold: int = COMPACT_OVERLAY_THRESHOLD,
    ) -> None:
        if compact_threshold < 1:
            raise ServeError(
                f"compact threshold must be >= 1, got {compact_threshold}"
            )
        self._engine = engine
        # The writer's authoritative tree: overlays apply to this, never
        # to the engine's (possibly mmap-backed) serving state.
        self._lock = threading.Lock()
        self._tree = engine.materialize_tree()  # guarded-by: self._lock
        self._overlays_since_compaction = 0  # guarded-by: self._lock
        self._deltas_applied = 0  # guarded-by: self._lock
        self.directory = Path(directory) if directory is not None else None
        self.compact_threshold = compact_threshold
        self._watcher: threading.Thread | None = None
        self._stop = threading.Event()
        self._seen_paths: set[Path] = set()
        #: Problems the watcher thread hit, newest last (bounded) — a
        #: daemon thread has nowhere to raise to.
        self.watch_errors: list[str] = []

    # ------------------------------------------------------------------
    @property
    def engine(self) -> IndexedWarehouse:
        return self._engine

    @property
    def generation(self) -> int:
        return self._engine.generation

    @property
    def overlays_since_compaction(self) -> int:
        with self._lock:
            return self._overlays_since_compaction

    @property
    def deltas_applied(self) -> int:
        with self._lock:
            return self._deltas_applied

    def stats(self) -> dict:
        """Writer-side bookkeeping for ``/stats``."""
        with self._lock:
            return {
                "deltas_applied": self._deltas_applied,
                "overlays_since_compaction": (
                    self._overlays_since_compaction
                ),
                "compact_threshold": self.compact_threshold,
                "watching": str(self.directory)
                if self.directory is not None
                else None,
                "watch_errors": list(self.watch_errors),
            }

    # ------------------------------------------------------------------
    def apply_delta(self, delta: DeltaSnapshot | str | Path) -> dict:
        """Apply one overlay and publish the result as a new generation.

        ``delta`` is a parsed :class:`DeltaSnapshot` or a path to one.
        Its ``base_generation`` must equal the currently served
        generation (:class:`TCIndexError` otherwise — the overlay chain
        admits no gaps and no reordering). Returns a summary dict:
        ``{"generation", "removed", "changed", "compacted"}``.
        """
        if not isinstance(delta, DeltaSnapshot):
            delta = DeltaSnapshot.open(delta)
        start = time.perf_counter()
        with self._lock:
            served = self._engine.generation
            if delta.base_generation != served:
                raise TCIndexError(
                    f"overlay base generation {delta.base_generation} "
                    f"does not match the served generation {served}"
                )
            new_tree = apply_delta_to_tree(self._tree, delta)
            compacted = False
            if (
                self.directory is not None
                and self._overlays_since_compaction + 1
                >= self.compact_threshold
            ):
                path = (
                    self.directory / f"gen-{delta.generation:08d}.tcsnap"
                )
                write_snapshot(new_tree, path)
                generation = self._engine.swap(
                    snapshot=TCTreeSnapshot.open(path),
                    number=delta.generation,
                )
                self._overlays_since_compaction = 0
                compacted = True
            else:
                generation = self._engine.swap(
                    tree=new_tree, number=delta.generation
                )
                self._overlays_since_compaction += 1
            self._tree = new_tree
            self._deltas_applied += 1
        _record_publish(start)
        return {
            "generation": generation,
            "removed": delta.num_removed,
            "changed": delta.num_changed,
            "compacted": compacted,
        }

    def publish_tree(self, tree) -> int:
        """Publish an already-maintained tree as the next generation.

        The in-process flavor (no overlay file): a writer that maintains
        the tree itself — e.g. via
        :func:`repro.index.updates.apply_deltas` — hands the result
        straight to the engine. Returns the new generation number.
        """
        start = time.perf_counter()
        with self._lock:
            generation = self._engine.swap(tree=tree)
            self._tree = tree
            self._overlays_since_compaction += 1
            self._deltas_applied += 1
        _record_publish(start)
        return generation

    # ------------------------------------------------------------------
    def poll_once(self, directory: str | Path | None = None) -> int:
        """One watcher pass: apply every eligible overlay in name order.

        Files whose base matches the served generation are applied;
        already-superseded overlays (``generation <=`` served) are
        skipped permanently; future-based overlays are left for a later
        pass (their predecessor may still be mid-write). Returns the
        number of overlays applied.
        """
        root = Path(directory) if directory is not None else self.directory
        if root is None:
            raise ServeError("no watch directory configured")
        applied = 0
        for path in sorted(root.glob(f"*{WATCH_SUFFIX}")):
            if path in self._seen_paths:
                continue
            try:
                delta = DeltaSnapshot.open(path)
                if delta.generation <= self._engine.generation:
                    self._seen_paths.add(path)
                    continue
                if delta.base_generation != self._engine.generation:
                    continue  # predecessor not applied yet; retry later
                self.apply_delta(delta)
                self._seen_paths.add(path)
                applied += 1
            except Exception as exc:  # noqa: BLE001 — surfaced via list
                self._seen_paths.add(path)
                self.watch_errors.append(f"{path.name}: {exc}")
                del self.watch_errors[:-20]
        return applied

    def watch(
        self,
        directory: str | Path | None = None,
        poll_interval: float = 0.5,
    ) -> threading.Thread:
        """Start the polling watcher thread (idempotent)."""
        if directory is not None:
            self.directory = Path(directory)
        if self.directory is None:
            raise ServeError("no watch directory configured")
        if self._watcher is not None and self._watcher.is_alive():
            return self._watcher

        def loop() -> None:
            while not self._stop.is_set():
                self.poll_once()
                self._stop.wait(poll_interval)

        self._stop.clear()
        self._watcher = threading.Thread(
            target=loop, name="live-index-watcher", daemon=True
        )
        self._watcher.start()
        return self._watcher

    def stop(self) -> None:
        """Stop the watcher thread (no-op when not watching)."""
        self._stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
            self._watcher = None

    def __repr__(self) -> str:
        return (
            f"LiveIndex(generation={self.generation}, "
            f"deltas_applied={self.deltas_applied}, "
            f"overlays={self.overlays_since_compaction})"
        )


__all__ = [
    "COMPACT_OVERLAY_THRESHOLD",
    "LiveIndex",
    "WATCH_SUFFIX",
]
