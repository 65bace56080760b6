"""The warehouse serving layer (build-once / query-many, Section 6).

The analytical side of the system — parallel TC-Tree construction — feeds
this read-optimized serving path:

- :mod:`repro.serve.snapshot` — a versioned binary TC-Tree snapshot whose
  per-node offset table lets a single node's decomposition be decoded on
  demand, a JSON→binary migration path, and generation-stamped overlay
  deltas (``REPROTCD``) for incremental publication;
- :mod:`repro.serve.engine` — :class:`IndexedWarehouse`, a lazy-decoding
  query engine with an LRU carrier cache, batched execution, and top-k
  integration. Serving state is bundled into immutable
  :class:`ServingGeneration` objects swapped atomically, so readers
  never see a torn index. Every generation, snapshot or in-memory, is
  queried by the one walk :func:`repro.index.query.query_tc_tree`;
- :mod:`repro.serve.live` — :class:`LiveIndex`, the single writer that
  applies overlay deltas, compacts the chain back to a full snapshot,
  and optionally watches a directory for new overlays;
- :mod:`repro.serve.server` — a threaded stdlib HTTP endpoint
  (``/query``, ``/top-k``, ``/stats``, ``/healthz``,
  ``/admin/apply-delta``) sharing one engine across requests; exposed
  as ``repro serve``.
"""

from repro.serve.engine import IndexedWarehouse, ServingGeneration
from repro.serve.live import LiveIndex
from repro.serve.snapshot import (
    DeltaSnapshot,
    TCTreeSnapshot,
    apply_delta_to_tree,
    diff_trees,
    is_delta_snapshot_file,
    is_snapshot_file,
    migrate_json_to_snapshot,
    write_delta_snapshot,
    write_snapshot,
)
from repro.serve.server import create_server

__all__ = [
    "DeltaSnapshot",
    "IndexedWarehouse",
    "LiveIndex",
    "ServingGeneration",
    "TCTreeSnapshot",
    "apply_delta_to_tree",
    "create_server",
    "diff_trees",
    "is_delta_snapshot_file",
    "is_snapshot_file",
    "migrate_json_to_snapshot",
    "write_delta_snapshot",
    "write_snapshot",
]
