"""Binary TC-Tree snapshot format (serving-layer persistence, version 1).

The JSON warehouse document re-parses every node on every load, so query
latency on the CLI path is dominated by deserialization. The snapshot
packs the same information into flat little-endian sections with a
per-node offset table, so a reader can open the file, learn the whole
tree *shape* from the table of contents alone, and decode an individual
node's decomposition only when a query actually retrieves it.

Layout (all integers little-endian)::

    header   <8sIIQQQQ : magic "REPROTCS", version, flags,
                          num_items, num_nodes, toc_off, payload_off
    TOC      five flat arrays of num_nodes entries each:
               items        int64  — item appended at the node
               parents      int64  — index of the parent node (-1 = root)
               offsets      uint64 — payload offset, relative to payload_off
               lengths      uint64 — payload byte length
               prune_alphas float64 — least α at which C*_p(α) is empty
    payload  one blob per node:
               <QQQ num_frequencies, num_levels, num_edges
               keys      key_width × int64[num_frequencies]
               values    float64[num_frequencies]
               alphas    float64[num_levels]
               counts    uint64[num_levels]   (removed edges per level)
               edge_u    int64[num_edges]     (flat across levels)
               edge_v    int64[num_edges]

The frequency keys are ``key_width`` int64 columns, a property of the
model the header names (:attr:`repro.engine.registry.ModelSpec.key_width`):
one column of vertices in a vertex tree (version 1, flags 0), two
columns of canonical edge endpoints ``u`` then ``v`` in an edge tree
(version 2, :data:`FLAG_EDGE`). Keys are written in sorted order.

Nodes appear in depth-first preorder (parents before children, siblings
in item order ≺), so the TOC alone reconstructs every pattern and the
child adjacency. ``prune_alphas`` mirrors the emptiness test of
:meth:`~repro.index.decomposition.TrussDecomposition.edges_at` exactly:
``C*_p(α)`` is empty iff ``prune_alpha <= α + COHESION_TOLERANCE``, so
the engine prunes Proposition 5.2 subtrees without touching the payload.

JSON (:class:`~repro.index.warehouse.ThemeCommunityWarehouse` documents)
remains the compatible interchange format; :func:`migrate_json_to_snapshot`
converts existing indexes, and both loaders sniff the magic bytes.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from array import array
from pathlib import Path

from repro._ordering import Pattern
from repro.engine import registry
from repro.errors import TCIndexError
from repro.index.decomposition import DecompositionLevel, TrussDecomposition
from repro.index.tcnode import TCNode
from repro.obs.trace import span

MAGIC = b"REPROTCS"
VERSION = 1

#: Version 2 extends the format with a payload *kind*: the header flags
#: carry :data:`FLAG_EDGE` and every payload then stores an edge TC-Tree
#: node — frequencies keyed by canonical edge pairs (two key columns)
#: rather than by vertex. Vertex trees keep writing byte-identical v1
#: files; readers accept both, so v1 stays the cross-version back-compat
#: witness. The flags must name a registered model exactly
#: (:func:`repro.engine.registry.model_for_flags`), and the version must
#: be that model's.
EDGE_VERSION = 2
FLAG_EDGE = 1

_HEADER = struct.Struct("<8sIIQQQQ")
_PAYLOAD_PREFIX = struct.Struct("<QQQ")

#: Sentinel parent index of layer-1 nodes (children of the virtual root).
ROOT = -1

_BIG_ENDIAN = sys.byteorder == "big"


def _array_bytes(typecode: str, values) -> bytes:
    """Serialize ``values`` as a little-endian flat array."""
    arr = array(typecode, values)
    if _BIG_ENDIAN:
        arr.byteswap()
    return arr.tobytes()


def _array_from(typecode: str, buffer, count: int) -> array:
    """Deserialize ``count`` little-endian items from ``buffer``."""
    arr = array(typecode)
    arr.frombytes(bytes(buffer[: count * arr.itemsize]))
    if _BIG_ENDIAN:
        arr.byteswap()
    if len(arr) != count:
        raise TCIndexError("truncated snapshot section")
    return arr


def prune_alpha_of(decomposition: TrussDecomposition) -> float:
    """The least α at which ``C*_p(α)`` reconstructs empty.

    ``edges_at(α)`` keeps levels with ``alpha > α + tolerance`` — the
    result is non-empty iff some such level carries edges, so the cutoff
    is the largest threshold among edge-carrying levels (0.0 when the
    decomposition holds no edges at all).
    """
    return max(
        (
            level.alpha
            for level in decomposition.levels
            if level.removed_edges
        ),
        default=0.0,
    )


def _encode_payload(
    decomposition: TrussDecomposition, key_width: int
) -> bytes:
    keys = sorted(decomposition.frequencies)
    values = [decomposition.frequencies[key] for key in keys]
    alphas: list[float] = []
    counts: list[int] = []
    edge_u: list[int] = []
    edge_v: list[int] = []
    for level in decomposition.levels:
        alphas.append(level.alpha)
        counts.append(len(level.removed_edges))
        for u, v in level.removed_edges:
            edge_u.append(u)
            edge_v.append(v)
    # With no keys, zip yields no columns: empty columns write no bytes.
    columns = (keys,) if key_width == 1 else tuple(zip(*keys))
    return b"".join(
        (
            _PAYLOAD_PREFIX.pack(len(keys), len(alphas), len(edge_u)),
            *(_array_bytes("q", column) for column in columns),
            _array_bytes("d", values),
            _array_bytes("d", alphas),
            _array_bytes("Q", counts),
            _array_bytes("q", edge_u),
            _array_bytes("q", edge_v),
        )
    )


def _decode_payload(pattern: Pattern, blob, spec) -> TrussDecomposition:
    """One payload as ``spec``'s decomposition class (``spec`` is the
    :class:`~repro.engine.registry.ModelSpec` the header names)."""
    if len(blob) < _PAYLOAD_PREFIX.size:
        raise TCIndexError("truncated snapshot payload")
    num_freq, num_levels, num_edges = _PAYLOAD_PREFIX.unpack_from(blob, 0)
    view = memoryview(blob)[_PAYLOAD_PREFIX.size:]
    # The key columns are contiguous: read them as one block.
    width = spec.key_width
    keys = _array_from("q", view, width * num_freq)
    view = view[width * num_freq * 8:]
    values = _array_from("d", view, num_freq)
    view = view[num_freq * 8:]
    alphas = _array_from("d", view, num_levels)
    view = view[num_levels * 8:]
    counts = _array_from("Q", view, num_levels)
    view = view[num_levels * 8:]
    edge_u = _array_from("q", view, num_edges)
    view = view[num_edges * 8:]
    edge_v = _array_from("q", view, num_edges)
    levels: list[DecompositionLevel] = []
    cursor = 0
    for k in range(num_levels):
        count = counts[k]
        levels.append(
            DecompositionLevel(
                alphas[k],
                [
                    (edge_u[e], edge_v[e])
                    for e in range(cursor, cursor + count)
                ],
            )
        )
        cursor += count
    if cursor != num_edges:
        raise TCIndexError("snapshot level edge counts disagree with total")
    if width > 1:
        keys = zip(*(
            keys[c * num_freq:(c + 1) * num_freq] for c in range(width)
        ))
    return spec.decomposition_cls(
        pattern=pattern,
        levels=levels,
        frequencies=dict(zip(keys, values)),
    )


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

def write_snapshot(tree, path: str | Path) -> int:
    """Serialize ``tree`` to ``path``; returns the snapshot byte size.

    Accepts any registered tree model, dispatching on ``tree.kind``
    through :mod:`repro.engine.registry`: a vertex :class:`TCTree`
    writes a (byte-stable) v1 file, an
    :class:`~repro.edgenet.index.EdgeTCTree` writes a v2 file with the
    :data:`FLAG_EDGE` payload-kind flag set.
    """
    with span(
        "snapshot.write", kind=getattr(tree, "kind", "vertex")
    ) as sp:
        size = _write_snapshot(tree, path)
        sp.set_attr("bytes", size)
        return size


def _write_snapshot(tree, path: str | Path) -> int:
    spec = registry.model_for_tree(tree)
    if not spec.has_snapshot:
        raise TCIndexError(
            f"model {spec.name!r} declares no snapshot payload kind"
        )
    items: list[int] = []
    parents: list[int] = []
    offsets: list[int] = []
    lengths: list[int] = []
    prune_alphas: list[float] = []
    index_of: dict[Pattern, int] = {}
    payload = bytearray()
    for node in tree.iter_nodes():
        decomposition = node.decomposition
        if decomposition is None or node.item is None:
            raise TCIndexError(
                f"node {node.pattern} has no decomposition; "
                "only built trees can be snapshotted"
            )
        parent_pattern = node.pattern[:-1]
        if parent_pattern and parent_pattern not in index_of:
            raise TCIndexError(
                f"node {node.pattern} appears before its parent"
            )
        index_of[node.pattern] = len(items)
        items.append(node.item)
        parents.append(
            index_of[parent_pattern] if parent_pattern else ROOT
        )
        blob = _encode_payload(decomposition, spec.key_width)
        offsets.append(len(payload))
        lengths.append(len(blob))
        prune_alphas.append(prune_alpha_of(decomposition))
        payload.extend(blob)

    num_nodes = len(items)
    toc = b"".join(
        (
            _array_bytes("q", items),
            _array_bytes("q", parents),
            _array_bytes("Q", offsets),
            _array_bytes("Q", lengths),
            _array_bytes("d", prune_alphas),
        )
    )
    header = _HEADER.pack(
        MAGIC,
        spec.snapshot_version,
        spec.snapshot_flags,
        tree.num_items,
        num_nodes,
        _HEADER.size,
        _HEADER.size + len(toc),
    )
    # Write-to-temp + atomic rename: a live server mmaps the target
    # file, and truncating a mapped inode in place would SIGBUS it —
    # replacement must swap the whole inode or nothing.
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    try:
        with temporary.open("wb") as handle:
            handle.write(header)
            handle.write(toc)
            handle.write(payload)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return len(header) + len(toc) + len(payload)


def estimate_snapshot_bytes(
    num_nodes: int,
    total_levels: int,
    total_edges: int,
    total_frequencies: int,
    kind: str = "vertex",
) -> int:
    """Exact snapshot size implied by the format, from count statistics.

    ``kind`` names the registered model whose payload layout applies: a
    frequency entry costs its ``key_width`` int64 keys plus one float64
    value — 16 bytes for a vertex, 24 for an edge.
    """
    per_frequency = 8 * (registry.get_model(kind).key_width + 1)
    return (
        _HEADER.size
        + num_nodes * (5 * 8 + _PAYLOAD_PREFIX.size)
        + per_frequency * total_frequencies
        + 16 * (total_levels + total_edges)
    )


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

class TCTreeSnapshot:
    """A memory-mapped binary TC-Tree snapshot with on-demand decoding.

    Opening parses only the header and the table of contents: the item,
    parent link, payload extent, and pruning threshold of every node.
    Patterns and the child adjacency come from that alone; a node's
    decomposition is decoded from its payload slice only when
    :meth:`decode` is called (the engine does so only for retrieved
    nodes, through its LRU cache).
    """

    def __init__(self, buffer, path: Path | None = None) -> None:
        self.path = path
        self._buffer = buffer
        self._mmap: mmap.mmap | None = None
        if len(buffer) < _HEADER.size:
            raise TCIndexError("not a TC-Tree snapshot: file too short")
        (
            magic,
            version,
            flags,
            self.num_items,
            self.num_nodes,
            toc_off,
            self._payload_off,
        ) = _HEADER.unpack_from(buffer, 0)
        if magic != MAGIC:
            raise TCIndexError(
                f"not a TC-Tree snapshot: bad magic {magic!r}"
            )
        # The flags name the payload kind; a version that is not that
        # kind's is from a writer we don't know — e.g. a v2 file without
        # the edge flag.
        spec = registry.model_for_flags(flags)
        if version != spec.snapshot_version:
            raise TCIndexError(f"unsupported snapshot version {version}")
        self._spec = spec
        self.kind = spec.name
        n = self.num_nodes
        if self._payload_off > len(buffer) or toc_off + 40 * n > len(buffer):
            raise TCIndexError("truncated snapshot: TOC out of bounds")
        # Copy the TOC region out of the buffer: memoryviews over an
        # mmap would pin it open (BufferError on close) from the frames
        # a parse error's traceback keeps alive.
        view = memoryview(bytes(buffer[toc_off: toc_off + 40 * n]))
        self.items = _array_from("q", view, n)
        view = view[8 * n:]
        self.parents = _array_from("q", view, n)
        view = view[8 * n:]
        self.offsets = _array_from("Q", view, n)
        view = view[8 * n:]
        self.lengths = _array_from("Q", view, n)
        view = view[8 * n:]
        self.prune_alphas = _array_from("d", view, n)

        payload_size = len(buffer) - self._payload_off
        self._patterns: list[Pattern] = []
        self._children: list[list[int]] = [[] for _ in range(n)]
        self._root_children: list[int] = []
        seen_siblings: set[tuple[int, int]] = set()
        for i in range(n):
            parent = self.parents[i]
            if parent == ROOT:
                pattern: Pattern = (self.items[i],)
            elif 0 <= parent < i:
                pattern = self._patterns[parent] + (self.items[i],)
            else:
                raise TCIndexError(
                    f"snapshot node {i} has invalid parent {parent}"
                )
            # Same invariant from_dict enforces on JSON documents: two
            # siblings carrying one item are two nodes for one pattern —
            # a malformed tree that double-counts trusses in queries.
            sibling_key = (parent, self.items[i])
            if sibling_key in seen_siblings:
                raise TCIndexError(
                    f"duplicate node for pattern {pattern}"
                )
            seen_siblings.add(sibling_key)
            self._patterns.append(pattern)
            if parent == ROOT:
                self._root_children.append(i)
            else:
                self._children[parent].append(i)
            if self.offsets[i] + self.lengths[i] > payload_size:
                raise TCIndexError(
                    f"snapshot node {i} payload out of bounds"
                )

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path) -> "TCTreeSnapshot":
        """Map ``path`` read-only and parse its table of contents."""
        path = Path(path)
        with path.open("rb") as handle:
            try:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError:  # zero-length file cannot be mapped
                raise TCIndexError(
                    "not a TC-Tree snapshot: file too short"
                ) from None
        try:
            snapshot = cls(mapped, path=path)
        except Exception:
            mapped.close()
            raise
        snapshot._mmap = mapped
        return snapshot

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def __enter__(self) -> "TCTreeSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Per-node calls of the one Algorithm-5 walk
    # (:func:`repro.index.query.query_tc_tree`), shared with the
    # in-memory :class:`TCTree`; a node is its TOC index.
    root = ROOT

    def children(self, index: int) -> list[int]:
        """Child node indices of ``index`` (:data:`ROOT` for layer 1)."""
        if index == ROOT:
            return self._root_children
        return self._children[index]

    def item(self, index: int) -> int:
        return self.items[index]

    def pattern(self, index: int) -> Pattern:
        return self._patterns[index]

    def prune_alpha(self, index: int) -> float:
        """Least α at which node ``index`` answers empty (TOC, no decode)."""
        return self.prune_alphas[index]

    def patterns(self) -> list[Pattern]:
        return sorted(self._patterns)

    def max_alpha(self) -> float:
        """The global non-trivial α range upper bound (TOC only)."""
        return max(self.prune_alphas, default=0.0)

    def decode(self, index: int) -> TrussDecomposition:
        """Decode node ``index``'s decomposition from its payload slice.

        Returns a :class:`TrussDecomposition` on vertex snapshots and an
        :class:`~repro.edgenet.decomposition.EdgeTrussDecomposition` on
        edge ones — both answer ``truss_at``/``max_alpha``, which is all
        the query engine needs.
        """
        start = self._payload_off + self.offsets[index]
        blob = self._buffer[start: start + self.lengths[index]]
        return _decode_payload(self._patterns[index], blob, self._spec)

    def find_node(self, pattern: Pattern) -> int | None:
        """TOC index of ``pattern``, or ``None`` if it is not a node.

        The pattern→index map is built lazily on first use — pure TOC
        arithmetic, no payload decoding — so point lookups (e.g.
        strength reads on query results) skip the preorder scan.
        """
        index_of = getattr(self, "_index_of", None)
        if index_of is None:
            index_of = {p: i for i, p in enumerate(self._patterns)}
            self._index_of = index_of
        return index_of.get(tuple(pattern))

    # ------------------------------------------------------------------
    def materialize_tree(self):
        """Decode every node into this snapshot kind's in-memory tree
        (:class:`TCTree`, or :class:`~repro.edgenet.index.EdgeTCTree` for
        an edge snapshot) — the migration and maintenance path."""
        spec = self._spec
        root = spec.node_cls(None, (), None)
        nodes: list[TCNode] = []
        for i in range(self.num_nodes):
            node = spec.node_cls(
                self.items[i], self._patterns[i], self.decode(i)
            )
            parent = self.parents[i]
            (root if parent == ROOT else nodes[parent]).add_child(node)
            nodes.append(node)
        return spec.make_tree(root, self.num_items)

    def __repr__(self) -> str:
        return (
            f"TCTreeSnapshot(nodes={self.num_nodes}, kind={self.kind!r}, "
            f"items={self.num_items}, path={self.path})"
        )


# ---------------------------------------------------------------------------
# generation-stamped delta snapshots (base + overlay chain)
# ---------------------------------------------------------------------------

DELTA_MAGIC = b"REPROTCD"
DELTA_VERSION = 1

#: header <8sIIQQQQQ : magic "REPROTCD", version, flags (payload kind,
#: same values as the full-snapshot flags), generation, base_generation,
#: num_items (universe size after the delta), num_removed, num_changed.
#: Followed by the removed-pattern section (lengths + flat items), the
#: changed-node section (lengths + flat items + offsets + lengths +
#: prune_alphas), then the payload blobs — one per changed node, in the
#: payload encoding of the model the flags name. Removed patterns and
#: changed nodes are sorted lexicographically, so writes are byte-stable
#: and parents always precede children on apply.
_DELTA_HEADER = struct.Struct("<8sIIQQQQQ")


def diff_trees(base_tree, new_tree):
    """``(removed, changed)`` between two trees of one kind.

    ``removed`` is the sorted list of patterns indexed in ``base_tree``
    but absent from ``new_tree``; ``changed`` the sorted list of
    ``(pattern, decomposition)`` pairs that are new or whose
    decomposition differs. Reused decompositions are recognized by
    identity first (the incremental maintainer shares unaffected ``L_p``
    objects between generations, so most nodes cost one ``is`` check)
    with encoded-byte equality as the fallback witness.
    """
    spec = registry.model_for_tree(new_tree)
    if registry.model_for_tree(base_tree) is not spec:
        raise TCIndexError(
            "cannot diff trees of different kinds "
            f"({base_tree.kind!r} vs {new_tree.kind!r})"
        )
    base_of = {
        node.pattern: node.decomposition for node in base_tree.iter_nodes()
    }
    new_patterns = set()
    changed: list[tuple[Pattern, object]] = []
    for node in new_tree.iter_nodes():
        new_patterns.add(node.pattern)
        old = base_of.get(node.pattern)
        if old is node.decomposition:
            continue
        if old is not None and _encode_payload(
            old, spec.key_width
        ) == _encode_payload(node.decomposition, spec.key_width):
            continue
        changed.append((node.pattern, node.decomposition))
    changed.sort(key=lambda entry: entry[0])
    removed = sorted(set(base_of) - new_patterns)
    return removed, changed


def write_delta_snapshot(
    base_tree,
    new_tree,
    path: str | Path,
    *,
    generation: int,
    base_generation: int,
) -> int:
    """Serialize the ``base_tree → new_tree`` difference to ``path``.

    The file is an overlay: applied (:func:`apply_delta_to_tree`) to a
    tree equal to ``base_tree``, it reproduces ``new_tree`` exactly.
    ``generation``/``base_generation`` stamp the chain link — a reader
    must refuse to apply an overlay whose ``base_generation`` is not the
    generation it currently serves. Byte-stable for equal inputs; atomic
    (write-to-temp + rename) like :func:`write_snapshot`.
    """
    if generation <= base_generation:
        raise TCIndexError(
            f"delta generation {generation} must exceed its base "
            f"{base_generation}"
        )
    with span(
        "snapshot.write_delta", kind=getattr(new_tree, "kind", "vertex")
    ) as sp:
        spec = registry.model_for_tree(new_tree)
        if not spec.has_snapshot:
            raise TCIndexError(
                f"model {spec.name!r} declares no snapshot payload kind"
            )
        removed, changed = diff_trees(base_tree, new_tree)
        offsets: list[int] = []
        lengths: list[int] = []
        prune_alphas: list[float] = []
        payload = bytearray()
        for _pattern, decomposition in changed:
            blob = _encode_payload(decomposition, spec.key_width)
            offsets.append(len(payload))
            lengths.append(len(blob))
            prune_alphas.append(prune_alpha_of(decomposition))
            payload.extend(blob)
        toc = b"".join(
            (
                _array_bytes("Q", [len(p) for p in removed]),
                _array_bytes("q", [i for p in removed for i in p]),
                _array_bytes("Q", [len(p) for p, _ in changed]),
                _array_bytes("q", [i for p, _ in changed for i in p]),
                _array_bytes("Q", offsets),
                _array_bytes("Q", lengths),
                _array_bytes("d", prune_alphas),
            )
        )
        header = _DELTA_HEADER.pack(
            DELTA_MAGIC,
            DELTA_VERSION,
            spec.snapshot_flags,
            generation,
            base_generation,
            new_tree.num_items,
            len(removed),
            len(changed),
        )
        path = Path(path)
        temporary = path.with_name(path.name + ".tmp")
        try:
            with temporary.open("wb") as handle:
                handle.write(header)
                handle.write(toc)
                handle.write(payload)
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        size = len(header) + len(toc) + len(payload)
        sp.set_attr("bytes", size)
        sp.set_attr("removed", len(removed))
        sp.set_attr("changed", len(changed))
        return size


class DeltaSnapshot:
    """A parsed generation-stamped overlay file.

    Small by construction (it carries only the changed subtrees), so the
    whole file is read eagerly — no mmap, no lazy decoding. Changed-node
    decompositions still decode on demand through :meth:`decode`.
    """

    def __init__(self, buffer: bytes, path: Path | None = None) -> None:
        self.path = path
        self._buffer = buffer
        if len(buffer) < _DELTA_HEADER.size:
            raise TCIndexError("not a TC-Tree delta snapshot: file too short")
        (
            magic,
            version,
            flags,
            self.generation,
            self.base_generation,
            self.num_items,
            num_removed,
            num_changed,
        ) = _DELTA_HEADER.unpack_from(buffer, 0)
        if magic != DELTA_MAGIC:
            raise TCIndexError(
                f"not a TC-Tree delta snapshot: bad magic {magic!r}"
            )
        if version != DELTA_VERSION:
            raise TCIndexError(
                f"unsupported delta snapshot version {version}"
            )
        spec = registry.model_for_flags(flags)
        self._spec = spec
        self.kind = spec.name

        view = memoryview(buffer)[_DELTA_HEADER.size:]

        def take(typecode: str, count: int):
            nonlocal view
            arr = _array_from(typecode, view, count)
            view = view[count * arr.itemsize:]
            return arr

        def patterns_section(count: int) -> list[Pattern]:
            pattern_lengths = take("Q", count)
            flat = take("q", sum(pattern_lengths))
            patterns: list[Pattern] = []
            cursor = 0
            for length in pattern_lengths:
                if length == 0:
                    raise TCIndexError(
                        "delta snapshot carries an empty pattern"
                    )
                patterns.append(tuple(flat[cursor: cursor + length]))
                cursor += length
            return patterns

        self.removed_patterns = patterns_section(num_removed)
        self.changed_patterns = patterns_section(num_changed)
        self.offsets = take("Q", num_changed)
        self.lengths = take("Q", num_changed)
        self.prune_alphas = take("d", num_changed)
        self._payload_off = len(buffer) - len(view)
        payload_size = len(view)
        for i in range(num_changed):
            if self.offsets[i] + self.lengths[i] > payload_size:
                raise TCIndexError(
                    f"delta snapshot node {i} payload out of bounds"
                )

    @classmethod
    def open(cls, path: str | Path) -> "DeltaSnapshot":
        path = Path(path)
        return cls(path.read_bytes(), path=path)

    @property
    def num_removed(self) -> int:
        return len(self.removed_patterns)

    @property
    def num_changed(self) -> int:
        return len(self.changed_patterns)

    def decode(self, index: int):
        """Decode changed node ``index``'s decomposition."""
        start = self._payload_off + self.offsets[index]
        blob = self._buffer[start: start + self.lengths[index]]
        return _decode_payload(
            self.changed_patterns[index], blob, self._spec
        )

    def __repr__(self) -> str:
        return (
            f"DeltaSnapshot(generation={self.generation}, "
            f"base={self.base_generation}, kind={self.kind!r}, "
            f"removed={self.num_removed}, changed={self.num_changed})"
        )


def apply_delta_to_tree(tree, delta: DeltaSnapshot):
    """Apply an overlay to an in-memory tree, returning a new tree.

    ``tree`` is left untouched (readers keep querying it); the result
    shares every unchanged decomposition with it. Raises
    :class:`TCIndexError` when the overlay does not fit — wrong kind, a
    removed pattern that is not indexed, or an added node whose parent
    does not exist (both symptoms of applying an overlay to the wrong
    base generation; the serving layer checks the generation stamp
    before calling, this is the structural backstop).
    """
    from repro.index.updates import clone_tree

    spec = registry.model_for_tree(tree)
    if spec.name != delta.kind:
        raise TCIndexError(
            f"cannot apply {delta.kind!r} delta to {spec.name!r} tree"
        )
    new_tree = clone_tree(tree)
    # Children sort after their parents lexicographically, so reverse
    # order removes leaves first — every removed pattern must still be
    # present when its turn comes.
    for pattern in sorted(delta.removed_patterns, reverse=True):
        parent = (
            new_tree.root
            if len(pattern) == 1
            else new_tree.find_node(pattern[:-1])
        )
        node = new_tree.find_node(pattern)
        if parent is None or node is None:
            raise TCIndexError(
                f"delta removes pattern {pattern} which is not indexed"
            )
        parent.children.remove(node)
    for index, pattern in enumerate(delta.changed_patterns):
        decomposition = delta.decode(index)
        node = new_tree.find_node(pattern)
        if node is not None:
            node.decomposition = decomposition
            continue
        parent = (
            new_tree.root
            if len(pattern) == 1
            else new_tree.find_node(pattern[:-1])
        )
        if parent is None:
            raise TCIndexError(
                f"delta adds node {pattern} whose parent is not indexed"
            )
        parent.add_child(spec.node_cls(pattern[-1], pattern, decomposition))
    return spec.make_tree(new_tree.root, delta.num_items)


def is_delta_snapshot_file(path: str | Path) -> bool:
    """True when ``path`` starts with the delta-snapshot magic bytes."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(DELTA_MAGIC)) == DELTA_MAGIC
    except OSError:
        return False


# ---------------------------------------------------------------------------
# format sniffing + migration
# ---------------------------------------------------------------------------

def is_snapshot_file(path: str | Path) -> bool:
    """True when ``path`` starts with the snapshot magic bytes."""
    try:
        with Path(path).open("rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def migrate_json_to_snapshot(
    json_path: str | Path, snapshot_path: str | Path
) -> tuple[int, int]:
    """Convert a JSON warehouse document to a binary snapshot.

    Returns ``(json_bytes, snapshot_bytes)``. The conversion is lossless:
    patterns, thresholds, removed-edge lists, and frequencies round-trip
    exactly (floats are binary64 in both formats).
    """
    from repro.index.warehouse import ThemeCommunityWarehouse

    json_path = Path(json_path)
    warehouse = ThemeCommunityWarehouse.load(json_path)
    snapshot_bytes = write_snapshot(warehouse.tree, snapshot_path)
    return json_path.stat().st_size, snapshot_bytes


__all__ = [
    "MAGIC",
    "VERSION",
    "EDGE_VERSION",
    "FLAG_EDGE",
    "ROOT",
    "DELTA_MAGIC",
    "DELTA_VERSION",
    "DeltaSnapshot",
    "TCTreeSnapshot",
    "apply_delta_to_tree",
    "diff_trees",
    "is_delta_snapshot_file",
    "write_delta_snapshot",
    "write_snapshot",
    "estimate_snapshot_bytes",
    "is_snapshot_file",
    "migrate_json_to_snapshot",
    "prune_alpha_of",
]
