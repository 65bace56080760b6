"""Delta-equivalence harness: incremental maintenance == scratch rebuild.

The live-index tier's correctness rests on one claim: for ANY base
network and ANY applicable delta stream, the incrementally maintained
TC-Tree is bit-for-bit the tree a from-scratch rebuild of the mutated
network would produce. These properties drive random (network, stream)
pairs — inserts, deletes, modifies, empty streams, duplicate deltas —
through both routes for both tree models and compare the serialized
snapshot bytes, the strictest equality the system can express.
"""

from __future__ import annotations

import copy
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgenet.index import build_edge_tc_tree
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.index.tctree import build_tc_tree
from repro.index.updates import (
    DELETE,
    INSERT,
    MODIFY,
    Delta,
    apply_deltas,
)
from repro.serve.snapshot import write_snapshot
from tests.conftest import database_networks


def snapshot_bytes(tree) -> bytes:
    """The tree's full serialized form — the bit-identity oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.tcsnap"
        write_snapshot(tree, path)
        return path.read_bytes()


@st.composite
def delta_streams(draw, network, max_deltas: int = 4, max_item: int = 4):
    """An applicable random delta stream against ``network``.

    Live transaction ids are simulated while drawing, so a delete may
    name a tid inserted earlier in the same stream — exactly the
    contract ``validate_deltas`` checks.
    """
    targets = sorted(network.databases)
    live = {t: set(network.databases[t].tids()) for t in targets}
    nxt = {t: network.databases[t].next_tid for t in targets}
    deltas = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_deltas))):
        target = draw(st.sampled_from(targets))
        ops = [INSERT]
        if live[target]:
            ops += [DELETE, MODIFY]
        op = draw(st.sampled_from(ops))
        if op == INSERT:
            items = draw(
                st.sets(
                    st.integers(min_value=0, max_value=max_item),
                    min_size=1,
                    max_size=3,
                )
            )
            deltas.append(Delta.insert(target, sorted(items)))
            live[target].add(nxt[target])
            nxt[target] += 1
        elif op == DELETE:
            tid = draw(st.sampled_from(sorted(live[target])))
            deltas.append(Delta.delete(target, tid))
            live[target].discard(tid)
        else:
            tid = draw(st.sampled_from(sorted(live[target])))
            items = draw(
                st.sets(
                    st.integers(min_value=0, max_value=max_item),
                    min_size=1,
                    max_size=3,
                )
            )
            deltas.append(Delta.modify(target, tid, sorted(items)))
    return deltas


@st.composite
def vertex_maintenance_cases(draw):
    network = draw(database_networks())
    deltas = draw(delta_streams(network))
    return network, deltas


@st.composite
def edge_maintenance_cases(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=6,
                 unique=True)
    )
    network = EdgeDatabaseNetwork()
    for u, v in edges:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            items = draw(
                st.sets(st.integers(min_value=0, max_value=2),
                        min_size=1, max_size=3)
            )
            network.add_transaction(u, v, items)
    deltas = draw(delta_streams(network, max_item=2))
    return network, deltas


class TestVertexDeltaEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(vertex_maintenance_cases())
    def test_incremental_bit_identical_to_scratch(self, case):
        network, deltas = case
        base = build_tc_tree(network)
        mutated = copy.deepcopy(network)
        result = apply_deltas(mutated, base, deltas, mode="incremental")
        scratch = build_tc_tree(mutated)
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)

    @settings(deadline=None, max_examples=10)
    @given(vertex_maintenance_cases())
    def test_auto_route_bit_identical_to_scratch(self, case):
        network, deltas = case
        base = build_tc_tree(network)
        mutated = copy.deepcopy(network)
        result = apply_deltas(mutated, base, deltas, mode="auto")
        scratch = build_tc_tree(mutated)
        expected = ("noop",) if not deltas else ("incremental", "full")
        assert result.route in expected
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)

    @settings(deadline=None, max_examples=15)
    @given(database_networks())
    def test_empty_stream_is_a_fresh_identical_clone(self, network):
        base = build_tc_tree(network)
        result = apply_deltas(network, base, [])
        assert result.route == "noop"
        assert result.tree is not base
        assert result.tree.root is not base.root
        assert snapshot_bytes(result.tree) == snapshot_bytes(base)

    @settings(deadline=None, max_examples=15)
    @given(database_networks(),
           st.sets(st.integers(min_value=0, max_value=4),
                   min_size=1, max_size=3))
    def test_duplicate_insert_deltas(self, network, items):
        """The same insert twice is legal (distinct tids) and must land
        exactly like two scratch-visible transactions."""
        target = sorted(network.databases)[0]
        base = build_tc_tree(network)
        mutated = copy.deepcopy(network)
        delta = Delta.insert(target, sorted(items))
        result = apply_deltas(
            mutated, base, [delta, Delta.insert(target, sorted(items))],
            mode="incremental",
        )
        scratch = build_tc_tree(mutated)
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)

    def test_process_backend_bit_identical(self, toy_network):
        """One non-hypothesis case through the process pool (expensive)."""
        network = copy.deepcopy(toy_network)
        base = build_tc_tree(network)
        vertex = sorted(network.databases)[0]
        result = apply_deltas(
            network, base,
            [Delta.insert(vertex, [0, 1]), Delta.delete(vertex, 0)],
            mode="incremental", workers=2, backend="process",
        )
        scratch = build_tc_tree(network)
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)


class TestEdgeDeltaEquivalence:
    @settings(deadline=None, max_examples=15)
    @given(edge_maintenance_cases())
    def test_incremental_bit_identical_to_scratch(self, case):
        network, deltas = case
        base = build_edge_tc_tree(network, backend="serial")
        mutated = copy.deepcopy(network)
        result = apply_deltas(mutated, base, deltas, mode="incremental")
        scratch = build_edge_tc_tree(mutated, backend="serial")
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)

    @settings(deadline=None, max_examples=8)
    @given(edge_maintenance_cases())
    def test_empty_and_full_route(self, case):
        network, deltas = case
        base = build_edge_tc_tree(network, backend="serial")
        mutated = copy.deepcopy(network)
        result = apply_deltas(mutated, base, deltas, mode="full")
        scratch = build_edge_tc_tree(mutated, backend="serial")
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)


class TestDeltaStreamRejection:
    """Satellite: invalid deltas raise TCIndexError before any mutation."""

    def test_unknown_vertex_rejected_atomically(self, toy_network):
        from repro.errors import TCIndexError

        network = copy.deepcopy(toy_network)
        base = build_tc_tree(network)
        before = {
            v: db.num_transactions
            for v, db in network.databases.items()
        }
        good = Delta.insert(sorted(network.databases)[0], [0])
        bad = Delta.insert(9_999, [0])
        with pytest.raises(TCIndexError):
            apply_deltas(network, base, [good, bad])
        after = {
            v: db.num_transactions
            for v, db in network.databases.items()
        }
        assert after == before  # the good delta was not applied either

    def test_unknown_tid_rejected(self, toy_network):
        from repro.errors import TCIndexError

        network = copy.deepcopy(toy_network)
        base = build_tc_tree(network)
        vertex = sorted(network.databases)[0]
        with pytest.raises(TCIndexError, match="unknown transaction id"):
            apply_deltas(network, base, [Delta.delete(vertex, 10_000)])

    def test_unknown_edge_rejected(self):
        from repro.errors import TCIndexError

        network = EdgeDatabaseNetwork()
        network.add_transaction(0, 1, [0, 1])
        network.add_transaction(1, 2, [1])
        base = build_edge_tc_tree(network, backend="serial")
        with pytest.raises(TCIndexError, match="not in network"):
            apply_deltas(network, base, [Delta.insert((0, 5), [0])])

    def test_delete_may_name_tid_inserted_in_stream(self, toy_network):
        network = copy.deepcopy(toy_network)
        base = build_tc_tree(network)
        vertex = sorted(network.databases)[0]
        tid = network.databases[vertex].next_tid
        result = apply_deltas(
            network, base,
            [Delta.insert(vertex, [0, 1]), Delta.delete(vertex, tid)],
            mode="incremental",
        )
        scratch = build_tc_tree(network)
        assert snapshot_bytes(result.tree) == snapshot_bytes(scratch)
