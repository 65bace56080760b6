"""Shared fixtures for the serving-layer tests.

The parity discipline mirrors PR 2: the in-memory tree queried by
:func:`query_tc_tree` is the oracle, and every serving backend must
reproduce its answers bit-identically (trusses, retrieved_nodes,
visited_nodes).
"""

from __future__ import annotations

import pytest

from repro.index.query import QueryAnswer
from repro.index.warehouse import ThemeCommunityWarehouse
from repro.serve.engine import IndexedWarehouse
from repro.serve.server import start_server_thread
from repro.serve.snapshot import write_snapshot


def assert_answers_identical(
    expected: QueryAnswer, actual: QueryAnswer
) -> None:
    """Bit-identical answer check: counts, patterns, edges, frequencies."""
    assert actual.query_pattern == expected.query_pattern
    assert actual.alpha == expected.alpha
    assert actual.retrieved_nodes == expected.retrieved_nodes
    assert actual.visited_nodes == expected.visited_nodes
    assert [t.pattern for t in actual.trusses] == [
        t.pattern for t in expected.trusses
    ]
    for ours, theirs in zip(actual.trusses, expected.trusses):
        assert set(ours.graph.iter_edges()) == set(
            theirs.graph.iter_edges()
        )
        assert ours.frequencies == theirs.frequencies
        assert ours.alpha == theirs.alpha


@pytest.fixture(scope="session")
def toy_warehouse(toy_network) -> ThemeCommunityWarehouse:
    return ThemeCommunityWarehouse.build(toy_network)


@pytest.fixture()
def toy_snapshot_path(toy_warehouse, tmp_path):
    path = tmp_path / "toy.tcsnap"
    write_snapshot(toy_warehouse.tree, path)
    return path


@pytest.fixture()
def running_server(toy_snapshot_path):
    """``(base URL, engine)`` of a server on an ephemeral loopback port."""
    engine = IndexedWarehouse.open(toy_snapshot_path)
    server, _thread = start_server_thread(engine)
    yield f"http://127.0.0.1:{server.server_address[1]}", engine
    server.shutdown()
    server.server_close()
    engine.close()
