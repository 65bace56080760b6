"""Cross-backend metrics parity: serial == thread == process totals.

The route counter (``repro_engine_route_total``) counts one increment per
decomposition, wherever it ran. The serial build is the oracle; the
thread backend shares its registry in-process, and the process backend
ships worker-side deltas over the return channel and merges them into
the orchestrator's registry. If the merge plumbing dropped or
double-counted a chunk, these totals diverge.

Totals are compared summed over labels: the *route taken* legitimately
differs between backends (workers receive carrier-projected graphs the
serial build derives in place), but the *number of decompositions* must
not. Triangle-index counters are excluded for the same reason — workers
re-derive triangle indexes after chunk caches are released.
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import generate_synthetic_network
from repro.engine.registry import ROUTE_COUNTER, observed_routes
from repro.index.tctree import build_tc_tree
from repro.obs.metrics import use_registry


@pytest.fixture(scope="module")
def syn_network():
    """A synthetic network big enough to exercise both worker phases."""
    return generate_synthetic_network(
        num_items=6,
        num_seeds=2,
        mutation_rate=0.4,
        max_transactions=12,
        max_transaction_length=4,
        seed=3,
    )


def _route_total(network, *, backend: str, workers: int):
    with use_registry() as registry:
        tree = build_tc_tree(network, workers=workers, backend=backend)
        total = registry.snapshot().counter_total(ROUTE_COUNTER)
    return total, tree


class TestRouteTotalParity:
    def test_serial_process_totals_match(self, syn_network):
        serial_total, serial_tree = _route_total(
            syn_network, backend="serial", workers=1
        )
        process_total, process_tree = _route_total(
            syn_network, backend="process", workers=2
        )
        assert serial_total > 0
        assert process_total == serial_total
        # Sanity: the trees the counters describe are the same tree.
        assert process_tree.patterns() == serial_tree.patterns()

    def test_worker_deltas_actually_merge(self, syn_network):
        """On the process backend nearly all decompositions happen in
        workers; a broken return channel would leave the orchestrator's
        registry near-empty rather than merely off by a little."""
        with use_registry() as registry:
            build_tc_tree(syn_network, workers=2, backend="process")
            snap = registry.snapshot()
            per_route = observed_routes("vertex")
        total = snap.counter_total(ROUTE_COUNTER)
        assert sum(per_route.values()) == total
        assert total >= 2  # layer 1 alone has several items

    def test_registry_isolation_between_builds(self, syn_network):
        """use_registry scoping: a second build starts from zero."""
        first, _ = _route_total(syn_network, backend="serial", workers=1)
        second, _ = _route_total(syn_network, backend="serial", workers=1)
        assert first == second
