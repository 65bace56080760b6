"""Single measured runs of mining, indexing, and querying.

These wrap the library entry points with the measurements the paper's
figures report: Time Cost + NP/NV/NE for mining (Figures 3-4), indexing
time + peak memory + #nodes for Table 3, and query time + retrieved nodes
for Figure 5.
"""

from __future__ import annotations

import time
from collections.abc import Iterable

from repro.bench.metrics import MeasuredRun, measure_memory, measure_time
from repro.core.finder import ThemeCommunityFinder
from repro.index.query import query_tc_tree
from repro.index.tctree import TCTree, build_tc_tree
from repro.network.dbnetwork import DatabaseNetwork


def run_mining(
    network: DatabaseNetwork,
    method: str,
    alpha: float,
    epsilon: float = 0.1,
    max_length: int | None = None,
) -> MeasuredRun:
    """One mining run; metrics are NP / NV / NE plus the per-truss means."""
    label = method if method != "tcs" else f"tcs(eps={epsilon})"
    run = MeasuredRun(label=label)
    finder = ThemeCommunityFinder(network)
    with measure_time(run):
        result = finder.find(
            alpha, method=method, epsilon=epsilon, max_length=max_length
        )
    run.metrics.update(result.metrics())
    run.metrics["alpha"] = alpha
    return run


def run_indexing(
    network: DatabaseNetwork,
    max_length: int | None = None,
    workers: int = 1,
    backend: str = "serial",
) -> tuple[MeasuredRun, TCTree]:
    """Build a TC-Tree, measuring time, peak memory, and #nodes (Table 3).

    ``backend`` defaults to ``"serial"`` (not the library's ``"process"``
    default): tracemalloc cannot see child-process allocations, so the
    Table 3 peak-memory column is only meaningful for an in-process
    build. Pass ``backend="process"`` explicitly to time the pool —
    and read ``peak_bytes`` as parent-side memory only.
    """
    run = MeasuredRun(label="tc-tree build")
    with measure_memory(run), measure_time(run):
        tree = build_tc_tree(
            network, max_length=max_length, workers=workers, backend=backend
        )
    run.metrics["nodes"] = tree.num_nodes
    run.metrics["depth"] = tree.depth
    return run, tree


def run_query(
    tree: TCTree,
    pattern: Iterable[int] | None = None,
    alpha: float = 0.0,
    repeats: int = 1,
) -> MeasuredRun:
    """One query, averaged over ``repeats`` runs (the paper averages 1000).

    Metrics: retrieved nodes (RN in Figure 5) and visited nodes.
    """
    label = "QBA" if pattern is None else "QBP"
    run = MeasuredRun(label=label)
    answer = None
    start = time.perf_counter()
    for _ in range(max(1, repeats)):
        answer = query_tc_tree(tree, pattern=pattern, alpha=alpha)
    run.seconds = (time.perf_counter() - start) / max(1, repeats)
    assert answer is not None
    run.metrics["retrieved_nodes"] = answer.retrieved_nodes
    run.metrics["visited_nodes"] = answer.visited_nodes
    run.metrics["alpha"] = alpha
    if pattern is not None:
        run.metrics["pattern_length"] = len(tuple(pattern))
    return run
