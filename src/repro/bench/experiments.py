"""Per-table / per-figure experiment drivers (Section 7 reproduction).

Each ``experiment_*`` function regenerates one table or figure of the
paper: it builds the workload, runs the measured sweep, and returns the
rows plus a formatted report. The drivers are shared by the pytest
benchmarks in ``benchmarks/`` and by ``python -m repro experiment ...``.

Scale presets
-------------
Pure Python cannot run the paper's 10⁶-edge networks in benchmark time, so
every driver accepts a scale preset. The *shape* of each figure (who wins,
slopes, crossovers) is preserved at every preset; only the axes shrink.

============  =====================  ==========================
preset        intended use           approx edge counts
============  =====================  ==========================
``tiny``      unit/CI benchmarks     ~200-600 per dataset
``small``     default benchmarks     ~600-2000 per dataset
``medium``    manual deep runs       ~2000-8000 per dataset
============  =====================  ==========================
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.bench.reporting import format_table
from repro.bench.runner import run_indexing, run_mining, run_query
from repro.datasets.checkin import generate_checkin_network
from repro.datasets.coauthor import generate_coauthor_network
from repro.datasets.synthetic import generate_synthetic_network
from repro.errors import MiningError
from repro.index.tctree import TCTree
from repro.network.dbnetwork import DatabaseNetwork
from repro.network.sampling import bfs_edge_sample
from repro.network.stats import network_statistics

#: The α sweep of Figure 3 and the ε values of the TCS baseline.
FIG3_ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 2.0)
TCS_EPSILONS = (0.1, 0.2, 0.3)

_SCALES = ("tiny", "small", "medium")


def _scaled(tiny: int, small: int, medium: int, scale: str) -> int:
    if scale not in _SCALES:
        raise MiningError(f"unknown scale {scale!r}; expected {_SCALES}")
    return {"tiny": tiny, "small": small, "medium": medium}[scale]


# ---------------------------------------------------------------------------
# dataset suite (the four networks of Table 2)
# ---------------------------------------------------------------------------

def make_bk(scale: str = "small", seed: int = 11) -> DatabaseNetwork:
    """Brightkite surrogate: smaller check-in network."""
    return generate_checkin_network(
        num_users=_scaled(60, 150, 500, scale),
        num_locations=_scaled(24, 40, 120, scale),
        num_groups=_scaled(6, 12, 40, scale),
        group_size=6,
        locations_per_group=3,
        periods=_scaled(12, 24, 40, scale),
        seed=seed,
    )


def make_gw(scale: str = "small", seed: int = 22) -> DatabaseNetwork:
    """Gowalla surrogate: larger, sparser check-in network."""
    return generate_checkin_network(
        num_users=_scaled(90, 250, 900, scale),
        num_locations=_scaled(32, 60, 200, scale),
        num_groups=_scaled(8, 18, 60, scale),
        group_size=7,
        locations_per_group=3,
        periods=_scaled(12, 24, 40, scale),
        visit_probability=0.55,
        seed=seed,
    )


def make_aminer(scale: str = "small", seed: int = 33) -> DatabaseNetwork:
    """AMINER surrogate: co-author network with planted research themes."""
    return generate_coauthor_network(
        num_authors=_scaled(80, 200, 700, scale),
        num_topics=_scaled(6, 10, 25, scale),
        keywords_per_topic=4,
        num_keywords=_scaled(40, 80, 200, scale),
        authors_per_topic=_scaled(15, 25, 50, scale),
        num_papers=_scaled(200, 600, 2500, scale),
        hyper_paper_authors=_scaled(0, 20, 40, scale),
        seed=seed,
    )


def make_syn(scale: str = "small", seed: int = 44) -> DatabaseNetwork:
    """SYN: the paper's synthetic recipe."""
    return generate_synthetic_network(
        num_vertices=_scaled(120, 400, 1500, scale),
        num_items=_scaled(24, 50, 120, scale),
        num_seeds=_scaled(4, 10, 30, scale),
        seed=seed,
    )


DATASET_MAKERS: dict[str, Callable[[str], DatabaseNetwork]] = {
    "BK": make_bk,
    "GW": make_gw,
    "AMINER": make_aminer,
    "SYN": make_syn,
}


def dataset_suite(scale: str = "small") -> dict[str, DatabaseNetwork]:
    """All four evaluation networks at the requested scale."""
    return {name: make(scale) for name, make in DATASET_MAKERS.items()}


# ---------------------------------------------------------------------------
# Table 2 — dataset statistics
# ---------------------------------------------------------------------------

def experiment_table2(scale: str = "small") -> tuple[list[dict], str]:
    """Regenerate Table 2: statistics of the database networks."""
    rows = []
    for name, network in dataset_suite(scale).items():
        stats = network_statistics(network, count_triangles_too=False)
        row: dict = {"dataset": name}
        row.update(stats.as_row())
        rows.append(row)
    return rows, format_table(
        rows, title=f"Table 2 — dataset statistics (scale={scale})"
    )


# ---------------------------------------------------------------------------
# Figure 3 — effect of α and ε (time + NP/NV/NE per method)
# ---------------------------------------------------------------------------

def experiment_fig3(
    dataset: str = "BK",
    scale: str = "tiny",
    alphas: Iterable[float] = FIG3_ALPHAS,
    epsilons: Iterable[float] = TCS_EPSILONS,
    sample_edges: int | None = None,
    max_length: int | None = None,
) -> tuple[list[dict], str]:
    """Regenerate Figure 3 for one dataset.

    The paper runs this on BFS samples (10k edges for BK/GW, 5k for
    AMINER); ``sample_edges`` applies the same protocol at our scale.
    """
    network = DATASET_MAKERS[dataset](scale)
    if sample_edges is not None:
        network = bfs_edge_sample(network, sample_edges, seed=7)
    rows: list[dict] = []
    for alpha in alphas:
        for method in ("tcfi", "tcfa"):
            run = run_mining(network, method, alpha, max_length=max_length)
            rows.append({"dataset": dataset, **run.as_row()})
        for epsilon in epsilons:
            run = run_mining(
                network, "tcs", alpha, epsilon=epsilon, max_length=max_length
            )
            rows.append({"dataset": dataset, **run.as_row()})
    return rows, format_table(
        rows,
        title=(
            f"Figure 3 — effect of alpha and epsilon on {dataset} "
            f"(scale={scale})"
        ),
    )


# ---------------------------------------------------------------------------
# Figure 4 — scalability vs #sampled edges (α = 0, worst case)
# ---------------------------------------------------------------------------

def experiment_fig4(
    dataset: str = "BK",
    scale: str = "small",
    sizes: Iterable[int] = (100, 200, 400, 800),
    methods: Iterable[str] = ("tcfi", "tcfa", "tcs"),
    epsilon: float = 0.1,
    max_length: int | None = None,
) -> tuple[list[dict], str]:
    """Regenerate Figure 4: runtime / NP / NV/NP / NE/NP vs sample size."""
    network = DATASET_MAKERS[dataset](scale)
    rows: list[dict] = []
    for size in sizes:
        sample = bfs_edge_sample(network, size, seed=7)
        for method in methods:
            run = run_mining(
                sample, method, alpha=0.0, epsilon=epsilon,
                max_length=max_length,
            )
            row = {
                "dataset": dataset,
                "edges": sample.num_edges,
                **run.as_row(),
            }
            rows.append(row)
    return rows, format_table(
        rows,
        title=f"Figure 4 — scalability on {dataset} (scale={scale})",
    )


# ---------------------------------------------------------------------------
# Table 3 — TC-Tree indexing performance
# ---------------------------------------------------------------------------

def experiment_table3(
    scale: str = "tiny",
    datasets: Iterable[str] = ("BK", "GW", "AMINER", "SYN"),
    max_length: int | None = None,
    workers: int = 1,
    backend: str = "serial",
) -> tuple[list[dict], str, dict[str, TCTree]]:
    """Regenerate Table 3: indexing time, peak memory, #nodes.

    ``backend`` defaults to the in-process serial build so the
    peak-memory column stays meaningful (see
    :func:`repro.bench.runner.run_indexing`).
    """
    rows: list[dict] = []
    trees: dict[str, TCTree] = {}
    for name in datasets:
        network = DATASET_MAKERS[name](scale)
        run, tree = run_indexing(
            network, max_length=max_length, workers=workers, backend=backend
        )
        trees[name] = tree
        rows.append({"dataset": name, **run.as_row()})
    return rows, format_table(
        rows, title=f"Table 3 — TC-Tree indexing (scale={scale})"
    ), trees


# ---------------------------------------------------------------------------
# Figure 5 — query performance (QBA and QBP)
# ---------------------------------------------------------------------------

def experiment_fig5_qba(
    tree: TCTree,
    dataset: str,
    alpha_step: float = 0.1,
    repeats: int = 25,
) -> tuple[list[dict], str]:
    """QBA sweep: q = S, α_q ascending by ``alpha_step`` until empty."""
    rows: list[dict] = []
    alpha = 0.0
    while True:
        run = run_query(tree, pattern=None, alpha=alpha, repeats=repeats)
        rows.append({"dataset": dataset, **run.as_row()})
        if run.metrics["retrieved_nodes"] == 0:
            break
        alpha = round(alpha + alpha_step, 10)
        if alpha > tree.max_alpha() + alpha_step:
            break
    return rows, format_table(
        rows, title=f"Figure 5 (QBA) — query by alpha on {dataset}"
    )


def experiment_fig5_qbp(
    tree: TCTree,
    dataset: str,
    patterns_per_length: int = 20,
    repeats: int = 25,
    seed: int = 5,
) -> tuple[list[dict], str]:
    """QBP sweep: random indexed patterns per length, α_q = 0.

    Mirrors the paper: query patterns are sampled from each TC-Tree layer
    so they always correspond to indexed maximal pattern trusses.
    """
    import random

    rng = random.Random(seed)
    rows: list[dict] = []
    for depth in range(1, tree.depth + 1):
        layer = tree.nodes_at_depth(depth)
        if not layer:
            continue
        chosen = rng.sample(layer, min(patterns_per_length, len(layer)))
        seconds = 0.0
        retrieved = 0
        for node in chosen:
            run = run_query(
                tree, pattern=node.pattern, alpha=0.0, repeats=repeats
            )
            seconds += run.seconds
            retrieved += run.metrics["retrieved_nodes"]
        rows.append(
            {
                "dataset": dataset,
                "pattern_length": depth,
                "seconds": seconds / len(chosen),
                "retrieved_nodes": retrieved / len(chosen),
            }
        )
    return rows, format_table(
        rows, title=f"Figure 5 (QBP) — query by pattern on {dataset}"
    )


# ---------------------------------------------------------------------------
# ablations (our additions, motivated by DESIGN.md)
# ---------------------------------------------------------------------------

def experiment_ablation_pruning(
    dataset: str = "BK",
    scale: str = "tiny",
    alphas: Iterable[float] = (0.0, 0.2, 0.5),
) -> tuple[list[dict], str]:
    """Ablate the two pruning layers: TCS (none) vs TCFA vs TCFI."""
    network = DATASET_MAKERS[dataset](scale)
    rows: list[dict] = []
    for alpha in alphas:
        for method in ("tcs", "tcfa", "tcfi"):
            run = run_mining(network, method, alpha, epsilon=0.1)
            rows.append({"dataset": dataset, **run.as_row()})
    return rows, format_table(
        rows, title=f"Ablation — pruning layers on {dataset} (scale={scale})"
    )


def _experiment_fig5(scale: str) -> str:
    """Both Figure 5 modes on one dataset (BK), via a fresh TC-Tree."""
    _, _, trees = experiment_table3(
        scale=scale, datasets=("BK",), max_length=3
    )
    _, qba = experiment_fig5_qba(trees["BK"], "BK", repeats=5)
    _, qbp = experiment_fig5_qbp(
        trees["BK"], "BK", patterns_per_length=5, repeats=5
    )
    return qba + "\n\n" + qbp


def _experiment_recovery(scale: str) -> str:
    """Planted-community recovery on the check-in surrogate."""
    from repro.core.finder import ThemeCommunityFinder
    from repro.datasets.ground_truth import evaluate_recovery

    network, planted = generate_checkin_network(
        num_users=_scaled(60, 150, 500, scale),
        num_groups=_scaled(6, 12, 40, scale),
        periods=_scaled(20, 25, 40, scale),
        visit_probability=0.75,
        seed=11,
        return_ground_truth=True,
    )
    mined = ThemeCommunityFinder(network).find_communities(
        alpha=0.2, max_length=3
    )
    report = evaluate_recovery(planted, mined, threshold=0.5)
    rows = [
        {
            "planted": report.num_planted,
            "mined": report.num_mined,
            "avg_best_jaccard": round(report.average_best_jaccard, 3),
            "recovery_rate": round(report.recovery_rate, 3),
        }
    ]
    return format_table(
        rows, title=f"Planted-community recovery (scale={scale})"
    )


ALL_EXPERIMENTS = {
    "table2": lambda scale: experiment_table2(scale)[1],
    "fig3": lambda scale: experiment_fig3(scale=scale)[1],
    "fig4": lambda scale: experiment_fig4(scale=scale)[1],
    "table3": lambda scale: experiment_table3(scale=scale)[1],
    "fig5": _experiment_fig5,
    "ablation": lambda scale: experiment_ablation_pruning(scale=scale)[1],
    "recovery": _experiment_recovery,
}
