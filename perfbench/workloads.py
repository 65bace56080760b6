"""Workload definitions: the fixed networks, the seeded request mix and
the seeded delta stream.

Each workload fixes what sets the amount of work — its network (built
from constant generator seeds), its pool of distinct requests and the
deltas it applies — so index size, per-request cost and maintenance
work do not change between benchmark seeds. The ``--seed`` argument
draws the rest of what a run sends to the program: the order of the
requests and the order of the deltas.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass

from repro.datasets.synthetic import generate_synthetic_network
from repro.graphs.generators import powerlaw_cluster_graph
from repro.index.updates import Delta

#: Indexed pattern length cap, as in the paper's experiments.
MAX_LENGTH = 3

#: α levels, as fractions of the index's α*, that QBA, top-k and search
#: requests draw from.
ALPHA_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 0.75)

#: Distinct requests of each kind in a workload's pool (QBA has one per
#: α level). Every round of the closed loop sends each of them once, so
#: each endpoint gets the same requests in every run and only their
#: order depends on the seed. QBP gets more, so GET /query has enough
#: samples for its p90.
POOL_SIZE = 5
QBP_SIZE = 7

BATCH_SIZE = 8
TOP_K = 10


def dense_network():
    """A dense few-item network: 500 vertices, 3,936 edges, 4 items."""
    graph = powerlaw_cluster_graph(500, 8, 0.85, seed=5)
    return generate_synthetic_network(
        num_items=4,
        num_seeds=2,
        mutation_rate=0.3,
        max_transactions=64,
        max_transaction_length=6,
        graph=graph,
        seed=5,
    )


def syn_network():
    """The SYN network: 500 vertices, 1,491 edges, 50 items."""
    return generate_synthetic_network(
        num_vertices=500, num_items=50, num_seeds=10, seed=0
    )


#: Share of a run's seconds spent in the quiet closed loop; the rest is
#: the publish phase (a reader while overlays publish).
SERVE_SHARE = 0.65

#: Maintenance rounds per run, one single-vertex delta each: enough for
#: a steady median, and a multiple of the server's default compaction
#: period (4), so the last publish compacts and its snapshot is checked.
DELTA_ROUNDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    network: object  # zero-argument network factory
    #: Rounds of the mix in the fixed-length traced serve phase, sized
    #: to take about as long as the untimed one.
    traced_rounds: int


WORKLOADS = {
    "serve-hot": Workload("serve-hot", dense_network, traced_rounds=6),
    "serve-spill": Workload("serve-spill", syn_network, traced_rounds=3),
}


# ---------------------------------------------------------------------------
# request pool and mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One HTTP request of the mix; ``key`` identifies its answer."""

    method: str
    path: str
    body: bytes | None = None

    @property
    def key(self) -> tuple:
        return (self.method, self.path, self.body)

    @property
    def endpoint(self) -> str:
        if self.method == "POST":
            return "batch"
        return {"/query": "query", "/top-k": "topk", "/search": "search"}[
            self.path.split("?", 1)[0]
        ]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _query(pattern, alpha: float) -> Request:
    path = f"/query?alpha={alpha!r}"
    if pattern is not None:
        path += f"&pattern={_csv(pattern)}"
    return Request("GET", path)


def _batch(specs) -> Request:
    body = json.dumps(
        {
            "queries": [
                {"pattern": None if p is None else list(p), "alpha": a}
                for p, a in specs
            ]
        }
    ).encode()
    return Request("POST", "/query", body)


def make_pool(tree) -> dict[str, list[Request]]:
    """The distinct requests of a workload by kind, non-trivial on ``tree``.

    The pool is part of the workload, like its network: it is drawn from
    a fixed generator, and ``--seed`` picks the order in which the mix
    sends its requests.
    """
    rng = random.Random("pool")
    alpha_star = tree.max_alpha()
    alphas = [f * alpha_star for f in ALPHA_FRACTIONS]
    items = sorted({node.item for node in tree.root.children})
    patterns = sorted(node.pattern for node in tree.iter_nodes())

    qba = [(None, a) for a in alphas]
    qbp = []
    for _ in range(QBP_SIZE):
        # Seed each QBP pattern with an indexed pattern so it retrieves
        # something, then pad it with other items up to 1-4 items.
        base = set(rng.choice(patterns))
        target = rng.randint(max(1, len(base)), 4)
        while len(base) < min(target, len(items)):
            base.add(rng.choice(items))
        qbp.append((tuple(sorted(base)), 0.0))
    specs = qba + qbp
    batches = [
        [rng.choice(specs) for _ in range(BATCH_SIZE)]
        for _ in range(POOL_SIZE)
    ]
    search = []
    candidates = [
        node for node in tree.iter_nodes() if node.decomposition is not None
    ]
    while len(search) < POOL_SIZE:
        node = rng.choice(candidates)
        alpha = rng.choice(alphas[:3])
        truss = node.decomposition.truss_at(alpha)
        communities = [c for c in truss.communities() if len(c) >= 2]
        if not communities:
            continue
        community = sorted(rng.choice(communities))
        vertices = sorted(rng.sample(community, min(2, len(community))))
        attributes = set(node.pattern)
        for _ in range(rng.randint(0, 2)):
            attributes.add(rng.choice(items))
        search.append(
            Request(
                "GET",
                f"/search?vertices={_csv(vertices)}"
                f"&attributes={_csv(sorted(attributes))}&alpha={alpha!r}",
            )
        )
    return {
        "qba": [_query(p, a) for p, a in qba],
        "qbp": [_query(p, a) for p, a in qbp],
        "batch": [_batch(b) for b in batches],
        "topk": [
            Request("GET", f"/top-k?k={TOP_K}&alpha={a!r}") for a in alphas
        ],
        "search": search,
    }


def _rounds(requests: list[Request], rng, rounds: int) -> list[Request]:
    sequence: list[Request] = []
    for _ in range(rounds):
        order = list(requests)
        rng.shuffle(order)
        sequence.extend(order)
    return sequence


def request_mix(pool, seed: int, rounds: int) -> list[Request]:
    """The closed-loop sequence: ``rounds`` seeded shuffles of the pool."""
    everything = [r for group in pool.values() for r in group]
    return _rounds(everything, random.Random(f"mix-{seed}"), rounds)


def reader_mix(pool, seed: int, rounds: int) -> list[Request]:
    """The publish-phase reader: rounds of the pool's GET /query requests."""
    return _rounds(
        pool["qba"] + pool["qbp"], random.Random(f"reader-{seed}"), rounds
    )


# ---------------------------------------------------------------------------
# delta stream
# ---------------------------------------------------------------------------

def delta_stream(network, seed: int, rounds: int) -> list[Delta]:
    """``rounds`` single-vertex deltas, valid in order against ``network``.

    Generated against a private copy, so ``network`` is untouched. The
    deltas themselves are fixed per network: distinct target vertices,
    and for each an operation (insert, modify or delete one
    transaction) and items of the vertex's own, drawn from a generator
    seeded by the vertex. As no two deltas touch one database, each is
    valid in any order, and the seed picks the order. So every run
    applies the same deltas, and a mean over its rounds moves with the
    program and the host far more than with the seed.
    """
    shadow = copy.deepcopy(network)
    candidates = [v for v in sorted(shadow.databases) if shadow.databases[v]]
    targets = random.Random("targets").sample(candidates, rounds)
    random.Random(f"deltas-{seed}").shuffle(targets)
    deltas: list[Delta] = []
    for vertex in targets:
        rng = random.Random(f"delta-{vertex}")
        database = shadow.databases[vertex]
        tids = sorted(database.tids())
        op = rng.choice(["insert", "modify", "delete"])
        if op == "delete" and len(tids) < 2:
            op = "insert"
        own = sorted(database.items())
        items = sorted(rng.sample(own, rng.randint(1, min(3, len(own)))))
        if op == "insert":
            delta = Delta.insert(vertex, items)
            database.add_transaction(items)
        elif op == "modify":
            tid = rng.choice(tids)
            delta = Delta.modify(vertex, tid, items)
            database.replace_transaction(tid, items)
        else:
            tid = rng.choice(tids)
            delta = Delta.delete(vertex, tid)
            database.remove_transaction(tid)
        deltas.append(delta)
    return deltas
