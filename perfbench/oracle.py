"""Correctness oracle: every served answer against the in-process answer.

The expected body of a request is recomputed on the in-memory tree of
the generation that answered it, with the tree-path functions the
serving engine must agree with (``query_tc_tree``, ``top_k_communities``
and ``attributed_community_search`` on a ``TCTree``), and shaped as the
server documents its JSON. Bodies are compared by digest first; a digest
mismatch falls back to a structural comparison, so only a different
answer counts as a failure, never a different byte layout.
"""

from __future__ import annotations

import hashlib
import json
from urllib.parse import parse_qs, urlsplit

from repro.index.query import query_tc_tree
from repro.search.attributed import attributed_community_search
from repro.search.topk import top_k_communities


def _ints(text: str | None):
    if not text:
        return None
    return tuple(int(part) for part in text.split(","))


def _community(community) -> dict:
    return {
        "pattern": list(community.pattern),
        "alpha": community.alpha,
        "size": community.size,
        "members": sorted(community.members),
    }


def answer_payload(tree, pattern, alpha: float, generation: int) -> dict:
    answer = query_tc_tree(tree, pattern=pattern, alpha=alpha)
    answer.generation = generation
    return answer.to_payload()


def expected_payload(request, tree, answer) -> dict:
    """The body ``request`` must get from ``tree``; ``answer(pattern,
    alpha)`` gives one query's payload."""
    if request.method == "POST":
        document = json.loads(request.body)
        return {
            "answers": [
                answer(
                    None if q["pattern"] is None else tuple(q["pattern"]),
                    q["alpha"],
                )
                for q in document["queries"]
            ]
        }
    url = urlsplit(request.path)
    params = {k: v[0] for k, v in parse_qs(url.query).items()}
    alpha = float(params.get("alpha", 0.0))
    if url.path == "/query":
        return answer(_ints(params.get("pattern")), alpha)
    if url.path == "/top-k":
        communities = top_k_communities(
            tree,
            int(params["k"]),
            pattern=_ints(params.get("pattern")),
            alpha=alpha,
            min_size=3,
        )
        return {
            "k": len(communities),
            "communities": [_community(c) for c in communities],
        }
    if url.path == "/search":
        matches = attributed_community_search(
            tree,
            _ints(params["vertices"]),
            _ints(params["attributes"]),
            alpha=alpha,
        )
        return {
            "matches": [
                {
                    "pattern": list(m.pattern),
                    "coverage": m.coverage,
                    "strength": m.strength,
                    "community": _community(m.community),
                }
                for m in matches
            ]
        }
    raise ValueError(f"no oracle for {request.path}")


def digest(body: bytes) -> str:
    return hashlib.sha1(body).hexdigest()


class Oracle:
    """Expected answers per ``(request, generation)``, computed once.

    Only digests and JSON text are kept, so the oracle adds no objects
    for the garbage collector to walk while the timed phases run; a
    digest mismatch recomputes the expected payload to compare.
    """

    def __init__(self) -> None:
        self.trees: dict[int, object] = {}
        self._digests: dict[tuple, str] = {}
        self._answers: dict[tuple, str] = {}

    def add_generation(self, generation: int, tree) -> None:
        self.trees[generation] = tree

    def _payload(self, request, generation: int) -> dict:
        tree = self.trees[generation]
        return expected_payload(
            request,
            tree,
            lambda pattern, alpha: answer_payload(
                tree, pattern, alpha, generation
            ),
        )

    def prepare(self, request, generation: int) -> None:
        key = (request.key, generation)
        if key in self._digests:
            return
        if request.method == "POST":
            # A batch body is its answers' JSON joined in order, so the
            # queries batches share are answered once.
            parts = []
            for query in json.loads(request.body)["queries"]:
                pattern = query["pattern"]
                memo = (
                    None if pattern is None else tuple(pattern),
                    query["alpha"],
                    generation,
                )
                if memo not in self._answers:
                    self._answers[memo] = json.dumps(
                        answer_payload(self.trees[generation], *memo)
                    )
                parts.append(self._answers[memo])
            text = '{"answers": [' + ", ".join(parts) + "]}"
        else:
            text = json.dumps(self._payload(request, generation))
        self._digests[key] = digest(text.encode())

    def check(self, request, generation: int, body: bytes) -> bool:
        if generation not in self.trees:
            return False
        self.prepare(request, generation)
        if digest(body) == self._digests[(request.key, generation)]:
            return True
        try:
            return json.loads(body) == self._payload(request, generation)
        except ValueError:
            return False


class Tally:
    """Attempted/failed accounting of a run.

    A non-200 status (0 for a transport error), a wrong answer or a
    failed check each count as one failure.
    """

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        """Count one checked operation; a failure when not ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    def check(self, request, status: int, body: bytes, generation: int):
        """Count one request; it must be a 200 with the right answer."""
        what = f"{request.method} {request.path[:60]}"
        if status != 200:
            self.expect(False, f"{what} -> {status}")
        else:
            self.expect(
                self.oracle.check(request, generation, body),
                f"wrong answer from generation {generation}: {what}",
            )


def canonical_tree(tree) -> list:
    """A tree as an index: per node its pattern, level thresholds, edge
    sets and frequencies — everything an answer depends on, without the
    order of edges inside a level."""
    return [
        (
            node.pattern,
            [
                (level.alpha, sorted(level.removed_edges))
                for level in node.decomposition.levels
            ],
            sorted(node.decomposition.frequencies.items()),
        )
        for node in tree.iter_nodes()
    ]


def body_generation(request, body: bytes) -> set[int]:
    """Generation stamps carried by a /query response body."""
    document = json.loads(body)
    answers = document["answers"] if request.method == "POST" else [document]
    return {answer.get("generation") for answer in answers}
