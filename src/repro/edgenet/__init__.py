"""Edge database networks — the paper's stated future work (Section 8).

    "As future works, we will extend TCFI and TC-Tree to find theme
    communities from edge database network, where each edge is associated
    with a transaction database that describes complex relationships
    between vertices."

This package provides that extension. In an edge database network the
transaction database sits on each *edge* (e.g. the messages exchanged
between two users, the papers two authors co-wrote), so the pattern
frequency ``f_e(p)`` is per-edge. Definitions carry over naturally:

- the *edge theme network* ``G_p`` keeps the edges with ``f_e(p) > 0``;
- the *edge cohesion* of an edge in a subgraph sums, over the triangles
  containing it, the minimum frequency among the triangle's three *edges*;
- maximal pattern trusses, decomposition, and the level-wise TCFI-style
  finder then work exactly as in the vertex model.

With all edge frequencies equal to 1 the model again degenerates to
Cohen's k-truss, mirroring Section 3.2 — a property the test suite checks.
"""

from repro.edgenet.cohesion import (
    edge_theme_cohesion,
    edge_theme_cohesion_table,
)
from repro.edgenet.decomposition import (
    EdgeTrussDecomposition,
    decompose_edge_network_pattern,
)
from repro.edgenet.finder import (
    EdgeThemeCommunityFinder,
    edge_tcfi,
    maximal_edge_pattern_truss,
)
from repro.edgenet.index import (
    EdgeTCNode,
    EdgeTCTree,
    build_edge_tc_tree,
)
from repro.edgenet.network import EdgeDatabaseNetwork
from repro.edgenet.theme import induce_edge_theme_network

__all__ = [
    "EdgeDatabaseNetwork",
    "induce_edge_theme_network",
    "edge_theme_cohesion",
    "edge_theme_cohesion_table",
    "maximal_edge_pattern_truss",
    "edge_tcfi",
    "EdgeThemeCommunityFinder",
    "EdgeTrussDecomposition",
    "decompose_edge_network_pattern",
    "EdgeTCNode",
    "EdgeTCTree",
    "build_edge_tc_tree",
]
