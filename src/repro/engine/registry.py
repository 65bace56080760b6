"""First-class model registry: one :class:`ModelSpec` per workload.

PR 5 folded the edge TC-Tree onto the vertex engine through a private
string-keyed dict in :mod:`repro.index.parallel`; every other layer
still branched on ``"vertex"``/``"edge"`` by hand (snapshot payload
kind, CLI ``--kind`` choices, the tuner's hard-coded constant triple).
This module is the explicit interface those layers now share: a
``ModelSpec`` bundles everything the stack needs to know about one
workload —

- the build hooks one TC-Tree build loop calls — decompose a pattern,
  warm the network's triangle index, estimate layer-1 costs — as
  ``"pkg.mod:attr"`` references resolved at call time,
- the decomposition, node and tree classes,
- the snapshot payload kind — header version and flags, and the
  ``key_width`` of its frequency keys (one codec serves every model),
- the engine cutover constants (:class:`CutoverSpec`) the tuner sweeps,
- the parity oracle backend the fast path is tested against.

Registration is **lazy**: a model registers a zero-argument factory and
the spec is built on first lookup. This keeps the registry importable
from anywhere (it imports nothing from ``repro`` at module level) and
preserves the circular-import discipline the old dict encoded by hand —
``repro.edgenet.index`` calls into the parallel orchestrator, so the
edge spec must not be imported until someone actually asks for it.

Registering a new model::

    from repro.engine import registry

    registry.register_model(
        "mymodel",
        _my_spec_factory,        # () -> ModelSpec
        tree=True,               # appears in CLI --kind, serves snapshots
    )

Worker processes resolve the same names through the same module-level
table (the built-ins register at import), so a model name in the pickled
worker state round-trips on both fork and spawn platforms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

from repro.errors import TCIndexError


def resolve_ref(ref: str):
    """Resolve a ``"package.module:attribute"`` dotted reference."""
    module_name, _, attribute = ref.partition(":")
    if not module_name or not attribute:
        raise TCIndexError(
            f"malformed reference {ref!r}; expected 'pkg.mod:attr'"
        )
    return getattr(import_module(module_name), attribute)


@dataclass(frozen=True)
class CutoverSpec:
    """One engine cutover constant a model declares for the tuner.

    ``value_ref``/``value``: where the current value lives — a dotted
    ``"pkg.mod:CONST"`` reference read live (so ``--apply`` rewrites are
    observable after a reimport), or a fixed number for ratios baked
    into arithmetic. ``sweep`` names the timing-sweep function
    (``(points, reps) -> {"x", "slow", "fast"}``); ``applicable`` marks
    whether ``tune-cutovers --apply`` may rewrite ``NAME = <int>`` in
    ``source``.
    """

    name: str
    source: str
    sweep: str
    unit: str = "edges"
    value_ref: str | None = None
    value: float | None = None
    applicable: bool = True

    def current(self) -> float:
        if self.value_ref is not None:
            return float(resolve_ref(self.value_ref))
        if self.value is None:
            raise TCIndexError(
                f"cutover {self.name} declares neither value_ref nor value"
            )
        return float(self.value)

    def sweep_fn(self) -> Callable:
        return resolve_ref(self.sweep)


@dataclass(frozen=True)
class ModelSpec:
    """Everything the stack knows about one registered workload model."""

    name: str
    #: Human wording for stats/reports (``repro stats``, ``/stats``).
    display: str
    description: str = ""
    #: Parity oracle backend the fast path is tested against
    #: (``"legacy"``, ``"serial"``, ``"tree"`` ...).
    oracle: str | None = None
    cutovers: tuple[CutoverSpec, ...] = ()

    # -- tree build API (tree models only) -----------------------------
    #: ``"pkg.mod:attr"`` references to the build hooks, resolved by
    #: :meth:`hook` at each build (like :attr:`CutoverSpec.value_ref`),
    #: so whatever the module attribute is bound to then is what runs:
    #: ``decompose(network, pattern, carrier=, capture_carrier=)``,
    #: ``warm(network, items)`` (pre-enumerate the network triangles)
    #: and ``layer1_costs(network, items)`` (chunking cost proxy).
    decompose: str | None = None
    warm: str | None = None
    layer1_costs: str | None = None
    #: The :class:`~repro.index.decomposition.TrussDecomposition` class
    #: this model builds and its snapshot payloads decode into.
    decomposition_cls: type | None = None
    node_cls: type | None = None
    make_tree: Callable | None = None

    # -- snapshot payload kind (tree models only) ----------------------
    snapshot_version: int | None = None
    snapshot_flags: int = 0
    #: int64 columns of one payload frequency key: 1 for a vertex, 2
    #: for an edge's canonical endpoint pair.
    key_width: int = 1

    # -- workload entry point (non-tree models) ------------------------
    entry: Callable | None = None

    @property
    def is_tree_model(self) -> bool:
        return self.node_cls is not None

    @property
    def has_snapshot(self) -> bool:
        return self.snapshot_version is not None

    def hook(self, name: str) -> Callable:
        """The build hook ``name`` (``"decompose"``, ``"warm"``,
        ``"layer1_costs"``) as its module binds it now."""
        return resolve_ref(getattr(self, name))


# ---------------------------------------------------------------------------
# the registry table
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()
_FACTORIES: dict[str, Callable[[], ModelSpec]] = {}  # guarded-by: _LOCK
_SPECS: dict[str, ModelSpec] = {}  # guarded-by: _LOCK
#: Names registered as tree models, in registration order — known without
#: resolving the (lazy, possibly import-heavy) factories, so e.g. the CLI
#: can build its ``--kind`` choices at parser-construction time.
_TREE_NAMES: list[str] = []  # guarded-by: _LOCK


def register_model(
    name: str, factory: Callable[[], ModelSpec], tree: bool = False
) -> None:
    """Register ``factory`` to build the spec of model ``name`` on demand.

    ``tree`` marks TC-Tree models (build orchestration + snapshot kind);
    non-tree workloads (probtruss, attributed search) still declare
    cutovers, oracle, and entry point. Re-registering a name replaces the
    previous registration (latest wins — tests swap models in and out).
    """
    with _LOCK:
        _FACTORIES[name] = factory
        _SPECS.pop(name, None)
        if tree and name not in _TREE_NAMES:
            _TREE_NAMES.append(name)
        if not tree and name in _TREE_NAMES:
            _TREE_NAMES.remove(name)


def unregister_model(name: str) -> None:
    with _LOCK:
        _FACTORIES.pop(name, None)
        _SPECS.pop(name, None)
        if name in _TREE_NAMES:
            _TREE_NAMES.remove(name)


def get_model(name: str) -> ModelSpec:
    """The resolved :class:`ModelSpec` of ``name`` (factory memoized)."""
    with _LOCK:
        spec = _SPECS.get(name)
        if spec is not None:
            return spec
        factory = _FACTORIES.get(name)
    if factory is None:
        raise TCIndexError(
            f"unknown model {name!r} (registered: {', '.join(model_names())})"
        )
    # Build outside the lock: factories import model modules, which may
    # themselves take the lock for lookups of *other* models.
    spec = factory()
    if spec.name != name:
        raise TCIndexError(
            f"model factory for {name!r} built a spec named {spec.name!r}"
        )
    with _LOCK:
        return _SPECS.setdefault(name, spec)


def model_names() -> tuple[str, ...]:
    """Every registered model name, in registration order."""
    with _LOCK:
        return tuple(_FACTORIES)


def tree_model_names() -> tuple[str, ...]:
    """Registered tree-model names (no factory resolution needed)."""
    with _LOCK:
        return tuple(_TREE_NAMES)


def model_for_tree(tree) -> ModelSpec:
    """The spec a built tree dispatches through (by its ``kind`` tag)."""
    return get_model(getattr(tree, "kind", "vertex"))


def model_for_flags(flags: int) -> ModelSpec:
    """The tree model whose payload kind a snapshot header's flags name.

    The match is exact: a flag bit no model declares is a payload this
    build cannot decode, so the header is refused, not half-read.
    """
    for name in tree_model_names():
        spec = get_model(name)
        if spec.has_snapshot and spec.snapshot_flags == flags:
            return spec
    raise TCIndexError(f"unsupported snapshot payload flags {flags:#x}")


def all_cutovers() -> list[tuple[ModelSpec, CutoverSpec]]:
    """Every declared engine cutover, in model registration order."""
    pairs: list[tuple[ModelSpec, CutoverSpec]] = []
    for name in model_names():
        spec = get_model(name)
        pairs.extend((spec, cutover) for cutover in spec.cutovers)
    return pairs


# ---------------------------------------------------------------------------
# route observation
# ---------------------------------------------------------------------------

#: Counter family every model's routing decisions report into, labelled
#: ``{model=..., route=...}`` — e.g. ``route="carrier-projected+csr"``.
#: The tuner (:mod:`repro.bench.tuning`) reads the observed production
#: distribution back through :func:`observed_routes` when judging whether
#: a cutover constant matches the routes a deployment actually takes.
ROUTE_COUNTER = "repro_engine_route_total"

_ROUTE_HELP = (
    "Decomposition/engine route decisions taken, by model and route tag."
)

#: Counter handles for the registry last seen by :func:`record_route`.
#: The call sits on the once-per-decomposition path, and resolving the
#: labelled child through the registry (label-key sort + registry lock)
#: costs ~6× a cached ``Counter.inc``, so the handles are memoized and
#: the whole cache evicted when the default registry changes (e.g. a
#: ``use_registry`` swap) — which also drops any handle into a retired
#: registry. Races are benign: the registry's get-or-create returns the
#: same child to every thread, so a lost cache write only re-resolves.
_route_cache_registry: object | None = None
_route_cache: dict[tuple[str, str], object] = {}


def record_route(model: str, route: str) -> None:
    """Count one routing decision on the default metrics registry."""
    # Imported lazily: the registry must stay importable before the obs
    # package (and keeps its no-repro-imports-at-module-level discipline).
    from repro.obs.metrics import default_registry

    global _route_cache_registry, _route_cache
    registry = default_registry()
    if registry is not _route_cache_registry:
        # Dict first, tag second: a concurrent reader then sees either a
        # stale tag (and re-evicts) or the fresh empty dict — never a
        # fresh tag over stale handles.
        _route_cache = {}
        _route_cache_registry = registry
    counter = _route_cache.get((model, route))
    if counter is None:
        counter = _route_cache[(model, route)] = registry.counter(
            ROUTE_COUNTER, help=_ROUTE_HELP, model=model, route=route
        )
    counter.inc()


def count_routes(model: str, decompose: Callable) -> Callable:
    """Wrap a decompose entry point to count the ``route`` it reports.

    The returned callable is what multi-exit decompose functions (the
    edge engine has seven return sites) publish instead of sprinkling
    counters at every ``return``.
    """
    import functools

    @functools.wraps(decompose)
    def counted(*args, **kwargs):
        decomposition = decompose(*args, **kwargs)
        route = getattr(decomposition, "route", None)
        if route:
            record_route(model, route)
        return decomposition

    return counted


def observed_routes(model: str) -> dict[str, float]:
    """Route tag -> observed count for ``model``, from the default registry."""
    from repro.obs.metrics import default_registry

    routes: dict[str, float] = {}
    for key, value in default_registry().counters(ROUTE_COUNTER).items():
        labels = dict(key)
        if labels.get("model") == model and "route" in labels:
            routes[labels["route"]] = routes.get(labels["route"], 0) + value
    return routes


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def _vertex_spec() -> ModelSpec:
    from repro.index.decomposition import TrussDecomposition
    from repro.index.tcnode import TCNode
    from repro.index.tctree import TCTree
    from repro.serve.snapshot import VERSION

    return ModelSpec(
        name="vertex",
        display="TC-Tree",
        description="vertex database networks (Chu et al., Algorithm 4)",
        oracle="serial",
        decompose="repro.index.decomposition:decompose_network_pattern",
        warm="repro.index.decomposition:warm_network_triangles",
        layer1_costs="repro.index.parallel:layer1_costs",
        decomposition_cls=TrussDecomposition,
        node_cls=TCNode,
        make_tree=lambda root, num_items: TCTree(root, num_items=num_items),
        snapshot_version=VERSION,
        snapshot_flags=0,
        key_width=1,
        cutovers=(
            CutoverSpec(
                name="CSR_MIN_EDGES",
                source="src/repro/graphs/support.py",
                sweep="repro.bench.tuning:sweep_csr_min_edges",
                value_ref="repro.graphs.support:CSR_MIN_EDGES",
            ),
            CutoverSpec(
                name="NET_REUSE_FRACTION",
                source="src/repro/index/decomposition.py "
                       "(_prefer_network_reuse)",
                sweep="repro.bench.tuning:sweep_net_reuse_fraction",
                unit="fraction of net edges",
                # A ratio baked into integer arithmetic — report-only.
                value=0.9,
                applicable=False,
            ),
            CutoverSpec(
                name="MAINT_FULL_REBUILD_FRACTION",
                source="src/repro/index/updates.py",
                sweep="repro.bench.tuning:sweep_maint_full_rebuild_fraction",
                unit="affected fraction of the item universe",
                value_ref="repro.index.updates:MAINT_FULL_REBUILD_FRACTION",
                # A fraction, not a rewritable integer — report-only.
                applicable=False,
            ),
        ),
    )


def _edge_spec() -> ModelSpec:
    from repro.edgenet.decomposition import EdgeTrussDecomposition
    from repro.edgenet.index import EdgeTCNode, EdgeTCTree
    from repro.serve.snapshot import EDGE_VERSION, FLAG_EDGE

    return ModelSpec(
        name="edge",
        display="Edge TC-Tree",
        description="edge database networks (per-edge frequencies)",
        oracle="legacy",
        decompose="repro.edgenet.decomposition:"
                  "decompose_edge_network_pattern",
        warm="repro.edgenet.decomposition:warm_edge_network_triangles",
        layer1_costs="repro.edgenet.decomposition:edge_layer1_costs",
        decomposition_cls=EdgeTrussDecomposition,
        node_cls=EdgeTCNode,
        make_tree=lambda root, num_items: EdgeTCTree(
            root, num_items=num_items
        ),
        snapshot_version=EDGE_VERSION,
        snapshot_flags=FLAG_EDGE,
        key_width=2,
        cutovers=(
            CutoverSpec(
                name="EDGE_CSR_MIN_EDGES",
                source="src/repro/edgenet/decomposition.py",
                sweep="repro.bench.tuning:sweep_edge_csr_min_edges",
                value_ref="repro.edgenet.decomposition:EDGE_CSR_MIN_EDGES",
            ),
        ),
    )


def _probtruss_spec() -> ModelSpec:
    from repro.graphs.probtruss import probabilistic_k_truss

    return ModelSpec(
        name="probtruss",
        display="probabilistic (k, gamma)-truss",
        description="(k, gamma)-truss peeling on probabilistic graphs",
        oracle="legacy",
        entry=probabilistic_k_truss,
        cutovers=(
            CutoverSpec(
                name="PROB_CSR_MIN_EDGES",
                source="src/repro/graphs/probtruss.py",
                sweep="repro.bench.tuning:sweep_prob_csr_min_edges",
                value_ref="repro.graphs.probtruss:PROB_CSR_MIN_EDGES",
            ),
        ),
    )


def _attributed_spec() -> ModelSpec:
    from repro.search.attributed import attributed_community_search

    return ModelSpec(
        name="attributed",
        display="attributed community search",
        description="ATC-style filtered QBP over a warehouse engine",
        # The in-memory query_tc_tree path is the oracle the
        # snapshot-backed engine path must answer bit-identically to.
        oracle="tree",
        entry=attributed_community_search,
    )


register_model("vertex", _vertex_spec, tree=True)
register_model("edge", _edge_spec, tree=True)
register_model("probtruss", _probtruss_spec)
register_model("attributed", _attributed_spec)


__all__ = [
    "CutoverSpec",
    "ModelSpec",
    "ROUTE_COUNTER",
    "all_cutovers",
    "count_routes",
    "get_model",
    "observed_routes",
    "record_route",
    "model_for_flags",
    "model_for_tree",
    "model_names",
    "register_model",
    "resolve_ref",
    "tree_model_names",
    "unregister_model",
]
