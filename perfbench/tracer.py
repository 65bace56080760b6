"""Span recording around the program's public functions.

The traced run wraps each layer's public entry points — from the
benchmark's own files, without editing the program — and folds the
spans into per-name call counts, total time and self time (total minus
the time of spans nested inside it on the same thread). A name is
``<layer>.<what>``; the layer table sums self times by the prefix.

:func:`install` replaces a function under every name its callers look
it up by: the defining module, each module that imported it by name,
and default arguments that captured it. Methods are replaced on their
class.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
import types

#: Spans whose individual durations are kept (for medians); the others
#: keep only sums.
SAMPLED = frozenset(
    {
        "snapshot.diff_trees",
        "snapshot.overlay_apply",
        "live.apply_delta",
    }
)

#: Server-process targets: request handling, engine, decode, encode.
SERVER_TARGETS = (
    ("server.handle", "repro.serve.server:WarehouseRequestHandler.do_GET"),
    ("server.handle", "repro.serve.server:WarehouseRequestHandler.do_POST"),
    ("engine.query", "repro.serve.engine:IndexedWarehouse.query"),
    ("search.topk", "repro.search.topk:top_k_communities"),
    ("search.attributed",
     "repro.search.attributed:attributed_community_search"),
    ("decomposition.truss_at",
     "repro.index.decomposition:TrussDecomposition.truss_at"),
    ("snapshot.decode", "repro.serve.snapshot:TCTreeSnapshot.decode"),
    ("core.communities", "repro.core.truss:PatternTruss.communities"),
    ("encode.to_payload", "repro.index.query:QueryAnswer.to_payload"),
    ("live.apply_delta", "repro.serve.live:LiveIndex.apply_delta"),
    ("snapshot.overlay_apply", "repro.serve.snapshot:apply_delta_to_tree"),
    ("snapshot.write", "repro.serve.snapshot:write_snapshot"),
)

#: Benchmark-process targets: build, maintenance and snapshot writing.
BUILD_TARGETS = (
    ("tctree.build", "repro.index.tctree:build_tc_tree"),
    ("decomposition.decompose",
     "repro.index.decomposition:decompose_network_pattern"),
    ("decomposition.warm_triangles",
     "repro.index.decomposition:warm_network_triangles"),
    ("graphs.triangle_index", "repro.graphs.support:triangle_index"),
    ("graphs.peel", "repro.graphs.support:decompose_cohesion"),
    ("graphs.peel", "repro.graphs.support:peel_cohesion"),
    ("graphs.peel", "repro.graphs.support:peel_support"),
    ("maintain.apply_deltas", "repro.index.updates:apply_deltas"),
    ("snapshot.write", "repro.serve.snapshot:write_snapshot"),
    ("snapshot.write_delta", "repro.serve.snapshot:write_delta_snapshot"),
    ("snapshot.diff_trees", "repro.serve.snapshot:diff_trees"),
)


class Recorder:
    """Thread-safe per-name span aggregates."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reset()

    def _reset(self) -> None:
        self.calls: dict[str, int] = {}  # guarded-by: self._lock
        self.total: dict[str, float] = {}  # guarded-by: self._lock
        self.self_time: dict[str, float] = {}  # guarded-by: self._lock
        self.samples: dict[str, list[float]] = {}  # guarded-by: self._lock

    def wrap(self, name: str, function):
        local = self._local

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._add(name, elapsed, elapsed - children[0])

        return traced

    def _add(self, name: str, elapsed: float, own: float) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            if name in SAMPLED:
                self.samples.setdefault(name, []).append(elapsed)

    def drain(self) -> dict:
        """The aggregates so far as a plain dict; resets the recorder."""
        with self._lock:
            state = {
                "calls": self.calls,
                "total": self.total,
                "self": self.self_time,
                "samples": self.samples,
            }
            self._reset()
        return state


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def _rebind(original, replacement) -> None:
    """Point every module-level name and default argument that holds
    ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, replacement)
            elif isinstance(value, types.FunctionType) and value.__defaults__:
                defaults = value.__defaults__
                if any(d is original for d in defaults):
                    value.__defaults__ = tuple(
                        replacement if d is original else d
                        for d in defaults
                    )


def install(recorder: Recorder, targets) -> None:
    """Wrap every ``(span name, "module:qualname")`` target."""
    for name, target in targets:
        owner, attribute = _resolve(target)
        original = getattr(owner, attribute)
        wrapped = recorder.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
        else:
            _rebind(original, wrapped)


def install_json_encode(recorder: Recorder, module_name: str) -> None:
    """Time ``json.dumps`` as ``module_name`` calls it (``json.dumps``
    through its own ``json`` global), leaving every other caller alone."""
    module = importlib.import_module(module_name)
    real = module.json
    module.json = types.SimpleNamespace(
        dumps=recorder.wrap("encode.json_dumps", real.dumps),
        loads=real.loads,
    )


def layer_table(state: dict) -> dict[str, float]:
    """Self seconds summed per layer (the span-name prefix)."""
    table: dict[str, float] = {}
    for name, seconds in state["self"].items():
        layer = name.split(".", 1)[0]
        table[layer] = table.get(layer, 0.0) + seconds
    return table


def median_ms(state: dict, name: str) -> float:
    values = state["samples"].get(name)
    return 1000.0 * statistics.median(values) if values else 0.0
