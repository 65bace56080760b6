"""The engine layer: one registry of workload models over the shared stack.

:mod:`repro.engine.registry` is the single place where a workload
declares how it rides the CSR/serving/fleet machinery — decomposition
entry point, node/tree classes, snapshot payload kind, cutover
constants, parity oracle. Every consumer (the parallel build
orchestrator, the snapshot codec, the CLI, the cutover tuner) resolves
model-specific behaviour through it instead of branching on strings.
"""

from repro.engine.registry import (
    CutoverSpec,
    ModelSpec,
    all_cutovers,
    count_routes,
    get_model,
    model_for_flags,
    model_for_tree,
    model_names,
    observed_routes,
    record_route,
    register_model,
    tree_model_names,
    unregister_model,
)

__all__ = [
    "CutoverSpec",
    "ModelSpec",
    "all_cutovers",
    "count_routes",
    "get_model",
    "model_for_flags",
    "model_for_tree",
    "model_names",
    "observed_routes",
    "record_route",
    "register_model",
    "tree_model_names",
    "unregister_model",
]
