"""Tests for the first-class model registry (``repro.engine.registry``)."""

from __future__ import annotations

import struct
from types import SimpleNamespace

import pytest

from repro.engine.registry import (
    CutoverSpec,
    ModelSpec,
    all_cutovers,
    get_model,
    model_for_flags,
    model_for_tree,
    model_names,
    register_model,
    resolve_ref,
    tree_model_names,
    unregister_model,
)
from repro.errors import TCIndexError
from repro.serve.snapshot import (
    EDGE_VERSION,
    FLAG_EDGE,
    MAGIC,
    VERSION,
    TCTreeSnapshot,
)


def _header(version: int, flags: int) -> bytes:
    """A REPROTCS header of an empty tree (no TOC, no payload)."""
    return struct.pack("<8sIIQQQQ", MAGIC, version, flags, 0, 0, 48, 48)


class TestResolveRef:
    def test_resolves_module_attribute(self):
        assert resolve_ref("math:pi") == pytest.approx(3.14159, abs=1e-4)

    @pytest.mark.parametrize("ref", ["math", ":pi", "math:", ""])
    def test_malformed_reference_rejected(self, ref):
        with pytest.raises(TCIndexError, match="malformed reference"):
            resolve_ref(ref)


class TestBuiltinModels:
    def test_builtin_names_in_registration_order(self):
        names = model_names()
        assert names[:4] == ("vertex", "edge", "probtruss", "attributed")

    def test_tree_models_are_the_snapshot_kinds(self):
        assert tree_model_names() == ("vertex", "edge")

    def test_unknown_model_raises_with_inventory(self):
        with pytest.raises(TCIndexError, match="unknown model 'nope'"):
            get_model("nope")

    def test_lookup_is_memoized(self):
        assert get_model("vertex") is get_model("vertex")

    def test_displays_drive_stats_wording(self):
        assert get_model("vertex").display == "TC-Tree"
        assert get_model("edge").display == "Edge TC-Tree"

    def test_tree_models_carry_the_build_api(self):
        for name in tree_model_names():
            spec = get_model(name)
            assert spec.is_tree_model
            assert spec.has_snapshot
            for hook in (
                spec.decomposition_cls,
                spec.node_cls,
                spec.make_tree,
            ):
                assert hook is not None
            # The build hooks are refs, resolved when a build asks.
            for name in ("decompose", "warm", "layer1_costs"):
                assert callable(spec.hook(name))
            assert spec.key_width in (1, 2)

    def test_hooks_resolve_at_call_time(self, monkeypatch):
        import repro.index.decomposition as decomposition_module

        spec = get_model("vertex")
        assert (
            spec.hook("decompose")
            is decomposition_module.decompose_network_pattern
        )
        monkeypatch.setattr(
            decomposition_module, "decompose_network_pattern", len
        )
        assert spec.hook("decompose") is len

    def test_workload_models_carry_entry_points(self):
        from repro.graphs.probtruss import probabilistic_k_truss
        from repro.search.attributed import attributed_community_search

        probtruss = get_model("probtruss")
        assert not probtruss.is_tree_model
        assert not probtruss.has_snapshot
        assert probtruss.entry is probabilistic_k_truss
        assert get_model("attributed").entry is attributed_community_search


class TestSnapshotDispatch:
    def test_vertex_matches_v1(self):
        spec = model_for_flags(0)
        assert spec is get_model("vertex")
        assert (spec.snapshot_version, spec.key_width) == (VERSION, 1)
        assert TCTreeSnapshot(_header(VERSION, 0)).kind == "vertex"

    def test_edge_matches_v2_with_flag(self):
        spec = model_for_flags(FLAG_EDGE)
        assert spec is get_model("edge")
        assert (spec.snapshot_version, spec.key_width) == (EDGE_VERSION, 2)
        assert TCTreeSnapshot(_header(EDGE_VERSION, FLAG_EDGE)).kind == "edge"

    def test_v2_without_edge_flag_is_unsupported(self):
        # Flags 0 name the vertex model, whose version is 1.
        with pytest.raises(TCIndexError, match="version 2"):
            TCTreeSnapshot(_header(EDGE_VERSION, 0))

    def test_unknown_version_is_unsupported(self):
        with pytest.raises(TCIndexError, match="version 99"):
            TCTreeSnapshot(_header(99, 0))

    @pytest.mark.parametrize("flags", [0x80, FLAG_EDGE | 0x80, 0xFFFFFFFF])
    def test_unknown_flag_bits_are_refused(self, flags):
        with pytest.raises(TCIndexError, match="payload flags"):
            model_for_flags(flags)

    def test_model_for_tree_reads_the_kind_tag(self):
        assert model_for_tree(SimpleNamespace(kind="edge")) is get_model(
            "edge"
        )
        # Objects with no kind tag dispatch as the vertex model.
        assert model_for_tree(object()) is get_model("vertex")


class TestCutovers:
    def test_every_engine_cutover_is_declared(self):
        names = [cutover.name for _spec, cutover in all_cutovers()]
        assert names == [
            "CSR_MIN_EDGES",
            "NET_REUSE_FRACTION",
            "MAINT_FULL_REBUILD_FRACTION",
            "EDGE_CSR_MIN_EDGES",
            "PROB_CSR_MIN_EDGES",
        ]

    def test_value_refs_read_live(self, monkeypatch):
        import repro.graphs.probtruss as probtruss_module

        (cutover,) = get_model("probtruss").cutovers
        assert cutover.current() == float(
            probtruss_module.PROB_CSR_MIN_EDGES
        )
        monkeypatch.setattr(probtruss_module, "PROB_CSR_MIN_EDGES", 777)
        assert cutover.current() == 777.0

    def test_fixed_value_cutover_is_report_only(self):
        spec = get_model("vertex")
        ratio = next(
            c for c in spec.cutovers if c.name == "NET_REUSE_FRACTION"
        )
        assert not ratio.applicable
        assert ratio.current() == 0.9

    def test_cutover_without_any_value_raises(self):
        bare = CutoverSpec(name="X", source="s", sweep="math:pi")
        with pytest.raises(TCIndexError, match="neither value_ref"):
            bare.current()

    def test_sweep_fn_resolves(self):
        from repro.bench.tuning import sweep_prob_csr_min_edges

        (cutover,) = get_model("probtruss").cutovers
        assert cutover.sweep_fn() is sweep_prob_csr_min_edges


class TestRegistration:
    def test_register_unregister_round_trip(self):
        spec = ModelSpec(name="toy", display="Toy model")
        register_model("toy", lambda: spec)
        try:
            assert "toy" in model_names()
            assert "toy" not in tree_model_names()
            assert get_model("toy") is spec
        finally:
            unregister_model("toy")
        assert "toy" not in model_names()
        with pytest.raises(TCIndexError):
            get_model("toy")

    def test_latest_registration_wins(self):
        first = ModelSpec(name="toy", display="first")
        second = ModelSpec(name="toy", display="second")
        register_model("toy", lambda: first)
        get_model("toy")  # memoize the first spec
        register_model("toy", lambda: second)
        try:
            assert get_model("toy") is second
        finally:
            unregister_model("toy")

    def test_tree_flag_tracks_reregistration(self):
        spec = ModelSpec(name="toy", display="Toy", node_cls=object)
        register_model("toy", lambda: spec, tree=True)
        try:
            assert "toy" in tree_model_names()
            register_model("toy", lambda: spec, tree=False)
            assert "toy" not in tree_model_names()
        finally:
            unregister_model("toy")

    def test_factory_name_mismatch_rejected(self):
        register_model("toy", lambda: ModelSpec(name="other", display="x"))
        try:
            with pytest.raises(TCIndexError, match="spec named 'other'"):
                get_model("toy")
        finally:
            unregister_model("toy")
