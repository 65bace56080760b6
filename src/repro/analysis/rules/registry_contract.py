"""``registry-contract`` — dotted references must actually resolve.

The model registry wires tuning sweeps and cutover constants through
``"pkg.mod:attr"`` strings (:class:`~repro.engine.registry.CutoverSpec`
``value_ref=`` / ``sweep=``, the build hooks of
:class:`~repro.engine.registry.ModelSpec`, plus literal
``resolve_ref(...)`` calls),
and the benchmark fleet names drivers by module path in
``benchmarks/fleet.yaml``. A typo in any of them survives import and
every unit test, then fails at tuner or fleet runtime. This rule
resolves each reference statically:

* ``repro.*`` refs are imported and the attribute looked up (repro
  modules import without side effects by design);
* everything else — fleet drivers in particular — is checked with
  :func:`importlib.util.find_spec` only, so no workload ever executes.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re

from repro.analysis.base import ModuleInfo, Project, Rule, register
from repro.analysis.findings import Finding

_REF_RE = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_]\w*$")

#: Call targets whose string keywords may carry dotted refs.
_SPEC_CALLS = frozenset({"CutoverSpec", "ModelSpec"})
_REF_KEYWORDS = frozenset(
    {"value_ref", "sweep", "decompose", "warm", "layer1_costs"}
)


@register
class RegistryContractRule(Rule):
    name = "registry-contract"
    description = (
        "dotted refs in CutoverSpec/ModelSpec/resolve_ref and fleet.yaml "
        "drivers must resolve via importlib (without executing workloads)"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            refs: list[tuple[str, int, int]] = []
            if name in _SPEC_CALLS:
                for keyword in node.keywords:
                    if (
                        keyword.arg in _REF_KEYWORDS
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)
                    ):
                        refs.append(
                            (
                                keyword.value.value,
                                keyword.value.lineno,
                                keyword.value.col_offset,
                            )
                        )
            elif name == "resolve_ref" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    refs.append((arg.value, arg.lineno, arg.col_offset))
            for ref, lineno, col in refs:
                problem = _check_ref(ref)
                if problem is None:
                    continue
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=lineno,
                        col=col,
                        rule=self.name,
                        message=f"unresolvable reference {ref!r}: {problem}",
                        symbol=ref,
                    )
                )
        return findings

    def check_project(self, project: Project) -> list[Finding]:
        fleet = project.root / "benchmarks" / "fleet.yaml"
        if not fleet.is_file():
            return []
        try:
            import yaml
        except ImportError:  # pragma: no cover - container ships pyyaml
            return []
        document = yaml.safe_load(fleet.read_text(encoding="utf-8"))
        findings: list[Finding] = []
        experiments = (document or {}).get("experiments", {})
        if not isinstance(experiments, dict):
            return []
        for exp_name, spec in sorted(experiments.items()):
            driver = (spec or {}).get("driver")
            if not isinstance(driver, str):
                continue
            if _find_module(driver):
                continue
            findings.append(
                Finding(
                    path="benchmarks/fleet.yaml",
                    line=1,
                    col=0,
                    rule=self.name,
                    message=(
                        f"experiment {exp_name!r} names driver "
                        f"{driver!r} which importlib cannot locate"
                    ),
                    symbol=driver,
                )
            )
        return findings


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _find_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def _check_ref(ref: str) -> str | None:
    """Return a problem description, or None when ``ref`` resolves."""
    if not _REF_RE.match(ref):
        return "not of the form 'pkg.mod:attr'"
    module_name, attr = ref.split(":", 1)
    if not module_name.startswith("repro."):
        # Foreign modules are located but never imported.
        if not _find_module(module_name):
            return f"module {module_name!r} not found"
        return None
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        return f"module {module_name!r} does not import: {exc}"
    if not hasattr(module, attr):
        return f"module {module_name!r} has no attribute {attr!r}"
    return None


__all__ = ["RegistryContractRule"]
