"""RPR011 — eager imports must respect the declared layer DAG.

The reproduction's components form a layered architecture (declared in
:mod:`repro.lint.graph.layers`, diagrammed in
``docs/static_analysis.md``): errors/units at the bottom, the plant
models above them, orchestration above those, and the CLI at the top.
An *eager* (module-level, non-``TYPE_CHECKING``) import that points
upward couples a lower layer's import time to everything above it —
exactly the erosion that made PR 1's export audit necessary, and the
failure mode that would let the RunSpec registry grow cycles.

Function-scoped lazy imports are exempt by design: they are the
sanctioned idiom for intentional upward hops (``cluster`` lazily
pulling the fastpath trace recorder, ``runtime.execute`` lazily pulling
the experiment registries) because they execute at call time, after
every layer is importable.  ``TYPE_CHECKING`` imports never execute at all.

Components absent from the declared table are exempt — the rule
enforces the contract, it does not invent one.
"""

from __future__ import annotations

from typing import Iterator, List

from ..base import Finding, GraphRule
from ..graph.layers import component_layer
from ..graph.program import ProgramGraph

__all__ = ["LayeringRule"]


def _target_component(target: str) -> str:
    """Component a dotted import target lives in (``""`` if not repro)."""
    parts = target.split(".")
    if parts[0] != "repro":
        return ""
    return parts[1] if len(parts) > 1 else "<root>"


class LayeringRule(GraphRule):
    """Module-level imports may only point sideways or down the DAG."""

    code = "RPR011"
    name = "architecture-layering"
    description = (
        "eager module-level imports must not point upward in the "
        "declared component layer DAG (lazy function-scoped imports "
        "are the sanctioned escape hatch)"
    )

    def check_program(self, graph: ProgramGraph) -> Iterator[Finding]:
        findings: List[Finding] = []
        for summary in graph.summaries:
            source_layer = component_layer(summary.component)
            if source_layer is None:
                continue
            for imp in summary.imports:
                if imp.kind != "top":
                    continue
                # ``from pkg import sub`` depends on the named
                # submodules when they exist in the program; on the
                # bare target otherwise.
                submodules = {
                    f"{imp.target}.{name}"
                    for name, _ in imp.names
                    if f"{imp.target}.{name}" in graph.modules
                }
                targets = submodules or {imp.target}
                for target in sorted(targets):
                    component = _target_component(target)
                    if not component or component == summary.component:
                        continue
                    target_layer = component_layer(component)
                    if target_layer is None or target_layer <= source_layer:
                        continue
                    findings.append(
                        self.graph_finding(
                            summary.path,
                            imp.line,
                            imp.col,
                            f"eager import of '{target}' (layer "
                            f"{target_layer}, {component}) from layer "
                            f"{source_layer} ({summary.component}) points "
                            "upward in the declared layer DAG; move it "
                            "into the function that needs it or fix the "
                            "dependency direction",
                        )
                    )
        yield from sorted(findings)
