"""The declared architecture layer DAG that RPR011 enforces.

Each top-level component of ``repro`` is assigned to exactly one layer;
an *eager* (module-level, non-``TYPE_CHECKING``) import may only point
sideways or downwards.  ``serve`` sits above the experiments layer —
the service consumes the runtime and telemetry layers but nothing may
reach up into it except the CLI.  Lazy function-scoped imports are exempt — they
are the sanctioned escape hatch for the handful of intentional upward
hops (``cluster`` → ``fastpath.recording``, ``runtime.execute`` →
``experiments.platform``) documented in ``docs/static_analysis.md``.

The table below is *declared*, not inferred: it is the architectural
contract, and the linter's job is to keep reality matching it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["LAYER_INDEX", "LAYER_TABLE", "component_layer"]

#: Layer number -> the components living there.  Lower layers may not
#: eagerly import from higher ones.
LAYER_TABLE: Tuple[Tuple[int, Tuple[str, ...]], ...] = (
    (0, ("errors", "units")),
    (1, ("sim", "i2c", "workloads", "lint")),
    (2, ("thermal", "cpu", "fan", "telemetry")),
    (3, ("core", "config", "platform")),
    (4, ("governors", "ipmi")),
    (5, ("cluster",)),
    (6, ("fastpath", "runtime", "analysis")),
    (7, ("experiments", "fleet")),
    (8, ("serve",)),
    (9, ("cli", "__main__", "<root>")),
)

#: component name -> layer number.
LAYER_INDEX: Dict[str, int] = {
    component: layer for layer, components in LAYER_TABLE for component in components
}


def component_layer(component: str) -> Optional[int]:
    """Layer of a component, or ``None`` for undeclared components.

    Undeclared components (new packages, fixture trees) are exempt from
    RPR011 until they are added to :data:`LAYER_TABLE` — the rule
    refuses to guess.
    """
    return LAYER_INDEX.get(component)
