"""RPR010 — the hot-path allocation ban propagates through calls.

RPR009 bans per-tick allocation *inside* functions marked ``@hotpath``,
but a fused step that calls ``self._refresh(dt)`` has merely moved the
allocation one frame down the stack — the cost per tick is identical
and the per-file rule is blind to it.  This rule walks the program call
graph from every ``@hotpath`` root and holds each *reachable* helper to
the same allocation bans.

Two sanctioned stops keep the rule honest about cold paths:

* functions marked ``@coldpath`` (:mod:`repro.sim.marker`) are the
  explicit contract that a callee runs rarely (divergence bailouts,
  telemetry flushes) — reachability does not propagate through them;
* raise-only helpers (every statement a ``raise``) are cold by
  construction and exempt, matching the ``_raise_diverged`` idiom
  RPR009's docs point at.

The call graph is conservative: calls through closure-bound locals are
opaque, so this rule under-approximates (documented in
``docs/static_analysis.md``).  What it *does* flag is real.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from ..base import Finding, GraphRule
from ..graph.program import Node, ProgramGraph

__all__ = ["HotpathTransitiveRule"]


class HotpathTransitiveRule(GraphRule):
    """Helpers reachable from ``@hotpath`` code must not allocate."""

    code = "RPR010"
    name = "hotpath-transitive-allocation"
    description = (
        "functions reachable from @hotpath code inherit the RPR009 "
        "allocation bans; mark genuinely cold callees @coldpath"
    )

    def check_program(self, graph: ProgramGraph) -> Iterator[Finding]:
        roots: List[Node] = [
            node
            for node, fn in graph.functions.items()
            if fn.is_hotpath and not fn.is_coldpath
        ]
        if not roots:
            return
        stop: Set[Node] = {
            node
            for node, fn in graph.functions.items()
            if fn.is_coldpath or fn.raises_only
        }
        parents = graph.reachable(roots, stop=stop)
        findings: List[Finding] = []
        for node in sorted(parents):
            fn = graph.functions.get(node)
            if fn is None:
                continue
            if fn.is_hotpath:  # roots are RPR009's job
                continue
            if fn.is_coldpath or fn.raises_only:
                continue
            if not fn.allocations:
                continue
            summary = graph.modules.get(node[0]) or graph.by_path.get(node[0])
            if summary is None:
                continue
            chain = graph.call_chain(parents, node)
            rendered = " -> ".join(f"{m}:{q}" for m, q in chain)
            for line, col, label in fn.allocations:
                findings.append(
                    self.graph_finding(
                        summary.path,
                        line,
                        col,
                        f"{label} in '{fn.qname}', reachable from @hotpath "
                        f"via {rendered}; hoist it to compile time or mark "
                        "the callee @coldpath if it is genuinely cold",
                    )
                )
        yield from sorted(findings)
