"""RPR009 — no per-tick allocation inside ``@hotpath`` functions.

The engine's microtick loop (:mod:`repro.sim.engine`), the RC stepper
(:mod:`repro.thermal.rc`), the node's hoisted tick
(:mod:`repro.cluster.node`) and the lockstep steppers under
:mod:`repro.fastpath` run every physics tick; their
contract (``docs/performance.md``) is that they do no avoidable
allocation.  Everything a step needs — buffers, handles, label
strings — is built once at compile time and closed over, so the tick
path is attribute loads, arithmetic and pre-bound calls.

A ``dict``/``list``/``set``/``str`` construction, a comprehension, an
f-string or a nested function definition inside a tick function
allocates on **every physics tick** (tens of thousands of times per
run), and such regressions are invisible to the equivalence suite —
the results stay byte-identical while the speedup quietly erodes.
Tick functions are marked with :func:`repro.sim.marker.hotpath`; this
rule flags allocating constructs inside any function so marked,
wherever it lives.

Cold paths reachable from hot code (error raises, flushes) belong in
plain helper functions — see ``_raise_diverged`` in
:mod:`repro.thermal.rc` for the idiom.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..base import Finding, Rule, RuleContext, dotted_name
from ..graph.summary import classify_allocation

__all__ = ["HotpathAllocationRule"]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_CLOSURE_SUFFIX = " closure created"


def _per_tick_message(label: str, where: str) -> str:
    """RPR009 wording for a shared-classifier allocation label."""
    if label.endswith(_CLOSURE_SUFFIX):
        subject = label[: -len(_CLOSURE_SUFFIX)]
        return f"{subject} creates a closure per tick {where}"
    if label == "f-string built":
        return (
            f"f-string built per tick {where} (cold "
            "messages belong in a plain helper function)"
        )
    return f"{label} per tick {where}"


def _is_hotpath_decorator(node: ast.expr) -> bool:
    """True for ``@hotpath`` / ``@marker.hotpath`` style decorators."""
    name = dotted_name(node)
    return name == "hotpath" or name.endswith(".hotpath")


class HotpathAllocationRule(Rule):
    """``@hotpath`` functions must not allocate per call."""

    code = "RPR009"
    name = "hotpath-allocation"
    description = (
        "functions marked @hotpath must not build dicts, lists, sets, "
        "strings, f-strings, comprehensions or closures per tick "
        "(hoist them to compile time)"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_hotpath_decorator(d) for d in node.decorator_list):
                    yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: RuleContext, func: _FunctionNode
    ) -> Iterator[Finding]:
        where = f"in @hotpath function {func.name!r}"
        for stmt in func.body:
            for node in ast.walk(stmt):
                # The ban list itself lives in one place —
                # ``repro.lint.graph.summary.classify_allocation`` —
                # shared with the transitive RPR010 rule.
                label = classify_allocation(node)
                if label is not None:
                    yield self.finding(ctx, node, _per_tick_message(label, where))
