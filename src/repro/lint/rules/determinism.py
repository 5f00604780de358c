"""RPR001 — a run must be a pure function of (platform, seed).

Any ambient-entropy source reachable from the simulator would silently
decalibrate every figure the benchmarks reproduce, so this rule bans:

* wall-clock reads: ``time.time`` / ``time.time_ns`` (monotonic and
  ``perf_counter`` reads are fine — they may only ever feed *reporting*,
  and banning them would outlaw harmless wall-time printouts);
* ``datetime.datetime.now/utcnow/today`` and ``datetime.date.today``;
* the stdlib ``random`` module in its entirety (import or call) — all
  simulator noise must come from :class:`repro.sim.rng.RngStreams`;
* seedless ``numpy.random.default_rng()`` (and the legacy global
  ``numpy.random.seed`` / ``numpy.random.<dist>`` calls), which pull
  entropy from the OS.

``sim/rng.py`` is exempted via the default per-file ignores — it is the
single sanctioned place where named deterministic streams are built.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from ..base import Finding, Rule, RuleContext, dotted_name

__all__ = ["DeterminismRule"]

_BANNED_CALLS = {
    "time.time": "wall-clock read breaks determinism; thread sim time instead",
    "time.time_ns": "wall-clock read breaks determinism; thread sim time instead",
    "datetime.datetime.now": "ambient timestamp breaks determinism",
    "datetime.datetime.utcnow": "ambient timestamp breaks determinism",
    "datetime.datetime.today": "ambient timestamp breaks determinism",
    "datetime.date.today": "ambient timestamp breaks determinism",
}


class DeterminismRule(Rule):
    """Ban ambient entropy (wall clock, stdlib random, seedless numpy RNG)."""

    code = "RPR001"
    name = "determinism"
    description = (
        "no time.time/datetime.now/stdlib random/seedless np.random.default_rng;"
        " all noise flows from sim/rng.py"
    )

    def check(self, ctx: RuleContext) -> Iterator[Finding]:
        # alias -> canonical dotted module ("np" -> "numpy")
        module_aliases: Dict[str, str] = {}
        # local name -> "module.attr" it was imported from
        from_imports: Dict[str, str] = {}
        findings = []

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "stdlib 'random' is banned; draw from a named "
                                "RngStreams stream (sim/rng.py)",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "stdlib 'random' is banned; draw from a named "
                            "RngStreams stream (sim/rng.py)",
                        )
                    )
                if node.module is not None and node.level == 0:
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        from_imports[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = self._canonical(node.func, module_aliases, from_imports)
            if not dotted:
                continue
            if dotted in _BANNED_CALLS:
                findings.append(
                    self.finding(ctx, node, f"{dotted}(): {_BANNED_CALLS[dotted]}")
                )
            elif dotted.startswith("random."):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{dotted}(): stdlib 'random' is banned; draw from a "
                        "named RngStreams stream (sim/rng.py)",
                    )
                )
            elif dotted == "numpy.random.default_rng" and not (
                node.args or node.keywords
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "seedless np.random.default_rng() pulls OS entropy; "
                        "pass a seed or use RngStreams.stream()",
                    )
                )
            elif dotted == "numpy.random.seed" or (
                dotted.startswith("numpy.random.")
                and dotted.count(".") == 2
                and dotted.rsplit(".", 1)[1]
                not in {"default_rng", "Generator", "SeedSequence", "PCG64"}
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"legacy global numpy RNG call {dotted}() is "
                        "process-global state; use RngStreams.stream()",
                    )
                )

        yield from sorted(findings)

    @staticmethod
    def _canonical(
        func: ast.expr,
        module_aliases: Dict[str, str],
        from_imports: Dict[str, str],
    ) -> str:
        """Resolve a call target to a canonical dotted name.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` when
        ``np`` aliases numpy; ``default_rng`` -> its ``from``-import
        origin; unknown roots resolve to their literal spelling.
        """
        dotted = dotted_name(func)
        if not dotted:
            return ""
        root, _, rest = dotted.partition(".")
        if root in from_imports:
            origin = from_imports[root]
            return f"{origin}.{rest}" if rest else origin
        if root in module_aliases:
            canonical_root = module_aliases[root]
            return f"{canonical_root}.{rest}" if rest else canonical_root
        return dotted
