"""Every module and public top-level function or class in
``src/repro`` is reached from a real entry point.

The pass is static: it walks each file's AST and resolves imports
through the import records of :func:`repro.lint.graph.summarize_module`
(relative imports resolved as the linter resolves them).

* **Roots.** ``repro.cli:main`` and ``repro.lint.cli:main`` (the
  ``[project.scripts]``), ``repro.__main__`` and ``repro.lint.__main__``,
  the lint plugin API (``repro.lint.__all__`` and
  ``repro.lint.base.__all__``), and every ``perfbench/*.py`` file.  In
  the benchmark files a ``"repro.x"`` or ``"repro.x:Qual.name"`` string
  (the span tracer's preloads and targets) counts as a reference.
  ``tests/`` and ``examples/`` are not entry points; an example may
  load only live names.
* **Uses.** A used module's top-level code uses whatever it loads, and
  so does the whole node of a used function or class (annotations
  included, so a protocol named only in signatures stays).  A loaded
  name uses the definition it resolves to, through package
  ``__init__`` re-exports; a name that is only imported or only listed
  in ``__all__`` is not a use.  A module loaded as a value (the
  experiment ``REGISTRY`` holds modules and calls them through a
  duck-typed protocol) uses all of its public names.  Using a module
  executes its parent packages, so they are used too.
* **Checked.** Every module, and every public top-level function and
  class of a used module.  Constants are part of their module's
  top-level code and are not checked by name.

The pass over-approximates: a local variable that shadows a top-level
name counts as a use, and a used class keeps every method body alive.
It therefore proves code dead, never alive.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.lint.graph import ModuleSummary, summarize_module

REPO = Path(__file__).resolve().parents[1]

#: ``(module, name)`` definitions no entry point reaches that stay on
#: purpose.  At most three, each with its reason.
KEPT: Dict[Tuple[str, str], str] = {
    ("repro.units", "duty_from_percent"): (
        "RPR002's message and docs/static_analysis.md name it as the "
        "fix for a percent duty literal"
    ),
    ("repro.units", "duty_to_percent"): (
        "the inverse of duty_from_percent, named beside it by RPR002 "
        "and docs/static_analysis.md"
    ),
}

_ENTRY_FUNCTIONS = (("repro.cli", "main"), ("repro.lint.cli", "main"))
_ENTRY_MODULES = ("repro.__main__", "repro.lint.__main__")
_PLUGIN_API = ("repro.lint", "repro.lint.base")
_TRACER_REF = re.compile(r"^(repro(?:\.\w+)*)(?::(\w+)(?:\.\w+)*)?$")

#: A resolved reference: ``(module, None)`` for a module, ``(module,
#: name)`` for a top-level definition.
Target = Tuple[str, Optional[str]]


def _top_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Module-level statements, looking through ``if`` and ``try``."""
    for stmt in body:
        if isinstance(stmt, ast.If):
            yield from _top_statements(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            blocks = stmt.body + stmt.orelse + stmt.finalbody
            for handler in stmt.handlers:
                blocks += handler.body
            yield from _top_statements(blocks)
        else:
            yield stmt


class _Loads(ast.NodeVisitor):
    """Collect loaded dotted chains (``("mod", "f")`` for ``mod.f``)."""

    def __init__(self) -> None:
        self.chains: List[Tuple[str, ...]] = []
        self.strings: List[str] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        parts: List[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            self.chains.append((cur.id, *reversed(parts)))
        else:
            self.visit(cur)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.chains.append((node.id,))

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self.strings.append(node.value)


class _Source:
    """One parsed file: its summary, tree and top-level definitions."""

    def __init__(self, path: Path) -> None:
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.summary: ModuleSummary = summarize_module(
            path.relative_to(REPO), self.tree
        )
        #: name -> def/class node (walked when the name is used).
        self.defs: Dict[str, ast.AST] = {}
        #: names bound by module-level code (walked with the module).
        self.assigned: Set[str] = set()
        self.module_code: List[ast.stmt] = []
        for stmt in _top_statements(self.tree.body):
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.defs[stmt.name] = stmt
                continue
            self.module_code.append(stmt)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            self.assigned.add(leaf.id)

    def public(self) -> Set[str]:
        return {
            name
            for name in (*self.defs, *self.assigned)
            if not name.startswith("_")
        }

    def loads(self, nodes: List[ast.AST]) -> _Loads:
        visitor = _Loads()
        for node in nodes:
            visitor.visit(node)
        return visitor


class Reachability:
    """What the entry points use, computed over ``src/repro``."""

    def __init__(self) -> None:
        paths = sorted((REPO / "src" / "repro").rglob("*.py"))
        sources = [_Source(path) for path in paths]
        self.sources: Dict[str, _Source] = {
            s.summary.module: s for s in sources
        }
        self.used_modules: Set[str] = set()
        self.used_defs: Set[Tuple[str, str]] = set()
        self._queue: List[Tuple[_Source, List[ast.AST]]] = []
        for module in _ENTRY_MODULES:
            self._use((module, None))
        for module, name in _ENTRY_FUNCTIONS:
            self._use((module, name))
        for module in _PLUGIN_API:
            for name in self._all_names(module):
                self._use(self.resolve(module, name))
        for path in sorted((REPO / "perfbench").glob("*.py")):
            bench = _Source(path)
            self._queue.append((bench, [bench.tree]))
            for text in bench.loads([bench.tree]).strings:
                self._use_tracer_ref(text)
        self._drain()

    # -- resolution --------------------------------------------------------

    def resolve(self, module: str, name: str, depth: int = 0) -> Optional[Target]:
        """The definition ``module.name`` names, through re-exports."""
        if f"{module}.{name}" in self.sources:
            return (f"{module}.{name}", None)
        source = self.sources.get(module)
        if source is None or depth > 8:
            return None
        if name in source.defs or name in source.assigned:
            return (module, name)
        return self._imported(source, name, depth)

    def _imported(self, source: _Source, name: str, depth: int) -> Optional[Target]:
        for imp in source.summary.imports:
            if imp.names:
                for original, asname in imp.names:
                    if asname == name:
                        return self.resolve(imp.target, original, depth + 1)
            elif (imp.asname or imp.target.split(".")[0]) == name:
                target = imp.target if imp.asname else name
                return (target, None) if target in self.sources else None
        return None

    def bind(self, source: _Source, name: str) -> Optional[Target]:
        """What a bare name loaded in ``source`` refers to."""
        module = source.summary.module
        if module and (name in source.defs or name in source.assigned):
            return (module, name)
        return self._imported(source, name, 0)

    def chain_target(
        self, source: _Source, chain: Tuple[str, ...]
    ) -> Tuple[Optional[Target], bool]:
        """Resolve a loaded chain; the flag is True for a module value."""
        target = self.bind(source, chain[0])
        rest = list(chain[1:])
        while target is not None and target[1] is None and rest:
            target = self.resolve(target[0], rest.pop(0))
        as_value = target is not None and target[1] is None and not rest
        return target, as_value

    def _all_names(self, module: str) -> List[str]:
        for stmt in self.sources[module].tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                return list(ast.literal_eval(stmt.value))
        return []

    # -- marking -----------------------------------------------------------

    def _use(self, target: Optional[Target], as_value: bool = False) -> None:
        if target is None:
            return
        module, name = target
        self._use_module(module)
        if name is None:
            if as_value:
                for public in sorted(self.sources[module].public()):
                    self._use((module, public))
            return
        if (module, name) in self.used_defs:
            return
        self.used_defs.add((module, name))
        source = self.sources[module]
        if name in source.defs:
            self._queue.append((source, [source.defs[name]]))

    def _use_module(self, module: str) -> None:
        if module in self.used_modules or module not in self.sources:
            return
        self.used_modules.add(module)
        parent = module.rpartition(".")[0]
        if parent:
            self._use_module(parent)
        source = self.sources[module]
        self._queue.append((source, list(source.module_code)))

    def _use_tracer_ref(self, text: str) -> None:
        match = _TRACER_REF.match(text)
        if match is None or match.group(1) not in self.sources:
            return
        module, name = match.groups()
        self._use(self.resolve(module, name) if name else (module, None))

    def _drain(self) -> None:
        while self._queue:
            source, nodes = self._queue.pop()
            for chain in source.loads(nodes).chains:
                self._use(*self.chain_target(source, chain))

    # -- reports -----------------------------------------------------------

    def unused_modules(self) -> List[str]:
        return sorted(set(self.sources) - self.used_modules)

    def unused_names(self) -> List[str]:
        return sorted(
            f"{module}:{name}"
            for module in sorted(self.used_modules)
            for name in self.sources[module].public()
            if (module, name) not in self.used_defs
            and (module, name) not in KEPT
            and name not in self.sources[module].assigned
        )


@pytest.fixture(scope="module")
def reach() -> Reachability:
    return Reachability()


def test_every_module_is_reached(reach: Reachability) -> None:
    unused = reach.unused_modules()
    assert not unused, "no entry point reaches:\n" + "\n".join(unused)


def test_every_public_definition_is_reached(reach: Reachability) -> None:
    unused = reach.unused_names()
    assert not unused, "no entry point reaches:\n" + "\n".join(unused)


def test_kept_names_are_few_and_still_unreached(reach: Reachability) -> None:
    assert len(KEPT) <= 3
    for (module, name), reason in KEPT.items():
        assert reason
        assert name in reach.sources[module].defs, f"{module}:{name}"
        assert (module, name) not in reach.used_defs, f"{module}:{name} is used"


@pytest.mark.parametrize(
    "example", sorted((REPO / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_examples_load_only_live_names(reach: Reachability, example: Path) -> None:
    source = _Source(example)
    dead = set()
    for chain in source.loads([source.tree]).chains:
        target, _ = reach.chain_target(source, chain)
        if target is None:
            continue
        module, name = target
        if module not in reach.used_modules or (
            name is not None
            and name in reach.sources[module].defs
            and (module, name) not in reach.used_defs
        ):
            dead.add(f"{module}:{name}" if name else module)
    assert not dead, "loads unreached names:\n" + "\n".join(sorted(dead))
