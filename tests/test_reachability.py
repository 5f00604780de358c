"""Every module, public top-level function or class, and public method
or property of a used class in ``src/repro`` is reached from a real
entry point; every import binding is loaded.

The pass is static: it walks each file's AST and resolves imports
through the import records of :func:`repro.lint.graph.summarize_module`
(relative imports resolved as the linter resolves them).

* **Roots.** ``repro.cli:main`` and ``repro.lint.cli:main`` (the
  ``[project.scripts]``), ``repro.__main__`` and ``repro.lint.__main__``,
  the lint plugin API (``repro.lint.__all__`` and
  ``repro.lint.base.__all__``), and every ``perfbench/*.py`` file.  In
  the benchmark files a ``"repro.x"``, ``"repro.x:Qual.name"`` or
  ``"repro.x:Class+.name"`` string (the span tracer's preloads and
  targets) counts as a reference.  ``tests/`` and ``examples/`` are not
  entry points; an example may load only live names and live members.
* **Uses.** A used module's top-level code uses whatever it loads, and
  so does the node of a used function (annotations included, so a
  protocol named only in signatures stays).  A used class uses its
  bases, decorators and class-body statements; its methods are walked
  only once they are used (below).  A loaded name uses the definition
  it resolves to, through package ``__init__`` re-exports; a name that
  is only imported or only listed in ``__all__`` is not a use.  A
  module loaded as a value (the experiment ``REGISTRY`` holds modules
  and calls them through a duck-typed protocol) uses all of its public
  names.  Using a module executes its parent packages, so they are
  used too.
* **Members.** A method or property ``C.m`` of a used class is used
  when used code loads ``.m`` as an attribute on any receiver
  (name-based), when a tracer string names ``C.m`` or ``C+.m``, when
  ``m`` is a dunder, when ``C`` is lint plugin API
  (``repro.lint.base.__all__``), or when a stdlib base dispatches ``m``
  by name (``visit_*`` on an ``ast.NodeVisitor``).
* **Attributes.** Every attribute a used method of a used class stores
  on ``self`` (``self.x = …``, ``self.x += …``, ``self.x[k] = …``),
  and every ``field(init=False)`` of a used dataclass (state the class
  keeps for itself), must be loaded as ``.x`` by used code.  A load on
  ``self`` counts only inside the class, its bases and its subclasses
  (by name), and not inside a statement that stores ``self.x`` itself
  (``self.peak = max(self.peak, w)`` reads only to write); a load on
  any other receiver counts by name, and so does a string given to
  ``getattr``, ``hasattr`` or ``attrgetter``.
* **Checked.** Every module, every public top-level function and class
  of a used module, every public method and property of a used class,
  and the attributes above.  Constants are part of their module's
  top-level code and are not checked by name.
* **Imports.** Separately, every import binding in ``src/repro``,
  ``tests/``, ``examples/`` and ``tools/`` must be loaded as a name
  somewhere in its module (``__future__`` imports, package
  ``__init__`` re-exports and names listed in ``__all__`` excepted;
  the known-bad linter inputs in ``tests/lint_fixtures`` are skipped).

The pass over-approximates: a local variable that shadows a top-level
name counts as a use, and so does an attribute of that name on an
unrelated receiver.  It therefore proves code dead, never alive.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.lint.graph import ModuleSummary, summarize_module

REPO = Path(__file__).resolve().parents[1]

#: ``(module, name)`` definitions (``name`` is ``"Class.member"`` for a
#: member) no entry point reaches that stay on purpose.  At most three,
#: each with its reason.
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
#: Classes whose every member is API: the rule author's toolkit.
_MEMBER_API = "repro.lint.base"
#: Stdlib base -> prefix of the methods it calls by name.
_DISPATCHED = {"NodeVisitor": "visit_"}
_TRACER_REF = re.compile(r"^(repro(?:\.\w+)*)(?::(\w+)\+?(?:\.(\w+))?)?$")
_IMPORT_DIRS = ("src/repro", "tests", "examples", "tools")
#: Known-bad linter inputs (excluded from ``repro-lint`` too): their
#: unused imports are the findings they exist to produce.
_IMPORT_EXEMPT = "tests/lint_fixtures"

#: A resolved reference: ``(module, None)`` for a module, ``(module,
#: name)`` for a top-level definition.
Target = Tuple[str, Optional[str]]
_Methods = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


#: Calls whose string arguments name attributes they load.
_ATTR_READERS = ("getattr", "hasattr", "attrgetter")


class _Loads(ast.NodeVisitor):
    """Collect loaded dotted chains (``("mod", "f")`` for ``mod.f``),
    attribute names, attribute names loaded on a receiver other than
    ``self``, and string constants."""

    def __init__(self) -> None:
        self.chains: List[Tuple[str, ...]] = []
        self.attrs: Set[str] = set()
        self.loaded: Set[str] = set()
        self.strings: List[str] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        parts: List[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            if (cur is not node or isinstance(node.ctx, ast.Load)) and not _is_self(
                cur.value
            ):
                self.loaded.add(cur.attr)
            cur = cur.value
        self.attrs.update(parts)
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

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in _ATTR_READERS:
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    self.loaded.update(arg.value.split("."))
        self.generic_visit(node)


def _stored_on_self(target: ast.expr) -> Optional[str]:
    """``x`` when ``target`` stores ``self.x`` or into it (``self.x[k]``,
    ``self.x.y``)."""
    cur = target
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute) and _is_self(cur.value):
            return cur.attr
        cur = cur.value
    return None


def _own_field(stmt: ast.stmt) -> Optional[str]:
    """The name of a ``x: T = field(..., init=False, ...)`` field."""
    if not (
        isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and isinstance(stmt.value, ast.Call)
    ):
        return None
    for keyword in stmt.value.keywords:
        if (
            keyword.arg == "init"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            return stmt.target.id
    return None


def _self_attributes(methods: List[ast.AST]) -> Tuple[Set[str], Set[str]]:
    """``(stored, loaded)`` attribute names on ``self`` in ``methods``; a
    load inside a statement that stores the same ``self.x`` is not a
    load."""
    stored: Set[str] = set()
    skip: Set[int] = set()
    for method in methods:
        for node in ast.walk(method):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {_stored_on_self(t) for t in targets} - {None}
            stored |= names
            for part in (*targets, node.value):
                for sub in ast.walk(part) if part is not None else ():
                    if (
                        isinstance(sub, ast.Attribute)
                        and _is_self(sub.value)
                        and sub.attr in names
                        and sub not in targets
                    ):
                        skip.add(id(sub))
    loaded = {
        node.attr
        for method in methods
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _is_self(node.value)
        and id(node) not in skip
    }
    return stored, loaded


class _Source:
    """One parsed file: its summary, tree and top-level definitions."""

    def __init__(self, path: Path, root: Path = REPO) -> None:
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.summary: ModuleSummary = summarize_module(
            path.relative_to(root), self.tree
        )
        #: name -> def/class node (walked when the name is used).
        self.defs: Dict[str, ast.AST] = {}
        #: names bound by module-level code (walked with the module).
        self.assigned: Set[str] = set()
        self.module_code: List[ast.stmt] = []
        for stmt in _top_statements(self.tree.body):
            if isinstance(stmt, (*_Methods, ast.ClassDef)):
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
    """What the entry points use, computed over ``<root>/src/repro``."""

    def __init__(self, root: Path = REPO) -> None:
        paths = sorted((root / "src" / "repro").rglob("*.py"))
        sources = [_Source(path, root) for path in paths]
        self.sources: Dict[str, _Source] = {
            s.summary.module: s for s in sources
        }
        self.used_modules: Set[str] = set()
        self.used_defs: Set[Tuple[str, str]] = set()
        #: attribute names used code loads (the member rule is by name).
        self.used_attrs: Set[str] = set()
        #: attribute names used code loads on a receiver other than
        #: ``self`` (or names to ``getattr``).
        self.loaded_attrs: Set[str] = set()
        #: ``(module, class node)`` of every used class.
        self.used_classes: List[Tuple[str, ast.ClassDef]] = []
        self._queue: List[Tuple[_Source, List[ast.AST]]] = []
        #: member name -> method nodes walked once the name is used.
        self._pending: Dict[str, List[Tuple[_Source, ast.AST]]] = {}
        self._api_classes = {
            self.resolve(_MEMBER_API, name) for name in self._all_names(_MEMBER_API)
        }
        for module in _ENTRY_MODULES:
            self._use((module, None))
        for module, name in _ENTRY_FUNCTIONS:
            self._use((module, name))
        for module in _PLUGIN_API:
            for name in self._all_names(module):
                self._use(self.resolve(module, name))
        for path in sorted((root / "perfbench").glob("*.py")):
            bench = _Source(path, root)
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
        source = self.sources.get(module)
        for stmt in source.tree.body if source else []:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                return list(ast.literal_eval(stmt.value))
        return []

    def member_exempt(self, module: str, node: ast.ClassDef, name: str) -> bool:
        """Whether ``name`` is live on the class whatever loads it."""
        if _is_dunder(name) or (module, node.name) in self._api_classes:
            return True
        bases = {ast.unparse(base).rpartition(".")[2] for base in node.bases}
        return any(
            name.startswith(prefix)
            for base, prefix in _DISPATCHED.items()
            if base in bases
        )

    # -- marking -----------------------------------------------------------

    def _use(self, target: Optional[Target], as_value: bool = False) -> None:
        if target is None or target[0] not in self.sources:
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
        node = source.defs.get(name)
        if isinstance(node, ast.ClassDef):
            self._use_class(source, module, node)
        elif node is not None:
            self._queue.append((source, [node]))

    def _use_class(self, source: _Source, module: str, node: ast.ClassDef) -> None:
        self.used_classes.append((module, node))
        eager: List[ast.AST] = [*node.bases, *node.keywords, *node.decorator_list]
        for stmt in node.body:
            if not isinstance(stmt, _Methods) or (
                stmt.name in self.used_attrs
                or self.member_exempt(module, node, stmt.name)
            ):
                eager.append(stmt)
            else:
                self._pending.setdefault(stmt.name, []).append((source, stmt))
        self._queue.append((source, eager))

    def _use_attr(self, name: str) -> None:
        if name in self.used_attrs:
            return
        self.used_attrs.add(name)
        for source, node in self._pending.pop(name, []):
            self._queue.append((source, [node]))

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
        module, name, member = match.groups()
        self._use(self.resolve(module, name) if name else (module, None))
        if member:
            self._use_attr(member)

    def _drain(self) -> None:
        while self._queue:
            source, nodes = self._queue.pop()
            loads = source.loads(nodes)
            self.loaded_attrs |= loads.loaded
            for attr in sorted(loads.attrs):
                self._use_attr(attr)
            for chain in loads.chains:
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

    def dead_members(self) -> Set[Tuple[str, str]]:
        """``(module, "Class.member")`` of every unused public member."""
        return {
            (module, f"{node.name}.{stmt.name}")
            for module, node in self.used_classes
            for stmt in node.body
            if isinstance(stmt, _Methods)
            and not stmt.name.startswith("_")
            and stmt.name not in self.used_attrs
            and not self.member_exempt(module, node, stmt.name)
        }

    def _used_methods(self, module: str, node: ast.ClassDef) -> List[ast.AST]:
        return [
            stmt
            for stmt in node.body
            if isinstance(stmt, _Methods)
            and (
                stmt.name in self.used_attrs
                or self.member_exempt(module, node, stmt.name)
            )
        ]

    def write_only_attributes(self) -> List[str]:
        """``module:Class.x`` for each attribute a used class keeps
        (stored on ``self``, or an ``init=False`` field) that no used
        code loads."""
        bases = {
            node.name: {ast.unparse(b).rpartition(".")[2] for b in node.bases}
            for _, node in self.used_classes
        }

        def ancestors(name: str) -> Set[str]:
            seen: Set[str] = set()
            todo = [name]
            while todo:
                cur = todo.pop()
                if cur not in seen:
                    seen.add(cur)
                    todo.extend(bases.get(cur, ()))
            return seen

        scans = {}
        for module, node in self.used_classes:
            stored, loaded = _self_attributes(self._used_methods(module, node))
            stored |= {_own_field(stmt) for stmt in node.body} - {None}
            scans[(module, node.name)] = (node.name, stored, loaded)
        found = []
        for (module, name), (_, stored, _) in sorted(scans.items()):
            family = ancestors(name) | {c for c in bases if name in ancestors(c)}
            loaded = set(self.loaded_attrs)
            for cls, _, own in scans.values():
                if cls in family:
                    loaded |= own
            found.extend(f"{module}:{name}.{x}" for x in sorted(stored - loaded))
        return found

    def unused_members(self) -> List[str]:
        return sorted(
            f"{module}:{name}"
            for module, name in self.dead_members()
            if (module, name) not in KEPT
        )


def _annotation_names(tree: ast.AST) -> Iterator[str]:
    """Names inside string annotations (``x: "Optional[int]"``)."""
    for node in ast.walk(tree):
        annotations: List[Optional[ast.expr]] = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, _Methods):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for leaf in ast.walk(annotation) if annotation else ():
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    try:
                        parsed = ast.parse(leaf.value, mode="eval")
                    except SyntaxError:
                        continue
                    for name in ast.walk(parsed):
                        if isinstance(name, ast.Name):
                            yield name.id


def unused_imports(path: Path) -> List[str]:
    """``"file:line name"`` for each import binding ``path`` never loads."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    loaded.update(_annotation_names(tree))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            loaded.update(ast.literal_eval(stmt.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in loaded:
                    unused.append(f"{path.relative_to(REPO)}:{node.lineno} {bound}")
    return unused


@pytest.fixture(scope="module")
def reach() -> Reachability:
    return Reachability()


def test_every_module_is_reached(reach: Reachability) -> None:
    unused = reach.unused_modules()
    assert not unused, "no entry point reaches:\n" + "\n".join(unused)


def test_every_public_definition_is_reached(reach: Reachability) -> None:
    unused = reach.unused_names()
    assert not unused, "no entry point reaches:\n" + "\n".join(unused)


def test_every_public_member_is_reached(reach: Reachability) -> None:
    unused = reach.unused_members()
    assert not unused, "no entry point reaches:\n" + "\n".join(unused)


def test_every_kept_attribute_is_loaded(reach: Reachability) -> None:
    unread = reach.write_only_attributes()
    assert not unread, "stored, never loaded:\n" + "\n".join(unread)


def test_kept_names_are_few_and_still_unreached(reach: Reachability) -> None:
    assert len(KEPT) <= 3
    for (module, name), reason in KEPT.items():
        assert reason
        if "." in name:
            assert (module, name) in reach.dead_members(), f"{module}:{name}"
            continue
        assert name in reach.sources[module].defs, f"{module}:{name}"
        assert (module, name) not in reach.used_defs, f"{module}:{name} is used"


def test_every_import_is_loaded() -> None:
    unused = [
        entry
        for folder in _IMPORT_DIRS
        for path in sorted((REPO / folder).rglob("*.py"))
        if not path.relative_to(REPO).as_posix().startswith(_IMPORT_EXEMPT)
        for entry in unused_imports(path)
    ]
    assert not unused, "imported, never loaded:\n" + "\n".join(unused)


def test_member_rule_on_inline_source(tmp_path: Path) -> None:
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": (
            "import ast\n"
            "from .parts import Part\n"
            "class Walker(ast.NodeVisitor):\n"
            "    def visit_Name(self, node): pass\n"
            "def main():\n"
            "    Walker().visit(ast.parse(''))\n"
            "    return len(Part())\n"
        ),
        "src/repro/parts.py": (
            "class Part:\n"
            "    def __len__(self): return 0\n"
            "    def traced(self): return 1\n"
            "    def dead(self): return 2\n"
        ),
        "perfbench/bench.py": 'TARGETS = ("repro.parts:Part.traced",)\n',
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    inline = Reachability(tmp_path)
    assert inline.unused_members() == ["repro.parts:Part.dead"]


def test_attribute_rule_on_inline_source(tmp_path: Path) -> None:
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": (
            "from dataclasses import dataclass, field\n"
            "from operator import attrgetter\n"
            "class Base:\n"
            "    def __init__(self):\n"
            "        self.inherited = 0\n"
            "        self.peak = 0.0\n"
            "        self.counts = {}\n"
            "        self.named = 1\n"
            "        self.dotted = 2\n"
            "    def record(self, w):\n"
            "        self.peak = max(self.peak, w)\n"
            "        self.counts[w] = self.counts.get(w, 0) + 1\n"
            "class Child(Base):\n"
            "    def get(self):\n"
            "        return self.inherited + getattr(self, 'named')\n"
            "@dataclass\n"
            "class Task:\n"
            "    period: float\n"
            "    fires: int = field(default=0, init=False)\n"
            "    ticks: int = field(default=0, init=False)\n"
            "def main():\n"
            "    c = Child()\n"
            "    c.record(1.0)\n"
            "    task = Task(1.0)\n"
            "    task.fires += 1\n"
            "    return c.get(), task.ticks, attrgetter('x.dotted')\n"
        ),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    (tmp_path / "perfbench").mkdir()
    assert Reachability(tmp_path).write_only_attributes() == [
        "repro.cli:Base.counts",
        "repro.cli:Base.peak",
        "repro.cli:Task.fires",
    ]


@pytest.mark.parametrize(
    "example", sorted((REPO / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_examples_load_only_live_names(reach: Reachability, example: Path) -> None:
    source = _Source(example)
    dead = set()
    loads = source.loads([source.tree])
    for chain in loads.chains:
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
    dead.update(
        f"{module}:{member}"
        for module, member in reach.dead_members()
        if member.rpartition(".")[2] in loads.attrs
    )
    assert not dead, "loads unreached names:\n" + "\n".join(sorted(dead))
