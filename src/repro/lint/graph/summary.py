"""Per-module extraction: everything the graph rules need, serialisable.

A :class:`ModuleSummary` is the whole-program layer's unit of caching:
one AST walk per file distils the module into imports, a function table
and module-level mutable bindings, all as plain tuples/strings so the
summary round-trips through JSON (``to_json``/``from_json``) and
pickles cleanly across ``--jobs`` worker processes.

The extraction is deliberately conservative.  Call sites keep only the
three shapes the resolver can act on — bare names, ``self.method`` and
dotted module attributes — and everything else (calls through local
variables, subscripts, returned callables) is opaque.  Known
over/under-approximations are catalogued in
``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from ..base import dotted_name, function_params

__all__ = [
    "FunctionInfo",
    "ImportRecord",
    "KNOWN_COMPONENTS",
    "ModuleSummary",
    "classify_allocation",
    "derive_module_name",
    "module_component",
    "summarize_module",
]

#: Builtin constructors whose call allocates a fresh container/str.
_ALLOCATING_CALLS = frozenset({"dict", "list", "set", "str"})

#: Constructors that produce a *mutable* container (worker-state hazard).
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque",
     "OrderedDict", "Counter"}
)

#: Top-level components of the ``repro`` package, used to locate fixture
#: trees that mirror the package shape (see :func:`module_component`).
KNOWN_COMPONENTS = frozenset(
    {"analysis", "cli", "cluster", "config", "core", "cpu", "errors",
     "experiments", "fan", "fastpath", "governors", "i2c",
     "lint", "runtime", "sim", "telemetry", "thermal", "units",
     "workloads", "__main__"}
)


def classify_allocation(node: ast.AST) -> Optional[str]:
    """Label for a per-call allocation construct, or ``None``.

    This is the single definition of the RPR009 allocation ban list;
    the per-file rule and the transitive RPR010 rule both consult it.
    """
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict built"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list built"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set built"
    if isinstance(node, ast.GeneratorExp):
        return "generator built"
    if isinstance(node, ast.JoinedStr):
        return "f-string built"
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee in _ALLOCATING_CALLS:
            return f"{callee}() allocation"
    if isinstance(node, ast.Lambda):
        return "lambda closure created"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"nested function {node.name!r} closure created"
    return None


@dataclass(frozen=True)
class ImportRecord:
    """One import statement edge.

    ``kind`` is ``"top"`` for eagerly-executed module-level imports,
    ``"lazy"`` for function-scoped imports and ``"tc"`` for imports
    guarded by ``TYPE_CHECKING``.  ``names`` holds ``(name, asname)``
    pairs for ``from X import ...`` and is empty for ``import X``.
    """

    target: str
    kind: str
    line: int
    col: int
    names: Tuple[Tuple[str, str], ...] = ()
    asname: str = ""

    def to_json(self) -> list:
        return [self.target, self.kind, self.line, self.col,
                [list(pair) for pair in self.names], self.asname]

    @staticmethod
    def from_json(raw: list) -> "ImportRecord":
        return ImportRecord(
            target=raw[0], kind=raw[1], line=raw[2], col=raw[3],
            names=tuple((n, a) for n, a in raw[4]), asname=raw[5],
        )


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method as the call graph sees it.

    ``qname`` is the dotted qualified name within the module
    (``"f"``, ``"C.m"``, ``"f.<locals>.g"``).  ``calls`` holds
    ``(kind, name, line)`` descriptors with ``kind`` one of ``"name"``
    (bare-name call), ``"self"`` (``self.x(...)``/``cls.x(...)``) or
    ``"attr"`` (dotted call such as ``mod.f(...)``).  ``allocations``
    and ``param_writes`` carry the evidence RPR010/RPR012 anchor
    findings to.
    """

    qname: str
    line: int
    col: int
    params: Tuple[str, ...]
    is_hotpath: bool
    is_coldpath: bool
    raises_only: bool
    calls: Tuple[Tuple[str, str, int], ...]
    allocations: Tuple[Tuple[int, int, str], ...]
    param_writes: Tuple[Tuple[int, int, str, str], ...]

    def to_json(self) -> list:
        return [
            self.qname, self.line, self.col, list(self.params),
            self.is_hotpath, self.is_coldpath, self.raises_only,
            [list(c) for c in self.calls],
            [list(a) for a in self.allocations],
            [list(w) for w in self.param_writes],
        ]

    @staticmethod
    def from_json(raw: list) -> "FunctionInfo":
        return FunctionInfo(
            qname=raw[0], line=raw[1], col=raw[2], params=tuple(raw[3]),
            is_hotpath=raw[4], is_coldpath=raw[5], raises_only=raw[6],
            calls=tuple((k, n, ln) for k, n, ln in raw[7]),
            allocations=tuple((ln, c, m) for ln, c, m in raw[8]),
            param_writes=tuple((ln, c, p, t) for ln, c, p, t in raw[9]),
        )


@dataclass
class ModuleSummary:
    """Everything the whole-program rules need from one module."""

    path: str
    module: str
    component: str
    imports: Tuple[ImportRecord, ...] = ()
    functions: Tuple[FunctionInfo, ...] = ()
    #: class name -> method names (for self-call / ``C()`` resolution).
    classes: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: ``(name, line, col, constructor-label)`` mutable module globals.
    mutable_globals: Tuple[Tuple[int, int, str, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "component": self.component,
            "imports": [imp.to_json() for imp in self.imports],
            "functions": [fn.to_json() for fn in self.functions],
            "classes": {name: list(ms) for name, ms in self.classes.items()},
            "mutable_globals": [list(g) for g in self.mutable_globals],
        }

    @staticmethod
    def from_json(raw: dict) -> "ModuleSummary":
        return ModuleSummary(
            path=raw["path"],
            module=raw["module"],
            component=raw["component"],
            imports=tuple(ImportRecord.from_json(i) for i in raw["imports"]),
            functions=tuple(FunctionInfo.from_json(f) for f in raw["functions"]),
            classes={k: tuple(v) for k, v in raw["classes"].items()},
            mutable_globals=tuple(
                (ln, c, n, d) for ln, c, n, d in raw["mutable_globals"]
            ),
        )


def derive_module_name(path: Path) -> str:
    """Dotted module name for files under a ``repro`` package directory.

    ``src/repro/thermal/rc.py`` → ``"repro.thermal.rc"``; fixture trees
    that embed a ``repro/`` directory resolve the same way.  Files with
    no ``repro`` ancestor get ``""`` (their relative imports stay
    opaque, which is the conservative choice).
    """
    parts = path.parts
    if "repro" not in parts:
        return ""
    idx = len(parts) - 1 - parts[::-1].index("repro")
    rel = [p for p in parts[idx + 1:]]
    if not rel:
        return "repro"
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][:-3]
    if rel and rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(["repro", *rel]) if rel else "repro"


def module_component(path: Path, module: str) -> str:
    """Top-level component the module belongs to.

    Derived from the dotted module name when the file lives under a
    ``repro`` tree (``repro.thermal.rc`` → ``"thermal"``, the package
    root → ``"<root>"``); otherwise the *last* path part matching a
    known component name, so path-shaped fixture corpora
    (``tests/lint_fixtures/fastpath/...``) land in the right component.
    """
    if module == "repro":
        return "<root>"
    if module.startswith("repro."):
        return module.split(".")[1]
    stem_parts = [*path.parts[:-1], path.stem]
    for part in reversed(stem_parts):
        if part in KNOWN_COMPONENTS:
            return part
    return ""


def _marker(decorators: List[ast.expr], name: str) -> bool:
    for deco in decorators:
        flat = dotted_name(deco)
        if flat == name or flat.endswith("." + name):
            return True
    return False


def _raises_only(body: List[ast.stmt]) -> bool:
    """True when every top-level statement (past a docstring) raises."""
    stmts = list(body)
    if stmts and isinstance(stmts[0], ast.Expr) and isinstance(
        stmts[0].value, ast.Constant
    ) and isinstance(stmts[0].value.value, str):
        stmts = stmts[1:]
    return bool(stmts) and all(isinstance(s, ast.Raise) for s in stmts)


def _call_descriptor(node: ast.Call) -> Optional[Tuple[str, str, int]]:
    func = node.func
    if isinstance(func, ast.Name):
        return ("name", func.id, node.lineno)
    flat = dotted_name(func)
    if not flat:
        return None
    head, _, rest = flat.partition(".")
    if head in ("self", "cls") and rest and "." not in rest:
        return ("self", rest, node.lineno)
    if head in ("self", "cls"):
        return None
    return ("attr", flat, node.lineno)


def _param_writes(
    func: ast.AST, params: Tuple[str, ...]
) -> Tuple[Tuple[int, int, str, str], ...]:
    """RPR003-style attribute writes rooted at a (non-self) parameter."""
    roots = set(params) - {"self", "cls"}
    if not roots:
        return ()
    out: List[Tuple[int, int, str, str]] = []
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                if not isinstance(leaf, ast.Attribute) or not isinstance(
                    leaf.ctx, ast.Store
                ):
                    continue
                base = leaf.value
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in roots:
                    out.append(
                        (leaf.lineno, leaf.col_offset + 1, base.id,
                         ast.unparse(leaf))
                    )
    return tuple(out)


def _mutable_binding(value: ast.expr) -> Optional[str]:
    """Constructor label when ``value`` builds a mutable container."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        callee = dotted_name(value.func)
        tail = callee.rsplit(".", 1)[-1] if callee else ""
        if tail in _MUTABLE_CONSTRUCTORS:
            return f"{tail}()"
    return None


class _Extractor(ast.NodeVisitor):
    """Single-pass walker building the function table and import list."""

    def __init__(self, module: str, is_init: bool) -> None:
        self.module = module
        self.is_init = is_init
        self.imports: List[ImportRecord] = []
        self.functions: List[FunctionInfo] = []
        self.classes: Dict[str, List[str]] = {}
        self._scope: List[str] = []  # qname segments
        self._class: List[str] = []  # enclosing class names
        self._context: List[str] = []  # "fn" / "tc" markers

    # -- imports ---------------------------------------------------------

    def _import_kind(self) -> str:
        if "fn" in self._context:
            return "lazy"
        if "tc" in self._context:
            return "tc"
        return "top"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append(
                ImportRecord(
                    target=alias.name, kind=self._import_kind(),
                    line=node.lineno, col=node.col_offset + 1,
                    asname=alias.asname or "",
                )
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = self._resolve_from(node)
        if target:
            self.imports.append(
                ImportRecord(
                    target=target, kind=self._import_kind(),
                    line=node.lineno, col=node.col_offset + 1,
                    names=tuple(
                        (alias.name, alias.asname or alias.name)
                        for alias in node.names
                    ),
                )
            )
        self.generic_visit(node)

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        if not self.module:
            return ""  # relative import in an anonymous file: opaque
        base = self.module.split(".")
        if not self.is_init:
            base = base[:-1]
        cut = node.level - 1
        if cut > len(base):
            return ""
        base = base[:len(base) - cut] if cut else base
        return ".".join(base + ([node.module] if node.module else []))

    # -- TYPE_CHECKING guards -------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        guarded = "TYPE_CHECKING" in ast.unparse(node.test)
        self._context.append("tc" if guarded else "if")
        self.generic_visit(node)
        self._context.pop()

    # -- functions and classes ------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._scope:
            self.classes[node.name] = [
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        self._class.append(node.name)
        self._scope.append(node.name)
        for item in node.body:
            self.visit(item)
        self._scope.pop()
        self._class.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(self, node: ast.AST) -> None:
        qname = ".".join([*self._scope, node.name])
        params = tuple(function_params(node))
        calls: List[Tuple[str, str, int]] = []
        allocations: List[Tuple[int, int, str]] = []
        nested: List[ast.AST] = []

        def scan(n: ast.AST) -> None:
            for child in ast.iter_child_nodes(n):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    label = classify_allocation(child)
                    if label:
                        allocations.append(
                            (child.lineno, child.col_offset + 1, label)
                        )
                    nested.append(child)
                    continue
                if isinstance(child, ast.Lambda):
                    allocations.append(
                        (child.lineno, child.col_offset + 1,
                         "lambda closure created")
                    )
                    continue  # lambda bodies are opaque
                label = classify_allocation(child)
                if label:
                    allocations.append(
                        (child.lineno, child.col_offset + 1, label)
                    )
                if isinstance(child, ast.Call):
                    descriptor = _call_descriptor(child)
                    if descriptor:
                        calls.append(descriptor)
                scan(child)

        for stmt in node.body:
            label = classify_allocation(stmt)
            if label:
                allocations.append((stmt.lineno, stmt.col_offset + 1, label))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.append(stmt)
                continue
            if isinstance(stmt, ast.Call):
                descriptor = _call_descriptor(stmt)
                if descriptor:
                    calls.append(descriptor)
            scan(stmt)

        self.functions.append(
            FunctionInfo(
                qname=qname,
                line=node.lineno,
                col=node.col_offset + 1,
                params=params,
                is_hotpath=_marker(node.decorator_list, "hotpath"),
                is_coldpath=_marker(node.decorator_list, "coldpath"),
                raises_only=_raises_only(node.body),
                calls=tuple(calls),
                allocations=tuple(allocations),
                param_writes=_param_writes(node, params),
            )
        )

        # Recurse: nested defs own their bodies; imports inside any
        # function body are "lazy".
        self._scope.append(node.name)
        self._scope.append("<locals>")
        self._context.append("fn")
        for child in nested:
            self.visit(child)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        if isinstance(sub, ast.Import):
                            self.visit_Import(sub)
                        else:
                            self.visit_ImportFrom(sub)
        self._context.pop()
        self._scope.pop()
        self._scope.pop()


def _module_level_mutables(
    tree: ast.Module,
) -> Tuple[Tuple[int, int, str, str], ...]:
    out: List[Tuple[int, int, str, str]] = []

    def walk_top(body: List[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If):
                walk_top(stmt.body)
                walk_top(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                walk_top(stmt.body)
                for handler in stmt.handlers:
                    walk_top(handler.body)
                walk_top(stmt.orelse)
                walk_top(stmt.finalbody)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is None:
                    continue
                label = _mutable_binding(value)
                if label is None:
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and not (
                        target.id.startswith("__")
                        and target.id.endswith("__")
                    ):
                        out.append(
                            (stmt.lineno, stmt.col_offset + 1,
                             target.id, label)
                        )

    walk_top(tree.body)
    return tuple(out)


def summarize_module(path: Path, tree: ast.Module) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    module = derive_module_name(path)
    extractor = _Extractor(module, path.name == "__init__.py")
    for stmt in tree.body:
        extractor.visit(stmt)
    return ModuleSummary(
        path=path.as_posix(),
        module=module,
        component=module_component(path, module),
        imports=tuple(extractor.imports),
        functions=tuple(extractor.functions),
        classes={k: tuple(v) for k, v in extractor.classes.items()},
        mutable_globals=_module_level_mutables(tree),
    )
