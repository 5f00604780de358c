"""Tests of the whole-program layer: summaries, graph, rules, cache,
parallel analysis and SARIF output.

Graph-rule end-to-end behaviour is pinned by the fixture corpus in
``test_lint_self.py``; here we exercise the substrate — extraction
fidelity, call resolution, cache validity and the determinism of every
serialised artefact.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import os
from pathlib import Path
from textwrap import dedent

from repro.lint import (
    FileAnalysis,
    Finding,
    LintCache,
    LintConfig,
    RULES_BY_CODE,
    analyze_paths,
    cache_key,
    lint_paths,
    render_sarif,
)
from repro.lint.graph.dump import dump_dot, dump_json
from repro.lint.graph.layers import LAYER_INDEX, component_layer
from repro.lint.graph.program import ProgramGraph
from repro.lint.graph.summary import (
    ModuleSummary,
    derive_module_name,
    summarize_module,
)

ROOT = Path(__file__).resolve().parent.parent


def summarize(source: str, relpath: str = "repro/pkg/mod.py") -> ModuleSummary:
    tree = ast.parse(dedent(source))
    return summarize_module(Path(relpath), tree)


def build_graph(modules: dict) -> ProgramGraph:
    """modules: relpath (``repro/pkg/mod.py``) -> source text."""
    return ProgramGraph(
        [summarize(source, relpath) for relpath, source in modules.items()]
    )


# ------------------------------------------------------------- summary


def test_module_name_derivation() -> None:
    assert derive_module_name(Path("src/repro/thermal/rc.py")) == "repro.thermal.rc"
    assert derive_module_name(Path("src/repro/__init__.py")) == "repro"
    assert derive_module_name(Path("repro/sim/__init__.py")) == "repro.sim"
    assert derive_module_name(Path("elsewhere/mod.py")) == ""


def test_import_kinds_top_lazy_tc() -> None:
    summary = summarize(
        """
        from typing import TYPE_CHECKING
        import os

        if TYPE_CHECKING:
            from repro.telemetry import exporters

        def f():
            from repro.experiments import platform
            return platform
        """
    )
    kinds = {imp.target: imp.kind for imp in summary.imports}
    assert kinds["os"] == "top"
    assert kinds["repro.telemetry"] == "tc"
    assert kinds["repro.experiments"] == "lazy"


def test_relative_import_resolution() -> None:
    summary = summarize(
        """
        from ..core.policy import Policy
        from . import sibling
        """,
        relpath="repro/governors/wrapped.py",
    )
    targets = sorted(imp.target for imp in summary.imports)
    assert targets == ["repro.core.policy", "repro.governors"]


def test_function_table_markers_and_raises_only() -> None:
    summary = summarize(
        """
        from repro.sim.marker import coldpath, hotpath

        @hotpath
        def hot(x):
            return cold(x)

        @coldpath
        def cold(x):
            return {x: 1}

        def bail(msg):
            raise RuntimeError(msg)
        """
    )
    by_name = {fn.qname: fn for fn in summary.functions}
    assert by_name["hot"].is_hotpath and not by_name["hot"].is_coldpath
    assert by_name["cold"].is_coldpath
    assert by_name["bail"].raises_only
    assert ("name", "cold", 6) in by_name["hot"].calls


def test_nested_function_owns_its_body() -> None:
    """Calls/allocations inside a closure belong to the closure's entry."""
    summary = summarize(
        """
        def compile_step(nodes):
            table = sorted(nodes)

            def step(t):
                helper(t)
                return [t]

            return step

        def helper(t):
            return t
        """
    )
    by_name = {fn.qname: fn for fn in summary.functions}
    inner = by_name["compile_step.<locals>.step"]
    assert ("name", "helper", 6) in inner.calls
    assert any(label == "list built" for _, _, label in inner.allocations)
    # the outer function records the closure creation, not the inner list
    outer = by_name["compile_step"]
    assert any("closure created" in label for _, _, label in outer.allocations)
    assert not any(label == "list built" for _, _, label in outer.allocations)


def test_mutable_globals_detection() -> None:
    summary = summarize(
        """
        import collections

        REGISTRY = {}
        FROZEN = (1, 2)
        __all__ = ["REGISTRY", "FROZEN"]
        _QUEUE = collections.deque()

        try:
            CACHE = dict(a=1)
        except Exception:
            CACHE = None
        """
    )
    names = {name for _, _, name, _ in summary.mutable_globals}
    # __all__ is a dunder (exempt); tuples are immutable.
    assert names == {"REGISTRY", "_QUEUE", "CACHE"}


def test_summary_json_roundtrip() -> None:
    summary = summarize(
        """
        from repro.units import Celsius

        STATE = []

        class C:
            def __init__(self):
                self.x = 1

            def m(self, pkg):
                pkg.temp = 1.0
                return self.helper()

            def helper(self):
                return f"{self.x}"
        """
    )
    restored = ModuleSummary.from_json(
        json.loads(json.dumps(summary.to_json()))
    )
    assert restored == summary


# ------------------------------------------------------------- program


def test_call_resolution_shapes() -> None:
    graph = build_graph({
        "repro/pkg/a.py": """
            from repro.pkg.b import helper, Widget
            import repro.pkg.b as bee

            def top():
                helper()
                Widget()
                bee.helper()
                local()

            def local():
                pass

            class C:
                def m(self):
                    self.n()

                def n(self):
                    pass
            """,
        "repro/pkg/b.py": """
            def helper():
                pass

            class Widget:
                def __init__(self):
                    pass
            """,
    })
    edges = {
        (e.caller_qname, e.callee_module, e.callee_qname)
        for edges in graph.call_edges.values()
        for e in edges
    }
    assert ("top", "repro.pkg.b", "helper") in edges
    assert ("top", "repro.pkg.b", "Widget.__init__") in edges
    assert ("top", "repro.pkg.a", "local") in edges
    assert ("C.m", "repro.pkg.a", "C.n") in edges
    # both the from-import and the module-alias call resolve to helper
    helper_edges = [e for e in edges if e[2] == "helper"]
    assert len(helper_edges) == 1  # deduplicated by set; two call sites exist


def test_reexport_through_package_init_resolves() -> None:
    graph = build_graph({
        "repro/pkg/__init__.py": """
            from .impl import api
            """,
        "repro/pkg/impl.py": """
            def api():
                return 1
            """,
        "repro/user.py": """
            from repro.pkg import api

            def caller():
                api()
            """,
    })
    edges = graph.call_edges[("repro.user", "caller")]
    assert edges[0].callee == ("repro.pkg.impl", "api")


def test_import_closure_includes_parents_and_lazy() -> None:
    graph = build_graph({
        "repro/__init__.py": "",
        "repro/runtime/__init__.py": "",
        "repro/runtime/execute.py": """
            def execute_spec(spec):
                from repro.experiments import platform
                return platform
            """,
        "repro/experiments/__init__.py": """
            from . import platform
            """,
        "repro/experiments/platform.py": """
            REGISTRY = {}
            """,
    })
    closure = graph.import_closure(["repro.runtime.execute"])
    assert "repro.experiments.platform" in closure
    assert "repro.experiments" in closure  # parent package
    assert "repro" in closure


def test_reachability_chain() -> None:
    graph = build_graph({
        "repro/pkg/m.py": """
            def a():
                b()

            def b():
                c()

            def c():
                pass
            """
    })
    parents = graph.reachable([("repro.pkg.m", "a")])
    chain = graph.call_chain(parents, ("repro.pkg.m", "c"))
    assert [q for _, q in chain] == ["a", "b", "c"]


# -------------------------------------------------------------- layers


def test_layer_table_covers_real_components() -> None:
    src = ROOT / "src" / "repro"
    components = {
        child.name
        for child in src.iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    }
    missing = components - set(LAYER_INDEX)
    assert not missing, f"components missing a declared layer: {missing}"
    assert component_layer("units") == 0
    assert component_layer("no_such_component") is None


# ---------------------------------------------------------------- dump


def test_dump_formats_are_deterministic() -> None:
    graph = build_graph({
        "repro/pkg/a.py": """
            import repro.pkg.b

            def f():
                pass
            """,
        "repro/pkg/b.py": "",
    })
    dot_a, dot_b = dump_dot(graph), dump_dot(graph)
    json_a, json_b = dump_json(graph), dump_json(graph)
    assert dot_a == dot_b and json_a == json_b
    assert '"repro.pkg.a" -> "repro.pkg.b" [style=solid];' in dot_a
    parsed = json.loads(json_a)
    assert {m["module"] for m in parsed["modules"]} == {
        "repro.pkg.a",
        "repro.pkg.b",
    }


# --------------------------------------------------------------- cache


def write_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        dedent(
            """
            import time
            __all__ = ["f"]
            def f():
                return time.time()
            """
        )
    )
    (pkg / "clean.py").write_text('__all__: list = []\n')
    return tmp_path / "repro"


def make_cache(tmp_path: Path, config: LintConfig) -> LintCache:
    key = cache_key(config.digest(), sorted(RULES_BY_CODE))
    return LintCache(tmp_path / ".cache", key)


def test_cache_warm_run_hits_and_matches(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    tree = write_tree(tmp_path)
    config = LintConfig()
    cold_cache = make_cache(tmp_path, config)
    cold = lint_paths([tree], config=config, cache=cold_cache)
    assert cold_cache.misses == 2 and cold_cache.hits == 0
    assert (tmp_path / ".cache" / "cache.json").exists()

    warm_cache = make_cache(tmp_path, config)
    warm = lint_paths([tree], config=config, cache=warm_cache)
    assert warm_cache.hits == 2 and warm_cache.misses == 0
    assert warm == cold
    assert [f.code for f in warm] == ["RPR001"]


def test_cache_invalidated_by_content_change(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    tree = write_tree(tmp_path)
    config = LintConfig()
    lint_paths([tree], config=config, cache=make_cache(tmp_path, config))

    (tree / "pkg" / "clean.py").write_text(
        dedent(
            """
            import time
            __all__ = ["g"]
            def g():
                return time.time()
            """
        )
    )
    cache = make_cache(tmp_path, config)
    findings = lint_paths([tree], config=config, cache=cache)
    assert cache.hits == 1 and cache.misses == 1  # only the edited file re-ran
    assert sorted(f.code for f in findings) == ["RPR001", "RPR001"]


def test_cache_invalidated_by_config_change(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    tree = write_tree(tmp_path)
    base = LintConfig()
    lint_paths([tree], config=base, cache=make_cache(tmp_path, base))

    narrowed = LintConfig(select=frozenset({"RPR004"}))
    cache = make_cache(tmp_path, narrowed)
    findings = lint_paths([tree], config=narrowed, cache=cache)
    assert cache.hits == 0 and cache.misses == 2  # different key: cold store
    assert findings == []


def test_corrupt_cache_degrades_to_cold_run(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    tree = write_tree(tmp_path)
    config = LintConfig()
    cache_dir = tmp_path / ".cache"
    cache_dir.mkdir()
    (cache_dir / "cache.json").write_text("{ not json")
    cache = LintCache(cache_dir, cache_key(config.digest(), sorted(RULES_BY_CODE)))
    findings = lint_paths([tree], config=config, cache=cache)
    assert [f.code for f in findings] == ["RPR001"]


def test_file_analysis_roundtrip(tmp_path: Path) -> None:
    (tmp_path / "m.py").write_text("__all__: list = []\n")
    analysis = analyze_paths([tmp_path / "m.py"])[0]
    restored = FileAnalysis.from_json(
        json.loads(json.dumps(analysis.to_json()))
    )
    assert restored.display == analysis.display
    assert restored.findings == analysis.findings
    assert restored.summary == analysis.summary


# ---------------------------------------------------------------- jobs


def test_parallel_jobs_match_serial(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "repro" / "pkg"
    pkg.mkdir(parents=True)
    for i in range(6):
        (pkg / f"m{i}.py").write_text(
            dedent(
                f"""
                import time
                __all__ = ["f{i}"]
                def f{i}():
                    return time.time()
                """
            )
        )
    serial = lint_paths([tmp_path / "repro"])
    parallel = lint_paths([tmp_path / "repro"], jobs=2)
    assert parallel == serial
    assert len(parallel) == 6


# --------------------------------------------------------------- sarif


def test_render_sarif_shape_and_determinism() -> None:
    findings = [
        Finding(path="src/m.py", line=3, col=7, code="RPR001", message="boom"),
    ]
    doc_a, doc_b = render_sarif(findings), render_sarif(findings)
    assert doc_a == doc_b
    parsed = json.loads(doc_a)
    assert parsed["version"] == "2.1.0"
    run = parsed["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert set(RULES_BY_CODE) <= set(rule_ids)
    result = run["results"][0]
    assert result["ruleId"] == "RPR001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/m.py"
    assert location["region"] == {"startLine": 3, "startColumn": 7}


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_cli_sarif_on_bad_fixture() -> None:
    fixture = ROOT / "tests" / "lint_fixtures" / "rpr001_determinism.py"
    result = run_cli("--format", "sarif", "--no-cache", str(fixture))
    assert result.returncode == 1
    parsed = json.loads(result.stdout)
    codes = {r["ruleId"] for r in parsed["runs"][0]["results"]}
    assert codes == {"RPR001"}


def test_cli_sarif_clean_tree_exits_zero() -> None:
    result = run_cli("--format", "sarif", "--no-cache", "src/repro")
    assert result.returncode == 0, result.stdout + result.stderr
    parsed = json.loads(result.stdout)
    assert parsed["runs"][0]["results"] == []


def test_cli_graph_dot_dump() -> None:
    result = run_cli("--graph", "dot", "--no-cache", "src/repro")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("digraph repro_imports {")
    # one known top-level edge of the real tree
    assert '"repro.runtime.execute" -> "repro.cluster.cluster"' in result.stdout


def test_cli_graph_json_dump() -> None:
    result = run_cli("--graph", "json", "--no-cache", "src/repro")
    assert result.returncode == 0, result.stderr
    parsed = json.loads(result.stdout)
    modules = {m["module"] for m in parsed["modules"]}
    assert "repro.runtime.execute" in modules


def test_cli_jobs_flag_matches_serial() -> None:
    serial = run_cli("--no-cache", "src/repro")
    parallel = run_cli("--no-cache", "--jobs", "2", "src/repro")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_cli_rejects_bad_jobs() -> None:
    result = run_cli("--jobs", "0", "src/repro")
    assert result.returncode == 2
    assert "--jobs" in result.stderr


# --------------------------------------------------- graph rule details


def test_rpr010_respects_suppression(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    mod = tmp_path / "repro" / "fastpath" / "m.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(
        dedent(
            """
            __all__ = ["helper", "hot", "hotpath"]

            def hotpath(fn):
                return fn

            @hotpath
            def hot(state):
                helper(state)

            def helper(state):
                state.x = [1]  # repro-lint: disable=RPR010
            """
        )
    )
    findings = lint_paths([tmp_path / "repro"])
    assert [f.code for f in findings] == []


def test_rpr013_root_in_anonymous_module(tmp_path: Path) -> None:
    """execute_spec outside any repro tree still anchors the rule."""
    mod = tmp_path / "worker.py"
    mod.write_text(
        dedent(
            """
            __all__ = ["execute_spec"]
            _STATE = {}

            def execute_spec(spec):
                return _STATE
            """
        )
    )
    findings = lint_paths([mod])
    assert [f.code for f in findings] == ["RPR013"]


def test_graph_rules_disabled_by_select(tmp_path: Path) -> None:
    mod = tmp_path / "worker.py"
    mod.write_text(
        dedent(
            """
            __all__ = ["execute_spec"]
            _STATE = {}

            def execute_spec(spec):
                return _STATE
            """
        )
    )
    config = LintConfig(select=frozenset({"RPR001"}))
    assert lint_paths([mod], config=config) == []
