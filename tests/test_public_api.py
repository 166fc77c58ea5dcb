"""The package's public names: ``hoprox.__all__`` is the solver API.

``__all__`` must list exactly the public names ``hoprox`` binds, and every
``hp.<name>`` that the benchmark harness or the README uses must be in it.
Every other module-level function or class must serve the library or the
benchmark, or be listed below with the reason it stays.
"""

import ast
import re
import types
from pathlib import Path

import hoprox

REPO = Path(__file__).resolve().parent.parent
HP_NAME = re.compile(r"\bhp\.([A-Za-z_]\w*)")

# module-level names outside __all__ that neither src/hoprox nor perfbench uses
KEPT_WITHOUT_CALLER = {
    "gradient_map": "independent reference for the subsolver's inline stopping test (criteria 4 and 9)",
    "holder_constant": "reference the subsolver's curvature estimates are tested against",
    "read_csv": "reader of the library's own trace CSV format",
    "load_instance": "reader of the library's own instance text format",
    "zero_function": "the f = 0 ProxFunction",
}


def test_all_is_the_public_names_bound():
    bound = {
        name
        for name, value in vars(hoprox).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(hoprox.__all__) == len(set(hoprox.__all__))
    assert set(hoprox.__all__) == bound


def test_names_used_by_benchmark_and_readme_are_exported():
    sources = sorted((REPO / "perfbench").glob("*.py")) + [REPO / "README.md"]
    used = {name for path in sources for name in HP_NAME.findall(path.read_text())}
    assert "run_alm" in used and "affine_operator" in used
    assert used <= set(hoprox.__all__), sorted(used - set(hoprox.__all__))


def _referenced_names(tree):
    # names loaded, attributes read, names imported, and strings (getattr and
    # monkeypatch targets); definitions themselves do not count
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_no_library_code_without_a_caller():
    modules = sorted((REPO / "src" / "hoprox").glob("*.py"))
    sources = modules + sorted((REPO / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    referenced = set().union(*map(_referenced_names, trees.values()))
    defined = {
        node.name
        for path in modules
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    without_caller = defined - set(hoprox.__all__) - referenced
    assert without_caller == set(KEPT_WITHOUT_CALLER), sorted(without_caller ^ set(KEPT_WITHOUT_CALLER))
