"""The package's public names: ``hoprox.__all__`` is the solver API.

``__all__`` must list exactly the public names ``hoprox`` binds, and every
``hp.<name>`` that the benchmark harness or the README uses must be in it.
Every other module-level function or class, every method of a class,
every dataclass field and every plain attribute set on ``self`` must serve
the library or the benchmark, and every parameter must be read by its
function, or be listed below with the reason it stays.
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
}

# methods, as Class.method, that neither src/hoprox nor perfbench calls
METHODS_KEPT_WITHOUT_CALLER = {
    "MatrixMap.norm_estimate": "spectral norm of A; only perfbench/tracing.py:28 reads it, to forward it",
    "EntryMask.norm_estimate": "spectral norm of A; only perfbench/tracing.py:28 reads it, to forward it",
    "RunManifest.load": "reader of the library's own manifest format (criterion 10 reruns a manifest)",
}

# dataclass fields, as Class.field, that nothing in src/hoprox or perfbench reads
FIELDS_KEPT_WITHOUT_READER = {
    "RunManifest.rng_algorithm": "serialized into manifest.json by asdict",
    "RunManifest.created_utc": "serialized into manifest.json by asdict",
    "RunManifest.total_wall_ms": "serialized into manifest.json by asdict",
    "SubsolverReport.final_grad_map_norm": "the solve's stopping quantity, checked by tests against the exact gradient map",
}

# plain attributes, as Class.attribute, that nothing in src/hoprox or perfbench reads
ATTRIBUTES_KEPT_WITHOUT_READER = {}

# parameters, as function:parameter, that their function's body never reads;
# a method is Class.method and a nested function outer.inner
PARAMETERS_KEPT_UNREAD = {
    "EntryMask.norm_estimate:self": "a mask's norm is the constant 1; the method keeps MatrixMap.norm_estimate's signature",
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


def _names_read(node):
    """Names loaded, attributes read, names imported, and strings (getattr
    and monkeypatch targets) anywhere in ``node``.

    Definitions do not count, nor do a function's references to its own
    name; a forwarding assignment ``self.x = inner.x`` reads nothing.
    """
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.targets[0].attr == node.value.attr
    ):
        return set()
    names = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.add(node.value)
    for child in ast.iter_child_nodes(node):
        names |= _names_read(child)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        names.discard(node.name)
    return names


def _library_trees():
    """The modules of src/hoprox, and the parsed trees of those and of perfbench."""
    modules = sorted((REPO / "src" / "hoprox").glob("*.py"))
    sources = modules + sorted((REPO / "perfbench").glob("*.py"))
    return modules, {path: ast.parse(path.read_text()) for path in sources}


def test_no_library_code_without_a_caller():
    modules, trees = _library_trees()
    referenced = set().union(*map(_names_read, trees.values()))
    defined = {
        node.name
        for path in modules
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    without_caller = defined - set(hoprox.__all__) - referenced
    assert without_caller == set(KEPT_WITHOUT_CALLER), sorted(without_caller ^ set(KEPT_WITHOUT_CALLER))


def _methods(tree):
    """(Class.method, method) for every method of a module-level class; dunders excluded."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item.name


def test_no_method_without_a_caller():
    modules, trees = _library_trees()
    read = set().union(*map(_names_read, trees.values()))
    without_caller = {
        qualified for path in modules for qualified, name in _methods(trees[path]) if name not in read
    }
    kept = set(METHODS_KEPT_WITHOUT_CALLER)
    assert without_caller == kept, sorted(without_caller ^ kept)


def _dataclass_fields(tree):
    """(Class.field, field) for every annotated field of a module-level ``@dataclass``."""
    for node in tree.body:
        # @dataclass or @dataclass(...)
        if isinstance(node, ast.ClassDef) and any(
            ast.unparse(getattr(deco, "func", deco)) == "dataclass" for deco in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def test_no_field_without_a_reader():
    """Every dataclass field is read by name in src/hoprox or perfbench, or listed with its reason.

    Only fields declared in a dataclass body are covered; plain attributes
    set in ``__init__``, such as ``PenaltyGradientOracle.multiplier``, are
    the next guard's.
    """
    modules, trees = _library_trees()
    read = set().union(*map(_names_read, trees.values()))
    without_reader = {
        qualified for path in modules for qualified, name in _dataclass_fields(trees[path]) if name not in read
    }
    kept = set(FIELDS_KEPT_WITHOUT_READER)
    assert without_reader == kept, sorted(without_reader ^ kept)


def _attributes_set(tree):
    """(Class.attribute, attribute) for every ``self.<attribute>`` a method of a module-level class assigns."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for target in ast.walk(item):
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.ctx, ast.Store)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            yield f"{node.name}.{target.attr}", target.attr


def test_no_attribute_without_a_reader():
    """Every plain attribute a method sets on ``self`` is read in src/hoprox or perfbench, or listed with its reason.

    The guard matches names, not classes: a read of ``.name`` on any object
    counts for every class that sets ``self.name``. An assignment is a store,
    not a read, so an attribute that only its own assignment names fails.
    """
    modules, trees = _library_trees()
    read = set().union(*map(_names_read, trees.values()))
    without_reader = {
        qualified for path in modules for qualified, name in _attributes_set(trees[path]) if name not in read
    }
    kept = set(ATTRIBUTES_KEPT_WITHOUT_READER)
    assert without_reader == kept, sorted(without_reader ^ kept)


def _functions(node, prefix=""):
    """(qualified name, node) for every function, method and lambda inside ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            name = prefix + getattr(child, "name", "<lambda>")
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def test_no_parameter_without_a_reader():
    """Every parameter of a function, method or lambda in src/hoprox is read in its body, or listed with its reason.

    ``self`` counts like any other parameter. A read inside a nested function
    or lambda counts; a default value is not part of the body.
    """
    modules, trees = _library_trees()
    unread = set()
    for path in modules:
        for name, func in _functions(trees[path]):
            args = func.args
            params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
            params += [arg.arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {
                node.id
                for statement in body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread |= {f"{name}:{param}" for param in params if param not in read}
    kept = set(PARAMETERS_KEPT_UNREAD)
    assert unread == kept, sorted(unread ^ kept)
