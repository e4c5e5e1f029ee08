"""The modules of ``src/gkm`` import one another one way, at module level.

An import inside a function hides a dependency from the module's header,
and it is how an import cycle is usually papered over.  So no function
body in ``src/gkm`` holds an import, and the graph of imports between the
package's own modules, counting every import wherever it sits, has no
cycle.  ``from . import linalg`` imports the module ``linalg``; the package
itself (``__init__``) is not a target, since every submodule import runs it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkm"


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imported_modules(node, modules):
    """The package modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = "gkm" if node.level else ""
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        names = [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {name.partition(".")[2] for name in names
            if name.startswith("gkm.") and name.partition(".")[2] in modules}


def _import_graph():
    trees = _trees()
    modules = set(trees) - {"__init__"}
    return {name: set().union(*(_imported_modules(node, modules) for node in ast.walk(tree)
                                if isinstance(node, (ast.Import, ast.ImportFrom))))
            for name, tree in trees.items()}


def _cycle(graph):
    """Modules that import one another in a ring, the first repeated, or None."""
    done, path = set(), []

    def visit(module):
        path.append(module)
        for target in sorted(graph[module]):
            if target in path:
                return path[path.index(target):] + [target]
            if target not in done and (ring := visit(target)):
                return ring
        done.add(path.pop())
        return None

    for module in sorted(graph):
        if module not in done and (ring := visit(module)):
            return ring
    return None


def test_no_function_body_holds_an_import():
    found = [f"{name}.py:{node.lineno} in {fn.name}"
             for name, tree in _trees().items()
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_the_package_modules_import_one_another_without_a_cycle():
    graph = _import_graph()
    # The graph sees both import forms: a module and a name from a module.
    assert "linalg" in graph["lefschetz"] and "cohomology" in graph["localization"]
    assert "__init__" not in set().union(*graph.values())
    assert _cycle(graph) is None


def test_a_ring_of_imports_is_found():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
