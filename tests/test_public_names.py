"""Every public name in ``src/gkm`` has a caller outside the tests.

A public module-level function or class, or a public method, must be named
somewhere in ``src/gkm``, ``demos/`` or ``perfbench/`` other than its own
definition: as a name, an attribute, an imported name, or a string constant
equal to it (the benchmark tracer patches functions by name).  A helper that
only tests call is dead code to the program.

The test matches bare names, not owners: a method counts as called when any
other definition of the same name is used.  So an unused method whose name
another class shares and uses -- ``is_zero`` on ``Polynomial``, ``to_text`` on
a report -- passes unseen; such names need a reader's check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gkm"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """(module file, qualified name, name) per public function, class and method."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.name, f"{node.name}.{item.name}", item.name


def _named():
    """Every identifier used as a name, attribute, import or string constant."""
    names = set()
    for _, tree in _trees(PACKAGE, ROOT / "demos", ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    named = _named()
    unused = [f"{module}: {qualified}" for module, qualified, name in _public_definitions()
              if name not in named]
    assert unused == []
