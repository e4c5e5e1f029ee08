"""Every error class in ``gkm.errors`` is told apart by some code.

A class earns its place only where a caller distinguishes it from a plain
GkmError: an ``except`` clause or an ``isinstance`` test in ``src/gkm``,
``demos/`` or ``tests/``, or a ``pytest.raises`` in ``tests/``.  A failure
that nothing tells apart is raised as a plain GkmError with a message.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ERRORS = ROOT / "src" / "gkm" / "errors.py"


def _names(node):
    """The class names an except, isinstance or pytest.raises argument names."""
    if isinstance(node, ast.Tuple):
        for item in node.elts:
            yield from _names(item)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def _told_apart():
    names = set()
    for d in ("src/gkm", "demos", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names.update(_names(node.type))
                elif isinstance(node, ast.Call) and node.args:
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == "isinstance" and len(node.args) == 2:
                        names.update(_names(node.args[1]))
                    elif called == "raises" and d == "tests":
                        names.update(_names(node.args[0]))
    return names


def test_every_error_class_is_told_apart_somewhere():
    classes = [node.name for node in ast.parse(ERRORS.read_text()).body
               if isinstance(node, ast.ClassDef)]
    assert "GkmError" in classes
    told_apart = _told_apart()
    assert [name for name in classes if name not in told_apart] == []
