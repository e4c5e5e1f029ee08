"""Criterion 10: whole-suite wall clock and exact-arithmetic discipline.

Named to sort last so the elapsed-time check covers the other test modules.
The float scan parses every module's AST, the SVG renderer's included.
"""

import ast
import time
from pathlib import Path

from conftest import SESSION_START

_CORE = [
    "cohomology.py",
    "corpus.py",
    "errors.py",
    "geometry.py",
    "graph.py",
    "jsonio.py",
    "lefschetz.py",
    "linalg.py",
    "localization.py",
    "polynomial.py",
    "render.py",
    "cli.py",
    "__init__.py",
]


def _source_dir() -> Path:
    import gkm

    return Path(gkm.__file__).parent


def test_criterion_10_no_floats_in_core_modules():
    offenders = []
    for name in _CORE:
        tree = ast.parse((_source_dir() / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{name}:{node.lineno} float literal {node.value!r}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                offenders.append(f"{name}:{node.lineno} float() call")
    assert not offenders, "\n".join(offenders)


def test_criterion_10_suite_budget():
    elapsed = time.monotonic() - SESSION_START
    assert elapsed < 30.0, f"suite has been running {elapsed:.1f}s, budget is 30s"
    print(f"\nACCEPTANCE 10 PASS: no floating point in core modules; "
          f"suite wall clock {elapsed:.1f}s < 30s")
