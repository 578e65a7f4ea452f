"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import bigbayes

MODULES = sorted(Path(bigbayes.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    """Imported names never referenced in ``source`` (``__all__`` counts as a use)."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_and_accepts_used():
    src = ("import math\nimport os.path\nfrom typing import Optional, Sequence\n"
           "from .x import y as z\n__all__ = ['z']\n"
           "def f(a: Optional[int]):\n    return os.path.join('a')\n")
    assert unused_imports(src) == [(1, "math"), (3, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"
