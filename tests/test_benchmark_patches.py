"""Every (owner, attribute) pair that the benchmark patches exists.

``perfbench/suite.py`` names the callables it wraps in ``counting_patches``
and ``traced_patches``, and ``perfbench/tracing.patched`` reads each one as
``vars(owner)[attr]``. The suite file is read as source, not imported, so
a renamed or deleted library name fails here and not only in the
benchmark's own tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite.py"
PATCH_FUNCTIONS = ("counting_patches", "traced_patches")


def imported_names(tree):
    """Top-level names bound by ``from bigbayes... import`` statements."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bigbayes":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = alias.asname or alias.name
                if hasattr(module, alias.name):
                    names[name] = getattr(module, alias.name)
                else:
                    names[name] = importlib.import_module(f"{node.module}.{alias.name}")
    return names


def patch_pairs(source: str):
    """``(owner expression, attr)`` of every 3-tuple literal whose second
    item is a string, inside the patch-list functions."""
    pairs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in PATCH_FUNCTIONS:
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Tuple) and len(sub.elts) == 3
                        and isinstance(sub.elts[1], ast.Constant)
                        and isinstance(sub.elts[1].value, str)):
                    pairs.append((ast.unparse(sub.elts[0]), sub.elts[1].value))
    return pairs


def resolve(expr: str, names):
    """The object an owner expression such as ``prefetch.SpecTree`` names."""
    head, *rest = expr.split(".")
    obj = names[head]
    for part in rest:
        obj = getattr(obj, part)
    return obj


SOURCE = SUITE.read_text()
NAMES = imported_names(ast.parse(SOURCE))
PAIRS = patch_pairs(SOURCE)


def test_collector_finds_the_schedules_and_a_class_method():
    assert ("prefetch", "naive_schedule") in PAIRS
    assert ("prefetch", "predictive_schedule") in PAIRS
    assert ("prefetch.SpecTree", "materialize") in PAIRS


@pytest.mark.parametrize("owner,attr", PAIRS, ids=[f"{o}.{a}" for o, a in PAIRS])
def test_patched_name_exists(owner, attr):
    assert attr in vars(resolve(owner, NAMES)), f"perfbench patches missing {owner}.{attr}"
