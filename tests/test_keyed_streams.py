"""No module of the package draws from a stream its caller did not choose.

An argument-free ``default_rng()`` is seeded from the operating system, so
its draws cannot be reproduced, and a ``KeyedRng(<literal>)`` gives every
caller the same streams. Samplers take their generator or ``KeyedRng`` as
an argument instead.
"""

import ast
from pathlib import Path

import pytest

import bigbayes

MODULES = sorted(Path(bigbayes.__file__).parent.glob("*.py"))


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def hidden_streams(source: str):
    """(line, call) for each unseeded ``default_rng`` or literal-seeded ``KeyedRng``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node)
        args = node.args + [kw.value for kw in node.keywords]
        literal_seed = bool(args) and isinstance(args[0], ast.Constant)
        if name == "default_rng" and (not args or literal_seed and args[0].value is None):
            found.append((node.lineno, ast.unparse(node)))
        elif name == "KeyedRng" and literal_seed:
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_checker_finds_hidden_streams_and_accepts_passed_ones():
    src = ("import numpy as np\n"
           "def f(rng=None):\n"
           "    rng = np.random.default_rng() if rng is None else rng\n"
           "    g = default_rng(None)\n"
           "    return rng, g\n"
           "def g(rng=None, seed=3):\n"
           "    rng = KeyedRng(0) if rng is None else rng\n"
           "    return rng, KeyedRng(seed=7), KeyedRng(seed), np.random.default_rng(seed)\n")
    assert hidden_streams(src) == [
        (3, "np.random.default_rng()"),
        (4, "default_rng(None)"),
        (7, "KeyedRng(0)"),
        (8, "KeyedRng(seed=7)"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hidden_default_streams(path):
    assert hidden_streams(path.read_text()) == [], f"{path.name} draws from a stream no caller chose"
