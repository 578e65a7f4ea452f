"""No module of the package uses numpy's ``logaddexp``.

numpy runs ``logaddexp`` as a scalar loop, several times slower than the
vectorized ``exp``/``log1p`` that ``models._log_sigmoid`` is built from, and
the logistic kernels sit under every full-data sampler. A log-sigmoid goes
through ``_log_sigmoid``.
"""

import ast
from pathlib import Path

import pytest

import bigbayes

MODULES = sorted(Path(bigbayes.__file__).parent.glob("*.py"))


def logaddexp_uses(source: str):
    """Lines that name ``logaddexp``, as an attribute (``np.logaddexp``) or a bare name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Attribute) and node.attr == "logaddexp")
                or (isinstance(node, ast.Name) and node.id == "logaddexp")):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_logaddexp_and_ignores_text():
    src = ('"""-np.logaddexp(0, -z) in a docstring."""\nimport numpy as np\n'
           "from numpy import logaddexp\nz = 1.0\na = -np.logaddexp(0.0, -z)\n"
           "b = logaddexp(0.0, z)\nc = np.log1p(np.exp(-z))\n")
    assert logaddexp_uses(src) == [5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_logaddexp_in_the_package(path):
    assert logaddexp_uses(path.read_text()) == [], (
        f"{path.name} uses np.logaddexp; use models._log_sigmoid")
