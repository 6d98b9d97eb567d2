"""The elimination's internals stay in linalg: no other module of relspan
imports _reduce, _echelon or _kernel, or reads them as attributes.  Every
other module takes kernels, solves and echelon forms through linalg's
public functions (kernel_basis_sparse, solve, Matrix.rref)."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "relspan")
INTERNALS = {"_reduce", "_echelon", "_kernel"}


def _internals_used(path):
    """The names in INTERNALS that the module at path imports or reads as an
    attribute, with their line numbers."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names if alias.name in INTERNALS)
        elif isinstance(node, ast.Attribute) and node.attr in INTERNALS:
            yield node.attr, node.lineno


def test_only_linalg_uses_the_elimination_internals():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "linalg.py" in modules and "coalg.py" in modules
    used = {(name, hit) for name in modules if name != "linalg.py"
            for hit in _internals_used(os.path.join(SRC, name))}
    assert not used
