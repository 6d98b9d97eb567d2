"""Internals stay in linalg.  No other module of relspan imports the
elimination's internals, _reduce, _echelon or _kernel, or reads them as
attributes: every other module takes kernels, solves and echelon forms
through linalg's public functions (kernel_basis_sparse, solve,
Matrix.rref).  Nor does any import or read the packed F_p layer's
internals, its gate, packing, block sum and slot test: of the packed code,
coalg calls only the deciders _coassoc_difference and _closed_delta and
their gate _fits_closure."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "relspan")
INTERNALS = {"_reduce", "_echelon", "_kernel"}
PACKING = {"_most_terms", "_pack", "_slots", "_join", "_kron_blocks", "_slot_test"}
DECIDERS = {"_coassoc_difference", "_closed_delta", "_fits_closure"}


def _names_used(path, names):
    """The names in names that the module at path imports or reads as an
    attribute, with their line numbers."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names if alias.name in names)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node.attr, node.lineno


def _used_outside_linalg(names):
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "linalg.py" in modules and "coalg.py" in modules
    return {(name, hit) for name in modules if name != "linalg.py"
            for hit in _names_used(os.path.join(SRC, name), names)}


def test_only_linalg_uses_the_elimination_internals():
    assert not _used_outside_linalg(INTERNALS)


def test_only_linalg_uses_the_packing_internals():
    used = _used_outside_linalg(PACKING | DECIDERS | {"_packed_column"})
    assert {name for (module, (name, _)) in used} == DECIDERS
    assert {module for (module, _) in used} == {"coalg.py"}
