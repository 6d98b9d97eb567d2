"""relspan runs on the standard library alone: every absolute import in its
modules names a standard-library module or relspan itself."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "relspan")


def _absolute_imports(path):
    """The top-level names of the modules path imports by absolute name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_relspan_imports_only_the_standard_library():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "linalg.py" in modules
    foreign = {(name, top) for name in modules for top in _absolute_imports(os.path.join(SRC, name))
               if top != "relspan" and top not in sys.stdlib_module_names}
    assert not foreign
