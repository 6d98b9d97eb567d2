"""The README's quick library tour runs as written.

`python tests/test_readme.py` runs the tour alone, with no test dependency,
against whichever relspan is importable: CI runs it that way on the
installed package."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def tour():
    """The code of the python block under '## Quick library tour'."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quick library tour\n+```python\n(.*?)^```$", text, re.M | re.S)
    # padded with the lines above it, so a traceback names the README's line
    return compile("\n" * text.count("\n", 0, block.start(1)) + block.group(1), str(README), "exec")


def test_readme_quick_tour_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(tour(), {})
    assert out.getvalue() == "True\n"


if __name__ == "__main__":
    exec(tour(), {})
