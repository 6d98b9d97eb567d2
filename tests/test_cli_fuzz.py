"""Fuzz of the CLI front end: the golden commands on mutated shipped fixtures.

Each example replaces or deletes a few values somewhere in one fixture file
and runs the command that reads it.  Mutations draw only small values, so no
example is slow by size.  Whatever the input, the exit code is 0, 1 or 2,
stdout is one JSON document echoing it, no traceback escapes, and exit 1
comes with a failing check.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relspan.cli import main
from test_cli_golden import COMMANDS, ROOT

SCALARS = ["0", "1", "-1", "2/3", "1/0", "", "Q"]
INTS = st.integers(-1, 4)
FIXTURES = {}


def _fixture(path):
    """The fixture's document, a strategy for small JSON values (scalars
    close to what a fixture holds, among them its declaration names) and one
    for scalar strings."""
    if path not in FIXTURES:
        with open(os.path.join(ROOT, path)) as fh:
            doc = json.load(fh)
        strings = st.sampled_from(SCALARS + sorted(doc))
        scalars = INTS | strings | st.sampled_from([0.5, float("inf")]) | st.booleans() | st.none()
        values = st.recursive(
            scalars, lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["kind", "field", "Fp", "fun"]), inner, max_size=2),
            max_leaves=4)
        FIXTURES[path] = doc, values, strings
    return FIXTURES[path]


def _mutate(data, doc, values, strings):
    """doc with one value, reached by a random walk from the root that mostly
    goes down to a leaf, replaced by a small value or deleted.  Half of the
    replacements have the type of the value they replace."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return
        key = keys[data.draw(st.integers(0, len(keys) - 1))]
        old = node[key]
        if isinstance(old, (dict, list)) and old and data.draw(st.integers(0, 4)) < 4:
            node = old
            continue
        if isinstance(node, dict) and data.draw(st.integers(0, 4)) == 4:
            del node[key]
            return
        like = INTS if type(old) is int else strings if isinstance(old, str) else values
        node[key] = data.draw(like if data.draw(st.booleans()) else values)
        return


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_holds_on_mutated_fixtures(tmp_path, data):
    _, command, _ = data.draw(st.sampled_from(COMMANDS))
    argv = command.split()
    doc, values, strings = _fixture(argv[1])
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc, values, strings)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    argv[1] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue())
    assert report["exit"] == code
    if code == 1:
        assert any(c["status"] == "fail" for c in report["checks"])
