"""Byte-identical CLI contract: the README and benchmark fixture commands,
pullbacks and cotensors of the dense-basis, divided-power and block
cospans and the cotensor of a cospan with legs outside S, each against its
recorded stdout and exit code.

The outputs echo argv, so every command runs from the repository root with
relative paths.  A golden file changes only with a deliberate change of the
CLI output.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from relspan.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (golden file, command, exit code)
COMMANDS = (
    ("check_coalgebras", "check fixtures/coalgebras.json", 1),
    ("pullback_coalg_compare", "pullback fixtures/cospan_coalg.json --cospan cs --compare-cotensor", 0),
    ("pullback_dense_compare",
     "pullback fixtures/cospan_dense.json --cospan cs --instance coalg --compare-cotensor", 0),
    ("pullback_divided_compare",
     "pullback fixtures/cospan_divided.json --cospan cs --instance coalg --compare-cotensor", 0),
    ("pullback_blocks_compare",
     "pullback fixtures/cospan_blocks.json --cospan cs --instance coalg --compare-cotensor", 0),
    ("pullback_finset_linearized",
     "pullback fixtures/cospan_finset.json --cospan cs --instance coalg --field Fp:5", 0),
    ("cotensor_coalg", "cotensor fixtures/cospan_coalg.json --cospan cs", 0),
    ("cotensor_coalg_bad", "cotensor fixtures/cospan_coalg.json --cospan bad", 0),
    ("cotensor_dense", "cotensor fixtures/cospan_dense.json --cospan cs", 0),
    ("cotensor_divided", "cotensor fixtures/cospan_divided.json --cospan cs", 0),
    ("cotensor_blocks", "cotensor fixtures/cospan_blocks.json --cospan cs", 0),
    ("coherence_pentagon",
     "coherence fixtures/chains.json --name pent --shape pentagon --instance coalg", 0),
    ("relcat_coalg", "relcat fixtures/relcats.json --instance coalg", 0),
    ("functor_collapse", "functor fixtures/relcats.json --src poset01 --tgt discrete3 --map collapse", 0),
    ("monoid_kc2", "monoid fixtures/monoids.json --name kc2", 0),
    ("relcat_violations", "relcat fixtures/relcat_violations.json", 1),
    ("monoid_bad_z2", "monoid fixtures/monoids.json --name bad_z2", 1),
    ("functor_bad", "functor fixtures/relcats.json --src poset01 --tgt discrete3 --map bad_functor", 2),
)


@pytest.mark.parametrize("golden,command,code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_matches_golden(monkeypatch, golden, command, code):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        got = main(command.split())
    with open(os.path.join(GOLDEN, f"{golden}.out")) as fh:
        expected = fh.read()
    assert got == code
    assert out.getvalue() == expected
