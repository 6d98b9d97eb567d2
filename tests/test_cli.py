"""CLI behaviour: exit codes, witnesses, determinism, fixture suites."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from relspan import coalg, finset, jsonio
from relspan.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv)
    return code, json.loads(out)


def test_check_passes_on_valid_coalgebra_file_names_each_axiom():
    code, doc = run_json(["check", fx("coalgebras.json"), "--name", "k2"])
    assert code == 0
    assert [c["status"] for c in doc["checks"]] == ["pass"] * 3


def test_check_fails_with_witness_on_corrupted_delta():
    code, doc = run_json(["check", fx("coalgebras.json"), "--name", "k2_broken"])
    assert code == 1
    fails = [c for c in doc["checks"] if c["status"] == "fail"]
    assert fails and all("witness" in c for c in fails)


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, doc = run_json(["check", str(p)])
    assert code == 2
    assert "error" in doc


def test_unknown_kind_exits_2(tmp_path):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"x": {"kind": "mystery"}}))
    code, doc = run_json(["check", str(p)])
    assert code == 2
    assert "mystery" in doc["error"]


def test_usage_error_exits_2():
    import contextlib

    buf = io.StringIO()
    with redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(["coherence", fx("chains.json")])  # missing --shape
    assert code == 2


def test_output_deterministic_byte_identical():
    _, out1 = run(["pullback", fx("cospan_finset.json"), "--cospan", "cs", "--json"])
    _, out2 = run(["pullback", fx("cospan_finset.json"), "--cospan", "cs", "--json"])
    assert out1 == out2


def test_pullback_finset_reports_pairs():
    code, doc = run_json(["pullback", fx("cospan_finset.json"), "--cospan", "cs"])
    assert code == 0
    assert doc["result"]["apex"] == {"set": 3, "pairs": [[0, 0], [0, 2], [1, 1]]}


def test_pullback_coalg_with_cotensor_comparison():
    code, doc = run_json(
        ["pullback", fx("cospan_coalg.json"), "--cospan", "cs", "--compare-cotensor"]
    )
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert any(n.startswith("cotensor comparison") for n in names)
    assert doc["result"]["apex"]["dim"] == 3


def test_pullback_linearized_from_finset_cospan():
    code, doc = run_json(
        [
            "pullback",
            fx("cospan_finset.json"),
            "--cospan",
            "cs",
            "--instance",
            "coalg",
            "--field",
            "Fp:5",
        ]
    )
    assert code == 0
    assert doc["result"]["apex"]["dim"] == 3


def test_pullback_rejects_class_violating_cospan():
    code, doc = run_json(["pullback", fx("cospan_coalg.json"), "--cospan", "bad"])
    assert code == 1
    assert doc["checks"][0]["status"] == "fail"


def test_cotensor_command():
    code, doc = run_json(["cotensor", fx("cospan_coalg.json"), "--cospan", "cs"])
    assert code == 0
    assert doc["result"]["dim"] == 3


def test_coherence_triangle_and_pentagon():
    code, doc = run_json(
        ["coherence", fx("chains.json"), "--name", "tri", "--shape", "triangle"]
    )
    assert code == 0
    code, doc = run_json(
        [
            "coherence",
            fx("chains.json"),
            "--name",
            "pent",
            "--shape",
            "pentagon",
            "--instance",
            "coalg",
        ]
    )
    assert code == 0
    assert [c["status"] for c in doc["checks"]] == ["pass", "pass"]


def test_relcat_fixtures_pass_with_linearization():
    code, doc = run_json(["relcat", fx("relcats.json"), "--instance", "coalg"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert any("linearized" in n for n in names)
    assert any(n.endswith("composition table round-trip") for n in names)


def test_relcat_violations_each_fail_with_witness():
    code, doc = run_json(["relcat", fx("relcat_violations.json")])
    assert code == 1
    for name in ("bad_section", "bad_composition", "bad_unit_law", "bad_associativity"):
        fails = [
            c for c in doc["checks"] if c["name"].startswith(name) and c["status"] == "fail"
        ]
        assert fails, name
        assert all("witness" in c for c in fails)


def test_functor_pass_and_fail():
    code, _ = run_json(
        [
            "functor",
            fx("relcats.json"),
            "--src",
            "poset01",
            "--tgt",
            "discrete3",
            "--map",
            "collapse",
        ]
    )
    assert code == 0
    code, doc = run_json(
        ["functor", fx("relcats.json"), "--src", "z2", "--tgt", "z2", "--map", "bad_functor"]
    )
    assert code == 1
    assert any(
        "a∘i = i'∘b" in c["name"] and c["status"] == "fail" for c in doc["checks"]
    )


def test_monoid_command():
    code, _ = run_json(["monoid", fx("monoids.json"), "--name", "z2"])
    assert code == 0
    code, doc = run_json(["monoid", fx("monoids.json"), "--name", "bad_z2"])
    assert code == 1
    code, doc = run_json(["monoid", fx("monoids.json"), "--name", "kc2"])
    assert code == 0
    assert any("coalgebra map" in c["name"] for c in doc["checks"])


def test_check_whole_monoid_file_flags_only_the_bad_table():
    code, doc = run_json(["check", fx("monoids.json")])
    assert code == 1
    bad = [c for c in doc["checks"] if c["status"] == "fail"]
    assert bad and all(c["name"].startswith("bad_z2") for c in bad)


def test_missing_name_exits_2():
    code, doc = run_json(["check", fx("monoids.json"), "--name", "nope"])
    assert code == 2


def test_finset_object_and_fun_declarations(tmp_path):
    p = tmp_path / "sets.json"
    p.write_text(
        json.dumps(
            {
                "X": {"kind": "finset_obj", "set": 3},
                "f": {"kind": "finset_fun", "fun": {"dom": 3, "cod": 2, "table": [0, 1, 1]}},
            }
        )
    )
    code, doc = run_json(["check", str(p)])
    assert code == 0
    assert len(doc["checks"]) == 2


def run_no_traceback(argv):
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("entry", ["1/0", "2/0"])
@pytest.mark.parametrize("field", ["Q", {"Fp": 5}])
def test_zero_denominator_entry_exits_2(tmp_path, entry, field):
    one = {"field": field, "rows": 1, "cols": 1, "entries": [[entry]]}
    p = tmp_path / "zero_den.json"
    p.write_text(json.dumps({"k": {"kind": "coalgebra", "field": field, "dim": 1,
                                   "delta": one, "epsilon": one}}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert "error" in doc


@pytest.mark.parametrize("flag", ["Fp:4", "Fp:1", "Fp:abc", "Fp:", "Fp:3317044064679887385961981"])
def test_bad_field_flag_exits_2(flag):
    code, doc = run_no_traceback(
        ["pullback", fx("cospan_finset.json"), "--cospan", "cs", "--instance", "coalg",
         "--field", flag]
    )
    assert code == 2 and doc["exit"] == 2
    assert "error" in doc


def test_bad_field_in_fixture_exits_2(tmp_path):
    one = {"field": {"Fp": 4}, "rows": 1, "cols": 1, "entries": [["1"]]}
    p = tmp_path / "f4.json"
    p.write_text(json.dumps({"k": {"kind": "coalgebra", "field": {"Fp": 4}, "dim": 1,
                                   "delta": one, "epsilon": one}}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2


def test_large_prime_field_flag_runs():
    code, doc = run_no_traceback(
        ["pullback", fx("cospan_finset.json"), "--cospan", "cs", "--instance", "coalg",
         "--field", "Fp:2305843009213693951"]
    )
    assert code == 0
    assert doc["result"]["apex"]["dim"] == 3


def _cospan_fixture(tmp_path, left, right):
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    p = tmp_path / "legs.json"
    p.write_text(json.dumps({
        "A": {"kind": "coalgebra", "field": "Q", "dim": 1, "delta": one, "epsilon": one},
        "X": {"kind": "finset_obj", "set": 1},
        "f": {"kind": "finset_fun", "fun": {"dom": 1, "cod": 1, "table": [0]}},
        "m": {"kind": "coalgebra_map", "src": "A", "tgt": "A", "matrix": one},
        "cs": {"kind": "cospan", "left": left, "right": right},
    }))
    return str(p)


@pytest.mark.parametrize("legs", [("f", "m"), ("m", "f"), ("A", "A"), ("m", "A"), ("X", "f")])
@pytest.mark.parametrize("command", ["check", "pullback", "cotensor"])
def test_cospan_legs_of_different_instances_or_not_morphisms_exit_2(tmp_path, legs, command):
    path = _cospan_fixture(tmp_path, *legs)
    argv = [command, path, "--name" if command == "check" else "--cospan", "cs"]
    code, doc = run_no_traceback(argv)
    assert code == 2 and doc["exit"] == 2
    assert "cospan" in doc["error"]


def test_cospan_legs_of_one_instance_are_accepted(tmp_path):
    for legs in (("f", "f"), ("m", "m")):
        code, doc = run_no_traceback(["check", _cospan_fixture(tmp_path, *legs), "--name", "cs"])
        assert code == 0 and [c["name"] for c in doc["checks"]] == ["cs: legs in class"]


@pytest.mark.parametrize("entry", ["1e2000000", "1E5", "2.5e-3"])
def test_rational_exponent_entry_exits_2(tmp_path, entry):
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    odd = {"field": "Q", "rows": 1, "cols": 1, "entries": [[entry]]}
    p = tmp_path / "exponent.json"
    p.write_text(json.dumps({"k": {"kind": "coalgebra", "field": "Q", "dim": 1,
                                   "delta": one, "epsilon": odd}}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert "exponent" in doc["error"]


def _maps_after_cospan_fixture(tmp_path, left="m", src="A"):
    """A cospan declared before the coalgebra maps it names."""
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    p = tmp_path / "order.json"
    p.write_text(json.dumps({
        "cs": {"kind": "cospan", "left": left, "right": "m2"},
        "m": {"kind": "coalgebra_map", "src": src, "tgt": "A", "matrix": one},
        "m2": {"kind": "coalgebra_map", "src": "A", "tgt": "A", "matrix": one},
        "A": {"kind": "coalgebra", "field": "Q", "dim": 1, "delta": one, "epsilon": one},
    }))
    return str(p)


def test_cospan_declared_before_its_maps_loads(tmp_path):
    path = _maps_after_cospan_fixture(tmp_path)
    code, doc = run_no_traceback(["check", path])
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == [
        "cs: legs in class",
        "m: comultiplication intertwined", "m: counit preserved",
        "m2: comultiplication intertwined", "m2: counit preserved",
        "A: coassociativity", "A: left counit law", "A: right counit law",
    ]
    code, doc = run_no_traceback(["pullback", path, "--cospan", "cs"])
    assert code == 0 and doc["result"]["apex"]["dim"] == 1


@pytest.mark.parametrize("field", ["left", "src"])
def test_reference_to_undeclared_name_exits_2_naming_it(tmp_path, field):
    path = _maps_after_cospan_fixture(tmp_path, **{field: "nowhere"})
    code, doc = run_no_traceback(["check", path])
    assert code == 2 and doc["exit"] == 2
    assert "'nowhere'" in doc["error"] and "not declared" in doc["error"]


def test_coalgebra_map_between_non_coalgebras_exits_2(tmp_path):
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    p = tmp_path / "src_kind.json"
    p.write_text(json.dumps({
        "X": {"kind": "finset_obj", "set": 1},
        "m": {"kind": "coalgebra_map", "src": "X", "tgt": "X", "matrix": one},
    }))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert "'X' is a finset_obj" in doc["error"]


@pytest.mark.parametrize("change", [{"b": None}, {"a": ["x"]}, {"b": 3}])
def test_malformed_functor_tables_exit_2(tmp_path, change):
    with open(fx("relcats.json")) as fh:
        doc = json.load(fh)
    functor = {k: v for k, v in {**doc["collapse"], **change}.items() if v is not None}
    doc["collapse"] = functor
    p = tmp_path / "functor.json"
    p.write_text(json.dumps(doc))
    code, doc = run_no_traceback(
        ["functor", str(p), "--src", "poset01", "--tgt", "discrete3", "--map", "collapse"])
    assert code == 2 and doc["exit"] == 2
    assert "'collapse'" in doc["error"]


@pytest.mark.parametrize("kind", [[[1]], {}])
def test_non_string_kind_exits_2(tmp_path, kind):
    p = tmp_path / "kind.json"
    p.write_text(json.dumps({"x": {"kind": kind}}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"].startswith("declaration 'x' has unknown kind")


@pytest.mark.parametrize("where", ["set", "rows"])
def test_infinite_number_exits_2(tmp_path, where):
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    k = {"kind": "coalgebra", "field": "Q", "dim": 1, "delta": one, "epsilon": one}
    doc = {"X": {"kind": "finset_obj", "set": 1}, "k": k}
    if where == "set":
        doc["X"]["set"] = float("inf")
    else:
        k["delta"] = {**one, "rows": float("inf")}
    p = tmp_path / "inf.json"
    p.write_text(json.dumps(doc))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert "infinity" in doc["error"]


HUGE = 10**9


def _bad_header_fixture(tmp_path, where):
    """Declarations whose named matrix has a 0 x 10^9 header and no entries."""
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    empty = {"field": "Q", "rows": 0, "cols": HUGE, "entries": []}
    k = {"kind": "coalgebra", "field": "Q", "dim": 1, "delta": one, "epsilon": one}
    doc = {
        "k": {**k, **({where: empty} if where in ("delta", "epsilon") else {})},
        "m": {"kind": "coalgebra_map", "src": "k", "tgt": "k",
              "matrix": empty if where == "matrix" else one},
    }
    if where in ("m", "u"):
        doc["b"] = {**k, "kind": "bialgebra", "m": one, "u": one, where: empty}
    p = tmp_path / "header.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("where", ["delta", "epsilon", "matrix", "m", "u"])
def test_matrix_header_checked_before_it_is_built(tmp_path, where):
    code, doc = run_no_traceback(["check", _bad_header_fixture(tmp_path, where)])
    assert code == 2 and doc["exit"] == 2
    assert f"0 x {HUGE}" in doc["error"]


# Flags that no longer exist on a subcommand: one (subcommand, flag, value)
# per flag its command does not read.
DROPPED_FLAGS = [
    ("check", "--seed", "1"), ("check", "--field", "Fp:5"), ("check", "--instance", "coalg"),
    ("cotensor", "--seed", "1"), ("cotensor", "--instance", "coalg"),
    ("coherence", "--seed", "1"), ("relcat", "--seed", "1"),
    ("functor", "--seed", "1"), ("functor", "--field", "Fp:5"),
    ("functor", "--instance", "coalg"),
    ("monoid", "--seed", "1"), ("monoid", "--field", "Fp:5"), ("monoid", "--instance", "coalg"),
]

VALID_COMMANDS = {
    "check": ["check", fx("coalgebras.json"), "--name", "k2"],
    "cotensor": ["cotensor", fx("cospan_coalg.json"), "--cospan", "cs"],
    "coherence": ["coherence", fx("chains.json"), "--name", "tri", "--shape", "triangle"],
    "relcat": ["relcat", fx("relcats.json")],
    "functor": ["functor", fx("relcats.json"), "--src", "poset01", "--tgt", "discrete3",
                "--map", "collapse"],
    "monoid": ["monoid", fx("monoids.json"), "--name", "z2"],
}


def _usage_error(argv):
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, err.getvalue()


@pytest.mark.parametrize("command,flag,value", DROPPED_FLAGS)
def test_flag_a_command_does_not_read_exits_2(command, flag, value):
    assert _usage_error(VALID_COMMANDS[command])[0] == 0
    code, err = _usage_error(VALID_COMMANDS[command] + [flag, value])
    assert code == 2 and f"unrecognized arguments: {flag}" in err


def test_json_flag_goes_after_the_subcommand():
    code, out = run(VALID_COMMANDS["check"] + ["--json"])
    assert code == 0 and out.count("\n") == 1
    code, err = _usage_error(["--json"] + VALID_COMMANDS["check"])
    assert code == 2 and "unrecognized arguments: --json" in err


def _fresh_process(argv):
    """Exit code and stdout of `python -m relspan.cli argv` in a new interpreter."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "relspan.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=False)
    return proc.returncode, proc.stdout


def test_main_in_one_process_matches_fresh_processes():
    good = ["pullback", fx("cospan_finset.json"), "--cospan", "cs"]
    calls = [good, ["coherence", fx("chains.json")], good + ["--json"], good]
    in_process = []
    for argv in calls:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            in_process.append((main(argv), out.getvalue()))
    assert [code for code, _ in in_process] == [0, 2, 0, 0]
    assert in_process[3] == in_process[0] != in_process[2]
    assert in_process == [_fresh_process(argv) for argv in calls]
    assert build_parser() is build_parser()


NON_INTEGERS = {
    "float, string and bool in a function": {"kind": "finset_fun",
                                              "fun": {"dom": 2.9, "cod": "2", "table": [1.7, True]}},
    "bool table entry": {"kind": "finset_fun", "fun": {"dom": 2, "cod": 2, "table": [0, True]}},
    "integral float size": {"kind": "finset_obj", "set": 3.0},
    "string size": {"kind": "finset_obj", "set": "3"},
    "string table": {"kind": "finset_monoid", "size": 1, "table": "0", "unit": 0},
    "bool unit": {"kind": "finset_monoid", "size": 1, "table": [0], "unit": False},
    "float chain size": {"kind": "chain", "sizes": [1, 1.0, 1], "maps": [[0], [0]]},
    "float prime": {"kind": "coalgebra", "field": {"Fp": 5.0}, "dim": 0,
                    "delta": {"field": {"Fp": 5}, "rows": 0, "cols": 0, "entries": []},
                    "epsilon": {"field": {"Fp": 5}, "rows": 1, "cols": 0, "entries": [[]]}},
    "string matrix header": {"kind": "coalgebra", "field": "Q", "dim": 1,
                             "delta": {"field": "Q", "rows": "1", "cols": 1, "entries": [["1"]]},
                             "epsilon": {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}},
}


@pytest.mark.parametrize("decl", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
def test_sizes_indices_and_table_entries_must_be_json_integers(tmp_path, decl):
    p = tmp_path / "numbers.json"
    p.write_text(json.dumps({"x": decl}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"].startswith("bad ") and "expected " in doc["error"]


def _counting(monkeypatch, name):
    """The calls to coalg.<name> from here on, recorded as they happen."""
    calls, fn = [], getattr(coalg, name)
    monkeypatch.setattr(coalg, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_pullback_compare_cotensor_decides_class_S_three_times(monkeypatch):
    subs = _counting(monkeypatch, "_subcoalgebra")
    calls = _counting(monkeypatch, "class_S_witness")
    code, _ = run(["pullback", fx("cospan_coalg.json"), "--cospan", "cs", "--compare-cotensor"])
    assert code == 0
    assert len(calls) == 3  # the two legs, then the projection span of the filler
    assert len(subs) == 1  # the pullback's equalizer; the cotensor stays linear


def test_cotensor_command_decides_the_legs_once(monkeypatch):
    subs = _counting(monkeypatch, "_subcoalgebra")
    decisions = _counting(monkeypatch, "class_S_witness")
    code, doc = run_json(["cotensor", fx("cospan_coalg.json"), "--cospan", "cs"])
    assert code == 0 and any(c["name"].startswith("induced structure") for c in doc["checks"])
    assert len(subs) == 2  # the induced structure, then the pullback's equalizer
    assert len(decisions) == 2


def _bad_entry_fixture(tmp_path, entry):
    one = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
    p = tmp_path / "entry.json"
    p.write_text(json.dumps({"k": {"kind": "coalgebra", "field": "Q", "dim": 1,
                                   "delta": one, "epsilon": {**one, "entries": [[entry]]}}}))
    return str(p)


@pytest.mark.parametrize("entry", [0.1, 1e16, True, 7])
def test_matrix_entries_must_be_json_strings(tmp_path, entry):
    code, doc = run_no_traceback(["check", _bad_entry_fixture(tmp_path, entry)])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"].startswith("bad matrix: ") and "expected a string" in doc["error"]


@pytest.mark.parametrize("dim, entries", [(2, ["10", "01"]), (1, "1"), (1, {"1": 0})])
def test_matrix_grid_and_rows_must_be_json_arrays(tmp_path, dim, entries):
    def mat(rows, grid):
        return {"field": "Q", "rows": rows, "cols": dim, "entries": grid}

    delta = [["1" if r == x * dim + x else "0" for x in range(dim)] for r in range(dim * dim)]
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({
        "k": {"kind": "coalgebra", "field": "Q", "dim": dim,
              "delta": mat(dim * dim, delta), "epsilon": mat(1, [["1"] * dim])},
        "id": {"kind": "coalgebra_map", "src": "k", "tgt": "k", "matrix": mat(dim, entries)},
    }))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == "matrix entries must be a JSON array of JSON arrays"


def test_relative_category_d_length_is_checked_before_the_pullback(tmp_path, monkeypatch):
    def no_pullback(*args):
        raise AssertionError("the pullback of (s, t) was built before d was checked")

    monkeypatch.setattr(jsonio, "relative_pullback", no_pullback)
    # s⁻¹(0) = {0, 1}, t⁻¹(0) = {0}, s⁻¹(1) = {2}, t⁻¹(1) = {1, 2}: 2 + 2 pairs
    p = tmp_path / "rc.json"
    p.write_text(json.dumps({"rc": {"kind": "relative_category", "objects": 2, "arrows": 3,
                                    "s": [0, 0, 1], "t": [0, 1, 1], "i": [0, 2], "d": [0, 1, 2]}}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == "d table has 3 entries but the pullback has 4 pairs"


def test_error_document_is_one_line_under_json(tmp_path):
    code, out = run(["check", _bad_entry_fixture(tmp_path, True), "--json"])
    assert code == 2
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["exit"] == 2


def _large_sets_fixture(tmp_path):
    """The cospan 1 -> 10^6 <- 1 and the chain 0 -> 10^6 <- 0 of finite sets:
    a file of a few hundred bytes that would linearize a set of 10^6 elements."""
    big = 10**6
    p = tmp_path / "large.json"
    p.write_text(json.dumps({
        "f": {"kind": "finset_fun", "fun": {"dom": 1, "cod": big, "table": [0]}},
        "cs": {"kind": "cospan", "left": "f", "right": "f"},
        "ch": {"kind": "chain", "sizes": [0, big, 0], "maps": [[], []]},
    }))
    return str(p)


@pytest.mark.parametrize("command", [
    ["pullback", "--cospan", "cs", "--instance", "coalg"],
    ["cotensor", "--cospan", "cs"],
    ["coherence", "--name", "ch", "--shape", "triangle", "--instance", "coalg"],
])
def test_finite_set_too_large_to_linearize_exits_2_at_once(tmp_path, command):
    path = _large_sets_fixture(tmp_path)
    start = time.perf_counter()
    code, doc = run_no_traceback([command[0], path, *command[1:]])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == "a set of 1000000 elements is too large to linearize (at most 100000)"


def test_linearization_bound_is_inclusive_and_covers_relcat(monkeypatch):
    assert finset.MAX_LINEARIZED >= 10**5
    # relcats.json linearizes sets of at most 5 elements
    monkeypatch.setattr(finset, "MAX_LINEARIZED", 5)
    assert run_no_traceback(["relcat", fx("relcats.json"), "--instance", "coalg"])[0] == 0
    monkeypatch.setattr(finset, "MAX_LINEARIZED", 4)
    code, doc = run_no_traceback(["relcat", fx("relcats.json"), "--instance", "coalg"])
    assert code == 2 and "a set of 5 elements is too large" in doc["error"]


def _cyclic_group_category(n):
    return {"kind": "small_category", "objects": 1, "arrows": n, "src": [0] * n,
            "tgt": [0] * n, "id": [0],
            "comp": [[(i + j) % n for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("command", [
    ["check"], ["relcat"], ["relcat", "--instance", "coalg"],
])
def test_category_with_too_many_composable_triples_exits_2_at_once(tmp_path, command):
    assert jsonio.MAX_COMPOSABLE_TRIPLES == 250_000
    p = tmp_path / "c64.json"
    p.write_text(json.dumps({"c64": _cyclic_group_category(64)}))
    start = time.process_time()
    code, doc = run_no_traceback([command[0], str(p), *command[1:]])
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == ("a category with 262144 composable triples is too large to check"
                            " (at most 250000)")


def test_relative_category_triples_are_bounded_before_the_pullback(tmp_path, monkeypatch):
    def no_pullback(*args):
        raise AssertionError("the pullback of (s, t) was built before the triples were counted")

    monkeypatch.setattr(jsonio, "relative_pullback", no_pullback)
    monkeypatch.setattr(jsonio, "MAX_COMPOSABLE_TRIPLES", 63)
    # one object and four arrows: 4 composable pairs, 4³ = 64 composable triples
    p = tmp_path / "rc.json"
    p.write_text(json.dumps({"rc": {"kind": "relative_category", "objects": 1, "arrows": 4,
                                    "s": [0] * 4, "t": [0] * 4, "i": [0], "d": [0] * 16}}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and "64 composable triples is too large" in doc["error"]


def test_triple_bound_is_inclusive_and_counts_every_triple(monkeypatch):
    with open(fx("relcats.json")) as fh:
        cats = [d for d in json.load(fh).values() if d["kind"] == "small_category"]
    # the largest count, by brute force over every triple i∘j∘k
    largest = max(
        sum(c["src"][i] == c["tgt"][j] and c["src"][j] == c["tgt"][k]
            for i in range(c["arrows"]) for j in range(c["arrows"]) for k in range(c["arrows"]))
        for c in cats
    )
    monkeypatch.setattr(jsonio, "MAX_COMPOSABLE_TRIPLES", largest)
    assert run_no_traceback(["relcat", fx("relcats.json")])[0] == 0
    monkeypatch.setattr(jsonio, "MAX_COMPOSABLE_TRIPLES", largest - 1)
    code, doc = run_no_traceback(["relcat", fx("relcats.json")])
    assert code == 2 and f"with {largest} composable triples" in doc["error"]


def test_matrix_encoding_is_the_dense_grid_and_round_trips():
    from gen import FIELDS, rand_matrix, rng_for

    rng = rng_for("matrix-json")
    for field in FIELDS:
        for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 3), (2, 5)):
            m = rand_matrix(rng, field, rows, cols)
            enc = jsonio.matrix_to_json(m)
            assert enc["entries"] == [[str(x) for x in row] for row in m.data]
            assert jsonio.matrix_from_json(enc, rows, cols) == m


def _cells(encoded):
    return encoded["rows"] * encoded["cols"]


def test_matrix_too_large_to_encode_exits_2_at_once(tmp_path):
    # δ of the apex of 14 -> 1 <- 14, linearized, is a 196^2 x 196 grid
    p = tmp_path / "sets14.json"
    p.write_text(json.dumps({
        "f": {"kind": "finset_fun", "fun": {"dom": 14, "cod": 1, "table": [0] * 14}},
        "cs": {"kind": "cospan", "left": "f", "right": "f"},
    }))
    start = time.perf_counter()
    code, doc = run_no_traceback(["pullback", str(p), "--cospan", "cs", "--instance", "coalg"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == "a 38416 x 196 matrix is too large to encode (at most 1000000 cells)"


def test_encoding_bound_is_inclusive(monkeypatch):
    assert jsonio.MAX_ENCODED_CELLS == 10**6
    argv = ["pullback", fx("cospan_coalg.json"), "--cospan", "cs"]
    code, doc = run_json(argv)
    assert code == 0
    res = doc["result"]
    largest = max(_cells(res["apex"]["delta"]), _cells(res["p_a"]), _cells(res["p_c"]))
    monkeypatch.setattr(jsonio, "MAX_ENCODED_CELLS", largest)
    assert run_no_traceback(argv)[0] == 0
    monkeypatch.setattr(jsonio, "MAX_ENCODED_CELLS", largest - 1)
    code, doc = run_no_traceback(argv)
    assert code == 2 and "too large to encode" in doc["error"]


def test_empty_finset_monoid_has_no_unit_and_exits_2(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"e": {"kind": "finset_monoid", "size": 0, "table": [], "unit": 7}}))
    code, doc = run_no_traceback(["monoid", str(p), "--name", "e"])
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == "unit element outside the carrier"
