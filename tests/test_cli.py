"""CLI behaviour: exit codes, witnesses, determinism, fixture suites."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from gen import dense, rand_finfun, rng_for
from relspan import GF, QQ, cli, coalg, finset, jsonio, linalg
from relspan.cli import build_parser, main
from relspan.errors import RelspanError

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


@pytest.mark.parametrize("content", [
    b"[" * 10**5,
    pytest.param(b'{"a": ' + b"9" * 5000 + b"}", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-conversion limit")),
    b'{"a": "\xff"}',
], ids=["nested-past-the-recursion-limit", "integer-past-the-conversion-limit", "not-utf-8"])
def test_undecodable_file_exits_2_naming_it(tmp_path, content):
    p = tmp_path / "undecodable.json"
    p.write_bytes(content)
    code, doc = run_no_traceback(["check", str(p), "--json"])
    assert code == 2 and doc["error"].startswith(f"cannot read {p}: ")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_file_exits_2_after_the_byte_bound():
    code, doc = run_no_traceback(["check", "/dev/zero", "--json"])
    assert code == 2
    assert doc["error"] == f"cannot read /dev/zero: the file is longer than {jsonio.MAX_FILE_BYTES} bytes"


def test_file_opening_too_many_arrays_and_objects_exits_2_before_decoding(tmp_path, monkeypatch):
    """Every "[" and "{" byte counts, in strings too: an upper bound on the
    containers json.loads would build, read before it runs."""
    p = tmp_path / "containers.json"
    p.write_text(json.dumps({"x": {"kind": "finset_obj", "set": 2}, "y": {"kind": "functor", "b": [], "a": []}}))
    monkeypatch.setattr(jsonio, "MAX_FILE_CONTAINERS", 5)
    assert run_no_traceback(["check", str(p)])[0] == 0
    monkeypatch.setattr(jsonio, "MAX_FILE_CONTAINERS", 4)
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["error"] == f"cannot read {p}: the file opens more than 4 JSON arrays and objects"
    monkeypatch.undo()
    p.write_text('{"a": [' + "[]," * (jsonio.MAX_FILE_CONTAINERS - 2) + "[]]}")
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["error"].startswith(f"cannot read {p}: the file opens more than ")
    p.write_text(json.dumps({"x": {"kind": "finset_obj", "set": 2, "note": "[{" * jsonio.MAX_FILE_CONTAINERS}}))
    assert run_no_traceback(["check", str(p)])[0] == 2


@pytest.mark.parametrize("bound", [8, 2**16 - 1, 2**16, 2**16 + 8])
def test_byte_bound_is_inclusive(tmp_path, monkeypatch, bound):
    monkeypatch.setattr(jsonio, "MAX_FILE_BYTES", bound)
    p = tmp_path / "bound.json"
    p.write_text("{}" + " " * (bound - 2))
    assert run_no_traceback(["check", str(p)])[0] == 0
    p.write_text("{}" + " " * (bound - 1))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["error"] == f"cannot read {p}: the file is longer than {bound} bytes"


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


# commands whose every coalgebra pullback is of a linearized (group-like) cospan
LINEARIZED = [
    ["coherence", "chains.json", "--name", "pent", "--shape", "pentagon"],
    *(["relcat", "relcats.json", "--name", name]
      for name in ("discrete3", "poset01", "z2", "groupoid5")),
]


@pytest.mark.parametrize("argv", LINEARIZED)
def test_linearized_commands_solve_no_equalizer_system(monkeypatch, argv):
    """Every coalgebra pullback of these commands is of a group-like cospan,
    each iterated apex staying group-like, so each is read off its matching
    pairs (coalg._grouplike_pullback) and none solves a system."""
    solves, pairs = [], []
    solve_in, pairs_in = coalg._equalizer, coalg._grouplike_pullback
    monkeypatch.setattr(coalg, "_equalizer", lambda *a: solves.append(a) or solve_in(*a))
    monkeypatch.setattr(coalg, "_grouplike_pullback", lambda *a: pairs.append(pairs_in(*a)) or pairs[-1])
    code, _ = run([argv[0], fx(argv[1]), *argv[2:], "--instance", "coalg"])
    assert code == 0
    assert pairs and None not in pairs and not solves


@pytest.mark.parametrize("argv", LINEARIZED)
def test_linearized_commands_take_only_the_unit_kron_apply_path(monkeypatch, argv):
    """Every kron_apply of these commands has unit-column operands, so each
    returns through the index map, its result carrying its row table, or
    returns M as it is for two square identity factors, before any test.
    Their pullbacks and fillers are read off row tables with no kron_apply
    (coalg._grouplike_pullback, coalg._grouplike_filler), so what is left is
    each pullback's certificate (p_A⊗p_C)∘δ_E = j, on the two identities z_A
    and l_C: one identity path per pullback."""
    paths = []
    inner = linalg.kron_apply
    pullbacks = _counting(monkeypatch, "relative_pullback_coalg")
    fillers = _counting(monkeypatch, "_grouplike_filler")

    def spy(a, b, m):
        out = inner(a, b, m)
        if linalg._is_identity(a) and linalg._is_identity(b):
            paths.append("identity" if out is m and linalg._unit_rows(m) is not False else "general")
        else:
            paths.append("unit" if isinstance(out._units, list) else "general")
        return out

    monkeypatch.setattr(coalg, "kron_apply", spy)
    monkeypatch.setattr(linalg, "kron_apply", spy)
    code, _ = run([argv[0], fx(argv[1]), *argv[2:], "--instance", "coalg"])
    assert code == 0
    assert pullbacks and paths == ["identity"] * len(pullbacks)
    assert fillers and None not in [h for _, h in fillers]


def _spy_cotensor_routes(monkeypatch):
    """The route of each cotensor kernel: "index lists" for a
    coalg._difference_kernel call that read it off the two index lists,
    "built" for one that did not, and the name of each call to
    coalg._kron_difference or coalg.kernel_basis_sparse."""
    calls = []

    def spy(name, fn):
        def call(*args):
            out = fn(*args)
            calls.append(("built" if out is None else "index lists") if name == "_difference_kernel" else name)
            return out
        monkeypatch.setattr(coalg, name, call)

    for name in ("_difference_kernel", "_kron_difference", "kernel_basis_sparse"):
        spy(name, getattr(coalg, name))
    return calls


@pytest.mark.parametrize("argv", [
    ["cotensor", "--cospan", "cs"],
    ["pullback", "--cospan", "cs", "--instance", "coalg", "--compare-cotensor"],
])
def test_linearized_cotensor_reads_its_kernel_off_two_index_lists(monkeypatch, argv):
    """The cotensor of a linearized finite-set cospan, alone or as the
    pullback's comparison, reads its kernel off the two index lists of its
    system and builds no system: no call to _kron_difference or to
    kernel_basis_sparse, from the cotensor or from the pullback."""
    calls = _spy_cotensor_routes(monkeypatch)
    code, _ = run([argv[0], fx("cospan_finset.json"), *argv[1:]])
    assert code == 0
    assert calls == ["index lists"]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_grouplike_cotensor_comparison_reads_its_kernel_off_two_index_lists(monkeypatch, field):
    """compare_cotensor_pullback on linearized cospans A -> B <- C, as a
    group-like benchmark job builds them, reads its cotensor's kernel off
    the two index lists of the system and builds no system; the pullback
    itself takes no kernel."""
    calls = _spy_cotensor_routes(monkeypatch)
    rng = rng_for(f"grouplike-compare-{field!r}")
    for _ in range(10):
        nb = rng.randint(1, 3)
        f, g = finset.linearize_funs([rand_finfun(rng, rng.randint(1, 5), nb) for _ in range(2)], field)
        assert coalg.compare_cotensor_pullback(f, g).ok
    assert calls == ["index lists"] * 10


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


@pytest.mark.parametrize("prime", [2**61 - 1, 2**64 + 13])
def test_check_decides_coassociativity_over_a_prime_wider_than_a_slot(tmp_path, prime):
    """Over a prime of 61 or 65 bits, which no 64-bit slot holds,
    coassociativity is decided through the built products: δ e0 = e0⊗e0
    passes with exit 0, and δ e0 = e1⊗e0, δ e1 = e0⊗e0, whose sides at e0
    are e0⊗e0⊗e0 and e1⊗e1⊗e0, fails at basis 0 with exit 1."""
    field = {"Fp": prime}

    def grid(rows):
        return {"field": field, "rows": len(rows), "cols": len(rows[0]),
                "entries": [[str(x) for x in row] for row in rows]}

    for delta, exit_code, check in (([[1]], 0, {"status": "pass"}),
                                    ([[0, 1], [0, 0], [1, 0], [0, 0]], 1, {"status": "fail", "witness": "basis 0"})):
        p = tmp_path / f"wide{exit_code}.json"
        p.write_text(json.dumps({"k": {"kind": "coalgebra", "field": field, "dim": len(delta[0]),
                                       "delta": grid(delta), "epsilon": grid([[1] * len(delta[0])])}}))
        code, doc = run_no_traceback(["check", str(p)])
        assert code == exit_code
        assert {"name": "k: coassociativity", **check} in doc["checks"]


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


def _counting(monkeypatch, name, calls=None):
    """The calls to coalg.<name> from here on, as (args, result), recorded
    as they return, into calls when it is given, else into a new list."""
    calls, fn = [] if calls is None else calls, getattr(coalg, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(coalg, name, spy)
    return calls


def test_pullback_compare_cotensor_decides_class_S_three_times(monkeypatch):
    checks = _counting(monkeypatch, "_subcoalgebra")
    builds = _counting(monkeypatch, "_grouplike_pullback")
    calls = _counting(monkeypatch, "class_S_witness")
    code, _ = run(["pullback", fx("cospan_coalg.json"), "--cospan", "cs", "--compare-cotensor"])
    assert code == 0
    assert len(calls) == 3  # the two legs, then the projection span of the filler
    # no closure check: the pullback is k of its matching pairs as it is
    # built; the cotensor stays linear
    assert len(builds) == 1 and builds[0][1] is not None and not checks


def test_cotensor_command_decides_the_legs_once(monkeypatch):
    calls = []
    for name in ("_subcoalgebra", "_grouplike_pullback", "cotensor"):
        _counting(monkeypatch, name, calls)
    decisions = _counting(monkeypatch, "class_S_witness")
    checked = _counting(monkeypatch, "check_coalgebra")
    code, doc = run_json(["cotensor", fx("cospan_coalg.json"), "--cospan", "cs"])
    assert code == 0 and any(c["name"].startswith("induced structure") for c in doc["checks"])
    # the pullback first, read off its matching pairs with no closure check,
    # then the cotensor, which solves its own system; its basis is the
    # pullback's j, so the pullback's payload is the induced structure, with
    # no closure check
    assert len(calls) == 2 and isinstance(calls[0][1][0], coalg.CoalgEqualizer)
    assert isinstance(calls[1][1], linalg.Matrix)
    eq, ct = calls[0][1][0], calls[1][1]
    assert ct == eq.j.mat
    assert len(checked) == 1 and checked[0][0][0] is eq.object
    assert len(decisions) == 2


def test_cotensor_command_refuses_an_unclosed_cotensor_basis_with_exit_2(tmp_path, monkeypatch):
    """On counital A = k[2] and C over F_3 with legs in S, C not
    coassociative, the pullback's closure check on K' = ker T fails, so its
    j is K'∘N, one column, while the cotensor basis is K', two columns.  The
    command then takes its subcoalgebra(A⊗C, ct) branch, whose closure check
    fails as well: exit 2, with no traceback.  On counital input this is the
    only way the two bases differ."""
    def grid(rows):
        return {"field": {"Fp": 3}, "rows": len(rows), "cols": len(rows[0]),
                "entries": [[str(x) for x in row] for row in rows]}

    def coalgebra(delta, eps):
        return {"kind": "coalgebra", "field": {"Fp": 3}, "dim": len(eps[0]), "delta": grid(delta),
                "epsilon": grid(eps)}

    k2 = coalgebra([[1, 0], [0, 0], [0, 0], [0, 1]], [[1, 1]])
    p = tmp_path / "unclosed.json"
    p.write_text(json.dumps({
        "A": k2, "B": k2,
        "C": coalgebra([[0, 0, 0], [2, 0, 0], [2, 0, 0], [2, 0, 0], [0, 1, 0], [1, 0, 0], [2, 0, 0],
                        [1, 0, 0], [0, 0, 1]], [[1, 1, 1]]),
        "f": {"kind": "coalgebra_map", "src": "A", "tgt": "B", "matrix": grid([[0, 0], [0, 1]])},
        "g": {"kind": "coalgebra_map", "src": "C", "tgt": "B", "matrix": grid([[0, 0, 0], [0, 2, 0]])},
        "cs": {"kind": "cospan", "left": "f", "right": "g"},
    }))
    code, doc = run_no_traceback(["check", str(p)])
    laws = {c["name"]: c["status"] for c in doc["checks"]}
    assert code == 1 and laws["C: coassociativity"] == "fail"
    assert all(laws[f"{x}: {law} counit law"] == "pass" for x in "AC" for law in ("left", "right"))
    subs, sub_in = [], coalg.subcoalgebra
    monkeypatch.setattr(coalg, "subcoalgebra", lambda x, k: subs.append(k) or sub_in(x, k))
    cotensors = _counting(monkeypatch, "cotensor")
    pullbacks = _counting(monkeypatch, "_pullback_equalizer")
    code, doc = run_no_traceback(["cotensor", str(p), "--cospan", "cs"])
    assert code == 2 and doc == {"command": ["cotensor", str(p), "--cospan", "cs"],
                                 "error": "δ∘j does not factor through j⊗j", "exit": 2}
    ((_, ct),), ((_, (eq, _, _)),) = cotensors, pullbacks
    assert (ct.cols, eq.j.mat.cols) == (2, 1) and subs == [ct]


def _planted_cospan_coalg(tmp_path):
    """cospan_coalg.json with A's ε planted as (1, 2, 1): A then fails both
    counit laws at basis 1, and its legs stay in S."""
    with open(fx("cospan_coalg.json")) as fh:
        doc = json.load(fh)
    doc["A"]["epsilon"]["entries"] = [["1", "2", "1"]]
    p = tmp_path / "planted.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.mark.parametrize("argv", [
    ["pullback", "--cospan", "cs"],
    ["pullback", "--cospan", "cs", "--compare-cotensor"],
    ["cotensor", "--cospan", "cs"],
], ids=["pullback", "compare", "cotensor"])
def test_a_cospan_out_of_a_coalgebra_that_is_not_counital_exits_2_naming_the_law(tmp_path, argv):
    """A relative pullback needs counital A and C: each command on the
    planted cospan prints one JSON document that names the failing law and
    its witness and exits 2, with no traceback, while check still reports
    both laws of A failing with exit 1."""
    path = _planted_cospan_coalg(tmp_path)
    code, doc = run_no_traceback(["check", path, "--name", "A"])
    assert code == 1 and [c for c in doc["checks"] if c["status"] == "fail"] == [
        {"name": f"A: {law} counit law", "status": "fail", "witness": "basis 1"} for law in ("left", "right")]
    command = [argv[0], path, *argv[1:]]
    code, doc = run_no_traceback(command)
    assert code == 2 and doc == {
        "command": command, "exit": 2,
        "error": "the left leg's domain is not counital: left counit law fails at basis 1"}


def _eliminations(monkeypatch):
    """The column counts of the systems linalg._reduce eliminates from here on,
    the pullback's kernel of t among them."""
    sizes, reduce_in = [], linalg._reduce
    spy = lambda fld, columns: sizes.append(len(columns)) or reduce_in(fld, columns)
    monkeypatch.setattr(linalg, "_reduce", spy)
    return sizes


@pytest.mark.parametrize("golden, command", [
    ("pullback_dense_compare",
     "pullback fixtures/cospan_dense.json --cospan cs --instance coalg --compare-cotensor"),
    ("cotensor_dense", "cotensor fixtures/cospan_dense.json --cospan cs"),
])
def test_the_cotensor_reads_the_pullbacks_elimination_of_an_equal_system(monkeypatch, golden, command):
    """On the dense counital cospan, whose cotensor system is the pullback's
    t, each command eliminates that system once, for the pullback's K', and
    prints its golden: the cotensor returns that kept K'."""
    sizes = _eliminations(monkeypatch)
    monkeypatch.chdir(os.path.dirname(FIXTURES))  # the output echoes argv
    code, out = run(command.split())
    assert code == 0 and sizes == [9]
    with open(os.path.join("tests", "golden", f"{golden}.out")) as fh:
        assert out == fh.read()


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
    assert doc["error"].startswith("bad declaration 'k': bad matrix: ")
    assert "expected a string" in doc["error"]


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
    assert doc["error"] == "bad declaration 'id': matrix entries must be a JSON array of JSON arrays"


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
    assert doc["error"] == "bad declaration 'rc': d table has 3 entries but the pullback has 4 pairs"


_ONE = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}


def test_a_refusal_in_a_nested_reference_names_its_declaration_once(tmp_path):
    k = {"kind": "coalgebra", "field": "Q", "dim": 1, "delta": _ONE}
    for fault, message in (({}, "missing field 'epsilon'"),
                           ({"epsilon": {**_ONE, "rows": 2}}, "matrix is 2 x 1, expected 1 x 1")):
        p = tmp_path / "nested.json"
        # cs is decoded first, so f and then k are decoded through its references
        p.write_text(json.dumps({
            "cs": {"kind": "cospan", "left": "f", "right": "f"},
            "f": {"kind": "coalgebra_map", "src": "k", "tgt": "k", "matrix": _ONE},
            "k": {**k, **fault},
        }))
        code, doc = run_no_traceback(["check", str(p)])
        assert code == 2 and doc["error"] == f"bad declaration 'k': {message}"


@pytest.mark.parametrize("decl, message", [
    ({"kind": "coalgebra", "field": "Q", "dim": 1, "delta": {**_ONE, "cols": 2}, "epsilon": _ONE},
     "matrix is 1 x 2, expected 1 x 1"),
    ({"kind": "finset_monoid", "size": 2, "table": [0, 1, 1], "unit": 0},
     "monoid table must have size^2 entries"),
    ({"kind": "chain", "sizes": [1, 1], "maps": [[0]]},
     "a chain needs an odd number (>= 3) of objects"),
    ({"kind": "chain", "sizes": [1, 1, 1], "maps": [[0]]},
     "a chain needs one map per adjacent pair"),
    ({"kind": "chain", "instance": "coalg", "sizes": [1, 1, 1], "maps": [[0], [0]]},
     "chains are declared over finset (linearize via --instance)"),
    ({"kind": "relative_category", "instance": "coalg"},
     "raw relative_category declarations are finset-only"),
    ({"kind": "chain", "sizes": [1, 1, 1], "maps": [[0], [0], [0]]},
     "a chain needs one map per adjacent pair"),
])
def test_every_refusal_a_decoder_raises_names_its_declaration(tmp_path, decl, message):
    p = tmp_path / "refused.json"
    p.write_text(json.dumps({"x": decl}))
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and doc["error"] == f"bad declaration 'x': {message}"


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
    declaration = "chain 'ch'" if command[0] == "coherence" else "cospan 'cs'"
    assert doc["error"] == (f"{declaration}: a set of 1000000 elements is too large to check"
                            " (at most 100000)")


def test_linearization_bound_is_inclusive_and_covers_relcat(monkeypatch):
    assert jsonio.MAX_LINEARIZED >= 10**5
    # relcats.json linearizes sets of at most 5 elements
    monkeypatch.setattr(jsonio, "MAX_LINEARIZED", 5)
    assert run_no_traceback(["relcat", fx("relcats.json"), "--instance", "coalg"])[0] == 0
    monkeypatch.setattr(jsonio, "MAX_LINEARIZED", 4)
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
    assert jsonio.MAX_PULLBACK_PAIRS == 250_000
    p = tmp_path / "c64.json"
    p.write_text(json.dumps({"c64": _cyclic_group_category(64)}))
    start = time.process_time()
    code, doc = run_no_traceback([command[0], str(p), *command[1:]])
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == ("bad declaration 'c64': a category with 262144 composable triples"
                            " is too large to check (at most 250000)")


def _cyclic_group_monoid(n):
    return {"kind": "finset_monoid", "size": n, "unit": 0,
            "table": [(i + j) % n for i in range(n) for j in range(n)]}


@pytest.mark.parametrize("command", [["check"], ["monoid"]])
def test_monoid_with_too_many_triples_exits_2_at_once(tmp_path, command):
    """A monoid is a one-object category, so its associativity check is
    bounded as a category's triples are: the cyclic group of order 63 has
    63³ = 250047 triples, the first order above the bound; unbounded, order
    240, a 262 KB file, took 4.5 s of CPU."""
    assert jsonio.MAX_PULLBACK_PAIRS == 250_000
    p = tmp_path / "z63.json"
    p.write_text(json.dumps({"z63": _cyclic_group_monoid(63)}))
    start = time.process_time()
    code, doc = run_no_traceback([command[0], str(p), *command[1:]])
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == ("bad declaration 'z63': a monoid with 250047 triples"
                            " is too large to check (at most 250000)")


def test_monoid_triple_bound_is_inclusive_and_refuses_before_the_table(tmp_path, monkeypatch):
    """At a bound of 27 the cyclic group of order 3 is checked and passes;
    order 4 is refused from its size alone, its table never read."""
    monkeypatch.setattr(jsonio, "MAX_PULLBACK_PAIRS", 27)
    p = tmp_path / "z.json"
    p.write_text(json.dumps({"z3": _cyclic_group_monoid(3),
                             "z4": {"kind": "finset_monoid", "size": 4, "table": "unread", "unit": 0}}))
    assert run_no_traceback(["monoid", str(p), "--name", "z3"])[0] == 0
    code, doc = run_no_traceback(["monoid", str(p), "--name", "z4"])
    assert code == 2 and doc["error"] == ("bad declaration 'z4': a monoid with 64 triples"
                                          " is too large to check (at most 27)")


def test_relative_category_triples_are_bounded_before_the_pullback(tmp_path, monkeypatch):
    def no_pullback(*args):
        raise AssertionError("the pullback of (s, t) was built before the triples were counted")

    monkeypatch.setattr(jsonio, "relative_pullback", no_pullback)
    monkeypatch.setattr(jsonio, "MAX_PULLBACK_PAIRS", 63)
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
    monkeypatch.setattr(jsonio, "MAX_PULLBACK_PAIRS", largest)
    assert run_no_traceback(["relcat", fx("relcats.json")])[0] == 0
    monkeypatch.setattr(jsonio, "MAX_PULLBACK_PAIRS", largest - 1)
    code, doc = run_no_traceback(["relcat", fx("relcats.json")])
    assert code == 2 and f"with {largest} composable triples" in doc["error"]


@pytest.mark.parametrize("n", [22, 40])
def test_linearized_category_too_large_for_its_tensor_product_exits_2_at_once(tmp_path, n):
    """The cyclic group of order n has n² composable pairs, so axiom (e)
    linearized runs an equalizer in n³ dimensions: order 22 is the first
    above the bound; unbounded, order 40, a 6 KB file, took 5.2 s of CPU and
    338 MB."""
    assert jsonio.MAX_EQUALIZER_DIM == 10_000
    p = tmp_path / f"c{n}.json"
    p.write_text(json.dumps({f"c{n}": _cyclic_group_category(n)}))
    start = time.process_time()
    code, doc = run_no_traceback(["relcat", str(p), "--instance", "coalg"])
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == (f"category 'c{n}': an equalizer in a tensor product of dimension"
                            f" {n ** 3} is too large to build (at most 10000)")


def test_linearized_category_bound_is_the_largest_pullback_it_builds(monkeypatch):
    """With the bound at the largest tensor product of a coalgebra pullback
    that relcat builds on relcats.json, it runs; one below, it exits 2,
    naming a category, before any coalgebra pullback."""
    argv = ["relcat", fx("relcats.json"), "--instance", "coalg"]
    _, dims = _spy_sizes(monkeypatch)
    assert run_no_traceback(argv)[0] == 0
    largest = max(dims)
    monkeypatch.setattr(jsonio, "MAX_EQUALIZER_DIM", largest)
    assert run_no_traceback(argv)[0] == 0
    monkeypatch.setattr(jsonio, "MAX_EQUALIZER_DIM", largest - 1)
    dims.clear()
    code, doc = run_no_traceback(argv)
    assert code == 2 and f"dimension {largest} is too large" in doc["error"]
    assert doc["error"].startswith("category '") and not dims


def test_matrix_encoding_is_the_dense_grid_and_round_trips():
    from gen import FIELDS, rand_matrix, rng_for

    rng = rng_for("matrix-json")
    for field in FIELDS:
        for rows, cols in ((0, 3), (3, 0), (1, 1), (4, 3), (2, 5)):
            m = rand_matrix(rng, field, rows, cols)
            enc = jsonio.matrix_to_json(m)
            assert enc["entries"] == [[str(x) for x in row] for row in dense(m)]
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
    assert doc["error"] == ("cospan 'cs': a 38416 x 196 matrix is too large to encode"
                            " (at most 1000000 cells)")


def _cospan_over_a_point(tmp_path, na, nc):
    p = tmp_path / f"sets{na}_{nc}.json"
    p.write_text(json.dumps({
        "f": {"kind": "finset_fun", "fun": {"dom": na, "cod": 1, "table": [0] * na}},
        "g": {"kind": "finset_fun", "fun": {"dom": nc, "cod": 1, "table": [0] * nc}},
        "cs": {"kind": "cospan", "left": "f", "right": "g"},
    }))
    return ["pullback", str(p), "--cospan", "cs", "--instance", "coalg", "--field", "Fp:5"]


def test_linearized_pullback_too_large_to_encode_exits_2_before_it_is_built(tmp_path):
    # 1000 -> 1 <- 1000: 10⁶ matching pairs, so the apex δ would be 10¹² x 10⁶;
    # the gate's pair bound refuses it before the encoding bound is checked
    argv = _cospan_over_a_point(tmp_path, 1000, 1000)
    start = time.process_time()
    code, doc = run_no_traceback(argv)
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == ("cospan 'cs': a pullback of 1000000 matching pairs is too large"
                            " to build (at most 250000)")


@pytest.mark.parametrize("na, nc, refused", [(10, 10, False), (101, 1, True), (11, 10, True)])
def test_linearized_apex_bound_is_the_encoding_bound(tmp_path, monkeypatch, na, nc, refused):
    """d matching pairs give a d² x d apex δ: d = 100 is exactly 10⁶ cells and
    goes on to the pullback, d = 101 and d = 110 are refused before it."""
    def no_pullback(*args):
        raise AssertionError("the pullback was reached")

    monkeypatch.setattr(cli, "relative_pullback", no_pullback)
    argv = _cospan_over_a_point(tmp_path, na, nc)
    if not refused:
        with pytest.raises(AssertionError, match="the pullback was reached"):
            main(argv)
        return
    code, doc = run_no_traceback(argv)
    d = na * nc
    assert code == 2 and doc["error"] == (f"cospan 'cs': a {d * d} x {d} matrix is too large"
                                          " to encode (at most 1000000 cells)")


@pytest.mark.parametrize("na, nc, refused", [(40, 40, True), (10, 100, False)])
def test_cotensor_too_large_to_encode_exits_2_before_it_is_computed(tmp_path, monkeypatch, na, nc,
                                                                     refused):
    """The cotensor of na -> 1 <- nc is written as its na·nc x na·nc inclusion
    in A⊗C: 40 -> 1 <- 40 is 1600², refused under the cospan's name before
    the cotensor is computed; 10 -> 1 <- 100 is exactly 10⁶ cells and runs."""
    calls, cotensor = [], coalg.cotensor
    monkeypatch.setattr(coalg, "cotensor", lambda *args: calls.append(args) or cotensor(*args))
    argv = ["cotensor", *_cospan_over_a_point(tmp_path, na, nc)[1:4]]
    start = time.process_time()
    code, doc = run_no_traceback(argv)
    if not refused:
        assert code == 0 and doc["result"]["dim"] == na * nc and calls
        return
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2 and not calls
    assert doc["error"] == ("cospan 'cs': a 1600 x 1600 matrix is too large to encode"
                            " (at most 1000000 cells)")


def test_finite_set_pullback_too_large_exits_2_before_it_is_built(tmp_path, monkeypatch):
    """1000 -> 1 <- 1000 has 10⁶ matching pairs, four times the bound: it is
    refused from the count, naming the cospan, before the pullback."""
    assert jsonio.MAX_PULLBACK_PAIRS == 250_000

    def no_pullback(*args):
        raise AssertionError("the pullback was built before the pairs were counted")

    monkeypatch.setattr(cli, "relative_pullback", no_pullback)
    argv = _cospan_over_a_point(tmp_path, 1000, 1000)[:4]
    start = time.process_time()
    code, doc = run_no_traceback(argv)
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == ("cospan 'cs': a pullback of 1000000 matching pairs is too large"
                            " to build (at most 250000)")


def test_finite_set_pullback_bound_is_inclusive(tmp_path, monkeypatch):
    """A cospan with exactly the bound's pairs, 6 -> 1 <- 4 at a bound of 24,
    is built and checked; one more pair exits 2."""
    monkeypatch.setattr(jsonio, "MAX_PULLBACK_PAIRS", 24)
    code, doc = run_no_traceback(_cospan_over_a_point(tmp_path, 6, 4)[:4])
    assert code == 0 and doc["result"]["apex"]["set"] == 24
    code, doc = run_no_traceback(_cospan_over_a_point(tmp_path, 5, 5)[:4])
    assert code == 2 and "a pullback of 25 matching pairs is too large" in doc["error"]


def _disjoint_cospan(tmp_path, n):
    """f: n -> 2 <- n :g with disjoint images: no matching pair, and a tensor
    product A⊗C of n² dimensions."""
    p = tmp_path / f"disjoint{n}.json"
    p.write_text(json.dumps({
        "f": {"kind": "finset_fun", "fun": {"dom": n, "cod": 2, "table": [0] * n}},
        "g": {"kind": "finset_fun", "fun": {"dom": n, "cod": 2, "table": [1] * n}},
        "cs": {"kind": "cospan", "left": "f", "right": "g"},
    }))
    return str(p)


_LINEARIZED_COSPAN_COMMANDS = [["pullback", "--cospan", "cs", "--instance", "coalg"],
                               ["cotensor", "--cospan", "cs"]]


@pytest.mark.parametrize("n", [1000, 300])
@pytest.mark.parametrize("command", _LINEARIZED_COSPAN_COMMANDS, ids=["pullback", "cotensor"])
def test_linearized_cospan_too_large_for_its_tensor_product_exits_2_at_once(tmp_path, command, n):
    """A cospan is the chain A -> B <- C: its equalizer runs in A⊗C, bounded
    as a chain's is; unbounded, the n = 1000 pullback took 7.6 s of CPU and
    1.18 GB, and the cotensor more."""
    assert jsonio.MAX_EQUALIZER_DIM == 10_000
    argv = [command[0], _disjoint_cospan(tmp_path, n), *command[1:]]
    start = time.process_time()
    code, doc = run_no_traceback(argv)
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == (f"cospan 'cs': an equalizer in a tensor product of dimension {n * n}"
                            " is too large to build (at most 10000)")


@pytest.mark.parametrize("command", _LINEARIZED_COSPAN_COMMANDS, ids=["pullback", "cotensor"])
def test_linearized_cospan_at_the_equalizer_bound_still_runs(tmp_path, command):
    """100 -> 2 <- 100: A⊗C has exactly 10⁴ dimensions."""
    code, doc = run_no_traceback([command[0], _disjoint_cospan(tmp_path, 100), *command[1:]])
    assert code == 0 and all(c["status"] == "pass" for c in doc["checks"])


@pytest.mark.parametrize("command", ["pullback", "cotensor"])
def test_declared_cospan_equalizer_bound_is_inclusive(monkeypatch, command):
    """A declared cospan of coalgebras A → B ← C, here dim A · dim C = 3 · 2,
    runs with the bound at 6; at 5 it exits 2, naming the cospan, before any
    pullback or cotensor is built."""
    argv = [command, fx("cospan_coalg.json"), "--cospan", "cs"]
    _, dims = _spy_sizes(monkeypatch)
    cotensors, cotensor = [], coalg.cotensor
    monkeypatch.setattr(coalg, "cotensor", lambda f, g: cotensors.append(1) or cotensor(f, g))
    monkeypatch.setattr(jsonio, "MAX_EQUALIZER_DIM", 6)
    assert run_no_traceback(argv)[0] == 0 and dims == [6]
    monkeypatch.setattr(jsonio, "MAX_EQUALIZER_DIM", 5)
    dims.clear(), cotensors.clear()
    code, doc = run_no_traceback(argv)
    assert code == 2 and not dims and not cotensors
    assert doc["error"] == ("cospan 'cs': an equalizer in a tensor product of dimension 6"
                            " is too large to build (at most 5)")


def _coassociativity_products(c):
    """By brute force: building (δ⊗1)∘δ and (1⊗δ)∘δ, a nonzero of δ at row r
    multiplies column r of δ⊗1 and of 1⊗δ, one product per nonzero."""
    eye = linalg.Matrix.identity(c.field, c.dim)
    sides = (linalg.kron(c.delta, eye), linalg.kron(eye, c.delta))
    return sum(len(side.columns[r]) for col in c.delta.columns for r in col for side in sides)


def test_coassociativity_product_count_is_a_brute_force_count(monkeypatch):
    """bound_coalgebra admits a coalgebra at exactly its count and refuses it
    one below, on sparse raw and dense rebased random coalgebras."""
    from gen import FIELDS, rand_raw_coalgebra, random_basis, rebased

    rng = rng_for("coassociativity-products")
    for field in FIELDS:
        for n in (1, 2, 3, 4):
            for c in (rand_raw_coalgebra(rng, field, n),
                      rebased(coalg.grouplike(field, n), random_basis(rng, field, n))):
                count = _coassociativity_products(c)
                monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", count)
                jsonio.bound_coalgebra("c", c)
                monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", count - 1)
                with pytest.raises(RelspanError) as exc:
                    jsonio.bound_coalgebra("c", c)
                assert str(exc.value) == (f"c: a coalgebra with {count} coassociativity products"
                                          f" is too large to check (at most {count - 1})")


def _spy_coalgebra_checks(monkeypatch):
    """The dimension of each coalgebra check_coalgebra is called on, from here on."""
    dims, check = [], coalg.check_coalgebra
    monkeypatch.setattr(coalg, "check_coalgebra", lambda c: dims.append(c.dim) or check(c))
    return dims


def test_declared_coalgebra_product_bound_is_inclusive_and_refuses_before_the_check(
        tmp_path, monkeypatch):
    """A dense coalgebra, k[X] for |X| = 3 in a random basis over F_5, is
    checked with the bound at its exact count; one below, it exits 2 while it
    is decoded, before any product is built."""
    from gen import random_basis, rebased

    fld = GF(5)
    c = rebased(coalg.grouplike(fld, 3), random_basis(rng_for("dense-coalgebra"), fld, 3))
    assert [len(col) for col in c.delta.columns] == [5, 5, 9]
    p = tmp_path / "dense.json"
    p.write_text(json.dumps({"A": {"kind": "coalgebra", "dim": 3, "field": {"Fp": 5},
                                   "delta": jsonio.matrix_to_json(c.delta),
                                   "epsilon": jsonio.matrix_to_json(c.epsilon)}}))
    count, dims = _coassociativity_products(c), _spy_coalgebra_checks(monkeypatch)
    monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", count)
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 0 and dims == [3] and [c["status"] for c in doc["checks"]] == ["pass"] * 3
    monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", count - 1)
    dims.clear()
    code, doc = run_no_traceback(["check", str(p)])
    assert code == 2 and not dims
    assert doc["error"] == (f"bad declaration 'A': a coalgebra with {count} coassociativity"
                            f" products is too large to check (at most {count - 1})")


@pytest.mark.parametrize("argv, name", [
    (["check", fx("coalgebras.json"), "--name", "k2"], "k2"),
    (["monoid", fx("monoids.json"), "--name", "kc2"], "kc2"),
    (["pullback", fx("cospan_coalg.json"), "--cospan", "cs"], "A"),
    (["cotensor", fx("cospan_coalg.json"), "--cospan", "cs"], "A"),
])
def test_declared_coalgebra_over_the_product_bound_exits_2_naming_it(monkeypatch, argv, name):
    """The bound holds wherever a coalgebra is declared: under check, as a
    bialgebra's carrier and as the domain of a cospan's leg."""
    dims = _spy_coalgebra_checks(monkeypatch)
    monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", 0)
    code, doc = run_no_traceback(argv)
    assert code == 2 and not dims
    assert doc["error"].startswith(f"bad declaration '{name}': a coalgebra with ")
    assert doc["error"].endswith(" coassociativity products is too large to check (at most 0)")


@pytest.mark.parametrize("command", _LINEARIZED_COSPAN_COMMANDS, ids=["pullback", "cotensor"])
def test_built_coalgebra_product_bound_is_inclusive_and_names_the_cospan(monkeypatch, command):
    """The pullback apex and the cotensor's induced structure of
    2 -> 2 <- 3, linearized, are k[X] on its 3 matching pairs: 6 products.
    At a bound of 6 they are checked; at 5 the command exits 2, naming the
    cospan, before the check."""
    argv = [command[0], fx("cospan_finset.json"), *command[1:]]
    dims = _spy_coalgebra_checks(monkeypatch)
    monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", 6)
    assert run_no_traceback(argv)[0] == 0 and dims == [3]
    monkeypatch.setattr(jsonio, "MAX_COASSOC_PRODUCTS", 5)
    dims.clear()
    code, doc = run_no_traceback(argv)
    assert code == 2 and not dims
    assert doc["error"] == ("cospan 'cs': a coalgebra with 6 coassociativity products"
                            " is too large to check (at most 5)")


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


def _constant_chain(tmp_path, sizes):
    """The chain 'ch' on sizes whose maps are all constant at 0."""
    maps = [[0] * sizes[i + i % 2] for i in range(len(sizes) - 1)]
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"ch": {"kind": "chain", "sizes": sizes, "maps": maps}}))
    return str(p)


def _coherence(path, shape, instance):
    return ["coherence", path, "--name", "ch", "--shape", shape, "--instance", instance]


@pytest.mark.parametrize("shape, instance, sizes, message", [
    ("pentagon", "finset", [23, 1, 23, 1, 23, 1, 23],
     "a pullback of 279841 matching pairs is too large to build (at most 250000)"),
    ("triangle", "finset", [501, 1, 500],
     "a pullback of 250500 matching pairs is too large to build (at most 250000)"),
    ("pentagon", "coalg", [14, 1, 14, 1, 14, 1, 14],
     "an equalizer in a tensor product of dimension 38416 is too large to build (at most 10000)"),
    ("triangle", "coalg", [101, 1, 100],
     "an equalizer in a tensor product of dimension 10100 is too large to build (at most 10000)"),
    ("triangle", "coalg", [1, 10001, 1],
     "an equalizer in a tensor product of dimension 10001 is too large to build (at most 10000)"),
    ("triangle", "finset", [0, 3_000_000, 0],
     "a set of 3000000 elements is too large to check (at most 100000)"),
    ("pentagon", "finset", [0, 1, 0, 3_000_000, 0, 1, 0],
     "a set of 3000000 elements is too large to check (at most 100000)"),
])
def test_chain_too_large_for_its_shape_exits_2_at_once(tmp_path, shape, instance, sizes, message):
    """Each chain, a file of a few hundred bytes, is refused from the counts
    of its sub-chains before any pullback; unbounded, the n = 23 pentagon
    over finite sets took 4.1 s of CPU and 232 MB, and the n = 14 one
    linearized 7.9 s and 415 MB."""
    assert (jsonio.MAX_PULLBACK_PAIRS, jsonio.MAX_EQUALIZER_DIM) == (250_000, 10_000)
    argv = _coherence(_constant_chain(tmp_path, sizes), shape, instance)
    start = time.process_time()
    code, doc = run_no_traceback(argv)
    assert time.process_time() - start < 0.25
    assert code == 2 and doc["exit"] == 2
    assert doc["error"] == f"chain 'ch': {message}"


def test_triangle_at_the_equalizer_bound_still_runs(tmp_path):
    """1 -> 10000 <- 1: the pullbacks with an identity leg run in a tensor
    product of dimension 10000, exactly the bound."""
    code, doc = run_no_traceback(_coherence(_constant_chain(tmp_path, [1, 10_000, 1]),
                                            "triangle", "coalg"))
    assert code == 0 and [c["status"] for c in doc["checks"]] == ["pass", "pass"]


@pytest.mark.parametrize("shape, sizes", [
    ("triangle", [0, 100_000, 0]),
    ("pentagon", [0, 100_000, 0, 100_000, 0, 100_000, 0]),
])
def test_chain_sets_at_the_set_bound_still_run(tmp_path, shape, sizes):
    """The shapes build identities on a chain's sets: a set of exactly
    jsonio.MAX_LINEARIZED elements is built on, a larger one is refused
    before any count; unbounded, the triangle on [0, 3·10⁶, 0] took 7.7 s of
    CPU and 753 MB."""
    assert jsonio.MAX_LINEARIZED == 100_000
    code, doc = run_no_traceback(_coherence(_constant_chain(tmp_path, sizes), shape, "finset"))
    assert code == 0 and [c["status"] for c in doc["checks"]] == ["pass"]


def _spy_sizes(monkeypatch):
    """The size of each finite-set pullback built and the dimension of the
    tensor product A⊗C of each coalgebra pullback, from here on."""
    pairs, dims = [], []
    fin, lin = finset.pullback, coalg.relative_pullback_coalg

    def fin_spy(f, g):
        pb = fin(f, g)
        pairs.append(pb.apex.size)
        return pb

    def lin_spy(base, f, g):
        dims.append(f.src.dim * g.src.dim)
        return lin(base, f, g)

    monkeypatch.setattr(finset, "pullback", fin_spy)
    monkeypatch.setattr(coalg, "relative_pullback_coalg", lin_spy)
    return pairs, dims


@pytest.mark.parametrize("shape", ["triangle", "pentagon"])
def test_chain_bounds_are_the_largest_pullback_the_shape_builds(tmp_path, monkeypatch, shape):
    """On random chains, with a bound at the largest finite-set pullback or
    tensor product of a coalgebra pullback that the shape builds, it runs;
    one below, it exits 2 before any pullback."""
    from gen import dense, rand_finfun, rng_for

    rng = rng_for(f"chain-bounds-{shape}")
    n = 2 if shape == "triangle" else 6
    pairs, dims = _spy_sizes(monkeypatch)
    for _ in range(6):
        sizes = [rng.randint(1, 3) for _ in range(n + 1)]
        maps = [list(rand_finfun(rng, sizes[i + i % 2], sizes[i + 1 - i % 2]).table)
                for i in range(n)]
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"ch": {"kind": "chain", "sizes": sizes, "maps": maps}}))
        argv = _coherence(str(p), shape, "coalg")
        pairs.clear(), dims.clear()
        assert run_no_traceback(argv)[0] == 0
        for owner, name, largest, what in (
                (jsonio, "MAX_PULLBACK_PAIRS", max(pairs), f"{max(pairs)} matching pairs"),
                (jsonio, "MAX_EQUALIZER_DIM", max(dims), f"dimension {max(dims)}")):
            with monkeypatch.context() as m:
                m.setattr(owner, name, largest)
                assert run_no_traceback(argv)[0] == 0
                m.setattr(owner, name, largest - 1)
                pairs.clear(), dims.clear()
                code, doc = run_no_traceback(argv)
                assert code == 2 and f"{what} is too large" in doc["error"]
                assert not pairs and not dims


def _misc_fixture(tmp_path):
    p = tmp_path / "misc.json"
    p.write_text(json.dumps({
        # arrow 1 composed with the identity 0 is not 1
        "bad": {"kind": "small_category", "objects": 1, "arrows": 2, "src": [0, 0],
                "tgt": [0, 0], "id": [0], "comp": [[1, 1], [1, 0]]},
        "pt": {"kind": "relative_category", "instance": "finset", "objects": 1, "arrows": 1,
               "s": [0], "t": [0], "i": [0], "d": [0]},
        "idf": {"kind": "functor", "src": "pt", "tgt": "pt", "b": [0], "a": [0]},
    }))
    return str(p)


@pytest.mark.parametrize("command", [["check"], ["relcat"], ["relcat", "--instance", "coalg"]])
def test_small_category_that_fails_its_laws_fails_with_witness(tmp_path, command):
    code, doc = run_no_traceback([command[0], _misc_fixture(tmp_path), "--name", "bad",
                                  *command[1:]])
    assert code == 1 and doc["checks"] == [{"name": "bad: category laws", "status": "fail",
                                            "witness": "right identity law fails at arrow 0"}]


def test_check_passes_the_laws_of_each_shipped_small_category():
    code, doc = run_no_traceback(["check", fx("relcats.json")])
    laws = [c["name"] for c in doc["checks"] if c["name"].endswith(": category laws")]
    assert code == 0 and laws == [f"{nm}: category laws"
                                  for nm in ("discrete3", "poset01", "z2", "groupoid5")]


def test_check_and_functor_take_a_relative_category_declaration(tmp_path):
    path = _misc_fixture(tmp_path)
    code, doc = run_no_traceback(["check", path, "--name", "pt"])
    assert code == 0 and doc["checks"] and all(c["name"].startswith("pt: ") for c in doc["checks"])
    code, doc = run_no_traceback(["functor", path, "--src", "pt", "--tgt", "pt", "--map", "idf"])
    assert code == 0 and len(doc["checks"]) == 4


def test_without_a_name_the_first_cospan_or_chain_is_used(tmp_path):
    p = tmp_path / "two.json"
    with open(fx("cospan_finset.json")) as fh:
        decls = json.load(fh)
    decls["cs2"] = {"kind": "cospan", "left": "g", "right": "f"}
    p.write_text(json.dumps(decls))
    code, doc = run_no_traceback(["pullback", str(p)])
    named = {cs: run_no_traceback(["pullback", str(p), "--cospan", cs])[1]["result"]
             for cs in ("cs", "cs2")}
    assert code == 0 and doc["result"] == named["cs"] != named["cs2"]
    # chains.json declares the triangle's chain first, then the pentagon's
    code, doc = run_no_traceback(["coherence", fx("chains.json"), "--shape", "triangle"])
    assert code == 0 and [c["name"] for c in doc["checks"]] == ["triangle (finset)"]


@pytest.mark.parametrize("argv, message", [
    (["pullback", fx("chains.json")], "no cospan declaration in the file"),
    (["coherence", fx("cospan_finset.json"), "--shape", "triangle"],
     "no chain declaration in the file"),
    (["relcat", fx("chains.json")],
     "no relative-category or small-category declaration in the file"),
    (["pullback", fx("cospan_finset.json"), "--cospan", "f"],
     "'f' is a finset_fun, expected one of ['cospan']"),
    (["coherence", fx("chains.json"), "--name", "tri", "--shape", "pentagon"],
     "pentagon needs a chain with 6 maps, got 2"),
])
def test_a_declaration_missing_or_of_the_wrong_kind_or_shape_exits_2(argv, message):
    code, doc = run_no_traceback(argv)
    assert code == 2 and doc["exit"] == 2 and doc["error"] == message
