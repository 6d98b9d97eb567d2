"""Fixture decoding: a command decodes only the declarations it reads, each
once, and a matrix decodes to the sparse columns of its dense grid."""

import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest

from gen import rng_for
from relspan import jsonio
from relspan.cli import main
from relspan.fields import GF, QQ
from relspan.linalg import Matrix


def _fun(dom, cod, table):
    return {"kind": "finset_fun", "fun": {"dom": dom, "cod": cod, "table": table}}


def _cyclic(n):
    return {"kind": "small_category", "objects": 1, "arrows": n, "src": [0] * n,
            "tgt": [0] * n, "id": [0], "comp": [[(i + j) % n for j in range(n)] for i in range(n)]}


# Every kind a command reads by name, and one refused declaration: "bad",
# first in file order, whose table leaves its codomain.
GOOD = {
    "f": _fun(3, 2, [0, 1, 1]),
    "g": _fun(2, 2, [1, 0]),
    "cs": {"kind": "cospan", "left": "f", "right": "g"},
    "ch": {"kind": "chain", "sizes": [2, 1, 2], "maps": [[0, 0], [0, 0]]},
    "z3": _cyclic(3),
    "neg": {"kind": "functor", "b": [0], "a": [0, 2, 1]},
    "mon": {"kind": "finset_monoid", "size": 2, "table": [0, 1, 1, 0], "unit": 0},
}
BAD = {"bad": _fun(2, 2, [0, 5])}
BAD_MESSAGE = "bad declaration 'bad': table value 5 outside the codomain"

# (argv after the path, the declarations it reads): its target and the
# target's references.
NAMED_COMMANDS = [
    (["check", "--name", "cs"], {"cs", "f", "g"}),
    (["pullback", "--cospan", "cs"], {"cs", "f", "g"}),
    (["pullback", "--cospan", "cs", "--instance", "coalg"], {"cs", "f", "g"}),
    (["pullback"], {"cs", "f", "g"}),
    (["cotensor", "--cospan", "cs", "--field", "Fp:5"], {"cs", "f", "g"}),
    (["coherence", "--name", "ch", "--shape", "triangle"], {"ch"}),
    (["coherence", "--shape", "triangle", "--instance", "coalg"], {"ch"}),
    (["relcat", "--name", "z3"], {"z3"}),
    (["relcat", "--instance", "coalg"], {"z3"}),
    (["functor", "--src", "z3", "--tgt", "z3", "--map", "neg"], {"z3", "neg"}),
    (["monoid", "--name", "mon"], {"mon"}),
    (["monoid"], {"mon"}),
]
NAMED_IDS = [" ".join(argv) for argv, _ in NAMED_COMMANDS]


def _write(tmp_path, decls):
    p = tmp_path / "decls.json"
    p.write_text(json.dumps(decls))
    return str(p)


def _run(path, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([argv[0], path, *argv[1:], "--json"])
    return code, json.loads(buf.getvalue())


@pytest.fixture
def decoded(monkeypatch):
    """The names decoded, counted through jsonio._DECODERS; a decoder is
    handed the declaration's JSON object, which names it, since no two
    declarations of a file here are equal."""
    seen, names = Counter(), {json.dumps(obj): name for name, obj in {**BAD, **GOOD}.items()}

    def counted(decode):
        def wrapper(obj, ref):
            seen[names[json.dumps(obj)]] += 1
            return decode(obj, ref)
        return wrapper

    for kind, decode in list(jsonio._DECODERS.items()):
        monkeypatch.setitem(jsonio._DECODERS, kind, counted(decode))
    return seen


@pytest.mark.parametrize("argv, reads", NAMED_COMMANDS, ids=NAMED_IDS)
def test_a_command_decodes_its_target_and_its_references_once_each(tmp_path, decoded,
                                                                     argv, reads):
    code, doc = _run(_write(tmp_path, {**BAD, **GOOD}), argv)
    assert code == 0, doc
    assert set(decoded) == reads and set(decoded.values()) == {1}


def test_check_decodes_every_declaration_once_in_file_order(tmp_path, decoded):
    code, doc = _run(_write(tmp_path, GOOD), ["check"])
    assert code == 0, doc
    assert list(decoded) == list(GOOD) and set(decoded.values()) == {1}


@pytest.mark.parametrize("argv", [argv for argv, _ in NAMED_COMMANDS], ids=NAMED_IDS)
def test_a_malformed_declaration_a_command_does_not_read_is_not_refused(tmp_path, argv):
    assert _run(_write(tmp_path, {**BAD, **GOOD}), argv)[0] == 0


@pytest.mark.parametrize("first", [True, False], ids=["bad first", "bad last"])
def test_check_without_a_name_refuses_any_malformed_declaration_before_checking(tmp_path, first):
    decls = {**BAD, **GOOD} if first else {**GOOD, **BAD}
    code, doc = _run(_write(tmp_path, decls), ["check"])
    assert code == 2 and doc == {"command": doc["command"], "error": BAD_MESSAGE, "exit": 2}


@pytest.mark.parametrize("decl, message", [
    ({"fun": {"dom": 1, "cod": 1, "table": [0]}}, "declaration 'x' has no kind"),
    ([], "declaration 'x' has no kind"),
    ({"kind": "mystery"}, "declaration 'x' has unknown kind 'mystery'"),
])
@pytest.mark.parametrize("argv", [["check"]] + [argv for argv, _ in NAMED_COMMANDS],
                         ids=["check"] + NAMED_IDS)
def test_a_missing_or_unknown_kind_is_refused_under_every_command(tmp_path, decl, message, argv):
    code, doc = _run(_write(tmp_path, {**GOOD, "x": decl}), argv)
    assert code == 2 and doc["error"] == message


def test_a_file_that_is_not_an_object_is_refused_under_every_command(tmp_path):
    for argv, _ in NAMED_COMMANDS:
        code, doc = _run(_write(tmp_path, [GOOD]), argv)
        assert code == 2
        assert doc["error"] == "fixture file must be a JSON object of named declarations"


# -- sparse matrix decoding ---------------------------------------------------------

# Texts of zero in several spellings, equal values in different texts and
# padded texts; every one parses over Q and the prime fields below.
TEXTS = ("0", "-0", "0/7", "2/4", "1/2", " 3 ", "3", "-1", "5", "7/3", "-2/9", "12")


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=["Q", "F5", "F32003"])
def test_sparse_decoding_equals_the_dense_grid_and_parses_each_text_once(monkeypatch, field):
    rng = rng_for(f"sparse-decode-{field!r}")
    parsed = []
    parse = type(field).parse
    monkeypatch.setattr(type(field), "parse", lambda fld, s: parsed.append(s) or parse(fld, s))
    for rows, cols in [(0, 3), (3, 0), (1, 1), (4, 3), (6, 7), (9, 2)]:
        for zero_rate in (0.2, 0.8):
            grid = [[rng.choice(TEXTS[:3]) if rng.random() < zero_rate else rng.choice(TEXTS)
                     for _ in range(cols)] for _ in range(rows)]
            obj = {"field": jsonio.field_to_json(field), "rows": rows, "cols": cols, "entries": grid}
            parsed.clear()
            got = jsonio.matrix_from_json(obj, rows, cols)
            assert sorted(parsed) == sorted({x for row in grid for x in row})
            dense = Matrix(field, [[parse(field, x) for x in row] for row in grid], rows, cols)
            assert got == dense
            assert all(list(col) == sorted(col) for col in got.columns)


@pytest.mark.parametrize("shape, obj, message", [
    ((1, 2), {"rows": 1, "cols": 2, "entries": [["1", 7]]}, "bad matrix: expected a string, got 7"),
    ((1, 2), {"rows": 1, "cols": 2, "entries": [[7, "1e5"]]}, "bad matrix: expected a string, got 7"),
    ((1, 1), {"rows": 1, "cols": 1, "entries": [[["1"]]]},
     "bad matrix: expected a string, got ['1']"),
    ((2, 2), {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3"]]},
     "matrix entry grid does not match rows x cols"),
    ((1, 1), {"rows": 2, "cols": 1, "entries": [["1"]]}, "matrix is 2 x 1, expected 1 x 1"),
    ((1, 1), {"rows": "1", "cols": 1, "entries": [["1"]]},
     "bad matrix: expected an integer, got '1'"),
    ((1, 2), {"rows": 1, "cols": 2, "entries": [["1e5", 7]]},
     "bad matrix: bad scalar '1e5': exponent forms are not accepted"),
    ((1, 2), {"rows": 1, "cols": 2, "entries": [["2", "1e5"]]},
     "bad matrix: bad scalar '1e5': exponent forms are not accepted"),
])
def test_matrix_refusals_keep_their_messages(shape, obj, message):
    with pytest.raises(jsonio.ParseError) as exc:
        jsonio.matrix_from_json({"field": "Q", **obj}, *shape)
    assert str(exc.value) == message


_ONE = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1"]]}
# One valid declaration of every kind; each test below drops one field.
EVERY_KIND = {
    "k": {"kind": "coalgebra", "field": "Q", "dim": 1, "delta": _ONE, "epsilon": _ONE},
    "km": {"kind": "coalgebra_map", "src": "k", "tgt": "k", "matrix": _ONE},
    "b": {"kind": "bialgebra", "field": "Q", "dim": 1, "delta": _ONE, "epsilon": _ONE, "m": _ONE, "u": _ONE},
    "x": {"kind": "finset_obj", "set": 2},
    "f": _fun(1, 1, [0]),
    "z": {"kind": "finset_monoid", "size": 1, "table": [0], "unit": 0},
    "c": _cyclic(1),
    "r": {"kind": "relative_category", "objects": 1, "arrows": 1, "s": [0], "t": [0], "i": [0], "d": [0]},
    "ch": {"kind": "chain", "sizes": [1, 1, 1], "maps": [[0], [0]]},
    "cs": {"kind": "cospan", "left": "f", "right": "f"},
    "fn": {"kind": "functor", "b": [0], "a": [0]},
}


def test_every_kind_is_declared_once_above(tmp_path):
    assert sorted(d["kind"] for d in EVERY_KIND.values()) == sorted(jsonio._DECODERS)
    assert _run(_write(tmp_path, EVERY_KIND), ["check"])[0] == 0


@pytest.mark.parametrize("name", list(EVERY_KIND))
def test_a_missing_field_is_named_as_missing(tmp_path, name):
    """The last field of each kind's declaration is dropped: the refusal
    says which field is missing, not only the bare key."""
    decl = dict(EVERY_KIND[name])
    field = list(decl)[-1]
    del decl[field]
    code, doc = _run(_write(tmp_path, {**EVERY_KIND, name: decl}), ["check", "--name", name])
    assert code == 2 and doc["error"] == f"bad declaration {name!r}: missing field {field!r}"


def test_a_matrix_missing_a_field_is_named_as_missing(tmp_path):
    entries = {key: v for key, v in _ONE.items() if key != "entries"}
    code, doc = _run(_write(tmp_path, {**EVERY_KIND, "k": {**EVERY_KIND["k"], "epsilon": entries}}),
                     ["check", "--name", "k"])
    assert code == 2 and doc["error"] == "bad declaration 'k': bad matrix: missing field 'entries'"


def _point(field="Q", delta_field="Q"):
    """The one-dimensional coalgebra, its field and its δ's field as given."""
    one = {"rows": 1, "cols": 1, "entries": [["1"]]}
    return {"kind": "coalgebra", "dim": 1, "field": field,
            "delta": {"field": delta_field, **one}, "epsilon": {"field": "Q", **one}}


@pytest.mark.parametrize("decls, argv, message", [
    ({"k": _point(delta_field="R")}, ["check", "--name", "k"],
     "bad declaration 'k': unknown field description 'R'"),
    ({"k": _point(field={"F": 5})}, ["check", "--name", "k"],
     "bad declaration 'k': unknown field description {'F': 5}"),
    (GOOD, ["pullback", "--cospan", "cs", "--instance", "coalg", "--field", "R"],
     "unknown field flag 'R' (use Q or Fp:<p>)"),
    (GOOD, ["cotensor", "--cospan", "cs", "--field", "F5"], "unknown field flag 'F5' (use Q or Fp:<p>)"),
    (GOOD, ["relcat", "--name", "z3", "--instance", "coalg", "--field", "Fp:4"],
     "bad field flag 'Fp:4': 4 is not prime"),
], ids=["matrix-field", "coalgebra-field", "pullback-field-flag", "cotensor-field-flag", "composite-modulus"])
def test_an_unknown_field_exits_2_naming_it(tmp_path, decls, argv, message):
    code, doc = _run(_write(tmp_path, decls), argv)
    assert code == 2 and doc["exit"] == 2 and doc["error"] == message
