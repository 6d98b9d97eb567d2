"""JSON encodings for every external interface.

A fixture file is a single JSON object mapping names to declarations; each
declaration carries a "kind" field.  Matrices are exact: entries are strings,
rationals as "a/b", and each matrix must have the shape its declaration
implies before it is built.  Decoding is a pure function from the file to a
context dict of live objects in file order: one table maps each kind to its
decoder, and a reference to another declaration is checked and decoded on
first use, so declarations may come in any order.  Sizes, indices and
table entries must be JSON integers.  It rejects what the constructions
cannot take, such as a cospan whose legs are not two morphisms of one base
category, or a category with more than MAX_COMPOSABLE_TRIPLES composable
triples.  Encoding covers fields and matrices, for the CLI's results; a
matrix of more than MAX_ENCODED_CELLS cells is refused.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import NamedTuple

from . import coalg as _coalg
from . import finset as _finset
from . import relcat as _relcat
from .errors import RelspanError
from .fields import GF, QQ
from .linalg import Matrix
from .monoids import MonoidObj
from .relpull import relative_pullback


class ParseError(RelspanError):
    pass


def _int(v) -> int:
    """A size, index or table entry: a JSON integer and nothing else (no
    float, string or boolean)."""
    if type(v) is int:
        return v
    if isinstance(v, float) and math.isinf(v):  # JSON Infinity
        raise ValueError(f"expected an integer, got {'-' if v < 0 else ''}infinity")
    raise ValueError(f"expected an integer, got {v!r}")


def _text(v) -> str:
    """A matrix entry: a JSON string and nothing else (no number or boolean)."""
    if type(v) is str:
        return v
    raise ValueError(f"expected a string, got {v!r}")


def _ints(vs) -> list:
    if not isinstance(vs, list):
        raise ValueError(f"expected a list of integers, got {vs!r}")
    return [_int(v) for v in vs]


# -- fields and matrices ---------------------------------------------------------


def field_to_json(fld):
    if fld == QQ:
        return "Q"
    return {"Fp": fld.p}


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and "Fp" in obj:
        return GF(_int(obj["Fp"]))
    raise ParseError(f"unknown field description {obj!r}")


def parse_field_flag(text: str):
    """--field values: 'Q' or 'Fp:<p>'."""
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return GF(int(text[3:]))
        except ValueError as exc:
            raise ParseError(f"bad field flag {text!r}: {exc}") from exc
    raise ParseError(f"unknown field flag {text!r} (use Q or Fp:<p>)")


# The most cells of the dense grid matrix_to_json builds, about 80 B a cell.
MAX_ENCODED_CELLS = 10**6


def matrix_to_json(m: Matrix):
    """The dense entry grid of m, "0" off its stored entries, refused before
    it is built when m has more than MAX_ENCODED_CELLS cells."""
    if m.rows * m.cols > MAX_ENCODED_CELLS:
        raise RelspanError(f"a {m.rows} x {m.cols} matrix is too large to encode"
                           f" (at most {MAX_ENCODED_CELLS} cells)")
    grid = [["0"] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            grid[i][j] = str(v)
    return {"field": field_to_json(m.field), "rows": m.rows, "cols": m.cols, "entries": grid}


def matrix_from_json(obj, rows: int, cols: int) -> Matrix:
    """The rows x cols matrix obj encodes; any other header is rejected
    before anything is built."""
    try:
        fld = field_from_json(obj["field"])
        header = _int(obj["rows"]), _int(obj["cols"])
        if header != (rows, cols):
            raise ParseError(f"matrix is {header[0]} x {header[1]}, expected {rows} x {cols}")
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise ParseError("matrix entries must be a JSON array of JSON arrays")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ParseError("matrix entry grid does not match rows x cols")
        data = [[fld.parse(_text(x)) for x in row] for row in entries]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix: {exc}") from exc
    return Matrix(fld, data, rows, cols)


# -- declarations -----------------------------------------------------------------
#
# Each decoder takes the declaration's JSON object and ref(name, role, kinds),
# which returns the decoded value of the declaration a reference names.


def _coalgebra(obj, ref=None) -> _coalg.Coalgebra:
    dim = _int(obj["dim"])
    return _coalg.Coalgebra(
        dim,
        field_from_json(obj["field"]),
        delta=matrix_from_json(obj["delta"], dim * dim, dim),
        epsilon=matrix_from_json(obj["epsilon"], 1, dim),
    )


def _coalgebra_map(obj, ref) -> _coalg.CoalgMap:
    src = ref(obj["src"], "src", ("coalgebra",))
    tgt = ref(obj["tgt"], "tgt", ("coalgebra",))
    return _coalg.CoalgMap(src, tgt, matrix_from_json(obj["matrix"], tgt.dim, src.dim))


def _bialgebra(obj, ref) -> MonoidObj:
    c = _coalgebra(obj)
    base = _coalg.CoalgCategory(c.field)
    m = _coalg.CoalgMap(_coalg.tensor_coalgebra(c, c), c,
                        matrix_from_json(obj["m"], c.dim, c.dim * c.dim))
    u = _coalg.CoalgMap(base.unit_obj(), c, matrix_from_json(obj["u"], c.dim, 1))
    return MonoidObj(base, c, m, u)


def _finset_obj(obj, ref) -> _finset.FinSetObj:
    return _finset.FinSetObj(_int(obj["set"]))


def _finset_fun(obj, ref) -> _finset.FinFun:
    body = obj["fun"]
    return _finset.FinFun(
        _finset.FinSetObj(_int(body["dom"])),
        _finset.FinSetObj(_int(body["cod"])),
        _ints(body["table"]),
    )


def _finset_monoid(obj, ref):
    """(carrier, multiplication, unit) of a monoid given by its table."""
    size = _int(obj["size"])
    table = _ints(obj["table"])
    if len(table) != size * size:
        raise ParseError("monoid table must have size^2 entries")
    carrier = _finset.FinSetObj(size)
    return carrier, _finset.FinFun(_finset.FinSetObj(size * size), carrier, table), _int(obj["unit"])


# The most composable triples of a decoded category: its associativity checks
# visit each one, and the coalgebra instance builds a pullback of them all.
MAX_COMPOSABLE_TRIPLES = 250_000


def _bound_triples(src, tgt):
    """Refuse arrows with more than MAX_COMPOSABLE_TRIPLES triples i∘j∘k:
    for each middle arrow j there are |src⁻¹(tgt j)|·|tgt⁻¹(src j)| of them."""
    sources, targets = Counter(src), Counter(tgt)
    n = sum(sources[y] * targets[x] for x, y in zip(src, tgt))
    if n > MAX_COMPOSABLE_TRIPLES:
        raise ParseError(f"a category with {n} composable triples is too large to check"
                         f" (at most {MAX_COMPOSABLE_TRIPLES})")


def _small_category(obj, ref) -> _relcat.SmallCategory:
    n_obj, n_arr = _int(obj["objects"]), _int(obj["arrows"])
    src, tgt = _ints(obj["src"]), _ints(obj["tgt"])
    _bound_triples(src, tgt)
    return _relcat.SmallCategory(
        n_obj, n_arr, src, tgt, _ints(obj["id"]), [_ints(row) for row in obj["comp"]]
    )


def _relative_category(obj, ref) -> _relcat.RelativeCategory:
    if obj.get("instance", "finset") != "finset":
        raise ParseError("raw relative_category declarations are finset-only")
    b = _finset.FinSetObj(_int(obj["objects"]))
    a = _finset.FinSetObj(_int(obj["arrows"]))
    s = _finset.FinFun(a, b, _ints(obj["s"]))
    t = _finset.FinFun(a, b, _ints(obj["t"]))
    i = _finset.FinFun(b, a, _ints(obj["i"]))
    d_table = _ints(obj["d"])
    # the pullback of (s, t) has Σ_b |s⁻¹(b)|·|t⁻¹(b)| pairs: count them from
    # the fibers, so a d of the wrong length is refused before they are built
    targets = Counter(t.table)
    pairs = sum(n * targets[x] for x, n in Counter(s.table).items())
    if len(d_table) != pairs:
        raise ParseError(f"d table has {len(d_table)} entries but the pullback has {pairs} pairs")
    _bound_triples(s.table, t.table)
    pb = relative_pullback(_finset.FINSET, s, t)
    d = _finset.FinFun(pb.apex, a, d_table)
    return _relcat.RelativeCategory(_finset.FINSET, b, a, s, t, i, d, pb)


def _chain(obj, ref) -> list:
    """The maps X_0 -> Y_1 <- X_2 -> ... of a zigzag of finite sets."""
    if obj.get("instance", "finset") != "finset":
        raise ParseError("chains are declared over finset (linearize via --instance)")
    sizes = _ints(obj["sizes"])
    if len(sizes) % 2 == 0 or len(sizes) < 3:
        raise ParseError("a chain needs an odd number (>= 3) of objects")
    maps = []
    for idx, table in enumerate(obj["maps"]):
        # even maps point right (X_i -> Y_{i+1}), odd maps left
        dom = _finset.FinSetObj(sizes[idx] if idx % 2 == 0 else sizes[idx + 1])
        cod = _finset.FinSetObj(sizes[idx + 1] if idx % 2 == 0 else sizes[idx])
        maps.append(_finset.FinFun(dom, cod, _ints(table)))
    if len(maps) != len(sizes) - 1:
        raise ParseError("a chain needs one map per adjacent pair")
    return maps


def _cospan(obj, ref) -> tuple:
    """The (left, right) legs; cospan_base checks they share a base category."""
    legs = tuple(ref(obj[side], "cospan leg", ("finset_fun", "coalgebra_map"))
                 for side in ("left", "right"))
    cospan_base(*legs)
    return legs


def _functor(obj, ref) -> tuple:
    """The object and arrow tables (b, a) of a relative functor."""
    return _ints(obj["b"]), _ints(obj["a"])


_DECODERS = {
    "coalgebra": _coalgebra,
    "coalgebra_map": _coalgebra_map,
    "bialgebra": _bialgebra,
    "finset_obj": _finset_obj,
    "finset_fun": _finset_fun,
    "finset_monoid": _finset_monoid,
    "small_category": _small_category,
    "relative_category": _relative_category,
    "chain": _chain,
    "cospan": _cospan,
    "functor": _functor,
}


def cospan_base(left, right):
    """The one base category that both legs of a cospan are morphisms of."""
    if type(left) is type(right) is _finset.FinFun:
        return _finset.FINSET
    if type(left) is type(right) is _coalg.CoalgMap and left.mat.field == right.mat.field:
        return _coalg.CoalgCategory(left.mat.field)
    raise ValueError("cospan legs must be two finset_fun or two coalgebra_map declarations "
                     "over one field")


class Decl(NamedTuple):
    """A decoded declaration: its kind and its live object."""

    kind: str
    value: object


def _kind(name, obj) -> str:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"declaration {name!r} has no kind")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise ParseError(f"declaration {name!r} has unknown kind {kind!r}")
    return kind


def load_context(path: str) -> dict:
    """Decode a fixture file into a {name: Decl} context in file order."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("fixture file must be a JSON object of named declarations")
    done: dict[str, Decl] = {}

    def decl(name) -> Decl:
        if name not in done:
            kind = _kind(name, doc[name])
            try:
                done[name] = Decl(kind, _DECODERS[kind](doc[name], ref))
            except ParseError:
                raise
            except (RelspanError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"bad declaration {name!r}: {exc}") from exc
        return done[name]

    def ref(name, role, kinds):
        if not isinstance(name, str) or name not in doc:
            raise ValueError(f"{role} {name!r} is not declared")
        kind = _kind(name, doc[name])
        if kind not in kinds:
            raise ValueError(f"{role} {name!r} is a {kind}, expected {' or '.join(kinds)}")
        return decl(name).value

    return {name: decl(name) for name in doc}
