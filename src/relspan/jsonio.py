"""JSON encodings for every external interface.

A fixture file is a single JSON object mapping names to declarations; each
declaration carries a "kind" field.  Matrices are exact: entries are strings,
rationals as "a/b".  Decoding is a pure function from the file to a context
dict of live objects; it rejects what the constructions cannot take, such as a
cospan whose legs are not two morphisms of one base category, and records the
base category of each cospan.  Encoding covers fields and matrices, for the
CLI's results.
"""

from __future__ import annotations

import json

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


# -- fields and matrices ---------------------------------------------------------


def field_to_json(fld):
    if fld == QQ:
        return "Q"
    return {"Fp": fld.p}


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and "Fp" in obj:
        return GF(int(obj["Fp"]))
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


def matrix_to_json(m: Matrix):
    fld = m.field
    return {
        "field": field_to_json(fld),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[fld.fmt(x) for x in row] for row in m.data],
    }


def matrix_from_json(obj) -> Matrix:
    try:
        fld = field_from_json(obj["field"])
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ParseError("matrix entry grid does not match rows x cols")
        data = [[fld.parse(str(x)) for x in row] for row in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix: {exc}") from exc
    return Matrix(fld, data, rows, cols)


# -- declarations -----------------------------------------------------------------


def _decode_coalgebra(obj) -> _coalg.Coalgebra:
    fld = field_from_json(obj["field"])
    return _coalg.Coalgebra(
        int(obj["dim"]),
        fld,
        delta=matrix_from_json(obj["delta"]),
        epsilon=matrix_from_json(obj["epsilon"]),
    )


def _decode_finset_obj(obj) -> _finset.FinSetObj:
    return _finset.FinSetObj(int(obj["set"]))


def _decode_finset_fun(obj) -> _finset.FinFun:
    body = obj.get("fun", obj)
    return _finset.FinFun(
        _finset.FinSetObj(int(body["dom"])),
        _finset.FinSetObj(int(body["cod"])),
        [int(v) for v in body["table"]],
    )


def _decode_bialgebra(obj) -> MonoidObj:
    c = _decode_coalgebra(obj)
    base = _coalg.CoalgCategory(c.field)
    m = _coalg.CoalgMap(_coalg.tensor_coalgebra(c, c), c, matrix_from_json(obj["m"]))
    u = _coalg.CoalgMap(base.unit_obj(), c, matrix_from_json(obj["u"]))
    return MonoidObj(base, c, m, u)


def _decode_small_category(obj) -> _relcat.SmallCategory:
    return _relcat.SmallCategory(
        int(obj["objects"]),
        int(obj["arrows"]),
        [int(v) for v in obj["src"]],
        [int(v) for v in obj["tgt"]],
        [int(v) for v in obj["id"]],
        [[int(v) for v in row] for row in obj["comp"]],
    )


def _decode_relative_category(obj) -> _relcat.RelativeCategory:
    if obj.get("instance", "finset") != "finset":
        raise ParseError("raw relative_category declarations are finset-only")
    b = _finset.FinSetObj(int(obj["objects"]))
    a = _finset.FinSetObj(int(obj["arrows"]))
    s = _finset.FinFun(a, b, [int(v) for v in obj["s"]])
    t = _finset.FinFun(a, b, [int(v) for v in obj["t"]])
    i = _finset.FinFun(b, a, [int(v) for v in obj["i"]])
    pb = relative_pullback(_finset.FINSET, s, t)
    d_table = [int(v) for v in obj["d"]]
    if len(d_table) != pb.apex.size:
        raise ParseError(
            f"d table has {len(d_table)} entries but the pullback has {pb.apex.size} pairs"
        )
    d = _finset.FinFun(pb.apex, a, d_table)
    return _relcat.RelativeCategory(_finset.FINSET, b, a, s, t, i, d, pb)


_SIMPLE_KINDS = {
    "coalgebra": _decode_coalgebra,
    "finset_obj": _decode_finset_obj,
    "finset_fun": _decode_finset_fun,
    "bialgebra": _decode_bialgebra,
    "small_category": _decode_small_category,
    "relative_category": _decode_relative_category,
}

KNOWN_KINDS = set(_SIMPLE_KINDS) | {
    "coalgebra_map",
    "finset_monoid",
    "cospan",
    "chain",
    "functor",
}


_LEG_KINDS = ("finset_fun", "coalgebra_map")


def _cospan_base(left: "Decl", right: "Decl"):
    """The one base category that both legs of a cospan are morphisms of."""
    if left.kind == right.kind == "finset_fun":
        return _finset.FINSET
    if left.kind == right.kind == "coalgebra_map" and left.value.mat.field == right.value.mat.field:
        return _coalg.CoalgCategory(left.value.mat.field)
    raise ValueError(f"cospan legs must be two finset_fun or two coalgebra_map declarations "
                     f"over one field, got {left.kind} and {right.kind}")


class Decl:
    """A decoded declaration: the live object plus its raw JSON.  A cospan's
    value is its (left, right) legs and its base their base category."""

    base = None

    def __init__(self, kind, value, raw):
        self.kind = kind
        self.value = value
        self.raw = raw


def load_context(path: str) -> dict:
    """Decode a fixture file into an ordered {name: Decl} context."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("fixture file must be a JSON object of named declarations")
    if "kind" in doc and isinstance(doc["kind"], str):
        doc = {"it": doc}
    ctx: dict[str, Decl] = {}
    deferred = []
    for name, obj in doc.items():
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParseError(f"declaration {name!r} has no kind")
        kind = obj["kind"]
        if kind not in KNOWN_KINDS:
            raise ParseError(f"declaration {name!r} has unknown kind {kind!r}")
        try:
            if kind in _SIMPLE_KINDS:
                ctx[name] = Decl(kind, _SIMPLE_KINDS[kind](obj), obj)
            elif kind == "finset_monoid":
                size = int(obj["size"])
                table = [int(v) for v in obj["table"]]
                if len(table) != size * size:
                    raise ParseError("monoid table must have size^2 entries")
                carrier = _finset.FinSetObj(size)
                m = _finset.FinFun(_finset.FinSetObj(size * size), carrier, table)
                ctx[name] = Decl(kind, (carrier, m, int(obj["unit"])), obj)
            elif kind == "chain":
                if obj.get("instance", "finset") != "finset":
                    raise ParseError("chains are declared over finset (linearize via --instance)")
                sizes = [int(v) for v in obj["sizes"]]
                if len(sizes) % 2 == 0 or len(sizes) < 3:
                    raise ParseError("a chain needs an odd number (>= 3) of objects")
                maps = []
                for idx, table in enumerate(obj["maps"]):
                    # even maps point right (X_i -> Y_{i+1}), odd maps left
                    dom = _finset.FinSetObj(sizes[idx] if idx % 2 == 0 else sizes[idx + 1])
                    cod = _finset.FinSetObj(sizes[idx + 1] if idx % 2 == 0 else sizes[idx])
                    maps.append(_finset.FinFun(dom, cod, [int(v) for v in table]))
                if len(maps) != len(sizes) - 1:
                    raise ParseError("a chain needs one map per adjacent pair")
                ctx[name] = Decl(kind, maps, obj)
            else:
                deferred.append((name, kind, obj))
        except ParseError:
            raise
        except (RelspanError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad declaration {name!r}: {exc}") from exc
    # coalgebra maps first, so a cospan may name maps declared after it; the
    # context keeps the deferred declarations in file order
    for name, kind, obj in sorted(deferred, key=lambda d: d[1] != "coalgebra_map"):
        try:
            if kind == "coalgebra_map":
                src = _declared(doc, ctx, obj["src"], "src", ("coalgebra",)).value
                tgt = _declared(doc, ctx, obj["tgt"], "tgt", ("coalgebra",)).value
                ctx[name] = Decl(
                    kind, _coalg.CoalgMap(src, tgt, matrix_from_json(obj["matrix"])), obj
                )
            elif kind == "cospan":
                left, right = (_declared(doc, ctx, obj[side], "cospan leg", _LEG_KINDS)
                               for side in ("left", "right"))
                base = _cospan_base(left, right)
                ctx[name] = Decl(kind, (left.value, right.value), obj)
                ctx[name].base = base
            elif kind == "functor":
                ctx[name] = Decl(kind, obj, obj)
        except ParseError:
            raise
        except (RelspanError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad declaration {name!r}: {exc}") from exc
    for name, _, _ in deferred:
        ctx[name] = ctx.pop(name)
    return ctx


def _declared(doc, ctx, name, role, kinds) -> Decl:
    """The decoded declaration that a reference names; it must be of one of kinds."""
    if not isinstance(name, str) or name not in doc:
        raise ValueError(f"{role} {name!r} is not declared")
    kind = doc[name]["kind"]
    if kind not in kinds:
        raise ValueError(f"{role} {name!r} is a {kind}, expected {' or '.join(kinds)}")
    return ctx[name]
