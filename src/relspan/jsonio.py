"""JSON encodings for every external interface.

A fixture file is a single JSON object mapping names to declarations; each
declaration carries a "kind" field.  At most MAX_FILE_BYTES of it are read,
as UTF-8, opening at most MAX_FILE_CONTAINERS arrays and objects (see
load_context).  Matrices are exact: entries are strings,
rationals as "a/b", and each matrix must have the shape its declaration
implies before it is built.  Loading a file reads the kind of every
declaration, and refuses a missing or unknown one, but decodes no body: a
declaration is decoded into its live object when a command first reads it,
by name or through a reference, once, by the decoder one table maps its kind
to.  So declarations may come in any order, and a command refuses only the
malformed declarations it reads (`check` without a name reads them all, in
file order).  A matrix is filled as sparse columns, each distinct entry text
parsed once.  Sizes, indices and table entries must be JSON integers.  It
rejects what the constructions cannot take, such as a cospan whose legs are
not two morphisms of one base category.  Encoding covers fields and
matrices, for the CLI's results.

This module owns the input-size policy: every MAX_* bound, and the gates
that refuse, before it is built, what would exceed one.  Decoding refuses a
category or a monoid with more than MAX_PULLBACK_PAIRS composable triples
and a coalgebra whose coassociativity products number more than
MAX_COASSOC_PRODUCTS (bound_coalgebra); the CLI counts what each command
builds on finite-set input with bound_chain, bounds its equalizers with
bound_equalizer and the matrices it writes with require_encodable.  Each
refusal reads "… is too large to … (at most N)".
"""

from __future__ import annotations

import json
import math
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


class _NamedRefusal(ParseError):
    """A refused declaration, already named by its message."""


def _int(v) -> int:
    """A size, index or table entry: a JSON integer and nothing else (no
    float, string or boolean)."""
    if type(v) is int:
        return v
    if isinstance(v, float) and math.isinf(v):  # JSON Infinity
        raise ValueError(f"expected an integer, got {'-' if v < 0 else ''}infinity")
    raise ValueError(f"expected an integer, got {v!r}")


def _reason(exc: Exception) -> str:
    """Why a decoder refused its JSON: a KeyError is a missing field."""
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


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


# -- the input-size policy ---------------------------------------------------------


# The most cells of the dense grid matrix_to_json builds, about 80 B a cell.
MAX_ENCODED_CELLS = 10**6
# The most bytes load_context reads from a fixture file.
MAX_FILE_BYTES = 32 * 2**20
# The most JSON arrays and objects a fixture file may open, counted as its
# "[" and "{" bytes before it is decoded: each costs 56 B or more decoded.
MAX_FILE_CONTAINERS = 10**6
# The most matching pairs of a finite-set pullback built: each pair is kept
# as a tuple and each projection as a table, and all are written, about
# 250 B a pair.  It also bounds the triples a·b·c a monoid's associativity
# check visits, as it bounds a category's composable triples.
MAX_PULLBACK_PAIRS = 250_000
# The most elements of a finite set linearized or built a chain's identities
# on: k[X] keeps a sparse δ column per element, about 1 KB each.
MAX_LINEARIZED = 100_000
# The most dimensions of a tensor product A⊗C any equalizer is taken in.
MAX_EQUALIZER_DIM = 10_000
# The most products of (δ⊗1)∘δ and (1⊗δ)∘δ a coalgebra's axiom check is
# allowed: at the bound, a dense 34-dimensional coalgebra.
# coalg.check_coalgebra builds both sides over Q, a large p or a sparse δ;
# on a dense δ over F_p within the gate of linalg's packed layer it decides
# them in 64-bit slots instead (linalg._coassoc_difference), at less cost,
# and the count is the same.
MAX_COASSOC_PRODUCTS = 10**8


def _refuse(label, what, verb, bound):
    """Refuse what, under label when one is given: it is too large to verb."""
    named = f"{label}: " if label else ""
    raise RelspanError(f"{named}{what} is too large to {verb} (at most {bound})")


def require_encodable(rows: int, cols: int, label=None):
    """Refuse a rows x cols matrix of more than MAX_ENCODED_CELLS cells,
    under label when one is given."""
    if rows * cols > MAX_ENCODED_CELLS:
        _refuse(label, f"a {rows} x {cols} matrix", "encode", f"{MAX_ENCODED_CELLS} cells")


def bound_chain(label, tables, sets, linear):
    """Refuse, under label, before anything is built, a set of more than
    MAX_LINEARIZED elements among sets, then an iterated pullback of a
    sub-chain X_i … X_j of the zigzag of tables of more than
    MAX_PULLBACK_PAIRS pairs, size(i, j), then, when linear, one whose
    equalizer on a split i ≤ k < j runs in more than MAX_EQUALIZER_DIM
    dimensions, size(i, k)·size(k+1, j).  A cospan A → B ← C has d pairs and
    its equalizer runs in A⊗C.  Returns size."""
    if max(sets, default=0) > MAX_LINEARIZED:
        _refuse(label, f"a set of {max(sets)} elements", "check", MAX_LINEARIZED)
    xs = [len(tables[0])] + [len(t) for t in tables[1::2]]
    size = {(i, i): x for i, x in enumerate(xs)}
    size.update(((i, j), _finset.pair_count(*tables[2 * i:2 * j]))
                for i in range(len(xs)) for j in range(i + 1, len(xs)))
    pairs = max(size[i, j] for i, j in size if i < j)
    if pairs > MAX_PULLBACK_PAIRS:
        _refuse(label, f"a pullback of {pairs} matching pairs", "build", MAX_PULLBACK_PAIRS)
    if linear:
        bound_equalizer(label, max(size[i, k] * size[k + 1, j] for i, j in size for k in range(i, j)))
    return size


def bound_equalizer(label, dim):
    """Refuse, under label, an equalizer in a tensor product of dimension dim
    above MAX_EQUALIZER_DIM."""
    if dim > MAX_EQUALIZER_DIM:
        _refuse(label, f"an equalizer in a tensor product of dimension {dim}", "build",
                MAX_EQUALIZER_DIM)


def bound_coalgebra(label, c):
    """Refuse, under label, a coalgebra whose axiom check would make more
    than MAX_COASSOC_PRODUCTS products of (δ⊗1)∘δ and (1⊗δ)∘δ, counted as
    if both were built (they are, off the gate of linalg's packed F_p
    layer, whose decider linalg._coassoc_difference builds neither): a
    nonzero of δ at row r makes |δ[:, r // n]| + |δ[:, r % n]| of them.
    Counted in one pass over δ's nonzeros, nothing built."""
    cols, n = c.delta.columns, c.dim
    lengths = [len(col) for col in cols]
    products = sum(lengths[r // n] + lengths[r % n] for col in cols for r in col)
    if products > MAX_COASSOC_PRODUCTS:
        _refuse(label, f"a coalgebra with {products} coassociativity products", "check",
                MAX_COASSOC_PRODUCTS)


def matrix_to_json(m: Matrix):
    """The dense entry grid of m, "0" off its stored entries, refused before
    it is built when m has more than MAX_ENCODED_CELLS cells."""
    require_encodable(m.rows, m.cols)
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
        # cells in row order, so the first bad one is refused as before
        scalar, columns = {}, [{} for _ in range(cols)]
        for i, row in enumerate(entries):
            for col, x in zip(columns, row):
                if type(x) is not str or x not in scalar:
                    scalar[x] = fld.parse(_text(x))
                if v := scalar[x]:
                    col[i] = v
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix: {_reason(exc)}") from exc
    return Matrix.from_cols(fld, rows, columns)


# -- declarations -----------------------------------------------------------------
#
# Each decoder takes the declaration's JSON object and ref(name, role, kinds),
# which returns the decoded value of the declaration a reference names.


def _coalgebra(obj, ref=None) -> _coalg.Coalgebra:
    """The coalgebra obj declares, refused when its axiom check is too large
    (bound_coalgebra), under every command that reads it."""
    dim = _int(obj["dim"])
    c = _coalg.Coalgebra(
        dim,
        field_from_json(obj["field"]),
        delta=matrix_from_json(obj["delta"], dim * dim, dim),
        epsilon=matrix_from_json(obj["epsilon"], 1, dim),
    )
    bound_coalgebra(None, c)
    return c


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
    """(carrier, multiplication, unit) of a monoid given by its table;
    refused, before the table is read, when the associativity check would
    visit more than MAX_PULLBACK_PAIRS triples (a one-object category)."""
    size = _int(obj["size"])
    if size**3 > MAX_PULLBACK_PAIRS:
        _refuse(None, f"a monoid with {size**3} triples", "check", MAX_PULLBACK_PAIRS)
    table = _ints(obj["table"])
    if len(table) != size * size:
        raise ParseError("monoid table must have size^2 entries")
    carrier = _finset.FinSetObj(size)
    return carrier, _finset.FinFun(_finset.FinSetObj(size * size), carrier, table), _int(obj["unit"])


def _bound_triples(src, tgt):
    """Refuse arrows with more than MAX_PULLBACK_PAIRS triples i∘j∘k, the
    matching chains i, j, k of the zigzag src, tgt, src, tgt: they are the
    pairs of the pullback that axiom (e) builds, and the associativity
    checks visit each one."""
    n = _finset.pair_count(src, tgt, src, tgt)
    if n > MAX_PULLBACK_PAIRS:
        _refuse(None, f"a category with {n} composable triples", "check", MAX_PULLBACK_PAIRS)


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
    # count the pairs of the pullback of (s, t) from the fibers, so a d of
    # the wrong length is refused before they are built
    pairs = _finset.pair_count(s.table, t.table)
    if len(d_table) != pairs:
        raise ValueError(f"d table has {len(d_table)} entries but the pullback has {pairs} pairs")
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
    if len(obj["maps"]) != len(sizes) - 1:
        raise ParseError("a chain needs one map per adjacent pair")
    maps = []
    for idx, table in enumerate(obj["maps"]):
        # even maps point right (X_i -> Y_{i+1}), odd maps left
        dom = _finset.FinSetObj(sizes[idx] if idx % 2 == 0 else sizes[idx + 1])
        cod = _finset.FinSetObj(sizes[idx + 1] if idx % 2 == 0 else sizes[idx])
        maps.append(_finset.FinFun(dom, cod, _ints(table)))
    return maps


def _cospan(obj, ref) -> tuple:
    """(base, left, right): the legs and the one base category that both are
    morphisms of."""
    left, right = (ref(obj[side], "cospan leg", ("finset_fun", "coalgebra_map"))
                   for side in ("left", "right"))
    if type(left) is type(right) is _finset.FinFun:
        return _finset.FINSET, left, right
    if type(left) is type(right) is _coalg.CoalgMap and left.mat.field == right.mat.field:
        return _coalg.CoalgCategory(left.mat.field), left, right
    raise ValueError("cospan legs must be two finset_fun or two coalgebra_map declarations "
                     "over one field")


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


class Context:
    """The declarations of one fixture file.  Every kind is read up front,
    {name: kind} in file order; ctx[name] is the Decl, decoded when first
    looked up, directly or through a reference, and kept in done."""

    def __init__(self, doc: dict):
        self.kinds = {name: _kind(name, obj) for name, obj in doc.items()}
        self.doc = doc
        self.done: dict[str, Decl] = {}

    def __getitem__(self, name) -> Decl:
        if name not in self.done:
            kind = self.kinds[name]
            try:
                self.done[name] = Decl(kind, _DECODERS[kind](self.doc[name], self._ref))
            except _NamedRefusal:  # as raised, so a nested refusal keeps its one prefix
                raise
            except (RelspanError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise _NamedRefusal(f"bad declaration {name!r}: {_reason(exc)}") from exc
        return self.done[name]

    def _ref(self, name, role, kinds):
        if not isinstance(name, str) or name not in self.kinds:
            raise ValueError(f"{role} {name!r} is not declared")
        kind = self.kinds[name]
        if kind not in kinds:
            raise ValueError(f"{role} {name!r} is a {kind}, expected {' or '.join(kinds)}")
        return self[name].value


def load_context(path: str) -> Context:
    """The declarations of a fixture file, their kinds checked and nothing
    decoded.  At most MAX_FILE_BYTES are read, as UTF-8; a longer file, one
    with more than MAX_FILE_CONTAINERS "[" and "{" bytes, bytes that are not
    UTF-8, JSON nested past the recursion limit and an integer past Python's
    int-conversion limit are refused, naming the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(2**16)  # read(n) allocates n bytes first: no 32 MiB buffer for a small file
            if len(raw) == 2**16 <= MAX_FILE_BYTES:
                raw += fh.read(MAX_FILE_BYTES + 1 - len(raw))
        if len(raw) > MAX_FILE_BYTES:
            raise ParseError(f"cannot read {path}: the file is longer than {MAX_FILE_BYTES} bytes")
        if raw.count(b"[") + raw.count(b"{") > MAX_FILE_CONTAINERS:
            raise ParseError(f"cannot read {path}: the file opens more than {MAX_FILE_CONTAINERS}"
                             " JSON arrays and objects")
        doc = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON, UTF-8, the int-conversion limit
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("fixture file must be a JSON object of named declarations")
    return Context(doc)
